#include "load.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "cloud/packet.hh"
#include "virtio/virtio_blk.hh"

namespace perfbench {

namespace {

constexpr Bytes blockBytes = 4 * KiB;
constexpr std::uint64_t sectorsPerBlock = blockBytes / 512;

} // namespace

void
at(Simulation &sim, Tick when, std::function<void()> fn)
{
    sim.eventq().schedule(new OneShotEvent(std::move(fn), "perfbench"),
                          when);
}

// ---------------------------------------------------------------- Flood

Flood::Flood(Simulation &sim, workloads::GuestContext src,
             workloads::GuestContext dst, Shape shape,
             std::uint64_t seed, Tick window_start, Tick window_end)
    : sim_(sim), src_(src), dst_(dst), shape_(shape), gen_(seed),
      t0_(window_start), t1_(window_end), lastSeq_(shape.flows, 0)
{
}

void
Flood::start()
{
    dst_.net->setRxProcessing(workloads::stackCost(shape_.stack),
                              shape_.flows);
    const cloud::MacAddr from = src_.net->mac();
    dst_.net->setRxHandler([this, from](const cloud::Packet &p) {
        ++received_;
        if (p.src != from || p.flow >= lastSeq_.size()) {
            ++strays_;
            return;
        }
        // Sequence numbers grow per sender; within one flow they
        // must arrive strictly increasing (no reorder, no dup).
        if (p.seq + 1 <= lastSeq_[p.flow])
            ++outOfOrder_;
        lastSeq_[p.flow] = p.seq + 1;
        Tick now = sim_.now();
        if (now >= t0_ && now < t1_) {
            ++inWindow_;
            lat_.record(now - p.created);
        }
    });
    // Senders start at seeded offsets within the first 100 ns.
    for (unsigned f = 0; f < shape_.flows; ++f)
        at(sim_, sim_.now() + Tick(double(nsToTicks(100)) * gen_.unit()),
           [this, f] { senderLoop(f); });
}

void
Flood::senderLoop(unsigned flow)
{
    if (stop_)
        return;
    hw::CpuExecutor &cpu = src_.cpu(flow + 1);
    cpu.run(Tick(shape_.batch) * workloads::stackCost(shape_.stack),
            [this, flow] {
        if (stop_)
            return;
        unsigned pushed = 0;
        for (unsigned i = 0; i < shape_.batch; ++i) {
            cloud::Packet p;
            p.src = src_.net->mac();
            p.dst = dst_.net->mac();
            p.len = cloud::udpFrameBytes(shape_.payloadBytes);
            p.created = sim_.now();
            p.seq = seq_++;
            p.flow = flow;
            if (!src_.net->sendPacket(p, false, src_.cpu(flow + 1))) {
                --seq_;
                break;
            }
            ++pushed;
        }
        sent_ += pushed;
        if (pushed > 0) {
            src_.net->kickTx(src_.cpu(flow + 1));
            senderLoop(flow);
        } else {
            at(sim_, sim_.now() + paper::backendPollPeriod,
               [this, flow] { senderLoop(flow); });
        }
    });
}

void
Flood::finish(Violations &v)
{
    stop_ = true;
    dst_.net->setRxHandler(nullptr);
    dst_.net->setRxProcessing(0, 1);
    v["net.out_of_order"] += outOfOrder_;
    v["net.stray"] += strays_;
    if (received_ > sent_)
        v["net.received_gt_sent"] += received_ - sent_;
}

// -------------------------------------------------------------- BlkJobs

BlkJobs::BlkJobs(Simulation &sim, workloads::GuestContext g,
                 unsigned read_jobs, unsigned write_jobs,
                 std::uint64_t volume_sectors, std::uint64_t seed,
                 Tick window_start, Tick window_end)
    : sim_(sim), g_(g), readJobs_(read_jobs), writeJobs_(write_jobs),
      blocks_(volume_sectors / sectorsPerBlock), gen_(seed),
      t0_(window_start), t1_(window_end)
{
}

void
BlkJobs::start()
{
    for (unsigned j = 0; j < readJobs_ + writeJobs_; ++j)
        jobLoop(j);
}

std::vector<std::uint8_t>
BlkJobs::pattern(std::uint64_t lba, std::uint64_t version) const
{
    std::vector<std::uint8_t> out(blockBytes);
    Gen p(lba * 0x100000001B3ULL ^ version);
    for (std::size_t i = 0; i < out.size(); i += 8) {
        std::uint64_t w = p.next();
        std::memcpy(&out[i], &w, 8);
    }
    return out;
}

void
BlkJobs::jobLoop(unsigned job)
{
    if (stop_)
        return;
    hw::CpuExecutor &cpu = g_.cpu(job);
    cpu.run(usToTicks(1.2), [this, job] {
        if (stop_)
            return;
        const bool write = job >= readJobs_;
        std::uint64_t block;
        if (write) {
            // Write job w owns blocks b with b % writeJobs_ == w.
            unsigned w = job - readJobs_;
            block = gen_.below(blocks_ / writeJobs_) * writeJobs_ + w;
        } else {
            block = gen_.below(blocks_);
        }
        const std::uint64_t lba = block * sectorsPerBlock;
        const std::uint64_t id = done_.size();
        const std::uint64_t version = ++version_;
        const Tick issued = sim_.now();
        auto cb = [this, job, id, write, block, version,
                   issued](std::uint8_t status, Addr) {
            --inflight_;
            ++completed_;
            if (done_[id] < 255)
                ++done_[id];
            if (status != virtio::VIRTIO_BLK_S_OK) {
                ++badStatus_;
            } else {
                if (write)
                    written_[block] = version;
                if (issued >= t0_ && issued < t1_)
                    (write ? writeLat_ : readLat_)
                        .record(sim_.now() - issued);
            }
            jobLoop(job);
        };
        done_.push_back(0);
        ++inflight_;
        bool ok;
        if (write) {
            auto data = pattern(lba, version);
            ok = g_.blk->write(lba, blockBytes, &data, g_.cpu(job), cb);
        } else {
            ok = g_.blk->read(lba, blockBytes, g_.cpu(job), cb);
        }
        if (!ok) {
            done_.pop_back();
            --inflight_;
            at(sim_, sim_.now() + usToTicks(10),
               [this, job] { jobLoop(job); });
        }
    });
}

void
BlkJobs::finish(Violations &v)
{
    stop_ = true;
    v["blk.bad_status"] += badStatus_;
    for (std::uint8_t c : done_)
        if (c != 1)
            ++v["blk.lost_or_dup"];
}

void
BlkJobs::verify(unsigned samples, Violations &v)
{
    if (written_.empty())
        return;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> all(
        written_.begin(), written_.end());
    for (std::size_t i = 0; i < samples && i < all.size(); ++i)
        std::swap(all[i], all[i + gen_.below(all.size() - i)]);
    all.resize(std::min<std::size_t>(samples, all.size()));

    // Shared with the callbacks, which may outlive this call when a
    // read-back never returns.
    struct Tally
    {
        unsigned pending = 0;
        std::uint64_t mismatches = 0;
        std::uint64_t failures = 0;
    };
    auto tally = std::make_shared<Tally>();
    for (auto [block, version] : all) {
        auto cb = [this, tally,
                   want = pattern(block * sectorsPerBlock, version)](
                      std::uint8_t status, Addr data) {
            --tally->pending;
            if (status != virtio::VIRTIO_BLK_S_OK) {
                ++tally->failures;
                return;
            }
            std::vector<std::uint8_t> got(blockBytes);
            g_.os->memory().read(data, got.data(), blockBytes);
            if (got != want)
                ++tally->mismatches;
        };
        ++readbacks_;
        ++tally->pending;
        // One at a time from vCPU 0; retry while the ring is busy.
        while (!g_.blk->read(block * sectorsPerBlock, blockBytes,
                             g_.cpu(0), cb))
            sim_.run(sim_.now() + usToTicks(10));
        Tick limit = sim_.now() + msToTicks(50);
        while (tally->pending > 0 && sim_.now() < limit)
            sim_.run(sim_.now() + usToTicks(20));
        if (tally->pending > 0) {
            ++v["blk.readback_lost"];
            return;
        }
    }
    v["blk.readback_mismatch"] += tally->mismatches;
    v["blk.readback_bad_status"] += tally->failures;
}

// ----------------------------------------------------------- OpenReader

void
OpenReader::tick(Tick now, bool in_window)
{
    if (!stopped_)
        backlog_.emplace_back(now, in_window);
    if (held_)
        return;
    std::size_t issued = 0;
    for (; issued < backlog_.size(); ++issued) {
        auto [due, counted] = backlog_[issued];
        const std::uint64_t id = done_.size();
        done_.push_back(0);
        auto cb = [this, id, due, counted](std::uint8_t status, Addr) {
            lastDone_ = cpu_->curTick();
            --inflight_;
            ++completed_;
            if (done_[id] < 255)
                ++done_[id];
            if (status != virtio::VIRTIO_BLK_S_OK)
                ++badStatus_;
            else if (counted)
                lat_.record(lastDone_ - due);
        };
        const std::uint64_t lba = gen_.below(blocks_) * sectorsPerBlock;
        if (!blk_->read(lba, blockBytes, *cpu_, cb)) {
            done_.pop_back();
            deferrals_ += backlog_.size() - issued;
            break;
        }
        ++inflight_;
    }
    backlog_.erase(backlog_.begin(), backlog_.begin() + issued);
}

void
OpenReader::finish(Violations &v)
{
    v["fleet.bad_status"] += badStatus_;
    v["fleet.unissued"] += backlog_.size();
    for (std::uint8_t c : done_)
        if (c != 1)
            ++v["fleet.lost_or_dup"];
}

} // namespace perfbench
