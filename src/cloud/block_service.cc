#include "cloud/block_service.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/logging.hh"
#include "cloud/dif.hh"

namespace bmhive {
namespace cloud {

void
Volume::writeData(std::uint64_t lba,
                  const std::vector<std::uint8_t> &data)
{
    panic_if((lba + (data.size() + 511) / 512) * 512 > capacity_,
             name_, ": write beyond capacity");
    std::size_t off = 0;
    while (off < data.size()) {
        auto &block = blocks_[lba + off / 512];
        std::size_t n = std::min<std::size_t>(512, data.size() - off);
        std::copy_n(data.begin() + long(off), n, block.begin());
        if (n < 512)
            std::fill(block.begin() + long(n), block.end(), 0);
        off += n;
    }
}

std::vector<std::uint8_t>
Volume::readData(std::uint64_t lba, Bytes len) const
{
    panic_if(lba * 512 + len > capacity_,
             name_, ": read beyond capacity");
    std::vector<std::uint8_t> out(len, 0);
    Bytes off = 0;
    while (off < len) {
        auto it = blocks_.find(lba + off / 512);
        Bytes n = std::min<Bytes>(512, len - off);
        if (it != blocks_.end())
            std::copy_n(it->second.begin(), n,
                        out.begin() + long(off));
        off += n;
    }
    return out;
}

void
Volume::writeTags(std::uint64_t lba,
                  const std::vector<std::uint8_t> &tags)
{
    std::size_t n = tags.size() / difTagBytes;
    for (std::size_t i = 0; i < n; ++i) {
        auto &t = tags_[lba + i];
        std::copy_n(tags.begin() + long(i * difTagBytes),
                    difTagBytes, t.begin());
    }
}

std::vector<std::uint8_t>
Volume::readTags(std::uint64_t lba, Bytes payload_len) const
{
    std::size_t n = payload_len / difSectorBytes;
    auto data = readData(lba, n * difSectorBytes);
    std::vector<std::uint8_t> out;
    out.reserve(n * difTagBytes);
    for (std::size_t i = 0; i < n; ++i) {
        auto it = tags_.find(lba + i);
        if (it != tags_.end()) {
            out.insert(out.end(), it->second.begin(),
                       it->second.end());
        } else {
            auto t = difTag(data.data() + i * difSectorBytes,
                            lba + i);
            out.insert(out.end(), t.begin(), t.end());
        }
    }
    return out;
}

BlockService::BlockService(Simulation &sim, std::string name,
                           Params params)
    : SimObject(sim, std::move(name)), params_(params),
      channelFree_(params.channels, 0),
      completed_(metrics().counter(this->name() + ".completed")),
      reads_(metrics().counter(this->name() + ".reads")),
      writes_(metrics().counter(this->name() + ".writes")),
      faultLost_(metrics().counter(this->name() + ".fault.lost")),
      faultDelayed_(
          metrics().counter(this->name() + ".fault.delayed")),
      fabricCorruptions_(metrics().counter(
          this->name() + ".integrity.fabric_corruptions")),
      serviceLatency_(metrics().latency(this->name() + ".service"))
{
    panic_if(params.channels == 0, "storage needs >= 1 channel");
    sim_.faults().add(this->name(), [this](const fault::FaultSpec &s) {
        return injectFault(s);
    });
}

BlockService::~BlockService() { sim_.faults().remove(name()); }

bool
BlockService::injectFault(const fault::FaultSpec &spec)
{
    switch (spec.kind) {
      case fault::FaultKind::BlockLose:
        loseBudget_ += spec.count ? spec.count : 1;
        return true;
      case fault::FaultKind::BlockDelay:
        delayBudget_ += spec.count ? spec.count : 1;
        delayExtra_ =
            spec.duration
                ? spec.duration
                : Tick(double(params_.gcPause) *
                       std::max(1.0, spec.magnitude));
        return true;
      case fault::FaultKind::FabricCorrupt:
        corruptBudget_ += spec.count ? spec.count : 1;
        return true;
      default:
        return false;
    }
}

bool
BlockService::takeCorruption()
{
    if (corruptBudget_ == 0)
        return false;
    --corruptBudget_;
    fabricCorruptions_.inc();
    return true;
}

Volume &
BlockService::createVolume(const std::string &name, Bytes capacity)
{
    volumes_.push_back(std::make_unique<Volume>(name, capacity));
    return *volumes_.back();
}

Tick
BlockService::occupyChannel(Tick start, Tick service)
{
    auto it = std::min_element(channelFree_.begin(),
                               channelFree_.end());
    Tick begin = std::max(start, *it);
    Tick end = begin + service;
    *it = end;
    return end;
}

Tick
BlockService::drawService(const BlockIo &io)
{
    // SSD service time: lognormal around the median, plus the
    // occasional housekeeping pause that produces the p99.9 tail.
    Tick median = io.write ? params_.writeServiceMedian
                           : params_.readServiceMedian;
    double mu = std::log(double(median));
    Tick service = Tick(rng().lognormal(mu, params_.serviceSigma));
    if (rng().chance(params_.gcChance))
        service += params_.gcPause;

    // Larger I/Os stream at the flash channel bandwidth.
    if (io.len > 4 * KiB) {
        service +=
            params_.streamBandwidth.transferTime(io.len - 4 * KiB);
    }

    // Injected latency spike (fabric congestion / failover).
    if (delayBudget_ > 0) {
        --delayBudget_;
        faultDelayed_.inc();
        service += delayExtra_;
    }
    return service;
}

void
BlockService::submit(Volume &vol, BlockIo io)
{
    (void)vol;
    // An injected fabric loss: the request vanishes and its
    // completion never fires. Recovery is the submitter's timeout.
    if (loseBudget_ > 0) {
        --loseBudget_;
        faultLost_.inc();
        return;
    }
    // The request reaches the cluster one request leg after it left
    // the server, whether the submitter hands it over then or once
    // the leg has elapsed; the reply carries the payload (reads) or
    // a status (writes) back.
    Bytes from_storage = io.write ? 64 : io.len + 64;
    Tick arrive = io.submittedAt + requestDelay(io);
    Tick service = drawService(io);
    Tick done_at_storage = occupyChannel(arrive, service);
    Tick completion = done_at_storage + params_.networkLatency +
                      params_.networkBandwidth.transferTime(
                          from_storage);

    completed_.inc();
    if (io.write)
        writes_.inc();
    else
        reads_.inc();
    serviceLatency_.record(completion - io.submittedAt);
    // Claim return-leg corruption here, in arrival order at the
    // service (deterministic for any thread count), and ship the
    // verdict with the completion.
    bool wire = !io.write && io.wantCorruption && takeCorruption();
    auto done = std::move(io.done);
    sim_.post(io.srcPartition, completion,
              [done = std::move(done), wire] { done(wire); },
              Event::defaultPri, "storage.complete");
}

} // namespace cloud
} // namespace bmhive
