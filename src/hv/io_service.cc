#include "hv/io_service.hh"

#include <utility>

#include "base/logging.hh"
#include "cloud/dif.hh"
#include "guest/packet_wire.hh"
#include "virtio/virtio_blk.hh"

namespace bmhive {
namespace hv {

using namespace virtio;

namespace {

/** CPU cost to submit/complete one block I/O. */
constexpr Tick blkTouchCost = usToTicks(1.0);
/** Block-fabric request timeout: a request not completed within
 *  this window is resubmitted with exponential backoff (each
 *  attempt doubles the wait). */
constexpr Tick blkTimeout = msToTicks(10.0);
/** Resubmissions before a request fails with IOERR. */
constexpr unsigned blkMaxRetries = 4;

} // namespace

VirtioIoService::VirtioIoService(Simulation &sim, std::string name,
                                 hw::CpuExecutor &core,
                                 IoServiceParams params)
    : SimObject(sim, std::move(name)), core_(core), params_(params),
      txPkts_(metrics().counter(this->name() + ".tx_pkts")),
      rxPkts_(metrics().counter(this->name() + ".rx_pkts")),
      blkIos_(metrics().counter(this->name() + ".blk_ios")),
      rxDropped_(metrics().counter(this->name() + ".rx_dropped")),
      pollsTotal_(metrics().counter(this->name() + ".poll.total")),
      pollsBusy_(metrics().counter(this->name() + ".poll.busy")),
      blkTimeouts_(
          metrics().counter(this->name() + ".blk.timeouts")),
      blkRetries_(metrics().counter(this->name() + ".blk.retries")),
      blkDupDone_(
          metrics().counter(this->name() + ".blk.dup_completions")),
      blkFailures_(
          metrics().counter(this->name() + ".blk.io_failures")),
      blkRangeErrors_(
          metrics().counter(this->name() + ".blk.range_errors")),
      difDetects_(metrics().counter(
          this->name() + ".integrity.dif_detects")),
      difRetries_(metrics().counter(
          this->name() + ".integrity.dif_retries")),
      difFails_(metrics().counter(
          this->name() + ".integrity.dif_failures")),
      pollBatch_(metrics().histogram(this->name() + ".poll.batch"))
{
    units_.emplace_back(*this, UnitKind::Whole, 0);
}

void
VirtioIoService::attachNet(GuestMemory &ring_mem,
                           const VringLayout &rx,
                           const VringLayout &tx,
                           CompletionBarrier rx_done,
                           CompletionBarrier tx_done,
                           cloud::VSwitch &vswitch, cloud::PortId port,
                           cloud::DualRateLimiter limiter)
{
    netMem_ = &ring_mem;
    netPairs_.clear();
    netPairs_.resize(1);
    NetPair &np = netPairs_[0];
    np.rx = std::make_unique<VirtQueueDevice>(ring_mem, rx);
    np.tx = std::make_unique<VirtQueueDevice>(ring_mem, tx);
    np.rxDone = std::move(rx_done);
    np.txDone = std::move(tx_done);
    vswitch_ = &vswitch;
    port_ = port;
    netLimiter_ = limiter;
    if (params_.suppressGuestNotify) {
        np.rx->setNoNotify(true);
        np.tx->setNoNotify(true);
    }
}

void
VirtioIoService::attachNetPair(unsigned pair, const VringLayout &rx,
                               const VringLayout &tx,
                               CompletionBarrier rx_done,
                               CompletionBarrier tx_done)
{
    panic_if(netMem_ == nullptr,
             name(), ": attachNetPair before attachNet");
    panic_if(pair == 0, name(), ": pair 0 belongs to attachNet");
    if (pair >= netPairs_.size())
        netPairs_.resize(pair + 1);
    NetPair &np = netPairs_[pair];
    np.rx = std::make_unique<VirtQueueDevice>(*netMem_, rx);
    np.tx = std::make_unique<VirtQueueDevice>(*netMem_, tx);
    np.rxDone = std::move(rx_done);
    np.txDone = std::move(tx_done);
    np.rxPending.clear();
    if (params_.suppressGuestNotify) {
        np.rx->setNoNotify(true);
        np.tx->setNoNotify(true);
    }
}

void
VirtioIoService::attachBlk(GuestMemory &ring_mem,
                           const VringLayout &vq,
                           CompletionBarrier done,
                           cloud::BlockService &svc, cloud::Volume &vol,
                           cloud::DualRateLimiter limiter)
{
    blkMem_ = &ring_mem;
    blkQueues_.clear();
    blkQueues_.resize(1);
    BlkQueue &bq = blkQueues_[0];
    bq.vq = std::make_unique<VirtQueueDevice>(ring_mem, vq);
    bq.done = std::move(done);
    blkSvc_ = &svc;
    vol_ = &vol;
    blkLimiter_ = limiter;
    if (params_.suppressGuestNotify)
        bq.vq->setNoNotify(true);
    // A (re)attach invalidates anything the previous incarnation of
    // these rings had in flight: completions and timers carrying an
    // older generation are ignored.
    ++blkGen_;
    blkPending_.clear();
    blkInflight_ = 0;
}

void
VirtioIoService::attachBlkQueue(unsigned q, const VringLayout &vq,
                                CompletionBarrier done)
{
    panic_if(blkMem_ == nullptr,
             name(), ": attachBlkQueue before attachBlk");
    panic_if(q == 0, name(), ": queue 0 belongs to attachBlk");
    if (q >= blkQueues_.size())
        blkQueues_.resize(q + 1);
    BlkQueue &bq = blkQueues_[q];
    bq.vq = std::make_unique<VirtQueueDevice>(*blkMem_, vq);
    bq.done = std::move(done);
    bq.core = nullptr;
    if (params_.suppressGuestNotify)
        bq.vq->setNoNotify(true);
}

void
VirtioIoService::attachConsole(
    GuestMemory &ring_mem, const VringLayout &rx,
    const VringLayout &tx, CompletionBarrier rx_done,
    CompletionBarrier tx_done,
    std::function<void(const std::string &)> sink)
{
    conMem_ = &ring_mem;
    conRx_ = std::make_unique<VirtQueueDevice>(ring_mem, rx);
    conTx_ = std::make_unique<VirtQueueDevice>(ring_mem, tx);
    conRxDone_ = std::move(rx_done);
    conTxDone_ = std::move(tx_done);
    consoleSink_ = std::move(sink);
    if (params_.suppressGuestNotify) {
        conRx_->setNoNotify(true);
        conTx_->setNoNotify(true);
    }
}

void
VirtioIoService::consoleInput(const std::string &text)
{
    conPending_.push_back(text);
    wake(UnitKind::Console);
}

sched::Pollable &
VirtioIoService::unit(UnitKind kind, unsigned idx)
{
    for (auto &u : units_) {
        if (u.kind == kind && u.idx == idx)
            return u;
    }
    return units_.emplace_back(*this, kind, idx);
}

void
VirtioIoService::wake(UnitKind kind, unsigned idx)
{
    // Whichever registered unit polls the queue: its own, or the
    // whole service.
    for (auto &u : units_) {
        if (u.registered() && u.covers(kind, idx)) {
            u.wake();
            return;
        }
    }
}

void
VirtioIoService::setNetTxKeyBase(unsigned pair,
                                 std::uint64_t key_base)
{
    if (pair < netPairs_.size())
        netPairs_[pair].txKeyBase = key_base;
}

void
VirtioIoService::setBlkKeyBase(unsigned q, std::uint64_t key_base)
{
    if (q < blkQueues_.size())
        blkQueues_[q].keyBase = key_base;
}

void
VirtioIoService::adoptFrom(VirtioIoService &old)
{
    panic_if(running_, name(), ": adopt into a running service");
    panic_if(old.running_, name(), ": adopt from a running service");
    panic_if(old.blkInflight_ != 0,
             name(), ": adopt with block I/O in flight");
    netMem_ = old.netMem_;
    netPairs_ = std::move(old.netPairs_);
    vswitch_ = old.vswitch_;
    port_ = old.port_;
    netLimiter_ = old.netLimiter_;
    conMem_ = old.conMem_;
    conRx_ = std::move(old.conRx_);
    conTx_ = std::move(old.conTx_);
    conRxDone_ = std::move(old.conRxDone_);
    conTxDone_ = std::move(old.conTxDone_);
    consoleSink_ = std::move(old.consoleSink_);
    conPending_ = std::move(old.conPending_);
    blkMem_ = old.blkMem_;
    blkQueues_ = std::move(old.blkQueues_);
    blkSvc_ = old.blkSvc_;
    vol_ = old.vol_;
    blkLimiter_ = old.blkLimiter_;
    netTracer_ = old.netTracer_;
    blkTracer_ = old.blkTracer_;
    // The old service's queue->core bindings belonged to its
    // scheduler registration; the new incarnation re-records them
    // on its own first visits.
    for (auto &bq : blkQueues_)
        bq.core = nullptr;
    // Traffic counters continue across the generation swap so
    // per-guest rollups don't restart at zero on a live upgrade.
    txPkts_.inc(old.txPkts_.value());
    rxPkts_.inc(old.rxPkts_.value());
    blkIos_.inc(old.blkIos_.value());
    rxDropped_.inc(old.rxDropped_.value());
    blkTimeouts_.inc(old.blkTimeouts_.value());
    blkRetries_.inc(old.blkRetries_.value());
    blkDupDone_.inc(old.blkDupDone_.value());
    blkFailures_.inc(old.blkFailures_.value());
    blkRangeErrors_.inc(old.blkRangeErrors_.value());
    difDetects_.inc(old.difDetects_.value());
    difRetries_.inc(old.difRetries_.value());
    difFails_.inc(old.difFails_.value());
    blkIntegrity_ = old.blkIntegrity_;
    // Suppression flags follow the new flavour.
    if (params_.suppressGuestNotify) {
        for (auto &np : netPairs_) {
            if (np.rx)
                np.rx->setNoNotify(true);
            if (np.tx)
                np.tx->setNoNotify(true);
        }
        for (auto &bq : blkQueues_) {
            if (bq.vq)
                bq.vq->setNoNotify(true);
        }
    }
}

void
VirtioIoService::enqueueRx(const cloud::Packet &pkt)
{
    enqueueRx(pkt, 0);
}

void
VirtioIoService::enqueueRx(const cloud::Packet &pkt, unsigned pair)
{
    if (pair >= netPairs_.size() || !netPairs_[pair].rx) {
        // Steered toward a queue the guest never set up (stale RSS
        // table during a pair-count change): fall back to pair 0.
        pair = 0;
        if (netPairs_.empty())
            return;
    }
    NetPair &np = netPairs_[pair];
    if (np.rxPending.size() >= params_.rxPendingMax) {
        rxDropped_.inc();
        return;
    }
    np.rxPending.push_back(pkt);
    wake(UnitKind::NetPair, pair);
}

void
VirtioIoService::start()
{
    panic_if(running_, name(), ": started twice");
    running_ = true;
}

void
VirtioIoService::stop()
{
    running_ = false;
    for (auto &u : units_)
        u.replan();
}

void
VirtioIoService::stall(Tick duration)
{
    stallUntil_ = std::max(stallUntil_, curTick() + duration);
    for (auto &u : units_)
        u.replan();
}

void
VirtioIoService::markDead()
{
    stop();
    ++blkGen_;
    blkPending_.clear();
    blkInflight_ = 0;
}

unsigned
VirtioIoService::drain(const Unit &u, unsigned budget,
                       hw::CpuExecutor &core)
{
    // A queue the guest never set up (or dropped on a re-init) makes
    // no visit: nothing is charged or counted.
    if ((u.kind == UnitKind::NetPair &&
         (u.idx >= netPairs_.size() || !netPairs_[u.idx].tx)) ||
        (u.kind == UnitKind::BlkQueue &&
         (u.idx >= blkQueues_.size() || !blkQueues_[u.idx].vq)) ||
        (u.kind == UnitKind::Console && !conTx_))
        return 0;
    // Every visit reads the mailbox but the console's: it rides the
    // home core and is never the fast path.
    if (u.kind != UnitKind::Console && params_.pollRegisterCost > 0)
        core.charge(params_.pollRegisterCost);
    const bool shared = u.sharedLoop();
    // Drain until the budget is spent or a full pass over every
    // covered queue finds nothing: work that appears mid-visit (rx
    // buffers replenished, a burst published while a queue was
    // draining) is picked up now rather than waiting out a poll
    // period.
    unsigned work = 0;
    while (work < budget) {
        unsigned pass = 0;
        for (unsigned p = 0; p < netPairs_.size(); ++p) {
            NetPair &np = netPairs_[p];
            if (!u.covers(UnitKind::NetPair, p))
                continue;
            if (np.tx && work + pass < budget)
                pass += pollNetTx(np, budget - work - pass, core,
                                  shared);
            if (np.rx && work + pass < budget)
                pass += pollNetRx(np, budget - work - pass, core);
        }
        for (unsigned q = 0; q < blkQueues_.size(); ++q) {
            if (u.covers(UnitKind::BlkQueue, q) && blkQueues_[q].vq &&
                work + pass < budget)
                pass += pollBlk(q, budget - work - pass, core, shared);
        }
        if (u.covers(UnitKind::Console, 0) && conTx_ &&
            work + pass < budget)
            pass += pollConsole(budget - work - pass, core);
        work += pass;
        if (pass == 0)
            break;
    }
    pollsTotal_.inc();
    if (work > 0)
        pollsBusy_.inc();
    pollBatch_.record(work);
    return work;
}

unsigned
VirtioIoService::pollNetTx(NetPair &np, unsigned max,
                           hw::CpuExecutor &core, bool shared)
{
    // One batched drain: every chain available at this visit is
    // popped, processed, and completed together; one used-index
    // publish and one tail write (the barrier) close the batch.
    auto chains = np.tx->popBatch(max);
    if (chains.empty())
        return 0;
    Tick cost = 0;
    std::vector<VringUsedElem> used;
    used.reserve(chains.size());
    for (const auto &chain : chains) {
        if (netTracer_) {
            // On a Shared loop the wait for a poll visit is its
            // own stage; a Dedicated loop never stamps it and the
            // pickup span carries the whole wait.
            if (shared)
                netTracer_->stamp(np.txKeyBase | chain.head,
                                  obs::Stage::SchedDelay,
                                  curTick());
            netTracer_->stamp(np.txKeyBase | chain.head,
                              obs::Stage::PollPickup, curTick());
        }
        auto ext = guest::readPacketFromTxChain(*netMem_, chain);
        cost += params_.perPacketCost + params_.perPacketCopyCost;
        if (ext.ok) {
            Tick when = netLimiter_.admit(curTick(), ext.pkt.len);
            cloud::Packet pkt = ext.pkt;
            cloud::VSwitch *sw = vswitch_;
            cloud::PortId port = port_;
            if (when <= curTick()) {
                sw->send(port, pkt);
            } else {
                eventq().schedule(
                    new OneShotEvent(
                        [sw, port, pkt] { sw->send(port, pkt); },
                        "svc.paced_tx"),
                    when);
            }
            txPkts_.inc();
        }
        used.push_back(VringUsedElem{chain.head, 0});
        if (netTracer_)
            netTracer_->stamp(np.txKeyBase | chain.head,
                              obs::Stage::Service, curTick());
    }
    np.tx->pushUsedBatch(used);
    if (params_.completionRegisterCost > 0)
        cost += params_.completionRegisterCost;
    core.charge(cost);
    if (np.txDone)
        np.txDone();
    return unsigned(chains.size());
}

unsigned
VirtioIoService::pollNetRx(NetPair &np, unsigned max,
                           hw::CpuExecutor &core)
{
    Tick cost = 0;
    unsigned completed = 0;
    std::vector<VringUsedElem> used;
    while (completed < max && !np.rxPending.empty()) {
        if (!np.rx->hasWork())
            break; // guest has not replenished rx buffers
        auto chain = np.rx->pop();
        if (!chain)
            continue; // malformed buffer consumed
        const cloud::Packet &pkt = np.rxPending.front();
        std::uint32_t written =
            guest::writePacketToRxChain(*netMem_, *chain, pkt);
        np.rxPending.pop_front();
        cost += params_.perPacketCost + params_.perPacketCopyCost;
        used.push_back(VringUsedElem{chain->head, written});
        rxPkts_.inc();
        ++completed;
    }
    np.rx->pushUsedBatch(used);
    if (completed > 0) {
        if (params_.completionRegisterCost > 0)
            cost += params_.completionRegisterCost;
        core.charge(cost);
        if (np.rxDone)
            np.rxDone();
    } else if (cost > 0) {
        core.charge(cost);
    }
    return completed;
}

unsigned
VirtioIoService::pollConsole(unsigned max, hw::CpuExecutor &core)
{
    // Guest output: drain the tx queue into the sink.
    unsigned out = 0;
    while (out < max) {
        auto chain = conTx_->pop();
        if (!chain)
            break;
        std::string text;
        for (const auto &seg : chain->segs) {
            if (seg.deviceWrites || seg.len == 0)
                continue;
            auto blob = conMem_->readBlob(seg.addr, seg.len);
            text.append(blob.begin(), blob.end());
        }
        conTx_->pushUsed(chain->head, 0);
        core.charge(usToTicks(0.5));
        if (consoleSink_)
            consoleSink_(text);
        ++out;
    }
    if (out > 0) {
        if (params_.completionRegisterCost > 0)
            core.charge(params_.completionRegisterCost);
        if (conTxDone_)
            conTxDone_();
    }

    // Host input: copy pending strings into posted rx buffers.
    unsigned in = 0;
    while (out + in < max && !conPending_.empty() &&
           conRx_->hasWork()) {
        auto chain = conRx_->pop();
        if (!chain)
            continue;
        const std::string &text = conPending_.front();
        std::uint32_t written = 0;
        for (const auto &seg : chain->segs) {
            if (!seg.deviceWrites)
                continue;
            Bytes n = std::min<Bytes>(seg.len, text.size());
            std::vector<std::uint8_t> bytes(text.begin(),
                                            text.begin() + long(n));
            conMem_->writeBlob(seg.addr, bytes);
            written = std::uint32_t(n);
            break;
        }
        conRx_->pushUsed(chain->head, written);
        conPending_.pop_front();
        ++in;
    }
    if (in > 0) {
        if (params_.completionRegisterCost > 0)
            core.charge(params_.completionRegisterCost);
        if (conRxDone_)
            conRxDone_();
    }
    return out + in;
}

hw::CpuExecutor &
VirtioIoService::blkExecutor(unsigned q)
{
    if (blkCore_)
        return *blkCore_;
    if (q < blkQueues_.size() && blkQueues_[q].core)
        return *blkQueues_[q].core;
    return core_;
}

unsigned
VirtioIoService::pollBlk(unsigned q, unsigned max,
                         hw::CpuExecutor &core, bool shared)
{
    BlkQueue &bq = blkQueues_[q];
    // Unless block work is pinned (setBlkCore), completions for
    // this queue follow the core that polls it, so a per-queue
    // poller keeps its whole submit/complete path on its own
    // executor.
    bq.core = &core;
    unsigned picked = 0;
    // Requests completed without a storage round trip (flush,
    // unsupported ops, range errors, malformed chains) batch into
    // one used-ring publish and one barrier at the end of the
    // drain; real reads/writes complete asynchronously from
    // onBlkServiceDone.
    std::vector<VringUsedElem> done_now;
    while (picked < max) {
        auto chain = bq.vq->pop();
        if (!chain)
            break;
        ++picked;
        if (blkTracer_) {
            if (shared)
                blkTracer_->stamp(bq.keyBase | chain->head,
                                  obs::Stage::SchedDelay,
                                  curTick());
            blkTracer_->stamp(bq.keyBase | chain->head,
                              obs::Stage::PollPickup, curTick());
        }
        // Chain: [hdr 16B out] [data in|out]? [status 1B in].
        if (chain->segs.size() < 2 ||
            chain->segs.front().deviceWrites ||
            chain->segs.front().len < VirtioBlkReqHdr::wireSize ||
            !chain->segs.back().deviceWrites ||
            chain->segs.back().len != 1) {
            done_now.push_back(VringUsedElem{chain->head, 0});
            continue;
        }
        VirtioBlkReqHdr hdr = VirtioBlkReqHdr::readFrom(
            *blkMem_, chain->segs.front().addr);
        Segment status = chain->segs.back();
        bool has_data = chain->segs.size() >= 3;
        Segment data{0, 0, false};
        if (has_data)
            data = chain->segs[1];

        if (hdr.type == VIRTIO_BLK_T_FLUSH ||
            (hdr.type == VIRTIO_BLK_T_IN && !has_data) ||
            (hdr.type == VIRTIO_BLK_T_OUT && !has_data)) {
            // Flush (or degenerate zero-length op): complete OK.
            blkMem_->write8(status.addr, VIRTIO_BLK_S_OK);
            done_now.push_back(VringUsedElem{chain->head, 1});
            blkIos_.inc();
            continue;
        }
        if (hdr.type != VIRTIO_BLK_T_IN &&
            hdr.type != VIRTIO_BLK_T_OUT) {
            blkMem_->write8(status.addr, VIRTIO_BLK_S_UNSUPP);
            done_now.push_back(VringUsedElem{chain->head, 1});
            continue;
        }
        // The data descriptor's direction must agree with the
        // header: a read needs a device-writable buffer, a write a
        // device-readable one. A disagreement means the header and
        // the chain describe different requests — a zeroed/rotted
        // header in front of a write chain would otherwise read
        // back as a well-formed IN and falsely ack the guest's
        // write. Shape error, contained as IOERR.
        if (has_data &&
            (hdr.type == VIRTIO_BLK_T_IN) != data.deviceWrites) {
            blkMem_->write8(status.addr, VIRTIO_BLK_S_IOERR);
            done_now.push_back(VringUsedElem{chain->head, 1});
            blkRangeErrors_.inc();
            continue;
        }

        // With DIF protection on, the data segment carries an
        // 8-byte tag per 512-byte sector after the payload.
        Bytes payload_len = data.len;
        if (blkIntegrity_ && has_data) {
            if (data.len % cloud::difProtectedSectorBytes != 0) {
                // Untagged request on a protected path.
                blkMem_->write8(status.addr, VIRTIO_BLK_S_IOERR);
                done_now.push_back(VringUsedElem{chain->head, 1});
                difFails_.inc();
                continue;
            }
            payload_len = cloud::difPayloadBytes(data.len);
        }

        // The header content is guest-authored (IO-Bond shadows it
        // verbatim): a hostile sector/length must become an I/O
        // error toward the guest, never a storage-fabric panic.
        if (hdr.sector > vol_->capacity() / 512 ||
            payload_len >
                vol_->capacity() - hdr.sector * 512) {
            blkMem_->write8(status.addr, VIRTIO_BLK_S_IOERR);
            done_now.push_back(VringUsedElem{chain->head, 1});
            blkRangeErrors_.inc();
            continue;
        }

        bool is_write = hdr.type == VIRTIO_BLK_T_OUT;

        if (is_write) {
            // Data already sits in ring memory; persist it now.
            auto buf = blkMem_->readBlob(data.addr, data.len);
            if (blkIntegrity_) {
                // Verify the guest's tags before persisting: a
                // payload corrupted between the guest and here
                // (shadow ring, DMA residue) must never become
                // durable. IOERR sends the guest back to its
                // pristine bounce buffer for a fresh attempt.
                if (cloud::difCheck(buf, hdr.sector) >= 0) {
                    difDetects_.inc();
                    blkMem_->write8(status.addr,
                                    VIRTIO_BLK_S_IOERR);
                    done_now.push_back(
                        VringUsedElem{chain->head, 1});
                    continue;
                }
                vol_->writeData(
                    hdr.sector,
                    {buf.begin(), buf.begin() + long(payload_len)});
                vol_->writeTags(
                    hdr.sector,
                    {buf.begin() + long(payload_len), buf.end()});
            } else {
                vol_->writeData(hdr.sector, buf);
            }
        }

        PendingBlk p;
        p.write = is_write;
        p.lba = hdr.sector;
        p.len = data.len;
        p.payloadLen = payload_len;
        p.dataAddr = data.addr;
        p.statusAddr = status.addr;
        p.head = chain->head;
        p.q = q;
        std::uint64_t seq = blkNextSeq_++;
        blkPending_.emplace(seq, p);
        ++blkInflight_;

        Tick copy_cost = 0;
        if (is_write && params_.blkCopyBytesPerSec > 0.0) {
            copy_cost = Tick(double(data.len) /
                             params_.blkCopyBytesPerSec *
                             double(tickSec));
        }
        submitBlkAttempt(seq, copy_cost);
    }
    if (!done_now.empty()) {
        bq.vq->pushUsedBatch(done_now);
        if (params_.completionRegisterCost > 0)
            core.charge(params_.completionRegisterCost);
        if (bq.done)
            bq.done();
    }
    return picked;
}

void
VirtioIoService::submitBlkAttempt(std::uint64_t seq, Tick copy_cost)
{
    const PendingBlk &p = blkPending_.at(seq);
    std::uint64_t gen = blkGen_;

    cloud::BlockIo io;
    io.write = p.write;
    io.lba = p.lba;
    io.len = p.len;
    io.done = [this, seq, gen](bool wire) {
        onBlkServiceDone(seq, gen, wire);
    };
    io.wantCorruption = blkIntegrity_ && !p.write;
    io.srcPartition = partition();
    auto io_box = std::make_shared<cloud::BlockIo>(std::move(io));

    // Bounded exponential backoff: every resubmission doubles the
    // wait before the next one.
    scheduleIn(new OneShotEvent(
                   [this, seq, gen, attempt = p.attempt] {
                       onBlkTimeout(seq, gen, attempt);
                   },
                   "svc.blk_timeout"),
               blkTimeout << p.attempt);

    // The submission path: CPU work (touch + payload copy)
    // occupies the iothread — a preempted or copy-saturated
    // iothread throttles every I/O behind it — while the rest
    // of the host software path (blkExtraCost) adds latency
    // without consuming the thread.
    hw::CpuExecutor *score = &blkExecutor(p.q);
    Bytes len = p.len;
    score->run(
        blkTouchCost + copy_cost,
        [this, io_box, len, gen] {
            if (gen != blkGen_)
                return; // rings torn down since submission
            Tick when = blkLimiter_.admit(
                curTick() + params_.blkExtraCost, len);
            auto *svc = blkSvc_;
            auto *vol = vol_;
            Tick at = std::max(when, curTick() +
                                         params_.blkExtraCost);
            io_box->submittedAt = at;
            // The request leaves the server at `at`. A service in
            // another partition receives it once the request leg
            // has elapsed (the 140 us fabric latency dwarfs the
            // lookahead, so the post is always causally safe); a
            // service in this partition takes it at `at`, keeping
            // its RNG draws in submission order. Either way the
            // service times the leg from submittedAt.
            Tick deliver = svc->partition() == partition()
                               ? at
                               : at + svc->requestDelay(*io_box);
            sim().post(svc->partition(), deliver,
                       [svc, vol, io_box] {
                           svc->submit(*vol, std::move(*io_box));
                       },
                       Event::defaultPri, "svc.blk_submit");
        });
}

void
VirtioIoService::onBlkServiceDone(std::uint64_t seq,
                                  std::uint64_t gen,
                                  bool wire_corrupt)
{
    if (gen != blkGen_)
        return; // completion from before a reattach or crash
    auto it = blkPending_.find(seq);
    if (it == blkPending_.end()) {
        // A timed-out attempt we already retried (or failed) came
        // back after all. The sequence tag makes completion
        // idempotent: the guest never sees a request twice.
        blkDupDone_.inc();
        return;
    }

    // Read payloads cross the storage fabric here. The service
    // claims the return-leg corruption budget (only for DIF-tagged
    // reads) and ships the verdict with the completion. The DIF
    // read check is modelled by its outcome: the volume holds only
    // tags verified before they were stored, so a tagged payload
    // fails the check exactly when the fabric flipped a byte of
    // it. A mismatch heals through the same sequence-tagged
    // resubmit the timeout path uses, so completion toward the
    // guest stays exactly-once.
    if (wire_corrupt && it->second.payloadLen > 0) {
        difDetects_.inc();
        if (it->second.attempt < blkMaxRetries) {
            ++it->second.attempt;
            difRetries_.inc();
            blkRetries_.inc();
            submitBlkAttempt(seq, 0);
            return;
        }
        // Persistent mismatch: fail, never deliver garbage.
        PendingBlk bad = it->second;
        blkPending_.erase(it);
        difFails_.inc();
        blkFailures_.inc();
        failBlkToGuest(bad, gen);
        return;
    }

    PendingBlk p = it->second;
    blkPending_.erase(it);
    // A clean tagged read delivers the stored data with its tags.
    std::vector<std::uint8_t> rbuf;
    if (blkIntegrity_ && !p.write) {
        rbuf = vol_->readData(p.lba, p.payloadLen);
        auto tags = vol_->readTags(p.lba, p.payloadLen);
        rbuf.insert(rbuf.end(), tags.begin(), tags.end());
    }

    // The storage round trip ends here: everything from poll
    // pickup until now is the Service span.
    if (blkTracer_)
        blkTracer_->stamp(blkQueues_[p.q].keyBase | p.head,
                          obs::Stage::Service, curTick());
    // Completion handling runs on the iothread; if that thread is
    // preempted, every in-flight I/O behind it waits — the
    // mechanism behind the vm's latency tail.
    hw::CpuExecutor *core = &blkExecutor(p.q);
    Tick cost = blkTouchCost + params_.completionRegisterCost;
    if (!p.write && params_.blkCopyBytesPerSec > 0.0) {
        cost += Tick(double(p.len) / params_.blkCopyBytesPerSec *
                     double(tickSec));
    }
    core->run(cost, [this, p, gen, rbuf = std::move(rbuf)] {
        if (gen != blkGen_)
            return; // the rings this head refers to are gone
        if (!p.write) {
            if (blkIntegrity_)
                blkMem_->writeBlob(p.dataAddr, rbuf);
            else
                blkMem_->writeBlob(p.dataAddr,
                                   vol_->readData(p.lba, p.len));
        }
        blkMem_->write8(p.statusAddr, VIRTIO_BLK_S_OK);
        BlkQueue &bq = blkQueues_[p.q];
        bq.vq->pushUsed(p.head,
                        p.write ? 1 : std::uint32_t(p.len) + 1);
        blkIos_.inc();
        panic_if(blkInflight_ == 0, name(), ": inflight underflow");
        --blkInflight_;
        if (bq.done)
            bq.done();
    });
}

void
VirtioIoService::onBlkTimeout(std::uint64_t seq, std::uint64_t gen,
                              unsigned attempt)
{
    if (gen != blkGen_)
        return;
    auto it = blkPending_.find(seq);
    if (it == blkPending_.end())
        return; // completed in time
    if (it->second.attempt != attempt)
        return; // superseded by a newer attempt's timer
    blkTimeouts_.inc();
    if (it->second.attempt >= blkMaxRetries) {
        // Retries exhausted: fail toward the guest, exactly once.
        PendingBlk p = it->second;
        blkPending_.erase(it);
        blkFailures_.inc();
        failBlkToGuest(p, gen);
        return;
    }
    ++it->second.attempt;
    blkRetries_.inc();
    submitBlkAttempt(seq, 0);
}

void
VirtioIoService::failBlkToGuest(const PendingBlk &p,
                                std::uint64_t gen)
{
    hw::CpuExecutor *core = &blkExecutor(p.q);
    core->run(
        blkTouchCost + params_.completionRegisterCost,
        [this, p, gen] {
            if (gen != blkGen_)
                return;
            blkMem_->write8(p.statusAddr, VIRTIO_BLK_S_IOERR);
            BlkQueue &bq = blkQueues_[p.q];
            bq.vq->pushUsed(p.head, 1);
            panic_if(blkInflight_ == 0,
                     name(), ": inflight underflow");
            --blkInflight_;
            if (bq.done)
                bq.done();
        });
}

} // namespace hv
} // namespace bmhive
