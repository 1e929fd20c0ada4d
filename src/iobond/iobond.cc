#include "iobond/iobond.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "virtio/virtio_blk.hh"
#include "virtio/virtio_net.hh"

namespace bmhive {
namespace iobond {

using namespace virtio;

namespace {

/** Upper bound on the payload bytes one chain may pin in the
 *  shadow arena. A guest describing absurd buffers gets a
 *  contained DescLenOversized fault instead of starving its
 *  neighbours' arena allocations. */
constexpr Bytes maxChainBytes = 4 * MiB;
/** Scrub cadence while chains are in flight. */
constexpr Tick scrubPeriod = usToTicks(50);
/** Consecutive dirty scrub passes on one queue before the
 *  function is reset (containment-ladder rung two). */
constexpr unsigned scrubEscalateAfter = 2;

} // namespace

IoBondFunction::IoBondFunction(Simulation &sim, std::string name,
                               IoBond &owner, unsigned index,
                               DeviceType type, unsigned num_queues,
                               std::uint64_t features)
    : VirtioPciDevice(sim, std::move(name), type, num_queues,
                      features),
      owner_(owner), index_(index),
      // Net offers rx/tx pairs and runs one until the driver
      // commits more; blk queues are all active, always.
      maxPairs_(type == DeviceType::Block ? num_queues
                                          : num_queues / 2),
      currPairs_(type == DeviceType::Block ? num_queues : 1)
{
}

void
IoBondFunction::deviceCfgWrite(Addr offset, std::uint32_t value,
                               unsigned size)
{
    // The only writable device-config field is the virtio-net
    // multi-queue curr_pairs word — our ctrl-vq-less stand-in for
    // VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET. Everything else in the
    // device config is read-only; stray writes are ignored (probes
    // are legitimate), but a set-queue-pairs outside [1, offered]
    // is a contained guest fault and clamps.
    if (deviceType() != DeviceType::Net ||
        offset != VirtioNetConfig::currPairsOffset || size != 2)
        return;
    if (!featureNegotiated(VIRTIO_NET_F_MQ))
        return; // not offered or not accepted: field is RO
    unsigned pairs = value & 0xffff;
    if (pairs < 1 || pairs > maxPairs_) {
        reportGuestFault(fault::GuestFaultKind::BadQueuePairs);
        pairs = std::clamp(pairs, 1u, maxPairs_);
    }
    currPairs_ = pairs;
    setDeviceCfg16(VirtioNetConfig::currPairsOffset,
                   std::uint16_t(pairs));
    owner_.queuePairsSet(*this, pairs);
}

void
IoBondFunction::onQueueNotify(unsigned q)
{
    owner_.guestNotified(*this, q);
}

void
IoBondFunction::onDriverOk()
{
    owner_.driverReady(*this);
}

void
IoBondFunction::onReset()
{
    // Reset rewinds a net function's committed pair count to the
    // single-queue default; the re-initializing driver negotiates
    // again. Blk queues stay all active.
    if (deviceType() == DeviceType::Net) {
        currPairs_ = 1;
        setDeviceCfg16(VirtioNetConfig::currPairsOffset, 1);
    }
    owner_.functionReset(*this);
}

IoBond::IoBond(Simulation &sim, std::string name,
               hw::ComputeBoard &board, GuestMemory &base_memory,
               Addr shadow_region_base, IoBondParams params)
    : SimObject(sim, std::move(name)), board_(board),
      baseMem_(&base_memory), params_(params),
      dma_(sim, this->name() + ".dma", params.dmaBandwidth),
      pool_(shadow_region_base + 4 * MiB, params.shadowArenaBytes),
      shadowRings_(base_memory, shadow_region_base),
      notifies_(metrics().counter(this->name() + ".notifies")),
      chains_(metrics().counter(this->name() + ".chains")),
      completions_(metrics().counter(this->name() + ".completions")),
      bad_(metrics().counter(this->name() + ".malformed")),
      faultInjected_(
          metrics().counter(this->name() + ".fault.injected")),
      faultRecovered_(
          metrics().counter(this->name() + ".fault.recovered")),
      droppedDoorbells_(metrics().counter(
          this->name() + ".fault.dropped_doorbells")),
      drainDeferred_(metrics().counter(
          this->name() + ".drain.deferred_doorbells")),
      guestFaultsTotal_(metrics().counter(
          this->name() + ".guest.faults_total")),
      quarantineDrops_(metrics().counter(
          this->name() + ".guest.quarantine_drops")),
      scrubRuns_(metrics().counter(
          this->name() + ".integrity.scrub.runs")),
      scrubChecked_(metrics().counter(
          this->name() + ".integrity.scrub.checked")),
      scrubRepairs_(metrics().counter(
          this->name() + ".integrity.scrub.repairs")),
      metaInjected_(metrics().counter(
          this->name() + ".integrity.meta_injected")),
      queueResets_(metrics().counter(
          this->name() + ".integrity.queue_resets"))
{
    panic_if(shadow_region_base + 4 * MiB +
                     params.shadowArenaBytes >
                 base_memory.size(),
             this->name(), ": shadow region exceeds base memory");
    for (std::size_t k = 0; k < fault::guestFaultKinds; ++k)
        guestFaultCounters_[k] = &metrics().counter(
            this->name() + ".guest.faults." +
            fault::guestFaultName(fault::GuestFaultKind(k)));
    sim_.faults().add(this->name(), [this](const fault::FaultSpec &s) {
        return injectFault(s);
    });
    dma_.setErrorHandler([this] { onDmaError(); });
    dma_.setIntegrityHandler([this] { onIntegrityEscalation(); });
    dma_.setIntegrity(integrity_);
}

IoBond::~IoBond() { sim_.faults().remove(name()); }

bool
IoBond::injectFault(const fault::FaultSpec &spec)
{
    switch (spec.kind) {
      case fault::FaultKind::LinkFlap: {
        Tick dur = spec.duration ? spec.duration : usToTicks(50);
        Tick until = curTick() + dur;
        if (until > linkDownUntil_)
            linkDownUntil_ = until;
        faultInjected_.inc();
        if (flight_)
            flight_->record(curTick(), obs::FlightEvent::FaultInject,
                            0, 0, std::uint64_t(spec.kind));
        // When the link comes back, sweep every ready queue: any
        // doorbell lost during the outage is recovered here.
        eventq().schedule(new OneShotEvent(
                              [this] {
                                  if (curTick() >= linkDownUntil_)
                                      rescanReady();
                              },
                              "iobond.linkup"),
                          linkDownUntil_);
        return true;
      }
      case fault::FaultKind::DropDoorbell: {
        dropDoorbells_ += spec.count ? spec.count : 1;
        faultInjected_.inc();
        if (flight_)
            flight_->record(curTick(), obs::FlightEvent::FaultInject,
                            0, 0, std::uint64_t(spec.kind));
        // The mailbox-timeout resync sweep bounds how long a lost
        // notification can strand queued work.
        scheduleIn(new OneShotEvent([this] { rescanReady(); },
                                    "iobond.resync"),
                   spec.duration ? spec.duration : usToTicks(100));
        return true;
      }
      case fault::FaultKind::DmaCorruptMeta: {
        std::uint64_t budget = spec.count ? spec.count : 1;
        faultInjected_.inc();
        if (flight_)
            flight_->record(curTick(), obs::FlightEvent::FaultInject,
                            0, 0, std::uint64_t(spec.kind));
        // Rot metadata of chains live right now; any leftover
        // budget lands in the next mirrored chains, so every armed
        // unit ends up in bytes the scrubber must catch.
        for (unsigned fi = 0;
             budget > 0 && fi < functions_.size(); ++fi) {
            for (unsigned q = 0;
                 budget > 0 && q < shadow_[fi].size(); ++q) {
                ShadowQueue &sq = shadow_[fi][q];
                if (!sq.ready)
                    continue;
                for (const auto &[head, cs] : sq.inflight) {
                    if (budget == 0)
                        break;
                    corruptShadowMeta(sq, cs);
                    --budget;
                }
            }
        }
        metaCorruptBudget_ += budget;
        return true;
      }
      case fault::FaultKind::FunctionFail: {
        auto fn = unsigned(spec.magnitude);
        if (fn >= functions_.size())
            return false;
        faultInjected_.inc();
        if (flight_)
            flight_->record(curTick(), obs::FlightEvent::FaultInject,
                            fn, 0, std::uint64_t(spec.kind));
        failFunction(fn);
        return true;
      }
      default:
        return false;
    }
}

void
IoBond::onDmaError()
{
    // The engine is shared by all functions; attribute the failed
    // transfer to the one most recently active on the datapath.
    if (lastActiveFn_ >= 0 &&
        unsigned(lastActiveFn_) < functions_.size())
        failFunction(unsigned(lastActiveFn_));
}

void
IoBond::setIntegrity(bool on)
{
    integrity_ = on;
    dma_.setIntegrity(on);
    if (on && inflightChains() > 0)
        scheduleScrub();
}

void
IoBond::onIntegrityEscalation()
{
    // Containment-ladder rung two: the DMA engine saw the same
    // transfer mismatch through every replay, so corruption on
    // this path is persistent — reset the active function's queues
    // rather than retry forever.
    queueResets_.inc();
    if (lastActiveFn_ < 0 ||
        unsigned(lastActiveFn_) >= functions_.size())
        return;
    unsigned fn = unsigned(lastActiveFn_);
    failFunction(fn);
    if (integrityEscalationCb_)
        integrityEscalationCb_(fn);
}

void
IoBond::corruptShadowMeta(const ShadowQueue &sq, const ChainShadow &cs)
{
    metaInjected_.inc();
    // A backend acting on the rotted length can write past the
    // buffer into any neighbour's metadata in this memory.
    baseMem_->taint();
    // The first buffer descriptor: indirect-table entry 0, or the
    // head slot of a direct chain.
    Addr a = cs.table().value_or(sq.shadowLayout.descAddr(cs.path[0]));
    VringDesc d = readDescAt(*baseMem_, a);
    d.len ^= 0xA5;
    writeDescAt(*baseMem_, a, d);
}

void
IoBond::scheduleScrub()
{
    if (!integrity_ || scrubScheduled_)
        return;
    scrubScheduled_ = true;
    // The epoch capture kills passes armed before a migration: the
    // one-shot stays behind in the source partition's queue after
    // the guest re-homes, and must not touch bond state that now
    // runs in another partition (retireScrub bumps the epoch).
    scheduleIn(new OneShotEvent(
                   [this, epoch = scrubEpoch_] {
                       if (epoch == scrubEpoch_)
                           scrubPass();
                   },
                   "iobond.scrub"),
               scrubPeriod);
}

void
IoBond::retireScrub()
{
    ++scrubEpoch_;
    scrubScheduled_ = false;
}

void
IoBond::scrubPass()
{
    scrubScheduled_ = false;
    if (!integrity_)
        return;
    scrubRuns_.inc();
    std::vector<unsigned> escalate;
    for (unsigned fi = 0; fi < functions_.size(); ++fi) {
        for (unsigned q = 0; q < shadow_[fi].size(); ++q) {
            ShadowQueue &sq = shadow_[fi][q];
            if (!sq.ready) {
                sq.scrubStrikes = 0;
                continue;
            }
            // Only IO-Bond writes shadow metadata, and the mirror and
            // publish write exactly what the audit re-derives. Unless
            // something else can have written it (rot tainted the
            // memory, or this queue's ring was rewritten out of
            // band), every chain checks clean: count them and read
            // nothing.
            unsigned repairs = 0;
            if (baseMem_->tainted() || sq.audit)
                repairs = scrubQueue(fi, q);
            else
                scrubChecked_.inc(sq.inflight.size());
            if (repairs == 0) {
                sq.scrubStrikes = 0;
                sq.audit = false;
                continue;
            }
            // Something rewrote metadata behind the mirror (two
            // chains sharing a slot keep doing so): audit for good.
            baseMem_->taint();
            scrubRepairs_.inc(repairs);
            if (flight_)
                flight_->record(curTick(),
                                obs::FlightEvent::IntegrityDetect,
                                fi, q, /*where=*/1, repairs);
            // A repair IS the heal for metadata: the chain keeps
            // flowing on the corrected descriptors. Repeated dirt
            // on one queue escalates to a reset instead.
            if (++sq.scrubStrikes >= scrubEscalateAfter) {
                sq.scrubStrikes = 0;
                if (std::find(escalate.begin(), escalate.end(),
                              fi) == escalate.end())
                    escalate.push_back(fi);
            }
        }
    }
    for (unsigned fn : escalate) {
        queueResets_.inc();
        if (flight_)
            flight_->record(curTick(),
                            obs::FlightEvent::IntegrityEscalate, fn,
                            0, /*where=*/1);
        failFunction(fn);
        if (integrityEscalationCb_)
            integrityEscalationCb_(fn);
    }
    if (inflightChains() > 0)
        scheduleScrub();
}

unsigned
IoBond::scrubQueue(unsigned fn, unsigned q)
{
    ShadowQueue &sq = shadow_[fn][q];
    unsigned repairs = 0;
    for (const auto &[head, cs] : sq.inflight) {
        scrubChecked_.inc();
        // Re-derive every descriptor with the mirror's own encoder
        // and rewrite each one that differs: one repair apiece.
        encodeChain(sq.shadowLayout, cs.path.data(), cs.table(),
                    std::uint16_t(cs.segs.size()),
                    [&cs](std::uint16_t i) { return cs.shadowSeg(i); },
                    [&](Addr a, const VringDesc &want) {
                        if (readDescAt(*baseMem_, a) != want) {
                            writeDescAt(*baseMem_, a, want);
                            ++repairs;
                        }
                    });
    }
    // Avail-ring audit. Chains complete out of order (blk), so ring
    // positions cannot be paired with the inflight table sorted by
    // seq — each chain records the cursor its publish DMA actually
    // landed at, and only that slot is checked. A slot whose cursor
    // has since lapped the ring belongs to a newer chain; skip it.
    for (auto &[head, cs] : sq.inflight) {
        if (!cs.published ||
            std::uint16_t(sq.shadowAvail - cs.availPos) >=
                sq.shadowLayout.size())
            continue;
        std::uint16_t pos = cs.availPos % sq.shadowLayout.size();
        if (sq.shadowLayout.availRing(*baseMem_, pos) != head) {
            sq.shadowLayout.setAvailRing(*baseMem_, pos, head);
            ++repairs;
        }
    }
    if (sq.shadowLayout.availIdx(*baseMem_) != sq.shadowAvail) {
        sq.shadowLayout.setAvailIdx(*baseMem_, sq.shadowAvail);
        ++repairs;
    }
    return repairs;
}

void
IoBond::failFunction(unsigned fn)
{
    panic_if(fn >= functions_.size(), name(), ": bad function ", fn);
    if (flight_)
        flight_->record(curTick(), obs::FlightEvent::Reset, fn);
    functionReset(*functions_[fn]);
    functions_[fn]->markNeedsReset();
    if (resetCb_)
        resetCb_(fn);
}

void
IoBond::guestFault(fault::GuestFaultKind k)
{
    guestFaultCounters_[std::size_t(k)]->inc();
    guestFaultsTotal_.inc();
    if (flight_)
        flight_->record(curTick(), obs::FlightEvent::GuestFault,
                        lastActiveFn_ >= 0 ? unsigned(lastActiveFn_)
                                           : 0,
                        0, std::uint64_t(k));
    if (guestFaultCb_)
        guestFaultCb_(k);
}

void
IoBond::setQuarantined(bool on)
{
    if (quarantined_ == on)
        return;
    quarantined_ = on;
    // On release, sweep the ready queues: doorbells swallowed
    // during the quarantine must not strand queued work forever.
    if (!on)
        rescanReady();
}

void
IoBond::setDrained(bool on)
{
    if (drained_ == on)
        return;
    drained_ = on;
    if (flight_)
        flight_->record(curTick(), obs::FlightEvent::Drain, 0, 0,
                        on ? 1 : 0);
    // Lifting the drain sweeps up every doorbell deferred while it
    // held — on the target server after a migration, or back on
    // the source after an abort.
    if (!on)
        rescanReady();
}

void
IoBond::drainCompletions()
{
    for (unsigned fi = 0; fi < functions_.size(); ++fi)
        for (unsigned q = 0; q < shadow_[fi].size(); ++q)
            if (shadow_[fi][q].ready)
                backendCompleted(fi, q);
}

std::size_t
IoBond::inflightChains() const
{
    std::size_t n = 0;
    for (const auto &fn : shadow_)
        for (const auto &sq : fn)
            n += sq.inflight.size();
    return n;
}

void
IoBond::rebase(GuestMemory &new_base, Addr region_base,
               std::function<void()> done)
{
    panic_if(!drained_, name(), ": rebase requires a drained bond");
    panic_if(!dmaIdle(), name(),
             ": rebase requires an idle DMA engine");
    panic_if(region_base + 4 * MiB + params_.shadowArenaBytes >
                 new_base.size(),
             name(), ": shadow region exceeds target base memory");
    baseMem_ = &new_base;
    pool_ = PoolAllocator(region_base + 4 * MiB,
                          params_.shadowArenaBytes);
    // Blocks a reset dropped belong to the arena left behind.
    for (auto &blocks : dropped_)
        blocks.clear();
    shadowRings_.reseat(new_base, region_base);

    // Rebuild every shadow ring in the new memory and replay the
    // published-but-unfinished window. The guest-facing cursors
    // carry over untouched: the guest never notices its I/O moved
    // to a different base server.
    std::vector<DmaEngine::CopySeg> segs;
    Bytes meta = 0;
    struct QueueFinish
    {
        unsigned fn;
        unsigned q;
        std::uint16_t avail;
        std::uint64_t epoch;
    };
    std::vector<QueueFinish> finish;
    unsigned replayed = 0;
    for (unsigned fi = 0; fi < functions_.size(); ++fi) {
        for (unsigned q = 0; q < shadow_[fi].size(); ++q) {
            ShadowQueue &sq = shadow_[fi][q];
            if (!sq.ringAllocated)
                continue;
            sq.ringBlock = shadowRings_.alloc(
                VringLayout::bytesNeeded(
                    functions_[fi]->queueState(q).sizeMax),
                4096);
            if (!sq.ready)
                continue;
            sq.shadowLayout = VringLayout::contiguous(
                sq.shadowLayout.size(), sq.ringBlock);
            sq.shadowLayout.setAvailFlags(*baseMem_, 0);
            sq.shadowLayout.setUsedFlags(*baseMem_, 0);
            // The fresh ring starts exactly where the old one
            // stopped so the cursor arithmetic in
            // backendCompleted stays seamless.
            sq.shadowLayout.setAvailIdx(*baseMem_, sq.syncedUsed);
            sq.shadowLayout.setUsedIdx(*baseMem_, sq.syncedUsed);
            // Orphan anything still referencing the old server's
            // rings (there should be nothing — DMA was idle).
            ++sq.epoch;
            // Re-mirror in original submission order: descriptors
            // of an unfinished chain are device-owned until its
            // used element lands, so guest memory still holds them
            // verbatim — the same replay recoverQueue does after a
            // backend crash.
            std::vector<std::uint16_t> order = submissionOrder(sq);
            sq.inflight.clear();
            std::fill(sq.held.begin(), sq.held.end(), 0);
            // The avail index lags the replay until its DMA lands.
            sq.audit = true;
            std::uint16_t window =
                std::uint16_t(sq.shadowAvail - sq.syncedUsed);
            if (order.size() != window)
                warn(name(), ": rebase found ", order.size(),
                     " inflight chains for a ", window,
                     "-entry window");
            std::uint16_t pos = sq.syncedUsed;
            for (std::uint16_t head : order) {
                if (!mirrorChain(fi, q, head, segs, meta))
                    continue; // contained; completed as failed
                publishHead(sq, pos++, head);
            }
            replayed += unsigned(std::uint16_t(pos - sq.syncedUsed));
            sq.shadowAvail = pos;
            finish.push_back({fi, q, pos, sq.epoch});
        }
    }

    // The replay travels as one scatter-gather transfer; the avail
    // windows publish only once every payload byte has landed in
    // the new memory, exactly like a live sync burst.
    segs.push_back(DmaEngine::CopySeg{nullptr, 0, nullptr, 0,
                                      meta > 0 ? meta : 1});
    if (replayed > 0)
        faultRecovered_.inc(replayed);
    dma_.copyv(
        std::move(segs),
        [this, finish = std::move(finish),
         done = std::move(done)] {
            for (const auto &f : finish) {
                ShadowQueue &s = shadow_[f.fn][f.q];
                if (!s.ready || s.epoch != f.epoch)
                    continue; // reset raced with the replay
                s.shadowLayout.setAvailIdx(*baseMem_, f.avail);
            }
            if (done)
                done();
        });
}

void
IoBond::rescanReady()
{
    if (quarantined_ || drained_)
        return; // swept again at release / drain lift
    unsigned recovered = 0;
    for (unsigned fi = 0; fi < functions_.size(); ++fi)
        for (unsigned q = 0; q < shadow_[fi].size(); ++q)
            if (shadow_[fi][q].ready)
                recovered += syncAvail(fi, q);
    if (recovered > 0) {
        faultRecovered_.inc(recovered);
        if (flight_)
            flight_->record(curTick(),
                            obs::FlightEvent::FaultRecover, 0, 0,
                            recovered);
    }
}

IoBondFunction &
IoBond::addFunction(int guest_slot, DeviceType type,
                    unsigned num_queues, std::uint64_t features,
                    std::vector<std::uint8_t> cfg)
{
    auto idx = unsigned(functions_.size());
    const char *role = type == DeviceType::Net     ? ".net"
                       : type == DeviceType::Block ? ".blk"
                                                   : ".console";
    auto fn = std::make_unique<IoBondFunction>(
        sim_, name() + role + std::to_string(idx), *this, idx, type,
        num_queues, features);
    fn->setDeviceCfgBytes(std::move(cfg));
    fn->setGuestFaultHandler(
        [this](fault::GuestFaultKind k) { guestFault(k); });
    board_.pciBus().attach(*fn, guest_slot);
    functions_.push_back(std::move(fn));
    shadow_.emplace_back(num_queues);
    dropped_.emplace_back();
    fnDoorbells_.push_back(TokenBucket::unlimited());
    return *functions_.back();
}

IoBondFunction &
IoBond::addNetFunction(int guest_slot, std::uint64_t mac,
                       unsigned queue_pairs)
{
    panic_if(queue_pairs == 0, name(), ": need >= 1 queue pair");
    std::uint64_t features =
        VIRTIO_NET_F_CSUM | VIRTIO_NET_F_MAC | VIRTIO_NET_F_STATUS |
        VIRTIO_RING_F_INDIRECT_DESC | VIRTIO_RING_F_EVENT_IDX;
    if (queue_pairs > 1)
        features |= VIRTIO_NET_F_MQ;
    std::vector<std::uint8_t> cfg(12, 0);
    for (int i = 0; i < 6; ++i)
        cfg[i] = std::uint8_t(mac >> (8 * i));
    cfg[6] = 1; // VIRTIO_NET_S_LINK_UP
    cfg[VirtioNetConfig::maxPairsOffset] =
        std::uint8_t(queue_pairs);
    cfg[VirtioNetConfig::maxPairsOffset + 1] =
        std::uint8_t(queue_pairs >> 8);
    cfg[VirtioNetConfig::currPairsOffset] = 1;
    return addFunction(guest_slot, DeviceType::Net, 2 * queue_pairs,
                       features, std::move(cfg));
}

IoBondFunction &
IoBond::addBlkFunction(int guest_slot, std::uint64_t capacity_sectors,
                       unsigned num_queues)
{
    panic_if(num_queues == 0, name(), ": need >= 1 blk queue");
    std::uint64_t features =
        VIRTIO_BLK_F_SEG_MAX | VIRTIO_BLK_F_BLK_SIZE |
        VIRTIO_BLK_F_FLUSH | VIRTIO_RING_F_INDIRECT_DESC |
        VIRTIO_RING_F_EVENT_IDX;
    if (num_queues > 1)
        features |= VIRTIO_BLK_F_MQ;
    std::vector<std::uint8_t> cfg(10, 0);
    for (int i = 0; i < 8; ++i)
        cfg[i] = std::uint8_t(capacity_sectors >> (8 * i));
    cfg[VirtioBlkConfig::numQueuesOffset] =
        std::uint8_t(num_queues);
    cfg[VirtioBlkConfig::numQueuesOffset + 1] =
        std::uint8_t(num_queues >> 8);
    return addFunction(guest_slot, DeviceType::Block, num_queues,
                       features, std::move(cfg));
}

IoBondFunction &
IoBond::addConsoleFunction(int guest_slot)
{
    return addFunction(guest_slot, DeviceType::Console, 2,
                       VIRTIO_RING_F_INDIRECT_DESC, {});
}

IoBondFunction &
IoBond::function(unsigned i)
{
    panic_if(i >= functions_.size(), name(), ": bad function ", i);
    return *functions_[i];
}

bool
IoBond::shadowReady(unsigned fn, unsigned q) const
{
    if (fn >= shadow_.size() || q >= shadow_[fn].size())
        return false;
    return shadow_[fn][q].ready;
}

VringLayout
IoBond::shadowLayout(unsigned fn, unsigned q) const
{
    panic_if(!shadowReady(fn, q),
             name(), ": shadow (", fn, ",", q, ") not ready");
    return shadow_[fn][q].shadowLayout;
}

void
IoBond::driverReady(IoBondFunction &fn)
{
    unsigned fi = fn.index();
    bool any_ready = false;
    // One doorbell budget per function, shared by all its queues:
    // arming per queue would let a multi-queue guest multiply its
    // allowance by the queue count.
    fnDoorbells_[fi] =
        TokenBucket(params_.doorbellRate, params_.doorbellBurst);
    for (unsigned q = 0; q < fn.numQueues(); ++q) {
        const QueueState &qs = fn.queueState(q);
        if (!qs.enabled)
            continue;
        ShadowQueue &sq = shadow_[fi][q];
        sq.guestLayout = qs.layout();
        // The ring areas are guest-programmed addresses in guest
        // memory; a layout pointing outside it is a contained
        // fault, not a bridge crash — the queue simply never
        // becomes ready and the driver is told to reset.
        if (!sq.guestLayout.fitsIn(board_.memory().size())) {
            sq.ready = false;
            guestFault(fault::GuestFaultKind::BadRingAddress);
            fn.markNeedsReset();
            continue;
        }
        // One shadow-ring block per queue, sized for the device
        // maximum: a guest renegotiating in a loop must reuse its
        // block, not bleed the bump arena dry.
        if (!sq.ringAllocated) {
            sq.ringBlock = shadowRings_.alloc(
                VringLayout::bytesNeeded(qs.sizeMax), 4096);
            sq.ringAllocated = true;
            sq.held.assign(qs.sizeMax, 0);
        }
        // The rewrite below leaves nothing to audit on an empty
        // queue. Cursors rewound under live chains (a DRIVER_OK
        // rewrite with no reset) leave their avail positions
        // pointing into the new window, where the audit may trip
        // on them at any later pass.
        if (!sq.inflight.empty())
            baseMem_->taint();
        sq.shadowLayout =
            VringLayout::contiguous(qs.size, sq.ringBlock);
        sq.shadowLayout.setAvailFlags(*baseMem_, 0);
        sq.shadowLayout.setAvailIdx(*baseMem_, 0);
        sq.shadowLayout.setUsedFlags(*baseMem_, 0);
        sq.shadowLayout.setUsedIdx(*baseMem_, 0);
        sq.syncedAvail = sq.shadowAvail = 0;
        sq.syncedUsed = sq.guestUsed = 0;
        sq.nextSeq = 0;
        sq.scrubStrikes = 0;
        sq.stormResync = false;
        ++sq.epoch; // orphan any completion still in the DMA queue
        // With F_EVENT_IDX the device owns avail_event in the
        // guest used ring; a stale value from a previous driver
        // life would suppress every kick after re-init.
        if (fn.featureNegotiated(VIRTIO_RING_F_EVENT_IDX))
            sq.guestLayout.setAvailEvent(board_.memory(), 0);
        sq.ready = true;
        any_ready = true;
    }
    if (any_ready && readyCb_)
        readyCb_(fi);
}

void
IoBond::functionReset(IoBondFunction &fn)
{
    unsigned fi = fn.index();
    // The dropped chains' blocks stay allocated until the backend
    // has let go of them (backendReattached): it may still write
    // one, a blk read completing late. Freed now, they would go to
    // the next chains any function of this bond posts, and the late
    // bytes would overwrite buffers and tables already laid out.
    std::vector<Addr> &blocks = dropped_[fi];
    for (unsigned q = 0; q < shadow_[fi].size(); ++q) {
        ShadowQueue &sq = shadow_[fi][q];
        // Open traced flows on this queue will never see an MSI:
        // drop them so a resetting guest cannot pin tracer state.
        if (sq.reqTracer)
            sq.reqTracer->dropOpen(fi, q);
        for (auto &[head, cs] : sq.inflight) {
            if (cs.bufBlock != PoolAllocator::nullAddr)
                blocks.push_back(cs.bufBlock);
            if (cs.indirectBlock != PoolAllocator::nullAddr)
                blocks.push_back(cs.indirectBlock);
        }
        sq.inflight.clear();
        std::fill(sq.held.begin(), sq.held.end(), 0);
        sq.ready = false;
        // In-flight DMA completions for this queue must not touch
        // the rings (or free the blocks kept above).
        ++sq.epoch;
    }
}

void
IoBond::backendReattached(unsigned fn)
{
    panic_if(fn >= dropped_.size(), name(), ": bad function ", fn);
    // A dropped chain's mirror copy may still be queued, too: its
    // bytes land in the blocks whatever the epoch says. Free them
    // only once every transfer queued so far has landed.
    dma_.fence([this, blocks = std::exchange(dropped_[fn], {})] {
        for (Addr b : blocks)
            pool_.free(b);
    });
}

void
IoBond::queuePairsSet(IoBondFunction &fn, unsigned pairs)
{
    if (queuePairsCb_)
        queuePairsCb_(fn.index(), pairs);
}

void
IoBond::setQueueTracer(unsigned fn, unsigned q,
                       obs::RequestTracer *t)
{
    panic_if(fn >= shadow_.size() || q >= shadow_[fn].size(),
             name(), ": bad shadow queue (", fn, ",", q, ")");
    shadow_[fn][q].reqTracer = t;
}

void
IoBond::guestNotified(IoBondFunction &fn, unsigned q)
{
    notifies_.inc();
    unsigned fi = fn.index();
    ShadowQueue &sq = shadow_[fi][q];
    sq.lastDoorbell = curTick();
    lastActiveFn_ = int(fi);
    if (quarantined_) {
        // Containment: the bridge swallows the doorbell entirely.
        // Queued work is swept up at release.
        quarantineDrops_.inc();
        if (flight_)
            flight_->record(curTick(),
                            obs::FlightEvent::DoorbellDrop, fi, q,
                            1);
        return;
    }
    if (drained_) {
        // Migration drain: the doorbell is deferred, not lost —
        // the rescan sweep at drain-lift picks its work up on
        // whichever base server the bond lands on.
        drainDeferred_.inc();
        if (flight_)
            flight_->record(curTick(),
                            obs::FlightEvent::DoorbellDrop, fi, q,
                            3);
        return;
    }
    if (curTick() < linkDownUntil_ || dropDoorbells_ > 0) {
        // Injected loss: the notification never crosses the link.
        // The flap-end / resync sweep picks the work up later.
        if (dropDoorbells_ > 0)
            --dropDoorbells_;
        droppedDoorbells_.inc();
        if (flight_)
            flight_->record(curTick(),
                            obs::FlightEvent::DoorbellDrop, fi, q,
                            2);
        return;
    }
    if (!fnDoorbells_[fi].tryConsume(curTick(), 1.0)) {
        // Doorbell storm: the notification is dropped, but queued
        // work is not lost — one deferred sweep per throttle
        // window picks it up when tokens return.
        if (flight_)
            flight_->record(curTick(),
                            obs::FlightEvent::DoorbellThrottle, fi,
                            q);
        guestFault(fault::GuestFaultKind::DoorbellStorm);
        if (!sq.stormResync) {
            sq.stormResync = true;
            Tick at = std::max<Tick>(
                fnDoorbells_[fi].nextAvailable(curTick(), 1.0),
                curTick() + 1);
            eventq().schedule(
                new OneShotEvent(
                    [this, fi, q] {
                        ShadowQueue &s = shadow_[fi][q];
                        s.stormResync = false;
                        if (!quarantined_ && !drained_ && s.ready &&
                            fnDoorbells_[fi].tryConsume(curTick(),
                                                        1.0))
                            syncAvail(fi, q);
                    },
                    "iobond.storm_resync"),
                at);
        }
        return;
    }
    if (flight_)
        flight_->record(curTick(), obs::FlightEvent::DoorbellAccept,
                        fi, q);
    // An accepted mailbox write is what a sleeping poll core
    // observes; the hook carries the queue identity so only the
    // unit polling that queue is woken.
    if (queueWake_)
        queueWake_(fi, q);
    // The notification crosses to the mailbox side of the FPGA
    // before descriptor fetch begins.
    scheduleIn(new OneShotEvent([this, fi, q] { syncAvail(fi, q); },
                                "iobond.mailbox"),
               params_.mailboxAccess);
}

unsigned
IoBond::syncAvail(unsigned fn, unsigned q)
{
    ShadowQueue &sq = shadow_[fn][q];
    if (!sq.ready)
        return 0;
    GuestMemory &gmem = board_.memory();
    std::uint16_t gavail = sq.guestLayout.availIdx(gmem);
    // The avail index is guest-authored. A jump wider than the
    // ring cannot describe real work (at most `size` chains can
    // be outstanding) — it would make the mirror loop walk
    // garbage ring slots. Contain it and force a reinit.
    std::uint16_t pending = std::uint16_t(gavail - sq.syncedAvail);
    if (pending > sq.guestLayout.size()) {
        guestFault(fault::GuestFaultKind::AvailIdxJump);
        failFunction(fn);
        return 0;
    }
    // Coalesce the whole burst: every chain's descriptor-table
    // read and payload copy rides one scatter-gather DMA transfer
    // (one startup cost over the batch, paper section 3.4.3), and
    // one head-register bump publishes every chain at once.
    unsigned picked = 0;
    std::vector<DmaEngine::CopySeg> segs;
    std::vector<std::uint16_t> heads;
    Bytes meta = 0;
    while (sq.syncedAvail != gavail) {
        std::uint16_t head = sq.guestLayout.availRing(
            gmem, sq.syncedAvail % sq.guestLayout.size());
        ++sq.syncedAvail;
        ++picked;
        if (mirrorChain(fn, q, head, segs, meta))
            heads.push_back(head);
    }
    if (picked > 0 &&
        functions_[fn]->featureNegotiated(VIRTIO_RING_F_EVENT_IDX)) {
        // Re-arm the guest-facing avail_event: with F_EVENT_IDX the
        // driver kicks again only once its avail index passes this
        // value, so a device that never advances it wedges the
        // queue after the first 2^16 window of the index space.
        sq.guestLayout.setAvailEvent(gmem, sq.syncedAvail);
    }
    if (heads.empty())
        return picked;

    // Ring metadata follows the payloads through the DMA engine;
    // the burst is published on the shadow ring (and the head
    // register bumped, once) only when everything has landed.
    segs.push_back(DmaEngine::CopySeg{nullptr, 0, nullptr, 0, meta});
    std::uint64_t epoch = sq.epoch;
    dma_.copyv(
        std::move(segs),
        [this, fn, q, heads = std::move(heads), epoch] {
            ShadowQueue &s = shadow_[fn][q];
            if (!s.ready || s.epoch != epoch)
                return; // reset or crash recovery raced with the sync
            if (!dma_.lastDelivered()) {
                // The mirror copy never landed (DmaFail drop or
                // exhausted ECRC replay): the shadow bounce still
                // holds stale bytes, and the shadow descriptors for
                // these heads describe data that was never written.
                // Publishing would hand the backend zero-filled
                // headers it would happily complete OK — a silently
                // corrupted acknowledgement. Leave the burst
                // unpublished and pin the blame on this function so
                // the engine's error/integrity handler (which runs
                // right after this callback) resets *us*, not
                // whichever function touched the datapath last.
                lastActiveFn_ = int(fn);
                return;
            }
            for (std::uint16_t head : heads) {
                publishHead(s, s.shadowAvail++, head);
                if (s.reqTracer)
                    s.reqTracer->stamp(
                        obs::RequestTracer::flowKey(fn, q, head),
                        obs::Stage::ShadowSync, curTick());
            }
            s.shadowLayout.setAvailIdx(*baseMem_, s.shadowAvail);
            chains_.inc(heads.size());
            if (flight_)
                flight_->record(curTick(),
                                obs::FlightEvent::AvailSync, fn, q,
                                heads.size(), s.shadowAvail);
            // Resync sweeps (storm throttle, link flap, recovery)
            // publish work without a fresh doorbell; wake here too
            // so swept-up chains never wait on a sleeping core.
            if (queueWake_)
                queueWake_(fn, q);
        });
    return picked;
}

bool
IoBond::mirrorChain(unsigned fn, unsigned q, std::uint16_t head,
                    std::vector<DmaEngine::CopySeg> &segs,
                    Bytes &meta)
{
    ShadowQueue &sq = shadow_[fn][q];
    GuestMemory &gmem = board_.memory();
    ChainWalk walk = walkDescChain(gmem, sq.guestLayout, head);

    auto fail_chain = [&] {
        bad_.inc();
        // Complete toward the guest with zero length so its
        // descriptors are reclaimed; a hostile guest cannot wedge
        // the bridge.
        VringUsedElem elem{head, 0};
        std::uint64_t epoch = sq.epoch;
        dma_.accountOnly(8, [this, fn, q, elem, epoch] {
            ShadowQueue &s = shadow_[fn][q];
            if (s.epoch != epoch)
                return; // reset raced with the completion
            GuestMemory &gm = board_.memory();
            s.guestLayout.setUsedRing(
                gm, s.guestUsed % s.guestLayout.size(), elem);
            ++s.guestUsed;
            s.guestLayout.setUsedIdx(gm, s.guestUsed);
            functions_[fn]->notifyGuest(q);
        });
        return false;
    };

    if (!walk.ok) {
        guestFault(walk.fault);
        return fail_chain();
    }

    Bytes total = 0;
    for (const auto &s : walk.chain.segs)
        total += s.len;
    if (total > maxChainBytes) {
        // Arithmetically valid but absurd: one chain must not pin
        // a neighbour-starving share of the shadow arena.
        guestFault(fault::GuestFaultKind::DescLenOversized);
        return fail_chain();
    }
    if (sq.inflight.contains(head)) {
        // The device still owns this head. Mirroring it again would
        // orphan the live chain's shadow blocks; leave that chain
        // alone and drop the re-post, with no zero-length
        // completion (the live chain completes this head itself).
        guestFault(fault::GuestFaultKind::HeadInFlight);
        return false;
    }

    ChainShadow cs;
    if (total > 0) {
        cs.bufBlock = pool_.alloc(total, 16);
        if (cs.bufBlock == PoolAllocator::nullAddr) {
            warn(name(), ": shadow arena exhausted");
            return fail_chain();
        }
    }

    // Lay segments out back to back within the block; the
    // device-readable ones join the burst's scatter-gather DMA
    // once every allocation for this chain has succeeded.
    Addr cursor = cs.bufBlock;
    for (const auto &s : walk.chain.segs) {
        cs.segs.push_back({s.addr, cursor, s.len, s.deviceWrites});
        cursor += s.len;
    }
    auto n = std::uint16_t(cs.segs.size());
    if (walk.indirect) {
        cs.indirectBlock = pool_.alloc(Bytes(n) * vringDescSize, 16);
        if (cs.indirectBlock == PoolAllocator::nullAddr) {
            pool_.free(cs.bufBlock);
            warn(name(), ": shadow arena exhausted (indirect)");
            return fail_chain();
        }
    }

    // Materialize shadow descriptors: the guest's ring slots, with
    // shadow buffer (and table) addresses.
    cs.path = std::move(walk.path);
    // A slot a live chain already holds (the guest linked one
    // descriptor into two chains) is about to be re-encoded under
    // this chain: the live chain's audit differs from now on. Once
    // the memory is tainted the marks no longer matter, so a
    // shared slot may be released when either owner completes.
    for (std::uint16_t slot : cs.path) {
        if (sq.held[slot])
            baseMem_->taint();
        sq.held[slot] = 1;
    }
    unsigned descs = 0;
    encodeChain(sq.shadowLayout, cs.path.data(), cs.table(), n,
                [&cs](std::uint16_t i) { return cs.shadowSeg(i); },
                [&](Addr a, const VringDesc &d) {
                    writeDescAt(*baseMem_, a, d);
                    ++descs;
                });

    // Everything allocated: the chain joins the burst. Payload
    // copies and the per-chain ring metadata (descriptor reads +
    // avail-ring entry) accumulate into the caller's transfer.
    for (const auto &seg : cs.segs) {
        if (!seg.write && seg.len > 0)
            segs.push_back(DmaEngine::CopySeg{
                &gmem, seg.guestAddr, baseMem_, seg.shadowAddr,
                seg.len});
    }
    meta += Bytes(descs) * vringDescSize + 2;

    cs.seq = sq.nextSeq++;
    const ChainShadow &live =
        sq.inflight.emplace(head, std::move(cs)).first->second;

    // A DmaCorruptMeta armed while no chain was live lands in the
    // freshly-written descriptors; the scrubber (armed below) is
    // what must catch it.
    if (metaCorruptBudget_ > 0) {
        --metaCorruptBudget_;
        corruptShadowMeta(sq, live);
    }
    if (integrity_)
        scheduleScrub();

    // The request's life begins at the doorbell that announced it,
    // not at descriptor fetch; stamp with the earlier tick.
    if (sq.reqTracer)
        sq.reqTracer->stamp(obs::RequestTracer::flowKey(fn, q, head),
                            obs::Stage::GuestPost, sq.lastDoorbell);
    return true;
}

void
IoBond::publishHead(ShadowQueue &sq, std::uint16_t pos,
                    std::uint16_t head)
{
    sq.shadowLayout.setAvailRing(*baseMem_,
                                 pos % sq.shadowLayout.size(), head);
    auto it = sq.inflight.find(head);
    if (it != sq.inflight.end()) {
        it->second.availPos = pos;
        it->second.published = true;
    }
}

std::vector<std::uint16_t>
IoBond::submissionOrder(const ShadowQueue &sq)
{
    std::vector<std::pair<std::uint64_t, std::uint16_t>> bySeq;
    for (const auto &[head, cs] : sq.inflight)
        bySeq.emplace_back(cs.seq, head);
    std::sort(bySeq.begin(), bySeq.end());
    std::vector<std::uint16_t> order;
    for (const auto &[seq, head] : bySeq)
        order.push_back(head);
    return order;
}

void
IoBond::backendCompleted(unsigned fn, unsigned q)
{
    panic_if(fn >= shadow_.size() || q >= shadow_[fn].size(),
             name(), ": bad shadow queue (", fn, ",", q, ")");
    ShadowQueue &sq = shadow_[fn][q];
    if (!sq.ready)
        return;
    std::uint16_t sused = sq.shadowLayout.usedIdx(*baseMem_);
    if (sq.syncedUsed == sused)
        return;
    lastActiveFn_ = int(fn);
    GuestMemory &gmem = board_.memory();

    // One tail-register write closes the whole batch: collect
    // every newly-used element, group all device-written data and
    // the used elements into one scatter-gather DMA, and decide on
    // one MSI when it lands (interrupt moderation: the hardware
    // raises it after the last DMA).
    std::vector<ReturnedChain> batch;
    std::vector<DmaEngine::CopySeg> segs;
    while (sq.syncedUsed != sused) {
        VringUsedElem elem = sq.shadowLayout.usedRing(
            *baseMem_, sq.syncedUsed % sq.shadowLayout.size());
        ++sq.syncedUsed;
        auto it = sq.inflight.find(std::uint16_t(elem.id));
        if (it == sq.inflight.end()) {
            warn(name(), ": backend completed unknown head ",
                 elem.id);
            continue;
        }
        ChainShadow &cs = it->second;
        // Device-written data flows back to guest memory — only
        // the bytes the used element reports, not whole buffers.
        Bytes budget = elem.len;
        for (const auto &seg : cs.segs) {
            if (!seg.write || seg.len == 0)
                continue;
            Bytes n = std::min<Bytes>(seg.len, budget);
            if (n == 0)
                break;
            segs.push_back(DmaEngine::CopySeg{
                baseMem_, seg.shadowAddr, &gmem, seg.guestAddr,
                n});
            budget -= n;
        }
        batch.push_back({elem, cs.bufBlock, cs.indirectBlock});
        for (std::uint16_t slot : cs.path)
            sq.held[slot] = 0;
        sq.inflight.erase(it);
    }
    if (batch.empty())
        return;

    // The used elements follow the data; on arrival the guest ring
    // is updated once, shadow resources are freed, and the MSI
    // fires.
    segs.push_back(DmaEngine::CopySeg{nullptr, 0, nullptr, 0,
                                      Bytes(batch.size()) * 8});
    std::uint64_t epoch = sq.epoch;
    dma_.copyv(
        std::move(segs),
        [this, fn, q, batch = std::move(batch), epoch] {
            ShadowQueue &s = shadow_[fn][q];
            GuestMemory &gm = board_.memory();
            // The chains left `inflight` above, so a racing reset
            // did not free their blocks; always release them here.
            for (const auto &r : batch) {
                if (r.bufBlock != PoolAllocator::nullAddr)
                    pool_.free(r.bufBlock);
                if (r.indirectBlock != PoolAllocator::nullAddr)
                    pool_.free(r.indirectBlock);
            }
            if (s.epoch != epoch)
                return; // function reset/re-init while in flight
            if (!dma_.lastDelivered()) {
                // The completion copy never landed: device-written
                // payloads (read data, RX frames) are still only in
                // the shadow bounce, so the guest buffers hold
                // stale bytes. Pushing these used elements would
                // present them as fresh completions. Drop the batch
                // unpublished and pin the blame here — the engine's
                // handler resets this function and the guest driver
                // re-issues everything that was in flight.
                lastActiveFn_ = int(fn);
                return;
            }
            std::uint16_t before = s.guestUsed;
            for (const auto &r : batch) {
                s.guestLayout.setUsedRing(
                    gm, s.guestUsed % s.guestLayout.size(), r.elem);
                ++s.guestUsed;
                if (s.reqTracer)
                    s.reqTracer->stamp(
                        obs::RequestTracer::flowKey(
                            fn, q, std::uint16_t(r.elem.id)),
                        obs::Stage::CompleteDma, curTick());
            }
            s.guestLayout.setUsedIdx(gm, s.guestUsed);
            completions_.inc(batch.size());
            if (flight_)
                flight_->record(curTick(),
                                obs::FlightEvent::UsedPublish, fn,
                                q, batch.size(), s.guestUsed);
            // Respect the driver's interrupt suppression: flag bit
            // in classic mode, used_event crossing anywhere inside
            // the batch span with F_EVENT_IDX (all arithmetic
            // modulo 2^16 — the span straddles the index wrap).
            bool wants;
            if (functions_[fn]->featureNegotiated(
                    VIRTIO_RING_F_EVENT_IDX)) {
                wants = vringNeedEvent(
                    s.guestLayout.usedEvent(gm), s.guestUsed,
                    before);
            } else {
                wants = !(s.guestLayout.availFlags(gm) &
                          VRING_AVAIL_F_NO_INTERRUPT);
            }
            if (wants)
                s.irqPending = true;
            if (s.irqPending) {
                s.irqPending = false;
                // The MSI closes the batch; only its final chain's
                // flow completes end-to-end (interrupt moderation).
                if (s.reqTracer)
                    s.reqTracer->stamp(
                        obs::RequestTracer::flowKey(
                            fn, q,
                            std::uint16_t(batch.back().elem.id)),
                        obs::Stage::GuestIrq, curTick());
                if (flight_)
                    flight_->record(curTick(),
                                    obs::FlightEvent::Msi, fn, q,
                                    batch.back().elem.id);
                functions_[fn]->notifyGuest(q);
            }
        });
}

unsigned
IoBond::recoverQueue(unsigned fn, unsigned q)
{
    panic_if(fn >= shadow_.size() || q >= shadow_[fn].size(),
             name(), ": bad shadow queue (", fn, ",", q, ")");
    ShadowQueue &sq = shadow_[fn][q];
    if (!sq.ready)
        return 0;

    // Completions the dead backend already pushed survive in the
    // shadow used ring: return them to the guest first.
    backendCompleted(fn, q);

    // The shadow avail ring's window [syncedUsed, shadowAvail)
    // holds the published-but-unfinished chains. Rewrite it from
    // the inflight table in submission order, so the window is
    // exactly right even if a crashed write half-landed; chains
    // whose publish DMA is still queued will append after it.
    std::uint16_t window =
        std::uint16_t(sq.shadowAvail - sq.syncedUsed);
    std::vector<std::uint16_t> order = submissionOrder(sq);
    if (order.size() < window) {
        warn(name(), ": recovery found ", order.size(),
             " inflight chains for a ", window, "-entry window");
        window = std::uint16_t(order.size());
    }
    for (std::uint16_t i = 0; i < window; ++i)
        publishHead(sq, std::uint16_t(sq.syncedUsed + i), order[i]);
    sq.shadowLayout.setAvailIdx(*baseMem_, sq.shadowAvail);
    sq.audit = true;
    if (window > 0)
        faultRecovered_.inc(window);
    return window;
}

} // namespace iobond
} // namespace bmhive
