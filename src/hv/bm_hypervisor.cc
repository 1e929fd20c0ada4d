#include "hv/bm_hypervisor.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "virtio/virtio_net.hh"

namespace bmhive {
namespace hv {

using Kind = VirtioIoService::UnitKind;

BmHypervisor::BmHypervisor(Simulation &sim, std::string name,
                           hw::ComputeBoard &board,
                           iobond::IoBond &bond,
                           hw::CpuExecutor &core,
                           cloud::VSwitch &vswitch,
                           cloud::MacAddr mac,
                           cloud::BlockService *storage,
                           cloud::Volume *volume, bool rate_limited)
    : SimObject(sim, std::move(name)), board_(board), bond_(bond),
      vswitch_(&vswitch), mac_(mac), storage_(storage),
      volume_(volume), rateLimited_(rate_limited),
      loops_(sim, this->name() + ".loops"), sched_(&loops_),
      faultInjected_(
          metrics().counter(this->name() + ".fault.injected")),
      respawns_(metrics().counter(this->name() + ".respawns")),
      mqQueueRegs_(
          metrics().counter(this->name() + ".mq.queue_regs")),
      mqPassBinds_(metrics().counter(this->name() +
                                     ".mq.passthrough_binds")),
      mqPassDemotions_(metrics().counter(
          this->name() + ".mq.passthrough_demotions"))
{
    IoServiceParams params;
    // Each poll reads the IO-Bond mailbox over PCIe; each
    // completion batch writes the tail register (0.8 us, paper
    // section 3.4.3). Payload copies are IO-Bond DMA, not CPU.
    params.pollRegisterCost = bond.params().mailboxAccess;
    params.completionRegisterCost = bond.params().mailboxAccess;
    params.perPacketCopyCost = 0;
    params.suppressGuestNotify = false; // the doorbell is hardware

    core_ = &core;
    serviceParams_ = params;
    service_ = std::make_unique<VirtioIoService>(
        sim, this->name() + ".svc", core, params);

    port_ = vswitch_->addPort(mac, [this](const cloud::Packet &pkt) {
        service_->enqueueRx(pkt);
    });

    bond_.setReadyCallback(
        [this](unsigned fn) { onFunctionReady(fn); });
    // A doorbell carries (fn, q) so only the unit polling that queue
    // spins up (a no-op on a Dedicated loop, which never sleeps).
    bond_.setQueueWake(
        [this](unsigned fn, unsigned q) { wakeQueue(fn, q); });
    // Guest set-queue-pairs commits reshape the vSwitch RSS spread
    // (a no-op until the port is in RSS mode).
    bond_.setQueuePairsCallback([this](unsigned fn,
                                       unsigned pairs) {
        if (connected_ && int(fn) == netFn_)
            vswitch_->setPortRssQueues(port_, pairs);
    });
    sim_.faults().add(this->name(),
                      [this](const fault::FaultSpec &s) {
                          return injectFault(s);
                      });
}

BmHypervisor::~BmHypervisor()
{
    unregisterUnits();
    sim_.faults().remove(name());
    bond_.setReadyCallback(nullptr);
    bond_.setQueueWake(nullptr);
    bond_.setQueuePairsCallback(nullptr);
}

void
BmHypervisor::useScheduler(sched::PollScheduler &s,
                           unsigned core_index)
{
    panic_if(connected_, name(),
             ": useScheduler after backends connected");
    panic_if(&s.coreExecutor(core_index) != core_, name(),
             ": scheduler core does not back this process's PMD");
    sched_ = &s;
    schedCore_ = core_index;
}

void
BmHypervisor::setPollWeight(double w)
{
    pollWeight_ = w;
    if (perQueue_ && passthroughDue() != (passQueues_ > 0)) {
        // Quarantine/Suspect demotes a passthrough guest's units to
        // the Shared policy, where a fractional weight actually
        // bites; full weight re-promotes them.
        if (!passthroughDue())
            mqPassDemotions_.inc();
        unregisterUnits();
        registerUnits();
        return;
    }
    for (auto h : regs_)
        sched_->setWeight(h, w);
}

void
BmHypervisor::setMqPassthrough(bool on)
{
    passthroughWanted_ = on;
    if (perQueue_ && passthroughDue() != (passQueues_ > 0)) {
        unregisterUnits();
        registerUnits();
    }
}

void
BmHypervisor::setPollPeriod(Tick t)
{
    pollPeriod_ = t;
    for (auto h : regs_)
        sched_->setPeriod(h, t);
}

bool
BmHypervisor::wedged(Tick window) const
{
    return std::any_of(regs_.begin(), regs_.end(), [&](auto h) {
        return sched_->wedged(h, window);
    });
}

void
BmHypervisor::startService()
{
    service_->start();
    registerUnits();
}

void
BmHypervisor::registerUnits()
{
    VirtioIoService &svc = *service_;
    if (sched_ == &loops_) {
        // One process, one PMD thread (paper section 3.4.2).
        regs_.push_back(loops_.addDedicated(
            *core_, svc.unit(Kind::Whole), pollPeriod_));
        return;
    }
    perQueue_ = svc.netPairCount() > 1 || svc.blkQueueCount() > 1;
    if (!perQueue_) {
        share(svc.unit(Kind::Whole), schedCore_, svc.name());
        return;
    }
    // Multi-queue: DWRR schedules queues, not guests, so each queue
    // is its own unit (the whole service would double-serve every
    // ring), spread round-robin outward from the home core so one
    // guest's queues burn different poll cores in parallel.
    // Passthrough puts each on a Dedicated loop of that core.
    bool pass = passthroughDue();
    unsigned k = 0;
    auto add = [&](sched::Pollable &u, const std::string &label) {
        unsigned core = (schedCore_ + k++) % sched_->coreCount();
        if (pass) {
            regs_.push_back(sched_->addDedicated(
                sched_->coreExecutor(core), u, pollPeriod_));
            mqPassBinds_.inc();
        } else {
            share(u, core, label);
        }
        mqQueueRegs_.inc();
    };
    for (unsigned p = 0; p < svc.netPairCount(); ++p)
        add(svc.unit(Kind::NetPair, p),
            name() + ".mq.netp" + std::to_string(p));
    for (unsigned q = 0; q < svc.blkQueueCount(); ++q)
        add(svc.unit(Kind::BlkQueue, q),
            name() + ".mq.blkq" + std::to_string(q));
    passQueues_ = pass ? k : 0;
    // The console stays a small shared unit on the home core even
    // under passthrough — it is never the fast path.
    share(svc.unit(Kind::Console), schedCore_, name() + ".mq.con");
}

void
BmHypervisor::share(sched::Pollable &u, unsigned core,
                    const std::string &label)
{
    auto h = sched_->add(core, u, pollWeight_, label);
    if (flight_)
        sched_->setFlightRecorder(h, flight_);
    regs_.push_back(h);
}

void
BmHypervisor::unregisterUnits()
{
    for (auto h : regs_)
        sched_->remove(h);
    regs_.clear();
    perQueue_ = false;
    passQueues_ = 0;
}

void
BmHypervisor::wakeQueue(unsigned fn, unsigned q)
{
    // Net shadow queues interleave rx0,tx0,rx1,tx1: both directions
    // of pair q/2 land on the same unit.
    if (int(fn) == netFn_)
        service_->wake(Kind::NetPair, q / 2);
    else if (int(fn) == blkFn_)
        service_->wake(Kind::BlkQueue, q);
    else
        service_->wake(Kind::Console);
}

void
BmHypervisor::setFlightRecorder(obs::FlightRecorder *fr)
{
    flight_ = fr;
    for (auto h : regs_)
        sched_->setFlightRecorder(h, fr);
}

bool
BmHypervisor::injectFault(const fault::FaultSpec &spec)
{
    switch (spec.kind) {
      case fault::FaultKind::HvStall:
        service_->stall(spec.duration ? spec.duration
                                      : usToTicks(200));
        faultInjected_.inc();
        return true;
      case fault::FaultKind::HvCrash:
        crash();
        faultInjected_.inc();
        return true;
      default:
        return false;
    }
}

void
BmHypervisor::crash()
{
    service_->markDead();
    crashed_ = true;
    crashedAt_ = curTick();
    logDebug("bm-hypervisor process crashed");
}

void
BmHypervisor::replaceService(const std::string &suffix)
{
    if (service_->alive())
        service_->markDead();
    unregisterUnits();
    // Respawn and migration are triggered from the control
    // partition (watchdog, fleet controller); the fresh generation
    // must still home in this guest's partition, sharing its cell
    // so a later migration re-homes it too.
    psim::PartitionScope scope(sim_, partitionCell(), partition());
    auto next = std::make_unique<VirtioIoService>(
        sim_, name() + ".svc." + suffix, *core_, serviceParams_);
    next->setIntegrity(blkIntegrity_);
    // The old process stays allocated until teardown so any event
    // still holding it unwinds against a dead service, not freed
    // memory.
    retired_.push_back(std::move(service_));
    service_ = std::move(next);
    netFn_ = -1;
    blkFn_ = -1;
    for (unsigned fn = 0; fn < bond_.numFunctions(); ++fn)
        attachFunction(fn);
    wireTracers();
    startService();
    crashed_ = false;
}

void
BmHypervisor::setBlkIntegrity(bool on)
{
    blkIntegrity_ = on;
    service_->setIntegrity(on);
}

void
BmHypervisor::respawn()
{
    panic_if(!connected_, name(), ": respawn before first connect");
    if (service_->alive())
        service_->markDead();
    // Republish whatever the dead process had picked up but not
    // completed, in original submission order; the fresh device
    // views below resume from the rings' live indices and re-serve
    // exactly those chains.
    for (unsigned fn = 0; fn < bond_.numFunctions(); ++fn) {
        for (unsigned q = 0; q < bond_.function(fn).numQueues();
             ++q) {
            if (bond_.shadowReady(fn, q))
                bond_.recoverQueue(fn, q);
        }
    }
    ++respawnCount_;
    replaceService("r" + std::to_string(respawnCount_));
    respawns_.inc();
    if (flight_)
        flight_->record(curTick(), obs::FlightEvent::Respawn, 0, 0,
                        respawnCount_);
    logDebug("bm-hypervisor respawned (generation ",
             respawnCount_, ")");
}

void
BmHypervisor::migrateTo(hw::CpuExecutor &core,
                        sched::PollScheduler *sched,
                        unsigned core_index)
{
    panic_if(!connected_, name(), ": migrate before first connect");
    if (service_->alive())
        service_->markDead();
    // Drop the registration with the *source* scheduler before the
    // member is re-pointed at the target's.
    unregisterUnits();
    core_ = &core;
    sched_ = sched ? sched : &loops_;
    schedCore_ = core_index;
    ++migrations_;
    // No recoverQueue here: IoBond::rebase already republished the
    // in-flight window into the target server's memory; the fresh
    // views attach to the rebased layouts and resume mid-stream.
    replaceService("m" + std::to_string(migrations_));
    logDebug("bm-hypervisor migrated onto ", core.name(),
             " (migration ", migrations_, ")");
}

void
BmHypervisor::rebindVSwitch(cloud::VSwitch &sw)
{
    if (&sw == vswitch_)
        return; // same server switch: the port stays put
    vswitch_->removePort(port_);
    vswitch_ = &sw;
    port_ = vswitch_->addPort(mac_,
                              [this](const cloud::Packet &pkt) {
                                  service_->enqueueRx(pkt);
                              });
    // RSS (if the guest runs multi-queue) is re-established by the
    // attachFunction pass of the migration's replaceService, which
    // runs after this rebind and sees the fresh port id.
}

void
BmHypervisor::powerOnGuest()
{
    board_.powerOn();
}

void
BmHypervisor::powerOffGuest()
{
    unregisterUnits();
    service_->stop();
    connected_ = false;
    board_.powerOff();
}

bool
BmHypervisor::attachFunction(unsigned fn)
{
    auto type = bond_.function(fn).deviceType();
    if (type == virtio::DeviceType::Net) {
        if (!bond_.shadowReady(fn, virtio::NET_RXQ) ||
            !bond_.shadowReady(fn, virtio::NET_TXQ))
            return false;
        auto limiter =
            rateLimited_
                ? cloud::InstanceLimits::cloudNetwork()
                : cloud::DualRateLimiter::unlimited();
        service_->attachNet(
            bond_.baseMemory(),
            bond_.shadowLayout(fn, virtio::NET_RXQ),
            bond_.shadowLayout(fn, virtio::NET_TXQ),
            [this, fn] {
                bond_.backendCompleted(fn, virtio::NET_RXQ);
            },
            [this, fn] {
                bond_.backendCompleted(fn, virtio::NET_TXQ);
            },
            *vswitch_, port_, limiter);
        netFn_ = int(fn);
        // Every further pair whose shadow rings the guest driver
        // enabled (VIRTIO_NET_F_MQ). The device serves all live
        // rings; the set-queue-pairs commitment governs only how
        // wide RSS spreads arriving traffic.
        auto &f = bond_.function(fn);
        for (unsigned p = 1; p < f.maxQueuePairs(); ++p) {
            if (!bond_.shadowReady(fn, virtio::netRxQueue(p)) ||
                !bond_.shadowReady(fn, virtio::netTxQueue(p)))
                continue;
            service_->attachNetPair(
                p, bond_.shadowLayout(fn, virtio::netRxQueue(p)),
                bond_.shadowLayout(fn, virtio::netTxQueue(p)),
                [this, fn, p] {
                    bond_.backendCompleted(fn,
                                           virtio::netRxQueue(p));
                },
                [this, fn, p] {
                    bond_.backendCompleted(fn,
                                           virtio::netTxQueue(p));
                });
        }
        if (service_->netPairCount() > 1) {
            vswitch_->setPortRss(
                port_, f.activeQueuePairs(),
                [this](const cloud::Packet &pkt, unsigned q) {
                    service_->enqueueRx(pkt, q);
                });
        }
        return true;
    }
    if (type == virtio::DeviceType::Console) {
        if (!bond_.shadowReady(fn, 0) || !bond_.shadowReady(fn, 1))
            return false;
        service_->attachConsole(
            bond_.baseMemory(), bond_.shadowLayout(fn, 0),
            bond_.shadowLayout(fn, 1),
            [this, fn] { bond_.backendCompleted(fn, 0); },
            [this, fn] { bond_.backendCompleted(fn, 1); },
            [this](const std::string &text) {
                if (consoleSink_)
                    consoleSink_(text);
            });
        return true;
    }
    if (type == virtio::DeviceType::Block) {
        if (!bond_.shadowReady(fn, 0))
            return false;
        panic_if(storage_ == nullptr || volume_ == nullptr,
                 name(), ": blk function without storage backing");
        auto limiter =
            rateLimited_
                ? cloud::InstanceLimits::cloudStorage()
                : cloud::DualRateLimiter::unlimited();
        service_->attachBlk(
            bond_.baseMemory(), bond_.shadowLayout(fn, 0),
            [this, fn] { bond_.backendCompleted(fn, 0); },
            *storage_, *volume_, limiter);
        blkFn_ = int(fn);
        // Further submission queues (VIRTIO_BLK_F_MQ).
        for (unsigned q = 1; q < bond_.function(fn).maxQueuePairs();
             ++q) {
            if (!bond_.shadowReady(fn, q))
                continue;
            service_->attachBlkQueue(
                q, bond_.shadowLayout(fn, q),
                [this, fn, q] { bond_.backendCompleted(fn, q); });
        }
        return true;
    }
    return false;
}

void
BmHypervisor::onFunctionReady(unsigned fn)
{
    // Initial bring-up goes through connectBackends, and a dead
    // process cannot react (respawn re-attaches everything).
    if (!connected_ || !service_->alive())
        return;
    // The guest driver reinitialized after DEVICE_NEEDS_RESET: its
    // rings moved, so the backend views must be rebuilt on the new
    // shadow layouts.
    if (attachFunction(fn))
        wireTracers();
}

bool
BmHypervisor::connectBackends()
{
    panic_if(connected_, name(), ": backends already connected");
    bool any = false;
    for (unsigned fn = 0; fn < bond_.numFunctions(); ++fn)
        any = attachFunction(fn) || any;
    if (any) {
        connected_ = true;
        wireTracers();
        startService();
    }
    return any;
}

void
BmHypervisor::enableIoTracing()
{
    if (!netTracer_) {
        netTracer_ = std::make_unique<obs::RequestTracer>(
            name() + ".net", metrics());
        // The guest's net driver suppresses tx completion MSIs and
        // reclaims used buffers from its xmit path, so a tx flow's
        // last observable event is the completion DMA.
        netTracer_->setFinalStage(obs::Stage::CompleteDma);
    }
    if (!blkTracer_)
        blkTracer_ = std::make_unique<obs::RequestTracer>(
            name() + ".blk", metrics());
    traceIo_ = true;
    if (connected_)
        wireTracers();
}

void
BmHypervisor::wireTracers()
{
    if (!traceIo_)
        return;
    // Only guest-initiated directions carry request spans; the rx
    // ring's buffer turnaround is not a request latency.
    if (netFn_ >= 0) {
        bond_.setQueueTracer(unsigned(netFn_), virtio::NET_TXQ,
                             netTracer_.get());
        service_->setNetTxTracer(
            netTracer_.get(),
            obs::RequestTracer::flowKey(unsigned(netFn_),
                                        virtio::NET_TXQ, 0));
        // Per-pair key bases keep MQ spans distinct: the flow key
        // carries the pair's tx shadow-queue index.
        for (unsigned p = 1; p < service_->netPairCount(); ++p) {
            bond_.setQueueTracer(unsigned(netFn_),
                                 virtio::netTxQueue(p),
                                 netTracer_.get());
            service_->setNetTxKeyBase(
                p, obs::RequestTracer::flowKey(
                       unsigned(netFn_), virtio::netTxQueue(p),
                       0));
        }
    }
    if (blkFn_ >= 0) {
        bond_.setQueueTracer(unsigned(blkFn_), 0, blkTracer_.get());
        service_->setBlkTracer(
            blkTracer_.get(),
            obs::RequestTracer::flowKey(unsigned(blkFn_), 0, 0));
        for (unsigned q = 1; q < service_->blkQueueCount(); ++q) {
            bond_.setQueueTracer(unsigned(blkFn_), q,
                                 blkTracer_.get());
            service_->setBlkKeyBase(
                q, obs::RequestTracer::flowKey(unsigned(blkFn_), q,
                                               0));
        }
    }
}

bool
BmHypervisor::updateGuestFirmware(const hw::FirmwareImage &fw)
{
    return board_.updateFirmware(fw, providerKey);
}

void
BmHypervisor::liveUpgrade(std::function<void(Tick)> done)
{
    panic_if(!connected_, name(), ": live upgrade while detached");
    Tick t0 = curTick();
    // Stop taking new work; in-flight block I/O keeps completing.
    service_->stop();
    finishUpgrade(t0, std::move(done));
}

void
BmHypervisor::finishUpgrade(Tick t0, std::function<void(Tick)> done)
{
    if (service_->blkInflight() > 0) {
        scheduleIn(new OneShotEvent(
                       [this, t0, done] { finishUpgrade(t0, done); },
                       "hv.quiesce"),
                   usToTicks(10));
        return;
    }
    ++upgrades_;
    unregisterUnits();
    auto next = std::make_unique<VirtioIoService>(
        sim_, name() + ".svc.v" + std::to_string(upgrades_ + 1),
        *core_, serviceParams_);
    next->adoptFrom(*service_);
    // The old process stays allocated until teardown (its
    // in-flight lambdas are gone once quiesced).
    retired_.push_back(std::move(service_));
    service_ = std::move(next);
    startService();
    if (done)
        done(curTick() - t0);
}

} // namespace hv
} // namespace bmhive
