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
    service_ = std::make_unique<VirtioIoService>(
        sim, this->name() + ".svc", core, params);

    port_ = vswitch_->addPort(mac, [this](const cloud::Packet &pkt) {
        service_->enqueueRx(pkt, 0);
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
    // so a later migration re-homes it too. The scope covers the
    // construction alone: the attach and start below read the
    // clock of the partition running them, as everything else does.
    std::unique_ptr<VirtioIoService> next;
    {
        psim::PartitionScope scope(sim_, partitionCell(), partition());
        next = service_->nextGeneration(name() + ".svc." + suffix,
                                        *core_);
    }
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
BmHypervisor::recoverQueues()
{
    // Republish whatever the dead process had picked up but not
    // completed, in original submission order; the fresh device
    // views of the next generation resume from the rings' live
    // indices and re-serve exactly those chains.
    for (unsigned fn = 0; fn < bond_.numFunctions(); ++fn) {
        for (unsigned q = 0; q < bond_.function(fn).numQueues();
             ++q) {
            if (bond_.shadowReady(fn, q))
                bond_.recoverQueue(fn, q);
        }
    }
}

void
BmHypervisor::respawn()
{
    panic_if(!connected_, name(), ": respawn before first connect");
    if (service_->alive())
        service_->markDead();
    recoverQueues();
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
                                  service_->enqueueRx(pkt, 0);
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

CompletionBarrier
BmHypervisor::tailWrite(unsigned fn, unsigned q)
{
    return [this, fn, q](virtio::VirtQueueDevice &) {
        bond_.backendCompleted(fn, q);
    };
}

bool
BmHypervisor::attachFunction(unsigned fn)
{
    using virtio::netRxQueue;
    using virtio::netTxQueue;
    auto &f = bond_.function(fn);
    // A role comes up with its queue 0; the device serves every
    // further queue whose shadow rings the guest driver enabled.
    if (!bond_.shadowReady(fn, 0))
        return false;
    if (f.deviceType() == virtio::DeviceType::Net) {
        if (!bond_.shadowReady(fn, netTxQueue(0)))
            return false;
        service_->attachNet(
            bond_.baseMemory(), *vswitch_, port_,
            rateLimited_ ? cloud::InstanceLimits::cloudNetwork()
                         : cloud::DualRateLimiter::unlimited());
        netFn_ = int(fn);
        // The set-queue-pairs commitment (VIRTIO_NET_F_MQ) governs
        // only how wide RSS spreads arriving traffic.
        for (unsigned p = 0; p < f.maxQueuePairs(); ++p) {
            if (bond_.shadowReady(fn, netRxQueue(p)) &&
                bond_.shadowReady(fn, netTxQueue(p)))
                service_->attachNetPair(
                    p, bond_.shadowLayout(fn, netRxQueue(p)),
                    bond_.shadowLayout(fn, netTxQueue(p)),
                    tailWrite(fn, netRxQueue(p)),
                    tailWrite(fn, netTxQueue(p)));
        }
        if (service_->netPairCount() > 1) {
            vswitch_->setPortRss(
                port_, f.activeQueuePairs(),
                [this](const cloud::Packet &pkt, unsigned q) {
                    service_->enqueueRx(pkt, q);
                });
        }
        // Net and console chains are served within one poll: the
        // old views hold none of them.
        bond_.backendReattached(fn);
        return true;
    }
    if (f.deviceType() == virtio::DeviceType::Console) {
        if (!bond_.shadowReady(fn, 1))
            return false;
        service_->attachConsole(
            bond_.baseMemory(), bond_.shadowLayout(fn, 0),
            bond_.shadowLayout(fn, 1), tailWrite(fn, 0),
            tailWrite(fn, 1), [this](const std::string &text) {
                if (consoleSink_)
                    consoleSink_(text);
            });
        bond_.backendReattached(fn);
        return true;
    }
    if (f.deviceType() == virtio::DeviceType::Block) {
        panic_if(storage_ == nullptr || volume_ == nullptr,
                 name(), ": blk function without storage backing");
        service_->attachBlk(
            bond_.baseMemory(), *storage_, *volume_,
            rateLimited_ ? cloud::InstanceLimits::cloudStorage()
                         : cloud::DualRateLimiter::unlimited());
        blkFn_ = int(fn);
        // VIRTIO_BLK_F_MQ: one submission queue per vCPU.
        for (unsigned q = 0; q < f.maxQueuePairs(); ++q) {
            if (bond_.shadowReady(fn, q))
                service_->attachBlkQueue(q, bond_.shadowLayout(fn, q),
                                         tailWrite(fn, q));
        }
        // attachBlk retired every read the old views had sent to
        // storage: none can land in the bond's shadow blocks now.
        bond_.backendReattached(fn);
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
    // ring's buffer turnaround is not a request latency. Per-queue
    // key bases keep MQ spans distinct: the flow key carries the
    // queue's shadow index.
    auto trace = [&](int fn, unsigned q, obs::RequestTracer *t) {
        bond_.setQueueTracer(unsigned(fn), q, t);
        return obs::RequestTracer::flowKey(unsigned(fn), q, 0);
    };
    if (netFn_ >= 0) {
        service_->setNetTracer(netTracer_.get());
        for (unsigned p = 0; p < service_->netPairCount(); ++p)
            service_->setNetTxKeyBase(
                p, trace(netFn_, virtio::netTxQueue(p),
                         netTracer_.get()));
    }
    if (blkFn_ >= 0) {
        service_->setBlkTracer(blkTracer_.get());
        for (unsigned q = 0; q < service_->blkQueueCount(); ++q)
            service_->setBlkKeyBase(
                q, trace(blkFn_, q, blkTracer_.get()));
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
    // Stop taking new work; in-flight block I/O keeps completing.
    quiesce();
    finishUpgrade(curTick(), std::move(done));
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
    // With no block I/O in flight every chain the stopped process
    // popped is on a used ring, so the next generation's views
    // resume exactly from the rings' live indices. A process that
    // crashed while quiescing dropped its in-flight requests
    // instead: republish them as a respawn does.
    if (crashed_)
        recoverQueues();
    ++upgrades_;
    VirtioIoService &old = *service_;
    replaceService("v" + std::to_string(upgrades_ + 1));
    service_->takeBacklog(old);
    if (done)
        done(curTick() - t0);
}

} // namespace hv
} // namespace bmhive
