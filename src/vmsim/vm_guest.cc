#include "vmsim/vm_guest.hh"

#include <utility>

#include "base/logging.hh"
#include "virtio/virtio_blk.hh"
#include "virtio/virtio_net.hh"

namespace bmhive {
namespace vmsim {

using namespace virtio;

VmGuest::VmGuest(Simulation &sim, std::string name,
                 VmGuestParams params, cloud::VSwitch &vswitch,
                 cloud::BlockService *storage, cloud::Volume *volume)
    : SimObject(sim, std::move(name)), params_(params),
      vswitch_(vswitch), storage_(storage), volume_(volume),
      loops_(sim, this->name() + ".loops")
{
    if (params_.cpu.model.empty())
        params_.cpu = hw::CpuCatalog::xeonE5_2682v4();

    mem_ = std::make_unique<GuestMemory>(this->name() + ".mem",
                                         params_.memBytes);
    // Every MMIO access to an emulated device traps to the
    // hypervisor: one exit worth of latency per access. Interrupts
    // are injected rather than delivered by hardware.
    vbus_ = std::make_unique<pci::PciBus>(
        sim, this->name() + ".vbus", paper::vmExitCost,
        paper::vmIrqInjectCost);

    VmExecParams ep = params_.exclusive ? VmExecParams::exclusive()
                                        : VmExecParams::shared();
    execModel_ = std::make_unique<VmExecutionModel>(sim.rng(), ep);
    hostExecModel_ = std::make_unique<VmExecutionModel>(
        sim.rng(), VmExecParams::hostThread());

    for (unsigned i = 0; i < params_.vcpus; ++i) {
        vcpus_.push_back(std::make_unique<hw::CpuExecutor>(
            sim, this->name() + ".vcpu" + std::to_string(i),
            params_.cpu.singleThreadFactor, execModel_.get()));
    }
    backendCore_ = std::make_unique<hw::CpuExecutor>(
        sim, this->name() + ".vhost", 1.0, hostExecModel_.get());
    ioThreadExecModel_ = std::make_unique<VmExecutionModel>(
        sim.rng(), params_.ioThreadContention
                       ? VmExecParams::ioThread()
                       : VmExecParams::hostThread());
    ioThread_ = std::make_unique<hw::CpuExecutor>(
        sim, this->name() + ".iothread", 1.0,
        ioThreadExecModel_.get());

    // Virtio devices on the virtual bus.
    netDev_ = std::make_unique<VhostVirtioDevice>(
        sim, this->name() + ".vnet", DeviceType::Net, 2,
        VIRTIO_NET_F_CSUM | VIRTIO_NET_F_MAC | VIRTIO_NET_F_STATUS |
            VIRTIO_RING_F_INDIRECT_DESC);
    std::vector<std::uint8_t> ncfg(8, 0);
    for (int i = 0; i < 6; ++i)
        ncfg[i] = std::uint8_t(params_.mac >> (8 * i));
    ncfg[6] = 1;
    netDev_->setDeviceCfgBytes(std::move(ncfg));
    vbus_->attach(*netDev_, netSlot);

    if (storage_ != nullptr) {
        panic_if(volume_ == nullptr,
                 this->name(), ": storage without a volume");
        blkDev_ = std::make_unique<VhostVirtioDevice>(
            sim, this->name() + ".vblk", DeviceType::Block, 1,
            VIRTIO_BLK_F_SEG_MAX | VIRTIO_BLK_F_FLUSH |
                VIRTIO_RING_F_INDIRECT_DESC);
        std::vector<std::uint8_t> bcfg(8, 0);
        for (int i = 0; i < 8; ++i)
            bcfg[i] =
                std::uint8_t(params_.volumeSectors >> (8 * i));
        blkDev_->setDeviceCfgBytes(std::move(bcfg));
        vbus_->attach(*blkDev_, blkSlot);
    }

    std::vector<hw::CpuExecutor *> cpu_ptrs;
    for (auto &c : vcpus_)
        cpu_ptrs.push_back(c.get());
    os_ = std::make_unique<guest::GuestOs>(
        sim, this->name() + ".os", *mem_, *vbus_,
        std::move(cpu_ptrs));
    // Interrupt *injection* makes vm-guest IRQs more expensive
    // than native MSIs (world switch into the guest).
    os_->setIrqCost(paper::guestIrqCost + usToTicks(0.5));

    // vhost-user backend service over the guest's own memory.
    hv::IoServiceParams sp;
    sp.pollRegisterCost = 0;         // rings are in shared memory
    sp.completionRegisterCost = 0;
    sp.perPacketCost = nsToTicks(100);     // tuned vhost PMD fwd
    sp.perPacketCopyCost = nsToTicks(60);  // CPU memcpy per packet
    sp.blkExtraCost = paper::vmStorageCopyCost;
    sp.blkCopyBytesPerSec = 2.4e9; // QEMU block-layer copy path
    sp.suppressGuestNotify = true;   // PMD polls, kicks suppressed
    service_ = std::make_unique<hv::VirtioIoService>(
        sim, this->name() + ".vhost_svc", *backendCore_, sp);
    service_->setBlkCore(ioThread_.get());

    port_ = vswitch_.addPort(
        params_.mac,
        [this](const cloud::Packet &pkt) {
            service_->enqueueRx(pkt, 0);
        });
}

bool
VmGuest::bringUp()
{
    os_->enumeratePci();
    netDrv_ = std::make_unique<guest::NetDriver>(*os_, netSlot,
                                                 params_.mac);
    netDrv_->start();
    if (blkDev_) {
        blkDrv_ = std::make_unique<guest::BlkDriver>(*os_, blkSlot);
        blkDrv_->start();
    }
    if (!connectBackends()) {
        warn(name(), ": vhost backend connection failed");
        return false;
    }
    return true;
}

hw::CpuExecutor &
VmGuest::vcpu(unsigned i)
{
    panic_if(i >= vcpus_.size(), name(), ": bad vcpu ", i);
    return *vcpus_[i];
}

bool
VmGuest::connectBackends()
{
    panic_if(connected_, name(), ": backends already connected");
    bool any = false;
    // Completions reach the guest as an injected interrupt, unless
    // the driver suppressed it on the queue just published on.
    auto irq = [](VhostVirtioDevice *dev, unsigned q) {
        return [dev, q](VirtQueueDevice &vq) {
            if (vq.shouldInterrupt())
                dev->notifyGuest(q);
        };
    };

    if (netDev_->driverOk() &&
        netDev_->queueState(NET_RXQ).enabled &&
        netDev_->queueState(NET_TXQ).enabled) {
        service_->attachNet(
            *mem_, vswitch_, port_,
            params_.rateLimited ? cloud::InstanceLimits::cloudNetwork()
                                : cloud::DualRateLimiter::unlimited());
        service_->attachNetPair(
            0, netDev_->queueState(NET_RXQ).layout(),
            netDev_->queueState(NET_TXQ).layout(),
            irq(netDev_.get(), NET_RXQ), irq(netDev_.get(), NET_TXQ));
        any = true;
    }

    if (blkDev_ && blkDev_->driverOk() &&
        blkDev_->queueState(0).enabled) {
        service_->attachBlk(
            *mem_, *storage_, *volume_,
            params_.rateLimited ? cloud::InstanceLimits::cloudStorage()
                                : cloud::DualRateLimiter::unlimited());
        service_->attachBlkQueue(0, blkDev_->queueState(0).layout(),
                                 irq(blkDev_.get(), 0));
        any = true;
    }

    if (any) {
        connected_ = true;
        service_->start();
        loops_.addDedicated(
            *backendCore_,
            service_->unit(hv::VirtioIoService::UnitKind::Whole),
            paper::backendPollPeriod);
    }
    return any;
}

} // namespace vmsim
} // namespace bmhive
