/**
 * @file
 * VmGuest: a KVM-style virtual machine, the baseline the paper
 * compares BM-Hive against. The guest's virtio devices are plain
 * software devices on a virtual PCI bus; their rings live in the
 * guest's memory, which the vhost-user backend maps directly — the
 * short I/O path that BM-Hive's separate memories preclude. In
 * exchange, every vCPU runs under VmExecutionModel (exits, steal,
 * EPT), and MMIO accesses trap (bus access latency = exit cost).
 */

#ifndef BMHIVE_VMSIM_VM_GUEST_HH
#define BMHIVE_VMSIM_VM_GUEST_HH

#include <memory>
#include <string>
#include <vector>

#include "cloud/block_service.hh"
#include "cloud/vswitch.hh"
#include "guest/blk_driver.hh"
#include "guest/guest_os.hh"
#include "guest/net_driver.hh"
#include "hv/io_service.hh"
#include "hw/cpu_model.hh"
#include "sched/poll_scheduler.hh"
#include "vmsim/vm_exec.hh"
#include "virtio/virtio_pci.hh"

namespace bmhive {
namespace vmsim {

/**
 * The guest-visible virtio device of a vm-guest. Registers are
 * emulated by the hypervisor: access latency comes from the bus
 * (one exit per MMIO). Completion interrupts are *injected*, which
 * is slower than hardware MSI.
 */
class VhostVirtioDevice : public virtio::VirtioPciDevice
{
  public:
    using VirtioPciDevice::VirtioPciDevice;

  protected:
    void
    onQueueNotify(unsigned q) override
    {
        (void)q; // the backend polls; kicks are suppressed
    }
};

struct VmGuestParams
{
    hw::CpuModel cpu; ///< set in .cc default (E5-2682 v4)
    unsigned vcpus = 16;
    Bytes memBytes = 64 * MiB; ///< simulation backing, not nominal
    bool exclusive = true;     ///< pinned instance (paper Fig 1)
    bool rateLimited = true;
    std::uint64_t mac = 0;
    std::uint64_t volumeSectors = 4 * MiB / 512;
    /** Model a busy multi-tenant host whose I/O threads contend
     *  (paper section 2.1). Off for dedicated-testbed runs. */
    bool ioThreadContention = true;
};

class VmGuest : public SimObject
{
  public:
    /**
     * @param backend_core  host core running this guest's vhost
     *        threads (gets a hostThread() execution model)
     */
    VmGuest(Simulation &sim, std::string name, VmGuestParams params,
            cloud::VSwitch &vswitch,
            cloud::BlockService *storage = nullptr,
            cloud::Volume *volume = nullptr);

    GuestMemory &memory() { return *mem_; }
    pci::PciBus &bus() { return *vbus_; }
    guest::GuestOs &os() { return *os_; }
    hw::CpuExecutor &vcpu(unsigned i);
    hv::VirtioIoService &service() { return *service_; }

    static constexpr int netSlot = 3;
    static constexpr int blkSlot = 4;

    /**
     * Wire the vhost backend to the guest's rings. Call after the
     * guest drivers completed initialization.
     */
    bool connectBackends();

    /**
     * Full bring-up: enumerate the virtual PCI bus, start the
     * virtio drivers (the same driver code a bm-guest runs), and
     * connect the vhost backend. Returns false — recoverable, the
     * caller may retry or tear the guest down — if no backend
     * could be connected.
     */
    bool bringUp();

    guest::NetDriver &net() { return *netDrv_; }
    guest::BlkDriver *blk() { return blkDrv_.get(); }

    cloud::PortId port() const { return port_; }

  private:
    VmGuestParams params_;
    cloud::VSwitch &vswitch_;
    cloud::BlockService *storage_;
    cloud::Volume *volume_;

    std::unique_ptr<GuestMemory> mem_;
    std::unique_ptr<pci::PciBus> vbus_;
    std::unique_ptr<VmExecutionModel> execModel_;
    std::unique_ptr<VmExecutionModel> hostExecModel_;
    std::unique_ptr<VmExecutionModel> ioThreadExecModel_;
    std::unique_ptr<hw::CpuExecutor> ioThread_;
    std::vector<std::unique_ptr<hw::CpuExecutor>> vcpus_;
    std::unique_ptr<hw::CpuExecutor> backendCore_;
    std::unique_ptr<VhostVirtioDevice> netDev_;
    std::unique_ptr<VhostVirtioDevice> blkDev_;
    std::unique_ptr<guest::GuestOs> os_;
    std::unique_ptr<guest::NetDriver> netDrv_;
    std::unique_ptr<guest::BlkDriver> blkDrv_;
    std::unique_ptr<hv::VirtioIoService> service_;
    /** The vhost thread's poll loop (Dedicated policy). */
    sched::PollScheduler loops_;
    cloud::PortId port_ = 0;
    bool connected_ = false;
};

} // namespace vmsim
} // namespace bmhive

#endif // BMHIVE_VMSIM_VM_GUEST_HH
