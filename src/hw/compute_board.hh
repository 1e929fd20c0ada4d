/**
 * @file
 * ComputeBoard and BaseBoard: the two hardware halves of a BM-Hive
 * server (paper section 3.3).
 *
 * A compute board is a PCIe extension board carrying a dedicated
 * CPU, dedicated memory, its own PCIe bus, and signed firmware. A
 * bm-guest runs on it natively. The base board is a simplified
 * 16-core Xeon server that hosts the bm-hypervisor processes and
 * the I/O backends.
 */

#ifndef BMHIVE_HW_COMPUTE_BOARD_HH
#define BMHIVE_HW_COMPUTE_BOARD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/cpu_executor.hh"
#include "hw/cpu_model.hh"
#include "mem/guest_memory.hh"
#include "pci/pci_device.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace hw {

/**
 * Signed firmware image. The bm-hypervisor only applies updates
 * whose signature verifies against the provider key (paper
 * section 1: "the firmware of the compute board is properly
 * signed, and can only be updated if the signature of the new
 * firmware passes the verification").
 */
struct FirmwareImage
{
    std::string version;
    std::uint64_t payloadDigest = 0;
    std::uint64_t signature = 0;

    /** Provider signing: signature = digest mixed with the key. */
    static std::uint64_t
    sign(std::uint64_t digest, std::uint64_t provider_key)
    {
        // Placeholder cryptography: a keyed mix. The *policy* —
        // update only on verified signature — is what the model
        // tests, not the cipher.
        std::uint64_t x = digest ^ (provider_key * 0x9e3779b97f4a7c15ull);
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 33;
        return x;
    }

    bool
    verify(std::uint64_t provider_key) const
    {
        return signature == sign(payloadDigest, provider_key);
    }
};

/** Power states of a compute board. */
enum class BoardPower { Off, On };

class ComputeBoard : public SimObject
{
  public:
    /**
     * @param cpu     processor fitted to this board
     * @param mem_size  board-local RAM
     * @param pci_access_latency  cost of one access on the board's
     *        PCIe bus toward IO-Bond (paper: 0.8 us on the FPGA)
     */
    ComputeBoard(Simulation &sim, std::string name,
                 const CpuModel &cpu, Bytes mem_size,
                 Tick pci_access_latency);

    const CpuModel &cpu() const { return cpu_; }
    GuestMemory &memory() { return mem_; }
    pci::PciBus &pciBus() { return bus_; }

    /** One executor per hardware thread. */
    CpuExecutor &thread(unsigned i);
    unsigned threadCount() const { return unsigned(threads_.size()); }

    BoardPower powerState() const { return power_; }
    void powerOn() { power_ = BoardPower::On; }
    void powerOff();

    const FirmwareImage &firmware() const { return firmware_; }

    /**
     * Apply a firmware update; rejected unless the signature
     * verifies against @p provider_key.
     * @return true if applied.
     */
    bool updateFirmware(const FirmwareImage &fw,
                        std::uint64_t provider_key);

  private:
    CpuModel cpu_;
    GuestMemory mem_;
    pci::PciBus bus_;
    std::vector<std::unique_ptr<CpuExecutor>> threads_;
    BoardPower power_ = BoardPower::Off;
    FirmwareImage firmware_;
};

class BaseBoard : public SimObject
{
  public:
    /**
     * @param cpu  the base CPU (16-core E5 in the paper)
     * @param mem_size  base (hypervisor) RAM
     * @param pci_access_latency  base-side PCIe access cost toward
     *        IO-Bond mailbox registers (paper: 0.8 us)
     */
    BaseBoard(Simulation &sim, std::string name, const CpuModel &cpu,
              Bytes mem_size, Tick pci_access_latency);

    const CpuModel &cpu() const { return cpu_; }
    GuestMemory &memory() { return mem_; }
    pci::PciBus &pciBus() { return bus_; }

    CpuExecutor &core(unsigned i);
    unsigned coreCount() const { return unsigned(cores_.size()); }

  private:
    CpuModel cpu_;
    GuestMemory mem_;
    pci::PciBus bus_;
    std::vector<std::unique_ptr<CpuExecutor>> cores_;
};

} // namespace hw
} // namespace bmhive

#endif // BMHIVE_HW_COMPUTE_BOARD_HH
