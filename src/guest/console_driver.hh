/**
 * @file
 * Guest virtio-console driver. The paper's BM-Hive supports a
 * console device for users to reach their bm-guest (section
 * 3.4.2); section 3.3 notes IO-Bond extends to additional virtio
 * devices "with only minor changes" because the device logic lives
 * in the front- and back-ends — this driver plus the backend
 * console role are exactly those two ends; IO-Bond itself only
 * contributes one more emulated PCI function.
 *
 * Queue 0 receives host-to-guest input; queue 1 transmits
 * guest-to-host output (the virtio-console port-0 convention).
 */

#ifndef BMHIVE_GUEST_CONSOLE_DRIVER_HH
#define BMHIVE_GUEST_CONSOLE_DRIVER_HH

#include <functional>
#include <string>

#include "guest/virtio_driver.hh"

namespace bmhive {
namespace guest {

class ConsoleDriver : public VirtioDriver
{
  public:
    using InputHandler = std::function<void(const std::string &)>;

    ConsoleDriver(GuestOs &os, int slot);

    /** Initialize and post input buffers. */
    void start(std::uint16_t queue_size = 64);

    /**
     * Write @p text to the console (guest -> hypervisor).
     * @return false if the output ring is full.
     */
    bool write(const std::string &text, hw::CpuExecutor &cpu_ctx);

    /** Host input (hypervisor -> guest) is delivered to @p fn. */
    void setInputHandler(InputHandler fn)
    {
        inputHandler_ = std::move(fn);
    }

    std::uint64_t bytesWritten() const { return txBytes_.value(); }
    std::uint64_t bytesRead() const { return rxBytes_.value(); }

  private:
    void fillRx();
    void txInterrupt();
    void rxInterrupt();

    Addr txArena_ = 0;
    Addr rxArena_ = 0;
    std::vector<std::uint16_t> txFree_;
    InputHandler inputHandler_;
    Counter txBytes_;
    Counter rxBytes_;

    static constexpr Bytes bufBytes = 256;
};

} // namespace guest
} // namespace bmhive

#endif // BMHIVE_GUEST_CONSOLE_DRIVER_HH
