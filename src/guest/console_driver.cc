#include "guest/console_driver.hh"

#include "base/logging.hh"

namespace bmhive {
namespace guest {

using namespace virtio;

ConsoleDriver::ConsoleDriver(GuestOs &os, int slot)
    : VirtioDriver(os, slot)
{
}

void
ConsoleDriver::start(std::uint16_t queue_size)
{
    initialize(VIRTIO_RING_F_INDIRECT_DESC, queue_size);
    panic_if(numQueues() < 2, "virtio-console needs rx+tx queues");

    std::uint16_t rxn = queue(0).layout().size();
    std::uint16_t txn = queue(1).layout().size();
    rxArena_ = os_.allocator().alloc(Bytes(rxn) * bufBytes, 256);
    txArena_ = os_.allocator().alloc(Bytes(txn) * bufBytes, 256);
    for (std::uint16_t i = 0; i < txn; ++i)
        txFree_.push_back(i);

    onQueueInterrupt(0, [this] { rxInterrupt(); });
    onQueueInterrupt(1, [this] { txInterrupt(); });

    fillRx();
    kickNow(0);
}

void
ConsoleDriver::fillRx()
{
    auto &rxq = queue(0);
    while (rxq.freeDescs() > 0) {
        auto head = rxq.submit(
            {}, {{0, std::uint32_t(bufBytes), true}}, 0);
        if (!head)
            break;
        VringDesc d = rxq.layout().readDesc(os_.memory(), *head);
        d.addr = rxArena_ + Addr(*head) * bufBytes;
        rxq.layout().writeDesc(os_.memory(), *head, d);
    }
}

bool
ConsoleDriver::write(const std::string &text,
                     hw::CpuExecutor &cpu_ctx)
{
    panic_if(text.size() > bufBytes, "console write too long");
    auto &txq = queue(1);
    if (txFree_.empty())
        txInterrupt(); // opportunistic reap
    if (txFree_.empty())
        return false;
    std::uint16_t slot = txFree_.back();
    Addr buf = txArena_ + Addr(slot) * bufBytes;
    std::vector<std::uint8_t> bytes(text.begin(), text.end());
    os_.memory().writeBlob(buf, bytes);
    if (!txq.submit({{buf, std::uint32_t(text.size()), false}}, {},
                    slot))
        return false;
    txFree_.pop_back();
    txBytes_.inc(text.size());
    if (txq.shouldKick())
        kick(1, cpu_ctx);
    return true;
}

void
ConsoleDriver::txInterrupt()
{
    for (const auto &c : queue(1).collectUsed())
        txFree_.push_back(std::uint16_t(c.cookie));
}

void
ConsoleDriver::rxInterrupt()
{
    auto &rxq = queue(0);
    bool got = false;
    for (const auto &c : rxq.collectUsed()) {
        Addr buf = rxArena_ + Addr(c.head) * bufBytes;
        auto blob = os_.memory().readBlob(buf, c.len);
        rxBytes_.inc(c.len);
        if (inputHandler_)
            inputHandler_(std::string(blob.begin(), blob.end()));
        got = true;
    }
    if (got) {
        fillRx();
        kickNow(0);
    }
}

} // namespace guest
} // namespace bmhive
