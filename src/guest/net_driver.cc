#include "guest/net_driver.hh"

#include "base/logging.hh"

namespace bmhive {
namespace guest {

using namespace virtio;

NetDriver::NetDriver(GuestOs &os, int slot, cloud::MacAddr mac)
    : VirtioDriver(os, slot), mac_(mac)
{
}

void
NetDriver::start(std::uint16_t queue_size, unsigned queue_pairs)
{
    wanted_ = VIRTIO_NET_F_MAC | VIRTIO_NET_F_STATUS |
              VIRTIO_NET_F_MQ | VIRTIO_RING_F_INDIRECT_DESC;
    queueSize_ = queue_size;
    requestedPairs_ = queue_pairs;
    initialize(wanted_, queue_size);
    panic_if(numQueues() < 2, "virtio-net needs rx+tx queues");
    setupRings();
}

void
NetDriver::setupRings()
{
    // Commit the pair count through device config (the ctrl-style
    // set-queue-pairs). The requested count is written raw: asking
    // for more than the offer is the device's to clamp (and count
    // as a contained guest fault); what the device reads back is
    // what the driver runs with.
    activePairs_ = 1;
    if (features_ & VIRTIO_NET_F_MQ) {
        unsigned max_pairs = cfgRead(
            deviceCfgOffset + VirtioNetConfig::maxPairsOffset, 2);
        unsigned want = requestedPairs_ ? requestedPairs_
                                        : max_pairs;
        if (want != 1) {
            cfgWrite(deviceCfgOffset +
                         VirtioNetConfig::currPairsOffset,
                     want, 2);
        }
        activePairs_ = cfgRead(
            deviceCfgOffset + VirtioNetConfig::currPairsOffset, 2);
        if (activePairs_ < 1)
            activePairs_ = 1;
    }
    panic_if(numQueues() < 2 * activePairs_,
             "virtio-net device exposes fewer queues than pairs");

    if (pairs_.size() < activePairs_)
        pairs_.resize(activePairs_);
    for (unsigned p = 0; p < activePairs_; ++p) {
        PairState &ps = pairs_[p];
        auto &rxq = queue(netRxQueue(p));
        auto &txq = queue(netTxQueue(p));
        // Arenas are allocated once per pair and survive resets:
        // the ring sizes match across reinitializations.
        if (ps.rxArena == 0) {
            ps.rxArena = os_.allocator().alloc(
                Bytes(rxq.layout().size()) * bufBytes, 4096);
            ps.txArena = os_.allocator().alloc(
                Bytes(txq.layout().size()) * bufBytes, 4096);
            onQueueInterrupt(netRxQueue(p),
                             [this, p] { rxInterrupt(p); });
            onQueueInterrupt(netTxQueue(p),
                             [this, p] { txInterrupt(p); });
        }
        ps.napiActive = false;
        ps.txSlotOfHead.assign(txq.layout().size(), 0);
        ps.rxSlotOfHead.assign(rxq.layout().size(), 0);
        ps.txFreeSlots.clear();
        for (std::uint16_t i = 0; i < ps.txSlotOfHead.size(); ++i)
            ps.txFreeSlots.push_back(i);
        // Like Linux virtio-net, run tx without completion
        // interrupts: buffers are reaped in the xmit path.
        txq.setNoInterrupt(true);

        fillRx(p);
        kickNow(netRxQueue(p));
    }
}

void
NetDriver::resetAndReinit()
{
    teardownForReset();
    initialize(wanted_, queueSize_);
    resets_.inc();
    setupRings();
}

Addr
NetDriver::txBuf(unsigned pair, std::uint16_t slot) const
{
    return pairs_[pair].txArena + Addr(slot) * bufBytes;
}

Addr
NetDriver::rxBuf(unsigned pair, std::uint16_t slot) const
{
    return pairs_[pair].rxArena + Addr(slot) * bufBytes;
}

void
NetDriver::fillRx(unsigned pair)
{
    auto &rxq = queue(netRxQueue(pair));
    PairState &ps = pairs_[pair];
    // Post one 2 KiB writable buffer per free descriptor; slot
    // number mirrors the chosen head (single-desc chains).
    while (rxq.freeDescs() > 0) {
        // Peek which head will be used: submit and record after.
        std::vector<Segment> in = {{0, std::uint32_t(bufBytes),
                                    true}};
        // Address depends on head; reserve a throwaway, then fix.
        auto head = rxq.submit({}, in, /*cookie=*/0);
        if (!head)
            break;
        // Rewrite the descriptor with the slot-specific address.
        std::uint16_t slot = *head;
        VringDesc d = rxq.layout().readDesc(os_.memory(), slot);
        d.addr = rxBuf(pair, slot);
        rxq.layout().writeDesc(os_.memory(), slot, d);
        ps.rxSlotOfHead[*head] = slot;
    }
}

bool
NetDriver::sendPacket(const cloud::Packet &pkt, bool kick_now,
                      hw::CpuExecutor &cpu_ctx)
{
    // XPS analog: a flow sticks to one pair, preserving per-flow
    // order while different flows spread over the pairs.
    unsigned pair =
        activePairs_ > 1 ? pkt.flow % activePairs_ : 0;
    PairState &ps = pairs_[pair];
    auto &txq = queue(netTxQueue(pair));
    // Opportunistic reap, as virtio-net does in its xmit path:
    // completed tx buffers are recycled without an interrupt.
    if (ps.txFreeSlots.empty())
        txInterrupt(pair);
    if (ps.txFreeSlots.empty())
        return false;
    std::uint16_t slot = ps.txFreeSlots.back();

    Addr buf = txBuf(pair, slot);
    VirtioNetHdr hdr;
    hdr.writeTo(os_.memory(), buf);
    cloud::Packet sealed = pkt;
    if (integrity_)
        cloud::sealPacket(sealed);
    packPacket(os_.memory(), buf + VirtioNetHdr::wireSize, sealed);

    Bytes payload = VirtioNetHdr::wireSize + packetWireBytes;
    Bytes claim = VirtioNetHdr::wireSize + pkt.len;
    // The descriptor claims the full frame length so bandwidth
    // models see real sizes; metadata occupies the head of it.
    std::vector<Segment> out = {
        {buf, std::uint32_t(std::max(payload, claim)), false}};
    auto head = txq.submit(out, {}, slot);
    if (!head)
        return false;
    ps.txFreeSlots.pop_back();
    ps.txSlotOfHead[*head] = slot;

    if (kick_now && txq.shouldKick())
        kick(netTxQueue(pair), cpu_ctx);
    return true;
}

void
NetDriver::kickTx(hw::CpuExecutor &cpu_ctx)
{
    for (unsigned p = 0; p < activePairs_; ++p) {
        if (queue(netTxQueue(p)).shouldKick())
            kick(netTxQueue(p), cpu_ctx);
    }
}

std::uint16_t
NetDriver::txSpace() const
{
    std::size_t space = 0;
    for (unsigned p = 0; p < activePairs_; ++p)
        space += pairs_[p].txFreeSlots.size();
    return std::uint16_t(space);
}

void
NetDriver::txInterrupt(unsigned pair)
{
    if (deviceNeedsReset()) {
        resetAndReinit();
        return;
    }
    PairState &ps = pairs_[pair];
    for (const auto &c : queue(netTxQueue(pair)).collectUsed()) {
        ps.txFreeSlots.push_back(std::uint16_t(c.cookie));
        txDone_.inc();
    }
}

void
NetDriver::rxInterrupt(unsigned pair)
{
    if (deviceNeedsReset()) {
        resetAndReinit();
        return;
    }
    // NAPI: mask further rx interrupts and switch to polling until
    // the ring runs dry; one interrupt can serve a long burst.
    // Each pair runs its own NAPI instance, as Linux does.
    PairState &ps = pairs_[pair];
    if (ps.napiActive)
        return;
    ps.napiActive = true;
    queue(netRxQueue(pair)).setNoInterrupt(true);
    napiPoll(pair);
}

void
NetDriver::napiPoll(unsigned pair)
{
    if (deviceNeedsReset()) {
        resetAndReinit();
        return;
    }
    if (pair >= activePairs_)
        return; // pair count shrank across a reset
    PairState &ps = pairs_[pair];
    auto &rxq = queue(netRxQueue(pair));
    unsigned drained = 0;
    for (const auto &c : rxq.collectUsed()) {
        std::uint16_t slot = ps.rxSlotOfHead[c.head];
        Addr buf = rxBuf(pair, slot);
        cloud::Packet pkt = unpackPacket(
            os_.memory(), buf + VirtioNetHdr::wireSize);
        if (integrity_ && !cloud::packetCsumOk(pkt)) {
            // Corrupted on the memory path between the backend and
            // us: drop like a NIC discarding a bad-FCS frame. The
            // buffer is recycled by the fillRx below.
            rxCsumDrops_.inc();
            ++drained;
            continue;
        }
        rxDone_.inc();
        if (rxHandler_) {
            if (rxCost_ == 0) {
                rxHandler_(pkt);
            } else {
                // Stack processing on a worker context; the
                // handler observes the packet when it completes.
                unsigned w = 1 + (rxNext_++ % rxWorkers_);
                os_.cpu(w % os_.cpuCount())
                    .run(rxCost_, [this, pkt] {
                        if (rxHandler_)
                            rxHandler_(pkt);
                    });
            }
        }
        ++drained;
    }
    if (drained > 0) {
        fillRx(pair);
        kickNow(netRxQueue(pair));
        // Stay in polling mode: softirq re-poll after a budgetary
        // slice (charged to the interrupt CPU).
        os_.cpu(0).charge(nsToTicks(300));
        os_.eventq().schedule(
            new OneShotEvent([this, pair] { napiPoll(pair); },
                             "napi.repoll"),
            os_.curTick() + usToTicks(2));
        return;
    }
    // Ring dry: unmask interrupts and close the race window. The
    // comparison must use the queue's own consumption cursor, not
    // a delivered-packet count: a faulty device completion (bad
    // id, unowned head) advances used->idx without delivering a
    // packet, and counting deliveries would re-arm forever.
    ps.napiActive = false;
    rxq.setNoInterrupt(false);
    if (rxq.layout().usedIdx(os_.memory()) != rxq.usedIdxSeen()) {
        rxInterrupt(pair);
    }
}

} // namespace guest
} // namespace bmhive
