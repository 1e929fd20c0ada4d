/**
 * @file
 * Poll-mode virtual switch, modelling the customized DPDK vSwitch
 * the bm-hypervisor back-end forwards packets to (paper section
 * 3.4.2). Each guest's backend attaches as a port; the switch
 * forwards frames by MAC with a per-packet processing cost
 * (poll-mode driver, no interrupts) and serializes on its core
 * budget. Unknown MACs go to the uplink (the server's shared
 * 100 Gbit/s NIC toward the fabric).
 */

#ifndef BMHIVE_CLOUD_VSWITCH_HH
#define BMHIVE_CLOUD_VSWITCH_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/paper_constants.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "cloud/packet.hh"
#include "mq/rss.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace cloud {

using PortId = std::uint32_t;

/** Receives a packet delivered to a port. */
using PacketHandler = std::function<void(const Packet &)>;

/** Receives a packet RSS-steered onto a specific rx queue. */
using QueuedPacketHandler =
    std::function<void(const Packet &, unsigned)>;

class VSwitch : public SimObject
{
  public:
    VSwitch(Simulation &sim, std::string name);
    ~VSwitch() override;

    /**
     * Attach a port for @p mac; @p rx is invoked for every frame
     * delivered to it.
     */
    PortId addPort(MacAddr mac, PacketHandler rx);

    /**
     * Detach a port: its MAC is forgotten (and may be re-learned
     * by a new port) and frames already queued to it are dropped.
     */
    void removePort(PortId id);

    /**
     * Inject a frame from a local port. Forwards to the owning
     * port of @p pkt.dst, or to the uplink if the MAC is remote.
     */
    void send(PortId from, const Packet &pkt);

    /** Deliver a frame arriving from the fabric uplink. */
    void receiveFromUplink(const Packet &pkt);

    /**
     * Connect the uplink (frames with non-local dst go here).
     * @p uplinkPartition is the partition the uplink handler runs
     * in (the fabric's); every uplink send is posted there, with
     * the NIC-egress PCIe hop (the lookahead) as its minimum delay.
     */
    void
    setUplink(std::function<void(const Packet &)> uplink,
              unsigned uplinkPartition = 0)
    {
        uplink_ = std::move(uplink);
        uplinkPartition_ = uplinkPartition;
    }

    /**
     * Stall a port: frames destined to it buffer (bounded; overflow
     * drops) until @p duration elapses, then flush in order. Models
     * a wedged backend PMD / paused guest.
     */
    void stallPort(PortId id, Tick duration);

    /**
     * Enable RSS steering on a port (VIRTIO_NET_F_MQ receiver):
     * frames are hashed over (src, dst, flow) through a per-port
     * indirection table and handed to @p rxq with the selected rx
     * queue. The plain handler from addPort stays as the fallback
     * while @p rxq is unset. The keyed hash is deterministic, so
     * a flow's packets always land on the same queue and the
     * same seed steers identically (byte-identical metrics gate).
     */
    void setPortRss(PortId id, unsigned queues,
                    QueuedPacketHandler rxq,
                    std::uint64_t key = mq::defaultRssKey);

    /**
     * Re-spread the indirection table over @p queues (the guest
     * wrote set-queue-pairs). No-op for ports without RSS.
     */
    void setPortRssQueues(PortId id, unsigned queues);

    /** Active rx queues a port steers over (1 = no RSS). */
    unsigned portRssQueues(PortId id) const;

    std::uint64_t forwarded() const { return forwarded_.value(); }
    std::uint64_t dropped() const { return dropped_.value(); }
    std::uint64_t uplinkTx() const { return uplinkTx_.value(); }
    std::uint64_t bytesSwitched() const { return bytes_.value(); }

    /**
     * Frame-checksum verification at switch ingress (the FCS check
     * real switch silicon performs): a sealed frame that fails its
     * checksum is dropped and counted, never forwarded. Unsealed
     * frames (csum 0, legacy senders) pass unchecked.
     */
    void setIntegrity(bool on) { integrity_ = on; }

    std::uint64_t frameDrops() const { return frameDrops_.value(); }
    std::uint64_t fabricCorruptions() const
    {
        return fabricCorruptions_.value();
    }

  private:
    struct Port
    {
        MacAddr mac;
        PacketHandler rx;
        /** RSS receiver; when set it takes over from rx. */
        QueuedPacketHandler rxq;
        mq::RssTable rss{1};
        Tick linkFree = 0;   ///< when the port link is next idle
        Tick stallUntil = 0; ///< injected stall deadline
        std::deque<Packet> stalled;
    };

    /** Stalled frames held per port before overflow drops. */
    static constexpr std::size_t stallBufferCap = 4096;
    /** CPU cost to switch one packet (DPDK PMD, ~50 ns). */
    static constexpr Tick perPacketCost = nsToTicks(50);
    /** Port link bandwidth toward a local backend. */
    static constexpr Bandwidth portBandwidth = Bandwidth::gbps(50);
    /** Uplink NIC bandwidth (the server's shared NIC). */
    static constexpr Bandwidth uplinkBandwidth =
        Bandwidth::gbps(paper::serverNicGbps);

    /** Serialize on the switch core, then deliver. */
    void forward(const Packet &pkt);
    /** Serialize @p pkt on port @p pid's link and deliver it. */
    void deliverTo(PortId pid, const Packet &pkt, Tick ready);
    /** Stall expired: replay the buffered frames in order. */
    void flushPort(PortId id);
    /** Fault hook: PortStall with magnitude = port id. */
    bool injectFault(const fault::FaultSpec &spec);

    std::vector<Port> ports_;
    std::map<MacAddr, PortId> macTable_;
    std::function<void(const Packet &)> uplink_;
    unsigned uplinkPartition_ = 0;
    Tick coreFree_ = 0;   ///< when the switching core is next idle
    Tick uplinkFree_ = 0; ///< when the uplink NIC is next idle
    bool integrity_ = true;
    /** Injected FabricCorrupt budget: the next N frames entering
     *  the switch have a metadata field flipped on the wire. */
    std::uint64_t corruptBudget_ = 0;
    /** Registry-backed: accessors and exports read the same cell. */
    Counter &forwarded_;
    Counter &dropped_;
    Counter &uplinkTx_;
    Counter &bytes_;
    Counter &faultInjected_;
    Counter &faultRecovered_;
    Counter &framesChecked_;
    Counter &frameDrops_;
    Counter &fabricCorruptions_;
};

/**
 * The datacenter network between servers: connects VSwitch uplinks
 * with a propagation delay and routes by MAC.
 */
class NetFabric : public SimObject
{
  public:
    explicit NetFabric(Simulation &sim, std::string name,
                       Tick propagation = usToTicks(5));

    /** Register @p sw and the MACs living behind it. */
    void attach(VSwitch &sw);

    /** Called by a switch's uplink for non-local frames. */
    void route(const Packet &pkt);

    /** Record that @p mac lives behind @p sw (called by addPort). */
    void learn(MacAddr mac, VSwitch &sw);

  private:
    Tick propagation_;
    std::map<MacAddr, VSwitch *> where_;
    std::vector<VSwitch *> switches_;
};

} // namespace cloud
} // namespace bmhive

#endif // BMHIVE_CLOUD_VSWITCH_HH
