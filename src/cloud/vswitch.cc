#include "cloud/vswitch.hh"

#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace cloud {

VSwitch::VSwitch(Simulation &sim, std::string name, Params params)
    : SimObject(sim, std::move(name)), params_(params),
      forwarded_(metrics().counter(this->name() + ".forwarded")),
      dropped_(metrics().counter(this->name() + ".dropped")),
      uplinkTx_(metrics().counter(this->name() + ".uplink_tx")),
      bytes_(metrics().counter(this->name() + ".bytes_switched")),
      faultInjected_(
          metrics().counter(this->name() + ".fault.injected")),
      faultRecovered_(
          metrics().counter(this->name() + ".fault.recovered")),
      framesChecked_(metrics().counter(
          this->name() + ".integrity.frames_checked")),
      frameDrops_(metrics().counter(
          this->name() + ".integrity.frame_drops")),
      fabricCorruptions_(metrics().counter(
          this->name() + ".integrity.fabric_corruptions"))
{
    sim_.faults().add(this->name(), [this](const fault::FaultSpec &s) {
        return injectFault(s);
    });
}

VSwitch::~VSwitch() { sim_.faults().remove(name()); }

bool
VSwitch::injectFault(const fault::FaultSpec &spec)
{
    if (spec.kind == fault::FaultKind::FabricCorrupt) {
        corruptBudget_ += spec.count ? spec.count : 1;
        faultInjected_.inc();
        return true;
    }
    if (spec.kind != fault::FaultKind::PortStall)
        return false;
    auto id = PortId(spec.magnitude);
    if (id >= ports_.size())
        return false;
    stallPort(id,
              spec.duration ? spec.duration : usToTicks(100));
    return true;
}

void
VSwitch::stallPort(PortId id, Tick duration)
{
    panic_if(id >= ports_.size(), name(), ": bad port ", id);
    Port &port = ports_[id];
    Tick until = curTick() + duration;
    if (until <= port.stallUntil)
        return; // already stalled at least that long
    port.stallUntil = until;
    faultInjected_.inc();
    eventq().schedule(new OneShotEvent([this, id] { flushPort(id); },
                                       "vswitch.unstall"),
                      until);
}

void
VSwitch::flushPort(PortId id)
{
    Port &port = ports_[id];
    if (curTick() < port.stallUntil)
        return; // a later stall extended the deadline
    auto pending = std::move(port.stalled);
    port.stalled.clear();
    faultRecovered_.inc();
    for (const Packet &pkt : pending)
        deliverTo(id, pkt, curTick());
}

PortId
VSwitch::addPort(MacAddr mac, PacketHandler rx)
{
    panic_if(macTable_.count(mac),
             name(), ": duplicate MAC ", mac);
    auto id = PortId(ports_.size());
    Port port;
    port.mac = mac;
    port.rx = std::move(rx);
    ports_.push_back(std::move(port));
    macTable_[mac] = id;
    return id;
}

void
VSwitch::removePort(PortId id)
{
    panic_if(id >= ports_.size(), name(), ": bad port ", id);
    macTable_.erase(ports_[id].mac);
    ports_[id].rx = nullptr;
    ports_[id].rxq = nullptr;
}

void
VSwitch::setPortRss(PortId id, unsigned queues,
                    QueuedPacketHandler rxq, std::uint64_t key)
{
    panic_if(id >= ports_.size(), name(), ": bad port ", id);
    Port &port = ports_[id];
    port.rxq = std::move(rxq);
    port.rss = mq::RssTable(queues ? queues : 1, key);
}

void
VSwitch::setPortRssQueues(PortId id, unsigned queues)
{
    panic_if(id >= ports_.size(), name(), ": bad port ", id);
    Port &port = ports_[id];
    if (port.rxq)
        port.rss.resize(queues ? queues : 1);
}

unsigned
VSwitch::portRssQueues(PortId id) const
{
    panic_if(id >= ports_.size(), name(), ": bad port ", id);
    return ports_[id].rxq ? ports_[id].rss.queues() : 1;
}

void
VSwitch::send(PortId from, const Packet &pkt)
{
    panic_if(from >= ports_.size(), name(), ": bad port ", from);
    forward(pkt);
}

void
VSwitch::receiveFromUplink(const Packet &pkt)
{
    forward(pkt);
}

void
VSwitch::forward(const Packet &pktIn)
{
    Packet pkt = pktIn;
    if (corruptBudget_ > 0) {
        // Armed FabricCorrupt: flip a metadata field on the wire.
        // The created timestamp keeps forwarding deterministic
        // while still breaking the frame checksum.
        --corruptBudget_;
        pkt.created ^= 0xA5A5;
        fabricCorruptions_.inc();
    }
    if (integrity_ && pkt.csum != 0) {
        // Ingress FCS check: a sealed frame that fails its checksum
        // never propagates — the receiver sees a loss, not garbage.
        framesChecked_.inc();
        if (!packetCsumOk(pkt)) {
            frameDrops_.inc();
            dropped_.inc();
            return;
        }
    }

    // Serialize on the switching core: poll-mode processing.
    Tick start = std::max(curTick(), coreFree_);
    Tick done = start + params_.perPacketCost;
    coreFree_ = done;

    auto it = macTable_.find(pkt.dst);
    if (it != macTable_.end()) {
        PortId pid = it->second;
        Port &port = ports_[pid];
        if (curTick() < port.stallUntil) {
            // Stalled port: park the frame until the flush (or
            // drop once the bounded buffer fills, like any switch).
            if (port.stalled.size() >= stallBufferCap) {
                dropped_.inc();
                return;
            }
            port.stalled.push_back(pkt);
            return;
        }
        deliverTo(pid, pkt, done);
        return;
    }

    if (uplink_) {
        Tick xfer = params_.uplinkBandwidth.transferTime(pkt.len);
        Tick depart = std::max(done, uplinkFree_);
        Tick arrive = depart + xfer;
        uplinkFree_ = arrive;
        forwarded_.inc();
        uplinkTx_.inc();
        bytes_.inc(pkt.len);
        Packet copy = pkt;
        // Hand the frame to the fabric in the uplink's partition.
        // The NIC-egress PCIe hop bounds the handoff below by the
        // lookahead (0 in a classic run), which is exactly what
        // makes the conservative window safe.
        Tick hand = std::max(arrive, curTick() + sim_.lookahead());
        sim_.post(uplinkPartition_, hand,
                  [this, copy] { uplink_(copy); }, Event::defaultPri,
                  "vswitch.uplink");
        return;
    }

    dropped_.inc();
}

void
VSwitch::deliverTo(PortId pid, const Packet &pkt, Tick ready)
{
    Port &port = ports_[pid];
    // Serialize on the destination port link.
    Tick xfer = params_.portBandwidth.transferTime(pkt.len);
    Tick depart = std::max(ready, port.linkFree);
    Tick arrive = depart + xfer;
    port.linkFree = arrive;
    forwarded_.inc();
    bytes_.inc(pkt.len);
    Packet copy = pkt;
    eventq().schedule(
        new OneShotEvent(
            [this, pid, copy] {
                Port &p = ports_[pid];
                if (p.rxq) {
                    // RSS: hash the flow tuple through the port's
                    // indirection table to pick the rx queue.
                    p.rxq(copy, p.rss.queueFor(copy.src, copy.dst,
                                               copy.flow));
                } else if (p.rx) {
                    p.rx(copy);
                }
            },
            "vswitch.deliver"),
        arrive);
}

NetFabric::NetFabric(Simulation &sim, std::string name,
                     Tick propagation)
    : SimObject(sim, std::move(name)), propagation_(propagation)
{
}

void
NetFabric::attach(VSwitch &sw)
{
    switches_.push_back(&sw);
    sw.setUplink([this](const Packet &pkt) { route(pkt); },
                 partition());
}

void
NetFabric::learn(MacAddr mac, VSwitch &sw)
{
    where_[mac] = &sw;
}

void
NetFabric::route(const Packet &pkt)
{
    auto it = where_.find(pkt.dst);
    if (it == where_.end())
        return; // no such host: silently dropped by the fabric
    VSwitch *sw = it->second;
    Packet copy = pkt;
    // Delivered in the destination switch's partition, so in a
    // partitioned run it executes there at the correct tick instead
    // of against a parked clock.
    sim_.post(sw->partition(), curTick() + propagation_,
              [sw, copy] { sw->receiveFromUplink(copy); },
              Event::defaultPri, "fabric.route");
}

} // namespace cloud
} // namespace bmhive
