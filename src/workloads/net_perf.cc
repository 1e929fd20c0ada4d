#include "workloads/net_perf.hh"

#include <cmath>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "cloud/packet.hh"

namespace bmhive {
namespace workloads {

Tick
stackCost(NetStack stack)
{
    switch (stack) {
      case NetStack::Kernel:
        return paper::kernelUdpPathCost;
      case NetStack::Dpdk:
        return paper::dpdkPathCost;
      case NetStack::Icmp:
        // ICMP is handled in the kernel without a socket wakeup;
        // slightly cheaper than the UDP socket path.
        return Tick(double(paper::kernelUdpPathCost) * 0.8);
    }
    return paper::kernelUdpPathCost;
}

PacketFlood::PacketFlood(Simulation &sim, std::string name,
                         GuestContext src, GuestContext dst,
                         PacketFloodParams params)
    : SimObject(sim, std::move(name)), src_(src), dst_(dst),
      params_(params)
{
}

void
PacketFlood::start()
{
    t0_ = curTick() + params_.warmup;
    t1_ = t0_ + params_.window;

    // Receive-side accounting, bucketed per millisecond for the
    // jitter estimate.
    std::size_t buckets = std::size_t(params_.window / msToTicks(1));
    if (buckets == 0)
        buckets = 1;
    perMs_.assign(buckets, 0);
    inWindow_ = 0;
    bytesInWindow_ = 0;

    dst_.net->setRxProcessing(stackCost(params_.stack),
                              params_.flows);
    dst_.net->setRxHandler([this](const cloud::Packet &p) {
        ++received_;
        Tick now = curTick();
        if (now >= t0_ && now < t1_) {
            ++inWindow_;
            // netperf reports goodput: payload only.
            Bytes hdrs = cloud::ethHeaderBytes +
                         cloud::ipUdpHeaderBytes;
            bytesInWindow_ += p.len > hdrs ? p.len - hdrs : 0;
            auto b = std::size_t((now - t0_) / msToTicks(1));
            if (b < perMs_.size())
                ++perMs_[b];
        }
    });

    for (unsigned f = 0; f < params_.flows; ++f)
        senderLoop(f);

    // Stop the senders at t1; collect() allows the pipe to drain
    // for the extra doneAt() slack.
    eventq().schedule(
        new OneShotEvent([this] { stop_ = true; }, "flood.stop"), t1_);
}

PacketFloodResult
PacketFlood::collect()
{
    stop_ = true;
    dst_.net->setRxHandler(nullptr);
    dst_.net->setRxProcessing(0, 1);

    PacketFloodResult r;
    r.sent = sent_;
    r.received = received_;
    double secs = ticksToSec(params_.window);
    r.pps = double(inWindow_) / secs;
    r.gbps = double(bytesInWindow_) * 8.0 / secs / 1e9;
    // Jitter across 1 ms intervals (drop first and last, which are
    // partial with respect to packet flight time).
    if (perMs_.size() > 4) {
        SummaryStats s;
        for (std::size_t i = 1; i + 1 < perMs_.size(); ++i)
            s.record(double(perMs_[i]));
        r.jitterPct =
            s.mean() > 0 ? 100.0 * s.stddev() / s.mean() : 0.0;
    }
    return r;
}

PacketFloodResult
PacketFlood::run()
{
    start();
    sim_.run(doneAt());
    return collect();
}

void
PacketFlood::senderLoop(unsigned flow)
{
    if (stop_)
        return;
    hw::CpuExecutor &cpu = src_.cpu(flow + 1);
    // The guest stack prepares a batch of datagrams, then the
    // driver publishes them and rings the doorbell once.
    Tick batch_cost =
        Tick(params_.batch) * stackCost(params_.stack);
    cpu.run(batch_cost, [this, flow] {
        if (stop_)
            return;
        unsigned pushed = 0;
        for (unsigned i = 0; i < params_.batch; ++i) {
            cloud::Packet p;
            p.src = src_.net->mac();
            p.dst = dst_.net->mac();
            p.len = cloud::udpFrameBytes(params_.payloadBytes);
            p.created = curTick();
            p.seq = seq_++;
            // Flow identity (UDP source port analog): keeps RSS
            // and XPS steering per-flow-stable on MQ devices.
            p.flow = flow;
            if (!src_.net->sendPacket(p, false, src_.cpu(flow + 1)))
                break; // ring full: completions will free slots
            ++pushed;
        }
        sent_ += pushed;
        if (pushed > 0)
            src_.net->kickTx(src_.cpu(flow + 1));
        if (pushed == 0) {
            // Ring full: back off one poll period and retry.
            scheduleIn(new OneShotEvent(
                           [this, flow] { senderLoop(flow); },
                           "flood.retry"),
                       paper::backendPollPeriod);
            return;
        }
        senderLoop(flow);
    });
}

PingPong::PingPong(Simulation &sim, std::string name, GuestContext a,
                   GuestContext b, PingPongParams params)
    : SimObject(sim, std::move(name)), a_(a), b_(b), params_(params)
{
}

PingPongResult
PingPong::run()
{
    remaining_ = params_.samples;

    // DPDK mode: the guest polls its rx ring in user space — no
    // interrupt cost, packets are picked up by the PMD spin loop.
    Tick a_irq = a_.os->irqCost();
    Tick b_irq = b_.os->irqCost();
    Tick a_msi = a_.os->bus().msiLatency();
    Tick b_msi = b_.os->bus().msiLatency();
    if (params_.stack == NetStack::Dpdk) {
        // The guest PMD polls its rx ring directly: no interrupt
        // cost, pickup within the spin-loop granularity.
        a_.os->setIrqCost(nsToTicks(100));
        b_.os->setIrqCost(nsToTicks(100));
        a_.os->bus().setMsiLatency(nsToTicks(200));
        b_.os->bus().setMsiLatency(nsToTicks(200));
    }

    // Responder: bounce every message back after the stack cost.
    b_.net->setRxHandler([this](const cloud::Packet &p) {
        b_.cpu(0).run(stackCost(params_.stack), [this, p] {
            cloud::Packet r;
            r.src = b_.net->mac();
            r.dst = a_.net->mac();
            r.len = p.len;
            r.seq = p.seq;
            r.created = curTick();
            b_.net->sendPacket(r, true, b_.cpu(0));
        });
    });

    // Initiator: record RTT, fire the next sample.
    a_.net->setRxHandler([this](const cloud::Packet &) {
        rtt_.record(curTick() - sentAt_);
        if (remaining_ > 0)
            fire();
    });

    fire();
    // Step the simulation until all samples are collected (the
    // backend poll loops never drain the event queue, so run in
    // bounded slices rather than to quiescence).
    Tick deadline = curTick() + secToTicks(10);
    while (rtt_.count() < params_.samples && curTick() < deadline)
        sim_.run(curTick() + msToTicks(1));

    a_.net->setRxHandler(nullptr);
    b_.net->setRxHandler(nullptr);
    a_.os->setIrqCost(a_irq);
    b_.os->setIrqCost(b_irq);
    a_.os->bus().setMsiLatency(a_msi);
    b_.os->bus().setMsiLatency(b_msi);

    PingPongResult r;
    // sockperf reports one-way latency = RTT / 2.
    r.avgUs = rtt_.meanUs() / 2.0;
    r.p50Us = rtt_.p50Us() / 2.0;
    r.p99Us = rtt_.p99Us() / 2.0;
    r.maxUs = rtt_.maxUs() / 2.0;
    return r;
}

void
PingPong::fire()
{
    --remaining_;
    a_.cpu(0).run(stackCost(params_.stack), [this] {
        sentAt_ = curTick();
        cloud::Packet p;
        p.src = a_.net->mac();
        p.dst = b_.net->mac();
        p.len = cloud::udpFrameBytes(params_.payloadBytes);
        p.created = sentAt_;
        p.seq = seq_++;
        a_.net->sendPacket(p, true, a_.cpu(0));
    });
}

} // namespace workloads
} // namespace bmhive
