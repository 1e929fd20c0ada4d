#include "workloads/app_server.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "base/paper_constants.hh"
#include "cloud/packet.hh"

namespace bmhive {
namespace workloads {

AppProfile
AppProfile::nginx()
{
    AppProfile p;
    p.name = "nginx";
    p.cpuPerRequest = usToTicks(55);
    p.exitsPerRequest = 3.0;
    p.memIntensity = 0.25;
    p.requestBytes = 180;
    p.responseBytes = 900;
    p.workers = 8;
    return p;
}

AppProfile
AppProfile::mariadbReadOnly()
{
    AppProfile p;
    p.name = "mariadb-ro";
    p.cpuPerRequest = usToTicks(82);
    p.exitsPerRequest = 1.0;
    p.memIntensity = 0.5;
    p.requestBytes = 250;
    p.responseBytes = 1200;
    p.workers = 16;
    return p;
}

AppProfile
AppProfile::mariadbReadWrite()
{
    AppProfile p;
    p.name = "mariadb-rdwr";
    p.cpuPerRequest = usToTicks(90);
    p.exitsPerRequest = 4.8;
    p.memIntensity = 0.5;
    p.requestBytes = 300;
    p.responseBytes = 900;
    p.workers = 16;
    p.blkWritesPerRequest = 0.05;
    return p;
}

AppProfile
AppProfile::mariadbWriteOnly()
{
    AppProfile p;
    p.name = "mariadb-wr";
    p.cpuPerRequest = usToTicks(95);
    p.exitsPerRequest = 3.5;
    p.memIntensity = 0.5;
    p.requestBytes = 350;
    p.responseBytes = 400;
    p.workers = 16;
    p.blkWritesPerRequest = 0.1;
    return p;
}

AppProfile
AppProfile::redis(Bytes value_bytes)
{
    AppProfile p;
    p.name = "redis";
    // Redis is single-threaded; per-op cost grows with the value
    // size (memcpy + protocol encoding).
    p.cpuPerRequest =
        usToTicks(6.5) + Tick(double(value_bytes) * 0.35e3);
    p.exitsPerRequest = 0.28;
    p.memIntensity = 0.7;
    p.requestBytes = 64 + value_bytes / 2;
    p.responseBytes = 64 + value_bytes;
    p.workers = 1;
    return p;
}

AppServerBench::AppServerBench(Simulation &sim, std::string name,
                               GuestContext server,
                               cloud::VSwitch &vswitch,
                               cloud::MacAddr client_mac,
                               AppProfile profile,
                               AppBenchParams params)
    : SimObject(sim, std::move(name)), server_(server),
      vswitch_(vswitch), clientMac_(client_mac), profile_(profile),
      params_(params)
{
    // The load-generator box: a raw vSwitch port, no guest stack.
    clientPort_ = vswitch_.addPort(
        clientMac_, [this](const cloud::Packet &resp) {
            auto it = inflight_.find(resp.seq);
            if (it == inflight_.end())
                return; // late duplicate after a retry
            Tick sent = it->second;
            unsigned client = unsigned(resp.seq % params_.clients);
            inflight_.erase(it);
            if (curTick() >= measureStart_ &&
                curTick() < measureEnd_) {
                lat_.record(curTick() - sent);
                ++completedInWindow_;
            }
            if (!stop_)
                clientSend(client);
        });
}

AppBenchResult
AppServerBench::run()
{
    measureStart_ = curTick() + params_.warmup;
    measureEnd_ = measureStart_ + params_.window;

    // Absorb bursts: the server's listen backlog scales with the
    // client count (as a tuned production server would).
    if (server_.svc)
        server_.svc->setRxBacklog(
            std::max<std::size_t>(4096, params_.clients * 2));

    server_.net->setRxHandler(
        [this](const cloud::Packet &req) { serveRequest(req); });

    for (unsigned c = 0; c < params_.clients; ++c)
        clientSend(c);

    sim_.run(measureEnd_ + msToTicks(5));
    stop_ = true;
    server_.net->setRxHandler(nullptr);

    AppBenchResult r;
    r.completed = completedInWindow_;
    r.rps = double(completedInWindow_) / ticksToSec(params_.window);
    r.avgMs = lat_.meanUs() / 1000.0;
    r.p99Ms = lat_.p99Us() / 1000.0;
    r.timedOut = timeouts_;
    return r;
}

void
AppServerBench::clientSend(unsigned client)
{
    if (stop_ || curTick() >= measureEnd_)
        return;
    std::uint64_t seq = seq_ * params_.clients + client;
    ++seq_;
    inflight_[seq] = curTick();

    cloud::Packet req;
    req.src = clientMac_;
    req.dst = server_.net->mac();
    req.len = cloud::udpFrameBytes(profile_.requestBytes);
    req.created = curTick();
    req.seq = seq;
    vswitch_.send(clientPort_, req);

    // Retransmit on loss (server backlog overflow under extreme
    // client counts), as a real load generator's TCP stack would.
    scheduleIn(new OneShotEvent(
                   [this, seq, client] {
                       auto it = inflight_.find(seq);
                       if (it == inflight_.end() || stop_)
                           return;
                       inflight_.erase(it);
                       ++timeouts_;
                       clientSend(client);
                   },
                   "app.rto"),
               msToTicks(250));
}

void
AppServerBench::serveRequest(const cloud::Packet &req)
{
    // Dispatch to a worker context; vCPU 0 is the interrupt CPU,
    // workers start at 1.
    unsigned w = 1 + (nextWorker_++ % profile_.workers);
    hw::CpuExecutor &cpu = server_.cpu(w);

    exitDebt_ += profile_.exitsPerRequest;
    unsigned exits = unsigned(exitDebt_);
    exitDebt_ -= exits;

    std::uint64_t seq = req.seq;
    Bytes resp_len = profile_.responseBytes;
    cpu.run(
        profile_.cpuPerRequest,
        [this, seq, resp_len, w] {
            // Async log flush (MariaDB write paths).
            blkDebt_ += profile_.blkWritesPerRequest;
            if (blkDebt_ >= 1.0 && server_.blk != nullptr) {
                blkDebt_ -= 1.0;
                server_.blk->write(
                    8 + (seq % 1024) *
                            (profile_.blkWriteBytes / 512),
                    profile_.blkWriteBytes, nullptr, server_.cpu(w),
                    [](std::uint8_t, Addr) {});
            }
            respond(seq, resp_len);
        },
        exits);
}

void
AppServerBench::respond(std::uint64_t seq, Bytes resp_len)
{
    cloud::Packet resp;
    resp.src = server_.net->mac();
    resp.dst = clientMac_;
    resp.len = cloud::udpFrameBytes(resp_len);
    resp.created = curTick();
    resp.seq = seq;
    unsigned w = 1 + unsigned(seq % profile_.workers);
    if (!server_.net->sendPacket(resp, true, server_.cpu(w))) {
        // Tx ring momentarily full; retry shortly.
        scheduleIn(new OneShotEvent(
                       [this, seq, resp_len] { respond(seq, resp_len); },
                       "app.resp_retry"),
                   usToTicks(20));
    }
}

} // namespace workloads
} // namespace bmhive
