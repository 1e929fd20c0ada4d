/**
 * @file
 * Load generators for the repo benchmark. Each one drives a guest
 * through its public virtio drivers with the same cost model as the
 * library's workload (PacketFlood, FioRunner, bench_fleet's pump),
 * and additionally checks every operation it issues: status, exactly
 * once, per-flow order and, for writes, the bytes a later read gets.
 * The library workloads report aggregates only, which is why these
 * are separate.
 *
 * All state is per generator, so generators living in different
 * event partitions never share a cell.
 */

#ifndef PERFBENCH_LOAD_HH
#define PERFBENCH_LOAD_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "sim/sim_object.hh"
#include "workloads/guest_iface.hh"
#include "workloads/net_perf.hh"

namespace perfbench {

using namespace bmhive;

/** splitmix64: the benchmark's own seeded input generator. */
class Gen
{
  public:
    explicit Gen(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, 1). */
    double unit() { return double(next() >> 11) * 0x1.0p-53; }
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

/** Run @p fn at @p when on @p sim's current queue. */
void at(Simulation &sim, Tick when, std::function<void()> fn);

/** Violations found by one generator, by kind. */
using Violations = std::map<std::string, std::uint64_t>;

/**
 * Closed-loop UDP blaster between two guests (PacketFlood's model:
 * per flow, prepare a batch at the stack's per-packet cost, publish
 * it, ring once, repeat; back off one poll period on a full ring).
 * Each sender starts at a seeded offset within the first 100 ns. The
 * receiver checks that each flow arrives in order with no
 * duplicates, and records one-way latency.
 */
class Flood
{
  public:
    struct Shape
    {
        Bytes payloadBytes = 1;
        unsigned flows = 8;
        unsigned batch = 32;
        workloads::NetStack stack = workloads::NetStack::Kernel;
    };

    Flood(Simulation &sim, workloads::GuestContext src,
          workloads::GuestContext dst, Shape shape, std::uint64_t seed,
          Tick window_start, Tick window_end);

    void start();
    /** Stop sending (in-flight packets still arrive). */
    void stop() { stop_ = true; }
    /** Detach the receive hook and check the totals. */
    void finish(Violations &v);

    std::uint64_t sent() const { return sent_; }
    std::uint64_t received() const { return received_; }
    std::uint64_t receivedInWindow() const { return inWindow_; }
    const LatencyRecorder &latency() const { return lat_; }

  private:
    void senderLoop(unsigned flow);

    Simulation &sim_;
    workloads::GuestContext src_;
    workloads::GuestContext dst_;
    Shape shape_;
    Gen gen_;
    Tick t0_;
    Tick t1_;
    bool stop_ = false;
    std::uint64_t seq_ = 0;
    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
    std::uint64_t inWindow_ = 0;
    std::uint64_t outOfOrder_ = 0;
    std::uint64_t strays_ = 0;
    /** Last sequence number received per flow (+1; 0 = none). */
    std::vector<std::uint64_t> lastSeq_;
    LatencyRecorder lat_;
};

/**
 * fio-style closed-loop block jobs on one guest (FioRunner's model:
 * 1.2 us submission cost, one 4 KiB I/O in flight per job, retry in
 * 10 us when the ring is busy). Reads pick any 4 KiB-aligned LBA of
 * the volume; each write job owns a disjoint slice, so writes to one
 * LBA never overlap and its final content is known. Writes carry a
 * pattern derived from (LBA, version); verify() reads a sample back
 * and compares the bytes.
 */
class BlkJobs
{
  public:
    BlkJobs(Simulation &sim, workloads::GuestContext g,
            unsigned read_jobs, unsigned write_jobs,
            std::uint64_t volume_sectors, std::uint64_t seed,
            Tick window_start, Tick window_end);

    void start();
    void stop() { stop_ = true; }
    bool idle() const { return inflight_ == 0; }

    /** Status and exactly-once checks over every I/O issued. */
    void finish(Violations &v);

    /** Read back up to @p samples written LBAs (steps @p sim until
     *  they return) and compare against what was written. */
    void verify(unsigned samples, Violations &v);

    std::uint64_t issued() const { return done_.size(); }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t readsInWindow() const { return readLat_.count(); }
    std::uint64_t writesInWindow() const { return writeLat_.count(); }
    std::uint64_t readbackOps() const { return readbacks_; }
    const LatencyRecorder &readLatency() const { return readLat_; }
    const LatencyRecorder &writeLatency() const { return writeLat_; }

  private:
    void jobLoop(unsigned job);
    std::vector<std::uint8_t> pattern(std::uint64_t lba,
                                      std::uint64_t version) const;

    Simulation &sim_;
    workloads::GuestContext g_;
    unsigned readJobs_;
    unsigned writeJobs_;
    std::uint64_t blocks_; ///< 4 KiB blocks in the volume
    Gen gen_;
    Tick t0_;
    Tick t1_;
    bool stop_ = false;
    unsigned inflight_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t readbacks_ = 0;
    /** Completions seen per issued I/O (saturating). */
    std::vector<std::uint8_t> done_;
    std::uint64_t badStatus_ = 0;
    /** Block -> version of its last completed write. */
    std::map<std::uint64_t, std::uint64_t> written_;
    std::uint64_t version_ = 0;
    LatencyRecorder readLat_;
    LatencyRecorder writeLat_;
};

/**
 * Open-loop 4 KiB reader for one fleet guest: one read falls due
 * on every pump tick, at a random LBA. A read the ring refuses stays
 * due (counted as a deferral) and is retried on the next tick, so
 * latency, timed from the due time, includes the stall. A held
 * reader (see FleetStorm's quiesce) keeps its due reads the same way.
 */
class OpenReader
{
  public:
    OpenReader(guest::BlkDriver *blk, hw::CpuExecutor *cpu,
               std::uint64_t volume_blocks, std::uint64_t seed)
        : blk_(blk), cpu_(cpu), blocks_(volume_blocks), gen_(seed)
    {
    }

    /** One pump tick at @p now: queue the due read, issue backlog. */
    void tick(Tick now, bool in_window);
    void stop() { stopped_ = true; }
    bool idle() const { return backlog_.empty() && inflight_ == 0; }
    /** While held, due reads queue up but none is issued. */
    void hold(bool on) { held_ = on; }
    /** Nothing in flight, and no completion within @p margin before
     *  @p now. */
    bool
    quiet(Tick now, Tick margin) const
    {
        return inflight_ == 0 && now >= lastDone_ + margin;
    }
    void finish(Violations &v);

    std::uint64_t issued() const { return done_.size(); }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t completedInWindow() const { return lat_.count(); }
    std::uint64_t deferrals() const { return deferrals_; }
    const LatencyRecorder &latency() const { return lat_; }

  private:
    guest::BlkDriver *blk_;
    hw::CpuExecutor *cpu_;
    std::uint64_t blocks_;
    Gen gen_;
    bool stopped_ = false;
    bool held_ = false;
    Tick lastDone_ = 0;
    /** Due times of reads not yet accepted by the ring. */
    std::vector<std::pair<Tick, bool>> backlog_;
    unsigned inflight_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t deferrals_ = 0;
    std::uint64_t badStatus_ = 0;
    std::vector<std::uint8_t> done_;
    LatencyRecorder lat_;
};

} // namespace perfbench

#endif // PERFBENCH_LOAD_HH
