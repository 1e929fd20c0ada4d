/**
 * @file
 * Cloud block storage: the SPDK-based, SSD-backed service that
 * guests reach over the datacenter network (paper sections 3.4.2
 * and 4.3). Each guest volume has a per-volume queue; requests
 * traverse the network fabric, queue at the storage cluster, and
 * receive an SSD service time drawn from a heavy-tailed
 * distribution (flash read/program plus occasional internal GC).
 *
 * The service is platform-neutral: both bm-guests and vm-guests
 * talk to the same BlockService. The latency differences the paper
 * reports (Fig. 11) arise on the host-side path, not here.
 */

#ifndef BMHIVE_CLOUD_BLOCK_SERVICE_HH
#define BMHIVE_CLOUD_BLOCK_SERVICE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "sim/sim_object.hh"

namespace bmhive {
namespace cloud {

/** One block I/O as seen by the storage cluster. */
struct BlockIo
{
    bool write = false;
    std::uint64_t lba = 0; ///< 512-byte sector
    Bytes len = 0;
    /**
     * Completion callback. @p wire_corrupt is true when the service
     * consumed FabricCorrupt budget against this read on the
     * return leg.
     */
    std::function<void(bool wire_corrupt)> done;
    /** Read completions may claim FabricCorrupt budget (set by
     *  integrity-enabled submitters, which verify the payload). */
    bool wantCorruption = false;
    /** Partition the completion is delivered in. */
    unsigned srcPartition = 0;
    /** Tick the request left the guest server. The submitter sets
     *  it; the service times the request leg and the end-to-end
     *  service latency from it. */
    Tick submittedAt = 0;
};

/**
 * A provisioned volume: capacity plus an optional content store.
 * Content is kept sparsely (only written sectors) so multi-GB
 * volumes cost nothing until used; the boot-over-virtio test uses
 * this to store a kernel image.
 */
class Volume
{
  public:
    Volume(std::string name, Bytes capacity)
        : name_(std::move(name)), capacity_(capacity) {}

    const std::string &name() const { return name_; }
    Bytes capacity() const { return capacity_; }

    /** Sparse content access, sector-addressed. */
    void writeData(std::uint64_t lba,
                   const std::vector<std::uint8_t> &data);
    std::vector<std::uint8_t> readData(std::uint64_t lba,
                                       Bytes len) const;

    /**
     * DIF protection-information side-store: @p tags holds one
     * 8-byte tag per sector written. On read, sectors without a
     * stored tag (written before integrity was on) get a tag
     * regenerated from their content.
     */
    void writeTags(std::uint64_t lba,
                   const std::vector<std::uint8_t> &tags);
    std::vector<std::uint8_t> readTags(std::uint64_t lba,
                                       Bytes payload_len) const;

  private:
    std::string name_;
    Bytes capacity_;
    /** sector -> 512-byte block, sparse. */
    std::map<std::uint64_t, std::array<std::uint8_t, 512>> blocks_;
    /** sector -> DIF tag, sparse (integrity writes only). */
    std::map<std::uint64_t, std::array<std::uint8_t, 8>> tags_;
};

/** Configuration of the storage cluster model. */
struct BlockServiceParams
{
    /** One-way network latency guest-server <-> storage. */
    Tick networkLatency = usToTicks(140);
    /** Median 4 KiB random-read service time on the SSD. */
    Tick readServiceMedian = usToTicks(55);
    /** Median 4 KiB random-write service time (buffered). */
    Tick writeServiceMedian = usToTicks(35);
    /** Probability a request lands behind an internal flash
     *  housekeeping pause (GC / wear-leveling). */
    double gcChance = 1.5e-3;
    /** Duration of such a pause. */
    Tick gcPause = msToTicks(1.2);
    /** Parallel SSD channels per volume's storage node. */
    unsigned channels = 8;
    /** Flash streaming bandwidth for large I/O (per channel). */
    Bandwidth streamBandwidth = Bandwidth::gbps(16);
};

class BlockService : public SimObject
{
  public:
    using Params = BlockServiceParams;

    BlockService(Simulation &sim, std::string name, Params params = {});
    ~BlockService() override;

    /** Create a volume of @p capacity bytes. */
    Volume &createVolume(const std::string &name, Bytes capacity);

    /**
     * Submit @p io against @p vol. The request reaches the cluster
     * at io.submittedAt + requestDelay(io), so the caller may hand
     * it over at any tick in between: at submittedAt, or (across
     * partitions) once the request leg has elapsed. The completion
     * is posted to io.srcPartition when the data is durable (write)
     * or available at the guest server's NIC (read); a read with
     * wantCorruption set claims FabricCorrupt budget here, in
     * arrival order. Host-side costs are the caller's.
     */
    void submit(Volume &vol, BlockIo io);

    /** Modelled guest-server -> storage request-leg latency. */
    Tick
    requestDelay(const BlockIo &io) const
    {
        Bytes to_storage = io.write ? io.len + 64 : 64;
        return params_.networkLatency +
               networkBandwidth.transferTime(to_storage);
    }

    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writes() const { return writes_.value(); }

    std::uint64_t fabricCorruptions() const
    {
        return fabricCorruptions_.value();
    }

  private:
    /** Link bandwidth to the storage cluster. */
    static constexpr Bandwidth networkBandwidth = Bandwidth::gbps(100);
    /** Lognormal sigma of service times (tail heaviness). */
    static constexpr double serviceSigma = 0.25;

    /**
     * Consume one unit of injected FabricCorrupt budget. A read
     * that claims it completes with wire_corrupt set, modelling
     * corruption of its payload on the fabric between the storage
     * cluster and the guest server.
     */
    bool takeCorruption();
    /** SSD service time draw; the rng call order (lognormal, then
     *  gc chance) is part of the reproducibility contract. */
    Tick drawService(const BlockIo &io);
    /** Pick the earliest-free channel and occupy it. */
    Tick occupyChannel(Tick start, Tick service);
    /** Fault hook: arm request-loss / latency-spike budgets. */
    bool injectFault(const fault::FaultSpec &spec);

    Params params_;
    std::vector<std::unique_ptr<Volume>> volumes_;
    std::vector<Tick> channelFree_;
    /** Injected-fault budgets: the next N submissions are dropped
     *  (never complete) or delayed by delayExtra_. */
    std::uint64_t loseBudget_ = 0;
    std::uint64_t delayBudget_ = 0;
    std::uint64_t corruptBudget_ = 0;
    Tick delayExtra_ = 0;
    /** Registry-backed: accessors and exports read the same cell. */
    Counter &completed_;
    Counter &reads_;
    Counter &writes_;
    Counter &faultLost_;
    Counter &faultDelayed_;
    Counter &fabricCorruptions_;
    /** Cluster-side latency (submit to completion callback). */
    LatencyRecorder &serviceLatency_;
};

} // namespace cloud
} // namespace bmhive

#endif // BMHIVE_CLOUD_BLOCK_SERVICE_HH
