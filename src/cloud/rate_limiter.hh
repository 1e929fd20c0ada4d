/**
 * @file
 * Composite rate limiters matching the cloud's per-instance limits
 * (paper section 4.1): network limited in packets/s AND bits/s,
 * storage limited in IOPS AND bytes/s. A request must obtain
 * tokens from both buckets; the pacing delay is the later of the
 * two. Limits can be lifted (paper section 4.3 "unrestricted"
 * experiments).
 */

#ifndef BMHIVE_CLOUD_RATE_LIMITER_HH
#define BMHIVE_CLOUD_RATE_LIMITER_HH

#include "base/paper_constants.hh"
#include "base/token_bucket.hh"
#include "base/units.hh"

namespace bmhive {
namespace cloud {

/**
 * Two-dimensional token-bucket limiter: operations/s plus bytes/s.
 */
class DualRateLimiter
{
  public:
    /**
     * @param ops_per_sec   0 = unlimited
     * @param bytes_per_sec 0 = unlimited
     * @param burst_ops     bucket depth in operations
     * @param burst_bytes   bucket depth in bytes
     */
    DualRateLimiter(double ops_per_sec, double bytes_per_sec,
                    double burst_ops, double burst_bytes)
        : ops_(ops_per_sec, burst_ops),
          bytes_(bytes_per_sec, burst_bytes) {}

    static DualRateLimiter
    unlimited()
    {
        return DualRateLimiter(0, 0, 0, 0);
    }

    /**
     * Earliest tick at which one operation of @p len bytes may
     * proceed; consumes the tokens (pacing semantics: the caller
     * must delay the operation until the returned tick).
     */
    Tick
    admit(Tick now, Bytes len)
    {
        Tick t_ops = ops_.nextAvailable(now, 1.0);
        Tick t_bytes = bytes_.nextAvailable(now, double(len));
        Tick t = t_ops > t_bytes ? t_ops : t_bytes;
        ops_.forceConsume(t, 1.0);
        bytes_.forceConsume(t, double(len));
        return t;
    }

    bool limited() const { return ops_.limited() || bytes_.limited(); }

  private:
    TokenBucket ops_;
    TokenBucket bytes_;
};

/** The paper's published instance limits (section 4.1 / 4.3). */
struct InstanceLimits
{
    /** Network: 4M PPS, 10 Gbit/s. */
    static DualRateLimiter
    cloudNetwork()
    {
        return DualRateLimiter(paper::netLimitPps,
                               paper::netLimitGbps * 1e9 / 8.0, 8.0e3,
                               1.25e6);
    }

    /** Storage: 25K IOPS, 300 MB/s. */
    static DualRateLimiter
    cloudStorage()
    {
        return DualRateLimiter(paper::storageLimitIops,
                               paper::storageLimitBytesPerSec, 256,
                               4.0e6);
    }
};

} // namespace cloud
} // namespace bmhive

#endif // BMHIVE_CLOUD_RATE_LIMITER_HH
