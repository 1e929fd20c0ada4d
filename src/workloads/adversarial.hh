/**
 * @file
 * AdversarialGuest: a hostile tenant driver model. Instead of a
 * well-behaved virtio driver it fires a seeded, deterministic
 * stream of attacks at the guest-visible surface of its own
 * IO-Bond functions — out-of-range doorbells, avail-index jumps,
 * malformed descriptor chains, register and config-space abuse.
 *
 * Every attack must be *contained*: classified as a GuestFault,
 * counted, and at worst costing the attacker its own device. The
 * hostile_test suite and bench_hostile drive this model to verify
 * the bridge never panics and neighbours keep their throughput.
 */

#ifndef BMHIVE_WORKLOADS_ADVERSARIAL_HH
#define BMHIVE_WORKLOADS_ADVERSARIAL_HH

#include <cstdint>
#include <optional>
#include <string>

#include "base/random.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "hw/compute_board.hh"
#include "sim/sim_object.hh"
#include "virtio/vring.hh"

namespace bmhive {
namespace workloads {

struct AdversarialGuestParams
{
    /** Attack-stream seed; the sequence is a pure function of it. */
    std::uint64_t seed = 1;
    /** Gap between attack steps. */
    Tick period = usToTicks(0.5);
    /** Stop after this many steps (0 = run until stop()). */
    std::uint64_t iterations = 0;
};

/**
 * Drives attacks against the PCI functions on @p board (the
 * standard bm-guest slots: net at 3, blk at 4, console at 5).
 * The attacker only ever touches its own board's bus and memory —
 * the isolation claim under test is that this is ALL it can touch.
 */
class AdversarialGuest : public SimObject
{
  public:
    AdversarialGuest(Simulation &sim, std::string name,
                     hw::ComputeBoard &board,
                     AdversarialGuestParams params = {});

    /** Begin the attack stream (schedules the first step). */
    void start();
    void stop() { stopped_ = true; }

    std::uint64_t attacks() const { return attacks_.value(); }
    std::uint64_t steps() const { return steps_; }
    bool done() const { return stopped_; }

    /** Distinct attack shapes in the catalogue. */
    static constexpr unsigned attackKinds = 15;

    /** Run one specific attack immediately (tests). */
    void attack(unsigned kind);

  private:
    /** Programmed, decoded BAR0 base of @p slot; 0 if absent. */
    Addr bar0(int slot);

    /** The rings the (honest) driver programmed on queue @p q:
     *  descriptor table and avail ring (the attacker never touches
     *  the used ring, so its address is left 0); nullopt unless
     *  enabled, sized and inside this board's memory. */
    std::optional<virtio::VringLayout> ringInfo(Addr bar, unsigned q);

    /** Scribble one descriptor table entry (bounds-checked). */
    void scribbleDesc(const virtio::VringLayout &ring, std::uint16_t i,
                      std::uint64_t addr, std::uint32_t len,
                      std::uint16_t flags, std::uint16_t next);
    /** Publish @p head on the avail ring and ring the doorbell. */
    void publish(Addr bar, const virtio::VringLayout &ring, unsigned q,
                 std::uint16_t head);

    void step();

    hw::ComputeBoard &board_;
    AdversarialGuestParams params_;
    Rng rng_;
    bool stopped_ = false;
    std::uint64_t steps_ = 0;
    Counter &attacks_;
};

} // namespace workloads
} // namespace bmhive

#endif // BMHIVE_WORKLOADS_ADVERSARIAL_HH
