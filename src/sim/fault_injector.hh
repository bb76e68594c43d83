/**
 * @file
 * Deterministic, seeded fault injection ("chaos mode").
 *
 * Sentinel's whole design leans on one profiled step staying
 * representative of the rest of training; the online-guidance
 * literature (arXiv:2110.02150, arXiv:2302.09468) shows that static
 * profiles go stale.  This module manufactures exactly that staleness,
 * on purpose and reproducibly, so the divergence-recovery machinery in
 * the policy stack can be exercised and regression-tested:
 *
 *  - `bw`:     degrade a migration channel's bandwidth from a given
 *              step onward (link contention, thermal throttling);
 *  - `stall`:  block a migration channel for a fixed duration at one
 *              step's start (a hiccup: page-migration daemon descheduled,
 *              PCIe reset);
 *  - `shrink`: reduce a tier's effective capacity from a step onward
 *              (a co-tenant claims memory); `tier=` selects which tier
 *              of the chain (default 0 = fast);
 *  - `jitter`: perturb per-layer compute times with a seeded
 *              per-(step, layer) multiplier (input-dependent kernels);
 *  - `drift`:  scale per-op memory traffic (batch/shape drift away
 *              from the profiled step).
 *
 * Everything is a pure function of (spec, seed, step, layer) — no
 * global RNG state — so a chaos run is bit-identical across repeats
 * and across serial/parallel sweep harnesses.
 */

#ifndef SENTINEL_SIM_FAULT_INJECTOR_HH
#define SENTINEL_SIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace sentinel::sim {

enum class FaultKind : std::uint8_t {
    BwDegrade,      ///< channel bandwidth *= factor, from `step` onward
    ChannelStall,   ///< channel blocked for `duration` at `step` begin
    CapacityShrink, ///< fast capacity *= factor, from `step` onward
    ComputeJitter,  ///< layer compute *= U[1-amp, 1+amp], from `step`
    TrafficDrift,   ///< per-op traffic *= factor, from `step` onward
};

/** Which migration channel a bw/stall fault applies to. */
enum class ChannelSel : std::uint8_t { Promote, Demote, Both };

/** Longest tier chain a shrink fault can address (mem::kMaxTiers). */
constexpr unsigned kMaxFaultTiers = 8;

/** One scheduled fault. */
struct FaultEvent {
    FaultKind kind = FaultKind::BwDegrade;
    int step = 0;                          ///< first step the fault is live
    ChannelSel channel = ChannelSel::Both; ///< bw / stall only
    double factor = 1.0;                   ///< bw / shrink / drift scale
    double amplitude = 0.0;                ///< jitter half-width
    Tick duration = 0;                     ///< stall length
    unsigned tier = 0;                     ///< shrink target tier index
};

/**
 * A parsed `--chaos` specification.
 *
 * Grammar (clauses separated by ';', keys by ','):
 *
 *     bw:step=6,factor=0.5[,ch=promote|demote|both]
 *     stall:step=7,ms=2[,ch=...]
 *     shrink:step=6,factor=0.7[,tier=1]
 *     jitter:step=3,amp=0.2
 *     drift:step=5,factor=1.3
 *
 * Unknown clause or key names are rejected (they are experiment
 * configuration, and a typo must not silently run the wrong chaos).
 */
struct FaultSpec {
    std::vector<FaultEvent> events;
    std::uint64_t seed = 0x5e97195eull;

    /** Parse @p text; throws std::invalid_argument on malformed input. */
    static FaultSpec parse(const std::string &text);
};

/** One-shot channel outages collected for the current step. */
struct StepStalls {
    Tick promote = 0;
    Tick demote = 0;
};

class FaultInjector
{
  public:
    explicit FaultInjector(FaultSpec spec);

    /**
     * Fold the schedule up to @p step.  Must be called once per step,
     * at its start, before querying any of the accessors below.
     */
    void beginStep(int step);

    int currentStep() const { return step_; }

    /** True once any event's step has been reached. */
    bool anyActive() const { return any_active_; }

    // --- Persistent modifiers (folded over all live events) ------------

    /** Multiplier on the promote channel's profiled bandwidth. */
    double promoteBwScale() const { return promote_scale_; }
    /** Multiplier on the demote channel's profiled bandwidth. */
    double demoteBwScale() const { return demote_scale_; }
    /** Multiplier on the fast tier's configured capacity. */
    double fastCapacityScale() const { return capacityScale(0); }
    /** Multiplier on @p tier's configured capacity (1.0 if untouched). */
    double
    capacityScale(unsigned tier) const
    {
        return tier < kMaxFaultTiers ? capacity_scales_[tier] : 1.0;
    }
    /** Multiplier on every op's memory traffic (batch drift). */
    double trafficScale() const { return traffic_scale_; }

    // --- Per-step effects ------------------------------------------------

    /** Channel outages that begin exactly at the current step. */
    const StepStalls &stepStalls() const { return stalls_; }

    /**
     * Compute-time multiplier for @p layer at the current step.  A pure
     * hash of (seed, step, layer): query order cannot perturb it.
     */
    double computeScale(int layer) const;

    const FaultSpec &spec() const { return spec_; }

  private:
    FaultSpec spec_;
    int step_ = -1;
    bool any_active_ = false;
    double promote_scale_ = 1.0;
    double demote_scale_ = 1.0;
    double capacity_scales_[kMaxFaultTiers] = { 1.0, 1.0, 1.0, 1.0,
                                                1.0, 1.0, 1.0, 1.0 };
    double traffic_scale_ = 1.0;
    double jitter_amp_ = 0.0;
    StepStalls stalls_;
};

} // namespace sentinel::sim

#endif // SENTINEL_SIM_FAULT_INJECTOR_HH
