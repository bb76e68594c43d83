/**
 * @file
 * The experiment harness shared by every benchmark and example.
 *
 * One cell of a paper table/figure is assembled in one fixed order:
 * validate() the configuration, then a Run builds the model, sizes the
 * tier chain, profiles one step (when the policy needs it), and
 * constructs the policy, memory system, and executor; Run::finish()
 * simulates N training steps and returns averaged metrics.
 *
 * Policy names:
 *   fast-only, slow-only, numa, memory-mode, ial, autotm, swapadvisor,
 *   capuchin, sentinel            (CPU / Optane platform)
 *   um, vdnn, autotm, swapadvisor, capuchin, sentinel, tf
 *                                 (GPU platform; tensor residency is
 *                                  strict — an access served from host
 *                                  memory marks the run infeasible)
 */

#ifndef SENTINEL_HARNESS_EXPERIMENT_HH
#define SENTINEL_HARNESS_EXPERIMENT_HH

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.hh"
#include "dataflow/graph.hh"
#include "dataflow/step_stats.hh"
#include "sim/fault_injector.hh"
#include "telemetry/attribution.hh"
#include "telemetry/audit.hh"

namespace sentinel::harness {

/**
 * A configuration that violates a harness precondition (unknown
 * policy, fast tier smaller than one page or than the reserved
 * short-lived pool, warmup >= steps, ...).  Deliberately NOT a
 * std::runtime_error: the run loop maps runtime_error to
 * "infeasible", and the fuzzer needs bad inputs distinguishable from
 * both infeasibility and invariant violations.
 */
class ConfigError : public std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

enum class Platform {
    Optane, ///< DDR4 (fast) + Optane DC PMM (slow), Table II left
    Gpu,    ///< V100 HBM (fast) + host memory over PCIe (slow)
};

struct ExperimentConfig {
    std::string model;
    int batch = 32;
    Platform platform = Platform::Optane;

    /** Fast-tier size as a fraction of the model's peak memory
     *  (ignored when fast_bytes != 0).  The paper's default is 20%. */
    double fast_fraction = 0.2;
    std::uint64_t fast_bytes = 0;

    /**
     * Memory-tier chain length.  2 (default) is the paper's two-tier
     * system; 3 inserts a middle tier between fast and slow (the
     * HBM + DRAM + NVMe shape the staged-prefetch path targets); 1 is
     * a fast-only chain with no migration at all.  Longer chains add
     * further interpolated middle tiers, up to mem::kMaxTiers.
     */
    int tiers = 2;

    /** Middle-tier capacity in bytes; 0 derives mid_fraction x the
     *  fast tier's size.  Only read when tiers >= 3.  Sub-page values
     *  (explicit or derived) are a ConfigError. */
    std::uint64_t mid_bytes = 0;

    /** Middle-tier capacity as a multiple of the fast tier (used when
     *  mid_bytes == 0): the staging buffer is a few times the tier it
     *  feeds. */
    double mid_fraction = 4.0;

    /** Middle-tier bandwidth override in bytes/s, applied to the mid
     *  tiers and their far links (see RuntimeConfig::insertMidTiers);
     *  0 interpolates between the fast and slow endpoints. */
    double mid_bw = 0.0;

    int steps = 9;
    int warmup = 6; ///< steps excluded from the averages (cold start
                    ///< plus Sentinel's test-and-trial steps)

    /** Sentinel knobs (ablations, forced MIL for Fig. 5). */
    core::SentinelOptions sentinel;

    /**
     * Static-layout solver for Sentinel's co-allocation step:
     * "greedy" (the paper's per-class packing, the default) or
     * "interval" (offline interval-graph offset assignment,
     * src/plan/).  Mapped onto sentinel.layout_planner; any other
     * value is a ConfigError.
     */
    std::string planner = "greedy";

    /**
     * Fault-injection spec (see sim::FaultSpec::parse); empty = no
     * chaos.  Faults apply to the *training* run only — the profiling
     * pre-step sees the healthy system, which is exactly how a profile
     * goes stale in the wild.
     */
    std::string chaos;
    std::uint64_t chaos_seed = 0x5e97195eull;

    /**
     * Optional caller-owned telemetry session.  When set, the training
     * executor, memory system, and (for the sentinel policy) the
     * policy itself emit structured events into it; the profiling
     * pre-step is left untraced so the exported timeline covers one
     * monotonic training clock.
     */
    telemetry::Session *telemetry = nullptr;

    /**
     * Optional caller-owned stall-attribution engine.  When set, the
     * training executor and memory system report every clock advance
     * and migration to it; after the run the engine holds the exact
     * per-layer / per-interval / per-tensor decomposition of the
     * StepStats totals (see telemetry/attribution.hh).
     */
    telemetry::AttributionEngine *attribution = nullptr;

    /**
     * Optional caller-owned decision audit log, recorded by the
     * sentinel policy (other policies make no plan-level decisions and
     * leave it empty).
     */
    telemetry::AuditLog *audit = nullptr;
};

struct Metrics {
    std::string policy;
    std::string model;
    int batch = 0;

    bool supported = true; ///< false: policy cannot run this graph
    bool feasible = true;  ///< GPU: every access served from device

    double step_time_ms = 0.0;
    /** Step-time percentiles over the measured steps (nearest-rank,
     *  common/percentile.hh) — the tail a co-located tenant feels. */
    double step_p50_ms = 0.0;
    double step_p95_ms = 0.0;
    double step_p99_ms = 0.0;
    double throughput = 0.0; ///< samples / second
    double exposed_ms = 0.0;
    double recompute_ms = 0.0;
    double fault_ms = 0.0;
    double promoted_mb = 0.0; ///< per step
    double demoted_mb = 0.0;
    double bytes_fast_mb = 0.0;
    double bytes_slow_mb = 0.0;
    double peak_fast_mb = 0.0;

    /** Static-layout footprint of planning policies (sentinel: the
     *  co-allocation region high-water; planned: the offline plan's
     *  high-water); zero for layout-free policies.  The bench_plan
     *  peak-footprint-vs-plan column. */
    double layout_mb = 0.0;

    // Sentinel-specific (zero for other policies).
    int mil = 0;
    int case3_events = 0;
    int trial_steps = 0;
    double pool_mb = 0.0;
    int divergence_events = 0;   ///< monitor-flagged steps
    int replans = 0;             ///< mid-training re-plans
    bool trial_decided = true;   ///< false: run ended mid test-and-trial
    std::string trial_state = "idle";

    double
    migrated_mb() const
    {
        return promoted_mb + demoted_mb;
    }
};

/** Platform preset with the fast tier sized to @p fast_bytes. */
core::RuntimeConfig platformConfig(Platform p, std::uint64_t fast_bytes);

/**
 * Platform preset extended to an N-tier chain: @p tiers total tiers
 * (1 = fast only, 2 = the classic preset, >= 3 inserts middle tiers
 * of @p mid_bytes each, bandwidth-overridden by @p mid_bw when > 0).
 */
core::RuntimeConfig platformConfig(Platform p, std::uint64_t fast_bytes,
                                   int tiers, std::uint64_t mid_bytes,
                                   double mid_bw);

/**
 * Fast-tier size of @p cfg for a model whose peak memory is
 * @p peak_bytes: cfg.fast_bytes when set, else cfg.fast_fraction of
 * the peak rounded up to whole pages.  Throws ConfigError when the
 * fraction is needed and is not a finite positive number.
 */
std::uint64_t fastTierBytes(const ExperimentConfig &cfg,
                            std::uint64_t peak_bytes);

/** All CPU-platform policy names, in the paper's comparison order. */
const std::vector<std::string> &cpuPolicies();
/** All GPU-platform policy names (Fig. 12 order). */
const std::vector<std::string> &gpuPolicies();

/**
 * Throw ConfigError unless @p policy under @p cfg passes every
 * precondition decidable before the model is built (policy name,
 * batch, steps/warmup, planner, tier knobs, Sentinel's pool fraction).
 * Run checks the model-dependent rest: the model name and the sized
 * tiers.
 */
void validate(const ExperimentConfig &cfg, const std::string &policy);

/** A cell's metrics plus its raw per-step stats (the chaos report
 *  needs the step-time trajectory around each fault).  `steps` is
 *  empty when the run was unsupported or died infeasible. */
struct StepTrace {
    Metrics metrics;
    std::vector<df::StepStats> steps;
};

/**
 * One assembled (model, batch, platform, policy) cell.  The
 * constructor validates @p cfg, builds the model, sizes the tier chain
 * (fast-only with an unsized tier gets one that holds everything),
 * profiles one step when the policy is profile-driven, constructs the
 * policy, memory system, and executor, and attaches cfg's observers
 * and chaos injector; a rejected configuration throws ConfigError.
 * finish() trains cfg.steps steps and reduces them; callers that drive
 * the executor themselves use executor() instead.  The executor points
 * into the Run, so a Run is never copied or moved.
 */
class Run
{
  public:
    /** @p profile, when given, stands in for the profiling step; it
     *  must outlive the Run and match the model (else ConfigError). */
    Run(const ExperimentConfig &cfg, const std::string &policy,
        const prof::ProfileDatabase *profile = nullptr);
    Run(const Run &) = delete;
    Run &operator=(const Run &) = delete;

    const df::Graph &graph() const { return graph_; }
    /** The sized platform the memory system was built from. */
    const core::RuntimeConfig &platform() const { return rc_; }
    /** False when the policy cannot run this graph (vDNN off a CNN);
     *  hm() and executor() exist only when true. */
    bool supported() const { return executor_ != nullptr; }
    mem::HeterogeneousMemory &hm() { return *hm_; }
    df::Executor &executor() { return *executor_; }
    /** The Sentinel policy, or null for every other policy. */
    core::SentinelPolicy *sentinel() const { return sentinel_; }
    /** The profiling step's result, or null when none ran. */
    const prof::ProfileResult *
    profile() const
    {
        return profile_ ? &*profile_ : nullptr;
    }

    /** Train cfg.steps steps and reduce the measured ones.  An
     *  out-of-memory run returns feasible = false and no steps. */
    StepTrace finish();

  private:
    ExperimentConfig cfg_;
    std::string policy_name_;
    df::Graph graph_;
    core::RuntimeConfig rc_;
    std::optional<prof::ProfileResult> profile_;
    std::unique_ptr<df::MemoryPolicy> policy_;
    core::SentinelPolicy *sentinel_ = nullptr;
    std::unique_ptr<mem::HeterogeneousMemory> hm_;
    std::optional<sim::FaultInjector> injector_;
    std::unique_ptr<df::Executor> executor_;
};

/** Run one cell: `Run(cfg, policy).finish().metrics`.  Throws
 *  ConfigError when the configuration violates a harness precondition
 *  (see ConfigError); infeasible-but-valid runs instead return metrics
 *  with feasible = false. */
Metrics runExperiment(const ExperimentConfig &cfg,
                      const std::string &policy);

/** `Run(cfg, policy).finish()`. */
StepTrace runExperimentSteps(const ExperimentConfig &cfg,
                             const std::string &policy);

/** One cell of a figure/table sweep: a configuration plus a policy. */
struct SweepCell {
    ExperimentConfig cfg;
    std::string policy;
};

/**
 * Run every cell, up to @p jobs at a time.  Results are input-ordered
 * (out[i] belongs to cells[i]) and byte-identical for any @p jobs.
 * Cells carrying a telemetry session, attribution engine, or audit log
 * are run serially, after the parallel batch.
 */
std::vector<Metrics> runSweep(const std::vector<SweepCell> &cells,
                              int jobs);

/**
 * Largest batch (<= @p cap) the policy can train with @p fast_bytes of
 * device memory (Table V).  Feasibility = the steady-state step serves
 * every access from device memory and nothing OOMs.
 *
 * With @p jobs > 1 the exponential probe evaluates the whole
 * power-of-two ladder concurrently; the binary-search refinement (an
 * inherently sequential chain) then runs serially.  The returned batch
 * is identical for any jobs value.
 */
int maxBatchSearch(const std::string &model, const std::string &policy,
                   std::uint64_t fast_bytes, int cap = 2048, int jobs = 1);

} // namespace sentinel::harness

#endif // SENTINEL_HARNESS_EXPERIMENT_HH
