#include "harness/experiment.hh"

#include <algorithm>
#include <cmath>

#include "baselines/autotm.hh"
#include "baselines/capuchin.hh"
#include "baselines/ial.hh"
#include "baselines/memory_mode.hh"
#include "baselines/planned.hh"
#include "baselines/reference.hh"
#include "baselines/swapadvisor.hh"
#include "baselines/unified_memory.hh"
#include "baselines/vdnn.hh"
#include "common/logging.hh"
#include "common/percentile.hh"
#include "common/thread_pool.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"

namespace sentinel::harness {

core::RuntimeConfig
platformConfig(Platform p, std::uint64_t fast_bytes)
{
    return p == Platform::Optane
               ? core::RuntimeConfig::optane(fast_bytes)
               : core::RuntimeConfig::gpu(fast_bytes);
}

core::RuntimeConfig
platformConfig(Platform p, std::uint64_t fast_bytes, int tiers,
               std::uint64_t mid_bytes, double mid_bw)
{
    core::RuntimeConfig rc = platformConfig(p, fast_bytes);
    if (tiers == 1)
        rc.single_tier = true;
    else if (tiers >= 3)
        rc.insertMidTiers(tiers - 2, mid_bytes, mid_bw);
    return rc;
}

namespace {

/** Throw ConfigError naming @p field unless @p v lies in
 *  (0, kMaxFraction]; written so NaN fails too, since fractions are
 *  cast to integers. */
void
checkFraction(const char *field, double v)
{
    if (!(v > 0.0 && v <= kMaxFraction))
        throw ConfigError(strprintf("config: %s must lie in (0, %g] (got %g)",
                                    field, kMaxFraction, v));
}

} // namespace

std::uint64_t
fastTierBytes(const ExperimentConfig &cfg, std::uint64_t peak_bytes)
{
    if (cfg.fast_bytes != 0)
        return cfg.fast_bytes;
    checkFraction("fast_fraction", cfg.fast_fraction);
    return mem::roundUpToPages(static_cast<std::uint64_t>(
        static_cast<double>(peak_bytes) * cfg.fast_fraction));
}

const std::vector<std::string> &
cpuPolicies()
{
    static const std::vector<std::string> names = {
        "slow-only", "numa",   "planned",  "memory-mode",
        "ial",       "autotm", "sentinel", "fast-only",
    };
    return names;
}

const std::vector<std::string> &
gpuPolicies()
{
    static const std::vector<std::string> names = {
        "um", "vdnn", "autotm", "swapadvisor", "capuchin", "sentinel",
    };
    return names;
}

namespace {

bool
needsProfile(const std::string &policy)
{
    return policy == "autotm" || policy == "swapadvisor" ||
           policy == "capuchin" || policy == "sentinel";
}

bool
knownPolicy(const std::string &name)
{
    const auto &cpu = cpuPolicies();
    const auto &gpu = gpuPolicies();
    return name == "tf" || std::count(cpu.begin(), cpu.end(), name) ||
           std::count(gpu.begin(), gpu.end(), name);
}

} // namespace

std::unique_ptr<df::MemoryPolicy>
makePolicy(const std::string &name, const ExperimentConfig &cfg,
           std::uint64_t fast_bytes, const prof::ProfileDatabase *db)
{
    bool gpu = cfg.platform == Platform::Gpu;
    if (name == "fast-only" || name == "tf")
        return baselines::makeFastOnly();
    if (name == "slow-only")
        return baselines::makeSlowOnly();
    if (name == "numa")
        return baselines::makeFirstTouchNuma();
    if (name == "planned")
        return baselines::makePlanned();
    if (name == "memory-mode")
        return std::make_unique<baselines::MemoryModePolicy>(fast_bytes);
    if (name == "ial")
        return std::make_unique<baselines::IalPolicy>();
    if (name == "um")
        return std::make_unique<baselines::UnifiedMemoryPolicy>();
    if (name == "vdnn")
        return std::make_unique<baselines::VdnnPolicy>();
    if (name == "autotm")
        return std::make_unique<baselines::AutoTmPolicy>(*db, gpu);
    if (name == "swapadvisor")
        return std::make_unique<baselines::SwapAdvisorPolicy>(*db, gpu);
    if (name == "capuchin")
        return std::make_unique<baselines::CapuchinPolicy>(*db, gpu);
    SENTINEL_ASSERT(name == "sentinel",
                    "unknown policy '%s' got past validate()",
                    name.c_str());
    core::SentinelOptions opts = cfg.sentinel;
    opts.gpu_mode = gpu;
    if (cfg.planner == "interval")
        opts.layout_planner = core::LayoutPlanner::Interval;
    return std::make_unique<core::SentinelPolicy>(*db, opts);
}

namespace {

/** validate(), then build the model.  A name that cannot build
 *  (unknown, or a malformed synthetic:/llm: spec) is a rejected input,
 *  not an infeasible run: surface the registry's invalid_argument as
 *  ConfigError. */
df::Graph
validatedModel(const ExperimentConfig &cfg, const std::string &policy)
{
    validate(cfg, policy);
    try {
        return models::makeModel(cfg.model, cfg.batch);
    } catch (const std::invalid_argument &e) {
        throw ConfigError(
            strprintf("config: cannot build model: %s", e.what()));
    }
}

/** The tier chain of @p policy's cell for a model of @p peak bytes. */
core::RuntimeConfig
sizedPlatform(const ExperimentConfig &cfg, const std::string &policy,
              std::uint64_t peak)
{
    std::uint64_t fast_bytes = fastTierBytes(cfg, peak);
    // The fast-only reference gets a fast tier that holds everything.
    if (policy == "fast-only" && cfg.fast_bytes == 0)
        fast_bytes = mem::roundUpToPages(peak + (peak >> 2) +
                                         (64ull << 20));

    if (fast_bytes < mem::kPageSize)
        throw ConfigError(strprintf(
            "config: fast tier (%llu bytes) is smaller than one page "
            "(%llu); raise fast_bytes or fast_fraction",
            static_cast<unsigned long long>(fast_bytes),
            static_cast<unsigned long long>(mem::kPageSize)));
    if (policy == "sentinel" && cfg.sentinel.use_reserved_pool) {
        // The pool cap is what the policy itself would reserve; if it
        // rounds up to the whole tier nothing is left for long-lived
        // pages and the run degenerates.
        double frac = cfg.sentinel.rs_cap_fraction;
        std::uint64_t rs_cap = mem::roundUpToPages(
            static_cast<std::uint64_t>(
                static_cast<double>(fast_bytes) * frac));
        if (rs_cap >= fast_bytes)
            throw ConfigError(strprintf(
                "config: reserved short-lived pool cap (%llu bytes at "
                "rs_cap_fraction %g) would consume the whole fast tier "
                "(%llu bytes); raise fast_bytes or lower the fraction",
                static_cast<unsigned long long>(rs_cap), frac,
                static_cast<unsigned long long>(fast_bytes)));
    }

    // Middle-tier sizing: explicit bytes, or a multiple of the fast
    // tier.  A sub-page middle tier could never hold a staged page —
    // reject it instead of simulating a chain that silently degrades.
    std::uint64_t mid_bytes = 0;
    if (cfg.tiers >= 3) {
        mid_bytes = cfg.mid_bytes != 0
                        ? cfg.mid_bytes
                        : mem::roundUpToPages(static_cast<std::uint64_t>(
                              static_cast<double>(fast_bytes) *
                              cfg.mid_fraction));
        if (mid_bytes < mem::kPageSize)
            throw ConfigError(strprintf(
                "config: middle tier (%llu bytes) is smaller than one "
                "page (%llu); raise mid_bytes or mid_fraction",
                static_cast<unsigned long long>(mid_bytes),
                static_cast<unsigned long long>(mem::kPageSize)));
    }
    return platformConfig(cfg.platform, fast_bytes, cfg.tiers, mid_bytes,
                          cfg.mid_bw);
}

/** The preconditions of the assembly itself: everything validate()
 *  checks except model, batch and tier sizing. */
void
validateAssembly(const ExperimentConfig &cfg, const std::string &policy)
{
    if (!knownPolicy(policy))
        throw ConfigError(
            strprintf("config: unknown policy '%s'", policy.c_str()));
    if (cfg.steps <= 0)
        throw ConfigError(
            strprintf("config: steps must be positive (got %d)",
                      cfg.steps));
    if (cfg.warmup < 0 || cfg.warmup >= cfg.steps)
        throw ConfigError(strprintf(
            "config: warmup must lie in [0, steps) (warmup %d, steps %d)",
            cfg.warmup, cfg.steps));
    // The knob gates Sentinel's co-allocation only, but a bad value is
    // rejected for every policy.
    if (cfg.planner != "greedy" && cfg.planner != "interval")
        throw ConfigError(strprintf(
            "config: planner must be 'greedy' or 'interval' (got '%s')",
            cfg.planner.c_str()));
    // The range checks are written so NaN fails them too.
    if (policy == "sentinel" && cfg.sentinel.use_reserved_pool &&
        !(cfg.sentinel.rs_cap_fraction > 0.0 &&
          cfg.sentinel.rs_cap_fraction <= 1.0))
        throw ConfigError(strprintf(
            "config: sentinel.rs_cap_fraction must lie in (0, 1] "
            "(got %g)",
            cfg.sentinel.rs_cap_fraction));
    if (!cfg.chaos.empty()) {
        try {
            sim::FaultSpec::parse(cfg.chaos);
        } catch (const std::invalid_argument &e) {
            throw ConfigError(strprintf("config: %s", e.what()));
        }
    }
}

} // namespace

void
validate(const ExperimentConfig &cfg, const std::string &policy)
{
    validateAssembly(cfg, policy);
    if (cfg.batch <= 0)
        throw ConfigError(
            strprintf("config: batch must be positive (got %d)",
                      cfg.batch));
    if (cfg.tiers < 1 || cfg.tiers > static_cast<int>(mem::kMaxTiers))
        throw ConfigError(strprintf(
            "config: tiers must lie in [1, %u] (got %d)", mem::kMaxTiers,
            cfg.tiers));
    if (cfg.tiers >= 3 && cfg.mid_bytes == 0)
        checkFraction("mid_fraction", cfg.mid_fraction);
    if (!(std::isfinite(cfg.mid_bw) && cfg.mid_bw >= 0.0))
        throw ConfigError(strprintf(
            "config: mid_bw must be finite and non-negative (got %g)",
            cfg.mid_bw));
}

Run::Run(const ExperimentConfig &cfg, const std::string &policy,
         const prof::ProfileDatabase *profile)
    : cfg_(cfg), policy_name_(policy),
      graph_(validatedModel(cfg, policy)),
      rc_(sizedPlatform(cfg, policy, graph_.peakMemoryBytes()))
{
    if (profile && (profile->numTensors() != graph_.numTensors() ||
                    profile->numLayers() != graph_.numLayers()))
        throw ConfigError(strprintf(
            "config: profile (%zu tensors, %d layers) does not match %s "
            "at batch %d",
            profile->numTensors(), profile->numLayers(),
            cfg.model.c_str(), cfg.batch));
    assemble(profile);
}

Run::Run(df::Graph graph, core::RuntimeConfig platform,
         const ExperimentConfig &cfg, const std::string &policy)
    : cfg_(cfg), policy_name_(policy), graph_(std::move(graph)),
      rc_(std::move(platform))
{
    validateAssembly(cfg, policy);
    SENTINEL_ASSERT(graph_.finalized(), "graph must be finalized");
    assemble(nullptr);
}

void
Run::assemble(const prof::ProfileDatabase *profile)
{
    if (policy_name_ == "vdnn" && !baselines::VdnnPolicy::supports(graph_))
        return;

    if (needsProfile(policy_name_) && !profile) {
        profile_ = core::profileStep(graph_, rc_);
        profile = &profile_->db;
    }
    policy_ = makePolicy(policy_name_, cfg_, rc_.fast.capacity, profile);
    sentinel_ = dynamic_cast<core::SentinelPolicy *>(policy_.get());
    hm_ = std::make_unique<mem::HeterogeneousMemory>(rc_.tierChain(),
                                                     rc_.linkChain());
    executor_ = std::make_unique<df::Executor>(graph_, *hm_, rc_.exec,
                                               *policy_);

    // The profiling step above stays unobserved, so an exported
    // timeline covers one monotonic training clock.
    if (cfg_.telemetry) {
        hm_->setTelemetry(cfg_.telemetry);
        executor_->setTelemetry(cfg_.telemetry);
        if (sentinel_)
            sentinel_->setTelemetry(cfg_.telemetry);
    }
    if (cfg_.attribution) {
        executor_->setAttribution(cfg_.attribution);
        hm_->setAttribution(cfg_.attribution);
    }
    if (cfg_.audit && sentinel_)
        sentinel_->setAudit(cfg_.audit);

    // Chaos mode: the injector perturbs only the training run.  The
    // profile was taken on the healthy system, so a fault spec starting
    // at step k makes the profile stale from k onward.
    if (!cfg_.chaos.empty()) {
        sim::FaultSpec spec = sim::FaultSpec::parse(cfg_.chaos);
        spec.seed = cfg_.chaos_seed;
        executor_->setFaultInjector(&injector_.emplace(std::move(spec)));
    }
}

StepTrace
Run::finish()
{
    StepTrace trace;
    Metrics &m = trace.metrics;
    m.policy = policy_name_;
    m.model = cfg_.model;
    m.batch = cfg_.batch;
    if (!supported()) {
        m.supported = false;
        m.feasible = false;
        return trace;
    }

    try {
        trace.steps = executor_->run(cfg_.steps);
    } catch (const std::runtime_error &) {
        // Out of memory (both tiers full): the configuration is
        // infeasible for this policy.
        m.feasible = false;
        trace.steps.clear();
        return trace;
    }

    int measured = 0;
    double slow_traffic = 0.0;
    std::vector<double> step_ms;
    for (const auto &s : trace.steps) {
        if (s.step < cfg_.warmup)
            continue;
        ++measured;
        step_ms.push_back(toMillis(s.step_time));
        m.step_time_ms += toMillis(s.step_time);
        m.exposed_ms += toMillis(s.exposed_migration);
        m.recompute_ms += toMillis(s.recompute_time);
        m.fault_ms += toMillis(s.fault_overhead);
        m.promoted_mb += static_cast<double>(s.promoted_bytes) / 1e6;
        m.demoted_mb += static_cast<double>(s.demoted_bytes) / 1e6;
        m.bytes_fast_mb += static_cast<double>(s.bytes_fast) / 1e6;
        m.bytes_slow_mb += static_cast<double>(s.bytes_slow) / 1e6;
        m.peak_fast_mb = std::max(
            m.peak_fast_mb, static_cast<double>(s.peak_fast_used) / 1e6);
        slow_traffic += static_cast<double>(s.bytes_slow);
    }
    SENTINEL_ASSERT(measured > 0, "no measured steps (warmup too long)");
    PercentileSummary pct = PercentileSummary::of(std::move(step_ms));
    m.step_p50_ms = pct.p50;
    m.step_p95_ms = pct.p95;
    m.step_p99_ms = pct.p99;
    double n = static_cast<double>(measured);
    m.step_time_ms /= n;
    m.exposed_ms /= n;
    m.recompute_ms /= n;
    m.fault_ms /= n;
    m.promoted_mb /= n;
    m.demoted_mb /= n;
    m.bytes_fast_mb /= n;
    m.bytes_slow_mb /= n;
    m.throughput =
        m.step_time_ms > 0.0 ? cfg_.batch / (m.step_time_ms / 1e3) : 0.0;

    // GPU residency rule: compute must be fed from device memory.
    // A small page-in slack is tolerated (real runtimes stage a few
    // buffers through pinned host memory); a steady stream of host
    // accesses marks the batch infeasible.  UM is exempt: it pages on
    // demand by design.
    if (cfg_.platform == Platform::Gpu && policy_name_ != "um") {
        double per_step = slow_traffic / n;
        double total =
            (m.bytes_fast_mb + m.bytes_slow_mb) * 1e6;
        m.feasible = per_step < std::max(16e6, 0.02 * total);
    }

    if (auto *pp = dynamic_cast<baselines::PlannedPolicy *>(policy_.get()))
        m.layout_mb = static_cast<double>(pp->footprint()) / 1e6;
    if (core::SentinelPolicy *sp = sentinel_) {
        m.layout_mb =
            static_cast<double>(sp->layoutFootprint()) / 1e6;
        m.mil = sp->migrationPlan().mil;
        m.case3_events = sp->case3Events();
        m.trial_steps = sp->trialStepsUsed();
        m.pool_mb = static_cast<double>(sp->reservedPoolBytes()) / 1e6;
        m.divergence_events = sp->divergenceEvents();
        m.replans = sp->replans();
        m.trial_decided = sp->trialDecided();
        m.trial_state = sp->trialStateName();
        if (!m.trial_decided)
            SENTINEL_WARN("%s run ended mid test-and-trial (state %s); "
                          "stall mode left at trial value %d",
                          m.policy.c_str(), m.trial_state.c_str(),
                          sp->stallModeChosen() ? 1 : 0);
    }
    return trace;
}

Metrics
runExperiment(const ExperimentConfig &cfg, const std::string &policy)
{
    return Run(cfg, policy).finish().metrics;
}

StepTrace
runExperimentSteps(const ExperimentConfig &cfg, const std::string &policy)
{
    return Run(cfg, policy).finish();
}

std::vector<Metrics>
runSweep(const std::vector<SweepCell> &cells, int jobs)
{
    std::vector<Metrics> out(cells.size());
    std::vector<std::size_t> concurrent;
    std::vector<std::size_t> serial;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        bool shared = cells[i].cfg.telemetry ||
                      cells[i].cfg.attribution || cells[i].cfg.audit;
        (shared ? serial : concurrent).push_back(i);
    }
    parallelFor(concurrent.size(), jobs, [&](std::size_t k) {
        std::size_t i = concurrent[k];
        out[i] = runExperiment(cells[i].cfg, cells[i].policy);
    });
    for (std::size_t i : serial)
        out[i] = runExperiment(cells[i].cfg, cells[i].policy);
    return out;
}

int
maxBatchSearch(const std::string &model, const std::string &policy,
               std::uint64_t fast_bytes, int cap, int jobs)
{
    auto feasible = [&](int batch) {
        if (policy == "tf") {
            // Plain TensorFlow: everything must fit in device memory.
            df::Graph g = models::makeModel(model, batch);
            return g.peakMemoryBytes() <= fast_bytes;
        }
        ExperimentConfig cfg;
        cfg.model = model;
        cfg.batch = batch;
        cfg.platform = Platform::Gpu;
        cfg.fast_bytes = fast_bytes;
        cfg.steps = 3;
        cfg.warmup = 2;
        Metrics m = runExperiment(cfg, policy);
        return m.supported && m.feasible;
    };

    int lo;
    int hi;
    if (jobs > 1) {
        // Parallel probe: evaluate the whole power-of-two ladder
        // (1, 2, 4, ... <= cap) concurrently, then read off the same
        // bracket the serial probe would have found.  A few rungs above
        // the answer are wasted work; on a multi-core host the ladder
        // finishes in roughly the time of its slowest rung.
        std::vector<int> ladder;
        for (int b = 1; b <= cap; b *= 2)
            ladder.push_back(b);
        std::vector<char> ok(ladder.size(), 0);
        parallelFor(ladder.size(), jobs,
                    [&](std::size_t i) { ok[i] = feasible(ladder[i]); });
        if (!ok[0])
            return 0;
        std::size_t k = 1;
        while (k < ladder.size() && ok[k])
            ++k;
        lo = ladder[k - 1];
        hi = k < ladder.size() ? ladder[k] : cap + 1;
    } else {
        if (!feasible(1))
            return 0;
        // Exponential probe, then binary search.
        lo = 1;
        hi = 2;
        while (hi <= cap && feasible(hi)) {
            lo = hi;
            hi *= 2;
        }
        hi = std::min(hi, cap + 1);
    }
    while (lo + 1 < hi) {
        int mid = lo + (hi - lo) / 2;
        if (feasible(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace sentinel::harness
