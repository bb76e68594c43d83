/**
 * @file
 * The public entry point: profile a model once, then train it under
 * Sentinel on a heterogeneous memory system.
 *
 * Mirrors the paper's usage: the user wraps training with
 * start_profile()/end_profile() and annotates layers with add_layer();
 * here the Graph already carries layer annotations, so the facade
 * reduces to "construct, train".
 *
 *     auto graph = models::makeModel("resnet32", 32);
 *     core::Runtime rt(std::move(graph), core::RuntimeConfig::optane());
 *     auto stats = rt.train(20);
 */

#ifndef SENTINEL_CORE_RUNTIME_HH
#define SENTINEL_CORE_RUNTIME_HH

#include <memory>
#include <optional>
#include <vector>

#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"
#include "dataflow/graph.hh"
#include "mem/hm.hh"
#include "profile/profiler.hh"
#include "telemetry/session.hh"

namespace sentinel::core {

struct RuntimeConfig {
    mem::TierParams fast;
    mem::TierParams slow;
    mem::MigrationParams migration;
    df::ExecParams exec;
    prof::ProfilerOptions profiler;
    SentinelOptions sentinel;

    /**
     * Middle tiers between fast and slow, ordered fast-to-slow; empty
     * = the classic two-tier system.  insertMidTiers() fills this with
     * geometrically interpolated parameters.
     */
    std::vector<mem::TierParams> mids;

    /**
     * Per-link migration parameters; entry i drives the link between
     * chain tiers i and i+1.  Empty = every link reuses `migration`;
     * when set, size must be mids.size() + 1.
     */
    std::vector<mem::MigrationParams> links;

    /** Single-tier chain: only the fast tier exists, no links, no
     *  migration.  `mids` must be empty. */
    bool single_tier = false;

    /** The ordered tier chain ([fast, mids..., slow]) the memory
     *  system consumes. */
    std::vector<mem::TierParams> tierChain() const;

    /** Per-link migration parameters matching tierChain(). */
    std::vector<mem::MigrationParams> linkChain() const;

    /**
     * Insert @p count middle tiers of @p bytes_each between fast and
     * slow.  Each mid's bandwidth/latency interpolates geometrically
     * between the fast and slow endpoints by chain position; when
     * @p bw_override > 0 it replaces every mid's read/write bandwidth
     * and the bandwidth of every link below the first mid (the far
     * legs a staged prefetch crosses early).  Link 0 (fast <-> first
     * mid) keeps the preset `migration` channel.
     */
    void insertMidTiers(int count, std::uint64_t bytes_each,
                        double bw_override = 0.0);

    /**
     * Structured event tracing (off by default).  When enabled the
     * runtime owns a telemetry::Session wired into the executor, the
     * memory system, and the Sentinel policy; read it back through
     * Runtime::telemetrySession() to export Chrome traces / metrics.
     */
    telemetry::TelemetryConfig telemetry;

    /**
     * DDR4 + Optane DC PMM preset (the paper's Table II CPU platform),
     * with the fast tier sized to @p fast_bytes.
     */
    static RuntimeConfig optane(std::uint64_t fast_bytes);

    /** V100 HBM + host-DRAM-over-PCIe preset (GPU platform). */
    static RuntimeConfig gpu(std::uint64_t hbm_bytes);

    /**
     * DDR4 + CXL-attached-memory preset: a faster, lower-latency slow
     * tier than Optane.  Not in the paper (CXL postdates it) — kept to
     * study how Sentinel's advantage scales as the tier gap narrows,
     * the question the paper's introduction raises about future
     * memory technologies.
     */
    static RuntimeConfig cxl(std::uint64_t fast_bytes);
};

/** The profiling phase: one instrumented step of @p graph on a fresh
 *  memory system built from @p rc, discarded afterwards so the page-
 *  aligned profiling allocation never lingers in the training one. */
prof::ProfileResult profileStep(const df::Graph &graph,
                                const RuntimeConfig &rc);

class Runtime
{
  public:
    Runtime(df::Graph graph, RuntimeConfig cfg);

    /** The one-step profiling phase (run lazily before training). */
    const prof::ProfileResult &profileResult();

    /**
     * Run @p steps training steps under Sentinel (profiling first if
     * not done yet).  Subsequent calls continue training.
     */
    std::vector<df::StepStats> train(int steps);

    const df::Graph &graph() const { return graph_; }
    mem::HeterogeneousMemory &hm() { return *hm_; }
    /** Valid after the first train() call. */
    const SentinelPolicy &policy() const;

    /** Telemetry session, or null when cfg.telemetry.enabled is false. */
    telemetry::Session *telemetrySession() { return telemetry_.get(); }

  private:
    void ensureProfiled();
    void ensureExecutor();

    df::Graph graph_;
    RuntimeConfig cfg_;
    std::unique_ptr<telemetry::Session> telemetry_;
    std::optional<prof::ProfileResult> profile_;
    std::unique_ptr<mem::HeterogeneousMemory> hm_;
    std::unique_ptr<SentinelPolicy> policy_;
    std::unique_ptr<df::Executor> executor_;
};

} // namespace sentinel::core

#endif // SENTINEL_CORE_RUNTIME_HH
