/**
 * @file
 * The training-step executor: the simulated TensorFlow runtime.
 *
 * Runs a Graph against a HeterogeneousMemory under a MemoryPolicy,
 * producing per-step statistics.  It owns the simulated clock, the
 * tensor -> placement table, and page reference counting (tensors may
 * share a page; the page lives while any of them does).  Live
 * placements' byte ranges are disjoint, so only a placement's first and
 * last page can be shared: allocation and free count those two pages
 * and map or unmap the span between them as one run.
 *
 * Each tensor use is walked as maximal page runs: the policy's
 * onRangeAccess() resolves a prefix of the placement into segments,
 * and the executor charges traffic once per run of pages that share a
 * tier and are not in flight (in-flight pages go one at a time, since
 * each has its own arrival).
 *
 * Optional attachments:
 *  - an AccessTracker models the paper's PTE-poisoning profiler
 *    (counts page accesses, charges fault overhead to the step once
 *    per accounted run);
 *  - a TraceRecorder captures per-tier traffic for Fig. 9;
 *  - a telemetry::Session records structured events (op/step spans,
 *    stalls, faults) and counters for Chrome-trace/CSV export.
 */

#ifndef SENTINEL_DATAFLOW_EXECUTOR_HH
#define SENTINEL_DATAFLOW_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "dataflow/cost_model.hh"
#include "dataflow/graph.hh"
#include "dataflow/placement.hh"
#include "dataflow/policy.hh"
#include "dataflow/step_stats.hh"
#include "mem/access_tracker.hh"
#include "mem/hm.hh"
#include "mem/page_directory.hh"
#include "sim/fault_injector.hh"
#include "sim/trace.hh"
#include "telemetry/attribution.hh"
#include "telemetry/session.hh"

namespace sentinel::df {

class Executor
{
  public:
    Executor(const Graph &graph, mem::HeterogeneousMemory &hm,
             ExecParams params, MemoryPolicy &policy);

    /**
     * Run one training step (forward + backward + update).  The first
     * call triggers onTrainingStart() and allocates preallocated
     * tensors.
     */
    StepStats runStep();

    /** Run @p n steps and return their stats. */
    std::vector<StepStats> run(int n);

    // --- State queried by policies ----------------------------------------

    Tick now() const { return now_; }
    int currentStep() const { return step_counter_; }
    const Graph &graph() const { return graph_; }
    mem::HeterogeneousMemory &hm() { return hm_; }
    const ExecParams &params() const { return params_; }
    StepStats &currentStats() { return stats_; }

    bool isAllocated(TensorId id) const;
    /** Placement of a live tensor (panics if not allocated). */
    const TensorPlacement &placementOf(TensorId id) const;
    /**
     * Number of live tensors overlapping @p page (0 if unmapped).  Only
     * a placement's end pages can be shared, so only they are counted;
     * a mapped interior page has its one owner.
     */
    int pageRefCount(mem::PageId page) const;

    // --- Time charging (policy hooks use these) -----------------------------

    /** Stall the critical path waiting for migration. */
    void chargeExposed(Tick t);
    /** Charge @p t of exposed time covering @p events distinct stalls. */
    void chargeExposedEvents(Tick t, std::uint64_t events);
    /** Stall until absolute time @p t (no-op if already past). */
    void stallUntil(Tick t);
    /** Charge policy decision overhead. */
    void chargePolicy(Tick t);
    /** Charge recomputation time (Capuchin). */
    void chargeRecompute(Tick t);

    // --- Profiling attachments ----------------------------------------------

    void setAccessTracker(mem::AccessTracker *tracker) { tracker_ = tracker; }
    void setTraceRecorder(sim::TraceRecorder *rec) { trace_ = rec; }
    /**
     * True while a TraceRecorder is attached.  A segment's bytes are
     * recorded at the clock after its whole charge, so a policy whose
     * batched charge interleaves with its pages resolves them one at
     * a time here to keep the per-page timing the trace shows.
     */
    bool tracing() const { return trace_ != nullptr; }

    /**
     * Attach a fault injector (null detaches).  At each step's start
     * the executor folds the schedule and applies bandwidth/capacity
     * scales and channel stalls to the memory system; per-op compute
     * and traffic are perturbed inline.  Policies observe the faults
     * only through their effects — exactly like a real runtime whose
     * environment degrades under it.
     */
    void setFaultInjector(sim::FaultInjector *inj) { chaos_ = inj; }
    sim::FaultInjector *faultInjector() { return chaos_; }

    /** Layer currently executing (-1 outside the layer loop). */
    int currentLayer() const { return current_layer_; }

    /**
     * Attach a telemetry session (null detaches).  When attached, the
     * executor emits step/op spans, stall, fault, and policy-decision
     * events and maintains per-tier traffic counters plus a stall
     * latency histogram.  Telemetry never perturbs simulated time:
     * stats with and without a session are bit-identical.
     */
    void setTelemetry(telemetry::Session *session);
    telemetry::Session *telemetry() { return telemetry_; }

    /**
     * Attach a stall-attribution engine (null detaches).  Every
     * simulated-clock advance inside runStep() is reported to the
     * engine classified by cause, together with the layer / tensor /
     * allocation context in force, so the engine can decompose
     * StepStats totals exactly (see telemetry/attribution.hh).  Like
     * telemetry, attribution never perturbs simulated time.
     */
    void setAttribution(telemetry::AttributionEngine *attr) { attr_ = attr; }
    telemetry::AttributionEngine *attribution() { return attr_; }

  private:
    /** Per-use traffic split: page i carries q + (i < rem ? 1 : 0). */
    struct UseTraffic {
        std::uint64_t q = 0;   ///< traffic_bytes / npages
        std::uint64_t rem = 0; ///< traffic_bytes % npages
    };

    void allocateTensor(TensorId id);
    void freeTensor(TensorId id);
    /**
     * Add @p delta (+1 or -1) to the refcounts of @p pl's end pages and
     * return the span of its pages that changes mapped state: every
     * interior page, plus each end page whose count reached 1 (alloc)
     * or 0 (free).
     */
    mem::PageRun boundarySpan(const TensorPlacement &pl, int delta);
    void execOp(const Operation &op);
    void execUseRanges(const TensorUse &use, const TensorPlacement &pl,
                       UseTraffic tr, TensorKind kind, Tick *mem_total);
    /** Charge traffic/time/telemetry for @p n pages starting at
     *  placement-relative index @p idx, all served from @p tier. */
    void accountPages(mem::Tier tier, std::uint64_t idx, std::uint64_t n,
                      UseTraffic tr, const TensorUse &use, TensorKind kind,
                      Tick *mem_total);
    /** Charge the profiling faults of @p n pages from @p first. */
    void chargeProfilingFaults(mem::PageId first, std::uint64_t n,
                               const TensorUse &use);
    void notePeakFastUsage();

    const Graph &graph_;
    mem::HeterogeneousMemory &hm_;
    ExecParams params_;
    MemoryPolicy &policy_;

    Tick now_ = 0;
    int step_counter_ = 0;
    bool training_started_ = false;

    StepStats stats_;
    std::uint64_t promoted_at_step_start_ = 0;
    std::uint64_t demoted_at_step_start_ = 0;

    // Dense tensor tables indexed by TensorId (graph ids are compact),
    // and a chunked page directory for boundary-page refcounts: the
    // executor's own bookkeeping is hash-free and allocation-free in
    // steady state.
    std::vector<TensorPlacement> placements_;
    std::vector<std::uint8_t> live_;
    mem::PageDirectory<std::int32_t> page_refs_;

    std::vector<AccessSegment> seg_buf_; ///< reused per onRangeAccess call

    mem::AccessTracker *tracker_ = nullptr;
    sim::TraceRecorder *trace_ = nullptr;
    sim::FaultInjector *chaos_ = nullptr;
    int current_layer_ = -1;

    telemetry::Session *telemetry_ = nullptr;
    telemetry::StepBoard *board_ = nullptr; ///< session's live plane
    telemetry::AttributionEngine *attr_ = nullptr;
    telemetry::Counter *fast_bytes_ctr_ = nullptr;
    telemetry::Counter *slow_bytes_ctr_ = nullptr;
    telemetry::Gauge *fast_peak_gauge_ = nullptr;
    telemetry::Histogram *stall_hist_ = nullptr;
    telemetry::Histogram *op_hist_ = nullptr;
};

} // namespace sentinel::df

#endif // SENTINEL_DATAFLOW_EXECUTOR_HH
