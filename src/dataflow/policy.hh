/**
 * @file
 * The memory-management policy interface.
 *
 * Everything this reproduction compares — Sentinel itself, IAL,
 * AutoTM, first-touch NUMA, Memory Mode, UM, vDNN, SwapAdvisor,
 * Capuchin, and the fast-only / slow-only references — implements this
 * interface.  The Executor drives a training step and calls back:
 *
 *  - lifecycle hooks (training / step / layer boundaries), where
 *    planned policies schedule prefetches and evictions;
 *  - allocate()/free notifications, where layout policies choose
 *    addresses (and therefore page sharing) and initial tiers;
 *  - onRangeAccess(), the one access hook: the executor hands over a
 *    run of a tensor's pages and the policy resolves a prefix of it.
 *    Reactive policies (IAL, UM, Memory Mode, Sentinel's GPU mode)
 *    migrate on demand there and charge critical-path costs; every
 *    other policy keeps the default, which takes no action.
 *
 * Hooks may charge time to the step through the Executor's charge*
 * methods; they never mutate the clock directly.
 */

#ifndef SENTINEL_DATAFLOW_POLICY_HH
#define SENTINEL_DATAFLOW_POLICY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hh"
#include "dataflow/placement.hh"
#include "dataflow/tensor.hh"
#include "mem/page.hh"

namespace sentinel::df {

class Executor;

/**
 * One policy-resolved segment of a batched range access: the leading
 * @c pages of the range all receive the same treatment.
 */
struct AccessSegment {
    /** Pages covered, counted from the range's first page (>= 1). */
    std::uint64_t pages = 0;

    /** Critical-path cost for the whole segment (sum over its pages). */
    Tick extra = 0;

    /**
     * How many distinct stall events @c extra aggregates (a per-page
     * fault loop collapsed into one segment still counts every fault),
     * so StepStats::num_stalls counts faults, not segments.
     */
    std::uint64_t stall_events = 0;

    /**
     * If set, the segment is served from this tier regardless of the
     * page table (e.g. Memory-Mode DRAM cache hits, or a page the
     * policy just faulted in synchronously).
     */
    std::optional<mem::Tier> effective;
};

class MemoryPolicy
{
  public:
    virtual ~MemoryPolicy() = default;

    virtual std::string name() const = 0;

    // --- Lifecycle hooks -------------------------------------------------

    /** Called once before any step; preallocated tensors follow. */
    virtual void onTrainingStart(Executor &) {}

    virtual void onStepBegin(Executor &, int /*step*/) {}
    virtual void onStepEnd(Executor &, int /*step*/) {}

    /** Layer boundaries — Sentinel's migration intervals live here. */
    virtual void onLayerBegin(Executor &, int /*layer*/) {}
    virtual void onLayerEnd(Executor &, int /*layer*/) {}

    // --- Allocation -------------------------------------------------------

    /** Choose an address and an initial tier for @p tensor. */
    virtual AllocDecision allocate(Executor &, const TensorDesc &tensor) = 0;

    /** The executor mapped @p tensor at @p placement. */
    virtual void
    onTensorAllocated(Executor &, TensorId, const TensorPlacement &)
    {
    }

    /**
     * @p tensor is being freed; its placement is still valid during
     * this call (so layout state can be recycled).
     */
    virtual void
    onTensorFreed(Executor &, TensorId, const TensorPlacement &)
    {
    }

    /**
     * The pages of @p run lost their last tensor and are unmapping:
     * one call per freed span (a tensor's interior pages plus any end
     * page it no longer shares), made before the pages leave the page
     * table.
     */
    virtual void onRangeUnmapped(Executor &, mem::PageRun) {}

    // --- Access ------------------------------------------------------------

    /**
     * Access hook: resolve a prefix of @p run into one or more
     * segments appended to @p out.  The executor re-invokes with the
     * uncovered remainder, so covering a single page is always legal.
     *
     * The default takes no action: the whole run is one segment, and
     * the executor's walk resolves residency itself, consulting
     * stallForInflight() page by page across any migration boundary.
     * Overrides MUST only batch pages whose treatment cannot depend on
     * the clock advancing between them.
     */
    virtual void
    onRangeAccess(Executor &, mem::PageRun run, bool /*is_write*/,
                  std::vector<AccessSegment> &out)
    {
        AccessSegment seg;
        seg.pages = run.count;
        out.push_back(seg);
    }

    /**
     * A touched page is in flight toward fast memory.  Return true to
     * stall until it arrives (access then served from fast), false to
     * read it from its source tier.  Sentinel's test-and-trial for
     * Case 3 decides exactly this (Sec. IV-D).
     */
    virtual bool stallForInflight(Executor &, mem::PageId) { return true; }
};

} // namespace sentinel::df

#endif // SENTINEL_DATAFLOW_POLICY_HH
