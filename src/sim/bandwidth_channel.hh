/**
 * @file
 * A serialized bandwidth link.
 *
 * Models one DMA-like channel: transfers queue behind each other and
 * each takes bytes/bandwidth time.  Sentinel's migration engine uses two
 * of these (one per direction, matching the paper's two helper threads);
 * the GPU configurations use them for the PCIe link.
 */

#ifndef SENTINEL_SIM_BANDWIDTH_CHANNEL_HH
#define SENTINEL_SIM_BANDWIDTH_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/units.hh"

namespace sentinel::sim {

/**
 * Arrival ticks of a run of equal transfers, in closed form: transfer
 * k of the run (k = 0, 1, ...) arrives at max_i(base[i] + k*stride[i]).
 *
 * Every line has a non-negative stride, so arrivals never decrease
 * along the run.  A run streamed through a chain of L channels needs
 * at most L lines (BandwidthChannel::submitRun), and a chain has at
 * most kMaxLines links.
 */
struct ArrivalCurve {
    static constexpr unsigned kMaxLines = 7;

    Tick base[kMaxLines] = {};
    Tick stride[kMaxLines] = {};
    unsigned lines = 0;

    /** Every transfer ready at @p t (one flat line). */
    static ArrivalCurve
    flat(Tick t)
    {
        ArrivalCurve c;
        c.add(t, 0);
        return c;
    }

    void
    add(Tick b, Tick s)
    {
        SENTINEL_ASSERT(lines < kMaxLines && s >= 0,
                        "arrival curve line %u (stride %lld) out of range",
                        lines, static_cast<long long>(s));
        base[lines] = b;
        stride[lines] = s;
        ++lines;
    }

    /** Arrival of transfer @p k. */
    Tick
    at(std::uint64_t k) const
    {
        Tick t = base[0] + static_cast<Tick>(k) * stride[0];
        for (unsigned i = 1; i < lines; ++i)
            t = std::max(t, base[i] + static_cast<Tick>(k) * stride[i]);
        return t;
    }

    /**
     * How many of the first @p count transfers have arrived by @p now:
     * arrivals are non-decreasing, so that is a prefix, and each line
     * bounds it with one floor division.
     */
    std::uint64_t
    arrivedBy(Tick now, std::uint64_t count) const
    {
        std::uint64_t n = count;
        for (unsigned i = 0; i < lines; ++i) {
            if (base[i] > now)
                return 0;
            if (stride[i] > 0)
                n = std::min<std::uint64_t>(
                    n, static_cast<std::uint64_t>((now - base[i]) /
                                                  stride[i]) + 1);
        }
        return n;
    }
};

/** One serialized transfer link with busy-until semantics. */
class BandwidthChannel
{
  public:
    /**
     * @param name diagnostic name ("promote", "demote", "pcie-h2d"...).
     * @param bytes_per_sec link bandwidth.
     * @param startup_latency fixed per-transfer setup cost (e.g. the
     *        move_pages() syscall or a cudaMemcpyAsync launch).
     */
    BandwidthChannel(std::string name, double bytes_per_sec,
                     Tick startup_latency = 0);

    /**
     * Enqueue a transfer that may begin no earlier than @p ready.
     *
     * @return absolute completion time.
     */
    Tick submit(Tick ready, std::uint64_t bytes);

    /** submit() with an explicit setup cost (0 = batched continuation). */
    Tick submitWithStartup(Tick ready, std::uint64_t bytes,
                           Tick startup);

    /**
     * Enqueue @p count transfers of @p bytes_each, transfer k ready at
     * @p ready(k): exactly @p count chained submitWithStartup() calls
     * of which only the first pays @p startup, in O(lines) instead of
     * O(count).
     *
     * With T = transferTime(bytes_each) and e0 the first completion,
     * max(ready(0), busyUntil()) + startup + T, completion k is
     * max(e0 + kT, ready(k) + T, completion k-1 + T).  Unrolling the
     * recurrence, an input line a + ks contributes a + T + ks when its
     * stride s exceeds T and is dominated by e0 + kT otherwise, so the
     * result has one line more than the input's lines steeper than T.
     *
     * @return the completion tick of every transfer of the run.
     */
    ArrivalCurve submitRun(const ArrivalCurve &ready, std::uint64_t count,
                           std::uint64_t bytes_each, Tick startup);

    /** Earliest time a new transfer submitted at @p ready could finish. */
    Tick estimateCompletion(Tick ready, std::uint64_t bytes) const;

    /** Time the channel becomes idle given everything submitted so far. */
    Tick busyUntil() const { return busy_until_; }

    /** Total payload bytes accepted. */
    std::uint64_t bytesTransferred() const { return bytes_transferred_; }

    /** Total number of page transfers accepted (a run of n counts n). */
    std::uint64_t numTransfers() const { return num_transfers_; }

    /** Accumulated busy time (transfer + startup). */
    Tick busyTime() const { return busy_time_; }

    /** Per-transfer setup cost charged by submit(). */
    Tick startupLatency() const { return startup_latency_; }

    double bandwidth() const { return bytes_per_sec_; }
    const std::string &name() const { return name_; }

    /**
     * Re-rate the link mid-run (fault injection / dynamic topology).
     * Only transfers submitted afterwards see the new rate; work already
     * queued keeps its completion time.
     */
    void setBandwidth(double bytes_per_sec);

    /**
     * Block the channel until at least @p until (one-shot outage).
     * Transfers already submitted keep their completion times (their
     * data is on the wire); new submissions queue behind the outage.
     * The blocked interval counts as busy time so utilisation stats
     * reflect it.
     */
    void blockUntil(Tick until);

    /** Forget queued work and stats (new experiment, same link). */
    void reset();

  private:
    std::string name_;
    double bytes_per_sec_;
    Tick startup_latency_;

    Tick busy_until_ = 0;
    std::uint64_t bytes_transferred_ = 0;
    std::uint64_t num_transfers_ = 0;
    Tick busy_time_ = 0;
};

} // namespace sentinel::sim

#endif // SENTINEL_SIM_BANDWIDTH_CHANNEL_HH
