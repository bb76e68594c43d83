#include "server/server.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "mem/page.hh"
#include "models/registry.hh"
#include "server/admission.hh"
#include "server/arbiter.hh"
#include "server/scrape.hh"
#include "sim/event_queue.hh"

namespace sentinel::server {

namespace {

const char *
platformName(harness::Platform p)
{
    return p == harness::Platform::Optane ? "optane" : "gpu";
}

/** Resolve the per-spec defaults runServer promises (quota, batch,
 *  steps, warmup, display name). */
void
resolveSpec(const ServerConfig &cfg, JobSpec &spec, std::size_t index,
            JobResult &out)
{
    if (spec.name.empty())
        spec.name = strprintf("%s#%zu", spec.model.c_str(), index);
    if (spec.batch == 0) {
        const models::ModelSpec *ms = models::findModelSpec(spec.model);
        spec.batch = ms ? ms->small_batch : 32;
    }
    if (spec.steps == 0)
        spec.steps = cfg.default_steps;
    if (spec.warmup < 0)
        spec.warmup = cfg.default_warmup;

    std::uint64_t quota = spec.quota_bytes;
    if (quota == 0)
        quota = static_cast<std::uint64_t>(
            spec.quota_fraction * static_cast<double>(cfg.fast_bytes));
    out.quota_bytes = mem::roundUpToPages(quota);
    out.steps = spec.steps;
    out.warmup = spec.warmup;
    out.submit = spec.arrival;
}

/** Phase 1: the job's solo run at its quota.  Returns true when the
 *  job is eligible for the node (status stays Completed-track). */
bool
runSolo(const ServerConfig &cfg, const JobSpec &spec, JobResult &out)
{
    harness::ExperimentConfig ec;
    ec.model = spec.model;
    ec.batch = spec.batch;
    ec.platform = cfg.platform;
    ec.fast_bytes = out.quota_bytes;
    ec.steps = spec.steps;
    ec.warmup = spec.warmup;
    ec.chaos = spec.chaos;
    ec.chaos_seed = spec.chaos_seed;

    harness::StepTrace trace;
    try {
        trace = harness::runExperimentSteps(ec, spec.policy);
    } catch (const harness::ConfigError &e) {
        out.status = JobStatus::Rejected;
        out.detail = strprintf("rejected: %s", e.what());
        return false;
    } catch (const std::runtime_error &e) {
        out.status = JobStatus::Infeasible;
        out.detail = e.what();
        return false;
    }
    out.solo = trace.metrics;
    if (!trace.metrics.supported) {
        out.status = JobStatus::Unsupported;
        out.detail = strprintf("policy '%s' cannot run '%s'",
                               spec.policy.c_str(), spec.model.c_str());
        return false;
    }
    if (!trace.metrics.feasible || trace.steps.empty()) {
        out.status = JobStatus::Infeasible;
        out.detail = strprintf("infeasible at %llu-byte quota",
                               static_cast<unsigned long long>(
                                   out.quota_bytes));
        return false;
    }
    out.solo_steps = std::move(trace.steps);
    return true;
}

/**
 * Phase 2: the shared node.  Every eligible job arrives on one
 * sim::EventQueue, queues FIFO for admission, and replays its solo
 * demand trace against the two global bandwidth arbiters.  Strictly
 * serial and fully deterministic: state advances only inside event
 * callbacks, at event time, in event-queue order.
 */
class NodeSim
{
  public:
    NodeSim(const ServerConfig &cfg, ServerResult &result,
            const std::vector<JobSpec> &specs)
        : cfg_(cfg), result_(result), specs_(specs),
          admission_(cfg.fast_bytes, cfg.headroom),
          promote_("node.promote",
                   harness::platformConfig(cfg.platform, cfg.fast_bytes)
                       .migration.promote_bw),
          demote_("node.demote",
                  harness::platformConfig(cfg.platform, cfg.fast_bytes)
                      .migration.demote_bw),
          state_(specs.size())
    {
    }

    void
    run()
    {
        // Arrivals in submit order: the event queue's FIFO tie-break
        // makes same-tick arrivals deterministic (tests/sim).
        for (std::size_t j = 0; j < specs_.size(); ++j) {
            if (result_.jobs[j].status != JobStatus::Completed)
                continue;
            eq_.schedule(specs_[j].arrival,
                         [this, j](Tick now) { onArrival(j, now); });
        }
        eq_.drain();

        SENTINEL_ASSERT(queue_.empty(),
                        "server event queue drained with %zu jobs "
                        "still waiting for admission",
                        queue_.size());
        SENTINEL_ASSERT(promote_.bytesCompleted() ==
                            promote_.bytesSubmitted(),
                        "promote arbiter leaked demand");
        SENTINEL_ASSERT(demote_.bytesCompleted() ==
                            demote_.bytesSubmitted(),
                        "demote arbiter leaked demand");

        result_.promoted_bytes = promote_.bytesCompleted();
        result_.demoted_bytes = demote_.bytesCompleted();
        result_.peak_committed = admission_.peakCommitted();
    }

  private:
    struct JobState {
        bool active = false;
        int step = 0;
        Tick step_start = 0;
        bool compute_done = false;
        bool promote_done = false;
        bool demote_done = false;
    };

    void
    onArrival(std::size_t j, Tick now)
    {
        queue_.push_back(j);
        tryAdmit(now);
    }

    /** Strict FIFO with head-of-line blocking (see admission.hh). */
    void
    tryAdmit(Tick now)
    {
        while (!queue_.empty() &&
               admission_.canAdmit(result_.jobs[queue_.front()]
                                       .quota_bytes)) {
            std::size_t j = queue_.front();
            queue_.pop_front();
            admission_.admit(result_.jobs[j].quota_bytes);
            result_.jobs[j].admit = now;
            state_[j].active = true;
            state_[j].step = 0;
            if (cfg_.obs)
                cfg_.obs->onAdmit(j, now, admission_.committed());
            startStep(j, now);
        }
    }

    void
    startStep(std::size_t j, Tick now)
    {
        JobState &st = state_[j];
        const df::StepStats &s =
            result_.jobs[j].solo_steps[static_cast<std::size_t>(st.step)];
        st.step_start = now;
        st.compute_done = false;

        // Demand-fault steps pull extra share: a stalled step's
        // transfers are on the critical path, a clean step's are
        // prefetches that can afford to wait.
        double weight = static_cast<double>(specs_[j].priority);
        if (s.num_stalls > 0)
            weight *= cfg_.demand_fault_boost;

        st.promote_done = s.promoted_bytes == 0;
        if (!st.promote_done)
            promote_owner_[promote_.submit(static_cast<std::uint32_t>(j),
                                           s.promoted_bytes, now,
                                           weight)] = j;
        st.demote_done = s.demoted_bytes == 0;
        if (!st.demote_done)
            demote_owner_[demote_.submit(static_cast<std::uint32_t>(j),
                                         s.demoted_bytes, now, weight)] =
                j;

        int step = st.step;
        eq_.schedule(now + s.step_time, [this, j, step](Tick when) {
            // One compute event per (job, step); never stale.
            SENTINEL_ASSERT(state_[j].step == step,
                            "compute completion for a finished step");
            state_[j].compute_done = true;
            maybeFinishStep(j, when);
        });
        schedulePoll(now);
    }

    void
    maybeFinishStep(std::size_t j, Tick now)
    {
        JobState &st = state_[j];
        if (!st.active || !st.compute_done || !st.promote_done ||
            !st.demote_done)
            return;
        JobResult &r = result_.jobs[j];
        Tick duration = now - st.step_start;
        int finished = st.step;
        const df::StepStats &solo =
            r.solo_steps[static_cast<std::size_t>(finished)];
        SENTINEL_ASSERT(duration >= solo.step_time,
                        "co-located step shorter than its solo run");
        r.step_durations.push_back(duration);
        ++st.step;
        if (st.step == r.steps) {
            st.active = false;
            r.finish = now;
            admission_.release(r.quota_bytes);
            tryAdmit(now);
        } else {
            startStep(j, now);
        }
        // Feed the plane after admission settled so the committed
        // figure it records at `now` is the post-release/post-admit
        // one; the finished step's identity was captured above.
        if (cfg_.obs)
            cfg_.obs->onStepComplete(j, finished, duration, solo, now,
                                     admission_.committed());
    }

    /**
     * (Re)arm the completion poll.  Predictions are exact while the
     * backlog is unchanged; every submit and every handled poll bumps
     * the generation, so at most one poll is live and stale ones
     * no-op.  An early-firing poll (shares shrank after an arrival)
     * is harmless: it advances, completes nothing, re-arms.
     */
    void
    schedulePoll(Tick now)
    {
        Tick tp = promote_.nextCompletion();
        Tick td = demote_.nextCompletion();
        Tick t = tp;
        if (td >= 0 && (t < 0 || td < t))
            t = td;
        if (t < 0)
            return;
        // Strictly in the future: the arbiters' fluid clocks already
        // sit at `now`, so a poll at `now` could advance nothing,
        // complete nothing, and re-arm itself forever.  Completion
        // ticks are ceil'd predictions, so firing 1 ns late is
        // harmless and keeps the loop deterministic.
        t = std::max(t, now + 1);
        std::uint64_t gen = ++poll_gen_;
        eq_.schedule(t,
                     [this, gen](Tick when) { onPoll(when, gen); });
    }

    void
    onPoll(Tick now, std::uint64_t gen)
    {
        if (gen != poll_gen_)
            return;
        promote_.advanceTo(now);
        demote_.advanceTo(now);
        std::vector<std::size_t> touched;
        for (const auto &c : promote_.takeCompleted()) {
            auto it = promote_owner_.find(c.id);
            SENTINEL_ASSERT(it != promote_owner_.end(),
                            "unowned promote completion");
            state_[it->second].promote_done = true;
            touched.push_back(it->second);
            promote_owner_.erase(it);
        }
        for (const auto &c : demote_.takeCompleted()) {
            auto it = demote_owner_.find(c.id);
            SENTINEL_ASSERT(it != demote_owner_.end(),
                            "unowned demote completion");
            state_[it->second].demote_done = true;
            touched.push_back(it->second);
            demote_owner_.erase(it);
        }
        for (std::size_t j : touched)
            maybeFinishStep(j, now);
        schedulePoll(now);
    }

    const ServerConfig &cfg_;
    ServerResult &result_;
    const std::vector<JobSpec> &specs_;

    sim::EventQueue eq_;
    AdmissionController admission_;
    BandwidthArbiter promote_;
    BandwidthArbiter demote_;

    std::deque<std::size_t> queue_; ///< submitted, awaiting admission
    std::vector<JobState> state_;
    std::map<DemandId, std::size_t> promote_owner_;
    std::map<DemandId, std::size_t> demote_owner_;
    std::uint64_t poll_gen_ = 0;
};

/** Fill in JobResult::slo from the phase-2 durations. */
void
computeSlo(JobResult &r)
{
    std::size_t lo = static_cast<std::size_t>(r.warmup);
    std::vector<double> measured_ms;
    Tick co_sum = 0, solo_sum = 0, exposed_sum = 0, dilation_sum = 0;
    for (std::size_t k = lo; k < r.step_durations.size(); ++k) {
        Tick d = r.step_durations[k];
        const df::StepStats &s = r.solo_steps[k];
        measured_ms.push_back(toMillis(d));
        co_sum += d;
        solo_sum += s.step_time;
        exposed_sum += s.exposed_migration;
        dilation_sum += d - s.step_time;
    }
    r.slo.step_ms = PercentileSummary::of(measured_ms);
    if (!measured_ms.empty())
        r.slo.mean_ms = toMillis(co_sum) /
                        static_cast<double>(measured_ms.size());
    if (co_sum > 0)
        r.slo.stall_share =
            toMillis(exposed_sum + dilation_sum) / toMillis(co_sum);
    if (solo_sum > 0)
        r.slo.slowdown = static_cast<double>(co_sum) /
                         static_cast<double>(solo_sum);
    r.slo.queue_wait_ms = toMillis(r.admit - r.submit);
    Tick throttle = 0;
    for (std::size_t k = 0; k < r.step_durations.size(); ++k)
        throttle += r.step_durations[k] - r.solo_steps[k].step_time;
    r.slo.throttle_ms = toMillis(throttle);
}

} // namespace

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
    case JobStatus::Rejected:
        return "rejected";
    case JobStatus::Unsupported:
        return "unsupported";
    case JobStatus::Infeasible:
        return "infeasible";
    case JobStatus::Completed:
        return "completed";
    }
    return "?";
}

ServerResult
runServer(const ServerConfig &cfg, const std::vector<JobSpec> &specs)
{
    if (cfg.fast_bytes < mem::kPageSize)
        throw harness::ConfigError(
            "server needs a fast tier of at least one page");
    if (specs.empty())
        throw harness::ConfigError("server needs at least one job");
    if (cfg.headroom < 1.0)
        throw harness::ConfigError(
            "admission headroom must be >= 1.0");
    if (cfg.demand_fault_boost < 1.0)
        throw harness::ConfigError(
            "demand-fault boost must be >= 1.0");
    if (cfg.default_steps <= 0 || cfg.default_warmup < 0 ||
        cfg.default_warmup >= cfg.default_steps)
        throw harness::ConfigError(
            "server default steps/warmup are inconsistent");
    for (const JobSpec &s : specs)
        if (s.arrival < 0)
            throw harness::ConfigError("job arrival must be >= 0");

    ServerResult result;
    result.platform = cfg.platform;
    result.fast_bytes = cfg.fast_bytes;
    result.jobs.resize(specs.size());

    std::vector<JobSpec> resolved = specs;
    AdmissionController gate(cfg.fast_bytes, cfg.headroom);
    for (std::size_t i = 0; i < resolved.size(); ++i) {
        resolveSpec(cfg, resolved[i], i, result.jobs[i]);
        result.jobs[i].spec = resolved[i];
        if (gate.neverFits(result.jobs[i].quota_bytes)) {
            result.jobs[i].status = JobStatus::Rejected;
            result.jobs[i].detail = strprintf(
                "quota %llu exceeds node capacity %llu",
                static_cast<unsigned long long>(
                    result.jobs[i].quota_bytes),
                static_cast<unsigned long long>(gate.capacity()));
        }
    }

    // Phase 1: solo runs at quota, one independent simulation per job
    // (private graph, memory system, clock) — safe to fan out, and
    // byte-identical to serial for any jobs value.
    parallelFor(resolved.size(), cfg.jobs, [&](std::size_t i) {
        JobResult &r = result.jobs[i];
        if (r.status == JobStatus::Rejected && !r.detail.empty())
            return; // rejected at submit; never runs
        r.status = runSolo(cfg, resolved[i], r) ? JobStatus::Completed
                                                : r.status;
    });

    if (cfg.obs) {
        cfg.obs->setNode(cfg.fast_bytes, cfg.headroom);
        for (std::size_t i = 0; i < result.jobs.size(); ++i) {
            const JobResult &r = result.jobs[i];
            Tick mean = 0;
            if (!r.solo_steps.empty()) {
                Tick sum = 0;
                for (const df::StepStats &s : r.solo_steps)
                    sum += s.step_time;
                mean = sum / static_cast<Tick>(r.solo_steps.size());
            }
            cfg.obs->attachJob(i, resolved[i].name, r.quota_bytes,
                               mean);
        }
    }

    // Phase 2: the shared node (always serial).
    NodeSim node(cfg, result, resolved);
    node.run();

    Tick makespan = 0;
    double samples = 0.0;
    for (JobResult &r : result.jobs) {
        if (r.status != JobStatus::Completed) {
            ++result.rejected;
            continue;
        }
        SENTINEL_ASSERT(r.step_durations.size() ==
                            r.solo_steps.size(),
                        "job '%s' finished with a partial trace",
                        r.spec.name.c_str());
        ++result.admitted;
        computeSlo(r);
        makespan = std::max(makespan, r.finish);
        samples += static_cast<double>(r.spec.batch) * r.steps;
    }
    result.makespan = makespan;
    if (makespan > 0)
        result.aggregate_throughput = samples / toSeconds(makespan);

    if (cfg.obs)
        cfg.obs->finish(makespan);

    if (cfg.telemetry) {
        auto &m = cfg.telemetry->metrics();
        m.counter("server.jobs_admitted")
            .add(static_cast<std::uint64_t>(result.admitted));
        m.counter("server.jobs_rejected")
            .add(static_cast<std::uint64_t>(result.rejected));
        m.counter("server.promoted_bytes").add(result.promoted_bytes);
        m.counter("server.demoted_bytes").add(result.demoted_bytes);
        m.counter("server.peak_committed_bytes")
            .add(result.peak_committed);
    }
    return result;
}

std::string
ServerResult::summary() const
{
    std::ostringstream os;
    Table t(strprintf("server: %zu job(s) on %s node, %.1f MB fast tier",
                      jobs.size(), platformName(platform),
                      static_cast<double>(fast_bytes) / 1e6),
            { "job", "model", "batch", "policy", "quota_mb", "prio",
              "status", "queue_ms", "p50_ms", "p99_ms", "stall_pct",
              "throttle_ms", "slowdown" });
    for (const JobResult &r : jobs) {
        t.row()
            .cell(r.spec.name)
            .cell(r.spec.model)
            .cell(r.spec.batch)
            .cell(r.spec.policy)
            .cell(static_cast<double>(r.quota_bytes) / 1e6, 1)
            .cell(r.spec.priority)
            .cell(jobStatusName(r.status));
        if (r.status == JobStatus::Completed)
            t.cell(r.slo.queue_wait_ms, 2)
                .cell(r.slo.step_ms.p50, 2)
                .cell(r.slo.step_ms.p99, 2)
                .cell(100.0 * r.slo.stall_share, 1)
                .cell(r.slo.throttle_ms, 2)
                .cell(r.slo.slowdown, 3);
        else
            t.cell("-").cell("-").cell("-").cell("-").cell("-").cell(
                "-");
    }
    t.print(os);
    os << strprintf("admitted %d  rejected %d  makespan %.2f ms  "
                    "aggregate %.1f samples/s\n",
                    admitted, rejected, toMillis(makespan),
                    aggregate_throughput);
    os << strprintf("node DMA: promoted %.1f MB, demoted %.1f MB; "
                    "peak committed %.1f / %.1f MB\n",
                    static_cast<double>(promoted_bytes) / 1e6,
                    static_cast<double>(demoted_bytes) / 1e6,
                    static_cast<double>(peak_committed) / 1e6,
                    static_cast<double>(fast_bytes) / 1e6);
    return os.str();
}

} // namespace sentinel::server
