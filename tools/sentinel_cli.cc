/**
 * @file
 * sentinel-cli: command-line driver for the reproduction.
 *
 * Subcommands:
 *   run          one (model, batch, platform, policy) cell
 *   report       stall attribution + migration decision audit for one
 *                run (per-interval breakdown, top offenders, exactness
 *                check against the run's StepStats)
 *   compare      every policy on one configuration
 *   plan         the interval planner's candidate table (Fig. 5 math)
 *                plus the offline offset map of the long-lived tensors
 *   maxbatch     max-batch search on the GPU platform (Table V cell)
 *   chaos        fault-injection degradation report (Sentinel vs. the
 *                platform baselines under a --chaos spec)
 *   replay       run a .sentinelrepro fuzz case through the
 *                differential oracle (exit 0 clean, 2 on violations)
 *   serve        co-locate several training jobs on one simulated HM
 *                node: admission control, capacity quotas, and the
 *                global migration-bandwidth arbiter (src/server);
 *                --listen / --scrape-out expose the run's live
 *                observability plane (OpenMetrics + SLO burn alerts)
 *   top          per-job terminal view of a scrape: --endpoint for a
 *                live /metrics responder, --snapshot for a frame file
 *   metrics-diff compare two --metrics-out dumps with percent-change
 *                thresholds (exit 2 when a change exceeds them)
 *   models       list the model zoo
 *
 * Examples:
 *   sentinel-cli run --model resnet32 --batch 32 --policy sentinel
 *   sentinel-cli compare --model bert_large --fraction 0.2
 *   sentinel-cli plan --model resnet32 --batch 32 --fraction 0.2
 *   sentinel-cli maxbatch --model resnet32 --policy sentinel --mem-mb 64
 *   sentinel-cli chaos --model resnet32 --chaos 'bw:step=6,factor=0.5'
 *   sentinel-cli serve --node-mb 64 \
 *       --colo 'model=resnet32 quota=0.3; model=synthetic:9 quota=0.25'
 *   sentinel-cli serve --mix 3 --seed 7 --oracle
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.hh"
#include "harness/oracle.hh"
#include "harness/report.hh"
#include "core/interval_planner.hh"
#include "core/sentinel_policy.hh"
#include "mem/page.hh"
#include "plan/offset_planner.hh"
#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "server/http.hh"
#include "server/oracle.hh"
#include "server/scrape.hh"
#include "sim/fault_injector.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/export.hh"
#include "telemetry/openmetrics.hh"
#include "telemetry/session.hh"

using namespace sentinel;

namespace {

/** Tiny --key value / --key=value parser; unknown keys are fatal. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) {
                SENTINEL_FATAL("expected --key value pairs, got '%s'",
                               key.c_str());
            }
            std::size_t eq = key.find('=');
            if (eq != std::string::npos) {
                values_[key.substr(2, eq - 2)] = key.substr(eq + 1);
                continue;
            }
            if (i + 1 >= argc) {
                SENTINEL_FATAL("missing value for '%s'", key.c_str());
            }
            values_[key.substr(2)] = argv[++i];
        }
    }

    std::string
    get(const std::string &key, const std::string &dflt) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? dflt : it->second;
    }

    bool
    has(const std::string &key) const
    {
        return values_.find(key) != values_.end();
    }

    int
    getInt(const std::string &key, int dflt) const
    {
        return number(key, dflt);
    }

    double
    getDouble(const std::string &key, double dflt) const
    {
        return number(key, dflt);
    }

    /** Decimal, or hex with a 0x prefix (seeds print as hex). */
    std::uint64_t
    getU64(const std::string &key, std::uint64_t dflt) const
    {
        return number(key, dflt);
    }

  private:
    /**
     * The whole value of --key as a T, or @p dflt when the key is
     * absent.  Empty input, trailing garbage ("8abc"), and overflow
     * are a ConfigError, never a silent prefix parse.
     */
    template <typename T>
    T
    number(const std::string &key, T dflt) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return dflt;
        const std::string &v = it->second;
        const char *last = v.data() + v.size();
        T out{};
        std::from_chars_result r{};
        if constexpr (std::is_unsigned_v<T>)
            r = v.rfind("0x", 0) == 0
                    ? std::from_chars(v.data() + 2, last, out, 16)
                    : std::from_chars(v.data(), last, out);
        else
            r = std::from_chars(v.data(), last, out);
        if (v.empty() || r.ec != std::errc() || r.ptr != last)
            throw harness::ConfigError(
                strprintf("--%s wants a number, got '%s'", key.c_str(),
                          v.c_str()));
        return out;
    }

    std::map<std::string, std::string> values_;
};

harness::ExperimentConfig
configFrom(const Args &args)
{
    harness::ExperimentConfig cfg;
    cfg.model = args.get("model", "resnet32");
    // Models outside the zoo (resnet20 and friends) have no registered
    // spec; they still build via makeModel, so default their batch.
    const models::ModelSpec *spec = models::findModelSpec(cfg.model);
    cfg.batch = args.getInt("batch", spec ? spec->small_batch : 32);
    cfg.platform = args.get("platform", "cpu") == "gpu"
                       ? harness::Platform::Gpu
                       : harness::Platform::Optane;
    cfg.fast_fraction = args.getDouble("fraction", 0.2);
    int mem_mb = args.getInt("mem-mb", 0);
    if (mem_mb > 0)
        cfg.fast_bytes = static_cast<std::uint64_t>(mem_mb) << 20;
    cfg.tiers = args.getInt("tiers", 2);
    int mid_mb = args.getInt("mid-capacity", 0);
    if (mid_mb > 0)
        cfg.mid_bytes = static_cast<std::uint64_t>(mid_mb) << 20;
    cfg.mid_bw = args.getDouble("mid-bw", 0.0) * 1e9; // GB/s -> B/s
    cfg.steps = args.getInt("steps", 9);
    cfg.warmup = args.getInt("warmup", 6);
    cfg.sentinel.forced_mil = args.getInt("mil", 0);
    cfg.planner = args.get("planner", "greedy");
    cfg.chaos = args.get("chaos", "");
    cfg.chaos_seed = args.getU64("chaos-seed", cfg.chaos_seed);
    return cfg;
}

void
printMetrics(const harness::Metrics &m)
{
    if (!m.supported) {
        std::printf("%-12s unsupported on this graph\n",
                    m.policy.c_str());
        return;
    }
    std::printf("%-12s %10.2f ms/step %10.1f samples/s  exposed "
                "%8.2f ms  recompute %6.2f ms  migrated %8.1f MB  "
                "slow %8.1f MB%s\n",
                m.policy.c_str(), m.step_time_ms, m.throughput,
                m.exposed_ms, m.recompute_ms, m.migrated_mb(),
                m.bytes_slow_mb, m.feasible ? "" : "  [INFEASIBLE]");
}

/**
 * Labeler for traces produced by the run command: ops and prefetch
 * targets get their graph names instead of bare ids.
 */
telemetry::EventLabeler
graphLabeler(const df::Graph &g)
{
    return [&g](const telemetry::Event &e) -> std::string {
        switch (e.type) {
          case telemetry::EventType::OpBegin:
          case telemetry::EventType::OpEnd:
            if (e.id < g.numOps())
                return g.op(e.id).name;
            break;
          case telemetry::EventType::PrefetchIssued:
            if (e.id < g.numTensors())
                return "prefetch " + g.tensor(e.id).name;
            break;
          default:
            break;
        }
        return {};
    };
}

int
cmdRun(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    std::string policy = args.get("policy", "sentinel");
    std::string trace_out = args.get("trace-out", "");
    std::string metrics_out = args.get("metrics-out", "");

    std::optional<telemetry::Session> session;
    if (!trace_out.empty() || !metrics_out.empty()) {
        telemetry::TelemetryConfig tcfg;
        tcfg.enabled = true;
        tcfg.ring_capacity = static_cast<std::size_t>(
            args.getInt("ring-capacity", 1 << 18));
        session.emplace(tcfg);
        cfg.telemetry = &*session;
    }

    harness::Run run(cfg, policy);
    harness::Metrics m = run.finish().metrics;
    printMetrics(m);
    if (m.mil > 0) {
        std::printf("sentinel: MIL=%d pool=%.1fMB case3=%d trials=%d\n",
                    m.mil, m.pool_mb, m.case3_events, m.trial_steps);
        if (m.divergence_events > 0 || m.replans > 0 || !m.trial_decided)
            std::printf("sentinel: divergence=%d replans=%d trial=%s\n",
                        m.divergence_events, m.replans,
                        m.trial_state.c_str());
    }

    if (session) {
        if (!trace_out.empty()) {
            if (!telemetry::saveChromeTrace(session->events(), trace_out,
                                            graphLabeler(run.graph())))
                SENTINEL_FATAL("could not write '%s'", trace_out.c_str());
            std::printf("trace written to %s (%zu events, %llu dropped); "
                        "open in https://ui.perfetto.dev\n",
                        trace_out.c_str(), session->events().size(),
                        static_cast<unsigned long long>(
                            session->events().dropped()));
        }
        if (!metrics_out.empty()) {
            if (!telemetry::saveMetrics(session->metrics(), metrics_out))
                SENTINEL_FATAL("could not write '%s'",
                               metrics_out.c_str());
            std::printf("metrics written to %s\n", metrics_out.c_str());
        }
    }
    return 0;
}

int
cmdReport(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    std::string policy = args.get("policy", "sentinel");
    std::string report_out = args.get("report-out", "");
    std::string trace_out = args.get("trace-out", "");
    std::string tensor_arg = args.get("tensor", "");

    harness::ReportOptions ropts;
    ropts.top_k = args.getInt("top", 5);
    ropts.jobs = args.getInt("jobs", 1);

    telemetry::AttributionEngine attr;
    telemetry::AuditLog audit;
    cfg.attribution = &attr;
    cfg.audit = &audit;

    // A telemetry session rides along so the attribution can be
    // cross-checked against the raw event stream (and exported with
    // the audit reasons joined in when --trace-out is given).
    telemetry::TelemetryConfig tcfg;
    tcfg.enabled = true;
    tcfg.ring_capacity =
        static_cast<std::size_t>(args.getInt("ring-capacity", 1 << 18));
    telemetry::Session session(tcfg);
    cfg.telemetry = &session;

    harness::Run run(cfg, policy);
    harness::StepTrace tr = run.finish();
    if (!tr.metrics.supported) {
        std::printf("%s unsupported on %s; nothing to attribute\n",
                    policy.c_str(), cfg.model.c_str());
        return 1;
    }
    session.syncDropCounter();

    const df::Graph &g = run.graph();
    printMetrics(tr.metrics);
    std::printf("\n%s",
                harness::buildStallReport(g, attr, audit, ropts).c_str());

    std::string why;
    if (!attr.crossCheckEvents(session.events(), &why))
        std::printf("event cross-check FAILED: %s\n", why.c_str());
    else if (!why.empty())
        std::printf("event cross-check: %s\n", why.c_str());

    if (!tensor_arg.empty()) {
        auto id = static_cast<std::uint32_t>(args.getU64("tensor", 0));
        std::printf("\n%s",
                    harness::auditHistory(g, audit, id).c_str());
    }

    if (!report_out.empty()) {
        std::ofstream os(report_out, std::ios::binary);
        if (!os)
            SENTINEL_FATAL("could not write '%s'", report_out.c_str());
        os << harness::stallReportJson(g, attr, audit, ropts);
        std::printf("report written to %s\n", report_out.c_str());
    }
    if (!trace_out.empty()) {
        telemetry::ChromeTraceOptions topts;
        topts.labeler = graphLabeler(g);
        topts.audit = &audit;
        topts.process_label = cfg.model + " [" + policy + "]";
        if (!telemetry::saveChromeTrace(session.events(), trace_out,
                                        topts))
            SENTINEL_FATAL("could not write '%s'", trace_out.c_str());
        std::printf("trace written to %s (%zu events, %llu dropped)\n",
                    trace_out.c_str(), session.events().size(),
                    static_cast<unsigned long long>(
                        session.events().dropped()));
    }
    return 0;
}

int
cmdCompare(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    int jobs = args.getInt("jobs", 1);
    const auto &policies = cfg.platform == harness::Platform::Gpu
                               ? harness::gpuPolicies()
                               : harness::cpuPolicies();
    std::vector<harness::SweepCell> cells;
    for (const auto &p : policies)
        cells.push_back({ cfg, p });
    for (const auto &m : harness::runSweep(cells, jobs))
        printMetrics(m);
    return 0;
}

/**
 * plan and profile build a healthy two-tier platform themselves;
 * reject the options they would otherwise silently ignore.
 */
void
requireHealthyTwoTier(const char *cmd, const harness::ExperimentConfig &cfg)
{
    if (cfg.tiers != 2)
        throw harness::ConfigError(strprintf(
            "%s: runs on the two-tier platform only (got --tiers %d)", cmd,
            cfg.tiers));
    if (!cfg.chaos.empty())
        throw harness::ConfigError(
            strprintf("%s: does not inject faults (--chaos given)", cmd));
}

int
cmdPlan(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    requireHealthyTwoTier("plan", cfg);
    df::Graph g = models::makeModel(cfg.model, cfg.batch);
    std::uint64_t fast =
        harness::fastTierBytes(cfg, g.peakMemoryBytes());
    core::RuntimeConfig rc =
        harness::platformConfig(cfg.platform, fast);
    prof::ProfileResult profile = core::profileStep(g, rc);

    core::PlannerInputs in;
    in.db = &profile.db;
    in.fast_capacity = fast;
    in.promote_bw = rc.migration.promote_bw;
    in.fast_read_bw = rc.fast.read_bw;
    in.slow_read_bw = rc.slow.read_bw;
    core::IntervalPlanner planner(in);
    auto result = planner.plan(fast * 3 / 5);

    Table t(strprintf("Planner candidates (%s, batch %d, S=%.1f MB, "
                      "RS=%.1f MB)",
                      cfg.model.c_str(), cfg.batch,
                      static_cast<double>(fast) / 1e6,
                      static_cast<double>(result.rs_bytes) / 1e6),
            { "MIL", "feasible", "max prefetch (MB)",
              "max working set (MB)", "est exposed (ms)",
              "Eq.2 (ms)", "chosen" });
    for (const auto &c : result.candidates) {
        t.row()
            .cell(c.mil)
            .cell(c.feasible ? "yes" : "no")
            .cell(static_cast<double>(c.max_prefetch) / 1e6, 1)
            .cell(static_cast<double>(c.max_working_set) / 1e6, 1)
            .cell(toMillis(c.est_exposed), 3)
            .cell(c.eq2_objective * 1e3, 3)
            .cell(c.mil == result.best.mil ? "<==" : "");
    }
    t.print(std::cout);

    // Offline offset assignment over the long-lived set — the tensors
    // Sentinel's co-allocation step lays out (`run --planner interval`
    // adopts exactly this map).
    std::string sname = args.get("solver", "greedy");
    if (sname != "greedy" && sname != "exhaustive") {
        std::fprintf(stderr,
                     "plan: unknown --solver '%s' (want greedy or "
                     "exhaustive)\n",
                     sname.c_str());
        return 1;
    }
    plan::Solver solver = sname == "exhaustive"
                              ? plan::Solver::Exhaustive
                              : plan::Solver::Greedy;
    std::vector<plan::PlanTensor> pts =
        plan::tensorsFromGraph(g, /*include_preallocated=*/false,
                               /*long_lived_only=*/true);
    plan::OffsetPlan layout = plan::assignOffsets(pts, solver);

    std::vector<std::size_t> order(pts.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (layout.offsets[a] != layout.offsets[b])
                      return layout.offsets[a] < layout.offsets[b];
                  return pts[a].id < pts[b].id;
              });
    std::size_t top = static_cast<std::size_t>(args.getInt("top", 32));
    Table m(strprintf("Offset map (%zu long-lived tensors, solver=%s)",
                      pts.size(), plan::solverName(layout.solver)),
            { "offset (KB)", "bytes (KB)", "first op", "last op",
              "tensor" });
    for (std::size_t i = 0; i < order.size() && i < top; ++i) {
        const plan::PlanTensor &pt = pts[order[i]];
        m.row()
            .cell(static_cast<double>(layout.offsets[order[i]]) / 1e3, 1)
            .cell(static_cast<double>(pt.bytes) / 1e3, 1)
            .cell(pt.first)
            .cell(pt.last)
            .cell(g.tensor(pt.id).name);
    }
    m.print(std::cout);
    if (pts.size() > top)
        std::printf("... %zu more tensors (--top N to widen)\n",
                    pts.size() - top);
    std::printf("layout: footprint %.2f MB, live peak %.2f MB, "
                "fragmentation %.1f%%\n",
                static_cast<double>(layout.footprint) / 1e6,
                static_cast<double>(layout.live_peak) / 1e6,
                layout.fragmentation() * 100.0);
    return 0;
}

int
cmdMaxBatch(const Args &args)
{
    std::string model = args.get("model", "resnet32");
    std::string policy = args.get("policy", "sentinel");
    int mem_mb = args.getInt("mem-mb", 0);
    std::uint64_t dev;
    if (mem_mb > 0) {
        dev = static_cast<std::uint64_t>(mem_mb) << 20;
    } else {
        df::Graph g = models::makeModel(
            model, models::modelSpec(model).small_batch);
        dev = mem::roundUpToPages(g.peakMemoryBytes() / 2);
    }
    int cap = args.getInt("cap", 1024);
    int jobs = args.getInt("jobs", 1);
    int b = harness::maxBatchSearch(model, policy, dev, cap, jobs);
    std::printf("%s with %s on %.1f MB of device memory: max batch %d\n",
                model.c_str(), policy.c_str(),
                static_cast<double>(dev) / 1e6, b);
    return 0;
}

int
cmdProfile(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    requireHealthyTwoTier("profile", cfg);
    std::string out = args.get("out", "");
    std::string in = args.get("in", "");

    if (!in.empty()) {
        // Reuse a persisted profile: plan and train without the
        // instrumented step, on the same platform and Sentinel options
        // as `run` (--fraction or --mem-mb, --platform, --mil,
        // --planner).
        prof::ProfileDatabase db = prof::loadProfile(in);
        harness::Run run(cfg, "sentinel", &db);
        auto stats = run.executor().run(cfg.steps);
        std::printf("trained %d steps from persisted profile: %.2f "
                    "ms/step steady (MIL=%d)\n",
                    cfg.steps, toMillis(stats.back().step_time),
                    run.sentinel()->migrationPlan().mil);
        return 0;
    }

    df::Graph g = models::makeModel(cfg.model, cfg.batch);
    core::RuntimeConfig rc = harness::platformConfig(
        cfg.platform, mem::roundUpToPages(g.peakMemoryBytes() / 5));
    prof::ProfileResult r = core::profileStep(g, rc);
    std::printf("profiled %s (batch %d): %zu tensors, slowdown %.1fx, "
                "memory overhead %.2f%%\n",
                cfg.model.c_str(), cfg.batch, r.db.numTensors(),
                r.profilingSlowdown(), 100.0 * r.memoryOverhead());
    if (!out.empty()) {
        if (!prof::saveProfile(r.db, out))
            SENTINEL_FATAL("could not write '%s'", out.c_str());
        std::printf("profile written to %s\n", out.c_str());
    }
    return 0;
}

const char *
channelName(sim::ChannelSel ch)
{
    switch (ch) {
      case sim::ChannelSel::Promote:
        return "promote";
      case sim::ChannelSel::Demote:
        return "demote";
      case sim::ChannelSel::Both:
        break;
    }
    return "both";
}

std::string
faultLabel(const sim::FaultEvent &ev)
{
    switch (ev.kind) {
      case sim::FaultKind::BwDegrade:
        return strprintf("bw x%.2g [%s]", ev.factor,
                         channelName(ev.channel));
      case sim::FaultKind::ChannelStall:
        return strprintf("stall %.3gms [%s]", toMillis(ev.duration),
                         channelName(ev.channel));
      case sim::FaultKind::CapacityShrink:
        return strprintf("fast x%.2g", ev.factor);
      case sim::FaultKind::ComputeJitter:
        return strprintf("jitter +-%.0f%%", 100.0 * ev.amplitude);
      case sim::FaultKind::TrafficDrift:
        return strprintf("traffic x%.2g", ev.factor);
    }
    return "?";
}

int
cmdChaos(const Args &args)
{
    harness::ExperimentConfig cfg = configFrom(args);
    if (cfg.chaos.empty())
        cfg.chaos = "bw:step=6,factor=0.4";
    // The report wants the trajectory on both sides of the fault, so
    // the step defaults are wider than run/compare's.
    cfg.steps = args.getInt("steps", 16);
    cfg.warmup = args.getInt("warmup", 10);

    sim::FaultSpec spec = sim::FaultSpec::parse(cfg.chaos);

    std::vector<std::string> policies =
        cfg.platform == harness::Platform::Gpu
            ? std::vector<std::string>{ "sentinel", "um", "swapadvisor" }
            : std::vector<std::string>{ "sentinel", "ial",
                                        "memory-mode" };

    std::vector<harness::StepTrace> traces;
    traces.reserve(policies.size());
    for (const auto &p : policies)
        traces.push_back(harness::runExperimentSteps(cfg, p));

    std::vector<std::string> headers = { "step", "fault" };
    for (const auto &p : policies)
        headers.push_back(p + " (ms)");
    Table t(strprintf("Degradation report (%s, batch %d, chaos '%s', "
                      "seed 0x%llx)",
                      cfg.model.c_str(), cfg.batch, cfg.chaos.c_str(),
                      static_cast<unsigned long long>(cfg.chaos_seed)),
            headers);
    for (int s = 0; s < cfg.steps; ++s) {
        std::string marks;
        for (const auto &ev : spec.events) {
            if (ev.step != s)
                continue;
            if (!marks.empty())
                marks += ", ";
            marks += faultLabel(ev);
        }
        t.row().cell(s).cell(marks);
        for (const auto &tr : traces) {
            if (s < static_cast<int>(tr.steps.size()))
                t.cell(toMillis(tr.steps[s].step_time), 2);
            else
                t.cell(tr.metrics.supported ? "oom" : "n/a");
        }
    }
    t.printWithCsv(std::cout);

    int first_fault = cfg.steps;
    for (const auto &ev : spec.events)
        first_fault = std::min(first_fault, ev.step);
    for (std::size_t i = 0; i < policies.size(); ++i) {
        const auto &steps = traces[i].steps;
        const harness::Metrics &m = traces[i].metrics;
        if (steps.empty()) {
            std::printf("%-12s did not complete (%s)\n",
                        policies[i].c_str(),
                        m.supported ? "infeasible" : "unsupported");
            continue;
        }
        double pre = 0.0;
        if (first_fault > 0 &&
            first_fault <= static_cast<int>(steps.size()))
            pre = toMillis(steps[first_fault - 1].step_time);
        double worst = 0.0;
        for (int s = first_fault;
             s < static_cast<int>(steps.size()); ++s)
            worst = std::max(worst, toMillis(steps[s].step_time));
        double final_ms = toMillis(steps.back().step_time);
        std::printf("%-12s pre-fault %8.2f ms  worst %8.2f ms  final "
                    "%8.2f ms (%.0f%% of pre-fault)",
                    policies[i].c_str(), pre, worst, final_ms,
                    pre > 0.0 ? 100.0 * final_ms / pre : 0.0);
        if (m.mil > 0)
            std::printf("  | divergence=%d replans=%d trial=%s",
                        m.divergence_events, m.replans,
                        m.trial_state.c_str());
        std::printf("\n");
    }
    return 0;
}

int
cmdReplay(const std::string &file, const Args &args)
{
    harness::FuzzCase fc = harness::FuzzCase::load(file);
    int jobs = args.getInt("jobs", 1);
    bool det = args.getInt("determinism", 1) != 0;
    harness::OracleReport rep = fc.run(jobs, det);
    std::printf("%s", rep.summary().c_str());
    return rep.ok() ? 0 : 2;
}

int
cmdServe(const Args &args)
{
    server::ServerConfig cfg;
    cfg.platform = args.get("platform", "cpu") == "gpu"
                       ? harness::Platform::Gpu
                       : harness::Platform::Optane;
    cfg.fast_bytes =
        static_cast<std::uint64_t>(args.getInt("node-mb", 64)) << 20;
    cfg.headroom = args.getDouble("headroom", 1.0);
    cfg.demand_fault_boost = args.getDouble("boost", 2.0);
    cfg.jobs = args.getInt("jobs", 1);
    cfg.default_steps = args.getInt("steps", 12);
    cfg.default_warmup = args.getInt("warmup", 4);

    std::string colo = args.get("colo", "");
    std::vector<server::JobSpec> specs;
    if (!colo.empty()) {
        specs = server::JobSpec::parseList(colo);
    } else {
        int mix = args.getInt("mix", 3);
        std::uint64_t seed = args.getU64("seed", 1);
        specs = server::randomColocation(seed, mix);
        std::printf("random co-location (seed %llu):\n",
                    static_cast<unsigned long long>(seed));
        for (const auto &s : specs)
            std::printf("  %s\n", s.toSpecString().c_str());
    }

    if (args.getInt("oracle", 0) != 0) {
        server::ServerOracleOptions opts;
        opts.jobs = cfg.jobs > 1 ? cfg.jobs : 4;
        harness::OracleReport rep =
            server::runServerOracle(cfg, specs, opts);
        std::printf("%s", rep.summary().c_str());
        return rep.ok() ? 0 : 2;
    }

    // The live observability plane: --scrape-out streams deterministic
    // OpenMetrics frames, --listen serves the final exposition over
    // HTTP (for `sentinel-cli top --endpoint` and curl).
    std::string scrape_out = args.get("scrape-out", "");
    bool listen = args.has("listen");
    bool want_obs = !scrape_out.empty() || listen ||
                    args.getInt("obs", 0) != 0;

    server::ScrapeConfig scfg;
    scfg.slo.target_factor = args.getDouble("slo-target", 1.5);
    scfg.slo.error_budget = args.getDouble("slo-budget", 0.1);
    scfg.slo.burn_threshold = args.getDouble("burn-threshold", 2.0);
    scfg.slo.window =
        static_cast<std::size_t>(args.getInt("burn-window", 16));
    scfg.snapshot_every = args.getInt("scrape-every", 4);

    std::optional<telemetry::Session> session;
    telemetry::AuditLog audit;
    std::optional<std::ofstream> snap;
    std::optional<server::ObservabilityPlane> obs;
    if (want_obs) {
        session.emplace();
        if (!scrape_out.empty()) {
            snap.emplace(scrape_out, std::ios::binary);
            if (!*snap)
                SENTINEL_FATAL("could not write '%s'",
                               scrape_out.c_str());
        }
        obs.emplace(scfg, &*session, &audit,
                    snap ? &*snap : nullptr);
        cfg.obs = &*obs;
        cfg.telemetry = &*session;
    }

    server::ServerResult r = server::runServer(cfg, specs);
    std::printf("%s", r.summary().c_str());

    if (obs) {
        std::printf("observability: %llu SLO burn alert(s), %llu "
                    "violation step(s)\n",
                    static_cast<unsigned long long>(obs->alerts()),
                    [&] {
                        unsigned long long v = 0;
                        for (std::size_t j = 0; j < obs->numJobs(); ++j)
                            v += obs->job(j).violations;
                        return v;
                    }());
        if (!scrape_out.empty())
            std::printf("scrape: %d frame(s) written to %s\n",
                        obs->snapshots(), scrape_out.c_str());
    }

    if (listen) {
        server::MetricsHttpServer http;
        if (!http.listen(args.getInt("listen", 0)))
            SENTINEL_FATAL("%s", http.error().c_str());
        int count = args.getInt("listen-count", 0);
        // The body is rendered per request so the endpoint always
        // reflects the (final, settled) plane state.
        std::printf("serving /metrics on http://127.0.0.1:%d%s\n",
                    http.port(),
                    count > 0
                        ? strprintf(" for %d request(s)", count).c_str()
                        : " (ctrl-c to stop)");
        std::fflush(stdout);
        http.serve([&] { return obs->renderString(); }, count);
    }
    return 0;
}

int
cmdTop(const Args &args)
{
    std::string endpoint = args.get("endpoint", "");
    std::string snapshot = args.get("snapshot", "");
    if (endpoint.empty() == snapshot.empty())
        SENTINEL_FATAL(
            "top needs exactly one of --endpoint HOST:PORT or "
            "--snapshot FILE");

    std::string text;
    if (!endpoint.empty()) {
        std::size_t colon = endpoint.rfind(':');
        if (colon == std::string::npos)
            SENTINEL_FATAL("--endpoint wants HOST:PORT, got '%s'",
                           endpoint.c_str());
        std::string host = endpoint.substr(0, colon);
        int port = std::atoi(endpoint.c_str() + colon + 1);
        std::string err;
        if (!server::httpGet(host, port, "/metrics", text, &err))
            SENTINEL_FATAL("scrape failed: %s", err.c_str());
    } else {
        std::ifstream is(snapshot, std::ios::binary);
        if (!is)
            SENTINEL_FATAL("could not read '%s'", snapshot.c_str());
        std::ostringstream buf;
        buf << is.rdbuf();
        text = buf.str();
    }

    // A snapshot file holds a sequence of frames; default to the most
    // recent, --frame K (1-based) rewinds.
    std::vector<std::string> frames =
        telemetry::splitScrapeFrames(text);
    if (frames.empty())
        SENTINEL_FATAL("no OpenMetrics frame found (missing '# EOF')");
    int frame = args.getInt("frame", static_cast<int>(frames.size()));
    if (frame < 1 || frame > static_cast<int>(frames.size()))
        SENTINEL_FATAL("--frame %d out of range (1..%zu)", frame,
                       frames.size());

    std::vector<telemetry::OmSample> samples;
    std::string err;
    if (!telemetry::parseOpenMetrics(
            frames[static_cast<std::size_t>(frame - 1)], samples, &err))
        SENTINEL_FATAL("bad exposition: %s", err.c_str());
    if (frames.size() > 1)
        std::printf("frame %d of %zu\n", frame, frames.size());
    std::printf("%s", server::renderTopFrame(samples).c_str());
    return 0;
}

int
cmdMetricsDiff(const std::string &file_a, const std::string &file_b,
               const Args &args)
{
    double threshold = args.getDouble("threshold", 10.0);
    std::vector<telemetry::MetricRow> a =
        telemetry::loadMetricsDump(file_a);
    std::vector<telemetry::MetricRow> b =
        telemetry::loadMetricsDump(file_b);

    auto pct = [](double from, double to) {
        if (from == 0.0)
            return to == 0.0 ? 0.0 : 100.0;
        return 100.0 * (to - from) / from;
    };

    Table t(strprintf("metrics diff: %s -> %s (threshold %.1f%%)",
                      file_a.c_str(), file_b.c_str(), threshold),
            { "metric", "field", "a", "b", "change_pct", "flag" });
    int flagged = 0;
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        // Both dumps are name-sorted: a linear merge finds adds,
        // drops, and common rows in one pass.
        if (j >= b.size() || (i < a.size() && a[i].name < b[j].name)) {
            t.row().cell(a[i].name).cell("-").cell("present").cell(
                "missing");
            t.cell("-").cell("REMOVED");
            ++flagged;
            ++i;
            continue;
        }
        if (i >= a.size() || b[j].name < a[i].name) {
            t.row().cell(b[j].name).cell("-").cell("missing").cell(
                "present");
            t.cell("-").cell("ADDED");
            ++flagged;
            ++j;
            continue;
        }
        const telemetry::MetricRow &ra = a[i];
        const telemetry::MetricRow &rb = b[j];
        struct Field {
            const char *name;
            std::uint64_t va, vb;
        } fields[] = {
            { "count", ra.count, rb.count }, { "sum", ra.sum, rb.sum },
            { "p50", ra.p50, rb.p50 },       { "p99", ra.p99, rb.p99 },
            { "max", ra.max, rb.max },
        };
        for (const Field &f : fields) {
            double change = pct(static_cast<double>(f.va),
                                static_cast<double>(f.vb));
            bool over = change > threshold || change < -threshold;
            if (f.va == f.vb && !over)
                continue; // identical fields stay out of the report
            t.row()
                .cell(ra.name)
                .cell(f.name)
                .cell(f.va)
                .cell(f.vb)
                .cell(change, 1)
                .cell(over ? "OVER" : "");
            if (over)
                ++flagged;
        }
        ++i;
        ++j;
    }
    if (t.numRows() == 0) {
        std::printf("no differences (%zu metrics compared)\n",
                    a.size());
        return 0;
    }
    t.print(std::cout);
    std::printf("%d flagged difference(s)%s\n", flagged,
                flagged ? "" : " above threshold");
    return flagged ? 2 : 0;
}

int
cmdModels()
{
    Table t("Model zoo", { "name", "small batch", "large batch",
                           "layers", "peak (small batch)" });
    for (const auto &spec : models::modelZoo()) {
        df::Graph g = models::makeModel(spec.name, spec.small_batch);
        t.row()
            .cell(spec.name)
            .cell(spec.small_batch)
            .cell(spec.large_batch)
            .cell(g.numLayers())
            .cell(formatBytes(
                static_cast<double>(g.peakMemoryBytes())));
    }
    t.print(std::cout);
    return 0;
}

void
usage()
{
    std::printf(
        "sentinel-cli <command> [--key value | --key=value ...]\n\n"
        "commands:\n"
        "  run       --model M --batch N --policy P [--platform "
        "cpu|gpu]\n"
        "            [--fraction F | --mem-mb M] [--steps S] [--mil K]\n"
        "            [--planner greedy|interval] (sentinel co-alloc "
        "solver)\n"
        "            [--tiers N] [--mid-capacity MB] [--mid-bw GB/s]\n"
        "            (N-tier chain; 3+ inserts middle tiers between\n"
        "             fast and slow, staged-prefetch path)\n"
        "            [--trace-out FILE.json] [--metrics-out FILE.csv]\n"
        "            (run is the default command when the first arg\n"
        "             starts with --)\n"
        "  report    stall attribution + decision audit for one run:\n"
        "            per-interval breakdown, top stall offenders with\n"
        "            the policy decision that caused each, exactness\n"
        "            check against StepStats  [--top K] [--jobs N]\n"
        "            [--tensor ID] [--report-out FILE.json]\n"
        "            [--trace-out FILE.json]\n"
        "  compare   same options; runs every policy of the platform\n"
        "            [--jobs N] fans the policies out over N threads\n"
        "  plan      print the interval planner's candidate table plus\n"
        "            the offline offset map of the long-lived tensors\n"
        "            (footprint / live peak / fragmentation)\n"
        "            [--solver greedy|exhaustive] [--top N]\n"
        "  maxbatch  --model M --policy P [--mem-mb M] [--cap N]\n"
        "            [--jobs N] probes the batch ladder in parallel\n"
        "  profile   --model M --batch N [--out FILE | --in FILE]\n"
        "            (--in trains with the run options: --fraction,\n"
        "             --mem-mb, --platform, --mil, --planner)\n"
        "  chaos     fault-injection degradation report: sentinel vs.\n"
        "            the platform baselines under --chaos SPEC, with\n"
        "            the per-step time trajectory around each fault\n"
        "  replay    FILE.sentinelrepro [--jobs N] [--determinism 0|1]\n"
        "            replay a fuzz case through the cross-policy\n"
        "            differential oracle; exit 0 when every invariant\n"
        "            holds, 2 on violations, 1 on a rejected config\n"
        "  serve     co-locate jobs on one simulated HM node:\n"
        "            --colo 'model=M quota=F [prio=K] [arrival-ms=T]\n"
        "                    [policy=P] [batch=B] [chaos=SPEC]; ...'\n"
        "            or --mix N --seed S for a random co-location\n"
        "            [--node-mb M] [--platform cpu|gpu] [--jobs N]\n"
        "            [--steps S] [--warmup W] [--headroom F]\n"
        "            [--boost F]; --oracle 1 re-verifies the run's\n"
        "            invariants instead (exit 2 on violations)\n"
        "            observability: [--scrape-out FILE]\n"
        "            [--scrape-every N] [--slo-target F]\n"
        "            [--slo-budget F] [--burn-threshold F]\n"
        "            [--burn-window N] [--listen PORT (0=ephemeral)]\n"
        "            [--listen-count N (0=forever)] [--obs 1]\n"
        "  top       --endpoint HOST:PORT | --snapshot FILE "
        "[--frame K]\n"
        "            render one per-job scrape frame as a table\n"
        "  metrics-diff A B [--threshold PCT]  compare two metrics\n"
        "            dumps (JSON or CSV); exit 2 when any field moved\n"
        "            more than PCT percent or a metric was added or\n"
        "            removed\n"
        "  models    list the model zoo\n\n"
        "fault injection: --chaos SPEC (and --chaos-seed N) perturb the\n"
        "training run of any command but plan and profile (which run\n"
        "on a healthy two-tier platform and reject --chaos and\n"
        "--tiers other than 2), e.g.\n"
        "  --chaos 'bw:step=6,factor=0.5;stall:step=8,ms=2'\n"
        "clauses: bw:step=,factor=[,ch=promote|demote|both]\n"
        "         stall:step=,ms=|us=[,ch=...]\n"
        "         shrink:step=,factor=[,tier=T]\n"
        "         jitter:step=,amp=              drift:step=,factor=\n\n"
        "telemetry: --trace-out writes a Chrome-trace JSON (load it in\n"
        "chrome://tracing or https://ui.perfetto.dev); --metrics-out\n"
        "writes counters/histograms as CSV (.csv) or JSON.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    std::string cmd = argv[1];
    try {
        // "sentinel-cli --model resnet32 --trace-out=step.json" is
        // shorthand for the run command.
        if (cmd.rfind("--", 0) == 0) {
            Args args(argc, argv, 1);
            return cmdRun(args);
        }
        if (cmd == "metrics-diff") {
            // Two positional dump files, then --key value options.
            if (argc < 4 || std::string(argv[2]).rfind("--", 0) == 0 ||
                std::string(argv[3]).rfind("--", 0) == 0)
                SENTINEL_FATAL(
                    "metrics-diff needs two dump files: "
                    "sentinel-cli metrics-diff a.json b.json");
            Args dargs(argc, argv, 4);
            return cmdMetricsDiff(argv[2], argv[3], dargs);
        }
        if (cmd == "replay") {
            // The file rides as the first positional operand
            // (replay FILE [--jobs N]) or as --file FILE.
            if (argc >= 3 && std::string(argv[2]).rfind("--", 0) != 0) {
                Args rargs(argc, argv, 3);
                return cmdReplay(argv[2], rargs);
            }
            Args rargs(argc, argv, 2);
            std::string file = rargs.get("file", "");
            if (file.empty())
                SENTINEL_FATAL("replay needs a .sentinelrepro file");
            return cmdReplay(file, rargs);
        }
        Args args(argc, argv, 2);
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "report")
            return cmdReport(args);
        if (cmd == "compare")
            return cmdCompare(args);
        if (cmd == "plan")
            return cmdPlan(args);
        if (cmd == "maxbatch")
            return cmdMaxBatch(args);
        if (cmd == "profile")
            return cmdProfile(args);
        if (cmd == "chaos")
            return cmdChaos(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "top")
            return cmdTop(args);
        if (cmd == "models")
            return cmdModels();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    usage();
    return 1;
}
