/**
 * @file
 * perfbench: the measuring program behind `python3 perfbench/run.py`.
 *
 * One run measures one workload for a fixed host-time budget.  It
 * assembles each cell from the public calls of each layer —
 * models::makeModel, prof::Profiler::profile, policy + memory system +
 * executor construction, the first Executor::runStep, then the
 * harness's warmup and a fixed number of steady runStep()s — times
 * those calls from outside and reads each layer's public counters
 * after them.  Cells repeat back to back until the budget is spent;
 * every cell simulates the same steps, so simulated metrics and work
 * counters are identical across cells, runs and machines, while host
 * times are reported as medians over cells and steps.
 *
 * Before the timed loop the run checks simulated output once: the
 * harness default cell (runExperimentSteps) is run, its metrics are
 * printed for run.py to compare against the committed references,
 * and every timed cell's first StepStats must equal the harness's.
 *
 * With --trace 1 every other cell records spans (name, start, end,
 * parent, cell id) around the same calls; spans stay in memory and are
 * written once, at exit, to --spans-out.  Untraced cells in the same
 * run give the tracing overhead.
 *
 * The last stdout line is one JSON object for run.py; everything
 * before it is the human-readable table.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/ial.hh"
#include "common/alloc_hook.hh"
#include "core/sentinel_policy.hh"
#include "dataflow/executor.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "mem/hm.hh"
#include "mem/page.hh"
#include "models/registry.hh"
#include "profile/profiler.hh"
#include "telemetry/attribution.hh"
#include "telemetry/audit.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/session.hh"
#include "telemetry/timeseries.hh"

using namespace sentinel;

namespace {

using Clock = std::chrono::steady_clock;

/** Steps the harness default cell runs, and how many it warms up. */
constexpr int kCheckSteps = 9;
constexpr int kWarmup = 6;

/** Ring size `sentinel-cli report` gives its session. */
constexpr std::size_t kReportRing = 1u << 18;

struct Workload {
    const char *name;
    const char *model;
    const char *policy;
    int tiers;
    /** Telemetry session, step board, attribution and audit attached;
     *  the cell ends with the report exports. */
    bool observed;
    /** Steady steps per cell, after the warmup.  Fixed per workload so
     *  every cell simulates the same window. */
    int steady_steps;
};

// Why each workload exists is in README.md.
const Workload kWorkloads[] = {
    { "resnet32-2tier", "resnet32", "sentinel", 2, false, 60 },
    { "llm-medium-3tier", "llm:medium", "sentinel", 3, false, 8 },
    { "resnet32-ial", "resnet32", "ial", 2, false, 30 },
    { "resnet32-observed", "resnet32", "sentinel", 2, true, 60 },
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** The harness default cell for @p w: zoo batch, Optane, 20% fast
 *  tier, 9 steps with 6 warmup. */
harness::ExperimentConfig
harnessConfig(const Workload &w)
{
    harness::ExperimentConfig cfg;
    cfg.model = w.model;
    cfg.batch = models::findModelSpec(w.model)->small_batch;
    cfg.tiers = w.tiers;
    return cfg;
}

std::int64_t
nsSince(Clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
}

// --- Spans -------------------------------------------------------------

struct Span {
    const char *name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent; ///< index into the span list; -1 for a cell root
    int cell;   ///< spans of one cell share this id
};

/**
 * In-memory span recorder.  Disabled, begin() returns -1 and end()
 * does nothing, so untraced cells run the same code minus the records.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    void
    startCell(bool on, int cell, std::size_t expected_spans)
    {
        on_ = on;
        cell_ = cell;
        if (on)
            spans_.reserve(spans_.size() + expected_spans);
    }

    int
    begin(const char *name, int parent)
    {
        if (!on_)
            return -1;
        spans_.push_back({ name, nsSince(origin_), 0, parent, cell_ });
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    end(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].end_ns = nsSince(origin_);
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    bool on_ = false;
    int cell_ = 0;
};

// --- Host-speed calibration -----------------------------------------------

/**
 * A shared host's speed can swing up to 2x for seconds to minutes at a
 * time: neighbours contend for the shared L3 cache and memory, and
 * every host time in a run moves with them.  This fixed kernel — hash
 * map inserts and lookups, then a sort — slows down the same way.  So
 * each cell's host times are scaled by kRefCalibrationMs over the
 * kernel's time around that cell, giving host time at the speed of a
 * quiet phase (when the kernel takes about kRefCalibrationMs).  On a
 * 4-core Xeon box, scaled medians of sets of runs taken in different
 * phases stayed within 14% of each other on every workload, while raw
 * step time moved up to 1.9x (README.md).  The kernel is the
 * benchmark's own code: no change to the simulator moves it.  The
 * table prints the raw medians and the kernel's median beside.
 */
constexpr double kRefCalibrationMs = 35.0;

/** One run of the calibration kernel, in host ms. */
double
calibrationMs()
{
    const Clock::time_point t0 = Clock::now();
    std::uint32_t x = 1;
    auto next = [&x] { return x = x * 1664525u + 1013904223u; };
    std::uint64_t acc = 0;
    {
        std::unordered_map<std::uint32_t, std::uint32_t> map;
        map.reserve(1u << 17);
        for (std::uint32_t i = 0; i < 200000; ++i)
            map[next() >> 14] += i;
        for (int i = 0; i < 200000; ++i) {
            auto it = map.find(next() >> 14);
            if (it != map.end())
                acc += it->second;
        }
        std::vector<std::uint32_t> v(200000);
        for (std::uint32_t &e : v)
            e = next();
        std::sort(v.begin(), v.end());
        acc += v[1000];
    }
    const double ms = static_cast<double>(nsSince(t0)) * 1e-6;
    volatile std::uint64_t sink = acc; // keep the work observable
    (void)sink;
    return ms;
}

// --- One cell ----------------------------------------------------------

/** Simulated output and work counts of one cell's steady window.
 *  Equal across cells of a workload (checked). */
struct SimCounts {
    Tick step_time = 0;
    Tick exposed = 0;
    std::uint64_t stalls = 0;
    std::uint64_t migrated_bytes = 0;
    std::uint64_t peak_fast = 0;
    std::uint64_t pages_moved = 0;
    std::uint64_t transfers = 0;
    Tick link_busy = 0;
    std::uint64_t profile_faults = 0;
    int mil = 0;
    int case3 = 0;
    std::uint64_t events = 0;
    std::uint64_t events_dropped = 0;
    std::uint64_t audit_records = 0;

    bool
    operator==(const SimCounts &o) const = default;
};

struct CellResult {
    bool traced = false;
    bool failed = false;
    std::string error;

    /** Calibration kernel ms around the cell (mean of the runs just
     *  before and just after it). */
    double cal_ms = kRefCalibrationMs;

    std::int64_t total_ns = 0;
    std::int64_t setup_ns = 0; ///< cell start to end of first step
    std::vector<std::int64_t> step_ns; ///< steady steps
    int steps_run = 0;

    std::uint64_t setup_allocs = 0;
    std::uint64_t steady_allocs = 0;

    SimCounts sim;
    std::vector<df::StepStats> first_steps; ///< first kCheckSteps
};

bool
sameStats(const df::StepStats &a, const df::StepStats &b)
{
    return a.step == b.step && a.step_time == b.step_time &&
           a.compute_time == b.compute_time && a.mem_time == b.mem_time &&
           a.exposed_migration == b.exposed_migration &&
           a.fault_overhead == b.fault_overhead &&
           a.recompute_time == b.recompute_time &&
           a.policy_time == b.policy_time && a.bytes_fast == b.bytes_fast &&
           a.bytes_slow == b.bytes_slow &&
           a.slow_bytes_by_kind == b.slow_bytes_by_kind &&
           a.promoted_bytes == b.promoted_bytes &&
           a.demoted_bytes == b.demoted_bytes &&
           a.peak_fast_used == b.peak_fast_used &&
           a.peak_tier_used == b.peak_tier_used &&
           a.num_stalls == b.num_stalls;
}

bool
sameSteps(const std::vector<df::StepStats> &a,
          const std::vector<df::StepStats> &b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), sameStats);
}

struct LinkTotals {
    std::uint64_t transfers = 0;
    Tick busy = 0;
};

LinkTotals
linkTotals(const mem::HeterogeneousMemory &hm)
{
    LinkTotals t;
    for (unsigned l = 0; l < hm.numLinks(); ++l)
        for (bool up : { true, false }) {
            const sim::BandwidthChannel &ch = hm.linkChannel(l, up);
            t.transfers += ch.numTransfers();
            t.busy += ch.busyTime();
        }
    return t;
}

std::uint64_t
pagesMoved(const mem::HeterogeneousMemory &hm)
{
    return hm.stats().promoted_pages + hm.stats().demoted_pages;
}

/** Names ops and prefetch targets in the exported trace, as
 *  `sentinel-cli report` does. */
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

/** Optional observers of the observed workload, as the harness and
 *  `sentinel-cli report` attach them. */
struct Observers {
    telemetry::Session session{ { true, kReportRing } };
    telemetry::StepBoard board;
    telemetry::AttributionEngine attr;
    telemetry::AuditLog audit;

    Observers() { session.attachStepBoard(&board); }
};

void
runCell(const Workload &w, const harness::ExperimentConfig &cfg,
        Tracer &tr, CellResult &r)
{
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t allocs0 = common::allocCount();
    const int root = tr.begin("cell", -1);

    int sp = tr.begin("models.build", root);
    df::Graph graph = models::makeModel(cfg.model, cfg.batch);
    tr.end(sp);

    const std::uint64_t fast_bytes = mem::roundUpToPages(
        static_cast<std::uint64_t>(
            static_cast<double>(graph.peakMemoryBytes()) *
            cfg.fast_fraction));
    const std::uint64_t mid_bytes =
        cfg.tiers >= 3 ? mem::roundUpToPages(static_cast<std::uint64_t>(
                             static_cast<double>(fast_bytes) *
                             cfg.mid_fraction))
                       : 0;
    const core::RuntimeConfig rc = harness::platformConfig(
        cfg.platform, fast_bytes, cfg.tiers, mid_bytes, cfg.mid_bw);

    std::optional<prof::ProfileResult> profile;
    const bool sentinel = std::strcmp(w.policy, "sentinel") == 0;
    if (sentinel) {
        sp = tr.begin("profile.profile", root);
        mem::HeterogeneousMemory prof_hm(rc.tierChain(), rc.linkChain());
        prof::Profiler profiler(rc.profiler);
        profile = profiler.profile(graph, prof_hm, rc.exec);
        tr.end(sp);
        r.sim.profile_faults = static_cast<std::uint64_t>(
            profile->profiling_step.fault_overhead /
            rc.profiler.fault_cost);
    }

    sp = tr.begin("core.construct", root);
    std::unique_ptr<df::MemoryPolicy> pol;
    core::SentinelPolicy *spol = nullptr;
    if (sentinel) {
        auto p = std::make_unique<core::SentinelPolicy>(profile->db,
                                                        cfg.sentinel);
        spol = p.get();
        pol = std::move(p);
    } else {
        pol = std::make_unique<baselines::IalPolicy>();
    }
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    df::Executor ex(graph, hm, rc.exec, *pol);
    std::unique_ptr<Observers> obs;
    if (w.observed) {
        obs = std::make_unique<Observers>();
        hm.setTelemetry(&obs->session);
        ex.setTelemetry(&obs->session);
        ex.setAttribution(&obs->attr);
        hm.setAttribution(&obs->attr);
        if (spol) {
            spol->setTelemetry(&obs->session);
            spol->setAudit(&obs->audit);
        }
    }
    tr.end(sp);

    r.first_steps.reserve(kCheckSteps);
    sp = tr.begin("core.first_step", root);
    r.first_steps.push_back(ex.runStep());
    tr.end(sp);
    r.setup_ns = nsSince(t0);
    r.setup_allocs = common::allocCount() - allocs0;

    sp = tr.begin("dataflow.warmup", root);
    for (int i = 1; i < kWarmup; ++i)
        r.first_steps.push_back(ex.runStep());
    tr.end(sp);

    const LinkTotals links0 = linkTotals(hm);
    const std::uint64_t pages0 = pagesMoved(hm);
    const std::uint64_t events0 =
        obs ? obs->session.events().totalEmitted() : 0;
    r.step_ns.reserve(static_cast<std::size_t>(w.steady_steps));

    const int loop = tr.begin("dataflow.steady", root);
    const std::uint64_t allocs1 = common::allocCount();
    for (int i = 0; i < w.steady_steps; ++i) {
        const int step_span = tr.begin("dataflow.step", loop);
        const Clock::time_point s0 = Clock::now();
        const df::StepStats s = ex.runStep();
        r.step_ns.push_back(nsSince(s0));
        tr.end(step_span);
        if (r.first_steps.size() < kCheckSteps)
            r.first_steps.push_back(s);
        r.sim.step_time += s.step_time;
        r.sim.exposed += s.exposed_migration;
        r.sim.stalls += s.num_stalls;
        r.sim.migrated_bytes += s.promoted_bytes + s.demoted_bytes;
        r.sim.peak_fast = std::max(r.sim.peak_fast, s.peak_fast_used);
    }
    r.steady_allocs = common::allocCount() - allocs1;
    tr.end(loop);
    r.steps_run = kWarmup + w.steady_steps;

    const LinkTotals links1 = linkTotals(hm);
    r.sim.transfers = links1.transfers - links0.transfers;
    r.sim.link_busy = links1.busy - links0.busy;
    r.sim.pages_moved = pagesMoved(hm) - pages0;
    if (spol) {
        r.sim.mil = spol->migrationPlan().mil;
        r.sim.case3 = spol->case3Events();
    }

    std::string trace, report;
    if (obs) {
        sp = tr.begin("telemetry.export", root);
        obs->session.syncDropCounter();
        telemetry::ChromeTraceOptions topts;
        topts.labeler = graphLabeler(graph);
        topts.audit = &obs->audit;
        topts.process_label = cfg.model + " [" + w.policy + "]";
        trace = telemetry::chromeTraceJson(obs->session.events(), topts);
        report = harness::stallReportJson(graph, obs->attr, obs->audit, {});
        tr.end(sp);
    }
    tr.end(root);
    r.total_ns = nsSince(t0);

    // Untimed: the observed cell's own checks.
    if (obs) {
        r.sim.events = obs->session.events().totalEmitted() - events0;
        r.sim.events_dropped = obs->session.events().dropped();
        r.sim.audit_records = obs->audit.size();
        std::string why;
        if (trace.empty() || report.empty()) {
            r.failed = true;
            r.error = "empty trace or stall-report export";
        } else if (!obs->attr.crossCheckEvents(obs->session.events(),
                                               &why)) {
            r.failed = true;
            r.error = "attribution/event cross-check failed: " + why;
        }
    }
}

// --- Statistics ----------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p q (0..100) of sorted @p v. */
double
percentile(const std::vector<double> &sorted, double q)
{
    std::size_t n = sorted.size();
    auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
    return sorted[std::clamp<std::size_t>(rank, 1, n) - 1];
}

/** Highest percentile of the ladder with at least ten samples above
 *  it (falls back to the median when there are fewer than 20). */
double
tailPercentile(std::size_t n)
{
    const double ladder[] = { 99.9, 99.0, 95.0, 90.0, 75.0 };
    for (double q : ladder)
        if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0)
            return q;
    return 50.0;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool ran = true; ///< false: the layer does not run on this workload
};

/** Factor that takes @p c's host times to reference speed. */
double
speedFactor(const CellResult &c)
{
    return kRefCalibrationMs / c.cal_ms;
}

/** Host-time medians over a set of cells, at reference speed (raw_*
 *  and cal_ms are as measured). */
struct HostSummary {
    double setup_s = 0.0;
    double step_ms = 0.0;
    double steps_per_s = 0.0;
    double cell_ms = 0.0;
    double tail_ms = 0.0;
    double tail_q = 0.0;
    std::size_t steps = 0;
    double raw_setup_s = 0.0;
    double raw_step_ms = 0.0;
    double cal_ms = 0.0;
};

HostSummary
summarize(const std::vector<const CellResult *> &cells)
{
    HostSummary h;
    if (cells.empty())
        return h;
    std::vector<double> setup, total, rate, steps, raw_setup, raw_steps, cal;
    for (const CellResult *c : cells) {
        const double f = speedFactor(*c);
        setup.push_back(static_cast<double>(c->setup_ns) * 1e-9 * f);
        total.push_back(static_cast<double>(c->total_ns) * 1e-6 * f);
        rate.push_back(c->steps_run * 1e3 / total.back());
        raw_setup.push_back(static_cast<double>(c->setup_ns) * 1e-9);
        cal.push_back(c->cal_ms);
        for (std::int64_t ns : c->step_ns) {
            steps.push_back(static_cast<double>(ns) * 1e-6 * f);
            raw_steps.push_back(static_cast<double>(ns) * 1e-6);
        }
    }
    h.setup_s = median(setup);
    h.cell_ms = median(total);
    h.steps_per_s = median(rate);
    std::sort(steps.begin(), steps.end());
    h.steps = steps.size();
    h.step_ms = median(steps);
    h.tail_q = tailPercentile(steps.size());
    h.tail_ms = percentile(steps, h.tail_q);
    h.raw_setup_s = median(raw_setup);
    h.raw_step_ms = median(raw_steps);
    h.cal_ms = median(cal);
    return h;
}

/** Median over traced cells of each layer's self time (span duration
 *  minus the part its child spans cover), in ms at reference speed. */
std::vector<std::pair<std::string, double>>
selfTimes(const std::vector<Span> &spans,
          const std::vector<CellResult> &cells)
{
    std::vector<std::int64_t> child(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;

    // Self times by span name: one sample per cell for set-up layers,
    // one per step for dataflow.step.
    std::vector<std::pair<std::string, std::vector<double>>> per;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto it = std::find_if(per.begin(), per.end(), [&](auto &p) {
            return p.first == s.name;
        });
        if (it == per.end()) {
            per.push_back({ s.name, {} });
            it = per.end() - 1;
        }
        it->second.push_back(
            static_cast<double>(s.end_ns - s.start_ns - child[i]) * 1e-6 *
            speedFactor(cells[static_cast<std::size_t>(s.cell)]));
    }
    std::vector<std::pair<std::string, double>> out;
    for (auto &[name, v] : per)
        out.push_back({ name, median(v) });
    return out;
}

// --- Output --------------------------------------------------------------

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            o += ' ';
        else
            o += c;
    }
    return o + "\"";
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string o = "{";
    for (std::size_t i = 0; i < ms.size(); ++i)
        o += (i ? ", " : "") + jsonStr(ms[i].name) + ": {\"value\": " +
             jsonNum(ms[i].value) + ", \"unit\": " + jsonStr(ms[i].unit) +
             "}";
    return o + "}";
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-36s %16.6f %-7s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.ran ? "" : " (layer not run)");
}

bool
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    // Chrome trace format: one complete event per span, tid = cell id.
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "") << "{\"name\": " << jsonStr(s.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.cell
           << ", \"ts\": " << jsonNum(static_cast<double>(s.start_ns) * 1e-3)
           << ", \"dur\": "
           << jsonNum(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

/** Peak resident memory of the process so far, in MB. */
double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seconds S "
                 "[--trace 0|1] [--seed N] [--spans-out FILE]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spans_out, seed = "0";
    double seconds = 0.0;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seconds")
            seconds = std::atof(v.c_str());
        else if (a == "--trace")
            traced = v == "1";
        else if (a == "--seed")
            seed = v;
        else if (a == "--spans-out")
            spans_out = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    const Workload *w = findWorkload(workload);
    if (!w)
        usage(("unknown workload '" + workload + "'").c_str());
    if (!(seconds > 0.0))
        usage("--seconds must be positive");

    // --- Simulated-output check (untimed) ---------------------------------
    const harness::ExperimentConfig cfg = harnessConfig(*w);
    std::vector<std::string> errors;
    harness::StepTrace ref;
    try {
        ref = harness::runExperimentSteps(cfg, w->policy);
        if (w->observed) {
            // Telemetry must not perturb simulated time.
            Observers o;
            harness::ExperimentConfig ocfg = cfg;
            ocfg.telemetry = &o.session;
            ocfg.attribution = &o.attr;
            ocfg.audit = &o.audit;
            harness::StepTrace obs = harness::runExperimentSteps(ocfg,
                                                                 w->policy);
            if (!sameSteps(obs.steps, ref.steps))
                errors.push_back("observed harness cell differs from the "
                                 "plain one");
        }
    } catch (const std::exception &e) {
        errors.push_back(std::string("harness cell threw: ") + e.what());
    }
    if (errors.empty() &&
        !(ref.metrics.supported && ref.metrics.feasible &&
          ref.steps.size() == kCheckSteps))
        errors.push_back("harness cell unsupported or infeasible");
    const bool check_ok = errors.empty();

    // The check is one harness default cell (two on the observed
    // workload) in a fresh process: its peak is the memory a
    // `sentinel-cli run` (or `report`) of this workload needs.
    const double rss_mb = peakRssMb();

    // --- Timed cells -------------------------------------------------------
    const Clock::time_point origin = Clock::now();
    Tracer tracer(origin);
    std::vector<CellResult> cells;
    const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
    double cal_before = calibrationMs();
    while (cells.empty() || nsSince(origin) < budget_ns) {
        CellResult &r = cells.emplace_back();
        const int id = static_cast<int>(cells.size()) - 1;
        // Traced runs alternate untraced and traced cells, so the
        // tracing overhead is read from cells of the same host phase.
        r.traced = traced && id % 2 == 1;
        tracer.startCell(r.traced, id,
                         static_cast<std::size_t>(w->steady_steps) + 16);
        try {
            runCell(*w, cfg, tracer, r);
        } catch (const std::exception &e) {
            r.failed = true;
            r.error = e.what();
        }
        const double cal_after = calibrationMs();
        r.cal_ms = 0.5 * (cal_before + cal_after);
        cal_before = cal_after;
        if (!r.failed && check_ok && !sameSteps(r.first_steps, ref.steps)) {
            r.failed = true;
            r.error = "first steps differ from the harness cell";
        }
        if (!r.failed && id > 0 && !cells[0].failed &&
            !(r.sim == cells[0].sim)) {
            r.failed = true;
            r.error = "simulated counts differ from cell 0";
        }
        if (r.failed)
            errors.push_back("cell " + std::to_string(id) + ": " + r.error);
    }

    // --- Metrics -------------------------------------------------------------
    std::vector<const CellResult *> plain, with_spans;
    int failed_cells = check_ok ? 0 : 1;
    for (const CellResult &c : cells) {
        if (c.failed)
            ++failed_cells;
        else
            (c.traced ? with_spans : plain).push_back(&c);
    }
    const CellResult &c0 = cells.front();
    const SimCounts &sc = c0.sim;
    const double steady = w->steady_steps;
    const HostSummary host = summarize(plain);

    std::vector<Metric> e2e = {
        { "setup_s", host.setup_s, "s" },
        { "step_host_ms", host.step_ms, "ms" },
        { "sim_steps_per_host_s", host.steps_per_s, "1/s" },
        { "peak_rss_mb", rss_mb, "MB" },
        { "sim_step_ms", toMillis(sc.step_time) / steady, "sim_ms" },
        { "sim_exposed_ms", toMillis(sc.exposed) / steady, "sim_ms" },
    };

    // Every per-layer metric is reported on every workload; a layer
    // that does not run reads 0 and the table marks it.
    std::vector<Metric> layer;
    const bool sentinel = std::strcmp(w->policy, "sentinel") == 0;
    auto add = [&](const char *name, double v, const char *unit,
                   bool ran = true) {
        layer.push_back({ name, ran ? v : 0.0, unit, ran });
    };
    auto perStep = [&](double total) { return total / steady; };
    add("profile.faults", static_cast<double>(sc.profile_faults), "count",
        sentinel);
    add("core.mil", sc.mil, "count", sentinel);
    add("core.case3_events", sc.case3, "count", sentinel);
    add("dataflow.stalls_per_step", perStep(static_cast<double>(sc.stalls)),
        "count");
    add("mem.pages_moved_per_step",
        perStep(static_cast<double>(sc.pages_moved)), "count");
    add("mem.channel_transfers_per_step",
        perStep(static_cast<double>(sc.transfers)), "count");
    add("mem.migrated_mb_per_step",
        perStep(static_cast<double>(sc.migrated_bytes) / 1e6), "MB");
    add("mem.peak_fast_mb", static_cast<double>(sc.peak_fast) / 1e6, "MB");
    add("sim.link_busy_ms_per_step", perStep(toMillis(sc.link_busy)),
        "sim_ms");
    // Without the counting hook (sanitizer builds) allocations are
    // unknown, not zero: leave common.* out.
    if (common::allocHookActive()) {
        // Median over cells: the first cell also pays one-time lazy
        // set-up, and the cell count depends on host speed.
        std::vector<double> setup_allocs, step_allocs;
        for (const CellResult &c : cells) {
            setup_allocs.push_back(static_cast<double>(c.setup_allocs));
            step_allocs.push_back(
                perStep(static_cast<double>(c.steady_allocs)));
        }
        add("common.heap_allocs_per_step", median(step_allocs), "count");
        add("common.setup_heap_allocs", median(setup_allocs), "count");
    }
    add("telemetry.events_per_step", perStep(static_cast<double>(sc.events)),
        "count", w->observed);
    add("telemetry.events_dropped", static_cast<double>(sc.events_dropped),
        "count", w->observed);
    add("telemetry.audit_records", static_cast<double>(sc.audit_records),
        "count", w->observed);

    // Host time by layer comes from spans, so only traced runs have it.
    if (traced) {
        const HostSummary th = summarize(with_spans);
        const auto self = selfTimes(tracer.spans(), cells);
        auto selfOf = [&](const char *n) {
            for (const auto &[name, v] : self)
                if (name == n)
                    return v;
            return 0.0;
        };
        const double step_ms = selfOf("dataflow.step");
        add("models.build_ms", selfOf("models.build"), "ms");
        add("profile.profile_ms", selfOf("profile.profile"), "ms", sentinel);
        add("core.construct_ms", selfOf("core.construct"), "ms");
        add("core.first_step_ms", selfOf("core.first_step"), "ms");
        add("dataflow.warmup_ms", selfOf("dataflow.warmup"), "ms");
        add("dataflow.step_host_ms", step_ms, "ms");
        add("dataflow.step_host_ms.tail", th.tail_ms, "ms");
        add("mem.host_ns_per_transfer",
            step_ms * 1e6 / perStep(static_cast<double>(sc.transfers)), "ns",
            sc.transfers > 0);
        add("telemetry.export_ms", selfOf("telemetry.export"), "ms",
            w->observed);
        add("bench.glue_ms", selfOf("cell") + selfOf("dataflow.steady"),
            "ms");
        add("trace.overhead_pct",
            100.0 * (th.cell_ms - host.cell_ms) / host.cell_ms, "%",
            host.cell_ms > 0.0);
        if (!spans_out.empty() && !writeSpans(tracer.spans(), spans_out))
            errors.push_back("could not write spans to " + spans_out);
        std::printf("tracing overhead: median cell %.3f ms traced (%zu "
                    "cells) vs %.3f ms untraced (%zu cells); step %.4f vs "
                    "%.4f ms; set-up %.4f vs %.4f s\n"
                    "dataflow.step_host_ms.tail is p%g of %zu steady steps "
                    "of traced cells\n",
                    th.cell_ms, with_spans.size(), host.cell_ms,
                    plain.size(), th.step_ms, host.step_ms, th.setup_s,
                    host.setup_s, th.tail_q, th.steps);
    }

    std::printf("workload %s (model %s, policy %s, %d tiers, batch %d), "
                "seed %s, %zu cells of %d steps, %d failed\n",
                w->name, w->model, w->policy, w->tiers, cfg.batch,
                seed.c_str(), cells.size(), kWarmup + w->steady_steps,
                failed_cells);
    std::printf("host times at reference speed: calibration kernel median "
                "%.3f ms, %.1f ms when quiet; as measured: set-up %.6f s, "
                "step %.6f ms\n",
                host.cal_ms, kRefCalibrationMs, host.raw_setup_s,
                host.raw_step_ms);
    printTable(traced ? "end-to-end (untraced cells)" : "end-to-end", e2e);
    printTable("per-layer", layer);
    for (const std::string &e : errors)
        std::printf("error: %s\n", e.c_str());

    // Harness metrics at BENCH_baseline.json's printed precision.
    const harness::Metrics &m = ref.metrics;
    const std::pair<const char *, double> hm[] = {
        { "step_time_ms", m.step_time_ms }, { "throughput", m.throughput },
        { "exposed_ms", m.exposed_ms },     { "migrated_mb", m.migrated_mb() },
        { "peak_fast_mb", m.peak_fast_mb },
    };
    std::string hj = "{";
    for (std::size_t i = 0; i < std::size(hm); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", hm[i].second);
        hj += (i ? ", " : "") + jsonStr(hm[i].first) + ": " + jsonStr(buf);
    }
    hj += "}";

    std::string ej = "[";
    for (std::size_t i = 0; i < errors.size(); ++i)
        ej += (i ? ", " : "") + jsonStr(errors[i]);
    ej += "]";

    std::printf("{\"workload\": %s, \"seed\": %s, \"trace\": %d, "
                "\"attempted\": %zu, \"failed\": %d, \"check_ok\": %s, "
                "\"harness\": %s, "
                "\"errors\": %s, \"end_to_end\": %s, \"per_layer\": %s}\n",
                jsonStr(w->name).c_str(), jsonStr(seed).c_str(),
                traced ? 1 : 0, cells.size() + 1, failed_cells,
                check_ok ? "true" : "false", hj.c_str(),
                ej.c_str(), metricsJson(e2e).c_str(),
                metricsJson(layer).c_str());
    return 0;
}
