/**
 * @file
 * bench_baseline: the perf-regression tripwire behind `ctest -L
 * perf-regress`.
 *
 * Default mode runs a small fixed set of experiment cells and writes
 * every metric to BENCH_baseline.json (one metric per line, so the
 * checker — and a human with grep — can parse it without a JSON
 * library).  The file is committed; EXPERIMENTS.md describes when and
 * how to regenerate it.
 *
 * `--check` re-runs the same cells and compares against the committed
 * baseline.  Two metric classes with different tolerances:
 *
 *  - sim.* metrics come off the simulated clock and are bit-
 *    deterministic, so any drift is a real behavior change; the
 *    threshold (25%) exists only so deliberate small retunings don't
 *    need a baseline refresh in the same commit.
 *  - wall.* metrics time the simulator itself (min of N runs) and
 *    absorb machine noise with a much larger threshold.  Sanitizer
 *    builds skip them entirely — a 10x ASan slowdown is not a
 *    regression.
 *
 * Improvements never fail the check; regenerate the baseline to bank
 * them.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/alloc_hook.hh"
#include "common/logging.hh"
#include "dataflow/executor.hh"
#include "harness/experiment.hh"
#include "telemetry/session.hh"
#include "telemetry/timeseries.hh"

using namespace sentinel;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BENCH_SANITIZED 1
#endif
#if !defined(BENCH_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BENCH_SANITIZED 1
#endif
#endif
#ifndef BENCH_SANITIZED
#define BENCH_SANITIZED 0
#endif

namespace {

struct Sample {
    std::string key;
    double value = 0.0;
    /** Allowed relative regression before --check fails. */
    double threshold = 0.25;
    /** Additive slack so near-zero baselines aren't tripwires. */
    double slack = 0.0;
    /** true: larger is better (throughput); false: smaller is. */
    bool higher_better = false;
};

harness::ExperimentConfig
cellConfig(const std::string &model)
{
    harness::ExperimentConfig cfg;
    cfg.model = model;
    return cfg; // zoo batch, Optane platform, 9 steps / 6 warmup
}

/**
 * Heap allocations per steady-state training step, counted by the
 * sentinel_alloc_hook operator-new replacement around warm steps of
 * the cellConfig cell.  The Run is driven step by step so setup and
 * teardown allocations stay outside the counted window.  Returns -1
 * when the hook is not live (sanitizer builds), and the key is then
 * omitted.
 */
double
measureAllocsPerStep(const std::string &model, const std::string &policy)
{
    if (!common::allocHookActive())
        return -1.0;

    // The live observability plane rides along: its per-step feed
    // (event ring, cached counters, the step board's series pushes)
    // is part of the zero-allocation promise — only scrapes may
    // allocate, and none happen inside the counted window.
    telemetry::Session session;
    telemetry::StepBoard board;
    session.attachStepBoard(&board);
    harness::ExperimentConfig cfg = cellConfig(model);
    cfg.telemetry = &session;
    harness::Run run(cfg, policy);
    df::Executor &ex = run.executor();

    ex.run(cfg.warmup);

    const int measured = cfg.steps - cfg.warmup;
    std::uint64_t before = common::allocCount();
    for (int i = 0; i < measured; ++i)
        ex.runStep();
    std::uint64_t after = common::allocCount();
    return static_cast<double>(after - before) /
           static_cast<double>(measured);
}

/** The simulated metrics of one cell, keyed under @p prefix. */
void
addSimMetrics(std::vector<Sample> &out, const std::string &prefix,
              const harness::ExperimentConfig &cfg,
              const std::string &policy)
{
    harness::Metrics m = harness::runExperiment(cfg, policy);
    SENTINEL_ASSERT(m.supported, "baseline cell %s/%s unsupported",
                    cfg.model.c_str(), policy.c_str());
    out.push_back({ prefix + "step_time_ms", m.step_time_ms, 0.25, 0.05 });
    out.push_back({ prefix + "throughput", m.throughput, 0.25, 0.0,
                    /*higher=*/true });
    out.push_back({ prefix + "exposed_ms", m.exposed_ms, 0.25, 0.05 });
    out.push_back({ prefix + "migrated_mb", m.migrated_mb(), 0.25, 1.0 });
    out.push_back({ prefix + "peak_fast_mb", m.peak_fast_mb, 0.25, 1.0 });
}

void
addCell(std::vector<Sample> &out, const std::string &model,
        const std::string &policy)
{
    std::string p = "sim." + model + "." + policy + ".";
    addSimMetrics(out, p, cellConfig(model), policy);
    // Allocation counts are deterministic in a single-threaded run;
    // the slack absorbs the occasional amortized container growth.
    double allocs = measureAllocsPerStep(model, policy);
    if (allocs >= 0.0)
        out.push_back({ p + "allocs_per_step", allocs, 0.25, 5.0 });
}

/** Wall time of one full experiment cell, min of @p reps runs. */
void
addWall(std::vector<Sample> &out, const std::string &model,
        const std::string &policy, int reps)
{
    using clock = std::chrono::steady_clock;
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
        auto t0 = clock::now();
        harness::ExperimentConfig cfg = cellConfig(model);
        (void)harness::runExperiment(cfg, policy);
        double ms = std::chrono::duration<double, std::milli>(
                        clock::now() - t0)
                        .count();
        best = i == 0 ? ms : std::min(best, ms);
    }
    out.push_back({ "wall." + model + "." + policy + "_ms", best,
                    /*threshold=*/1.5, /*slack=*/100.0 });
}

std::vector<Sample>
collect(bool wall)
{
    std::vector<Sample> out;
    addCell(out, "resnet32", "sentinel");
    addCell(out, "resnet32", "ial");
    addCell(out, "mobilenet", "sentinel");
    if (wall)
        addWall(out, "resnet32", "sentinel", 3);
    return out;
}

/**
 * One three-tier cell, simulated metrics only: the cells are bit-
 * deterministic like the two-tier set, but wall clock and allocation
 * counts add nothing a two-tier cell doesn't already gate, so the
 * N-tier tripwire stays cheap enough for every build flavor.
 */
void
addNtierCell(std::vector<Sample> &out, const std::string &model,
             const std::string &policy)
{
    harness::ExperimentConfig cfg = cellConfig(model);
    cfg.tiers = 3;
    addSimMetrics(out, "sim.ntier3." + model + "." + policy + ".", cfg,
                  policy);
}

std::vector<Sample>
collectNtier()
{
    std::vector<Sample> out;
    addNtierCell(out, "resnet32", "sentinel");
    addNtierCell(out, "llm:tiny", "sentinel");
    return out;
}

void
writeBaseline(const std::vector<Sample> &samples, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        SENTINEL_FATAL("could not write '%s'", path.c_str());
    os << "{\n";
    os << "  \"schema\": 1,\n";
    os << "  \"sanitized\": " << (BENCH_SANITIZED ? "true" : "false")
       << ",\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        os << "  \"" << samples[i].key << "\": "
           << strprintf("%.6f", samples[i].value)
           << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    os << "}\n";
}

/** Flat `"key": value` lines; no JSON library needed (or wanted). */
std::map<std::string, double>
readBaseline(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        SENTINEL_FATAL("could not read baseline '%s' (regenerate with "
                       "bench_baseline --out %s)",
                       path.c_str(), path.c_str());
    std::map<std::string, double> out;
    std::string line;
    while (std::getline(is, line)) {
        std::size_t k0 = line.find('"');
        if (k0 == std::string::npos)
            continue;
        std::size_t k1 = line.find('"', k0 + 1);
        std::size_t colon = line.find(':', k1);
        if (k1 == std::string::npos || colon == std::string::npos)
            continue;
        std::string key = line.substr(k0 + 1, k1 - k0 - 1);
        char *end = nullptr;
        double v = std::strtod(line.c_str() + colon + 1, &end);
        if (end != line.c_str() + colon + 1)
            out[key] = v;
    }
    return out;
}

int
check(const std::vector<Sample> &samples, const std::string &path)
{
    std::map<std::string, double> base = readBaseline(path);
    int regressions = 0, compared = 0;
    for (const Sample &s : samples) {
        auto it = base.find(s.key);
        if (it == base.end()) {
            std::printf("  %-44s %12.3f  (new metric, no baseline)\n",
                        s.key.c_str(), s.value);
            continue;
        }
        ++compared;
        double b = it->second;
        bool regressed;
        double limit;
        if (s.higher_better) {
            limit = b * (1.0 - s.threshold) - s.slack;
            regressed = s.value < limit;
        } else {
            limit = b * (1.0 + s.threshold) + s.slack;
            regressed = s.value > limit;
        }
        double delta = b != 0.0 ? 100.0 * (s.value - b) / b : 0.0;
        std::printf("  %-44s %12.3f  base %12.3f  %+7.1f%%  %s\n",
                    s.key.c_str(), s.value, b, delta,
                    regressed ? "REGRESSED" : "ok");
        if (regressed) {
            ++regressions;
            std::printf("    limit was %.3f (threshold %.0f%% + slack "
                        "%.2f)\n",
                        limit, 100.0 * s.threshold, s.slack);
        }
    }
    std::printf("%d metrics compared against %s: %d regression%s\n",
                compared, path.c_str(), regressions,
                regressions == 1 ? "" : "s");
    return regressions == 0 ? 0 : 1;
}

void
usage()
{
    std::printf(
        "bench_baseline [--out FILE] [--check] [--baseline FILE]\n"
        "               [--ntier]\n\n"
        "default: run the baseline cells and write FILE (default\n"
        "BENCH_baseline.json); --check compares against the committed\n"
        "baseline instead and exits non-zero on regression.  Sanitizer\n"
        "builds skip the wall-clock metrics in both modes.  --ntier\n"
        "swaps in the three-tier cell set (simulated metrics only,\n"
        "baselined separately in BENCH_baseline_ntier.json).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool do_check = false;
    bool ntier = false;
    std::string out;
    std::string baseline;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                SENTINEL_FATAL("missing value for %s", what);
            return argv[++i];
        };
        if (a == "--check") {
            do_check = true;
        } else if (a == "--ntier") {
            ntier = true;
        } else if (a == "--out") {
            out = value("--out");
        } else if (a == "--baseline") {
            baseline = value("--baseline");
        } else {
            usage();
            return a == "--help" ? 0 : 1;
        }
    }
    std::string def =
        ntier ? "BENCH_baseline_ntier.json" : "BENCH_baseline.json";
    if (out.empty())
        out = def;
    if (baseline.empty())
        baseline = def;

    if (BENCH_SANITIZED && !ntier)
        std::printf("sanitizer build: wall-clock metrics skipped\n");
    std::vector<Sample> samples =
        ntier ? collectNtier() : collect(/*wall=*/!BENCH_SANITIZED);

    if (do_check)
        return check(samples, baseline);

    writeBaseline(samples, out);
    std::printf("%zu metrics written to %s\n", samples.size(),
                out.c_str());
    return 0;
}
