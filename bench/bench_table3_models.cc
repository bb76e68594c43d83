/**
 * @file
 * Table III: evaluation models — batch sizes, peak memory, and
 * Sentinel's runtime/memory overheads (profiling + test-and-trial
 * steps, profiling-phase memory overhead), plus the profiling-step
 * slowdown of Sec. VII-B.
 */

#include <iostream>

#include "bench_util.hh"
#include "models/registry.hh"

int
main()
{
    using namespace sentinel;
    bench::banner("Table III - models and Sentinel overheads",
                  "Table III, Sec. VII-B");

    Table t("Table III: DNN models",
            { "model", "batch (S/L)", "layers", "ops", "tensors",
              "peak mem (S)", "peak mem (L)", "prof+trial steps",
              "prof slowdown", "mem overhead" });

    for (const auto &spec : models::modelZoo()) {
        // Profiling overheads and trial steps come from one short
        // training run at the small batch.
        harness::ExperimentConfig ec;
        ec.model = spec.name;
        ec.batch = spec.small_batch;
        harness::Run run(ec, "sentinel");
        const df::Graph &small = run.graph();
        const prof::ProfileResult &profile = *run.profile();
        harness::Metrics m = run.finish().metrics;
        df::Graph large = models::makeModel(spec.name, spec.large_batch);

        t.row()
            .cell(spec.name)
            .cell(strprintf("%d / %d", spec.small_batch,
                            spec.large_batch))
            .cell(small.numLayers())
            .cell(static_cast<std::uint64_t>(small.numOps()))
            .cell(static_cast<std::uint64_t>(small.numTensors()))
            .cell(formatBytes(
                static_cast<double>(small.peakMemoryBytes())))
            .cell(formatBytes(
                static_cast<double>(large.peakMemoryBytes())))
            .cell(strprintf("1 + %d", m.trial_steps))
            .cell(strprintf("%.1fx", profile.profilingSlowdown()))
            .cell(strprintf("%.2f%%", 100.0 * profile.memoryOverhead()));
    }
    t.printWithCsv(std::cout);

    std::cout << "\nPaper anchors: ~1.8 profiling+trial steps on "
                 "average, profiling step extended\nby up to 5x, memory "
                 "overhead at most 2.4% (Sec. VII-B).\n";
    return 0;
}
