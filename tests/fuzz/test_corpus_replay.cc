/**
 * @file
 * Regression gate over the committed fuzz corpus: every
 * `.sentinelrepro` in tests/fuzz/corpus/ must replay clean through the
 * cross-policy differential oracle.  A corpus entry is either a
 * shrunk repro of a fixed bug (it must stay fixed) or a hand-picked
 * workload shape worth pinning; both fail loudly here when an
 * invariant regresses.
 */

#include <algorithm>
#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "harness/oracle.hh"
#include "mem/page.hh"
#include "telemetry/attribution.hh"

#ifndef SENTINEL_FUZZ_CORPUS_DIR
#error "SENTINEL_FUZZ_CORPUS_DIR must point at tests/fuzz/corpus"
#endif

namespace sentinel::harness {
namespace {

std::vector<std::filesystem::path>
corpusFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(SENTINEL_FUZZ_CORPUS_DIR))
        if (entry.path().extension() == ".sentinelrepro")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(CorpusReplay, CorpusIsNotEmpty)
{
    EXPECT_GE(corpusFiles().size(), 1u)
        << "no .sentinelrepro files under " << SENTINEL_FUZZ_CORPUS_DIR;
}

TEST(CorpusReplay, EveryEntryReplaysClean)
{
    for (const auto &path : corpusFiles()) {
        SCOPED_TRACE(path.filename().string());
        FuzzCase fc = FuzzCase::load(path.string());
        OracleReport rep = fc.run(/*jobs=*/2, /*check_determinism=*/false);
        EXPECT_TRUE(rep.ok()) << rep.summary();
    }
}

TEST(CorpusReplay, ReplayIsDeterministic)
{
    // The corpus is the shrinker's output format; a repro that renders
    // two different reports on two replays is useless as a repro.
    auto files = corpusFiles();
    ASSERT_FALSE(files.empty());
    FuzzCase fc = FuzzCase::load(files.front().string());
    OracleReport a = fc.run(1, false);
    OracleReport b = fc.run(4, false);
    EXPECT_EQ(a.summary(), b.summary());
}

TEST(CorpusReplay, SerializeRoundTrips)
{
    for (const auto &path : corpusFiles()) {
        SCOPED_TRACE(path.filename().string());
        FuzzCase fc = FuzzCase::load(path.string());
        FuzzCase back = FuzzCase::parse(fc.serialize());
        EXPECT_EQ(fc.model, back.model);
        EXPECT_EQ(fc.batch, back.batch);
        EXPECT_EQ(fc.fast_fraction, back.fast_fraction);
        EXPECT_EQ(fc.steps, back.steps);
        EXPECT_EQ(fc.warmup, back.warmup);
        EXPECT_EQ(fc.cpu, back.cpu);
        EXPECT_EQ(fc.gpu, back.gpu);
        EXPECT_EQ(fc.inject_capacity, back.inject_capacity);
        EXPECT_EQ(fc.inject_traffic, back.inject_traffic);
        EXPECT_EQ(fc.planner, back.planner);
        EXPECT_EQ(fc.tiers, back.tiers);
    }
}

TEST(CorpusReplay, PlannerKeyDefaultsAndRoundTrips)
{
    // Corpus entries written before the planner knob carry no
    // `planner=` line; they must parse as greedy (the layout every
    // committed repro shrank under).  New serializations always emit
    // the key, and bad values are rejected.
    FuzzCase legacy =
        FuzzCase::parse("# sentinelrepro v1\nmodel=synthetic:1\n");
    EXPECT_EQ(legacy.planner, "greedy");

    FuzzCase fc = FuzzCase::random(3);
    fc.planner = "interval";
    FuzzCase back = FuzzCase::parse(fc.serialize());
    EXPECT_EQ(back.planner, "interval");
    EXPECT_NE(fc.serialize().find("planner=interval"), std::string::npos);

    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\n"
                                 "model=synthetic:1\nplanner=ilp\n"),
                 ConfigError);
}

TEST(CorpusReplay, TiersKeyDefaultsAndRoundTrips)
{
    // Corpus entries written before the N-tier hierarchy carry no
    // `tiers=` line; they must replay on the classic two-tier system
    // they shrank under.  New serializations always emit the key, and
    // chain lengths outside [1, mem::kMaxTiers] are rejected.
    FuzzCase legacy =
        FuzzCase::parse("# sentinelrepro v1\nmodel=synthetic:1\n");
    EXPECT_EQ(legacy.tiers, 2);

    FuzzCase fc = FuzzCase::random(3);
    fc.tiers = 3;
    FuzzCase back = FuzzCase::parse(fc.serialize());
    EXPECT_EQ(back.tiers, 3);
    EXPECT_NE(fc.serialize().find("tiers=3"), std::string::npos);

    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\n"
                                 "model=synthetic:1\ntiers=0\n"),
                 ConfigError);
    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\n"
                                 "model=synthetic:1\ntiers=9\n"),
                 ConfigError);
}

TEST(CorpusReplay, LlmModelNamesAreValidated)
{
    // The llm: family joins the corpus grammar: well-formed names
    // parse, malformed presets or overrides are rejected up front
    // rather than exploding mid-replay.
    FuzzCase fc = FuzzCase::parse(
        "# sentinelrepro v1\nmodel=llm:tiny:l=2,seq=64\n");
    EXPECT_EQ(fc.model, "llm:tiny:l=2,seq=64");

    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\n"
                                 "model=llm:colossal\n"),
                 ConfigError);
    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\n"
                                 "model=llm:tiny:hd=100,heads=3\n"),
                 ConfigError); // hidden not divisible by heads
}

TEST(CorpusReplay, MalformedFilesAreRejected)
{
    EXPECT_THROW(FuzzCase::parse(""), ConfigError);
    EXPECT_THROW(FuzzCase::parse("model=resnet20\n"), ConfigError);
    EXPECT_THROW(
        FuzzCase::parse("# sentinelrepro v1\nbatch=4\n"),
        ConfigError); // missing model
    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\nmodel=synthetic:\n"),
                 ConfigError);
    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\nmodel=synthetic:1\n"
                                 "batch=nope\n"),
                 ConfigError);
    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\nmodel=synthetic:1\n"
                                 "unknown_key=1\n"),
                 ConfigError);
    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\nmodel=synthetic:1\n"
                                 "steps=4\nwarmup=4\n"),
                 ConfigError);
    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\nmodel=synthetic:1\n"
                                 "cpu=0\ngpu=0\n"),
                 ConfigError);
    // std::stod reads "nan"; the range checks must still refuse it.
    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\nmodel=synthetic:1\n"
                                 "fraction=nan\n"),
                 ConfigError);
    EXPECT_THROW(FuzzCase::parse("# sentinelrepro v1\nmodel=synthetic:1\n"
                                 "inject_capacity=nan\n"),
                 ConfigError);
}

TEST(CorpusReplay, InjectedViolationIsDetectedAndShrinksDeterministically)
{
    // The capacity chaos hook under-reports the fast tier at check
    // time: the oracle must flag it, and the shrinker must converge to
    // the same minimal case regardless of worker count.
    FuzzCase fc = FuzzCase::random(7);
    fc.gpu = false;
    fc.inject_capacity = 0.6;
    OracleReport rep = fc.run(2, false);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.violations.front().invariant, "capacity");

    FuzzCase a = shrink(fc, /*jobs=*/1);
    FuzzCase b = shrink(fc, /*jobs=*/4);
    EXPECT_EQ(a.serialize(), b.serialize());
    OracleReport ra = a.run(1, false);
    ASSERT_FALSE(ra.ok());
    EXPECT_EQ(ra.violations.front().invariant, "capacity");
}

TEST(CorpusReplay, ExactLinkConservationCatchesMisattributedLeg)
{
    // Charging one page of link 1's bytes to link 0 keeps the per-link
    // SUM, so the old band check ([1x, links x] of the StepStats page
    // bytes) passes it; the exact per-link check must not.
    int checked = 0;
    for (const auto &path : corpusFiles()) {
        FuzzCase fc = FuzzCase::load(path.string());
        if (fc.tiers < 3 || !fc.cpu)
            continue;
        SCOPED_TRACE(path.filename().string());

        // The band on the clean sentinel cell, as the oracle ran it.
        ExperimentConfig cfg = fc.config();
        telemetry::AttributionEngine attr;
        cfg.attribution = &attr;
        StepTrace trace = harness::Run(cfg, "sentinel").finish();
        std::uint64_t pages = 0;
        for (const df::StepStats &s : trace.steps)
            pages += s.promoted_bytes + s.demoted_bytes;
        std::uint64_t legs = 0;
        for (const telemetry::LinkAttr &l : attr.byLink())
            legs += l.promoted_bytes + l.demoted_bytes;
        ASSERT_GE(attr.byLink().size(), 2u);
        ASSERT_GE(attr.byLink()[1].promoted_bytes +
                      attr.byLink()[1].demoted_bytes,
                  mem::kPageSize);
        const std::uint64_t links = static_cast<std::uint64_t>(fc.tiers) - 1;
        EXPECT_TRUE(legs >= pages && legs <= links * pages)
            << "band would flag the clean run";

        OracleOptions opts = fc.oracleOptions(2, false);
        opts.run_gpu = false;
        opts.inject_link_misattribution = true;
        OracleReport rep = runOracle(fc.config(), opts);
        ASSERT_FALSE(rep.ok());
        EXPECT_EQ(rep.violations.front().invariant, "link-conservation");
        EXPECT_EQ(rep.violations.front().policy, "sentinel");
        ++checked;
    }
    EXPECT_GE(checked, 3);
}

} // namespace
} // namespace sentinel::harness
