#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/bandwidth_channel.hh"

namespace sentinel::sim {
namespace {

TEST(BandwidthChannel, SingleTransferTiming)
{
    // 1 GB/s, no startup: 1 MB takes ~1 ms.
    BandwidthChannel ch("t", 1e9);
    Tick done = ch.submit(0, 1'000'000);
    EXPECT_EQ(done, 1'000'000); // 1e6 ns
    EXPECT_EQ(ch.bytesTransferred(), 1'000'000u);
    EXPECT_EQ(ch.numTransfers(), 1u);
}

TEST(BandwidthChannel, TransfersSerialize)
{
    BandwidthChannel ch("t", 1e9);
    Tick first = ch.submit(0, 1'000'000);
    // Second submitted while the first is still running queues behind it.
    Tick second = ch.submit(0, 1'000'000);
    EXPECT_EQ(second, first + 1'000'000);
    EXPECT_EQ(ch.busyUntil(), second);
}

TEST(BandwidthChannel, IdleGapRespectsReadyTime)
{
    BandwidthChannel ch("t", 1e9);
    ch.submit(0, 1000);
    Tick done = ch.submit(10'000'000, 1000);
    // Starts at ready time, not at busyUntil.
    EXPECT_EQ(done, 10'000'000 + 1000);
}

TEST(BandwidthChannel, StartupLatencyCharged)
{
    BandwidthChannel ch("t", 1e9, 500);
    Tick done = ch.submit(0, 1000);
    EXPECT_EQ(done, 500 + 1000);
    // Estimation matches submission for the same state.
    BandwidthChannel ch2("t2", 1e9, 500);
    EXPECT_EQ(ch2.estimateCompletion(0, 1000), done);
}

TEST(BandwidthChannel, EstimateDoesNotMutate)
{
    BandwidthChannel ch("t", 1e9);
    Tick est = ch.estimateCompletion(0, 1'000'000);
    EXPECT_EQ(ch.busyUntil(), 0);
    EXPECT_EQ(ch.bytesTransferred(), 0u);
    EXPECT_EQ(ch.submit(0, 1'000'000), est);
}

TEST(BandwidthChannel, BusyTimeAccumulates)
{
    BandwidthChannel ch("t", 1e9, 100);
    ch.submit(0, 1000);
    ch.submit(50'000, 1000);
    EXPECT_EQ(ch.busyTime(), 2 * (100 + 1000));
}

TEST(BandwidthChannel, ResetClearsState)
{
    BandwidthChannel ch("t", 1e9);
    ch.submit(0, 12345);
    ch.reset();
    EXPECT_EQ(ch.busyUntil(), 0);
    EXPECT_EQ(ch.bytesTransferred(), 0u);
    EXPECT_EQ(ch.numTransfers(), 0u);
    EXPECT_EQ(ch.busyTime(), 0);
}

/**
 * Seeded property test of the closed form: a chain of 1..7 channels
 * (bandwidths in random order, so later legs are both faster and
 * slower; startup paid or not; channels possibly busy beforehand)
 * takes one submitRun() per leg, and a twin chain takes the same
 * pages one submitWithStartup() at a time.  Every arrival, every
 * counter, and arrivedBy() at and around every arrival must agree.
 */
TEST(BandwidthChannel, SubmitRunMatchesPerPageSubmits)
{
    std::mt19937_64 rng(0x5eed'c4a7);
    auto uniform = [&](std::uint64_t n) { return rng() % n; };
    const std::uint64_t counts[] = { 1, 2, 3, 17, 640, 5000 };
    for (int trial = 0; trial < 240; ++trial) {
        const unsigned legs = 1 + static_cast<unsigned>(trial % 7);
        const std::uint64_t count =
            trial % 4 == 3 ? 1 + uniform(5000) : counts[uniform(6)];
        const std::uint64_t bytes = 1 + uniform(64 * 1024);
        std::vector<BandwidthChannel> run, ref;
        std::vector<Tick> startup(legs);
        for (unsigned l = 0; l < legs; ++l) {
            const double bw = 1e8 * static_cast<double>(1 + uniform(200));
            const Tick latency = static_cast<Tick>(uniform(3000));
            run.emplace_back("run", bw, latency);
            ref.emplace_back("ref", bw, latency);
            startup[l] = uniform(2) == 0 ? latency : 0;
            if (uniform(3) == 0) { // pre-busy channel
                const Tick at = static_cast<Tick>(uniform(2'000'000));
                const std::uint64_t b = 1 + uniform(1 << 20);
                run[l].submit(at, b);
                ref[l].submit(at, b);
            }
        }
        const Tick ready = static_cast<Tick>(uniform(1'000'000));

        // Per page, every leg in chain order (store-and-forward).
        std::vector<std::vector<Tick>> want(legs,
                                            std::vector<Tick>(count));
        for (std::uint64_t k = 0; k < count; ++k) {
            Tick t = ready;
            for (unsigned l = 0; l < legs; ++l) {
                t = ref[l].submitWithStartup(t, bytes,
                                             k == 0 ? startup[l] : 0);
                want[l][k] = t;
            }
        }

        ArrivalCurve curve = ArrivalCurve::flat(ready);
        for (unsigned l = 0; l < legs; ++l) {
            curve = run[l].submitRun(curve, count, bytes, startup[l]);
            ASSERT_LE(curve.lines, l + 1);
            for (std::uint64_t k = 0; k < count; ++k)
                ASSERT_EQ(curve.at(k), want[l][k])
                    << "trial " << trial << " leg " << l << " page " << k;
            EXPECT_EQ(run[l].busyUntil(), ref[l].busyUntil());
            EXPECT_EQ(run[l].busyTime(), ref[l].busyTime());
            EXPECT_EQ(run[l].numTransfers(), ref[l].numTransfers());
            EXPECT_EQ(run[l].bytesTransferred(), ref[l].bytesTransferred());
        }

        // arrivedBy() against a linear count, probing exactly at,
        // just before and just after sampled arrivals.
        const std::vector<Tick> &last = want[legs - 1];
        auto linear = [&](Tick now) {
            std::uint64_t n = 0;
            while (n < count && last[n] <= now)
                ++n;
            return n;
        };
        for (int probe = 0; probe < 8; ++probe) {
            const Tick at = last[uniform(count)];
            for (Tick now : { at - 1, at, at + 1, ready - 1,
                              last.back() + 1 })
                ASSERT_EQ(curve.arrivedBy(now, count), linear(now))
                    << "trial " << trial << " now " << now;
        }
    }
}

TEST(BandwidthChannel, ZeroBandwidthPanics)
{
    EXPECT_THROW(BandwidthChannel("bad", 0.0), std::logic_error);
}

} // namespace
} // namespace sentinel::sim
