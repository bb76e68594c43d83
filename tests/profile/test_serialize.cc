#include <sstream>

#include <gtest/gtest.h>

#include "mem/hm.hh"
#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "support/test_graphs.hh"

namespace sentinel::prof {
namespace {

ProfileDatabase
profileToy()
{
    df::Graph g = sentinel::testing::makeToyGraph();
    mem::TierParams fast{ "dram", 64ull << 20, 50e9, 40e9, 80, 80 };
    mem::TierParams slow{ "pmm", 4ull << 30, 6e9, 2e9, 300, 100 };
    mem::HeterogeneousMemory hm({ fast, slow }, { { 4e9, 2e9, 2000 } });
    Profiler p;
    return std::move(p.profile(g, hm, df::ExecParams{}).db);
}

TEST(ProfileSerialize, RoundTripsExactly)
{
    ProfileDatabase db = profileToy();
    std::stringstream ss;
    ASSERT_TRUE(saveProfile(db, ss));
    ProfileDatabase loaded = loadProfile(ss);

    EXPECT_EQ(loaded.graphName(), db.graphName());
    EXPECT_EQ(loaded.numLayers(), db.numLayers());
    EXPECT_EQ(loaded.numTensors(), db.numTensors());
    EXPECT_EQ(loaded.shortLivedPeakBytes(), db.shortLivedPeakBytes());

    for (int l = 0; l < db.numLayers(); ++l) {
        EXPECT_EQ(loaded.layer(l).duration, db.layer(l).duration);
        EXPECT_EQ(loaded.layer(l).compute, db.layer(l).compute);
        EXPECT_EQ(loaded.layer(l).mem, db.layer(l).mem);
    }
    for (df::TensorId id = 0; id < db.numTensors(); ++id) {
        const TensorProfile &a = db.tensor(id);
        const TensorProfile &b = loaded.tensor(id);
        EXPECT_EQ(a.bytes, b.bytes);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.preallocated, b.preallocated);
        EXPECT_EQ(a.first_layer, b.first_layer);
        EXPECT_EQ(a.last_layer, b.last_layer);
        EXPECT_EQ(a.short_lived, b.short_lived);
        EXPECT_EQ(a.small, b.small);
        EXPECT_EQ(a.total_accesses, b.total_accesses);
        EXPECT_DOUBLE_EQ(a.accesses_per_page, b.accesses_per_page);
        EXPECT_EQ(a.access_layers, b.access_layers);
    }
}

TEST(ProfileSerialize, LoadedProfileDrivesTheSameQueries)
{
    ProfileDatabase db = profileToy();
    std::stringstream ss;
    saveProfile(db, ss);
    ProfileDatabase loaded = loadProfile(ss);

    EXPECT_EQ(loaded.longLivedAccessedIn(0, 2),
              db.longLivedAccessedIn(0, 2));
    EXPECT_EQ(loaded.longLivedBytesAccessedIn(2, 4),
              db.longLivedBytesAccessedIn(2, 4));
    EXPECT_EQ(loaded.largestLongLivedBytes(), db.largestLongLivedBytes());
    EXPECT_EQ(loaded.layerSpanTime(0, 4), db.layerSpanTime(0, 4));
}

TEST(ProfileSerialize, FileRoundTrip)
{
    ProfileDatabase db = profileToy();
    std::string path = ::testing::TempDir() + "/toy.sentinel-profile";
    ASSERT_TRUE(saveProfile(db, path));
    ProfileDatabase loaded = loadProfile(path);
    EXPECT_EQ(loaded.numTensors(), db.numTensors());
}

TEST(ProfileSerialize, RejectsGarbage)
{
    std::stringstream ss("not-a-profile 1\n");
    EXPECT_THROW(loadProfile(ss), std::runtime_error);
}

TEST(ProfileSerialize, RejectsWrongVersion)
{
    std::stringstream ss("sentinel-profile 999\n");
    EXPECT_THROW(loadProfile(ss), std::runtime_error);
}

TEST(ProfileSerialize, RejectsTruncation)
{
    ProfileDatabase db = profileToy();
    std::stringstream ss;
    saveProfile(db, ss);
    std::string text = ss.str();
    std::stringstream cut(text.substr(0, text.size() / 2));
    EXPECT_THROW(loadProfile(cut), std::logic_error);
}

TEST(ProfileSerialize, MissingFileIsFatal)
{
    EXPECT_THROW(loadProfile(std::string("/nonexistent/profile")),
                 std::runtime_error);
}

} // namespace
} // namespace sentinel::prof
