// Tests of the benchmark's own arithmetic and of its seed determinism.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace pb = perfbench;

// ------------------------------------------------------- percentile rule

TEST(PercentileRule, TailNeedsTenSamplesBeyondIt) {
    EXPECT_EQ(pb::samples_beyond(1000, 99.0), 10u);
    EXPECT_EQ(pb::samples_beyond(999, 99.0), 9u);
    EXPECT_EQ(pb::supported_tail_pct(10000), 99.9);
    EXPECT_EQ(pb::supported_tail_pct(9999), 99.0);
    EXPECT_EQ(pb::supported_tail_pct(1000), 99.0);
    EXPECT_EQ(pb::supported_tail_pct(999), 95.0);
    EXPECT_EQ(pb::supported_tail_pct(200), 95.0);
    EXPECT_EQ(pb::supported_tail_pct(100), 90.0);
    EXPECT_EQ(pb::supported_tail_pct(40), 75.0);
    EXPECT_EQ(pb::supported_tail_pct(20), 50.0);
    EXPECT_EQ(pb::supported_tail_pct(19), 0.0);
}

TEST(PercentileRule, NearestRankValues) {
    std::vector<double> v;
    for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    EXPECT_EQ(pb::median_of(v), 500.0);
    const auto p99 = pb::capped_percentile(v, 99.0);
    EXPECT_EQ(p99.pct, 99.0);
    EXPECT_EQ(p99.value, 990.0);

    // 500 samples cannot support p99 (five beyond): step down to p95.
    v.resize(500);  // values 1000..501
    const auto capped = pb::capped_percentile(v, 99.0);
    EXPECT_EQ(capped.pct, 95.0);
    EXPECT_EQ(capped.value, 975.0);

    // Too few for any tail: the maximum, flagged with pct 0.
    const auto tiny = pb::capped_percentile({3.0, 1.0, 2.0}, 99.0);
    EXPECT_EQ(tiny.pct, 0.0);
    EXPECT_EQ(tiny.value, 3.0);
    EXPECT_EQ(pb::median_of({}), 0.0);
}

// ----------------------------------------------------------- span times

TEST(SpanSelfTime, SubtractsTheUnionOfChildIntervals) {
    std::vector<pb::span> s(5);
    s[0] = {0, pb::no_parent, 1, 0, 100};
    s[1] = {1, 0, 1, 10, 30};   // overlaps s[2]
    s[2] = {1, 0, 1, 20, 50};
    s[3] = {2, 0, 1, 90, 120};  // runs past its parent: clipped at 100
    s[4] = {3, 2, 1, 25, 40};   // grandchild: only reduces s[2]
    const auto self = pb::self_times(s);
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 30 - 15);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 15);
}

TEST(SpanSelfTime, TracerRecordsParentsAndStopsWhenFull) {
    pb::tracer tr(3);
    const auto outer = tr.intern("service.pump");
    const auto inner = tr.intern("net.frame_encode");
    EXPECT_EQ(tr.intern("service.pump"), outer);
    EXPECT_EQ(tr.begin(outer), pb::no_parent);  // disabled: nothing kept
    tr.set_enabled(true);
    {
        pb::tracer::scope a(tr, outer, 7);
        pb::tracer::scope b(tr, inner, 7);
    }
    {
        pb::tracer::scope c(tr, outer, 8);
        pb::tracer::scope d(tr, inner, 8);  // over capacity
    }
    ASSERT_EQ(tr.spans().size(), 3u);
    EXPECT_EQ(tr.spans()[1].parent, 0u);
    EXPECT_EQ(tr.spans()[2].parent, pb::no_parent);
    EXPECT_EQ(tr.dropped(), 1u);
    const auto totals = tr.by_name();
    EXPECT_EQ(totals.at("service.pump").count, 2u);
    EXPECT_EQ(pb::layer_of("service.pump"), "service");
}

// ------------------------------------------------------ seed determinism

namespace {

pb::report small_run(const std::string& workload, std::uint64_t seed) {
    pb::options opt;
    opt.workload = workload;
    opt.seed = seed;
    opt.seconds = 0.05;
    opt.trace = true;
    opt.threads = 2;
    opt.sessions = 24;
    opt.record_s = 600.0;
    opt.scratch_dir =
        (std::filesystem::temp_directory_path() /
         ("perfbench-test-" + workload + "-" + std::to_string(seed)))
            .string();
    auto rep = pb::run_workload(opt);
    std::filesystem::remove_all(opt.scratch_dir);
    return rep;
}

/// Count metrics: they must repeat exactly for one seed.
bool is_count_metric(const std::string& name) {
    if (name.rfind("counting.ops_per_window.", 0) == 0) return true;
    if (name == "service.windows_per_round" || name == "core.mode_switches" ||
        name == "lomb.hop_hit_rate" || name == "lomb.hop_bytes" ||
        name == "journal.bytes_per_window" ||
        name == "journal.appends_per_window" || name == "journal.fsyncs" ||
        name == "service.snapshot_bytes" || name == "service.shard_windows_skew")
        return true;
    // Lane slots depend on which windows share a pass, which the beat
    // schedule fixes.
    return name == "service.lane_fill";
}

}  // namespace

class SeedDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(SeedDeterminism, TwoRunsOnOneSeedAgreeOnEveryCount) {
    const std::string w = GetParam();
    const auto a = small_run(w, 7);
    const auto b = small_run(w, 7);
    EXPECT_TRUE(a.correct);
    EXPECT_EQ(a.failed, 0u);
    EXPECT_GT(a.attempted, 0u);
    std::size_t counts = 0;
    for (const auto& m : a.per_layer) {
        if (!is_count_metric(m.name)) continue;
        const auto* other = b.find(m.name);
        ASSERT_NE(other, nullptr) << m.name;
        EXPECT_EQ(m.value, other->value) << m.name;
        ++counts;
    }
    EXPECT_GE(counts, 10u);
    EXPECT_GT(a.find("service.windows_per_round")->value, 0.0);
    if (w == "ward_replay") {
        // The governor ladder and the hop cache are exercised.
        EXPECT_GT(a.find("core.mode_switches")->value, 0.0);
        EXPECT_GT(a.find("lomb.hop_hit_rate")->value, 0.0);
    }

    const auto c = small_run(w, 8);
    EXPECT_NE(a.find("counting.ops_per_window.burg")->value,
              c.find("counting.ops_per_window.burg")->value)
        << "another seed draws another cohort";
}

INSTANTIATE_TEST_SUITE_P(Workloads, SeedDeterminism,
                         ::testing::Values("replay_mixed", "ward_replay",
                                           "durable_sharded"));
