// DWT-based FFT correctness tests: the unpruned transform must equal the
// DFT exactly (to rounding) for every basis and both tree modes -- the
// Guo-Burrus factorization (paper eq. (6)) is an identity, not an
// approximation, until pruning is enabled.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/dsp/dft.hpp"
#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/random.hpp"
#include "qpsa/wfft/twiddle_tables.hpp"
#include "qpsa/wfft/wavelet_fft.hpp"

using qpsa::cplx;
using qpsa::real;
namespace qw = qpsa::wavelet;
namespace qf = qpsa::wfft;
namespace qc = qpsa::counting;

namespace {

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
    qpsa::util::rng r(seed);
    std::vector<cplx> x(n);
    for (auto& v : x) v = cplx{r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)};
    return x;
}

real max_abs_diff(std::span<const cplx> a, std::span<const cplx> b) {
    real worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

}  // namespace

TEST(TwiddleTablesTest, FactorsAreFilterSpectra) {
    // For Haar: H[m] = (1 + W^m)/sqrt(2), so |A| decreases sqrt(2) -> 0 and
    // |C| increases 0 -> sqrt(2) -- the paper's Fig. 6 structure.
    const std::size_t n = 32;
    const auto t = qf::make_twiddle_tables(qw::basis::haar, n, false);
    ASSERT_EQ(t.half(), n / 2);
    EXPECT_NEAR(std::abs(t.a[0]), qpsa::sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(t.c[0]), 0.0, 1e-12);
    for (std::size_t m = 1; m < n / 2; ++m) {
        EXPECT_LT(std::abs(t.a[m]), std::abs(t.a[m - 1]));
        EXPECT_GT(std::abs(t.c[m]), std::abs(t.c[m - 1]));
    }
}

TEST(TwiddleTablesTest, FoldedTablesScaleByInvSqrt2) {
    const std::size_t n = 16;
    const auto plain = qf::make_twiddle_tables(qw::basis::haar, n, false);
    const auto folded = qf::make_twiddle_tables(qw::basis::haar, n, true);
    EXPECT_TRUE(folded.folded);
    for (std::size_t m = 0; m < n / 2; ++m)
        EXPECT_NEAR(std::abs(folded.a[m]) * qpsa::sqrt2, std::abs(plain.a[m]),
                    1e-12);
}

TEST(TwiddleTablesTest, MagnitudePopulationSize) {
    const auto t = qf::make_twiddle_tables(qw::basis::db2, 64, false);
    EXPECT_EQ(qf::factor_magnitudes(t, true).size(), 4u * 32u);
    EXPECT_EQ(qf::factor_magnitudes(t, false).size(), 2u * 32u);
}

TEST(LeafDftTest, SmallSizesMatchReference) {
    for (const std::size_t n : {1u, 2u, 4u}) {
        const auto x = random_signal(n, 40 + n);
        std::vector<cplx> out(n);
        qf::leaf_dft(x, out);
        const auto ref = qpsa::dsp::dft(x);
        EXPECT_LT(max_abs_diff(ref, out), 1e-12) << "n=" << n;
    }
}

struct WfftCase {
    qw::basis basis;
    qf::tree_mode tree;
};

class WfftExactTest : public ::testing::TestWithParam<WfftCase> {};

TEST_P(WfftExactTest, UnprunedEqualsDft) {
    const auto [basis, tree] = GetParam();
    for (const std::size_t n : {16u, 64u, 256u}) {
        if (tree == qf::tree_mode::recursive &&
            qw::filters(basis).length() > 8)
            continue;  // leaf too small for very long filters
        const auto x = random_signal(n, 50 + n);
        const qf::wavelet_fft fft(qf::plan::exact(n, basis, tree));
        const auto y = fft.forward_copy(x);
        const auto ref = qpsa::dsp::dft(x);
        EXPECT_LT(max_abs_diff(ref, y), 1e-8 * static_cast<real>(n))
            << qw::basis_name(basis) << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    BasesAndTrees, WfftExactTest,
    ::testing::Values(WfftCase{qw::basis::haar, qf::tree_mode::single_level},
                      WfftCase{qw::basis::db2, qf::tree_mode::single_level},
                      WfftCase{qw::basis::db3, qf::tree_mode::single_level},
                      WfftCase{qw::basis::db4, qf::tree_mode::single_level},
                      WfftCase{qw::basis::sym4, qf::tree_mode::single_level},
                      WfftCase{qw::basis::haar, qf::tree_mode::recursive},
                      WfftCase{qw::basis::db2, qf::tree_mode::recursive}));

TEST(WfftTest, FoldingDoesNotChangeResult) {
    const std::size_t n = 128;
    const auto x = random_signal(n, 61);
    qf::plan folded = qf::plan::exact(n, qw::basis::haar);
    folded.fold_haar_scale = true;
    qf::plan plain = folded;
    plain.fold_haar_scale = false;
    const auto y1 = qf::wavelet_fft(folded).forward_copy(x);
    const auto y2 = qf::wavelet_fft(plain).forward_copy(x);
    EXPECT_LT(max_abs_diff(y1, y2), 1e-9);
}

TEST(WfftTest, FoldingSavesMultiplications) {
    const std::size_t n = 256;
    const auto x = random_signal(n, 62);
    qf::plan folded = qf::plan::exact(n, qw::basis::haar);
    qf::plan plain = folded;
    plain.fold_haar_scale = false;
    qc::op_counts ops_folded;
    qc::op_counts ops_plain;
    {
        qc::count_scope s(ops_folded);
        (void)qf::wavelet_fft(folded).forward_copy(x);
    }
    {
        qc::count_scope s(ops_plain);
        (void)qf::wavelet_fft(plain).forward_copy(x);
    }
    EXPECT_LT(ops_folded.muls, ops_plain.muls);
    // Folding turns the sqrt(2)-scaled A[0] factor into a free rotation,
    // which also drops a couple of complex-multiply adds.
    EXPECT_LE(ops_folded.adds, ops_plain.adds);
    EXPECT_LT(ops_folded.arithmetic(), ops_plain.arithmetic());
}

TEST(WfftTest, LinearityHolds) {
    const std::size_t n = 64;
    const auto x1 = random_signal(n, 63);
    const auto x2 = random_signal(n, 64);
    const qf::wavelet_fft fft(qf::plan::exact(n, qw::basis::db2));
    std::vector<cplx> sum(n);
    for (std::size_t i = 0; i < n; ++i) sum[i] = x1[i] + 2.0 * x2[i];
    const auto y1 = fft.forward_copy(x1);
    const auto y2 = fft.forward_copy(x2);
    const auto ys = fft.forward_copy(sum);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_LT(std::abs(ys[i] - (y1[i] + 2.0 * y2[i])), 1e-9);
}

TEST(WfftTest, AnalyzeReportsSubbandSparsity) {
    // A smooth real signal should show |d| << |a| in the first stage.
    const std::size_t n = 128;
    std::vector<cplx> x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = cplx{std::sin(qpsa::two_pi * 2.0 * static_cast<real>(i) /
                             static_cast<real>(n)),
                    0.0};
    const qf::wavelet_fft fft(qf::plan::exact(n, qw::basis::haar));
    const auto sub = fft.analyze(x);
    // Mean |x| of a unit sine is ~0.64; the Haar detail band of a smooth
    // tone at 2 cycles / 128 samples is tiny in comparison.
    EXPECT_LT(sub.d_mean_l1, 0.1);
    EXPECT_EQ(sub.a_fft.size(), n / 2);
    EXPECT_EQ(sub.d_fft.size(), n / 2);
}

TEST(WfftTest, StatsCountTerms) {
    const std::size_t n = 64;
    const auto x = random_signal(n, 65);
    const qf::wavelet_fft fft(qf::plan::exact(n, qw::basis::haar));
    qf::exec_stats st;
    (void)fft.forward_copy(x, &st);
    // Single-level: 4 terms per m-pair, n/2 pairs.
    EXPECT_EQ(st.terms_total, 4u * (n / 2));
    EXPECT_EQ(st.terms_pruned_factor, 0u);
    EXPECT_EQ(st.terms_pruned_data, 0u);
    // Haar has structural zeros at C[0] and B[...]: at least one.
    EXPECT_GE(st.terms_structural_zero, 1u);
    EXPECT_FALSE(st.band_dropped);
}

TEST(WfftTest, PlanValidation) {
    EXPECT_THROW(qf::plan::exact(7, qw::basis::haar), qpsa::contract_error);
    qf::plan p = qf::plan::exact(64, qw::basis::haar);
    p.prune.twiddle_fraction = 1.5;
    EXPECT_THROW(p.validate(), qpsa::contract_error);
}

TEST(WfftTest, WfftOpCountVsSplitRadixAt512) {
    // Complexity sanity for the paper's Fig. 5(a) shape: the unpruned Haar
    // wavelet FFT costs more than split-radix, but less than ~1.6x.
    const std::size_t n = 512;
    const auto x = random_signal(n, 66);
    qc::op_counts wavelet_ops;
    qc::op_counts sr_ops;
    {
        const qf::wavelet_fft fft(qf::plan::exact(n, qw::basis::haar));
        qc::count_scope s(wavelet_ops);
        (void)fft.forward_copy(x);
    }
    {
        const qpsa::dsp::fft_split_radix fft(n);
        qc::count_scope s(sr_ops);
        (void)fft.forward_copy(x);
    }
    EXPECT_GT(wavelet_ops.arithmetic(), sr_ops.arithmetic());
    EXPECT_LT(wavelet_ops.arithmetic(),
              static_cast<std::uint64_t>(1.6 * sr_ops.arithmetic()));
}

// --------------------------------------- recursive lane-batched walk

namespace {

/// forward_batched against per-item forward(): outputs, op counts and
/// exec_stats must match bit for bit (the lane walk executes the scalar
/// operation sequence per lane and attributes the memoized static-
/// schedule tally per item).
void expect_batched_identical(const qf::plan& base, bool real_in) {
    qf::plan p = base;
    p.assume_real_input = real_in;
    const qf::wavelet_fft fft(p);
    ASSERT_TRUE(fft.static_schedule());
    ASSERT_TRUE(fft.lane_batchable());
    qpsa::util::rng r(97 + p.n + (real_in ? 1 : 0));
    // Counts around the lane width: pairs, exact multiples, ragged tails.
    for (const std::size_t count : {2u, 3u, 4u, 5u, 9u}) {
        std::vector<std::vector<cplx>> ins(count), seq(count), bat(count);
        std::vector<qf::exec_stats> st_seq(count), st_bat(count);
        for (auto& v : ins) {
            v.resize(p.n);
            for (auto& c : v)
                c = cplx{r.uniform(-1.0, 1.0),
                         real_in ? 0.0 : r.uniform(-1.0, 1.0)};
        }
        for (std::size_t i = 0; i < count; ++i) {
            seq[i].resize(p.n);
            bat[i].resize(p.n);
            fft.forward(ins[i], seq[i], &st_seq[i]);
        }
        std::vector<qf::wavelet_fft::batch_io> ios;
        for (std::size_t i = 0; i < count; ++i)
            ios.push_back({ins[i].data(), bat[i].data(), &st_bat[i]});
        qpsa::util::arena scratch;
        fft.forward_batched(ios, scratch);
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(std::memcmp(seq[i].data(), bat[i].data(),
                                  p.n * sizeof(cplx)),
                      0)
                << "n=" << p.n << " count=" << count << " item=" << i;
            EXPECT_EQ(st_seq[i].ops, st_bat[i].ops)
                << "count=" << count << " item=" << i;
            EXPECT_EQ(st_seq[i].terms_total, st_bat[i].terms_total);
            EXPECT_EQ(st_seq[i].terms_pruned_factor,
                      st_bat[i].terms_pruned_factor);
            EXPECT_EQ(st_seq[i].terms_pruned_data,
                      st_bat[i].terms_pruned_data);
            EXPECT_EQ(st_seq[i].terms_structural_zero,
                      st_bat[i].terms_structural_zero);
            EXPECT_EQ(st_seq[i].band_dropped, st_bat[i].band_dropped);
        }
    }
}

}  // namespace

TEST(WfftRecursiveLaneTest, BatchedWalkBitIdenticalToSequential) {
    using qf::tree_mode;
    expect_batched_identical(
        qf::plan::exact(512, qw::basis::haar, tree_mode::recursive), true);
    expect_batched_identical(
        qf::plan::exact(512, qw::basis::haar, tree_mode::recursive), false);
    expect_batched_identical(
        qf::plan::exact(64, qw::basis::haar, tree_mode::recursive), false);
    expect_batched_identical(
        qf::plan::exact(16, qw::basis::haar, tree_mode::recursive), false);
    expect_batched_identical(
        qf::plan::static_pruned(512, qw::basis::haar, qf::twiddle_set::set2,
                                tree_mode::recursive),
        true);
    expect_batched_identical(
        qf::plan::band_dropped(256, qw::basis::haar, tree_mode::recursive),
        true);
}

TEST(WfftRecursiveLaneTest, StaticScheduleGate) {
    // Dynamic pruning decides per window from the data: no static
    // schedule, the batched walk must not claim it.
    const qf::wavelet_fft dynamic(qf::plan::dynamic_pruned(
        256, qw::basis::haar, qf::twiddle_set::set2, 0.1, 0.1,
        qf::tree_mode::recursive));
    EXPECT_FALSE(dynamic.static_schedule());
    EXPECT_FALSE(dynamic.lane_batchable());

    // Db2 tables are never folded-Haar, so the recursive walk stays off.
    const qf::wavelet_fft db2(
        qf::plan::exact(128, qw::basis::db2, qf::tree_mode::recursive));
    EXPECT_FALSE(db2.static_schedule());
    EXPECT_FALSE(db2.lane_batchable());

    // A static-schedule recursive tree is lane-batchable by structure.
    const qf::wavelet_fft rec(
        qf::plan::exact(128, qw::basis::haar, qf::tree_mode::recursive));
    EXPECT_TRUE(rec.static_schedule());
    EXPECT_TRUE(rec.lane_batchable());

    // single_level trees lane-batch through the split-radix sub-FFTs.
    const qf::wavelet_fft single(qf::plan::exact(128, qw::basis::haar));
    EXPECT_FALSE(single.static_schedule());
    EXPECT_TRUE(single.lane_batchable());
}
