// HRV analysis tests: RR windows, band powers, detection, quality metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "qpsa/hrv/bands.hpp"
#include "qpsa/hrv/detector.hpp"
#include "qpsa/hrv/quality.hpp"
#include "qpsa/hrv/rr.hpp"
#include "qpsa/util/random.hpp"

using qpsa::real;
namespace qh = qpsa::hrv;

namespace {
qh::rr_window make_window(std::size_t n, real rr0 = 0.8) {
    qh::rr_window w;
    real t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const real rr = rr0 + 0.05 * std::sin(0.3 * static_cast<real>(i));
        t += rr;
        w.t.push_back(t);
        w.rr.push_back(rr);
    }
    return w;
}
}  // namespace

TEST(RrWindowTest, ValidityChecks) {
    auto w = make_window(20);
    EXPECT_TRUE(qh::is_valid(w));
    auto bad_time = w;
    std::swap(bad_time.t[3], bad_time.t[4]);
    EXPECT_FALSE(qh::is_valid(bad_time));
    auto bad_rr = w;
    bad_rr.rr[5] = 3.0;
    EXPECT_FALSE(qh::is_valid(bad_rr));
    qh::rr_window tiny;
    EXPECT_FALSE(qh::is_valid(tiny));
}

TEST(RrWindowTest, SliceSelectsHalfOpenInterval) {
    const auto w = make_window(100);
    const auto s = qh::slice(w.t, w.rr, 10.0, 20.0);
    EXPECT_GT(s.beats(), 0u);
    for (real t : s.t) {
        EXPECT_GE(t, 10.0);
        EXPECT_LT(t, 30.0);
    }
}

TEST(RrWindowTest, SlidingWindowsCoverRecord) {
    const auto w = make_window(300);
    const auto windows = qh::sliding_windows(w.t, w.rr, 60.0, 0.5, 16);
    EXPECT_GE(windows.size(), 5u);
    // 50 % overlap: starts are ~30 s apart.
    for (std::size_t i = 1; i < windows.size(); ++i)
        EXPECT_NEAR(windows[i].t.front() - windows[i - 1].t.front(), 30.0, 2.0);
}

TEST(RrWindowTest, EctopicFilterFixesOutliers) {
    auto w = make_window(50);
    w.rr[20] = 1.6;  // ectopic-like outlier
    w.rr[35] = 0.3;
    const std::size_t fixed = qh::filter_ectopic(w);
    EXPECT_GE(fixed, 2u);
    EXPECT_LT(w.rr[20], 1.0);
    EXPECT_GT(w.rr[35], 0.6);
}

TEST(RrWindowTest, EctopicFilterLeavesCleanDataAlone) {
    auto w = make_window(50);
    EXPECT_EQ(qh::filter_ectopic(w), 0u);
}

TEST(BandPowerTest, SyntheticSpectrumSplit) {
    qpsa::dsp::sampled_spectrum s;
    for (int i = 1; i <= 100; ++i) {
        const real f = 0.005 * i;
        s.freq_hz.push_back(f);
        // Power 10 in LF band, 20 in HF band, 1 elsewhere.
        real p = 1.0;
        if (f >= 0.04 && f < 0.15) p = 10.0;
        if (f >= 0.15 && f < 0.40) p = 20.0;
        s.power.push_back(p);
    }
    const auto bp = qh::compute_band_powers(s);
    EXPECT_NEAR(bp.lf, 10.0 * 0.11, 0.2);
    EXPECT_NEAR(bp.hf, 20.0 * 0.25, 0.4);
    EXPECT_NEAR(bp.lf_hf_ratio(), 10.0 * 0.11 / (20.0 * 0.25), 0.05);
    EXPECT_GT(bp.total, bp.lf + bp.hf);
}

namespace {
/// A 0.01 Hz background grid (never on a band edge) plus grid points at
/// `offset` from each of the 0.04 / 0.15 / 0.40 Hz edges, sorted; power
/// from `power_of(f)`.
template <typename PowerFn>
qpsa::dsp::sampled_spectrum edge_grid(const std::vector<real>& offsets,
                                      PowerFn power_of) {
    std::vector<real> f;
    for (int i = 0; i < 50; ++i) f.push_back(0.005 + 0.01 * i);
    for (const real edge : {0.04, 0.15, 0.40})
        for (const real off : offsets) f.push_back(edge + off);
    std::sort(f.begin(), f.end());
    qpsa::dsp::sampled_spectrum s;
    for (const real fi : f) {
        s.freq_hz.push_back(fi);
        s.power.push_back(power_of(fi));
    }
    return s;
}
}  // namespace

TEST(BandPowerTest, BandEdgesPartitionLfPlusHf) {
    // LF = [0.04, 0.15) and HF = [0.15, 0.40) tile [0.04, 0.40) exactly,
    // wherever the grid falls relative to each edge: on it, just below,
    // just above, or straddling it.
    constexpr real d = 1e-6;
    const std::vector<std::vector<real>> rows = {
        {0.0}, {-d}, {+d}, {-d, +d}, {-d, 0.0, +d},
    };
    const auto wavy = [](real f) { return 1.0 + 0.5 * std::sin(37.0 * f); };
    for (const auto& offsets : rows) {
        const auto s = edge_grid(offsets, wavy);
        const auto bp = qh::compute_band_powers(s);
        EXPECT_NEAR(bp.lf + bp.hf, qpsa::dsp::band_power(s, 0.04, 0.40),
                    1e-12)
            << "grid points at edge offsets starting " << offsets.front();
        EXPECT_GT(bp.lf, 0.0);
        EXPECT_GT(bp.hf, 0.0);
    }
}

TEST(BandPowerTest, PowerAboveHfEdgeAddsNothingToHf) {
    // Power confined to (0.40, 0.5) Hz: zero at and below the HF edge,
    // positive above it.  HF ends at 0.40 Hz, so it stays exactly zero
    // while the total sees the tail.
    constexpr real d = 1e-6;
    const auto s = edge_grid({-d, 0.0, +d},
                             [](real f) { return f > 0.40 ? 3.0 : 0.0; });
    const auto bp = qh::compute_band_powers(s);
    EXPECT_EQ(bp.hf, 0.0);
    EXPECT_EQ(bp.lf, 0.0);
    EXPECT_GT(bp.total, 0.0);
    EXPECT_GT(qpsa::dsp::band_power(s, 0.40, 0.5), 0.0);
}

TEST(BandPowerTest, ZeroHfGivesZeroRatio) {
    qh::band_powers bp;
    bp.lf = 5.0;
    bp.hf = 0.0;
    EXPECT_DOUBLE_EQ(bp.lf_hf_ratio(), 0.0);
}

TEST(DetectorTest, RatioBelowOneFlagsArrhythmia) {
    qh::band_powers bp;
    bp.lf = 0.45;
    bp.hf = 1.0;
    EXPECT_EQ(qh::classify(bp), qh::diagnosis::sinus_arrhythmia);
    bp.lf = 2.0;
    EXPECT_EQ(qh::classify(bp), qh::diagnosis::normal);
}

TEST(DetectorTest, AgreementCountsMatchingDiagnoses) {
    const std::vector<real> ref = {0.4, 0.5, 1.5, 2.0};
    const std::vector<real> good = {0.45, 0.52, 1.4, 2.2};
    const std::vector<real> flip = {1.1, 0.52, 0.9, 2.2};
    EXPECT_DOUBLE_EQ(qh::diagnosis_agreement(ref, good), 1.0);
    EXPECT_DOUBLE_EQ(qh::diagnosis_agreement(ref, flip), 0.5);
}

TEST(QualityTest, RatioErrorPercent) {
    qh::band_powers ref;
    ref.lf = 0.45;
    ref.hf = 1.0;
    qh::band_powers approx;
    approx.lf = 0.4652;
    approx.hf = 1.0;
    // The paper's Fig. 8 numbers: 0.451 vs 0.4652 is ~3 % error.
    EXPECT_NEAR(qh::ratio_error_percent(approx, ref), 3.38, 0.1);
}

TEST(QualityTest, SummaryAggregates) {
    std::vector<qh::band_powers> ref(4);
    std::vector<qh::band_powers> approx(4);
    for (int i = 0; i < 4; ++i) {
        ref[i].lf = 0.45;
        ref[i].hf = 1.0;
        approx[i].lf = 0.45 * (1.0 + 0.02 * (i + 1));
        approx[i].hf = 1.0;
    }
    const std::vector<real> mses = {1.0, 2.0, 3.0, 4.0};
    const auto q = qh::summarize_quality(ref, approx, mses);
    EXPECT_NEAR(q.mean_ratio_error_pct, 5.0, 1e-9);
    EXPECT_NEAR(q.max_ratio_error_pct, 8.0, 1e-9);
    EXPECT_NEAR(q.mean_spectrum_mse, 2.5, 1e-12);
    EXPECT_DOUBLE_EQ(q.detection_agreement, 1.0);
    EXPECT_NEAR(q.mean_ratio_reference, 0.45, 1e-12);
}

TEST(QualityTest, SpectrumMseZeroForIdentical) {
    qpsa::dsp::sampled_spectrum s;
    s.freq_hz = {0.1, 0.2};
    s.power = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(qh::spectrum_mse(s, s), 0.0);
}
