// Tests for the fixed-point wavelet FFT (precision-scalable datapath).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "qpsa/dsp/dft.hpp"
#include "qpsa/lomb/fixed_engine.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/random.hpp"
#include "qpsa/wfft/fixed_wavelet_fft.hpp"

using qpsa::cplx;
using qpsa::real;
namespace qf = qpsa::wfft;

namespace {

std::vector<double> random_real(std::size_t n, std::uint64_t seed, double amp) {
    qpsa::util::rng r(seed);
    std::vector<double> x(n);
    for (auto& v : x) v = r.uniform(-amp, amp);
    return x;
}

/// Relative L2 error of the fixed-point transform against the exact DFT,
/// accounting for the deterministic 1/N block-floating scale.
template <unsigned F>
double transform_error(const qf::fixed_wavelet_fft<F>& fft,
                       std::span<const double> xs) {
    const std::size_t n = xs.size();
    const auto fin = qf::fixed_wavelet_fft<F>::from_real(xs);
    std::vector<typename qf::fixed_wavelet_fft<F>::fcplx> fout(n);
    fft.forward(fin, fout);

    std::vector<cplx> dx(n);
    for (std::size_t i = 0; i < n; ++i) dx[i] = cplx{xs[i], 0.0};
    const auto ref = qpsa::dsp::dft(dx);

    double num = 0.0;
    double den = 0.0;
    const double scale = static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
        const cplx got{fout[i].re.to_double() * scale,
                       fout[i].im.to_double() * scale};
        num += qpsa::sqr_mag(got - ref[i]);
        den += qpsa::sqr_mag(ref[i]);
    }
    return std::sqrt(num / den);
}

/// FNV-1a over 64-bit words, fed least-significant byte first.
struct fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }
};

/// Seeded complex samples in [-peak, peak], drawn from splitmix64 so the
/// inputs do not depend on the standard library's distributions.
std::vector<cplx> seeded_window(std::size_t n, std::uint64_t seed, double peak) {
    std::vector<cplx> x(n);
    std::uint64_t s = seed;
    auto draw = [&] {
        s = qpsa::util::splitmix64(s);
        return static_cast<double>(s >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    };
    double hi = 0.0;
    for (auto& v : x) {
        v = cplx{draw(), draw()};
        hi = std::max({hi, std::abs(v.real()), std::abs(v.imag())});
    }
    for (auto& v : x) v *= peak / hi;
    return x;
}

template <unsigned F>
std::vector<typename qf::fixed_wavelet_fft<F>::config> golden_configs(
    std::size_t n) {
    return {{.n = n},
            {.n = n, .band_drop = true, .twiddle_fraction = 0.4},
            {.n = n, .twiddle_fraction = 0.4}};
}

/// One hash per config over the output raws for three seeded input sets:
/// the engine adapter's 0.2 peak, 3x that, and 0.75 of the format's
/// ceiling (where the Haar and butterfly adds saturate).
template <unsigned F>
std::vector<std::uint64_t> transform_output_hashes() {
    using fft_t = qf::fixed_wavelet_fft<F>;
    using scalar = typename fft_t::scalar;
    const std::size_t n = 512;
    std::vector<std::uint64_t> hashes;
    for (const auto& cfg : golden_configs<F>(n)) {
        const fft_t fft(cfg);
        fnv1a h;
        const double peaks[] = {0.2, 0.6, 0.75 * scalar::max_value()};
        for (std::size_t s = 0; s < 3; ++s) {
            const auto x = seeded_window(n, 0x5eed0000U + s, peaks[s]);
            std::vector<typename fft_t::fcplx> in(n);
            for (std::size_t i = 0; i < n; ++i)
                in[i] = {scalar(x[i].real()), scalar(x[i].imag())};
            std::vector<typename fft_t::fcplx> out(n);
            fft.forward(in, out);
            for (const auto& v : out) {
                h.add(static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(v.re.raw())));
                h.add(static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(v.im.raw())));
            }
        }
        hashes.push_back(h.h);
    }
    return hashes;
}

/// Hash of the output-double bits of the Fast-Lomb adapter over seeded
/// windows of mixed amplitude, every config, one reused arena.
template <unsigned F>
std::uint64_t engine_output_hash() {
    const std::size_t n = 512;
    qpsa::util::arena scratch;
    fnv1a h;
    for (const auto& cfg : golden_configs<F>(n)) {
        const qpsa::lomb::fixed_wavelet_engine<F> engine(cfg);
        for (std::uint64_t w = 0; w < 4; ++w) {
            const auto in = seeded_window(n, 0xe1e0000U + w, 1.0 + 37.0 * w);
            std::vector<cplx> out(n);
            engine.forward(in, out, nullptr, scratch);
            for (const cplx& v : out) {
                h.add(std::bit_cast<std::uint64_t>(v.real()));
                h.add(std::bit_cast<std::uint64_t>(v.imag()));
            }
        }
    }
    return h.h;
}

}  // namespace

TEST(FixedWfftTest, GoldenOutputBits) {
    // Pinned output bits of the Q15 and Q31 datapaths (exact, band drop
    // with 40 % factor pruning, full with 40 % pruning).  Any change to
    // the fixed-point primitives' rounding or saturation moves a hash.
    const std::vector<std::uint64_t> q15 = {
        0xafa2e1e07c3506ccULL, 0x7eec79b53242496cULL, 0x1c572d9ed37123c6ULL};
    const std::vector<std::uint64_t> q31 = {
        0xc77daa09a68a5f2aULL, 0xfa8ed7e521962fdcULL, 0x94aaf523e683ce68ULL};
    EXPECT_EQ(transform_output_hashes<15>(), q15);
    EXPECT_EQ(transform_output_hashes<31>(), q31);
    EXPECT_EQ(engine_output_hash<15>(), 0x80c004f7374991d4ULL);
    EXPECT_EQ(engine_output_hash<31>(), 0xb83a5fa809b2a759ULL);
}

TEST(FixedWfftTest, Q23MatchesDftClosely) {
    const std::size_t n = 128;
    const auto xs = random_real(n, 1, 0.3);
    qf::fixed_wavelet_fft<23> fft({.n = n});
    EXPECT_LT(transform_error(fft, xs), 2e-4);
}

TEST(FixedWfftTest, ErrorGrowsAsPrecisionShrinks) {
    const std::size_t n = 128;
    const auto xs = random_real(n, 2, 0.3);
    const double e23 = transform_error(qf::fixed_wavelet_fft<23>({.n = n}), xs);
    const double e15 = transform_error(qf::fixed_wavelet_fft<15>({.n = n}), xs);
    const double e11 = transform_error(qf::fixed_wavelet_fft<11>({.n = n}), xs);
    EXPECT_LT(e23, e15);
    EXPECT_LT(e15, e11);
    // Q1.15 on a 128-point transform stays comfortably sub-percent.
    EXPECT_LT(e15, 0.01);
}

TEST(FixedWfftTest, BandDropBehavesLikeDoubleEngine) {
    // Band drop on a smooth signal: small extra error on top of
    // quantization, exactly as in the double-precision engine.
    const std::size_t n = 128;
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i)
        xs[i] = 0.3 * std::sin(qpsa::two_pi * 3.0 * i / n) +
                0.1 * std::sin(qpsa::two_pi * 7.0 * i / n);
    const double exact =
        transform_error(qf::fixed_wavelet_fft<15>({.n = n}), xs);
    const double dropped = transform_error(
        qf::fixed_wavelet_fft<15>({.n = n, .band_drop = true}), xs);
    EXPECT_GT(dropped, exact);
    EXPECT_LT(dropped, 0.2);
}

TEST(FixedWfftTest, TwiddlePruningReducesSpectrumTail) {
    const std::size_t n = 128;
    const auto xs = random_real(n, 3, 0.3);
    qf::fixed_wavelet_fft<15> full({.n = n, .band_drop = true});
    qf::fixed_wavelet_fft<15> pruned(
        {.n = n, .band_drop = true, .twiddle_fraction = 0.6});
    const auto p_full = full.power(qf::fixed_wavelet_fft<15>::from_real(xs));
    const auto p_pruned = pruned.power(qf::fixed_wavelet_fft<15>::from_real(xs));
    // Pruned factors zero entire bins; total power must not increase.
    double s_full = 0.0;
    double s_pruned = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        s_full += p_full[i];
        s_pruned += p_pruned[i];
    }
    EXPECT_LT(s_pruned, s_full + 1e-12);
    // And some bins are exactly zero.
    std::size_t zeros = 0;
    for (double p : p_pruned)
        if (p == 0.0) ++zeros;
    EXPECT_GT(zeros, n / 8);
}

TEST(FixedWfftTest, NoSaturationForBoundedInput) {
    // Near-full-scale input through all stages: the interstage shifts
    // must prevent wrap/saturation artifacts (error stays small).
    const std::size_t n = 512;
    const auto xs = random_real(n, 4, 0.45);
    const double err = transform_error(qf::fixed_wavelet_fft<15>({.n = n}), xs);
    EXPECT_LT(err, 0.02);
}

TEST(FixedWfftTest, ToneBinLocatesCorrectly) {
    const std::size_t n = 256;
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i)
        xs[i] = 0.4 * std::sin(qpsa::two_pi * 10.0 * i / n);
    qf::fixed_wavelet_fft<15> fft({.n = n});
    const auto p = fft.power(qf::fixed_wavelet_fft<15>::from_real(xs));
    std::size_t best = 1;
    for (std::size_t i = 1; i < n / 2; ++i)
        if (p[i] > p[best]) best = i;
    EXPECT_EQ(best, 10u);
}

class FixedWfftPrecisionSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(FixedWfftPrecisionSweep, BandDropPlusQuantizationStaysBounded) {
    // Property: for every precision in the sweep, the combined band-drop +
    // quantization error on a smooth signal stays below 25 %.
    const unsigned bits = GetParam();
    const std::size_t n = 128;
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i)
        xs[i] = 0.25 * std::sin(qpsa::two_pi * 2.0 * i / n) +
                0.05 * std::sin(qpsa::two_pi * 9.0 * i / n);
    double err = 0.0;
    switch (bits) {
        case 11:
            err = transform_error(
                qf::fixed_wavelet_fft<11>({.n = n, .band_drop = true}), xs);
            break;
        case 15:
            err = transform_error(
                qf::fixed_wavelet_fft<15>({.n = n, .band_drop = true}), xs);
            break;
        case 19:
            err = transform_error(
                qf::fixed_wavelet_fft<19>({.n = n, .band_drop = true}), xs);
            break;
        case 23:
            err = transform_error(
                qf::fixed_wavelet_fft<23>({.n = n, .band_drop = true}), xs);
            break;
        default:
            FAIL() << "unhandled precision";
    }
    EXPECT_LT(err, 0.25) << "F=" << bits;
    EXPECT_GT(err, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Precisions, FixedWfftPrecisionSweep,
                         ::testing::Values(11u, 15u, 19u, 23u));
