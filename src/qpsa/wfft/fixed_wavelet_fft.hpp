// Fixed-point execution of the quality-scalable wavelet FFT.
//
// The double-precision engine (wavelet_fft) prices operations; this
// templated variant *computes* in Q-format fixed point, demonstrating the
// second quality axis of an embedded deployment: datapath wordlength.
// The structure mirrors the single-level factorization -- Haar DWT stage,
// two radix-2 sub-FFTs, diagonal combine with optional band drop and
// static factor pruning -- entirely over fixed_point<F> arithmetic with
// saturating rounds, so quantization error accumulates exactly as it
// would on a sensor node's integer datapath.
//
// Scope: Haar basis, power-of-two sizes, forward transform.  Inputs must
// be scaled into the fixed-point range by the caller (|x| < ~0.25 keeps
// the unnormalized Haar stage and FFT growth inside Q1.F for N = 512 when
// the interstage shifts below are enabled).
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "qpsa/fixedpoint/fixed_point.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/common.hpp"
#include "qpsa/wfft/prune.hpp"
#include "qpsa/wfft/twiddle_tables.hpp"

namespace qpsa::wfft {

template <unsigned FracBits>
class fixed_wavelet_fft {
public:
    using scalar = fp::fixed_point<FracBits>;
    using fcplx = fp::basic_complex<scalar>;

    struct config {
        std::size_t n = 512;
        bool band_drop = false;
        double twiddle_fraction = 0.0;  ///< static factor pruning
        /// Divide by 2 after every butterfly stage (block-floating style)
        /// so the transform never saturates; the output is then the DFT
        /// scaled by 1/N, which cancels in power *ratios*.
        bool interstage_shift = true;
    };

    explicit fixed_wavelet_fft(config cfg) : cfg_(cfg) {
        QPSA_EXPECTS(is_pow2(cfg_.n) && cfg_.n >= 8);
        build_tables();
    }

    const config& get_config() const noexcept { return cfg_; }

    /// Combine terms evaluated per forward(): 2 (band drop) or 4 diagonal
    /// factors per output pair, n/2 pairs.
    std::size_t combine_terms() const noexcept {
        return (cfg_.band_drop ? 2 : 4) * (cfg_.n / 2);
    }

    /// Of those, how many are skipped by the static factor pruning (the
    /// quantile threshold folded into the tables at construction).
    std::size_t pruned_terms() const noexcept { return pruned_terms_; }

    /// Forward transform; in/out sized n.  Output scale is 1/N relative
    /// to the mathematical DFT when interstage_shift is on.
    void forward(std::span<const fcplx> in, std::span<fcplx> out) const {
        util::arena scratch;
        forward(in, out, scratch);
    }

    /// Forward transform with subband scratch drawn from `scratch`
    /// (allocation-free in steady state; bit-identical to the above).
    void forward(std::span<const fcplx> in, std::span<fcplx> out,
                 util::arena& scratch) const {
        QPSA_EXPECTS(in.size() == cfg_.n);
        QPSA_EXPECTS(out.size() == cfg_.n);
        const std::size_t half = cfg_.n / 2;

        util::arena::frame frame(scratch);
        // Haar stage, folded (the 1/sqrt(2) lives in the factor tables);
        // with interstage shifting the butterfly halves instead.
        std::span<fcplx> a = scratch.alloc<fcplx>(half);
        std::span<fcplx> d = scratch.alloc<fcplx>(half);
        const scalar h(0.5);
        for (std::size_t k = 0; k < half; ++k) {
            fcplx s{in[2 * k].re + in[2 * k + 1].re,
                    in[2 * k].im + in[2 * k + 1].im};
            fcplx t{in[2 * k].re - in[2 * k + 1].re,
                    in[2 * k].im - in[2 * k + 1].im};
            if (cfg_.interstage_shift) {
                s = scale(s, h);
                t = scale(t, h);
            }
            a[k] = s;
            d[k] = t;
        }

        std::span<fcplx> a_fft = scratch.alloc<fcplx>(half);
        sub_fft(a, a_fft);
        std::span<fcplx> d_fft;
        if (!cfg_.band_drop) {
            d_fft = scratch.alloc<fcplx>(half);
            sub_fft(d, d_fft);
        }

        for (std::size_t m = 0; m < half; ++m) {
            fcplx top = mul_pruned(fa_[m], a_fft[m], pruned_a_[m]);
            fcplx bot = mul_pruned(fc_[m], a_fft[m], pruned_c_[m]);
            if (!cfg_.band_drop) {
                const fcplx tb = mul_pruned(fb_[m], d_fft[m], pruned_b_[m]);
                const fcplx td = mul_pruned(fd_[m], d_fft[m], pruned_d_[m]);
                top = {top.re + tb.re, top.im + tb.im};
                bot = {bot.re + td.re, bot.im + td.im};
            }
            out[m] = top;
            out[m + half] = bot;
        }
    }

    /// Power spectrum |X|^2 in doubles (for quality evaluation).
    std::vector<double> power(std::span<const fcplx> in) const {
        std::vector<fcplx> y(cfg_.n);
        forward(in, y);
        std::vector<double> p(cfg_.n);
        for (std::size_t i = 0; i < cfg_.n; ++i) {
            const double re = y[i].re.to_double();
            const double im = y[i].im.to_double();
            p[i] = re * re + im * im;
        }
        return p;
    }

    /// Convert a real double vector into the fixed-point complex domain.
    static std::vector<fcplx> from_real(std::span<const double> xs) {
        std::vector<fcplx> out(xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i)
            out[i] = fcplx{scalar(xs[i]), scalar(0.0)};
        return out;
    }

private:
    static fcplx scale(fcplx v, scalar s) { return {v.re * s, v.im * s}; }

    static fcplx mul_pruned(fcplx f, fcplx v, bool pruned) {
        if (pruned) return {scalar(0.0), scalar(0.0)};
        return f * v;
    }

    /// Radix-2 DIT over fixed point with optional interstage halving.
    void sub_fft(std::span<const fcplx> in, std::span<fcplx> out) const {
        const std::size_t m = in.size();
        for (std::size_t i = 0; i < m; ++i) out[bitrev_[i]] = in[i];
        const scalar h(0.5);
        for (std::size_t len = 2; len <= m; len <<= 1) {
            const std::size_t half_len = len / 2;
            const std::size_t step = m / len;
            for (std::size_t base = 0; base < m; base += len) {
                for (std::size_t k = 0; k < half_len; ++k) {
                    const fcplx w = subtw_[k * step];
                    const fcplx t = w * out[base + k + half_len];
                    fcplx u = out[base + k];
                    fcplx x0{u.re + t.re, u.im + t.im};
                    fcplx x1{u.re - t.re, u.im - t.im};
                    if (cfg_.interstage_shift) {
                        x0 = scale(x0, h);
                        x1 = scale(x1, h);
                    }
                    out[base + k] = x0;
                    out[base + k + half_len] = x1;
                }
            }
        }
    }

    void build_tables() {
        const std::size_t half = cfg_.n / 2;
        // Double-precision reference tables, folded Haar scaling; divide
        // by 2 once more when the Haar butterfly itself was halved.  The
        // reference derivation costs two direct length-n DFTs, so it comes
        // from the process-wide memo (shared with every wavelet_fft of the
        // same shape) instead of being rebuilt per engine.
        const std::shared_ptr<const twiddle_tables> shared =
            shared_twiddle_tables(wavelet::basis::haar, cfg_.n, true);
        const twiddle_tables& ref = *shared;
        const std::vector<real> mags =
            factor_magnitudes(ref, !cfg_.band_drop);
        const real thr = magnitude_threshold(mags, cfg_.twiddle_fraction);

        auto convert = [&](const std::vector<cplx>& src, std::vector<fcplx>& dst,
                           std::vector<bool>& pruned) {
            dst.resize(half);
            pruned.resize(half);
            for (std::size_t i = 0; i < half; ++i) {
                pruned[i] = std::abs(src[i]) <= std::max(thr, real{1e-14});
                dst[i] = fcplx{scalar(src[i].real()), scalar(src[i].imag())};
            }
        };
        convert(ref.a, fa_, pruned_a_);
        convert(ref.b, fb_, pruned_b_);
        convert(ref.c, fc_, pruned_c_);
        convert(ref.d, fd_, pruned_d_);
        auto count = [](const std::vector<bool>& v) {
            return static_cast<std::size_t>(std::count(v.begin(), v.end(), true));
        };
        pruned_terms_ = count(pruned_a_) + count(pruned_c_);
        if (!cfg_.band_drop) pruned_terms_ += count(pruned_b_) + count(pruned_d_);

        // Sub-FFT twiddles and bit-reversal for size n/2.
        const std::size_t m = half;
        subtw_.resize(m / 2);
        for (std::size_t k = 0; k < m / 2; ++k) {
            const real ang = -two_pi * static_cast<real>(k) / static_cast<real>(m);
            subtw_[k] = fcplx{scalar(std::cos(ang)), scalar(std::sin(ang))};
        }
        bitrev_.resize(m);
        const unsigned bits = log2_exact(m);
        for (std::size_t i = 0; i < m; ++i) {
            std::size_t r = 0;
            std::size_t v = i;
            for (unsigned b = 0; b < bits; ++b) {
                r = (r << 1) | (v & 1);
                v >>= 1;
            }
            bitrev_[i] = r;
        }
    }

    config cfg_;
    std::vector<fcplx> fa_, fb_, fc_, fd_;
    std::vector<bool> pruned_a_, pruned_b_, pruned_c_, pruned_d_;
    std::size_t pruned_terms_ = 0;
    std::vector<fcplx> subtw_;
    std::vector<std::size_t> bitrev_;
};

}  // namespace qpsa::wfft
