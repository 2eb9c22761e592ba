// Templated fixed-point arithmetic for precision-scalable kernels.
//
// The paper trades quality for energy by pruning operations; an orthogonal
// quality knob on embedded targets is the datapath wordlength.  qpsa's
// spectral kernels are templated on the scalar type, and fixed_point<F>
// lets experiments sweep fractional precision (Q1.15, Q1.12, ...) and
// observe the MSE / band-ratio impact (bench_ablation_precision).
//
// Representation: value = raw / 2^F stored in a 32-bit integer with
// 64-bit intermediates, round-to-nearest on multiply, and saturating
// conversions.  This mirrors the DSP datapath of a sensor-node MCU.
// Above 30 fractional bits (e.g. Q1.31, the format of a 32x32->64 MAC
// datapath) the raw value widens to 64 bits, so the same template covers
// both the Q15 and Q31 service engines.  Their arithmetic stays in native
// int64 -- a product of raws inside [-2^31, 2^31], a sum or difference
// that does not overflow -- and takes 128-bit intermediates only when an
// operand lies outside that range or the int64 result would saturate.
// Both routes give bit-identical results.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "qpsa/util/common.hpp"

namespace qpsa::fp {

template <unsigned FracBits>
class fixed_point {
    static_assert(FracBits >= 1 && FracBits <= 62, "fractional bits out of range");

public:
    using raw_type = std::conditional_t<(FracBits <= 30), std::int32_t, std::int64_t>;
#if defined(__SIZEOF_INT128__)
    using wide_type = std::conditional_t<(FracBits <= 30), std::int64_t, __int128>;
#else
    static_assert(FracBits <= 30, "wide formats need 128-bit intermediates");
    using wide_type = std::int64_t;
#endif
    static constexpr unsigned frac_bits = FracBits;
    static constexpr raw_type one_raw = raw_type{1} << FracBits;

    constexpr fixed_point() = default;

    /// Convert from floating point with round-to-nearest and saturation.
    explicit fixed_point(double v) : raw_(to_raw(v)) {}

    static constexpr fixed_point from_raw(raw_type r) noexcept {
        fixed_point f;
        f.raw_ = r;
        return f;
    }

    constexpr raw_type raw() const noexcept { return raw_; }
    double to_double() const noexcept {
        return static_cast<double>(raw_) / static_cast<double>(one_raw);
    }

    /// Smallest representable increment.
    static double resolution() noexcept { return 1.0 / static_cast<double>(one_raw); }
    static double max_value() noexcept {
        return static_cast<double>(std::numeric_limits<raw_type>::max()) /
               static_cast<double>(one_raw);
    }

    friend fixed_point operator+(fixed_point a, fixed_point b) noexcept {
        if constexpr (FracBits > 30) {
            raw_type sum;
            if (!__builtin_add_overflow(a.raw_, b.raw_, &sum)) return from_raw(sum);
        }
        return from_raw(saturate_wide(static_cast<wide_type>(a.raw_) + b.raw_));
    }
    friend fixed_point operator-(fixed_point a, fixed_point b) noexcept {
        if constexpr (FracBits > 30) {
            raw_type diff;
            if (!__builtin_sub_overflow(a.raw_, b.raw_, &diff)) return from_raw(diff);
        }
        return from_raw(saturate_wide(static_cast<wide_type>(a.raw_) - b.raw_));
    }
    friend fixed_point operator*(fixed_point a, fixed_point b) noexcept {
        if constexpr (FracBits > 30) {
            // Raws inside [-2^31, 2^31] (2^31 is Q1.31's 1.0, a unit twiddle):
            // |product| <= 2^62, so product plus the half LSB fits int64,
            // and the shifted result cannot saturate.
            constexpr std::uint64_t bias = std::uint64_t{1} << 31;
            if (static_cast<std::uint64_t>(a.raw_) + bias <= 2 * bias &&
                static_cast<std::uint64_t>(b.raw_) + bias <= 2 * bias) {
                const std::int64_t prod = a.raw_ * b.raw_;
                return from_raw((prod + (std::int64_t{1} << (FracBits - 1))) >> FracBits);
            }
        }
        const wide_type prod = static_cast<wide_type>(a.raw_) * b.raw_;
        // Round to nearest: add half an LSB before the arithmetic shift.
        const wide_type rounded = (prod + (wide_type{1} << (FracBits - 1))) >> FracBits;
        return from_raw(saturate_wide(rounded));
    }
    friend fixed_point operator/(fixed_point a, fixed_point b) {
        QPSA_EXPECTS(b.raw_ != 0);
        const wide_type num = static_cast<wide_type>(a.raw_) << FracBits;
        return from_raw(saturate_wide(num / b.raw_));
    }
    friend fixed_point operator-(fixed_point a) noexcept {
        return from_raw(saturate_wide(-static_cast<wide_type>(a.raw_)));
    }

    fixed_point& operator+=(fixed_point o) noexcept { return *this = *this + o; }
    fixed_point& operator-=(fixed_point o) noexcept { return *this = *this - o; }
    fixed_point& operator*=(fixed_point o) noexcept { return *this = *this * o; }

    friend bool operator==(fixed_point a, fixed_point b) noexcept = default;
    friend auto operator<=>(fixed_point a, fixed_point b) noexcept {
        return a.raw_ <=> b.raw_;
    }

    fixed_point abs() const noexcept { return raw_ < 0 ? -*this : *this; }

private:
    static raw_type to_raw(double v) noexcept {
        const double scaled = v * static_cast<double>(one_raw);
        // Integer conversion is undefined once the scaled value leaves the
        // long long range (which for the wide formats happens exactly at
        // the format ceiling), so saturate in the double domain first.
        // The second test also sends NaN to the minimum.
        const double hi =
            static_cast<double>(std::numeric_limits<raw_type>::max());
        const double lo =
            static_cast<double>(std::numeric_limits<raw_type>::min());
        if (scaled >= hi) return std::numeric_limits<raw_type>::max();
        if (!(scaled > lo)) return std::numeric_limits<raw_type>::min();
        // Round half away from zero, as llround does: truncate, then test
        // the fraction, which scaled - t holds exactly.
        const auto t = static_cast<std::int64_t>(scaled);
        const double frac = scaled - static_cast<double>(t);
        return static_cast<raw_type>(t + (frac >= 0.5) - (frac <= -0.5));
    }
    static raw_type saturate_wide(wide_type w) noexcept {
        constexpr wide_type lo = std::numeric_limits<raw_type>::min();
        constexpr wide_type hi = std::numeric_limits<raw_type>::max();
        return static_cast<raw_type>(std::clamp(w, lo, hi));
    }

    raw_type raw_ = 0;
};

/// Complex number over an arbitrary scalar (fixed_point or float/double),
/// with the 4-mul/2-add multiply the op-counting model assumes.
template <typename S>
struct basic_complex {
    S re{};
    S im{};

    friend basic_complex operator+(basic_complex a, basic_complex b) {
        return {a.re + b.re, a.im + b.im};
    }
    friend basic_complex operator-(basic_complex a, basic_complex b) {
        return {a.re - b.re, a.im - b.im};
    }
    friend basic_complex operator*(basic_complex a, basic_complex b) {
        return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    }
};

/// Quantize a double-precision vector through fixed_point<F> and back,
/// returning the dequantized values.  Used to measure wordlength-induced
/// distortion without rewriting a kernel.
template <unsigned F>
std::vector<double> quantize_roundtrip(std::span<const double> xs) {
    std::vector<double> out(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        out[i] = fixed_point<F>(xs[i]).to_double();
    return out;
}

}  // namespace qpsa::fp
