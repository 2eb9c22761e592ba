// Tests for the templated fixed-point scalar (precision-scaling substrate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "qpsa/fixedpoint/fixed_point.hpp"
#include "qpsa/util/random.hpp"

namespace qf = qpsa::fp;

using q15 = qf::fixed_point<15>;
using q24 = qf::fixed_point<24>;

TEST(FixedPointTest, RoundTripWithinResolution) {
    for (double v : {0.0, 0.5, -0.5, 0.123456, -0.98765, 3.25}) {
        EXPECT_NEAR(q15(v).to_double(), v, q15::resolution());
        EXPECT_NEAR(q24(v).to_double(), v, q24::resolution());
    }
}

TEST(FixedPointTest, HigherPrecisionHasFinerResolution) {
    EXPECT_LT(q24::resolution(), q15::resolution());
    EXPECT_DOUBLE_EQ(q15::resolution(), 1.0 / 32768.0);
}

TEST(FixedPointTest, AdditionAndSubtraction) {
    const q15 a(0.25);
    const q15 b(0.125);
    EXPECT_NEAR((a + b).to_double(), 0.375, q15::resolution());
    EXPECT_NEAR((a - b).to_double(), 0.125, q15::resolution());
    EXPECT_NEAR((-a).to_double(), -0.25, q15::resolution());
}

TEST(FixedPointTest, MultiplicationRoundsToNearest) {
    const q15 a(0.5);
    const q15 b(0.5);
    EXPECT_NEAR((a * b).to_double(), 0.25, q15::resolution());
    // Small-value products keep relative accuracy within the LSB.
    const q15 c(0.001);
    const q15 d(0.9);
    EXPECT_NEAR((c * d).to_double(), 0.0009, 2.0 * q15::resolution());
}

TEST(FixedPointTest, DivisionMatchesDouble) {
    const q15 a(0.75);
    const q15 b(0.25);
    EXPECT_NEAR((a / b).to_double(), 3.0, 4.0 * q15::resolution());
    EXPECT_THROW(a / q15(0.0), qpsa::contract_error);
}

TEST(FixedPointTest, SaturatesInsteadOfWrapping) {
    const double big = q15::max_value();
    const q15 a(big);
    const q15 sum = a + a;
    EXPECT_NEAR(sum.to_double(), big, 1e-3);  // clamped, not wrapped negative
    const q15 neg(-big);
    EXPECT_LT((neg + neg).to_double(), 0.0);
}

TEST(FixedPointTest, ComparisonOperators) {
    EXPECT_LT(q15(0.1), q15(0.2));
    EXPECT_EQ(q15(0.5), q15(0.5));
    EXPECT_GT(q15(-0.1), q15(-0.2));
}

TEST(FixedPointTest, AbsoluteValue) {
    EXPECT_EQ(q15(-0.25).abs(), q15(0.25));
    EXPECT_EQ(q15(0.25).abs(), q15(0.25));
}

TEST(FixedPointTest, ComplexMultiplyMatchesDouble) {
    qf::basic_complex<q15> a{q15(0.3), q15(-0.4)};
    qf::basic_complex<q15> b{q15(0.6), q15(0.2)};
    const auto p = a * b;
    // (0.3 - 0.4i)(0.6 + 0.2i) = 0.26 - 0.18i
    EXPECT_NEAR(p.re.to_double(), 0.26, 4.0 * q15::resolution());
    EXPECT_NEAR(p.im.to_double(), -0.18, 4.0 * q15::resolution());
}

TEST(FixedPointTest, QuantizeRoundtripErrorShrinksWithPrecision) {
    std::vector<double> xs;
    for (int i = 0; i < 256; ++i) xs.push_back(std::sin(0.1 * i) * 0.9);
    const auto r12 = qf::quantize_roundtrip<12>(xs);
    const auto r20 = qf::quantize_roundtrip<20>(xs);
    double e12 = 0.0;
    double e20 = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        e12 += std::abs(r12[i] - xs[i]);
        e20 += std::abs(r20[i] - xs[i]);
    }
    EXPECT_LT(e20, e12 / 50.0);
}

// Wide formats (Q1.31 on a 64-bit raw with 128-bit intermediates): the
// service's q31 engine runs on this instantiation.
using q31 = qf::fixed_point<31>;

TEST(FixedPointTest, Q31RoundTripAndResolution) {
    static_assert(sizeof(q31::raw_type) == 8);
    EXPECT_DOUBLE_EQ(q31::resolution(), 1.0 / 2147483648.0);
    EXPECT_LT(q31::resolution(), q15::resolution());
    for (double v : {0.0, 0.5, -0.5, 0.123456789, -0.987654321}) {
        EXPECT_NEAR(q31(v).to_double(), v, q31::resolution());
    }
}

TEST(FixedPointTest, Q31ArithmeticMatchesDoubleClosely) {
    const q31 a(0.31830988618);   // 1/pi
    const q31 b(-0.57721566490);  // -gamma
    EXPECT_NEAR((a * b).to_double(), 0.31830988618 * -0.57721566490,
                4.0 * q31::resolution());
    EXPECT_NEAR((a + b).to_double(), 0.31830988618 - 0.57721566490,
                2.0 * q31::resolution());
    EXPECT_NEAR((a / b).to_double(), 0.31830988618 / -0.57721566490,
                8.0 * q31::resolution());
}

TEST(FixedPointTest, Q31SaturatesInsteadOfWrapping) {
    // 3e9 is representable (max ~4.29e9) but 6e9 is not: the sum must
    // clamp to the format ceiling, not wrap.
    const q31 a(3.0e9);
    EXPECT_NEAR(a.to_double(), 3.0e9, q31::resolution());
    EXPECT_NEAR((a + a).to_double(), q31::max_value(), 1.0);
    EXPECT_NEAR((-a - a).to_double(), -q31::max_value(), 2.0);
}

TEST(FixedPointTest, WideConversionSaturatesOutOfRangeDoubles) {
    // Out-of-range *conversions* must clamp too.  For the wide formats
    // the scaled value leaves the long long range exactly at the format
    // ceiling, where llround alone would sign-flip.
    EXPECT_NEAR(q31(5.0e9).to_double(), q31::max_value(), 1.0);
    EXPECT_NEAR(q31(-5.0e9).to_double(), -q31::max_value(), 2.0);
    using q62 = qf::fixed_point<62>;
    EXPECT_NEAR(q62(3.5).to_double(), q62::max_value(), q62::resolution());
    EXPECT_NEAR(q62(-3.5).to_double(), -q62::max_value(),
                2.0 * q62::resolution());
    // Narrow formats were already saturating; keep them that way.
    EXPECT_NEAR(q15(1.0e9).to_double(), q15::max_value(), q15::resolution());
}

// Property sweep: a*b == b*a and (a+b)-b == a within one LSB across a grid.
class FixedPointPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(FixedPointPropertyTest, CommutativityAndInverse) {
    const double v = GetParam();
    const q15 a(v);
    const q15 b(0.37);
    EXPECT_EQ((a * b).raw(), (b * a).raw());
    EXPECT_NEAR(((a + b) - b).to_double(), a.to_double(), q15::resolution());
}

INSTANTIATE_TEST_SUITE_P(Grid, FixedPointPropertyTest,
                         ::testing::Values(-0.9, -0.5, -0.1, 0.0, 0.1, 0.33, 0.5,
                                           0.77, 0.9));

// The arithmetic and conversion fast paths against the wide reference
// formulas: widen, round half up before the shift, clamp.  Run under
// asan+ubsan, a fast path that overflows a native integer also trips the
// sanitizer.
namespace {

template <unsigned F>
struct wide_reference {
    using fx = qf::fixed_point<F>;
    using raw = typename fx::raw_type;
    using wide = typename fx::wide_type;
    static constexpr wide lo = std::numeric_limits<raw>::min();
    static constexpr wide hi = std::numeric_limits<raw>::max();

    static raw clamp(wide w) { return static_cast<raw>(std::clamp(w, lo, hi)); }
    static raw add(raw a, raw b) { return clamp(static_cast<wide>(a) + b); }
    static raw sub(raw a, raw b) { return clamp(static_cast<wide>(a) - b); }
    static raw mul(raw a, raw b) {
        const wide prod = static_cast<wide>(a) * b;
        return clamp((prod + (wide{1} << (F - 1))) >> F);
    }
    /// Non-NaN doubles only: llround's NaN result is platform-specific.
    static raw from_double(double v) {
        const double scaled = v * static_cast<double>(fx::one_raw);
        if (scaled >= static_cast<double>(hi)) return static_cast<raw>(hi);
        if (scaled <= static_cast<double>(lo)) return static_cast<raw>(lo);
        return clamp(static_cast<wide>(std::llround(scaled)));
    }
};

template <unsigned F>
void check_fast_paths() {
    using ref = wide_reference<F>;
    using fx = typename ref::fx;
    using raw = typename ref::raw;
    constexpr std::int64_t rmin = std::numeric_limits<raw>::min();
    constexpr std::int64_t rmax = std::numeric_limits<raw>::max();
    constexpr std::int64_t two31 = std::int64_t{1} << 31;

    auto check_pair = [](raw a, raw b) {
        const fx x = fx::from_raw(a);
        const fx y = fx::from_raw(b);
        ASSERT_EQ((x + y).raw(), ref::add(a, b)) << "F=" << F << " " << a << "+" << b;
        ASSERT_EQ((x - y).raw(), ref::sub(a, b)) << "F=" << F << " " << a << "-" << b;
        ASSERT_EQ((x * y).raw(), ref::mul(a, b)) << "F=" << F << " " << a << "*" << b;
    };

    // Every pair of boundary raws that the raw type can hold: the raw
    // limits, and both sides of the int64 multiply's [-2^31, 2^31] range.
    std::vector<raw> edges;
    for (const std::int64_t v :
         {rmin, rmin + 1, -2 * two31, -two31 - 1, -two31, -two31 + 1,
          std::int64_t{-1}, std::int64_t{0}, std::int64_t{1}, two31 - 2,
          two31 - 1, two31, two31 + 1, 2 * two31, rmax - 1, rmax})
        if (v >= rmin && v <= rmax) edges.push_back(static_cast<raw>(v));
    for (const raw a : edges)
        for (const raw b : edges) check_pair(a, b);

    // Seeded random pairs mixing small, int32-range, near-edge and
    // full-range raws.
    std::uint64_t s = 0x0f15ed0000000000ULL + F;
    auto draw = [&]() -> raw {
        s = qpsa::util::splitmix64(s);
        const std::uint64_t bits = s >> 2;
        switch (s & 3U) {
            case 0: return static_cast<raw>(static_cast<std::int64_t>(bits % 131071) - 65535);
            case 1: return static_cast<raw>(static_cast<std::int32_t>(bits));
            case 2: {
                // Within 64 of an edge, stepping inward near the raw limits.
                const std::int64_t e = edges[(bits >> 7) % edges.size()];
                const auto off = static_cast<std::int64_t>(bits % 64);
                const bool up = e < rmin + 64 || (e <= rmax - 64 && (bits & 64U) != 0);
                return static_cast<raw>(up ? e + off : e - off);
            }
            default: return static_cast<raw>(static_cast<std::int64_t>(bits << 2));
        }
    };
    for (int i = 0; i < 100000; ++i) check_pair(draw(), draw());

    // Conversion: ties at +-(k + 1/2) * 2^-F, one ulp either side of each,
    // the range edges, +-0 and NaN.
    auto check_conv = [](double v) {
        ASSERT_EQ(fx(v).raw(), ref::from_double(v)) << "F=" << F << " v=" << v;
    };
    for (const double k : {0.0, 1.0, 2.0, 3.0, 7.0, 1000.0, 65535.0, 2147483647.0,
                           2147483648.0, 0x1.0p40, 0x1.0p51, 4503599627370495.0}) {
        const double tie = std::ldexp(k + 0.5, -static_cast<int>(F));
        for (const double t : {tie, -tie}) {
            check_conv(t);
            check_conv(std::nextafter(t, HUGE_VAL));
            check_conv(std::nextafter(t, -HUGE_VAL));
        }
    }
    for (const double e : {fx::max_value(), -fx::max_value(),
                           static_cast<double>(rmin) / static_cast<double>(fx::one_raw),
                           1e300, -1e300, HUGE_VAL, -HUGE_VAL}) {
        check_conv(e);
        check_conv(std::nextafter(e, 0.0));
        check_conv(std::nextafter(e, HUGE_VAL));
        check_conv(std::nextafter(e, -HUGE_VAL));
    }
    check_conv(0.0);
    check_conv(-0.0);
    EXPECT_EQ(fx(std::nan("")).raw(), rmin) << "F=" << F;
    EXPECT_EQ(fx(-std::nan("")).raw(), rmin) << "F=" << F;
}

}  // namespace

TEST(FixedPointTest, FastPathsMatchWideReference) {
    check_fast_paths<15>();
    check_fast_paths<23>();
    check_fast_paths<31>();
    check_fast_paths<40>();
    check_fast_paths<62>();
}
