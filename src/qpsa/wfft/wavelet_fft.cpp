#include "qpsa/wfft/wavelet_fft.hpp"

#include <cmath>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/simd/kernels.hpp"
#include "qpsa/wavelet/dwt.hpp"
#include "qpsa/wavelet/lifting.hpp"

namespace qpsa::wfft {

namespace {

constexpr real k_structural_eps = 1e-14;

/// True when multiplying by f is a free rotation (|f| = 1 and f is one of
/// +/-1, +/-i up to rounding): no real multiplications are needed.
bool is_free_rotation(cplx f) {
    const real re = std::abs(f.real());
    const real im = std::abs(f.imag());
    const bool axis_re = std::abs(re - 1.0) < 1e-12 && im < 1e-12;
    const bool axis_im = std::abs(im - 1.0) < 1e-12 && re < 1e-12;
    return axis_re || axis_im;
}

cplx apply_factor(cplx f, cplx v, bool free) {
    if (free) {
        // +/-1 or +/-i: sign flips and component swaps only.
        if (std::abs(f.real()) > 0.5) return f.real() > 0.0 ? v : -v;
        return f.imag() > 0.0 ? cplx{-v.imag(), v.real()} : cplx{v.imag(), -v.real()};
    }
    counting::count_cmul();
    return f * v;
}

/// apply_factor without the live op count: the lane walk attributes the
/// memoized probe tally per item instead.  Value arithmetic is identical.
cplx apply_factor_uncounted(cplx f, cplx v, bool free) {
    if (free) {
        if (std::abs(f.real()) > 0.5) return f.real() > 0.0 ? v : -v;
        return f.imag() > 0.0 ? cplx{-v.imag(), v.real()} : cplx{v.imag(), -v.real()};
    }
    return f * v;
}

/// leaf_dft, elementwise over nl lane-interleaved slots (layout
/// [element * nl + lane]): the same expression tree per lane, so each
/// lane's values match a scalar leaf_dft bit for bit.  static_schedule_
/// guarantees n is 1, 2 or 4.
void leaf_dft_planes(const cplx* in, cplx* out, std::size_t n, std::size_t nl) {
    if (n == 1) {
        for (std::size_t l = 0; l < nl; ++l) out[l] = in[l];
        return;
    }
    if (n == 2) {
        for (std::size_t l = 0; l < nl; ++l) {
            out[l] = in[l] + in[nl + l];
            out[nl + l] = in[l] - in[nl + l];
        }
        return;
    }
    for (std::size_t l = 0; l < nl; ++l) {
        const cplx s02 = in[l] + in[2 * nl + l];
        const cplx d02 = in[l] - in[2 * nl + l];
        const cplx s13 = in[nl + l] + in[3 * nl + l];
        const cplx d13 = in[nl + l] - in[3 * nl + l];
        out[l] = s02 + s13;
        out[2 * nl + l] = s02 - s13;
        out[nl + l] = d02 + cplx{d13.imag(), -d13.real()};
        out[3 * nl + l] = d02 - cplx{d13.imag(), -d13.real()};
    }
}

}  // namespace

void leaf_dft(std::span<const cplx> in, std::span<cplx> out) {
    const std::size_t n = in.size();
    QPSA_EXPECTS(out.size() == n);
    if (n == 1) {
        out[0] = in[0];
        return;
    }
    if (n == 2) {
        out[0] = in[0] + in[1];
        out[1] = in[0] - in[1];
        counting::count_cadd(2);
        return;
    }
    if (n == 4) {
        const cplx s02 = in[0] + in[2];
        const cplx d02 = in[0] - in[2];
        const cplx s13 = in[1] + in[3];
        const cplx d13 = in[1] - in[3];
        out[0] = s02 + s13;
        out[2] = s02 - s13;
        // -i * d13 and +i * d13 are free rotations.
        out[1] = d02 + cplx{d13.imag(), -d13.real()};
        out[3] = d02 - cplx{d13.imag(), -d13.real()};
        counting::count_cadd(8);
        return;
    }
    // General fallback (only used if leaf_size > 4): O(n^2) DFT, counted.
    for (std::size_t k = 0; k < n; ++k) {
        cplx acc{0.0, 0.0};
        for (std::size_t j = 0; j < n; ++j) {
            const real ang =
                -two_pi * static_cast<real>(k * j % n) / static_cast<real>(n);
            acc += in[j] * cplx{std::cos(ang), std::sin(ang)};
            counting::count_cmul();
            counting::count_cadd();
        }
        out[k] = acc;
    }
}

wavelet_fft::wavelet_fft(plan p) : plan_(std::move(p)) {
    plan_.validate();
    tables_ = shared_twiddle_tables(plan_.basis, plan_.n, plan_.fold_haar_scale);

    // Static factor-magnitude threshold: the paper's design-time "sets".
    const bool highpass_kept = plan_.prune.band_drop_levels == 0;
    double fraction = 0.0;
    if (plan_.prune.mode == prune_mode::fixed)
        fraction = plan_.prune.twiddle_fraction;
    else if (plan_.prune.mode == prune_mode::dynamic)
        fraction = plan_.prune.dynamic_factor_fraction;
    const std::vector<real> mags = factor_magnitudes(*tables_, highpass_kept);
    static_threshold_ = magnitude_threshold(mags, fraction);

    auto build_effective = [&](const std::vector<cplx>& src, std::vector<cplx>& dst,
                               std::vector<bool>& free, std::vector<real>& mag) {
        dst = src;
        free.assign(src.size(), false);
        mag.resize(src.size());
        for (std::size_t i = 0; i < src.size(); ++i) {
            mag[i] = std::abs(src[i]);
            if (mag[i] <= std::max(static_threshold_, k_structural_eps))
                dst[i] = cplx{0.0, 0.0};
            else
                free[i] = is_free_rotation(src[i]);
        }
    };
    build_effective(tables_->a, eff_a_, free_a_, mag_a_);
    build_effective(tables_->b, eff_b_, free_b_, mag_b_);
    build_effective(tables_->c, eff_c_, free_c_, mag_c_);
    build_effective(tables_->d, eff_d_, free_d_, mag_d_);

    const std::size_t half = plan_.n / 2;
    if (plan_.tree == tree_mode::single_level) {
        sub_split_radix_ = std::make_unique<dsp::fft_split_radix>(half);
    } else if (half > plan_.leaf_size) {
        plan child = plan_;
        child.n = half;
        // Children are exact except for a deeper band drop propagating
        // down the approximation chain (paper uses depth 1, so children
        // are exact in the default configuration).
        child.prune = prune_config::exact();
        if (plan_.prune.band_drop_levels > 1) {
            child.prune.mode = plan_.prune.mode;
            child.prune.band_drop_levels = plan_.prune.band_drop_levels - 1;
        }
        sub_a_ = std::make_unique<wavelet_fft>(child);
        plan child_d = child;
        child_d.prune = prune_config::exact();
        sub_d_ = std::make_unique<wavelet_fft>(child_d);
    }

    // A recursive tree whose whole schedule is input-independent -- no
    // dynamic decisions anywhere in the subtree, folded-Haar stages and
    // power-of-two leaves no larger than 4 -- executes the identical
    // operation sequence for every input, so the lane walk can batch it
    // and attribute one memoized tally per item.  The dry run mirrors
    // fft_split_radix: counts (and the pruning statistics) depend only on
    // the plan, never on the data.
    static_schedule_ = plan_.tree == tree_mode::recursive &&
                       tables_->folded && plan_.leaf_size <= 4 &&
                       plan_.prune.mode != prune_mode::dynamic &&
                       (sub_a_ == nullptr || sub_a_->static_schedule_) &&
                       (sub_d_ == nullptr || sub_d_->static_schedule_);
    if (static_schedule_) {
        std::vector<cplx> buf(2 * plan_.n);
        counting::pause_scope pause;
        forward(std::span<const cplx>(buf.data(), plan_.n),
                std::span<cplx>(buf.data() + plan_.n, plan_.n), &probe_stats_);
    }
}

void wavelet_fft::dwt_stage(std::span<const cplx> x, std::span<cplx> a,
                            std::span<cplx> d, util::arena& scratch) const {
    const std::size_t n = x.size();
    const std::size_t half = n / 2;
    const bool real_in = plan_.assume_real_input;

    if (tables_->folded) {
        // Unnormalized Haar butterflies (dispatched; the 1/sqrt(2) lives
        // in the tables).
        if (real_in) {
            simd::kernels().haar_stage_real(x.data(), a.data(), d.data(), half);
            counting::count_adds(2 * half);
        } else {
            simd::kernels().haar_stage_cplx(x.data(), a.data(), d.data(), half);
            counting::count_cadd(2 * half);
        }
        return;
    }

    if (plan_.basis == wavelet::basis::db2 && plan_.use_db2_lifting && n >= 4) {
        // Lifting factorization: 5 muls + 4 adds per output pair (per real
        // lane), re-indexed to the convolution convention.
        util::arena::frame frame(scratch);
        std::span<real> lane = scratch.alloc<real>(n);
        std::span<real> la = scratch.alloc<real>(half);
        std::span<real> ld = scratch.alloc<real>(half);
        for (std::size_t i = 0; i < n; ++i) lane[i] = x[i].real();
        wavelet::lifting_db2_analysis_conv(lane, la, ld);
        if (real_in) {
            for (std::size_t k = 0; k < half; ++k) {
                a[k] = cplx{la[k], 0.0};
                d[k] = cplx{ld[k], 0.0};
            }
        } else {
            std::span<real> lai = scratch.alloc<real>(half);
            std::span<real> ldi = scratch.alloc<real>(half);
            for (std::size_t i = 0; i < n; ++i) lane[i] = x[i].imag();
            wavelet::lifting_db2_analysis_conv(lane, lai, ldi);
            for (std::size_t k = 0; k < half; ++k) {
                a[k] = cplx{la[k], lai[k]};
                d[k] = cplx{ld[k], ldi[k]};
            }
        }
        return;
    }

    if (real_in) {
        const auto& fb = wavelet::filters(plan_.basis);
        const std::size_t len = fb.length();
        for (std::size_t k = 0; k < half; ++k) {
            real sa = 0.0;
            real sd = 0.0;
            for (std::size_t t = 0; t < len; ++t) {
                const real v = x[(2 * k + t) % n].real();
                sa += v * fb.lowpass[t];
                sd += v * fb.highpass[t];
            }
            a[k] = cplx{sa, 0.0};
            d[k] = cplx{sd, 0.0};
        }
        counting::count_muls(n * len);
        counting::count_adds(n * (len - 1));
        return;
    }
    wavelet::dwt_level(x, plan_.basis, a, d);
}

void wavelet_fft::dwt_stage_lowpass(std::span<const cplx> x,
                                    std::span<cplx> a) const {
    const std::size_t n = x.size();
    const std::size_t half = n / 2;
    const bool real_in = plan_.assume_real_input;

    if (tables_->folded) {
        if (real_in) {
            simd::kernels().haar_lowpass_real(x.data(), a.data(), half);
            counting::count_adds(half);
        } else {
            simd::kernels().haar_lowpass_cplx(x.data(), a.data(), half);
            counting::count_cadd(half);
        }
        return;
    }
    // Lowpass-only direct convolution beats lifting here: lifting must
    // materialize the detail lane to finish its update step.
    const auto& fb = wavelet::filters(plan_.basis);
    const std::size_t len = fb.length();
    if (real_in) {
        for (std::size_t k = 0; k < half; ++k) {
            real acc = 0.0;
            for (std::size_t t = 0; t < len; ++t)
                acc += x[(2 * k + t) % n].real() * fb.lowpass[t];
            a[k] = cplx{acc, 0.0};
        }
        counting::count_muls(half * len);
        counting::count_adds(half * (len - 1));
        return;
    }
    for (std::size_t k = 0; k < half; ++k) {
        cplx acc{0.0, 0.0};
        for (std::size_t t = 0; t < len; ++t)
            acc += x[(2 * k + t) % n] * fb.lowpass[t];
        a[k] = acc;
    }
    counting::count_muls(n * len);
    counting::count_adds(n * (len - 1));
}

void wavelet_fft::sub_transform_a(std::span<const cplx> in, std::span<cplx> out,
                                  exec_stats& stats, util::arena& scratch) const {
    if (plan_.tree == tree_mode::single_level) {
        sub_split_radix_->forward(in, out, scratch);
    } else if (sub_a_) {
        sub_a_->forward_impl(in, out, stats, scratch);
    } else {
        leaf_dft(in, out);
    }
}

void wavelet_fft::sub_transform_d(std::span<const cplx> in, std::span<cplx> out,
                                  exec_stats& stats, util::arena& scratch) const {
    if (plan_.tree == tree_mode::single_level) {
        sub_split_radix_->forward(in, out, scratch);
    } else if (sub_d_) {
        sub_d_->forward_impl(in, out, stats, scratch);
    } else {
        leaf_dft(in, out);
    }
}

void wavelet_fft::combine(std::span<const cplx> a_fft, const cplx* d_fft,
                          std::span<cplx> out, exec_stats& stats) const {
    const std::size_t half = plan_.n / 2;
    const bool dynamic =
        plan_.prune.mode == prune_mode::dynamic && plan_.prune.data_threshold > 0.0;
    const real data_thr = plan_.prune.data_threshold;

    for (std::size_t m = 0; m < half; ++m) {
        // Run-time significance proxy: L1 magnitude of the sub-spectrum
        // sample, shared by the two output terms that consume it.
        real l1a = 0.0;
        real l1d = 0.0;
        if (dynamic) {
            l1a = l1_mag(a_fft[m]);
            counting::count_adds(1);
            if (d_fft != nullptr) {
                l1d = l1_mag(d_fft[m]);
                counting::count_adds(1);
            }
        }

        // A combine term contributes |factor| * |data|; the dynamic mode
        // skips terms whose product falls below the calibrated threshold
        // ("data and twiddle factors below a set of thresholds are
        // eliminated on the fly") at the cost of one multiply and one
        // comparison per candidate term.
        auto term = [&](const std::vector<cplx>& orig, const std::vector<cplx>& eff,
                        const std::vector<bool>& free,
                        const std::vector<real>& mag, cplx v, real l1,
                        bool* used) -> cplx {
            ++stats.terms_total;
            const cplx f = eff[m];
            if (f == cplx{0.0, 0.0}) {
                if (std::abs(orig[m]) <= k_structural_eps)
                    ++stats.terms_structural_zero;
                else
                    ++stats.terms_pruned_factor;
                *used = false;
                return {};
            }
            if (dynamic) {
                counting::count_muls(1);
                counting::count_cmps(1);
                if (mag[m] * l1 < data_thr) {
                    ++stats.terms_pruned_data;
                    *used = false;
                    return {};
                }
            }
            *used = true;
            return apply_factor(f, v, free[m]);
        };

        bool ua = false;
        bool ub = false;
        const cplx ta =
            term(tables_->a, eff_a_, free_a_, mag_a_, a_fft[m], l1a, &ua);
        cplx tb{0.0, 0.0};
        if (d_fft != nullptr)
            tb = term(tables_->b, eff_b_, free_b_, mag_b_, d_fft[m], l1d, &ub);
        if (ua && ub) {
            out[m] = ta + tb;
            counting::count_cadd();
        } else {
            out[m] = ua ? ta : tb;
        }

        bool uc = false;
        bool ud = false;
        const cplx tc =
            term(tables_->c, eff_c_, free_c_, mag_c_, a_fft[m], l1a, &uc);
        cplx td{0.0, 0.0};
        if (d_fft != nullptr)
            td = term(tables_->d, eff_d_, free_d_, mag_d_, d_fft[m], l1d, &ud);
        if (uc && ud) {
            out[m + half] = tc + td;
            counting::count_cadd();
        } else {
            out[m + half] = uc ? tc : td;
        }
    }
}

void wavelet_fft::check_real_input(const cplx* in) const {
    if (!plan_.assume_real_input) return;
    for (std::size_t e = 0; e < plan_.n; ++e)
        QPSA_EXPECTS(std::abs(in[e].imag()) < 1e-12);
}

bool wavelet_fft::split_stage(std::span<const cplx> in, std::span<cplx> a,
                              std::span<cplx>& d, util::arena& scratch) const {
    const std::size_t half = plan_.n / 2;
    const bool drop_cfg = plan_.prune.band_drop_levels >= 1;
    const bool dynamic_band =
        plan_.prune.mode == prune_mode::dynamic && plan_.prune.dynamic_band_decision;

    if (drop_cfg && !dynamic_band) {
        // Static drop: the highpass half-band is never computed.
        dwt_stage_lowpass(in, a);
        return true;
    }
    d = scratch.alloc<cplx>(half);
    dwt_stage(in, a, d, scratch);
    if (!drop_cfg) return false;
    // Run-time decision from the live mean L1 |d| (paper V.A: "based on
    // the specific samples we could also apply such a threshold at
    // run-time").  Calibration statistics use the normalized DWT, so the
    // folded (unnormalized) Haar stage compares against a sqrt(2)-scaled
    // threshold.
    const real thr =
        plan_.prune.band_threshold * (tables_->folded ? sqrt2 : 1.0);
    real acc = 0.0;
    for (const cplx& v : d) acc += l1_mag(v);
    counting::count_adds(2 * half - 1);
    counting::count_divs(1);
    counting::count_cmps(1);
    return (acc / static_cast<real>(half)) < thr;
}

void wavelet_fft::forward_impl(std::span<const cplx> in, std::span<cplx> out,
                               exec_stats& stats, util::arena& scratch) const {
    const std::size_t n = plan_.n;
    QPSA_EXPECTS(in.size() == n);
    QPSA_EXPECTS(out.size() == n);
    const std::size_t half = n / 2;

    util::arena::frame frame(scratch);
    std::span<cplx> a = scratch.alloc<cplx>(half);
    std::span<cplx> a_fft = scratch.alloc<cplx>(half);
    std::span<cplx> d;
    const bool drop = split_stage(in, a, d, scratch);
    stats.band_dropped = drop || stats.band_dropped;

    sub_transform_a(a, a_fft, stats, scratch);

    if (drop) {
        combine(a_fft, nullptr, out, stats);
        return;
    }
    std::span<cplx> d_fft = scratch.alloc<cplx>(half);
    sub_transform_d(d, d_fft, stats, scratch);
    combine(a_fft, d_fft.data(), out, stats);
}

void wavelet_fft::forward(std::span<const cplx> in, std::span<cplx> out,
                          exec_stats* stats) const {
    util::arena scratch;
    forward(in, out, stats, scratch);
}

void wavelet_fft::forward_batched(std::span<const batch_io> items,
                                  util::arena& scratch) const {
    // No batching win below two items; trees that are neither
    // single_level nor static-schedule recursive (dynamic pruning, wide
    // leaves, unfolded bases) run the sequential transform per item --
    // identical by definition.
    if (items.size() < 2 || !lane_batchable()) {
        for (const batch_io& it : items)
            forward(std::span<const cplx>(it.in, plan_.n),
                    std::span<cplx>(it.out, plan_.n), it.stats, scratch);
        return;
    }
    if (sub_split_radix_ == nullptr) {
        forward_batched_planes(items, scratch);
        return;
    }

    const std::size_t n = plan_.n;
    const std::size_t half = n / 2;

    for (const batch_io& it : items) check_real_input(it.in);

    struct item_state {
        std::span<cplx> a, d, a_fft, d_fft;
        exec_stats* st = nullptr;
        bool drop = false;
    };
    // thread_local so steady-state batched drains stay allocation-free.
    thread_local std::vector<item_state> states;
    thread_local std::vector<exec_stats> locals;
    thread_local std::vector<const cplx*> sub_ins;
    thread_local std::vector<cplx*> sub_outs;
    states.clear();
    states.resize(items.size());
    locals.clear();
    locals.resize(items.size());  // sinks for items without a stats target

    util::arena::frame frame(scratch);

    // Stage 1, per item: DWT split + band decision -- the sequential code
    // under that item's counting scope, so per-item counts and the
    // decision itself are untouched by batching.
    for (std::size_t i = 0; i < items.size(); ++i) {
        item_state& s = states[i];
        s.st = items[i].stats != nullptr ? items[i].stats : &locals[i];
        counting::count_scope scope(s.st->ops);
        s.a = scratch.alloc<cplx>(half);
        s.a_fft = scratch.alloc<cplx>(half);
        s.drop = split_stage(std::span<const cplx>(items[i].in, n), s.a, s.d,
                             scratch);
        s.st->band_dropped = s.drop || s.st->band_dropped;
        if (!s.drop) s.d_fft = scratch.alloc<cplx>(half);
    }

    // Stage 2: every surviving half-size sub-transform -- lowpass bands
    // first, then the kept highpass bands -- through one lane-batched
    // split-radix walk.  The walk is uncounted; the memoized per-transform
    // tally (exact for any input) is attributed per item below, exactly
    // what the sequential sub-FFT would have counted.
    sub_ins.clear();
    sub_outs.clear();
    for (item_state& s : states) {
        sub_ins.push_back(s.a.data());
        sub_outs.push_back(s.a_fft.data());
    }
    for (item_state& s : states)
        if (!s.drop) {
            sub_ins.push_back(s.d.data());
            sub_outs.push_back(s.d_fft.data());
        }
    sub_split_radix_->forward_batched(
        std::span<const cplx* const>(sub_ins.data(), sub_ins.size()),
        std::span<cplx* const>(sub_outs.data(), sub_outs.size()), scratch);
    for (item_state& s : states) {
        counting::count_scope scope(s.st->ops);
        counting::add_to_active(sub_split_radix_->op_tally());
        if (!s.drop) counting::add_to_active(sub_split_radix_->op_tally());
    }

    // Stage 3, per item: the diagonal combine (data-dependent pruning and
    // its statistics), again the sequential code per item.
    for (std::size_t i = 0; i < items.size(); ++i) {
        item_state& s = states[i];
        counting::count_scope scope(s.st->ops);
        combine(s.a_fft, s.drop ? nullptr : s.d_fft.data(),
                std::span<cplx>(items[i].out, n), *s.st);
    }
}

void wavelet_fft::forward_batched_planes(std::span<const batch_io> items,
                                         util::arena& scratch) const {
    const std::size_t n = plan_.n;
    const std::size_t lanes = simd::kernels().lanes;
    for (const batch_io& it : items) check_real_input(it.in);

    exec_stats sink;  // items without a stats target
    for (std::size_t base = 0; base < items.size();) {
        const std::size_t nl = std::min(lanes, items.size() - base);
        if (nl < 2) {
            // Lone remainder: the scalar walk is the lane walk of one.
            forward(std::span<const cplx>(items[base].in, n),
                    std::span<cplx>(items[base].out, n), items[base].stats,
                    scratch);
            ++base;
            continue;
        }

        // AoS -> lane planes, the whole static-schedule recursion
        // elementwise over the planes, planes -> AoS.  Every lane runs
        // the scalar operation sequence, so outputs are bit-identical to
        // forward() per item.
        util::arena::frame frame(scratch);
        std::span<cplx> in_planes = scratch.alloc<cplx>(n * nl);
        std::span<cplx> out_planes = scratch.alloc<cplx>(n * nl);
        for (std::size_t l = 0; l < nl; ++l)
            for (std::size_t e = 0; e < n; ++e)
                in_planes[e * nl + l] = items[base + l].in[e];
        forward_planes(in_planes.data(), out_planes.data(), nl, scratch);
        for (std::size_t l = 0; l < nl; ++l) {
            const batch_io& it = items[base + l];
            for (std::size_t e = 0; e < n; ++e)
                it.out[e] = out_planes[e * nl + l];
            // The walk is uncounted; attribute the memoized per-transform
            // stats (exact for any input under a static schedule) per
            // item, exactly what the sequential transform would have
            // recorded.
            exec_stats* st = it.stats != nullptr ? it.stats : &sink;
            counting::count_scope scope(st->ops);
            counting::add_to_active(probe_stats_.ops);
            st->terms_total += probe_stats_.terms_total;
            st->terms_pruned_factor += probe_stats_.terms_pruned_factor;
            st->terms_pruned_data += probe_stats_.terms_pruned_data;
            st->terms_structural_zero += probe_stats_.terms_structural_zero;
            st->band_dropped = probe_stats_.band_dropped || st->band_dropped;
        }
        base += nl;
    }
}

void wavelet_fft::forward_planes(const cplx* x, cplx* out, std::size_t nl,
                                 util::arena& scratch) const {
    const std::size_t half = plan_.n / 2;
    const bool real_in = plan_.assume_real_input;
    // static_schedule_ excludes dynamic mode, so a configured band drop
    // is decided here, at plan time -- never from the data.
    const bool drop = plan_.prune.band_drop_levels >= 1;

    util::arena::frame frame(scratch);
    std::span<cplx> a = scratch.alloc<cplx>(half * nl);
    std::span<cplx> a_fft = scratch.alloc<cplx>(half * nl);
    std::span<cplx> d, d_fft;
    if (!drop) {
        d = scratch.alloc<cplx>(half * nl);
        d_fft = scratch.alloc<cplx>(half * nl);
    }

    // Folded-Haar butterflies, elementwise per lane slot.  The real-input
    // stage writes a literal zero imaginary part exactly like
    // haar_stage_real, so values match the scalar walk bit for bit.
    for (std::size_t e = 0; e < half; ++e) {
        const cplx* x0 = x + (2 * e) * nl;
        const cplx* x1 = x + (2 * e + 1) * nl;
        if (real_in) {
            for (std::size_t l = 0; l < nl; ++l) {
                a[e * nl + l] = cplx{x0[l].real() + x1[l].real(), 0.0};
                if (!drop)
                    d[e * nl + l] = cplx{x0[l].real() - x1[l].real(), 0.0};
            }
        } else {
            for (std::size_t l = 0; l < nl; ++l) {
                a[e * nl + l] = x0[l] + x1[l];
                if (!drop) d[e * nl + l] = x0[l] - x1[l];
            }
        }
    }

    if (sub_a_ != nullptr)
        sub_a_->forward_planes(a.data(), a_fft.data(), nl, scratch);
    else
        leaf_dft_planes(a.data(), a_fft.data(), half, nl);
    if (!drop) {
        if (sub_d_ != nullptr)
            sub_d_->forward_planes(d.data(), d_fft.data(), nl, scratch);
        else
            leaf_dft_planes(d.data(), d_fft.data(), half, nl);
    }
    combine_planes(a_fft.data(), drop ? nullptr : d_fft.data(), out, nl);
}

void wavelet_fft::combine_planes(const cplx* a_fft, const cplx* d_fft,
                                 cplx* out, std::size_t nl) const {
    const std::size_t half = plan_.n / 2;
    // Term selection is static (factor tables only; no dynamic mode
    // here), so it hoists out of the lane loop; the per-lane arithmetic
    // mirrors combine()'s term/sum structure exactly.
    for (std::size_t m = 0; m < half; ++m) {
        const bool ua = eff_a_[m] != cplx{0.0, 0.0};
        const bool ub = d_fft != nullptr && eff_b_[m] != cplx{0.0, 0.0};
        const bool uc = eff_c_[m] != cplx{0.0, 0.0};
        const bool ud = d_fft != nullptr && eff_d_[m] != cplx{0.0, 0.0};
        for (std::size_t l = 0; l < nl; ++l) {
            const cplx va = a_fft[m * nl + l];
            const cplx vd =
                d_fft != nullptr ? d_fft[m * nl + l] : cplx{0.0, 0.0};
            const cplx ta =
                ua ? apply_factor_uncounted(eff_a_[m], va, free_a_[m])
                   : cplx{0.0, 0.0};
            const cplx tb =
                ub ? apply_factor_uncounted(eff_b_[m], vd, free_b_[m])
                   : cplx{0.0, 0.0};
            out[m * nl + l] = ua && ub ? ta + tb : (ua ? ta : tb);
            const cplx tc =
                uc ? apply_factor_uncounted(eff_c_[m], va, free_c_[m])
                   : cplx{0.0, 0.0};
            const cplx td =
                ud ? apply_factor_uncounted(eff_d_[m], vd, free_d_[m])
                   : cplx{0.0, 0.0};
            out[(m + half) * nl + l] = uc && ud ? tc + td : (uc ? tc : td);
        }
    }
}

void wavelet_fft::forward(std::span<const cplx> in, std::span<cplx> out,
                          exec_stats* stats, util::arena& scratch) const {
    // The real-input contract is checked once at the top level only: child
    // transforms see structurally real data by construction, so re-checking
    // at every recursion level would be O(n log n) of pure overhead.
    QPSA_EXPECTS(in.size() == plan_.n);
    check_real_input(in.data());
    exec_stats local;
    exec_stats& st = stats ? *stats : local;
    counting::count_scope scope(st.ops);
    forward_impl(in, out, st, scratch);
}

std::vector<cplx> wavelet_fft::forward_copy(std::span<const cplx> in,
                                            exec_stats* stats) const {
    std::vector<cplx> out(plan_.n);
    forward(in, out, stats);
    return out;
}

wavelet_fft::subband_spectra wavelet_fft::analyze(std::span<const cplx> in) const {
    QPSA_EXPECTS(in.size() == plan_.n);
    const std::size_t half = plan_.n / 2;
    subband_spectra s;
    std::vector<cplx> a(half);
    std::vector<cplx> d(half);
    // Exact analysis: normalized DWT regardless of folding, so statistics
    // are comparable across bases.
    wavelet::dwt_level(in, plan_.basis, a, d);
    dsp::fft_split_radix sub(half);
    s.a_fft = sub.forward_copy(a);
    s.d_fft = sub.forward_copy(d);
    real acc = 0.0;
    for (const cplx& v : d) acc += l1_mag(v);
    s.d_mean_l1 = acc / static_cast<real>(half);
    return s;
}

}  // namespace qpsa::wfft
