#include "qpsa/lomb/fast_lomb.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "qpsa/dsp/real_pair_fft.hpp"
#include "qpsa/lomb/extirpolate.hpp"
#include "qpsa/simd/kernels.hpp"
#include "qpsa/util/stats.hpp"

namespace qpsa::lomb {

std::size_t fast_lomb_mesh_size(std::size_t n_samples,
                                const fast_lomb_options& opt) {
    return opt.mesh_size != 0
               ? opt.mesh_size
               : 2 * next_pow2(static_cast<std::size_t>(
                         opt.ofac * opt.hifac *
                         static_cast<real>(n_samples) *
                         static_cast<real>(opt.macc)));
}

std::size_t fast_lomb_nout(std::size_t n_samples, const fast_lomb_options& opt) {
    const std::size_t mesh = fast_lomb_mesh_size(n_samples, opt);
    const std::size_t by_data =
        opt.nout_override != 0
            ? opt.nout_override
            : static_cast<std::size_t>(0.5 * opt.ofac * opt.hifac *
                                       static_cast<real>(n_samples));
    return std::min(by_data, mesh / 2 - 1);
}

namespace {

// The pipeline below is split into phase helpers driven by one walk
// (lomb_walk) that both entry points run: a single window is the one-job
// case of the batched walk, which reorders only the engine forwards --
// lane-exact by the kernel contract.

/// Window-level facts established by the contract checks + moment pass.
struct window_prep {
    real avg = 0.0;
    real var = 0.0;
    real t0 = 0.0;
    real span = 0.0;
    std::size_t mesh = 0;
    std::size_t nout = 0;
};

window_prep window_moments(std::span<const real> t, std::span<const real> x,
                           const fft_engine& engine,
                           const fast_lomb_options& opt, lomb_breakdown& bd) {
    QPSA_EXPECTS(t.size() == x.size());
    QPSA_EXPECTS(t.size() >= 2);
    QPSA_EXPECTS(opt.ofac >= 1.0);
    const std::size_t n = t.size();

    window_prep prep;
    {
        counting::count_scope scope(bd.moments);
        prep.avg = util::mean(x);
        prep.var = util::variance(x);
        counting::count_adds(3 * n);
        counting::count_muls(n);
        counting::count_divs(2);
    }
    QPSA_EXPECTS(prep.var > 0.0);

    prep.t0 = t.front();
    prep.span =
        opt.span_override > 0.0 ? opt.span_override : t.back() - prep.t0;
    QPSA_EXPECTS(prep.span > 0.0);

    prep.mesh = fast_lomb_mesh_size(n, opt);
    QPSA_EXPECTS(is_pow2(prep.mesh));
    QPSA_EXPECTS(engine.size() == prep.mesh);

    prep.nout = fast_lomb_nout(n, opt);
    QPSA_EXPECTS(prep.nout >= 1);
    return prep;
}

// ---- hop-aligned mesh fill (canonical position decomposition) -----------
//
// The scratch extirpolation anchors mesh positions on the window's first
// beat, so a beat lands at different fractional positions in the two
// windows that contain it and nothing can be reused.  Hop alignment
// anchors on the global hop grid instead: with q = floor(t / hop),
// r = t - q * hop, fac = mesh / (span * ofac) and hc = hop * fac an
// integer number of mesh cells, beat t deposits at
//
//     x0 + (q - m) * hc      where  x0 = r * fac  in [0, hc)
//
// in window m.  x0 -- and therefore every Lagrange weight -- is a pure
// function of the beat itself, so the two windows containing a beat make
// bitwise-equal deposits at integer-shifted cells.  That is what lets the
// overlap half of window m+1's meshes be built (dual-deposit) while
// window m's suffix beats run, and consumed on the next hop.  Centering
// is decomposed the same way: three meshes accumulate raw values (mx),
// unit weights (m1) and doubled-angle unit weights (m2 == wk2), and the
// final wk1[c] = mx[c] - avg * m1[c] applies the window mean outside the
// cacheable partials.
//
// Per-cell accumulation order equals global beat-time order in both the
// hit and the scratch path, so the filled meshes are bit-identical
// whether or not a cache is attached.

struct aligned_mesh_plan {
    bool aligned = false;   ///< canonical fill applies
    bool cacheable = false; ///< suffix == next window's prefix (W == 2 hop)
    std::int64_t hc = 0;    ///< mesh cells per hop
};

aligned_mesh_plan plan_aligned_mesh(const fast_lomb_options& opt,
                                    const hop_ctx* ctx, std::size_t mesh) {
    aligned_mesh_plan p;
    if (ctx == nullptr || opt.mesh != mesh_mode::lagrange_extirpolation)
        return p;
    if (opt.span_override <= 0.0 || ctx->hop_seconds <= 0.0) return p;
    if (opt.macc != 1 && opt.macc != 4) return p;
    const real fac = static_cast<real>(mesh) / (opt.span_override * opt.ofac);
    const real hc = ctx->hop_seconds * fac;
    const auto ihc = static_cast<std::int64_t>(std::llround(hc));
    // The hop must be an integer number of mesh cells (and leave room for
    // new beats); otherwise the scratch path runs -- same arithmetic with
    // or without a cache, just nothing to reuse.
    if (ihc <= 0 || ihc >= static_cast<std::int64_t>(mesh)) return p;
    if (std::abs(hc - static_cast<real>(ihc)) > 1e-9) return p;
    p.aligned = true;
    p.hc = ihc;
    p.cacheable = std::abs(ctx->window_seconds - 2.0 * ctx->hop_seconds) < 1e-9;
    return p;
}

/// Hop-grid coordinates of one beat: the hop cell offset d = q - m within
/// the window, and the base positions x0 (in [0, hc)) / x2 = 2 x0 that are
/// pure functions of the beat time.
struct beat_pos {
    std::int64_t d = 0;
    real x0 = 0.0;
    real x2 = 0.0;
};

beat_pos aligned_beat_pos(real t, std::int64_t m, real hop, real fac) {
    auto q = static_cast<std::int64_t>(std::floor(t / hop));
    real r = t - static_cast<real>(q) * hop;
    // The division can land one cell off right at a hop boundary; the
    // guards re-derive (q, r) so the result is a pure function of t.
    if (r < 0.0) {
        --q;
        r = t - static_cast<real>(q) * hop;
    }
    if (r >= hop) {
        ++q;
        r = t - static_cast<real>(q) * hop;
    }
    beat_pos p;
    p.d = q - m;
    p.x0 = r * fac;
    p.x2 = 2.0 * p.x0;
    return p;
}

/// Deposit helper of the aligned fill: order-4 Lagrange weights evaluated
/// from the base position x alone (spread4's shared sub-products), then
/// deposited `shift` whole cells later -- so the deposit is bitwise
/// shift-invariant, which is the cache's correctness contract.  `mate`
/// (when non-null) receives unit-weight deposits at the same cells,
/// sharing the one weight evaluation (the centering decomposition).
/// `ops` accumulates the fixed per-beat tally; whether it is *counted*
/// is the caller's business (cache-building duplicates are maintenance).
void aligned_deposit(real y, std::span<real> mesh, std::span<real> mate,
                     real x, std::int64_t shift, int order,
                     counting::op_counts& ops) {
    const auto n = static_cast<std::ptrdiff_t>(mesh.size());
    const real xr = std::round(x);
    // The early-exit test sees the pre-shift position, so both windows
    // containing a beat take the same branch.
    if (order == 1 || std::abs(x - xr) < 1e-9) {
        const std::size_t idx = static_cast<std::size_t>(mod_floor(
            static_cast<std::ptrdiff_t>(xr) + static_cast<std::ptrdiff_t>(shift),
            n));
        mesh[idx] += y;
        ops.adds += 1;
        if (!mate.empty()) {
            mate[idx] += 1.0;
            ops.adds += 1;
        }
        return;
    }
    const auto i0 = static_cast<std::ptrdiff_t>(std::floor(x));
    const real u = x - static_cast<real>(i0);
    const real up1 = u + 1.0;
    const real um1 = u - 1.0;
    const real um2 = u - 2.0;
    const real m12 = um1 * um2;
    const real p01 = up1 * u;
    constexpr real sixth = 1.0 / 6.0;
    const real w0 = -(sixth * u) * m12;
    const real w1 = (0.5 * up1) * m12;
    const real w2 = -(0.5 * p01) * um2;
    const real w3 = (sixth * p01) * um1;
    const std::ptrdiff_t base =
        mod_floor(i0 + static_cast<std::ptrdiff_t>(shift), n);
    const auto wrap = [n](std::ptrdiff_t i) {
        if (i < 0) i += n;
        if (i >= n) i -= n;
        return static_cast<std::size_t>(i);
    };
    const std::size_t c0 = wrap(base - 1);
    const std::size_t c1 = static_cast<std::size_t>(base);
    const std::size_t c2 = wrap(base + 1);
    const std::size_t c3 = wrap(base + 2);
    mesh[c0] += y * w0;
    mesh[c1] += y * w1;
    mesh[c2] += y * w2;
    mesh[c3] += y * w3;
    ops.muls += 14;  // 10 weight products + 4 value scalings
    ops.adds += 7;   // 3 offsets + 4 accumulates
    if (!mate.empty()) {
        mate[c0] += w0;
        mate[c1] += w1;
        mate[c2] += w2;
        mate[c3] += w3;
        ops.adds += 4;
    }
}

/// Canonical hop-aligned fill.  With a cache attached the overlap half of
/// the meshes is consumed from the previous window's dual-deposit and only
/// the new hop's beats run; without one every beat runs -- identical
/// deposits either way.
std::size_t fill_meshes_aligned(std::span<const real> t,
                                std::span<const real> x,
                                const window_prep& prep,
                                const fast_lomb_options& opt,
                                const aligned_mesh_plan& plan,
                                const hop_ctx& ctx, util::arena& mem,
                                lomb_breakdown& bd, std::span<real> wk1,
                                std::span<real> wk2) {
    const std::size_t n = t.size();
    const std::size_t mesh = prep.mesh;
    const auto meshi = static_cast<std::int64_t>(mesh);
    counting::count_scope scope(bd.extirpolation);

    const real fac = static_cast<real>(mesh) / (opt.span_override * opt.ofac);
    const real hop = ctx.hop_seconds;
    const std::int64_t m = ctx.window_index;

    // wk2 doubles as the m2 accumulator: unit weights at doubled angles
    // need no centering pass.
    std::span<real> mx = mem.alloc<real>(mesh);
    std::span<real> m1 = mem.alloc<real>(mesh);
    std::fill(mx.begin(), mx.end(), 0.0);
    std::fill(m1.begin(), m1.end(), 0.0);
    std::fill(wk2.begin(), wk2.end(), 0.0);

    hop_mesh_entry* entry = nullptr;
    bool hit = false;
    if (plan.cacheable && ctx.cache != nullptr) {
        entry = &ctx.cache->mesh();
        hit = entry->valid && entry->window_index == m && entry->mesh == mesh;
        if (hit) {
            std::copy(entry->mesh_x.begin(), entry->mesh_x.end(), mx.begin());
            std::copy(entry->mesh_1.begin(), entry->mesh_1.end(), m1.begin());
            std::copy(entry->mesh_2.begin(), entry->mesh_2.end(), wk2.begin());
            if (!ctx.count_actual_ops) counting::add_to_active(entry->ops);
            ctx.cache->count_hit();
        } else {
            ctx.cache->count_miss();
        }
        // (Re)build the prefix meshes of window m+1 while this window's
        // suffix deposits run; consuming before rebuilding lets one entry
        // storage serve both roles.  valid stays false until the fill
        // completes, so a window aborted by a data contract leaves a miss
        // behind, never a half-built hit.
        entry->valid = false;
        entry->window_index = m + 1;
        entry->mesh = mesh;
        entry->mesh_x.assign(mesh, 0.0);
        entry->mesh_1.assign(mesh, 0.0);
        entry->mesh_2.assign(mesh, 0.0);
        entry->ops = {};
    }

    counting::op_counts maintenance;  // dual-deposit duplicates, uncounted
    for (std::size_t j = 0; j < n; ++j) {
        const beat_pos p = aligned_beat_pos(t[j], m, hop, fac);
        QPSA_EXPECTS(p.d >= 0 && p.d * plan.hc < meshi);
        const bool suffix = p.d >= 1;
        if (hit && !suffix) continue;  // prefix came from the cache
        counting::op_counts ops;
        ops.divs += 1;  // t / hop
        ops.muls += 3;  // q * hop, r * fac, 2 * x0
        ops.adds += 1;  // t - q * hop
        const std::int64_t s1 = (p.d * plan.hc) % meshi;
        const std::int64_t s2 = (p.d * 2 * plan.hc) % meshi;
        aligned_deposit(x[j], mx, m1, p.x0, s1, opt.macc, ops);
        aligned_deposit(1.0, wk2, {}, p.x2, s2, opt.macc, ops);
        counting::add_to_active(ops);
        if (entry != nullptr && p.d == 1) {
            // Same beat, next window's coordinates (d - 1 == 0): reuse the
            // identical weight evaluation, deposit unshifted.
            aligned_deposit(x[j], entry->mesh_x, entry->mesh_1, p.x0, 0,
                            opt.macc, maintenance);
            aligned_deposit(1.0, entry->mesh_2, {}, p.x2, 0, opt.macc,
                            maintenance);
            // The tally this window counted for the beat is exactly what
            // the next window's scratch path would count for it.
            entry->ops += ops;
        }
    }
    if (entry != nullptr) entry->valid = true;

    // Apply the window mean outside the cached partials.
    for (std::size_t c = 0; c < mesh; ++c) wk1[c] = mx[c] - prep.avg * m1[c];
    counting::count_muls(mesh);
    counting::count_adds(mesh);
    return n;
}

/// Redistribution onto the oversampled periodic mesh.  The mesh covers
/// span * ofac seconds so that df = 1 / (span * ofac).  Returns n_eff, the
/// sample count entering the Lomb denominators.
std::size_t fill_meshes(std::span<const real> t, std::span<const real> x,
                        const window_prep& prep, const fast_lomb_options& opt,
                        const hop_ctx* ctx, util::arena& mem,
                        lomb_breakdown& bd, std::span<real> wk1,
                        std::span<real> wk2) {
    if (opt.hop_aligned) {
        const aligned_mesh_plan plan = plan_aligned_mesh(opt, ctx, prep.mesh);
        if (plan.aligned)
            return fill_meshes_aligned(t, x, prep, opt, plan, *ctx, mem, bd,
                                       wk1, wk2);
    }
    const std::size_t n = t.size();
    const std::size_t mesh = prep.mesh;
    std::size_t n_eff = n;
    counting::count_scope scope(bd.extirpolation);
    if (opt.mesh == mesh_mode::staircase_hold) {
        // Sample-and-hold onto mesh/ofac even cells; the remaining
        // (ofac-1)/ofac of the mesh stays zero (spectral oversampling).
        const auto n_data =
            static_cast<std::size_t>(static_cast<real>(mesh) / opt.ofac);
        QPSA_EXPECTS(n_data >= 8 && n_data <= mesh);
        const real delta = prep.span / static_cast<real>(n_data);
        std::fill(wk1.begin(), wk1.end(), 0.0);
        std::fill(wk2.begin(), wk2.end(), 0.0);
        std::size_t j = 0;
        for (std::size_t p = 0; p < n_data; ++p) {
            const real tp = prep.t0 + static_cast<real>(p) * delta;
            while (j + 1 < n && t[j + 1] <= tp) ++j;
            wk1[p] = x[j] - prep.avg;
            wk2[(2 * p) % mesh] += 1.0;
        }
        // Per cell: hold-advance compare, centering add, weight add.
        counting::count_cmps(n_data);
        counting::count_adds(2 * n_data);
        n_eff = n_data;
    } else {
        std::span<real> centered = mem.alloc<real>(n);
        for (std::size_t j = 0; j < n; ++j) centered[j] = x[j] - prep.avg;
        counting::count_adds(n);
        extirpolate(t, centered, wk1, opt.macc, prep.t0, prep.span * opt.ofac);
        // Unit weights at doubled angle positions (for the 2*w*t sums).
        std::span<real> t2 = mem.alloc<real>(n);
        std::span<real> ones = mem.alloc<real>(n);
        std::fill(ones.begin(), ones.end(), 1.0);
        for (std::size_t j = 0; j < n; ++j) t2[j] = 2.0 * (t[j] - prep.t0);
        counting::count_adds(n);
        counting::count_muls(n);
        extirpolate(t2, ones, wk2, opt.macc, 0.0, prep.span * opt.ofac);
    }
    return n_eff;
}

/// The Lomb calculator: combine the transform bins into the normalized
/// periodogram.  zfft is the packed_single spectrum (packed == true), or
/// z1fft/z2fft the two_transforms pair.
void lomb_combine(bool packed, std::span<const cplx> zfft,
                  std::span<const cplx> z1fft, std::span<const cplx> z2fft,
                  const window_prep& prep, std::size_t n_eff,
                  const fast_lomb_options& opt, lomb_result& res,
                  lomb_breakdown& bd) {
    res.spectrum.freq_hz.resize(prep.nout);
    res.spectrum.power.resize(prep.nout);
    const real df = 1.0 / (prep.span * opt.ofac);
    const auto nf = static_cast<real>(n_eff);
    counting::count_scope scope(bd.combine);
    for (std::size_t k = 1; k <= prep.nout; ++k) {
        cplx s1;
        cplx s2;
        if (packed) {
            const dsp::real_pair_bin bin = dsp::unpack_bin(zfft, k);
            s1 = bin.a;
            s2 = bin.b;
        } else {
            s1 = z1fft[k];
            s2 = z2fft[k];
        }
        // Our FFT kernel uses exp(-i...): sum cos = Re, sum sin = -Im.
        const real re1 = s1.real();
        const real im1 = -s1.imag();
        const real re2 = s2.real();
        const real im2 = -s2.imag();

        real hypo = std::sqrt(re2 * re2 + im2 * im2);
        if (hypo < 1e-12) hypo = 1e-12;
        const real hc2wt = 0.5 * re2 / hypo;
        const real hs2wt = 0.5 * im2 / hypo;
        const real cwt = std::sqrt(0.5 + hc2wt);
        const real swt = std::copysign(std::sqrt(0.5 - hc2wt), hs2wt);
        real den = 0.5 * nf + hc2wt * re2 + hs2wt * im2;
        den = std::max(den, 1e-9);
        const real cterm = (cwt * re1 + swt * im1) * (cwt * re1 + swt * im1) / den;
        const real den2 = std::max(nf - den, 1e-9);
        const real sterm =
            (cwt * im1 - swt * re1) * (cwt * im1 - swt * re1) / den2;

        res.spectrum.freq_hz[k - 1] = static_cast<real>(k) * df;
        res.spectrum.power[k - 1] = (cterm + sterm) / (2.0 * prep.var);
        counting::count_sqrts(3);
        counting::count_muls(13);
        counting::count_adds(10);
        counting::count_divs(4);
    }
}

/// Per-window state the walk carries from the mesh phase to the combine.
struct job_state {
    window_prep prep;
    std::size_t n_eff = 0;
    std::span<cplx> zfft;   ///< packed_single result
    std::span<cplx> z1fft;  ///< two_transforms results
    std::span<cplx> z2fft;
    counting::op_counts fft_pre;  ///< fft_stats.ops before the transforms
};

/// The Fast-Lomb walk over `jobs`, in four phases: (1) moments and mesh
/// into transform items, (2) one transform phase, (3) fft attribution,
/// (4) the Lomb combine.  Several jobs share a walk only on engines that
/// interleave transforms: phase 2 then runs every job's mesh transforms
/// through one lane-batched forward, whose engine attributes the ops to
/// each item's stats sink, and phase 3 moves that tally into the
/// window's fft phase.  A walk of one job runs phase 2 under the job's
/// fft scope instead -- whole-window estimators and width-1 engines
/// always walk one job at a time.  `states` holds one entry and `items`
/// two per job.  With `rethrow` (the single-window entry) a contract
/// violation propagates; otherwise the job is marked !ok and skipped.
void lomb_walk(std::span<window_job> jobs, std::span<job_state> states,
               std::span<fft_engine::batch_item> items,
               const fft_engine& engine, const fast_lomb_options& opt,
               util::arena& mem, bool rethrow) {
    const bool whole = engine.whole_window();
    const bool shared = jobs.size() > 1;
    QPSA_EXPECTS(!shared || (!whole && engine.batch_width() >= 2));
    const bool packed = opt.packing == fft_packing::packed_single;
    util::arena::frame frame(mem);
    std::size_t n_items = 0;

    // Phase 1, per window: moments, mesh redistribution, input packing.
    // Whole-window estimators consume the raw window and produce the
    // periodogram on the same grid directly; the mesh stages are
    // exclusive to forward()-style FFT engines.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        window_job& job = jobs[i];
        QPSA_EXPECTS(job.out != nullptr && job.bd != nullptr);
        job_state& st = states[i];
        try {
            st.prep = window_moments(job.t, job.x, engine, opt, *job.bd);
            if (!whole) {
                const std::size_t mesh = st.prep.mesh;
                std::span<real> wk1 = mem.alloc<real>(mesh);
                std::span<real> wk2 = mem.alloc<real>(mesh);
                st.n_eff = fill_meshes(job.t, job.x, st.prep, opt, job.ctx,
                                       mem, *job.bd, wk1, wk2);
                counting::count_scope scope(job.bd->fft);
                if (packed) {
                    st.zfft = mem.alloc<cplx>(mesh);
                    std::span<cplx> z = mem.alloc<cplx>(mesh);
                    dsp::pack_real_pair(wk1, wk2, z);
                    items[n_items++] = {z, st.zfft, &job.bd->fft_stats};
                } else {
                    st.z1fft = mem.alloc<cplx>(mesh);
                    st.z2fft = mem.alloc<cplx>(mesh);
                    std::span<cplx> za = mem.alloc<cplx>(mesh);
                    std::span<cplx> zb = mem.alloc<cplx>(mesh);
                    simd::kernels().widen_real(wk1.data(), za.data(), mesh);
                    simd::kernels().widen_real(wk2.data(), zb.data(), mesh);
                    items[n_items++] = {za, st.z1fft, &job.bd->fft_stats};
                    items[n_items++] = {zb, st.z2fft, &job.bd->fft_stats};
                }
                st.fft_pre = job.bd->fft_stats.ops;
            }
            job.ok = true;
        } catch (const contract_error&) {
            if (rethrow) throw;
            job.ok = false;
        }
    }

    // Phase 2: the transforms.  The engine counts into each item's stats
    // sink, and nested count scopes propagate outward, so a lone job's
    // bd.fft receives the same operations its scope sees.
    const auto batch = items.first(n_items);
    if (shared) {
        engine.forward_batched(batch, mem);
    } else if (jobs[0].ok) {
        window_job& job = jobs[0];
        try {
            counting::count_scope scope(job.bd->fft);
            if (whole) {
                const window_prep& prep = states[0].prep;
                engine.estimate(job.t, job.x,
                                {1.0 / (prep.span * opt.ofac), prep.nout},
                                &job.bd->fft_stats, mem, job.out->spectrum,
                                job.ctx);
                QPSA_ENSURES(job.out->spectrum.power.size() == prep.nout);
            } else {
                engine.forward_batched(batch, mem);
            }
        } catch (const contract_error&) {
            if (rethrow) throw;
            job.ok = false;
        }
    }

    // Phases 3 + 4, per window.  A shared walk counted only into the
    // items' stats sinks (the engine is the sole counter there), so the
    // fft_stats delta IS the window's fft contribution.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        window_job& job = jobs[i];
        if (!job.ok) continue;
        const job_state& st = states[i];
        if (shared) job.bd->fft += job.bd->fft_stats.ops - st.fft_pre;
        job.out->n_samples = job.t.size();
        job.out->mesh_span = st.prep.span;
        if (!whole)
            lomb_combine(packed, st.zfft, st.z1fft, st.z2fft, st.prep,
                         st.n_eff, opt, *job.out, *job.bd);
    }
}

/// A walk of one job, its state on the stack.
void walk_one(window_job& job, const fft_engine& engine,
              const fast_lomb_options& opt, util::arena& mem, bool rethrow) {
    job_state state;
    fft_engine::batch_item items[2];
    lomb_walk({&job, 1}, {&state, 1}, items, engine, opt, mem, rethrow);
}

}  // namespace

lomb_result fast_lomb(std::span<const real> t, std::span<const real> x,
                      const fft_engine& engine, const fast_lomb_options& opt,
                      lomb_breakdown* breakdown) {
    workspace ws;
    lomb_result res;
    fast_lomb(t, x, engine, opt, ws, res, breakdown);
    return res;
}

void fast_lomb(std::span<const real> t, std::span<const real> x,
               const fft_engine& engine, const fast_lomb_options& opt,
               workspace& ws, lomb_result& res, lomb_breakdown* breakdown,
               const hop_ctx* ctx) {
    lomb_breakdown local;
    window_job job{t, x, &res, breakdown != nullptr ? breakdown : &local, ctx};
    walk_one(job, engine, opt, ws.scratch(), true);
}

void fast_lomb_batched(std::span<window_job> jobs, const fft_engine& engine,
                       const fast_lomb_options& opt, workspace& ws) {
    // Windows share one walk only when the engine interleaves their
    // transforms; otherwise each walks alone, so its scratch is released
    // before the next window draws any.
    if (jobs.size() < 2 || engine.whole_window() || engine.batch_width() < 2) {
        for (window_job& job : jobs)
            walk_one(job, engine, opt, ws.scratch(), false);
        return;
    }
    // thread_local so steady-state batched drains stay allocation-free.
    thread_local std::vector<job_state> states;
    thread_local std::vector<fft_engine::batch_item> items;
    states.resize(jobs.size());
    items.resize(2 * jobs.size());
    lomb_walk(jobs, states, items, engine, opt, ws.scratch(), false);
}

}  // namespace qpsa::lomb
