// Fast-Lomb periodogram (Press & Rybicki 1989, the paper's ref. [10]).
//
// Pipeline per the paper's Fig. 1(a): the RR window is extirpolated onto a
// fixed power-of-two mesh, the mesh pair (data, unit weights) is packed
// into one complex sequence and transformed by the pluggable FFT engine,
// and the "Lomb calculator" combines the four trigonometric sums into the
// normalized periodogram.  The FFT engine is where the conventional
// (split-radix) and proposed (pruned wavelet) systems differ.
#pragma once

#include <span>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/dsp/spectrum.hpp"
#include "qpsa/lomb/fft_engine.hpp"
#include "qpsa/lomb/hop_cache.hpp"
#include "qpsa/lomb/workspace.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::lomb {

/// How samples are redistributed onto the FFT mesh.
enum class mesh_mode {
    /// Press-Rybicki Lagrange extirpolation (NR's fasper): exact fast
    /// approximation of the true Lomb sums on irregular times.
    lagrange_extirpolation,
    /// Sample-and-hold staircase onto mesh/ofac evenly spaced cells,
    /// zero-padded to the mesh (paper Fig. 3: "117 RR-intervals
    /// extrapolated to 256 values", then the 512 FFT).  The piecewise
    /// constant mesh is what makes the detail band near-zero and the
    /// paper's band-drop pruning benign.
    staircase_hold,
};

/// How the two real meshes are transformed.
enum class fft_packing {
    /// Two complex FFTs, one per mesh -- the structure of the paper's
    /// Fig. 1(a) ("The FFTs then calculate the four sums").
    two_transforms,
    /// One complex FFT of the packed pair + Hermitian unpack: halves the
    /// FFT work (offered as an optimization ablation).
    packed_single,
};

struct fast_lomb_options {
    /// Oversampling factor of the frequency grid (typ. 4).
    real ofac = 4.0;
    /// Highest frequency as multiple of the mean Nyquist rate.
    real hifac = 1.0;
    /// Extirpolation kernel order (NR's MACC); lagrange mode only.
    int macc = 4;
    mesh_mode mesh = mesh_mode::lagrange_extirpolation;
    fft_packing packing = fft_packing::two_transforms;
    /// Fixed mesh (= FFT) size; 0 derives the size from ofac/hifac/n.
    /// The paper fixes 512.
    std::size_t mesh_size = 512;
    /// Fixed window span in seconds; 0 uses t.back() - t.front().  Fixing
    /// the span gives every Welch segment the same frequency grid.
    real span_override = 0.0;
    /// Fixed number of output frequencies; 0 derives it from the sample
    /// count (0.5 * ofac * hifac * n).  Welch segmentation fixes it so all
    /// segments share one grid.
    std::size_t nout_override = 0;
    /// Anchor window arithmetic on the monitor's global hop grid instead
    /// of the window's first beat (requires span_override > 0).  Every
    /// beat's mesh position becomes a pure function of the beat itself, so
    /// the hop_cache can reuse the overlap half across windows; with
    /// cache reuse off the aligned path still computes the identical
    /// result -- that is the invariant the hopcache tests pin down.
    bool hop_aligned = false;
    /// Report real (post-reuse) operation counts on cache hits instead of
    /// attributing the memoized scratch-path tally.  Off by default so
    /// counted complexity -- and the QDES energy model -- is unchanged by
    /// caching (the PR 8 batched-FFT precedent); a governor flips it on to
    /// see the true savings.
    bool count_actual_ops = false;

    /// Equal options + the same engine = the same arithmetic: the batch
    /// scheduler groups windows across sessions on exactly this.
    bool operator==(const fast_lomb_options&) const = default;
};

/// Per-phase operation breakdown (for the Fig. 1(b) profiling experiment).
struct lomb_breakdown {
    counting::op_counts moments;        ///< mean/variance of the window
    counting::op_counts extirpolation;  ///< mesh redistribution
    counting::op_counts fft;            ///< the two packed real FFTs
    counting::op_counts combine;        ///< Lomb calculator
    wfft::exec_stats fft_stats;         ///< pruning stats of the FFT engine

    counting::op_counts total() const {
        return moments + extirpolation + fft + combine;
    }
};

struct lomb_result {
    dsp::sampled_spectrum spectrum;
    std::size_t n_samples = 0;
    real mesh_span = 0.0;
};

/// Compute the normalized Lomb periodogram of (t, x) through `engine`.
/// engine.size() must equal the effective mesh size.  If `breakdown` is
/// non-null the per-phase operation counts are stored there.
lomb_result fast_lomb(std::span<const real> t, std::span<const real> x,
                      const fft_engine& engine, const fast_lomb_options& opt,
                      lomb_breakdown* breakdown = nullptr);

/// Workspace-reusing variant: all mesh/FFT scratch is drawn from `ws` and
/// the result is written into `out` (whose vectors keep their capacity
/// across calls).  Bit-identical to the allocating overload -- it is the
/// same arithmetic; only buffer provenance differs.  Runs the one-job case
/// of fast_lomb_batched's walk and throws contract_error where that walk
/// would mark the job failed.
void fast_lomb(std::span<const real> t, std::span<const real> x,
               const fft_engine& engine, const fast_lomb_options& opt,
               workspace& ws, lomb_result& out,
               lomb_breakdown* breakdown = nullptr,
               const hop_ctx* ctx = nullptr);

/// One window of a batched Fast-Lomb run.  `out`/`bd` must be non-null;
/// `ok` reports whether the window passed its data contracts (windows
/// failing them are skipped exactly as the scalar path would throw).
struct window_job {
    std::span<const real> t;
    std::span<const real> x;
    lomb_result* out = nullptr;
    lomb_breakdown* bd = nullptr;
    /// Per-job hop-alignment context (jobs in one batch come from
    /// different sessions, each with its own cache); null when the
    /// configuration is not hop-aligned.
    const hop_ctx* ctx = nullptr;
    bool ok = false;
};

/// Analyze several same-plan windows, interleaving their mesh FFTs one per
/// SIMD lane through engine.forward_batched().  Every job's spectrum and
/// per-phase op breakdown is bit-identical to a fast_lomb call, which is
/// the one-job case of the same walk; engines without batching
/// (batch_width() == 1, whole-window estimators) walk one job at a time.
void fast_lomb_batched(std::span<window_job> jobs, const fft_engine& engine,
                       const fast_lomb_options& opt, workspace& ws);

/// Effective power-of-two FFT mesh size for a configuration and sample
/// count (opt.mesh_size, or derived from ofac/hifac/macc when 0).
std::size_t fast_lomb_mesh_size(std::size_t n_samples,
                                const fast_lomb_options& opt);

/// Number of output frequencies for a given configuration and sample
/// count (bounded by the mesh's usable bins).
std::size_t fast_lomb_nout(std::size_t n_samples, const fast_lomb_options& opt);

}  // namespace qpsa::lomb
