// Quality-scalable DWT-based FFT (the paper's core contribution).
//
// Structure per eq. (6)/(7): one orthonormal DWT stage splits the input
// into lowpass/highpass subbands; two half-size FFTs transform the
// subbands; a diagonal combine (the A/B/C/D "twiddle factor" matrices)
// assembles the full spectrum.  Approximation hooks:
//
//   * band drop     -- skip the highpass subband, its FFT and its combine
//                      terms (stage-1 pruning, eq. (7));
//   * factor sets   -- zero the smallest-magnitude diagonal factors
//                      (stage-2 pruning, Sets 1-3 = 20/40/60 %);
//   * dynamic mode  -- run-time comparisons decide the band drop and the
//                      per-term skips from live data magnitudes, at the
//                      cost of counted comparison instructions.
//
// Every arithmetic operation executed is recorded into the active
// counting scope, so complexity tables (Fig. 5) and the energy model
// (Fig. 9) are measured, not estimated.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "qpsa/dsp/fft_split_radix.hpp"
#include "qpsa/util/arena.hpp"
#include "qpsa/util/common.hpp"
#include "qpsa/wfft/plan.hpp"
#include "qpsa/wfft/twiddle_tables.hpp"

namespace qpsa::wfft {

class wavelet_fft {
public:
    explicit wavelet_fft(plan p);

    const plan& get_plan() const noexcept { return plan_; }
    std::size_t size() const noexcept { return plan_.n; }
    const twiddle_tables& tables() const noexcept { return *tables_; }
    /// The process-shared immutable table this transform reads from
    /// (identical keys alias the same object; see shared_twiddle_tables).
    std::shared_ptr<const twiddle_tables> shared_tables() const noexcept {
        return tables_;
    }

    /// Magnitude threshold below which factors are statically pruned
    /// (-1 when no static pruning is active).
    real factor_threshold() const noexcept { return static_threshold_; }

    /// Effective (post-pruning) top-level factors; zeroed entries are the
    /// statically pruned ones.  Exposed for Fig. 6 and calibration.
    std::span<const cplx> effective_factor_a() const noexcept { return eff_a_; }
    std::span<const cplx> effective_factor_b() const noexcept { return eff_b_; }
    std::span<const cplx> effective_factor_c() const noexcept { return eff_c_; }
    std::span<const cplx> effective_factor_d() const noexcept { return eff_d_; }

    /// Out-of-place forward transform.  in/out must both have size n.
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 exec_stats* stats = nullptr) const;

    /// Same transform with all per-recursion-level subband/sub-spectrum
    /// buffers drawn from `scratch` -- allocation-free in steady state.
    void forward(std::span<const cplx> in, std::span<cplx> out,
                 exec_stats* stats, util::arena& scratch) const;

    std::vector<cplx> forward_copy(std::span<const cplx> in,
                                   exec_stats* stats = nullptr) const;

    /// One transform of a lane-batched walk (forward_batched).
    struct batch_io {
        const cplx* in = nullptr;
        cplx* out = nullptr;
        exec_stats* stats = nullptr;  ///< optional per-transform sink
    };

    /// True when forward_batched can interleave transforms one per SIMD
    /// lane: either the half-size sub-transforms run through the
    /// split-radix FFT (single_level tree), or the whole multi-level
    /// recursion has a static schedule (see static_schedule()).
    bool lane_batchable() const noexcept {
        return sub_split_radix_ != nullptr || static_schedule_;
    }

    /// True when every decision in the tree -- band drops, factor skips,
    /// leaf shapes -- is fixed at plan time (no dynamic pruning anywhere
    /// in the subtree, folded-Haar stages, leaves of size <= 4).  Such a
    /// tree executes the identical operation sequence for every input,
    /// which is what lets the multi-level lane walk batch each DWT level
    /// and both sub-transforms across lane partners and attribute one
    /// memoized op tally per item.
    bool static_schedule() const noexcept { return static_schedule_; }

    /// Forward-transform every item with transforms interleaved one per
    /// SIMD lane.  single_level trees batch the two half-size sub-FFTs
    /// through fft_split_radix::forward_batched while the DWT stage, the
    /// per-window band decision and the combine run per item with the
    /// sequential code; static-schedule recursive trees run the entire
    /// multi-level recursion -- every DWT stage, leaf DFT and diagonal
    /// combine -- elementwise over lane-interleaved planes.  Both walks
    /// execute the scalar operation sequence per lane, so outputs,
    /// exec_stats and operation counts are bit-identical to calling
    /// forward() per item in order.
    void forward_batched(std::span<const batch_io> items,
                         util::arena& scratch) const;

    /// Sub-spectrum of the lowpass band (A = F_{N/2} a) of the last
    /// forward() call is not retained; calibration instead uses
    /// subband_spectra() to observe intermediate magnitudes.
    struct subband_spectra {
        std::vector<cplx> a_fft;  ///< F_{N/2} of the lowpass band
        std::vector<cplx> d_fft;  ///< F_{N/2} of the highpass band
        real d_mean_l1 = 0.0;     ///< mean L1 magnitude of the highpass band
    };
    /// Exact (unpruned) intermediate values for calibration/analysis.
    subband_spectra analyze(std::span<const cplx> in) const;

private:
    /// Top-level real-input contract (plan_.assume_real_input): checked
    /// once per transform at the entry points, never per recursion level.
    void check_real_input(const cplx* in) const;
    /// DWT split plus band decision, counted into the active scope: fills
    /// the lowpass band `a` and, unless the highpass band is dropped,
    /// allocates and fills `d` from `scratch`.  Returns the drop decision
    /// (static, or from the live highpass magnitude in dynamic mode).
    bool split_stage(std::span<const cplx> in, std::span<cplx> a,
                     std::span<cplx>& d, util::arena& scratch) const;
    void forward_impl(std::span<const cplx> in, std::span<cplx> out,
                      exec_stats& stats, util::arena& scratch) const;
    void forward_batched_planes(std::span<const batch_io> items,
                                util::arena& scratch) const;
    void forward_planes(const cplx* x, cplx* out, std::size_t nl,
                        util::arena& scratch) const;
    void combine_planes(const cplx* a_fft, const cplx* d_fft, cplx* out,
                        std::size_t nl) const;
    void dwt_stage(std::span<const cplx> x, std::span<cplx> a,
                   std::span<cplx> d, util::arena& scratch) const;
    void dwt_stage_lowpass(std::span<const cplx> x, std::span<cplx> a) const;
    void sub_transform_a(std::span<const cplx> in, std::span<cplx> out,
                         exec_stats& stats, util::arena& scratch) const;
    void sub_transform_d(std::span<const cplx> in, std::span<cplx> out,
                         exec_stats& stats, util::arena& scratch) const;
    void combine(std::span<const cplx> a_fft, const cplx* d_fft,
                 std::span<cplx> out, exec_stats& stats) const;

    plan plan_;
    std::shared_ptr<const twiddle_tables> tables_;
    real static_threshold_ = -1.0;
    std::vector<cplx> eff_a_, eff_b_, eff_c_, eff_d_;
    std::vector<bool> free_a_, free_b_, free_c_, free_d_;  ///< |f| == 1 rotations
    std::vector<real> mag_a_, mag_b_, mag_c_, mag_d_;      ///< |factor| tables

    std::unique_ptr<dsp::fft_split_radix> sub_split_radix_;  // single_level
    std::unique_ptr<wavelet_fft> sub_a_;  // recursive lowpass child
    std::unique_ptr<wavelet_fft> sub_d_;  // recursive highpass child (exact)

    bool static_schedule_ = false;
    /// Exact per-transform stats of a static-schedule tree (memoized by a
    /// dry run at construction; input-independent by definition).  The
    /// lane walk attributes this per item instead of counting live.
    exec_stats probe_stats_;
};

/// Direct small DFT used at recursion leaves (counted; sizes 2 and 4 are
/// multiplication-free).
void leaf_dft(std::span<const cplx> in, std::span<cplx> out);

}  // namespace qpsa::wfft
