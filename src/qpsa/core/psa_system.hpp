// End-to-end quality-scalable PSA system.
//
// Owns the FFT engine (conventional or wavelet), runs the Welch-Lomb
// analysis over an RR record, integrates band powers per segment and
// averaged, and reports the operation/energy footprint -- one object per
// "system" the paper compares.
#pragma once

#include <memory>
#include <vector>

#include "qpsa/core/psa_config.hpp"
#include "qpsa/hrv/detector.hpp"
#include "qpsa/hrv/quality.hpp"

namespace qpsa::core {

struct record_analysis {
    /// Averaged spectrum over all segments.
    dsp::sampled_spectrum averaged_spectrum;
    /// Band powers of the averaged spectrum.
    hrv::band_powers bands;
    /// Per-segment band powers (the time-frequency ratio series of the
    /// paper's hourly monitoring experiment).
    std::vector<hrv::band_powers> segment_bands;
    std::vector<real> segment_start_s;
    hrv::diagnosis diagnosis = hrv::diagnosis::normal;
    /// Operation breakdown accumulated over the record.
    lomb::lomb_breakdown ops;
    std::size_t segments = 0;

    real lf_hf_ratio() const { return bands.lf_hf_ratio(); }
};

class psa_system {
public:
    explicit psa_system(psa_config cfg);

    /// Construct around a prebuilt (possibly shared) engine.  The engine
    /// must match the config (same mesh size / plan); the service-layer
    /// plan cache uses this so a whole fleet of identically configured
    /// sessions reuses one immutable engine instead of rebuilding twiddle
    /// state per session.  Engines are stateless across forward() calls,
    /// so concurrent use from many threads is safe.
    psa_system(psa_config cfg, std::shared_ptr<const lomb::fft_engine> engine);

    /// Build the engine a config describes, without a psa_system around
    /// it (the swap point shared by both constructors and the plan cache).
    static std::shared_ptr<const lomb::fft_engine> build_engine(
        const psa_config& cfg);

    const psa_config& config() const noexcept { return cfg_; }
    const lomb::fft_engine& engine() const noexcept { return *engine_; }
    /// The engine as a shareable handle (aliasable by other systems).
    std::shared_ptr<const lomb::fft_engine> shared_engine() const noexcept {
        return engine_;
    }
    std::string name() const { return cfg_.describe(); }

    /// Analyze a full RR record (beat times + intervals).
    record_analysis analyze_record(std::span<const real> beat_times,
                                   std::span<const real> rr) const;

    /// Analyze a single already-cut window; returns the periodogram and,
    /// optionally, the per-phase op breakdown.
    lomb::lomb_result analyze_window(std::span<const real> t,
                                     std::span<const real> x,
                                     lomb::lomb_breakdown* bd = nullptr) const;

    /// Workspace-reusing variant (bit-identical): scratch is drawn from
    /// `ws` and the result lands in `out`, whose vectors keep their
    /// capacity -- the steady-state-zero-allocation path of the service.
    /// `ctx` (optional) carries the hop-alignment context + cache of the
    /// owning monitor when cfg.lomb.hop_aligned is set.
    void analyze_window(std::span<const real> t, std::span<const real> x,
                        lomb::workspace& ws, lomb::lomb_result& out,
                        lomb::lomb_breakdown* bd = nullptr,
                        const lomb::hop_ctx* ctx = nullptr) const;

    /// Analyze several windows of THIS system in one pass, interleaving
    /// their mesh FFTs one per SIMD lane when the engine supports it.
    /// Each job's result is bit-identical to analyze_window on the same
    /// window; jobs failing their data contracts get ok = false (where
    /// analyze_window throws).
    void analyze_window_batched(std::span<lomb::window_job> jobs,
                                lomb::workspace& ws) const;

private:
    psa_config cfg_;
    std::shared_ptr<const lomb::fft_engine> engine_;
};

}  // namespace qpsa::core
