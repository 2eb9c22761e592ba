// HRV frequency bands and band-power summary (paper Section VI).
//
// Standard short-term HRV bands:
//   ULF < 0.003 Hz (only meaningful for very long records; the paper
//                   reports a "Total ULFP" next to LFP/HFP -- here ULF
//                   covers everything below the VLF edge of the grid),
//   VLF 0.003-0.04 Hz, LF 0.04-0.15 Hz, HF 0.15-0.4 Hz.
// HF ends at 0.40 Hz, not at the 0.5 Hz some HRV toolkits use: power above
// 0.40 Hz counts toward the total only.
// The detection metric is the LFP/HFP ratio: "a ratio of LFP over HFP
// much less than 1 indicates a sinus arrhythmia condition".
#pragma once

#include "qpsa/dsp/spectrum.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::hrv {

struct band_limits {
    real ulf_hi = 0.04;  ///< upper edge of the "ULF" bucket reported in Fig. 8
    real lf_lo = 0.04;
    real lf_hi = 0.15;
    real hf_lo = 0.15;
    real hf_hi = 0.40;
};

struct band_powers {
    real ulf = 0.0;
    real lf = 0.0;
    real hf = 0.0;
    real total = 0.0;

    /// The paper's detection metric.
    real lf_hf_ratio() const { return hf > 0.0 ? lf / hf : 0.0; }

    /// Normalized units (Task Force convention): band power relative to
    /// total minus the ULF/VLF bucket.
    real lf_nu() const {
        const real den = lf + hf;
        return den > 0.0 ? lf / den : 0.0;
    }
    real hf_nu() const {
        const real den = lf + hf;
        return den > 0.0 ? hf / den : 0.0;
    }

    bool operator==(const band_powers&) const = default;
};

/// Integrate band powers from a sampled spectrum.
band_powers compute_band_powers(const dsp::sampled_spectrum& s,
                                const band_limits& limits = {});

/// Shannon spectral entropy of the normalized in-band spectrum
/// (0 = single tone, 1 = flat); a complementary complexity measure some
/// HRV monitors report next to the band ratio.
real spectral_entropy(const dsp::sampled_spectrum& s, real f_lo = 0.04,
                      real f_hi = 0.40);

}  // namespace qpsa::hrv
