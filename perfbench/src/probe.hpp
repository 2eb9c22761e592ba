// Layer probe of the traced run: times the public entry points of the
// analysis layers (core, lomb, hrv) on windows cut from the workload's own
// records, one engine of the ten-kind mix at a time, and pairs the times
// with the exact op counts of the same calls.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

struct probe_result {
    struct row {
        std::string label;
        bool mesh = false;  ///< forward()-style engine (has an FFT phase)
        double analyze_us = 0.0;
        double fft_us = 0.0;
        double residual_us = 0.0;
        double ops_per_window = 0.0;
    };
    std::vector<row> rows;
    double extirpolate_us = 0.0;
    double bands_us = 0.0;

    /// core.analyze_us.*, lomb.extirpolate_us / fft_us.* / residual_us.*,
    /// hrv.bands_us, counting.ops_per_window.*, energy.ns_per_op.*.
    void emit(report& rep) const;
};

/// Records probe.window spans (children core.analyze, lomb.extirpolate,
/// lomb.fft, hrv.bands) into `tr`, which must be enabled.
probe_result run_probe(const cohort& co, tracer& tr);

}  // namespace perfbench
