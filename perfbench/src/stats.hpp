// Summary statistics of the fleet benchmark.
//
// Every timing is reported as its median and the highest percentile that
// still has at least `min_beyond` samples strictly above its rank, with
// the sample count -- a p99 read off 300 samples rests on three values
// and is noise, so the ladder steps down until the tail is supported.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank ceil(pct / 100 * n).  Empty input reads 0.
inline double percentile_sorted(const std::vector<double>& sorted, double pct) {
    if (sorted.empty()) return 0.0;
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/// Samples ranked strictly above the nearest-rank `pct` percentile.
inline std::size_t samples_beyond(std::size_t n, double pct) {
    if (n == 0) return 0;
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return n - rank;
}

/// The percentile ladder the tail is chosen from, highest first.
inline constexpr double tail_ladder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

inline double supported_tail_pct(std::size_t n, std::size_t min_beyond = 10) {
    for (const double p : tail_ladder)
        if (samples_beyond(n, p) >= min_beyond) return p;
    return 0.0;
}

/// The value a `_pNN` metric reports: the NN-th percentile when at least
/// `min_beyond` samples lie above it, else the highest ladder percentile
/// that has them (pct 0: too few samples, the maximum is reported).  The
/// report line names the percentile actually used.
struct tail_value {
    double pct = 0.0;
    double value = 0.0;
};

inline tail_value capped_percentile(std::vector<double> v, double pct,
                                    std::size_t min_beyond = 10) {
    tail_value t;
    if (v.empty()) return t;
    std::sort(v.begin(), v.end());
    t.pct = samples_beyond(v.size(), pct) >= min_beyond
                ? pct
                : supported_tail_pct(v.size(), min_beyond);
    t.value = t.pct > 0.0 ? percentile_sorted(v, t.pct) : v.back();
    return t;
}

inline double median_of(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return percentile_sorted(v, 50.0);
}

}  // namespace perfbench
