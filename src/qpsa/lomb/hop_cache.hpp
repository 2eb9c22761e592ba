// Cross-window incremental recomputation for 50 %-overlap streams.
//
// The paper's 2-minute window / 1-minute hop means half of every window's
// input was already processed one hop ago, and the Welch engine's
// overlapping sub-segments recur across consecutive windows.  A hop_cache
// memoizes the sub-results that are provably identical across overlapping
// windows:
//
//   * mesh tier  -- the extirpolation partial meshes of the overlap half
//     (hop-aligned Lagrange mode only; see fast_lomb.cpp for the canonical
//     position decomposition that makes the deposits shift-invariant);
//   * segment tier -- Welch per-segment periodograms keyed by the absolute
//     segment index (a segment's beat subset, and therefore its
//     periodogram, is a pure function of that subset);
//   * series tier -- the raw resampled series of the overlap range for the
//     traditional resample+FFT engine (grid points at global indices g,
//     t = g / rate, so the interpolated values are bitwise stable).
//
// The cache itself never changes arithmetic: a window computed against a
// hop_ctx with cache == nullptr is bit-identical to the same window on a
// warm cache.  Reused sub-results attribute their memoized operation
// tally by default (the PR 8 batched-FFT precedent), so counted
// complexity -- and the QDES energy model -- is unchanged by reuse; the
// count_actual_ops toggle drops that attribution so a governor can see
// the real savings.
//
// Ownership: one hop_cache per streaming_monitor (the session workspace
// tier).  All storage is capacity-reusing vectors, so steady state is
// allocation-free.  Invalidation: governor mode switches (set_config) and
// state restores (migration adopt) drop every entry; the cache rebuilds
// within one window and outputs stay bit-identical throughout.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "qpsa/counting/op_counter.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::lomb {

class hop_cache;

/// Hop-alignment context of one analysis window: window m covers
/// [m * hop, m * hop + window_seconds).  Built by the streaming monitor
/// when the configuration opts into hop alignment; `cache` may be null
/// (reuse disabled by set_hop_cache_enabled(false)) without changing
/// any arithmetic, because the aligned computations are a function of
/// the configuration and this context only, never of cache contents.
struct hop_ctx {
    hop_cache* cache = nullptr;
    std::int64_t window_index = 0;  ///< m: window start == m * hop_seconds
    real hop_seconds = 0.0;
    real window_start = 0.0;  ///< the monitor's w0 (== m * hop)
    real window_seconds = 0.0;
    /// Attribute real (post-reuse) op counts instead of the memoized
    /// scratch-path tally (mirrors fast_lomb_options::count_actual_ops).
    bool count_actual_ops = false;
};

/// Prefix meshes of one upcoming window, built while the previous window's
/// suffix beats deposit (dual-deposit; see fast_lomb.cpp).  The three
/// meshes decompose centering out of the data mesh: wk1 = mesh_x - avg *
/// mesh_1, so the cached partials are independent of the window mean.
struct hop_mesh_entry {
    std::int64_t window_index = -1;  ///< window whose prefix this is
    std::size_t mesh = 0;
    std::vector<real> mesh_x;  ///< raw-value deposits at base positions
    std::vector<real> mesh_1;  ///< unit deposits at base positions
    std::vector<real> mesh_2;  ///< unit deposits at doubled-angle positions
    counting::op_counts ops;   ///< scratch-path tally of the cached beats
    bool valid = false;
};

/// One cached Welch segment periodogram, keyed by the absolute segment
/// index k (segment k covers [k * seg_hop, k * seg_hop + seg_seconds]).
struct hop_segment_entry {
    std::int64_t seg_index = -1;
    std::vector<real> power;  ///< one-sided periodogram, fft_size / 2 bins
    counting::op_counts ops;  ///< scratch-path tally of the segment
    bool valid = false;
};

/// Raw resampled-series points of one upcoming window's overlap range:
/// values[i] is the interpolated series at global grid index g_start + i
/// (t = g / rate).  Op attribution is closed-form (every cached point is
/// an interpolated point), so no tally travels with the entry.
struct hop_series_entry {
    std::int64_t window_index = -1;
    std::int64_t g_start = 0;
    std::vector<real> values;
    bool valid = false;
};

class hop_cache {
public:
    hop_mesh_entry& mesh() noexcept { return mesh_; }
    hop_series_entry& series() noexcept { return series_; }

    /// Ring slot for absolute segment index k.  The ring holds more slots
    /// than any window has segments, so the indices live in one window
    /// never collide; entries of long-gone segments are simply overwritten.
    hop_segment_entry& segment_slot(std::int64_t seg_index) {
        if (segments_.empty()) segments_.resize(segment_ring_slots);
        return segments_[static_cast<std::size_t>(
            seg_index % static_cast<std::int64_t>(segments_.size()))];
    }

    /// Drop every entry (mode switch, state restore, migration adopt).
    /// Counters are monotonic telemetry and survive; storage keeps its
    /// capacity so the rebuild is allocation-free.
    void invalidate() noexcept {
        mesh_.valid = false;
        series_.valid = false;
        for (hop_segment_entry& e : segments_) e.valid = false;
    }

    // Hit/miss counters are relaxed atomics: fleet snapshots read them
    // while a scheduler worker drains the owning session.
    void count_hit() noexcept { hits_.fetch_add(1, std::memory_order_relaxed); }
    void count_miss() noexcept {
        misses_.fetch_add(1, std::memory_order_relaxed);
    }
    std::uint64_t hits() const noexcept {
        return hits_.load(std::memory_order_relaxed);
    }
    std::uint64_t misses() const noexcept {
        return misses_.load(std::memory_order_relaxed);
    }
    real hit_rate() const noexcept {
        const std::uint64_t h = hits();
        const std::uint64_t m = misses();
        return h + m ? static_cast<real>(h) / static_cast<real>(h + m) : 0.0;
    }
    /// Bytes of cached payload currently held (capacity, since the
    /// vectors are capacity-reusing).
    std::uint64_t bytes() const noexcept;

private:
    static constexpr std::size_t segment_ring_slots = 16;

    hop_mesh_entry mesh_;
    hop_series_entry series_;
    std::vector<hop_segment_entry> segments_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

/// Process-wide reuse switch, on unless set_hop_cache_enabled(false).
/// Controls only whether a cache is attached to new windows -- never the
/// arithmetic -- so flipping it mid-stream keeps outputs bit-identical.
bool hop_cache_enabled() noexcept;

/// Runtime override for in-process A/B runs (benches, tests).
void set_hop_cache_enabled(bool on) noexcept;

}  // namespace qpsa::lomb
