// Streaming HRV monitor: the run-time face of the quality-scalable PSA.
//
// A WBSN node does not see whole records -- it sees one beat at a time.
// The monitor buffers beats, emits a spectral analysis every hop interval
// (Welch windowing online), tracks the LFP/HFP ratio series, and lets a
// QDES policy switch the approximation mode between windows (the paper's
// "prune & adjust based on accepted distortion" loop of Fig. 9).
#pragma once

#include <functional>
#include <optional>

#include "qpsa/core/psa_system.hpp"
#include "qpsa/core/workspace_cache.hpp"
#include "qpsa/lomb/hop_cache.hpp"

namespace qpsa::core {

struct monitor_options {
    real window_seconds = 120.0;
    real hop_seconds = 60.0;       ///< 50 % overlap of the paper
    std::size_t min_beats = 32;
    std::size_t history_limit = 256;  ///< retained window results

    bool operator==(const monitor_options&) const = default;
};

/// Result of one completed analysis window.
struct window_report {
    real t_start = 0.0;
    real t_end = 0.0;
    hrv::band_powers bands;
    hrv::diagnosis diagnosis = hrv::diagnosis::normal;
    counting::op_counts ops;
    std::size_t beats = 0;
    /// Engine kind that produced the window (fleet roll-ups tally by it).
    engine_class engine = engine_class::conventional;

    real ratio() const { return bands.lf_hf_ratio(); }

    /// Bitwise-exact field comparison -- what "deterministic replay"
    /// means throughout the service and journal layers.
    bool operator==(const window_report&) const = default;
};

/// Builds (or fetches from a cache) the analysis system for a config.
/// Injected by the service layer so every monitor in a fleet shares
/// engines/twiddle state; the default builds a private system.
using system_factory =
    std::function<std::shared_ptr<const psa_system>(const psa_config&)>;

/// Complete streaming state of a monitor between two push_beat calls --
/// the unit of live session migration.  A monitor restored from an
/// exported state continues the beat stream bit-identically to the
/// monitor that exported it: the live beat window, the un-polled pending
/// reports, the bounded history and the window phase all travel.  The
/// analysis configuration does NOT travel (it is owned by the session's
/// config/governor, which re-applies it on the adopting side).
struct monitor_state {
    std::vector<std::pair<real, real>> buffered;  ///< live (time, rr) window
    std::vector<window_report> pending;           ///< completed, not yet polled
    std::vector<window_report> history;           ///< bounded report history
    real next_window_start = 0.0;
    bool started = false;
    std::uint64_t windows_completed = 0;
    std::uint64_t beats_seen = 0;

    bool operator==(const monitor_state&) const = default;
};

class streaming_monitor {
public:
    streaming_monitor(psa_config cfg, monitor_options opt = {},
                      system_factory factory = {});

    /// Feed one beat (absolute time + RR interval).  Returns a report
    /// whenever a window completes (possibly referencing several pending
    /// windows; they are queued and returned one per call to poll()).
    /// In staging mode a closable window is *staged* instead of analyzed
    /// (see set_staging); no further beats may be pushed until the staged
    /// window is finished.
    void push_beat(real beat_time_s, real rr_s);

    // ---- staged window analysis (cross-monitor SIMD batching) --------
    //
    // The batch scheduler interleaves the mesh FFTs of several same-plan
    // monitors one per SIMD lane.  To do that it needs to *take over* the
    // analyze step: with staging on, try_close_windows stops at the first
    // closable window and exposes it as a lomb::window_job instead of
    // analyzing it.  The caller runs the job (alone or batched -- results
    // are bit-identical either way) and hands control back through
    // finish_staged, which builds the report exactly as the inline path
    // would and resumes window closing (possibly staging the next window
    // of the same beat immediately).

    /// Toggle staging.  Must not be called while a window is staged.
    void set_staging(bool on) {
        QPSA_EXPECTS(!staged_);
        staging_ = on;
    }
    /// A window is cut and waiting for its analysis to be run.
    bool has_staged() const noexcept { return staged_; }
    /// The staged window as a batchable job (spans into monitor scratch;
    /// valid until finish_staged).
    lomb::window_job staged_job() noexcept;
    /// Complete the staged window: `ok` is the job's post-analysis flag
    /// (false = the window failed its data contracts and is skipped, as
    /// the inline path's catch would).  Resumes window closing.
    void finish_staged(bool ok);

    /// Next completed window report, if any.
    std::optional<window_report> poll();

    /// Completed-window history (oldest first, bounded).
    std::span<const window_report> history() const noexcept {
        return {history_.data(), history_.size()};
    }

    /// Swap the analysis configuration (e.g. a QDES mode change); takes
    /// effect from the next window.  Routed through the injected factory,
    /// so cached engines are reused.
    void set_config(psa_config cfg);

    /// Inject a per-worker workspace cache: window analysis then draws its
    /// scratch from the cache entry for the current engine key instead of
    /// the monitor's private workspace.  May change between drains (a
    /// session migrates across workers); nullptr reverts to the private
    /// workspace.  Results are bit-identical either way.
    void set_scratch(workspace_cache* cache) noexcept { scratch_cache_ = cache; }
    const psa_config& config() const noexcept { return system_->config(); }
    /// The (shared, immutable) analysis system currently in use.
    const psa_system& system() const noexcept { return *system_; }

    /// Fraction of completed windows flagged as sinus arrhythmia.
    real arrhythmia_fraction() const;

    /// Hop cache of this monitor (hit/miss/bytes telemetry).  Only active
    /// -- and only populated -- when the config sets lomb.hop_aligned and
    /// lomb::hop_cache_enabled() is on; otherwise all counters stay zero.
    const lomb::hop_cache& hop_cache() const noexcept { return hop_cache_; }

    std::size_t windows_completed() const noexcept { return completed_; }
    std::size_t beats_seen() const noexcept { return beats_seen_; }

    /// Snapshot the full streaming state (live window, pending reports,
    /// history, window phase).  Pure read; the monitor keeps running.
    monitor_state export_state() const;

    /// Replace the streaming state with an exported one.  The analysis
    /// configuration is untouched -- callers restore config first (via
    /// set_config) and state second.  After restore the monitor is
    /// bit-identical to the exporter: the next push_beat continues the
    /// same window with the same phase.
    void restore_state(const monitor_state& st);

private:
    void try_close_windows();
    /// Advance to the next hop and prune/compact beats no future window
    /// can use (the tail of one try_close_windows iteration).
    void advance_window();
    lomb::workspace& window_workspace();
    /// Refresh hop_ctx_ for the window starting at w0 (hop-aligned only).
    void update_hop_ctx(real w0);

    monitor_options opt_;
    system_factory factory_;
    std::shared_ptr<const psa_system> system_;

    // Beat buffer: a contiguous FIFO (vector + head index, compacted when
    // the dead prefix dominates) instead of a deque -- steady state then
    // performs no per-beat/per-window heap traffic, which the service's
    // allocs_per_window budget relies on.
    std::vector<std::pair<real, real>> buffer_;  ///< (beat time, rr)
    std::size_t buffer_head_ = 0;

    // Completed reports awaiting poll(), same vector-FIFO scheme.
    std::vector<window_report> pending_;
    std::size_t pending_head_ = 0;

    std::vector<window_report> history_;

    // Reused per-window scratch: the cut window, its spectrum, and the
    // fallback workspace used when no per-worker cache is injected.
    std::vector<real> win_t_;
    std::vector<real> win_x_;
    lomb::lomb_result win_result_;
    lomb::workspace own_workspace_;
    workspace_cache* scratch_cache_ = nullptr;

    // Staging mode (cross-monitor SIMD batching; see set_staging).
    bool staging_ = false;
    bool staged_ = false;
    lomb::lomb_breakdown staged_bd_;

    // Hop cache: session-lifetime memo of sub-results shared by the 50 %
    // overlap of consecutive windows.  Owned here (per monitor == per
    // session/patient); invalidated on set_config and restore_state, NOT
    // exported with monitor_state -- a migrated session rebuilds it
    // during its first post-adopt window, bit-identically.
    lomb::hop_cache hop_cache_;
    lomb::hop_ctx hop_ctx_{};

    real next_window_start_ = 0.0;
    bool started_ = false;
    std::size_t completed_ = 0;
    std::size_t beats_seen_ = 0;
};

}  // namespace qpsa::core
