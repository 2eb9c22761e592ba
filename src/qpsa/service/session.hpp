// One monitored patient inside the service.
//
// A session owns the patient's ingest ring, their streaming_monitor (built
// over shared cached engines), their simulated node battery and their QDES
// governor (the paper's Fig. 2 loop, closed at run time).  Threading
// contract: the ingest edge (one producer thread) calls ingest();
// everything else -- the staged drain, mode changes, accessors below --
// runs on at most one scheduler worker at a time (the batch scheduler
// never assigns a session to two tasks concurrently).  The quality/battery
// columns read by fleet snapshots are atomics, so session_manager::fleet()
// may run concurrently with a draining worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qpsa/core/quality_governor.hpp"
#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/energy/battery.hpp"
#include "qpsa/journal/journal_format.hpp"
#include "qpsa/service/ring_buffer.hpp"
#include "qpsa/util/random.hpp"

namespace qpsa::journal {
class report_writer;
}

namespace qpsa::service {

class fleet_partial;

/// Sentinel for session_config::journal_id: use the locally assigned
/// session id (shard_router presets the global id instead, so journal
/// records always carry fleet-wide ids).
inline constexpr std::uint64_t journal_id_auto = ~std::uint64_t{0};

struct session_config {
    std::string patient_id;
    /// Initial analysis configuration (possibly replaced by QDES below).
    core::psa_config analysis;
    core::monitor_options monitor;

    /// Per-patient quality policy.  With a controller and a positive
    /// static budget the session starts in the deepest-saving mode whose
    /// expected distortion fits; with `quality.governed` the governor
    /// additionally re-selects from live battery state every N windows
    /// (and may switch engine *kinds*, not just pruning depth).
    core::quality_policy quality;

    /// Simulated node battery driving the governor's budget input; the
    /// default CR2032-class cell barely moves over a test run, so
    /// adaptive scenarios configure a smaller capacity.
    energy::battery_config battery;

    /// Ingest ring capacity (rounded up to a power of two) and overflow
    /// policy (reject keeps history, overwrite_oldest keeps freshness).
    std::size_t ingest_capacity = 1024;
    overflow_policy overflow = overflow_policy::reject;

    /// Ingest backpressure: when set, fires on the producer thread the
    /// first time ring occupancy reaches high_water_fraction of capacity,
    /// then re-arms once a drain brings occupancy back below the mark --
    /// one alarm per congestion episode, so the ingest edge can shed or
    /// reroute load *before* the ring starts rejecting/evicting.  The
    /// callback runs inside ingest() and must be cheap and noexcept.
    std::function<void(std::uint64_t session_id, std::size_t buffered,
                       std::size_t capacity)>
        on_high_water;
    real high_water_fraction = 0.75;  ///< crossing mark, in (0, 1]

    /// Durability sink: when set, the drain loop appends every popped
    /// beat and every completed window report (with post-window battery
    /// and governor state) to this journal.  Owned by the service layer
    /// and shared by every session on the shard; session_manager wires
    /// it from service_options::journal.
    journal::report_writer* journal = nullptr;
    /// Session id stamped into journal records; journal_id_auto uses the
    /// local id (shard_router presets the global id before forwarding).
    std::uint64_t journal_id = journal_id_auto;

    /// Per-session random stream seed; 0 lets the manager derive one from
    /// its base seed and the session id (util::derive_stream_seed), so a
    /// fleet is reproducible regardless of scheduling order.
    std::uint64_t seed = 0;

    /// Retain every completed window_report on the session (tests and the
    /// bench compare them against serial runs).  Long-running deployments
    /// turn this off and read the bounded monitor history instead.
    bool keep_reports = true;
};

/// One applied governor re-selection: after completed window number
/// `window_index` (1-based), the session switched to the controller mode
/// at `mode_index`.  Replaying this schedule against a serial monitor
/// reproduces the governed session bit for bit.
struct mode_switch_event {
    std::uint64_t window_index = 0;
    std::size_t mode_index = 0;

    bool operator==(const mode_switch_event&) const = default;
};

struct session_runtime_state;

class session {
public:
    session(std::uint64_t id, session_config cfg, core::system_factory factory);

    /// Adoption constructor: build the session and then restore the full
    /// run-time state an extract() on another shard produced (monitor
    /// window, governor hysteresis, battery charge, buffered beats and
    /// every counter).  `cfg.seed` / `cfg.journal_id` should already
    /// carry the migrating session's identity (session_manager::
    /// adopt_session presets them from the state).
    session(std::uint64_t id, session_config cfg, core::system_factory factory,
            const session_runtime_state& st);

    std::uint64_t id() const noexcept { return id_; }
    /// Id this session stamps into journal records (== id() unless the
    /// router preset a global one).
    std::uint64_t journal_id() const noexcept { return journal_id_; }
    const std::string& patient_id() const noexcept { return cfg_.patient_id; }
    std::uint64_t seed() const noexcept { return cfg_.seed; }
    util::rng make_rng(std::uint64_t stream) const {
        return util::rng::for_stream(cfg_.seed, stream);
    }

    /// Producer side: enqueue one beat.  Never blocks; returns false when
    /// a reject-policy ring is full (the beat is dropped and counted).
    /// Fires the session's high-water callback on the crossing beat.
    bool ingest(real beat_time_s, real rr_s) noexcept {
        // An extracted session rejects like a full ring: its state has
        // left this shard, so accepting a beat here would lose it.  (The
        // producer is quiesced before extraction; this is the backstop.)
        if (extracted_.load(std::memory_order_relaxed)) return false;
        const bool accepted = ring_.push({beat_time_s, rr_s});
        if (high_water_mark_ != 0) notify_high_water();
        return accepted;
    }

    /// Times the high-water callback has fired (one per congestion
    /// episode; safe to read from any thread).
    std::uint64_t high_water_alarms() const noexcept {
        return high_water_alarms_.load(std::memory_order_relaxed);
    }

    /// Beats waiting in the ring (cheap; the scheduler polls this).
    /// Extracted sessions report none -- the scheduler then never assigns
    /// them, without knowing migration exists.
    bool has_pending() const noexcept {
        return !extracted_.load(std::memory_order_relaxed) && !ring_.empty();
    }

    /// Migration: snapshot the complete run-time state and retire this
    /// session (ring drained into the state; further ingest rejected;
    /// has_pending() false forever).  Caller must hold the manager's
    /// scheduler quiescent (session_manager::extract_session does) and
    /// have stopped this session's producer.  One-shot.
    session_runtime_state extract();
    bool extracted() const noexcept {
        return extracted_.load(std::memory_order_relaxed);
    }

    /// The configuration this session was admitted with (hand it to the
    /// adopting manager together with the extracted state).
    const session_config& session_cfg() const noexcept { return cfg_; }

    // ---- staged drain (cross-session SIMD transform batching) --------
    //
    // Consumer side.  The scheduler pumps each session of a unit until it
    // *stages* a cut window, groups staged windows by analysis system,
    // runs each group through psa_system::analyze_window_batched (mesh
    // FFTs interleaved one per SIMD lane), then finishes every staged
    // window and pumps again.  Beats enter the monitor one at a time and
    // every window is analyzed before the next beat of its session lands,
    // so per-session results -- reports, governor schedule, journal
    // order, battery trace -- are a pure function of the beat stream,
    // bit-identical to a serial streaming_monitor run.

    enum class pump_status {
        staged,  ///< a window is cut and awaiting analysis
        idle,    ///< ring drained, nothing staged: this pass is done
    };

    /// Pop beats until a window stages or the ring empties, folding every
    /// completed window into `acc` (and the local report log when
    /// keep_reports), draining the battery and running the governor at
    /// each window boundary; `completed` counts those windows.  Resumes
    /// report collection after previously finished windows.  Scheduler-
    /// thread only.
    pump_status pump_to_stage(fleet_partial& acc, std::size_t& completed);

    bool has_staged_window() const noexcept { return monitor_.has_staged(); }
    /// The staged window as a batchable job (valid until finish_staged).
    lomb::window_job staged_job() noexcept { return monitor_.staged_job(); }
    /// System currently analyzing this session's windows.  Two sessions
    /// may batch together when their systems run the same (plan-cached)
    /// engine object with equal lomb options -- then either system's
    /// analyze_window_batched performs the other's exact arithmetic.
    const core::psa_system* staged_system() const noexcept {
        return &monitor_.system();
    }
    static bool batch_compatible(const core::psa_system& a,
                                 const core::psa_system& b) noexcept {
        return &a.engine() == &b.engine() &&
               a.config().lomb == b.config().lomb;
    }
    /// Complete the staged window with the job's post-analysis ok flag.
    void finish_staged(bool ok) { monitor_.finish_staged(ok); }

    /// Re-select the analysis mode for a new static distortion budget via
    /// the session's controller (no-op without one; governed sessions
    /// derive their budget from battery state instead).  Takes effect
    /// from the next window.  Scheduler-thread only.
    void set_quality_budget(real qdes_error_pct);

    const core::streaming_monitor& monitor() const noexcept { return monitor_; }
    const core::psa_config& config() const noexcept { return monitor_.config(); }
    const core::quality_governor& governor() const noexcept { return governor_; }
    bool governed() const noexcept { return governor_.runtime_enabled(); }

    std::span<const core::window_report> reports() const noexcept {
        return {reports_.data(), reports_.size()};
    }
    /// Applied governor switches in order (scheduler-thread only; the
    /// serial-replay schedule).
    std::span<const mode_switch_event> switch_log() const noexcept {
        return {switch_log_.data(), switch_log_.size()};
    }

    std::uint64_t beats_ingested() const noexcept { return beats_ingested_; }
    /// Drop/evict counts include the lifetime carried in by an adoption
    /// (the ring itself starts fresh on the new shard).
    std::uint64_t beats_dropped() const noexcept {
        return dropped_carry_ + ring_.dropped();
    }
    std::uint64_t beats_overwritten() const noexcept {
        return overwritten_carry_ + ring_.overwritten();
    }
    /// Beats discarded because they violated the monitor's contract
    /// (non-positive RR, non-monotonic time).  Atomic so the fleet
    /// snapshot can read it while a worker drains.
    std::uint64_t beats_rejected() const noexcept {
        return beats_rejected_.load(std::memory_order_relaxed);
    }
    std::uint64_t windows_completed() const noexcept { return windows_; }

    // Quality columns for fleet snapshots (safe concurrently with drain).
    std::uint64_t mode_switches() const noexcept {
        return switches_.load(std::memory_order_relaxed);
    }
    core::engine_class current_mode() const noexcept {
        return current_mode_.load(std::memory_order_relaxed);
    }
    real battery_fraction() const noexcept {
        return battery_.charge_fraction();
    }
    const energy::battery_state& battery() const noexcept { return battery_; }

private:
    /// Poll completed windows: accumulate, drain battery, run governor.
    std::size_t collect_windows(fleet_partial& acc);

    /// Hand staged beats to the journal in one batched append (no-op when
    /// nothing is staged).  Called before any report record and when a
    /// pump runs dry, so journaled beats always precede the reports they
    /// produced and the stage is empty whenever the session is idle.
    void flush_journal_stage();

    /// Producer-side slow path of ingest(): fire the callback once per
    /// crossing of the high-water mark (a pump that runs dry re-arms it).
    void notify_high_water() noexcept;

    std::uint64_t id_;
    session_config cfg_;
    std::uint64_t journal_id_ = 0;
    core::quality_governor governor_;
    beat_ring ring_;
    core::streaming_monitor monitor_;
    energy::battery_state battery_;
    std::vector<core::window_report> reports_;
    std::vector<mode_switch_event> switch_log_;
    /// Beats popped since the last batched journal append; bounded by the
    /// stage cap in session.cpp, reserved up front when journaling.
    std::vector<journal::beat_event> journal_stage_;
    /// Ring occupancy (in beats) at which the backpressure alarm fires;
    /// 0 when no callback is configured.
    std::size_t high_water_mark_ = 0;
    /// Armed until the mark is crossed; a pump that runs dry re-arms it.
    std::atomic<bool> high_water_armed_{true};
    std::atomic<std::uint64_t> high_water_alarms_{0};
    std::uint64_t beats_ingested_ = 0;
    std::atomic<std::uint64_t> beats_rejected_{0};
    std::uint64_t windows_ = 0;
    std::atomic<std::uint64_t> switches_{0};
    std::atomic<core::engine_class> current_mode_;
    /// Lifetime drop/evict counts carried in by an adoption (the new
    /// ring's own counters start at zero and add on top).
    std::uint64_t dropped_carry_ = 0;
    std::uint64_t overwritten_carry_ = 0;
    /// Set once by extract(); the session is a tombstone afterwards.
    std::atomic<bool> extracted_{false};
};

}  // namespace qpsa::service
