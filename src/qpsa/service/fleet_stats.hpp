// Fleet-wide roll-up of analysis results.
//
// Every window any session completes lands here: op counts and energy
// (priced on the shared node model, nominal and VFS), band-power sums,
// the arrhythmia census, per-engine-kind tallies and the adaptive-QDES
// columns (mode switches, battery state).  Workers do not take a lock per
// window: each batch task accumulates into a private fleet_partial and
// merges it once at the batch barrier, so the one mutex is contended
// per-batch, not per-window.  Snapshots are mergeable (operator+=), which
// is what lets sharded deployments roll K managers up losslessly.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/energy/fleet.hpp"
#include "qpsa/hrv/detector.hpp"
#include "qpsa/service/wire_codec.hpp"

namespace qpsa::journal {
class report_writer;
}

namespace qpsa::service {

/// Wire-format version written by fleet_snapshot::serialize.  Versioning
/// rules: additive layout changes bump this and the deserializer keeps
/// accepting every older version it ever shipped; engine_class_count is
/// recorded in the header, so a snapshot from a build with fewer engine
/// kinds (an older leaf-engine set) loads into the wider table while one
/// with more kinds than the reader knows is rejected loudly.  The field
/// list itself is the column list in wire.cpp, where each column names
/// the version that added it.  History: v1 = PR 5 layout; v2 appends the
/// high-water and journal telemetry columns after ratio_sum; v3 the
/// live-migration columns; v4 the hop-cache columns; v5 the
/// drain-scheduler columns.  Older payloads still load with the missing
/// trailing columns zero.
inline constexpr std::uint16_t fleet_wire_version = 5;

/// Per-engine-kind tally (one slot per core::engine_class).
struct engine_tally {
    std::uint64_t windows = 0;
    std::uint64_t beats = 0;
    real energy_nominal_j = 0.0;

    engine_tally& operator+=(const engine_tally& o) {
        windows += o.windows;
        beats += o.beats;
        energy_nominal_j += o.energy_nominal_j;
        return *this;
    }
    bool operator==(const engine_tally&) const = default;
};

/// Ingest-health alarm for one session: beats the ring rejected on
/// overflow, beats evicted unread (overwrite-oldest rings), and beats the
/// monitor rejected as malformed.
struct session_drop_alarm {
    std::uint64_t session_id = 0;
    std::uint64_t dropped = 0;
    std::uint64_t rejected = 0;
    std::uint64_t overwritten = 0;
    bool operator==(const session_drop_alarm&) const = default;
};

/// Adaptive-QDES state of one governed session: how often its governor
/// has switched modes, which engine kind it is running now, and its
/// node's remaining battery fraction.
struct session_quality {
    std::uint64_t session_id = 0;
    std::uint64_t mode_switches = 0;
    core::engine_class current_mode = core::engine_class::conventional;
    real battery_fraction = 1.0;
    bool operator==(const session_quality&) const = default;
};

/// Consistent snapshot of the fleet tallies.  The summed op counts live
/// in energy.ops (priced and tallied in one place; no second copy that
/// could diverge).
struct fleet_snapshot {
    std::uint64_t windows = 0;
    std::uint64_t beats = 0;
    std::uint64_t arrhythmia_windows = 0;
    energy::fleet_energy_totals energy;

    /// Windows/beats/energy split by the engine kind that produced them.
    std::array<engine_tally, core::engine_class_count> by_engine{};

    /// Ingest-drop roll-up (filled by session_manager::fleet(); plain
    /// fleet_stats snapshots have no ingest visibility and report 0).
    std::uint64_t beats_dropped = 0;
    std::uint64_t beats_rejected = 0;
    std::uint64_t beats_overwritten = 0;
    /// Per-session alarms for every session with a nonzero drop count.
    std::vector<session_drop_alarm> drop_alarms;

    /// Adaptive-QDES roll-up (also filled by session_manager::fleet()):
    /// total governor mode switches, the lowest battery fraction of any
    /// node in the fleet, and per-session quality state for every session
    /// running under a quality policy.
    std::uint64_t mode_switches = 0;
    real battery_fraction_min = 1.0;
    std::vector<session_quality> quality;

    /// Ingest backpressure roll-up: high-water alarm firings across the
    /// fleet.  Like the drop columns this is live-only producer-edge
    /// telemetry (session_manager::fleet() fills it; a journal rebuild
    /// reports zero -- the drain-side log cannot see the ingest edge).
    std::uint64_t high_water_alarms = 0;

    /// Journal telemetry: records appended, framed bytes on disk, fsyncs
    /// issued, torn tails encountered.  Filled from the attached
    /// report_writer by session_manager::fleet() (torn tails by the
    /// recovery scan); zero when no journal is attached.
    std::uint64_t journal_appends = 0;
    std::uint64_t journal_bytes = 0;
    std::uint64_t journal_fsyncs = 0;
    std::uint64_t journal_torn_tails = 0;

    /// Live-migration telemetry: sessions this fleet has shipped out /
    /// adopted (filled by session_manager::fleet()).  In a fully
    /// consistent merged view every out has a matching in.
    std::uint64_t sessions_migrated_in = 0;
    std::uint64_t sessions_migrated_out = 0;

    /// Hop-cache telemetry: reuse hits / misses across the fleet's
    /// monitors and the bytes their caches hold.  Like the drop columns
    /// this is live-only telemetry (session_manager::fleet() reads each
    /// live monitor's cache; extracted sessions and journal rebuilds
    /// report zero).  Counts add under operator+=; hop_bytes is a sum of
    /// point-in-time footprints, not a monotonic counter.
    std::uint64_t hop_hits = 0;
    std::uint64_t hop_misses = 0;
    std::uint64_t hop_bytes = 0;

    /// Drain-scheduler telemetry: windows completed on stolen drain
    /// units, and the SIMD lane-fill tallies of the staged drains
    /// (lane_fill = lane_slots_filled / lane_slots_offered).  Unlike the
    /// drop columns these ride the per-unit fleet_partial accumulators,
    /// so they land in the journaled stats_delta stream and a recovery
    /// rebuild reproduces them exactly.  Lossless under operator+=.  The
    /// lane columns are deterministic for a given beat stream;
    /// windows_stolen counts scheduling events and so depends on the
    /// steal interleaving by design (the journal records what happened --
    /// cross-run comparisons must normalize it; a serial pool reports 0).
    std::uint64_t windows_stolen = 0;
    std::uint64_t lane_slots_filled = 0;
    std::uint64_t lane_slots_offered = 0;

    // Sums over windows; use the mean_* helpers for averages.
    real lf_sum = 0.0;
    real hf_sum = 0.0;
    real ratio_sum = 0.0;

    const engine_tally& engine(core::engine_class c) const {
        return by_engine[static_cast<std::size_t>(c)];
    }

    real mean_lf() const { return windows ? lf_sum / real(windows) : 0.0; }
    real mean_hf() const { return windows ? hf_sum / real(windows) : 0.0; }
    real mean_ratio() const {
        return windows ? ratio_sum / real(windows) : 0.0;
    }
    real arrhythmia_fraction() const {
        return windows ? real(arrhythmia_windows) / real(windows) : 0.0;
    }

    /// Lossless merge of another (disjoint) fleet's tallies -- the
    /// sharding primitive: shard snapshots sum into one deployment view
    /// (counts add, battery_fraction_min takes the min, per-session lists
    /// concatenate; each column's rule sits in wire.cpp's column list).
    /// Session ids are per-shard, so callers merging shards that share an
    /// id space must namespace them first (shard_router::shard_fleet
    /// does).
    fleet_snapshot& operator+=(const fleet_snapshot& o);

    bool operator==(const fleet_snapshot&) const = default;

    /// Versioned little-endian binary encoding -- the cross-process
    /// transport primitive: a shard process serializes its snapshot, the
    /// aggregator deserializes and operator+=s it, and the result is
    /// bit-identical to an in-process merge (doubles travel as raw IEEE
    /// bits, so the round trip is lossless).
    std::vector<std::uint8_t> serialize() const {
        return serialize(fleet_wire_version);
    }
    /// Serialize as an explicit (older) wire version -- the layout that
    /// version actually shipped, trailing columns omitted.  Lets tests
    /// and mixed-version deployments exercise genuine version skew.
    std::vector<std::uint8_t> serialize(std::uint16_t version) const;
    /// Parse bytes produced by serialize(); throws wire_error on
    /// malformed input.  Columns a payload's (older) version predates
    /// load as zero.  Implemented in wire.cpp.
    static fleet_snapshot deserialize(std::span<const std::uint8_t> bytes);
};

class fleet_stats;

/// Single-threaded window accumulator: a batch task prices and folds its
/// windows here (no lock) and merges the total into fleet_stats once at
/// the batch barrier.  Construction is allocation-free (the embedded
/// snapshot's vectors start empty), so the scheduler can stack one per
/// task without touching the per-window heap budget.
class fleet_partial {
public:
    /// Price one completed window and fold it in; returns the window's
    /// nominal PSA energy (the session's battery-drain feed).
    real add_report(const core::window_report& rep);

    /// Drain-scheduler telemetry fold-in (batch_scheduler): lane-fill
    /// tallies of this unit's batched analyze calls, and its completed
    /// windows when a thief drained it.  Riding the partial puts these
    /// columns in the journaled stats_delta stream, so a crash-recovery
    /// rebuild reproduces them bit-identically like every other column.
    void add_lane_fill(std::uint64_t filled, std::uint64_t offered) noexcept {
        snap_.lane_slots_filled += filled;
        snap_.lane_slots_offered += offered;
    }
    void add_stolen_windows(std::uint64_t n) noexcept {
        snap_.windows_stolen += n;
    }

    const fleet_snapshot& data() const noexcept { return snap_; }
    bool empty() const noexcept {
        return snap_.windows == 0 && snap_.lane_slots_offered == 0;
    }

private:
    friend class fleet_stats;
    explicit fleet_partial(
        const energy::fleet_energy_accumulator* pricer) noexcept
        : pricer_(pricer) {}

    const energy::fleet_energy_accumulator* pricer_;
    fleet_snapshot snap_;
};

class fleet_stats {
public:
    /// `vfs_deadline_s`: per-window real-time budget used for the VFS
    /// energy column (typically the monitor hop); 0 disables VFS pricing.
    explicit fleet_stats(energy::node_model node = energy::node_model{},
                         real vfs_deadline_s = 0.0);

    /// A fresh per-task accumulator bound to this fleet's pricer.
    fleet_partial make_partial() const noexcept {
        return fleet_partial(&pricer_);
    }

    /// Fold a batch's partial into the shared tallies (one lock per
    /// batch; the per-window path never touches the mutex).
    void merge(const fleet_partial& partial);

    /// Convenience single-window path for off-pool callers (tests, tools
    /// pricing a window inline); the batch path goes through partials.
    void add_report(const core::window_report& rep);

    /// Attach a journal sink: every merged partial is also appended to
    /// `j` as a stats_delta record, under the stats mutex and therefore
    /// in merge order -- the ordering the bit-identical crash-recovery
    /// rebuild replays.  Wire it up before pumping (the setter itself is
    /// not synchronized against concurrent merges); nullptr detaches.
    void set_journal(journal::report_writer* j) noexcept { journal_ = j; }

    fleet_snapshot snapshot() const;
    const energy::node_model& node() const noexcept { return pricer_.model(); }

private:
    /// Used for (lock-free, const) pricing only; all totals -- energy
    /// included -- live in agg_ under the one mutex so snapshots are
    /// consistent across columns.
    energy::fleet_energy_accumulator pricer_;
    mutable std::mutex mu_;
    fleet_snapshot agg_;
    journal::report_writer* journal_ = nullptr;
};

}  // namespace qpsa::service
