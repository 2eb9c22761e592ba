// Batch scheduler: drains ready sessions across the fleet.
//
// Each pass scans one or more drain sources (a lone manager's fleet, or
// every shard of a router) for sessions with buffered ingest, orders each
// source's ENTIRE ready set by engine identity, cuts it into engine-pure
// drain units and executes the units of all sources via one set of
// per-worker work-stealing deques, so stealing balances across shards
// too.  Every unit
// runs the staged lockstep drain (session::pump_to_stage), the one drain
// path.  A session is
// always drained whole by a single worker, so its windows complete in
// ingest order and its monitor state is never touched by two threads --
// parallelism comes from running different patients on different workers,
// which is safe because all heavy analysis state (FFT engines, twiddle
// tables) is shared immutably via the plan cache.
//
// Fleet-wide lane aggregation: because units are cut inside engine groups
// (never across them), the staged lockstep drain fills SIMD lane groups
// from anywhere in the fleet that runs the same plan -- not just from
// whichever sessions landed in one fixed slice.  The fleet_snapshot
// columns lane_slots_filled / lane_slots_offered measure exactly this.
//
// Work stealing: units are dealt contiguously to per-worker deques
// (work_deque.hpp); a worker drains its own range in index order and
// steals from the back of a neighbour's when it runs dry, so one slow
// whole-window estimator no longer idles the rest of the pool at a batch
// barrier.  Determinism: units are cut per source (the unit size is
// computed from that source's own ready count), and per-unit
// fleet_partial accumulators are merged at the pass barrier into their
// source's fleet_stats, source by source and in UNIT INDEX order within a
// source -- session-id order within each engine group -- never in
// completion order.  A source's partition and merge sequence are thus
// exactly those of a pass over that source alone, so fleet snapshots,
// journal stats_delta ordering and replay are bit-identical for any
// worker count, any steal interleaving and any grouping of sources into
// passes.  (windows_stolen is the one exception by
// design: it counts scheduling events, not analysis results.  It still
// travels in the journaled partials -- a rebuild reproduces the recorded
// value -- but cross-run comparisons must normalize it.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qpsa/service/fleet_stats.hpp"
#include "qpsa/service/session.hpp"
#include "qpsa/service/thread_pool.hpp"
#include "qpsa/service/work_deque.hpp"

namespace qpsa::service {

struct scheduler_options {
    /// Sessions per drain unit.  0 (the default) sizes units adaptively:
    /// clamp(ready / 16, max(16, 4 * simd lanes), 128), `ready` being
    /// one drain source's ready count.  The floor keeps a unit wide
    /// enough to fill several SIMD lane groups from one engine run, the
    /// ready/16 shape yields ~16 units per source and pass for the deques
    /// to balance, and the cap bounds the latency cost of a steal
    /// arriving late.  Deliberately independent of the worker count and
    /// of the other sources in a pass, so the unit partition -- and with
    /// it every float merge order -- is identical for any pool size and
    /// any grouping of shards into passes.  An explicit value pins the
    /// unit size (tests use small units to deal many per pass).
    std::size_t batch_size = 0;
};

/// One session population a pass drains, and the fleet_stats its
/// results merge into (a lone manager's fleet, or one shard of a router).
struct drain_source {
    std::span<const std::unique_ptr<session>> sessions;
    fleet_stats& fleet;
};

class batch_scheduler {
public:
    batch_scheduler(thread_pool& pool, scheduler_options opt = {});

    /// One pass: dispatch every session with pending ingest in any of
    /// `sources`, wait for the pass barrier, merge each source's results
    /// into its own fleet_stats and return the number of windows
    /// completed across all sources.  Callers serialize passes over one
    /// scheduler and over one source (session_manager::pump_mu_), so the
    /// pass scratch below is reused without locking.
    std::size_t run_once(std::span<const drain_source> sources);

private:
    struct ready_entry {
        std::size_t engine_order;  ///< engine-key hash (grouping key)
        session* s;
    };

    /// One engine-pure slice of the pass's ready set: drained whole by
    /// exactly one worker, its results merged at the pass barrier in
    /// unit index order.
    struct drain_unit {
        std::uint32_t begin;  ///< range in ready_
        std::uint32_t end;
        std::uint32_t source;  ///< index into the pass's sources
        std::size_t windows;
        fleet_partial partial;  ///< results + scheduler telemetry columns
    };

    /// Append `src`'s ready sessions to ready_ and its units to units_.
    void cut_units(const drain_source& src, std::uint32_t source);
    void run_worker(std::size_t self);
    void run_unit(drain_unit& unit, bool stolen);

    /// Staged lockstep drain of one unit; runs on a pool worker.  Returns
    /// windows completed; the lane-fill tallies of every batched analyze
    /// call fold into `partial`.
    static std::size_t drain_batch_staged(std::span<const ready_entry> batch,
                                          fleet_partial& partial);

    thread_pool& pool_;
    scheduler_options opt_;
    std::vector<ready_entry> ready_;  ///< pass scratch, capacity reused
    std::vector<drain_unit> units_;   ///< pass scratch, capacity reused
    std::vector<work_deque> deques_;  ///< one per pool worker
};

}  // namespace qpsa::service
