// The multi-patient HRV analysis engine: N concurrent sessions, one
// shared plan cache, a fixed worker pool and fleet-wide accounting.
//
// A manager holds no process-global state of its own -- stats, energy
// pricer and scheduler are per-instance, the pool is its own unless one
// is passed in, and stream seeds can be namespaced (stream_offset) -- so
// K managers compose into one sharded fleet over a shared plan cache and
// a shared worker pool (see shard_router).
//
// Threading contract:
//   * admission -- add_session() is mutex-guarded and publishes the new
//     session with a release store, so it may run concurrently with
//     ingest() and pump(); session storage is reserved up front
//     (service_options::max_sessions) and never reallocates.  A session
//     admitted mid-pass joins the next scheduler pass;
//   * ingest plane -- one producer thread per session may call ingest()
//     at any time, including while pump() runs;
//   * analysis plane -- pump() dispatches batches onto the pool and
//     blocks until the pass completes; destruction must not be
//     concurrent with any of the above.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "qpsa/journal/report_writer.hpp"
#include "qpsa/service/batch_scheduler.hpp"
#include "qpsa/service/fleet_stats.hpp"
#include "qpsa/service/plan_cache.hpp"
#include "qpsa/service/session.hpp"
#include "qpsa/service/session_state.hpp"
#include "qpsa/service/thread_pool.hpp"

namespace qpsa::service {

struct service_options {
    /// Worker threads of the manager's own pool (0 = hardware
    /// concurrency); unused when the manager is built over a shared pool.
    std::size_t threads = 0;
    scheduler_options scheduler;

    /// Node model used to price every completed window.
    energy::node_model node = energy::node_model{};
    /// Per-window real-time budget for the VFS energy column; 0 disables
    /// (a deployment would pass the monitor hop interval).
    real vfs_deadline_s = 0.0;

    /// Base seed from which per-session random streams are derived.
    std::uint64_t base_seed = 0x9b4e5eedULL;
    /// Offset added to the local session id when deriving stream seeds:
    /// K standalone managers over one base seed partition a single
    /// stream space with disjoint offset ranges instead of all starting
    /// at stream 0 (shard_router instead pre-assigns seeds from global
    /// ids, which subsumes this).
    std::uint64_t stream_offset = 0;

    /// Admission ceiling.  Session storage is reserved once so the
    /// lock-free ingest path can index it while add_session() runs
    /// (8 bytes per reserved slot).
    std::size_t max_sessions = 1 << 16;

    /// Durability: when set, every admitted session journals its beats
    /// and window reports here, fleet_stats journals its merged batch
    /// partials, and fleet() surfaces the writer's counters.  Shared
    /// ownership so a caller can keep scanning the log after the manager
    /// dies (shard_router owns one writer per shard).
    std::shared_ptr<journal::report_writer> journal;
};

class session_manager {
public:
    /// `cache == nullptr` uses the process-wide global_plan_cache().
    /// `pool == nullptr` gives the manager its own pool of opt.threads
    /// workers; otherwise passes run on `pool`, which must outlive the
    /// manager and may be shared with other managers (shard_router).
    explicit session_manager(service_options opt = {},
                             plan_cache* cache = nullptr,
                             thread_pool* pool = nullptr);

    /// Register a patient; returns the session id (dense, starting at 0).
    /// When cfg.seed == 0 a per-session stream seed is derived from the
    /// manager base seed and the id.
    std::uint64_t add_session(session_config cfg);

    std::size_t session_count() const noexcept {
        return session_count_.load(std::memory_order_acquire);
    }
    session& at(std::uint64_t id);
    const session& at(std::uint64_t id) const;

    /// Producer-side ingest for session `id` (lock-free, never blocks).
    /// Unknown ids are rejected like a full ring rather than faulting.
    /// Safe concurrently with add_session(): the count is published with
    /// release ordering after the slot is fully constructed, and the
    /// reserved storage never moves.
    bool ingest(std::uint64_t id, real beat_time_s, real rr_s) noexcept {
        if (id >= session_count()) return false;
        return sessions_[id]->ingest(beat_time_s, rr_s);
    }

    /// One scheduler pass over the fleet; returns windows completed.
    /// Serialized internally: concurrent callers (e.g. a pumper thread
    /// racing a final drain_all()) queue up rather than dispatching the
    /// same session to two workers.
    std::size_t pump();

    /// Live migration, source side: retire session `id` and return its
    /// config + full run-time state.  Takes the pump mutex (no worker is
    /// mid-drain on the session) then the admit mutex; the caller must
    /// have stopped the session's producer first.  The slot remains as a
    /// tombstone -- ids stay dense, ingest to it is rejected, the
    /// scheduler and fleet() skip it.
    extracted_session extract_session(std::uint64_t id);

    /// Live migration, destination side: admit a session that continues
    /// from an extracted state.  Seed and journal id are taken from the
    /// state (not re-derived), so the random stream and journal identity
    /// survive the move.  Returns the new local id.
    std::uint64_t adopt_session(session_config cfg,
                                const session_runtime_state& st);

    /// Sessions moved out of / into this manager (fleet() columns).
    std::uint64_t migrations_out() const noexcept {
        return migrations_out_.load(std::memory_order_relaxed);
    }
    std::uint64_t migrations_in() const noexcept {
        return migrations_in_.load(std::memory_order_relaxed);
    }

    /// Pump until no session has buffered ingest (the batch barrier makes
    /// this terminate once producers stop).
    std::size_t drain_all();

    /// The engine factory sessions are built over -- exposed so callers
    /// can build matching serial systems from the same cache.
    core::system_factory factory();

    /// Fleet tallies plus the ingest-health columns (per-session drop and
    /// reject counts folded in from the live sessions).  Safe to call
    /// concurrently with ingest and pump.
    fleet_snapshot fleet() const;
    plan_cache_stats cache_stats() const { return cache_->stats(); }
    std::size_t worker_count() const noexcept { return pool_.size(); }
    /// The attached journal writer, if any.
    journal::report_writer* journal() const noexcept {
        return opt_.journal.get();
    }

private:
    /// shard_router drains every shard in one pass: it takes each
    /// shard's pump_mu_ and hands source() to its own scheduler.
    friend class shard_router;

    /// This manager's sessions and stats as one scheduler source.
    drain_source source() noexcept {
        return {{sessions_.data(), session_count()}, stats_};
    }
    /// Whether any session holds buffered ingest.
    bool has_pending() const noexcept;

    service_options opt_;
    plan_cache* cache_;
    std::unique_ptr<thread_pool> own_pool_;  ///< null over a shared pool
    thread_pool& pool_;
    batch_scheduler scheduler_;
    fleet_stats stats_;
    std::mutex admit_mu_;  ///< serializes add_session()
    std::mutex pump_mu_;   ///< serializes scheduler passes
    std::vector<std::unique_ptr<session>> sessions_;  ///< reserved, no realloc
    std::atomic<std::size_t> session_count_{0};       ///< published size
    std::atomic<std::uint64_t> migrations_out_{0};
    std::atomic<std::uint64_t> migrations_in_{0};
};

}  // namespace qpsa::service
