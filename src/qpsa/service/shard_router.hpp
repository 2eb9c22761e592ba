// Shard-aware fleet topology: K session_manager shards behind one
// topology-blind facade.
//
// The router partitions patients across K independent shards by
// consistent hashing on the (first-class) patient_id -- see shard_map --
// and exposes the same ingest/drain/fleet surface as a single
// session_manager, so callers never learn the topology.  A shard is a
// placement, journal and migration boundary, not a thread-pool boundary:
// the router owns one worker pool and one batch_scheduler, and pump()
// drains every shard's ready sessions in a single work-stealing pass
// (each shard's results still merge into its own stats, in the order a
// pass over that shard alone would use).  All shards share one
// plan_cache and therefore the process-wide twiddle memo, so a 4-shard
// fleet running the standard mode mix still builds each engine exactly
// once.
//
// Identity:
//   * session ids are global and dense in admission order -- exactly the
//     ids a single serial manager would have assigned, so code written
//     against session_manager ports unchanged;
//   * per-session stream seeds derive from the *global* id
//     (util::derive_stream_seed(base_seed, global_id)), so a session's
//     random stream is identical under any shard count, K = 1 included;
//   * merged fleet snapshots carry global ids (shard_fleet remaps the
//     per-shard rows before handing bytes or merges out).
//
// Threading contract matches session_manager's: ingest() is lock-free
// and safe concurrently with add_session() and pump().  shard(k).pump()
// stays available (one pass over one shard, on the shared pool) and may
// run concurrently with other shards' pumps and with the router's own
// passes -- the pool's barrier is per pass, and shards never share
// mutable state, which the tsan suite exercises.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "qpsa/service/session_manager.hpp"
#include "qpsa/service/shard_map.hpp"

namespace qpsa::service {

struct router_options {
    /// Shard count (fixed for the router's lifetime; key-movement under
    /// re-sharding is a shard_map property, exercised in its tests).
    std::size_t shards = 1;
    shard_map_options placement;

    /// Per-shard service options.  threads sizes the router's one
    /// worker pool, shared by every shard (0 = hardware concurrency, as
    /// for a lone manager); max_sessions is the per-shard admission
    /// ceiling, and the router's global ceiling is shards * max_sessions
    /// (consistent hashing keeps shard loads near-even, so the fleet
    /// ceiling is realizable, not just nominal).
    service_options shard;

    /// Durability: when non-empty, the router creates the directory and
    /// journals shard k to <journal_dir>/shard-<k>.qpsaj (headers carry
    /// the topology, records carry *global* session ids), and
    /// journal::rebuild_fleet_snapshot(journal_dir) reconstructs fleet()
    /// bit for bit.  Overrides any journal set in `shard`.
    std::string journal_dir;
    /// Writer tuning for the per-shard journals (index/count are set by
    /// the router).
    journal::writer_options journal;
};

class shard_router {
public:
    /// `cache == nullptr` uses the process-wide global_plan_cache();
    /// either way every shard shares the one cache.
    explicit shard_router(router_options opt = {}, plan_cache* cache = nullptr);

    std::size_t shard_count() const noexcept { return shards_.size(); }
    session_manager& shard(std::size_t k) { return *shards_[k]; }
    const session_manager& shard(std::size_t k) const { return *shards_[k]; }
    const shard_map& placement() const noexcept { return map_; }

    /// Admit a patient on the shard its patient_id hashes to; returns the
    /// global session id (dense, admission order).  When cfg.seed == 0 a
    /// stream seed is derived from the global id, so seeds are
    /// topology-independent.
    std::uint64_t add_session(session_config cfg);

    std::size_t session_count() const noexcept {
        return session_count_.load(std::memory_order_acquire);
    }
    session& at(std::uint64_t id);
    const session& at(std::uint64_t id) const;
    /// Shard the session with global id `id` lives on.
    std::size_t shard_of(std::uint64_t id) const;

    /// Producer-side ingest by global session id (lock-free; forwards to
    /// the owning shard).  Unknown ids are rejected like a full ring.
    /// Routes are single 64-bit atomics, so a migration updating one
    /// concurrently is seen either entirely-old or entirely-new, never
    /// torn (beats racing the move land on the tombstone and are
    /// rejected; producers are quiesced for lossless migration).
    bool ingest(std::uint64_t id, real beat_time_s, real rr_s) noexcept {
        if (id >= session_count()) return false;
        const route r =
            unpack_route(routes_[id].load(std::memory_order_acquire));
        return shards_[r.shard]->ingest(r.local, beat_time_s, rr_s);
    }

    /// Live migration, source side: retire the session with global id
    /// `id` on its current shard and return its config + run-time state.
    /// Serialized against add_session, snapshots and other migrations by
    /// the router admission mutex; the caller must have stopped the
    /// session's producer.
    extracted_session extract_session(std::uint64_t id);

    /// Live migration, destination side: resume an extracted session on
    /// the shard `target_shard` (or, without one, wherever the current
    /// map places its patient_id).  The session keeps its global id,
    /// seed and journal identity; the route is swung atomically.
    void adopt_session(const extracted_session& es, std::size_t target_shard);
    void adopt_session(const extracted_session& es);

    /// extract + adopt under one admission-mutex hold: move one session
    /// to an explicit shard.  No-op when it already lives there.
    void migrate_session(std::uint64_t id, std::size_t target_shard);

    /// Grow the fleet to `new_shards` (>= current) and move every session
    /// the consistent-hash map now places elsewhere -- each moved session
    /// resumes bit-identically (shard_map::add_shard moves only the keys
    /// the new shards win).  Producers must be quiesced.  Not available
    /// on journaled routers: the on-disk headers stamp the admission-time
    /// topology.  Serialized against pump(), drain_all() and fleet().
    void reshape(std::size_t new_shards);

    /// One fleet-wide scheduler pass: every shard's ready sessions are
    /// drained together on the router's pool; returns windows completed
    /// fleet-wide.  Each shard's snapshot and journal end up exactly as
    /// after shard(0).pump(), ..., shard(K-1).pump().
    std::size_t pump();
    /// Fleet-wide passes until no shard has buffered ingest.
    std::size_t drain_all();

    /// Engine factory over the shared cache (same as any shard's).
    core::system_factory factory();

    /// One shard's snapshot with session ids remapped to global ids --
    /// the unit of cross-process transport (serialize this, ship it,
    /// deserialize and operator+= on the aggregator).
    fleet_snapshot shard_fleet(std::size_t k) const;
    /// Merged deployment view: shard_fleet(0) += ... += shard_fleet(K-1).
    fleet_snapshot fleet() const;

    /// Shard k's journal writer (nullptr when journaling is off).
    journal::report_writer* journal(std::size_t k) const {
        return shards_[k]->journal();
    }
    /// Flush (and optionally fsync) every shard journal.
    void flush_journals(bool sync = true);
    /// Gracefully close every shard journal (footer + final fsync); the
    /// step between "producers stopped, fleet drained" and "the on-disk
    /// logs equal the live snapshot".  Idempotent.
    void close_journals();

    plan_cache_stats cache_stats() const { return cache_->stats(); }
    /// Size of the one worker pool every shard's passes run on.
    std::size_t worker_count() const noexcept { return pool_.size(); }

private:
    struct route {
        std::uint32_t shard = 0;
        std::uint32_t local = 0;  ///< dense id inside the owning shard
    };

    /// Routes are packed into one u64 (shard high, local low) and stored
    /// as atomics: migration rewrites a live route while ingest() reads
    /// it lock-free, and a 16-byte struct cannot be read untorn.
    static constexpr std::uint64_t pack_route(std::uint32_t shard,
                                              std::uint32_t local) noexcept {
        return (static_cast<std::uint64_t>(shard) << 32) | local;
    }
    static constexpr route unpack_route(std::uint64_t packed) noexcept {
        return {static_cast<std::uint32_t>(packed >> 32),
                static_cast<std::uint32_t>(packed)};
    }

    route route_of(std::uint64_t id) const noexcept {
        return unpack_route(routes_[id].load(std::memory_order_acquire));
    }

    /// Swing one route to a new shard under admit_mu_ (extract on the
    /// old manager, adopt on the new, atomic route publish).
    void move_route_locked(std::uint64_t id, std::size_t target_shard);
    /// One fleet-wide pass; pass_mu_ held.
    std::size_t pass_locked();
    /// shard_fleet(k); admit_mu_ held.
    fleet_snapshot shard_fleet_locked(std::size_t k) const;

    router_options opt_;
    plan_cache* cache_;
    shard_map map_;
    /// The one worker pool every shard's passes run on; declared before
    /// shards_, which hold references to it.
    thread_pool pool_;
    batch_scheduler scheduler_;
    std::vector<std::unique_ptr<session_manager>> shards_;
    /// Serializes fleet-wide passes and reshape(): a pass reads shards_
    /// and must not see a shard appended mid-pass.  Ordered before
    /// admit_mu_ and before every shard's pump_mu_.
    std::mutex pass_mu_;
    /// Pass scratch (under pass_mu_), capacity reused across passes.
    std::vector<drain_source> sources_;
    std::vector<std::unique_lock<std::mutex>> shard_locks_;
    /// Serializes add_session(), migration (extract/adopt/reshape) and
    /// the snapshot id remapping: a fleet read must not observe a
    /// shard-published session whose global route is not out yet (nor a
    /// shard reshape() is still appending), and a migration must not
    /// swing routes mid-remap.  Never taken while shard pump_mu_s are
    /// held (migration takes them beneath it).
    mutable std::mutex admit_mu_;
    /// Fixed-capacity atomic route table (allocated once; a vector of
    /// atomics cannot push_back).
    std::unique_ptr<std::atomic<std::uint64_t>[]> routes_;
    std::size_t route_capacity_ = 0;
    std::atomic<std::size_t> session_count_{0};  ///< published size
};

}  // namespace qpsa::service
