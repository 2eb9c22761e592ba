#include "qpsa/service/session_manager.hpp"

#include <algorithm>

namespace qpsa::service {

session_manager::session_manager(service_options opt, plan_cache* cache,
                                 thread_pool* pool)
    : opt_(opt),
      cache_(cache != nullptr ? cache : &global_plan_cache()),
      own_pool_(pool == nullptr ? std::make_unique<thread_pool>(opt.threads)
                                : nullptr),
      pool_(pool != nullptr ? *pool : *own_pool_),
      scheduler_(pool_, opt.scheduler),
      stats_(opt.node, opt.vfs_deadline_s) {
    QPSA_EXPECTS(opt_.max_sessions >= 1);
    // Reserved once: ingest() indexes this storage without a lock, so it
    // must never reallocate while sessions are being admitted.
    sessions_.reserve(opt_.max_sessions);
    stats_.set_journal(opt_.journal.get());
}

core::system_factory session_manager::factory() {
    plan_cache* cache = cache_;
    return [cache](const core::psa_config& cfg) {
        return cache->system_for(cfg);
    };
}

std::uint64_t session_manager::add_session(session_config cfg) {
    std::lock_guard<std::mutex> lock(admit_mu_);
    QPSA_EXPECTS(sessions_.size() < opt_.max_sessions);
    const std::uint64_t id = sessions_.size();
    if (cfg.seed == 0)
        cfg.seed =
            util::derive_stream_seed(opt_.base_seed, opt_.stream_offset + id);
    if (opt_.journal != nullptr && cfg.journal == nullptr)
        cfg.journal = opt_.journal.get();
    const core::monitor_options monitor_opt = cfg.monitor;
    sessions_.push_back(
        std::make_unique<session>(id, std::move(cfg), factory()));
    // Admission-ordered session_meta records (still under admit_mu_, so
    // the journal's meta order is its id order -- the order a recovery
    // scan rebuilds the per-session quality columns in, matching
    // fleet()).  current_mode() before any window is the initial mode.
    if (opt_.journal != nullptr) {
        const session& s = *sessions_.back();
        opt_.journal->append_session_meta({s.journal_id(), s.seed(),
                                           monitor_opt, s.governed(),
                                           s.current_mode(), s.patient_id()});
    }
    // Publish after the slot is fully constructed; ingest()/pump() pair
    // this with an acquire load.
    session_count_.store(sessions_.size(), std::memory_order_release);
    return id;
}

session& session_manager::at(std::uint64_t id) {
    QPSA_EXPECTS(id < session_count());
    return *sessions_[id];
}

const session& session_manager::at(std::uint64_t id) const {
    QPSA_EXPECTS(id < session_count());
    return *sessions_[id];
}

std::size_t session_manager::pump() {
    // One pass at a time: overlapping passes would hand the same session
    // to two workers, violating the single-drainer contract.
    std::lock_guard<std::mutex> lock(pump_mu_);
    const drain_source src = source();
    return scheduler_.run_once({&src, 1});
}

extracted_session session_manager::extract_session(std::uint64_t id) {
    // Quiesce the analysis plane first (no worker is mid-drain on any
    // session while pump_mu_ is held), then freeze admission so the id
    // space is stable while the tombstone is cut.
    std::scoped_lock lock(pump_mu_, admit_mu_);
    QPSA_EXPECTS(id < sessions_.size());
    session& s = *sessions_[id];
    QPSA_EXPECTS(!s.extracted());
    extracted_session out;
    out.config = s.session_cfg();
    // The source shard's journal stays behind; the adopting manager wires
    // its own (adopt_session overrides both journal fields anyway).
    out.config.journal = nullptr;
    out.state = s.extract();
    migrations_out_.fetch_add(1, std::memory_order_relaxed);
    if (opt_.journal != nullptr)
        opt_.journal->append_migration(
            {out.state.global_id, journal::migration_direction::out,
             s.battery_fraction(), s.mode_switches(), s.current_mode()});
    return out;
}

std::uint64_t session_manager::adopt_session(session_config cfg,
                                             const session_runtime_state& st) {
    std::lock_guard<std::mutex> lock(admit_mu_);
    QPSA_EXPECTS(sessions_.size() < opt_.max_sessions);
    const std::uint64_t id = sessions_.size();
    // Identity travels with the state: seed (== random stream position)
    // and the fleet-wide journal id are never re-derived on adoption.
    cfg.seed = st.seed;
    cfg.journal_id = st.global_id;
    cfg.journal = opt_.journal.get();
    const core::monitor_options monitor_opt = cfg.monitor;
    sessions_.push_back(
        std::make_unique<session>(id, std::move(cfg), factory(), st));
    const session& s = *sessions_.back();
    if (opt_.journal != nullptr) {
        // Meta first (the reader's session table), then the migration
        // checkpoint carrying the restored quality columns -- what a
        // rebuild reports for this session until its first post-adopt
        // window.  The meta's mode is the *restored* mode for the same
        // reason.
        opt_.journal->append_session_meta({s.journal_id(), s.seed(),
                                           monitor_opt, s.governed(),
                                           s.current_mode(), s.patient_id()});
        opt_.journal->append_migration(
            {s.journal_id(), journal::migration_direction::in,
             s.battery_fraction(), s.mode_switches(), s.current_mode()});
    }
    migrations_in_.fetch_add(1, std::memory_order_relaxed);
    session_count_.store(sessions_.size(), std::memory_order_release);
    return id;
}

fleet_snapshot session_manager::fleet() const {
    fleet_snapshot snap = stats_.snapshot();
    // Ingest-health and adaptive-QDES columns come from the sessions
    // themselves (the ring counts drops where they happen; battery and
    // switch counts live on the session); every counter read here is an
    // atomic, so this is safe against concurrent producers and workers.
    const std::size_t n = session_count();
    for (std::size_t i = 0; i < n; ++i) {
        const session& s = *sessions_[i];
        // Tombstones of migrated-out sessions: their columns travelled
        // with the state and are reported by the adopting shard; counting
        // them here too would double the merged view.
        if (s.extracted()) continue;
        const std::uint64_t dropped = s.beats_dropped();
        const std::uint64_t rejected = s.beats_rejected();
        const std::uint64_t overwritten = s.beats_overwritten();
        snap.beats_dropped += dropped;
        snap.beats_rejected += rejected;
        snap.beats_overwritten += overwritten;
        if (dropped > 0 || rejected > 0 || overwritten > 0)
            snap.drop_alarms.push_back({s.id(), dropped, rejected, overwritten});

        const std::uint64_t switches = s.mode_switches();
        const real charge = s.battery_fraction();
        snap.mode_switches += switches;
        snap.battery_fraction_min = std::min(snap.battery_fraction_min, charge);
        if (s.governed())
            snap.quality.push_back(
                {s.id(), switches, s.current_mode(), charge});

        snap.high_water_alarms += s.high_water_alarms();

        // Hop-cache telemetry is live-only by design: an extracted
        // session's cache was dropped with it, and the adopting shard
        // reports the (rebuilt) cache from its side.
        const lomb::hop_cache& hc = s.monitor().hop_cache();
        snap.hop_hits += hc.hits();
        snap.hop_misses += hc.misses();
        snap.hop_bytes += hc.bytes();
    }
    if (opt_.journal != nullptr) {
        const journal::writer_counters c = opt_.journal->counters();
        snap.journal_appends += c.appends;
        snap.journal_bytes += c.bytes;
        snap.journal_fsyncs += c.fsyncs;
    }
    snap.sessions_migrated_in += migrations_in();
    snap.sessions_migrated_out += migrations_out();
    // Drain-scheduler telemetry (windows_stolen, lane_slots_*) needs no
    // fill-in here: it rides the per-unit partials into stats_, so the
    // base snapshot already carries it -- journaled and rebuildable like
    // every other drain-side column.
    return snap;
}

bool session_manager::has_pending() const noexcept {
    const std::size_t n = session_count();
    for (std::size_t i = 0; i < n; ++i)
        if (sessions_[i]->has_pending()) return true;
    return false;
}

std::size_t session_manager::drain_all() {
    std::size_t total = 0;
    for (;;) {
        total += pump();
        if (!has_pending()) return total;
    }
}

}  // namespace qpsa::service
