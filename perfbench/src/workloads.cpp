// The three workloads of the fleet benchmark, all closed loops.
//
//   replay_mixed    one session_manager, the ten-kind scheduler mix.
//                   Engines and staged lane batching do nearly all the
//                   work; hop cache, router, journal and net are bypassed.
//   ward_replay     one session_manager, more sessions, the hop-aligned
//                   mix (Lagrange extirpolation, hop cache), a quarter of
//                   the sessions governed down the conventional -> Q15 ->
//                   pruned ladder by small batteries, and a pump after
//                   every few sessions' chunks, so each pass finds only a
//                   few ready windows and per-pass overhead shows.
//   durable_sharded a K = 4 shard_router journaling to disk; every pass
//                   ships each shard's snapshot through the wire format
//                   and a net frame, as an aggregator does.
//
// Each workload runs in rounds: a fresh manager (or router) over one warm
// plan cache streams the whole cohort, the first minutes of every record
// untimed so per-session arenas and caches reach steady state.  Every
// round replays the same records, so one serial reference checks them
// all; round 0 warms the process and is verified but not measured.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common.hpp"
#include "probe.hpp"
#include "qpsa/journal/report_reader.hpp"
#include "qpsa/net/frame.hpp"
#include "qpsa/service/plan_cache.hpp"
#include "qpsa/service/session_manager.hpp"
#include "qpsa/service/shard_router.hpp"
#include "qpsa/simd/isa.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- shapes

constexpr std::size_t chunk_beats = 64;   ///< ingest chunk per session
constexpr double warm_record_s = 240.0;   ///< untimed prefix of each record
constexpr std::size_t setup_reps_per_round = 3;
constexpr std::size_t min_rounds = 5;     ///< round 0 + two per trace arm
constexpr std::size_t router_shards = 4;

/// ward_replay: sessions whose chunks are ingested between two pumps,
/// and the governed share.
constexpr std::size_t ward_pump_group = 64;
constexpr std::size_t ward_governed_every = 4;
/// Battery drain per window of a governed session (sleep floor +
/// acquisition + radio + PSA, measured), used to size the batteries so the
/// ladder is walked mid-record.
constexpr double ward_window_j = 2.8e-4;

struct shape {
    std::size_t sessions;
    double record_s;
};

shape default_shape(const std::string& w) {
    if (w == "replay_mixed") return {512, 1800.0};
    if (w == "ward_replay") return {1024, 1800.0};
    return {512, 1800.0};  // durable_sharded
}

std::size_t hw_threads() {
    return std::max(1u, std::thread::hardware_concurrency());
}

// ------------------------------------------------------------ accounting

/// Everything a workload measures; metric assembly reads only this.
struct tally {
    // end to end
    std::vector<double> setup_s;
    std::vector<double> windows_per_s;      ///< per round
    std::vector<double> cpu_ms_per_window;  ///< per round
    std::vector<double> latency_ms;  ///< pooled, for the report notes
    /// Per round: the latency median and p99 of the windows timed there.
    /// The reported metrics are medians of these, so one stalled second on
    /// a shared host does not decide a run's tail.
    std::vector<double> lat_p50;
    std::vector<double> lat_p99;
    // service
    std::vector<double> plan_build_ms;
    std::vector<double> pass_ms;
    double measured_wall_s = 0.0;
    double pump_s = 0.0;
    std::uint64_t passes = 0;
    std::uint64_t windows = 0;
    std::uint64_t allocs = 0;
    std::uint64_t rejected = 0;
    std::uint64_t traced_beats = 0;
    std::uint64_t round_windows = 0;  ///< windows of one whole round
    std::uint64_t lane_filled = 0;
    std::uint64_t lane_offered = 0;
    std::uint64_t stolen = 0;
    std::uint64_t snapshot_windows = 0;
    double cache_hit_rate_warm = 0.0;
    double shard_skew = 0.0;
    double snapshot_bytes = 0.0;
    std::size_t workers = 0;
    // core / lomb / energy
    std::uint64_t mode_switches = 0;
    std::uint64_t hop_hits = 0;
    std::uint64_t hop_misses = 0;
    double hop_bytes = 0.0;
    double energy_j = 0.0;
    // journal
    double journal_bytes_per_window = 0.0;
    double journal_appends_per_window = 0.0;
    double journal_fsyncs = 0.0;
    std::vector<double> close_ms;
    std::vector<double> recovery_s;
    std::vector<double> rebuild_mb_per_s;
    // trace arms: cpu seconds and windows, [0] untraced, [1] traced
    double arm_cpu[2] = {0.0, 0.0};
    std::uint64_t arm_windows[2] = {0, 0};
};

double warm_hit_rate(const qs::plan_cache_stats& cs) {
    // Every entry's first lookup is a compulsory miss.
    const std::uint64_t warm =
        cs.hits + cs.misses - std::min<std::uint64_t>(cs.entries, cs.misses);
    return warm > 0 ? static_cast<double>(cs.hits) / static_cast<double>(warm)
                    : 1.0;
}

/// Summed cold engine builds of a mix on an empty plan cache.
double plan_build_ms(const std::vector<qc::psa_config>& cfgs) {
    qs::plan_cache cache;
    const double t0 = wall_s();
    for (const auto& cfg : cfgs) cache.engine_for(cfg);
    return (wall_s() - t0) * 1e3;
}

/// Set-up cost, setup_reps_per_round times; called before every round so
/// the samples span the whole run rather than one moment of a shared
/// host.  Each time: the engines built cold on an empty plan cache
/// (service.plan_build_ms), then admit(cache) -- constructing a fleet over
/// another empty cache and admitting every session, returning the seconds
/// that took (setup_s).
template <typename Admit>
void measure_setup(const std::vector<qc::psa_config>& engines, tally& t,
                   const Admit& admit) {
    for (std::size_t r = 0; r < setup_reps_per_round; ++r) {
        t.plan_build_ms.push_back(plan_build_ms(engines));
        qs::plan_cache cold;
        t.setup_s.push_back(admit(cold));
    }
}

struct names {
    std::uint32_t round, ingest, pump, snapshot, wire_encode, frame_encode,
        frame_decode, wire_decode_merge, close, rebuild;
    explicit names(tracer& t)
        : round(t.intern("loadgen.round")),
          ingest(t.intern("service.ingest")),
          pump(t.intern("service.pump")),
          snapshot(t.intern("service.fleet_snapshot")),
          wire_encode(t.intern("service.wire_encode")),
          frame_encode(t.intern("net.frame_encode")),
          frame_decode(t.intern("net.frame_decode")),
          wire_decode_merge(t.intern("service.wire_decode_merge")),
          close(t.intern("journal.close")),
          rebuild(t.intern("journal.rebuild")) {}
};

// ------------------------------------------------------- closed loops

qs::session_config session_cfg(const std::string& patient,
                               const qc::psa_config& analysis) {
    qs::session_config cfg;
    cfg.patient_id = patient;
    cfg.analysis = analysis;
    cfg.monitor = paper_monitor();
    // Rings never fill (each pass drains every ring): a rejected beat
    // would count as dropped and break the journal rebuild identity.
    cfg.ingest_capacity = 1024;
    return cfg;
}

/// Session configs of a cohort: session i runs row i % rows.  With a
/// ladder, every ward_governed_every-th session instead starts on the
/// first row and is governed down the ladder by a battery sized so it
/// reaches the Q15 boundary (80 % charge) about a quarter into its record
/// and the pruned one (30 %) near its end: capacity = 0.85 / 0.7 of the
/// drain over the whole record.
std::vector<qs::session_config> cohort_configs(
    const cohort& co, const std::vector<mix_row>& mix,
    const std::shared_ptr<const qc::quality_controller>& ladder) {
    const double record_windows =
        (co.records.front().duration_s() - 120.0) / 60.0 + 1.0;
    const double capacity_j = ward_window_j * record_windows * 0.85 / 0.7;
    std::vector<qs::session_config> cfgs;
    cfgs.reserve(co.records.size());
    for (std::size_t i = 0; i < co.records.size(); ++i) {
        const bool governed =
            ladder && i % ward_governed_every == ward_governed_every - 1;
        auto cfg = session_cfg(co.patient_ids[i],
                               governed ? mix.front().cfg : mix[i % mix.size()].cfg);
        if (governed) {
            cfg.quality.controller = ladder;
            cfg.quality.governed = true;
            cfg.quality.governor.reselect_every = 1;
            cfg.quality.governor.min_dwell = 2;
            cfg.quality.governor.switch_margin = 0.02;
            cfg.quality.governor.budget_empty_pct = 10.0;
            cfg.battery.capacity_j = capacity_j;
        }
        cfgs.push_back(std::move(cfg));
    }
    return cfgs;
}

/// Every engine a mix (and its ladder's modes) builds.
std::vector<qc::psa_config> mix_engines(
    const std::vector<mix_row>& mix,
    const std::shared_ptr<const qc::quality_controller>& ladder) {
    std::vector<qc::psa_config> cfgs;
    for (const auto& row : mix) cfgs.push_back(row.cfg);
    if (ladder)
        for (const auto& prof : ladder->profiles())
            cfgs.push_back(prof.apply_to(mix.front().cfg));
    return cfgs;
}

/// The aggregator round trip of one pass: every shard's snapshot is
/// serialized, framed as a net snapshot message, decoded and merged.
qs::fleet_snapshot aggregate(const qs::shard_router& router, tracer& tr,
                             const names& nm, double& bytes_out) {
    qs::fleet_snapshot merged;
    double bytes = 0.0;
    for (std::size_t k = 0; k < router.shard_count(); ++k) {
        qs::fleet_snapshot snap;
        {
            tracer::scope s(tr, nm.snapshot, k);
            snap = router.shard_fleet(k);
        }
        std::vector<std::uint8_t> wire;
        {
            tracer::scope s(tr, nm.wire_encode, k);
            wire = snap.serialize();
        }
        bytes += static_cast<double>(wire.size());
        std::vector<std::uint8_t> frame_bytes;
        {
            tracer::scope s(tr, nm.frame_encode, k);
            qpsa::net::body_writer w;
            w.u32(static_cast<std::uint32_t>(k));
            w.bytes(wire);
            frame_bytes =
                qpsa::net::encode_frame(qpsa::net::msg_type::snapshot, w.take());
        }
        qpsa::net::frame f;
        {
            tracer::scope s(tr, nm.frame_decode, k);
            f = qpsa::net::decode_frame(frame_bytes);
        }
        {
            tracer::scope s(tr, nm.wire_decode_merge, k);
            qpsa::net::body_reader r(f.body);
            r.u32();
            const auto got = qs::fleet_snapshot::deserialize(r.rest());
            if (k == 0)
                merged = got;
            else
                merged += got;
        }
    }
    bytes_out = bytes / static_cast<double>(router.shard_count());
    return merged;
}

/// Stream one round of the cohort through `fleet`: the untimed warm-up
/// prefix, then the measured remainder.  Ingest goes round-robin in
/// chunks of chunk_beats per session, one pump after every `group`
/// sessions' chunks.
template <typename Fleet, typename AfterPass>
void stream_round(Fleet& fleet, const cohort& co,
                  const std::vector<std::size_t>& warm_idx, std::size_t group,
                  bool measured,
                  tracer& tr, const names& nm, tally& t,
                  AfterPass&& after_pass) {
    const std::size_t n = co.records.size();

    // Warm-up prefix (untimed).
    for (std::size_t step = 0;; ++step) {
        bool more = false;
        for (std::size_t i = 0; i < n; ++i) {
            const auto& rec = co.records[i];
            const std::size_t b0 = std::min(step * chunk_beats, warm_idx[i]);
            const std::size_t b1 = std::min(b0 + chunk_beats, warm_idx[i]);
            for (std::size_t b = b0; b < b1; ++b)
                while (!fleet.ingest(i, rec.beat_time_s[b], rec.rr_s[b]))
                    fleet.pump();
            if (b1 < warm_idx[i]) more = true;
        }
        fleet.pump();
        if (!more) break;
    }
    fleet.drain_all();

    // Offer time of each session's chunk: a window is timed from the
    // offer of the chunk holding the beat that closed it.
    std::vector<std::vector<double>> offer(n);
    std::vector<std::size_t> seen(n);
    std::uint64_t windows0 = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t rest = co.records[i].beats() - warm_idx[i];
        offer[i].assign(rest / chunk_beats + 1, 0.0);
        seen[i] = fleet.at(i).windows_completed();
        windows0 += seen[i];
    }

    // Benchmark-side buffers are sized up front so the measured phase's
    // allocation count is the program's own.
    std::vector<double> pass_ms;
    std::vector<double> latency_ms;
    std::size_t expected_windows = 0;
    std::size_t steps = 0;
    for (std::size_t i = 0; i < n; ++i) {
        expected_windows += static_cast<std::size_t>(
            co.records[i].duration_s() / paper_monitor().hop_seconds) + 1;
        steps = std::max(steps, offer[i].size());
    }
    pass_ms.reserve(2 * steps * (n / group + 1) + 64);
    latency_ms.reserve(expected_windows);
    double pump_s = 0.0;
    std::uint64_t rejected = 0;
    std::uint64_t beats = 0;

    const auto pump = [&] {
        const double p0 = wall_s();
        {
            tracer::scope s(tr, nm.pump, pass_ms.size());
            fleet.pump();
        }
        const double p1 = wall_s();
        pass_ms.push_back((p1 - p0) * 1e3);
        pump_s += p1 - p0;
        after_pass();
        for (std::size_t i = 0; i < n; ++i) {
            const auto& sess = fleet.at(i);
            const std::size_t w = sess.windows_completed();
            if (w == seen[i]) continue;
            const auto reps = sess.reports();
            const auto& times = co.records[i].beat_time_s;
            for (std::size_t k = seen[i]; k < w && k < reps.size(); ++k) {
                const auto c = static_cast<std::size_t>(
                    std::lower_bound(times.begin(), times.end(), reps[k].t_end) -
                    times.begin());
                if (c < warm_idx[i]) continue;
                latency_ms.push_back(
                    (p1 - offer[i][(c - warm_idx[i]) / chunk_beats]) * 1e3);
            }
            seen[i] = w;
        }
    };

    const std::uint32_t root = tr.begin(nm.round);
    const double t0 = wall_s();
    const double c0 = cpu_s();
    const std::uint64_t a0 = heap_allocs();
    for (std::size_t step = 0;; ++step) {
        bool more = false;
        for (std::size_t i = 0; i < n; ++i) {
            const auto& rec = co.records[i];
            const std::size_t b0 = warm_idx[i] + step * chunk_beats;
            if (b0 < rec.beats()) {
                const std::size_t b1 = std::min(b0 + chunk_beats, rec.beats());
                offer[i][step] = wall_s();
                {
                    tracer::scope s(tr, nm.ingest, i);
                    for (std::size_t b = b0; b < b1; ++b)
                        while (!fleet.ingest(i, rec.beat_time_s[b], rec.rr_s[b])) {
                            ++rejected;
                            pump();
                        }
                }
                if (tr.enabled()) beats += b1 - b0;
                if (b1 < rec.beats()) more = true;
            }
            if ((i + 1) % group == 0 || i + 1 == n) pump();
        }
        if (!more) break;
    }
    fleet.drain_all();
    const double t1 = wall_s();
    const double c1 = cpu_s();
    const std::uint64_t a1 = heap_allocs();
    tr.end(root);

    std::uint64_t windows1 = 0;
    for (std::size_t i = 0; i < n; ++i) windows1 += fleet.at(i).windows_completed();
    const std::uint64_t windows = windows1 - windows0;

    if (!measured) return;
    const int arm = tr.enabled() ? 1 : 0;
    t.arm_cpu[arm] += c1 - c0;
    t.arm_windows[arm] += windows;
    t.windows_per_s.push_back(static_cast<double>(windows) / (t1 - t0));
    t.cpu_ms_per_window.push_back((c1 - c0) * 1e3 / static_cast<double>(windows));
    t.lat_p50.push_back(median_of(latency_ms));
    t.lat_p99.push_back(capped_percentile(latency_ms, 99.0).value);
    t.latency_ms.insert(t.latency_ms.end(), latency_ms.begin(), latency_ms.end());
    t.pass_ms.insert(t.pass_ms.end(), pass_ms.begin(), pass_ms.end());
    t.measured_wall_s += t1 - t0;
    t.pump_s += pump_s;
    t.passes += pass_ms.size();
    t.windows += windows;
    t.allocs += a1 - a0;
    t.rejected += rejected;
    t.traced_beats += beats;
}

/// Index of the first beat at or after `warm_record_s` into each record.
std::vector<std::size_t> warm_indices(const cohort& co) {
    std::vector<std::size_t> idx;
    for (const auto& rec : co.records) {
        const double cut = rec.beat_time_s.front() + warm_record_s;
        idx.push_back(static_cast<std::size_t>(
            std::lower_bound(rec.beat_time_s.begin(), rec.beat_time_s.end(),
                             cut) -
            rec.beat_time_s.begin()));
    }
    return idx;
}

/// Serial references of a cohort (one per session), each governed
/// session's mode schedule replayed as `fleet` applied it.  A later round
/// that switches differently fails the comparison with these.
template <typename Fleet>
std::vector<std::vector<qc::window_report>> closed_references(
    const cohort& co, const std::vector<qs::session_config>& cfgs,
    const qc::quality_controller* ladder, const Fleet& fleet,
    std::size_t threads) {
    qs::plan_cache cache;
    const qc::system_factory factory = [&cache](const qc::psa_config& c) {
        return cache.system_for(c);
    };
    std::vector<std::vector<qc::window_report>> ref(co.records.size());
    parallel_for(co.records.size(), threads, [&](std::size_t i) {
        ref[i] = serial_reference(co.records[i], co.records[i].beats(),
                                  cfgs[i].analysis, factory,
                                  cfgs[i].quality.governed ? ladder : nullptr,
                                  fleet.at(i).switch_log());
    });
    return ref;
}

template <typename Fleet>
std::uint64_t verify_round(const Fleet& fleet, const cohort& co,
                           const std::vector<qs::session_config>& cfgs,
                           const qc::quality_controller* ladder,
                           std::size_t threads,
                           std::vector<std::vector<qc::window_report>>& ref,
                           report& rep) {
    if (ref.empty()) ref = closed_references(co, cfgs, ladder, fleet, threads);
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        failed += count_failed(fleet.at(i).reports(), ref[i]);
        rep.attempted += ref[i].size();
    }
    return failed;
}

void fold_snapshot(const qs::fleet_snapshot& f, bool measured, tally& t) {
    if (!measured) return;
    t.round_windows = f.windows;
    t.lane_filled += f.lane_slots_filled;
    t.lane_offered += f.lane_slots_offered;
    t.stolen += f.windows_stolen;
    t.snapshot_windows += f.windows;
    t.mode_switches = f.mode_switches;
    t.hop_hits += f.hop_hits;
    t.hop_misses += f.hop_misses;
    t.hop_bytes = static_cast<double>(f.hop_bytes);
    t.energy_j += f.energy.energy_nominal_j;
    t.rejected += f.beats_rejected;
}

/// replay_mixed and ward_replay: one session_manager per round.
void run_managed(const options& opt, const cohort& co,
                 const std::vector<mix_row>& mix,
                 const std::shared_ptr<const qc::quality_controller>& ladder,
                 std::size_t group, tracer& tr, report& rep, tally& t) {
    const auto cfgs = cohort_configs(co, mix, ladder);
    // One hardware thread is left to the generator and the host, so a
    // pass barrier does not wait on a worker the host has preempted.
    const std::size_t threads =
        opt.threads ? opt.threads : std::max<std::size_t>(1, hw_threads() - 1);
    const names nm(tr);

    qs::service_options sopt;
    sopt.threads = threads;
    sopt.vfs_deadline_s = paper_monitor().hop_seconds;

    const auto engines = mix_engines(mix, ladder);
    const auto admit = [&](qs::plan_cache& cold) {
        const double s0 = wall_s();
        qs::session_manager mgr(sopt, &cold);
        for (const auto& cfg : cfgs) mgr.add_session(cfg);
        return wall_s() - s0;
    };

    std::vector<std::vector<qc::window_report>> ref;
    const auto warm_idx = warm_indices(co);
    qs::plan_cache cache;
    double measured = 0.0;
    for (std::size_t round = 0; round < min_rounds || measured < opt.seconds;
         ++round) {
        measure_setup(engines, t, admit);
        tr.set_enabled(opt.trace && round % 2 == 1);
        qs::session_manager mgr(sopt, &cache);
        t.workers = mgr.worker_count();
        for (const auto& cfg : cfgs) mgr.add_session(cfg);
        const double before = t.measured_wall_s;
        stream_round(mgr, co, warm_idx, group, round > 0, tr, nm, t, [] {});
        tr.set_enabled(false);
        measured += t.measured_wall_s - before;
        rep.failed += verify_round(mgr, co, cfgs, ladder.get(), threads, ref, rep);
        fold_snapshot(mgr.fleet(), round > 0, t);
    }
    t.cache_hit_rate_warm = warm_hit_rate(cache.stats());
}

void run_durable_sharded(const options& opt, const cohort& co, tracer& tr,
                         report& rep, tally& t) {
    const auto mix = standard_mix();
    const auto cfgs = cohort_configs(co, mix, nullptr);
    const std::size_t threads = opt.threads ? opt.threads : hw_threads();
    const names nm(tr);
    const fs::path base = fs::path(opt.scratch_dir) / "journal";

    qs::router_options ropt;
    ropt.shards = router_shards;
    // threads == 0 per shard: the router's own split of the hardware
    // threads across shards (hw / K each), as deployed.
    ropt.shard.threads = 0;
    ropt.shard.vfs_deadline_s = paper_monitor().hop_seconds;

    const auto engines = mix_engines(mix, nullptr);
    const auto admit = [&](qs::plan_cache& cold) {
        const fs::path dir = base / "setup";
        fs::remove_all(dir);
        auto o = ropt;
        o.journal_dir = dir.string();
        double seconds = 0.0;
        {
            const double s0 = wall_s();
            qs::shard_router router(o, &cold);
            for (const auto& cfg : cfgs) router.add_session(cfg);
            seconds = wall_s() - s0;
        }
        fs::remove_all(dir);
        return seconds;
    };

    std::vector<std::vector<qc::window_report>> ref;
    const auto warm_idx = warm_indices(co);
    qs::plan_cache cache;
    double measured = 0.0;
    for (std::size_t round = 0; round < min_rounds || measured < opt.seconds;
         ++round) {
        measure_setup(engines, t, admit);
        const bool counted = round > 0;
        tr.set_enabled(opt.trace && round % 2 == 1);
        const fs::path dir = base / ("round-" + std::to_string(round));
        fs::remove_all(dir);
        auto o = ropt;
        o.journal_dir = dir.string();
        qs::shard_router router(o, &cache);
        t.workers = 0;
        for (std::size_t k = 0; k < router.shard_count(); ++k)
            t.workers += router.shard(k).worker_count();
        for (const auto& cfg : cfgs) router.add_session(cfg);

        double bytes = 0.0;
        const double before = t.measured_wall_s;
        stream_round(router, co, warm_idx, co.records.size(), counted, tr, nm, t,
                     [&] { aggregate(router, tr, nm, bytes); });
        measured += t.measured_wall_s - before;
        if (counted) t.snapshot_bytes = bytes;

        // Aggregator view of the drained fleet against the router's own
        // merge (untimed, untraced).
        tr.set_enabled(false);
        double unused = 0.0;
        const auto wired = aggregate(router, tr, nm, unused);
        const bool wire_ok = wired == router.fleet();
        tr.set_enabled(opt.trace && round % 2 == 1);

        const std::uint32_t root = tr.begin(nm.round);
        const double k0 = wall_s();
        {
            tracer::scope s(tr, nm.close);
            router.close_journals();
        }
        const double k1 = wall_s();
        const auto live = router.fleet();
        const double r0 = wall_s();
        qs::fleet_snapshot rebuilt;
        {
            tracer::scope s(tr, nm.rebuild);
            rebuilt = qpsa::journal::rebuild_fleet_snapshot(dir.string());
        }
        const double r1 = wall_s();
        tr.end(root);
        tr.set_enabled(false);

        const bool rebuild_ok = rebuilt == live;
        if (!wire_ok || !rebuild_ok) {
            rep.correct = false;
            rep.notes.push_back("round " + std::to_string(round) + ": " +
                                (wire_ok ? "" : "frame-merged snapshot != fleet() ") +
                                (rebuild_ok ? "" : "journal rebuild != fleet()"));
        }
        rep.failed += verify_round(router, co, cfgs, nullptr, threads, ref, rep);
        fold_snapshot(live, counted, t);
        if (counted) {
            t.close_ms.push_back((k1 - k0) * 1e3);
            t.recovery_s.push_back(r1 - r0);
            t.rebuild_mb_per_s.push_back(
                static_cast<double>(live.journal_bytes) / 1e6 / (r1 - r0));
            const auto w = static_cast<double>(live.windows);
            t.journal_bytes_per_window = static_cast<double>(live.journal_bytes) / w;
            t.journal_appends_per_window =
                static_cast<double>(live.journal_appends) / w;
            t.journal_fsyncs = static_cast<double>(live.journal_fsyncs);
            double mx = 0.0;
            double sum = 0.0;
            for (std::size_t k = 0; k < router.shard_count(); ++k) {
                const auto sw = static_cast<double>(router.shard_fleet(k).windows);
                mx = std::max(mx, sw);
                sum += sw;
            }
            t.shard_skew = mx / (sum / static_cast<double>(router.shard_count())) - 1.0;
        }
        fs::remove_all(dir);
    }
    fs::remove_all(base);
    t.cache_hit_rate_warm = warm_hit_rate(cache.stats());
}

// ------------------------------------------------------------- metrics

/// "p50=.. p90=.. p99=.. p99.9=.. max=.. n=.." of one distribution.
std::string ladder_line(std::vector<double> v) {
    std::ostringstream s;
    std::sort(v.begin(), v.end());
    for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9})
        s << "p" << p << "=" << percentile_sorted(v, p) << " ";
    s << "max=" << (v.empty() ? 0.0 : v.back()) << " n=" << v.size();
    return s.str();
}

void emit(const options& opt, const tally& t, const tracer& tr,
          const probe_result* probe, report& rep) {
    const bool durable = opt.workload == "durable_sharded";
    const auto count_note = [](std::size_t n) {
        return "n=" + std::to_string(n);
    };
    const auto tail_note = [](const tail_value& v, std::size_t n) {
        std::ostringstream s;
        s << "p" << v.pct << " of n=" << n;
        return s.str();
    };

    if (!opt.trace) {
        rep.e2e("setup_s", median_of(t.setup_s), "s",
                "median of " + count_note(t.setup_s.size()) + " set-ups");
        rep.e2e("windows_per_s", median_of(t.windows_per_s), "1/s",
                "median of " + count_note(t.windows_per_s.size()) + " rounds");
        rep.e2e("cpu_ms_per_window", median_of(t.cpu_ms_per_window), "ms",
                "median of " + count_note(t.cpu_ms_per_window.size()) + " rounds");
        rep.e2e("window_latency_p50_ms", median_of(t.lat_p50), "ms",
                "median over " + count_note(t.lat_p50.size()) + " rounds of " +
                    count_note(t.latency_ms.size()) + " windows");
        rep.e2e("window_latency_p99_ms", median_of(t.lat_p99), "ms",
                "median of per-round p99");
        rep.e2e("rss_peak_mb", rss_peak_mb(), "MB");
        rep.notes.push_back("latency_ms: " + ladder_line(t.latency_ms));
        rep.notes.push_back("pass_ms: " + ladder_line(t.pass_ms));
        rep.notes.push_back("latency p99 by round: " + ladder_line(t.lat_p99));
        rep.notes.push_back("windows_per_s by round: " + ladder_line(t.windows_per_s));
        rep.notes.push_back("cpu_ms_per_window by round: " +
                            ladder_line(t.cpu_ms_per_window));
        return;
    }

    const auto spans = tr.by_name();
    const auto span_us = [&](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() || it->second.count == 0
                   ? 0.0
                   : static_cast<double>(it->second.total_ns) / 1e3 /
                         static_cast<double>(it->second.count);
    };
    const auto span_total_ns = [&](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : static_cast<double>(it->second.total_ns);
    };
    const double windows = std::max<double>(1.0, static_cast<double>(t.windows));

    // service
    rep.layer("service.ingest_ns_per_beat",
              t.traced_beats ? span_total_ns("service.ingest") /
                                   static_cast<double>(t.traced_beats)
                             : 0.0,
              "ns");
    rep.layer("service.beats_rejected", static_cast<double>(t.rejected), "count");
    rep.layer("service.pump_busy_frac",
              t.measured_wall_s > 0 ? t.pump_s / t.measured_wall_s : 0.0, "ratio");
    rep.layer("service.windows_per_pass",
              t.passes ? static_cast<double>(t.windows) / static_cast<double>(t.passes)
                       : 0.0,
              "count");
    rep.layer("service.lane_fill",
              t.lane_offered ? static_cast<double>(t.lane_filled) /
                                   static_cast<double>(t.lane_offered)
                             : 0.0,
              "ratio");
    const auto pass_p99 = capped_percentile(t.pass_ms, 99.0);
    rep.layer("service.pump_pass_ms_p50", median_of(t.pass_ms), "ms",
              count_note(t.pass_ms.size()));
    rep.layer("service.pump_pass_ms_p99", pass_p99.value, "ms",
              tail_note(pass_p99, t.pass_ms.size()));
    rep.layer("service.windows_stolen_frac",
              t.snapshot_windows ? static_cast<double>(t.stolen) /
                                       static_cast<double>(t.snapshot_windows)
                                 : 0.0,
              "ratio");
    rep.layer("service.allocs_per_window", static_cast<double>(t.allocs) / windows,
              "count");
    rep.layer("service.plan_build_ms", median_of(t.plan_build_ms), "ms");
    rep.layer("service.plan_cache_hit_rate_warm", t.cache_hit_rate_warm, "ratio");
    rep.layer("service.router_pump_ms_p50", durable ? median_of(t.pass_ms) : 0.0,
              "ms");
    rep.layer("service.shard_windows_skew", t.shard_skew, "ratio");
    rep.layer("service.fleet_snapshot_us", span_us("service.fleet_snapshot"), "us");
    rep.layer("service.wire_encode_us", span_us("service.wire_encode"), "us");
    rep.layer("service.wire_decode_merge_us", span_us("service.wire_decode_merge"),
              "us");
    rep.layer("service.snapshot_bytes", t.snapshot_bytes, "bytes");
    rep.layer("service.windows_per_round", static_cast<double>(t.round_windows),
              "count");
    rep.layer("service.workers", static_cast<double>(t.workers), "count");

    // core / lomb / hrv / counting / energy
    rep.layer("core.mode_switches", static_cast<double>(t.mode_switches), "count");
    const std::uint64_t lookups = t.hop_hits + t.hop_misses;
    probe->emit(rep);
    rep.layer("lomb.hop_hit_rate",
              lookups ? static_cast<double>(t.hop_hits) / static_cast<double>(lookups)
                      : 0.0,
              "ratio");
    rep.layer("lomb.hop_bytes", t.hop_bytes, "bytes");
    rep.layer("energy.model_uj_per_window",
              t.snapshot_windows ? t.energy_j * 1e6 /
                                       static_cast<double>(t.snapshot_windows)
                                 : 0.0,
              "uJ");

    // journal / net
    rep.layer("journal.bytes_per_window", t.journal_bytes_per_window, "bytes");
    rep.layer("journal.appends_per_window", t.journal_appends_per_window, "count");
    rep.layer("journal.fsyncs", t.journal_fsyncs, "count");
    rep.layer("journal.close_ms", median_of(t.close_ms), "ms");
    rep.layer("journal.rebuild_mb_per_s", median_of(t.rebuild_mb_per_s), "MB/s");
    rep.layer("journal.recovery_s", median_of(t.recovery_s), "s");
    rep.layer("net.frame_encode_us", span_us("net.frame_encode"), "us");
    rep.layer("net.frame_decode_us", span_us("net.frame_decode"), "us");

    // trace: self time per layer over the traced rounds
    const double cpw_traced =
        t.arm_windows[1] ? t.arm_cpu[1] / static_cast<double>(t.arm_windows[1]) : 0.0;
    const double cpw_plain =
        t.arm_windows[0] ? t.arm_cpu[0] / static_cast<double>(t.arm_windows[0]) : 0.0;
    rep.layer("trace.overhead_frac",
              cpw_plain > 0.0 ? cpw_traced / cpw_plain - 1.0 : 0.0, "ratio",
              "cpu per window, traced over untraced");
    double wall_ns = 0.0;
    std::map<std::string, double> self_ns;
    for (const auto& [name, tot] : spans) {
        const std::string layer(layer_of(name));
        if (name == "loadgen.round") wall_ns += tot.total_ns;
        if (name.rfind("probe.", 0) == 0 || layer == "core" || layer == "lomb" ||
            layer == "hrv")
            continue;  // probe spans sit outside the workload's wall
        self_ns[layer] += static_cast<double>(tot.self_ns);
    }
    rep.layer("trace.wall_ms", wall_ns / 1e6, "ms");
    rep.layer("trace.untraced_ms", self_ns["loadgen"] / 1e6, "ms",
              "root self time: wall not covered by any traced call");
    rep.layer("trace.self_ms.service", self_ns["service"] / 1e6, "ms");
    rep.layer("trace.self_ms.journal", self_ns["journal"] / 1e6, "ms");
    rep.layer("trace.self_ms.net", self_ns["net"] / 1e6, "ms");
    rep.layer("trace.spans", static_cast<double>(tr.spans().size()), "count");
    rep.layer("trace.spans_dropped", static_cast<double>(tr.dropped()), "count");
}

std::string cpu_model() {
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    return "unknown";
}

}  // namespace

report run_workload(const options& opt) {
    const std::string& w = opt.workload;
    if (w != "replay_mixed" && w != "ward_replay" && w != "durable_sharded")
        throw std::invalid_argument("unknown workload: " + w);
    fs::create_directories(opt.scratch_dir);

    report rep;
    const std::size_t threads = opt.threads ? opt.threads : hw_threads();
    shape sh = default_shape(w);
    if (opt.sessions) sh.sessions = opt.sessions;
    if (opt.record_s > 0.0) sh.record_s = opt.record_s;

    // Input generation (physio) is outside every timed phase.
    const cohort co = make_cohort(opt.seed, sh.sessions, sh.record_s, threads);

    // Spans of the traced run stay in memory until the run ends.
    tracer tr(opt.trace ? std::size_t{1} << 21 : 0);
    tally t;
    if (w == "replay_mixed")
        run_managed(opt, co, scheduler_mix(), nullptr, co.records.size(), tr, rep, t);
    else if (w == "ward_replay")
        run_managed(opt, co, aligned_mix(), degradation_ladder(), ward_pump_group, tr,
                    rep, t);
    else
        run_durable_sharded(opt, co, tr, rep, t);

    std::optional<probe_result> probe;
    if (opt.trace) {
        tr.set_enabled(true);
        probe = run_probe(co, tr);
        tr.set_enabled(false);
        if (!opt.spans_path.empty() && !tr.write_csv(opt.spans_path))
            rep.notes.push_back("could not write spans to " + opt.spans_path);
    }
    emit(opt, t, tr, probe ? &*probe : nullptr, rep);
    if (rep.failed > 0) rep.correct = false;

    std::ostringstream ctx;
    ctx << "context: nproc=" << hw_threads() << " cpu=\"" << cpu_model()
        << "\" isa=" << qpsa::simd::isa_name(qpsa::simd::active_isa())
        << " workers=" << t.workers << " compiler=\"g++ " << __VERSION__
        << "\" build=" << PERFBENCH_BUILD_TYPE;
    rep.notes.insert(rep.notes.begin(), ctx.str());
    std::ostringstream shape_line;
    shape_line << "shape: workload=" << w << " seed=" << opt.seed
               << " sessions=" << sh.sessions << " record_s=" << sh.record_s
               << " measured_s=" << t.measured_wall_s << " windows=" << t.windows
               << " passes=" << t.passes;
    rep.notes.insert(rep.notes.begin() + 1, shape_line.str());
    return rep;
}

}  // namespace perfbench
