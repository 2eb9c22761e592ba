// fleet_snapshot binary wire format (fleet_stats.hpp declares the API),
// encoded with the shared byte codec (wire_codec.hpp).
//
//   u32  magic "QPFS"
//   u16  version (fleet_wire_version)
//   u16  engine-kind slot count at serialization time
//   then every column of fleet_columns below, in list order, that the
//   version has.  Column encodings: u64 counters; f64 sums; energy totals
//   as u64 windows, op_counts, f64 cycles, time_nominal_s,
//   energy_nominal_j, energy_vfs_j; per-engine tallies as slot-count x
//   { u64 windows, u64 beats, f64 energy }; row lists as u64 n + n rows
//   (drop alarm: u64 session_id, dropped, rejected, overwritten; quality:
//   u64 session_id, u64 mode_switches, u8 current_mode,
//   f64 battery_fraction).
//
// A snapshot serialized by a build with fewer engine kinds than the
// reader loads into the wider table (new kinds tally zero); one with
// more kinds than the reader knows is rejected -- the reader cannot
// represent those rows losslessly.  Version skew follows the additive
// rule: each version only appends columns, so an older payload (shorter
// tail) still loads with the new columns at their defaults, and versions
// newer than the build are rejected.  serialize(version) emits any older
// layout for mixed-version fleets.
//
// This file also implements session_runtime_state's encoding (the live-
// migration transport unit, session_state.hpp):
//
//   u32  magic "QPSS"
//   u16  version (session_state_wire_version)
//   u64  global_id; u64 seed
//   u16  patient_id length; bytes
//   ring: u64 n; n x { f64 t, f64 rr }
//   monitor: u64 n_buffered; n x { f64 t, f64 rr };
//            u64 n_pending; n x window_report;
//            u64 n_history; n x window_report;
//            f64 next_window_start; u8 started (0/1);
//            u64 windows_completed, beats_seen
//   governor: u64 current_index (~0 = none), windows_seen,
//            windows_since_switch, switches
//   f64  battery_charge_j
//   u64  beats_ingested, beats_rejected, beats_dropped,
//        beats_overwritten, windows_completed, high_water_alarms
//   switch log: u64 n; n x { u64 window_index, u64 mode_index }
//   reports: u64 n; n x window_report
//
// window_report's encoding is the shared one in wire_codec.hpp.
#include <algorithm>
#include <tuple>

#include "qpsa/service/fleet_stats.hpp"
#include "qpsa/service/session_state.hpp"

namespace qpsa::service {

namespace {

constexpr std::uint32_t wire_magic = 0x53465051;  // "QPFS" little-endian

using engine_tallies = std::array<engine_tally, core::engine_class_count>;

// Column encoders, one overload per column type (the shared record
// encodings in wire_codec.hpp cover the nested op_counts and enums).
void encode(byte_writer& w, std::uint64_t v) { w.u64(v); }
void encode(byte_writer& w, double v) { w.f64(v); }

void encode(byte_writer& w, const energy::fleet_energy_totals& e) {
    w.u64(e.windows);
    encode(w, e.ops);
    w.f64(e.cycles);
    w.f64(e.time_nominal_s);
    w.f64(e.energy_nominal_j);
    w.f64(e.energy_vfs_j);
}

void encode(byte_writer& w, const engine_tallies& tallies) {
    for (const engine_tally& t : tallies) {
        w.u64(t.windows);
        w.u64(t.beats);
        w.f64(t.energy_nominal_j);
    }
}

void encode(byte_writer& w, const std::vector<session_drop_alarm>& rows) {
    w.u64(rows.size());
    for (const session_drop_alarm& a : rows) {
        w.u64(a.session_id);
        w.u64(a.dropped);
        w.u64(a.rejected);
        w.u64(a.overwritten);
    }
}

void encode(byte_writer& w, const std::vector<session_quality>& rows) {
    w.u64(rows.size());
    for (const session_quality& q : rows) {
        w.u64(q.session_id);
        w.u64(q.mode_switches);
        encode(w, q.current_mode);
        w.f64(q.battery_fraction);
    }
}

// Column decoders.  `kinds` is the header's engine-kind slot count.
struct column_reader {
    byte_reader r;
    std::uint16_t kinds;
};

void decode(column_reader& c, std::uint64_t& v) { v = c.r.u64(); }
void decode(column_reader& c, double& v) { v = c.r.f64(); }

void decode(column_reader& c, energy::fleet_energy_totals& e) {
    e.windows = c.r.u64();
    decode(c.r, e.ops);
    e.cycles = c.r.f64();
    e.time_nominal_s = c.r.f64();
    e.energy_nominal_j = c.r.f64();
    e.energy_vfs_j = c.r.f64();
}

void decode(column_reader& c, engine_tallies& tallies) {
    for (std::uint16_t i = 0; i < c.kinds; ++i) {
        tallies[i].windows = c.r.u64();
        tallies[i].beats = c.r.u64();
        tallies[i].energy_nominal_j = c.r.f64();
    }
}

void decode(column_reader& c, std::vector<session_drop_alarm>& rows) {
    rows.resize(c.r.count(4 * 8));
    for (session_drop_alarm& a : rows) {
        a.session_id = c.r.u64();
        a.dropped = c.r.u64();
        a.rejected = c.r.u64();
        a.overwritten = c.r.u64();
    }
}

void decode(column_reader& c, std::vector<session_quality>& rows) {
    rows.resize(c.r.count(3 * 8 + 1));
    for (session_quality& q : rows) {
        q.session_id = c.r.u64();
        q.mode_switches = c.r.u64();
        decode(c.r, q.current_mode);
        q.battery_fraction = c.r.f64();
    }
}

enum class merge_rule {
    sum,     ///< counters and sums add (+=)
    min,     ///< gauges keep the fleet minimum
    concat,  ///< per-session rows concatenate
};
using enum merge_rule;

template <typename T>
void add(T& x, const T& y) {
    x += y;
}
void add(engine_tallies& x, const engine_tallies& y) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
}

/// One fleet_snapshot column: the member, how two snapshots merge it,
/// and the wire version that appended it.
template <auto Member, merge_rule Rule, std::uint16_t Since = 1>
struct column {
    static void merge(fleet_snapshot& a, const fleet_snapshot& b) {
        auto& x = a.*Member;
        const auto& y = b.*Member;
        if constexpr (Rule == min)
            x = std::min(x, y);
        else if constexpr (Rule == concat)
            x.insert(x.end(), y.begin(), y.end());
        else
            add(x, y);
    }
    static void write(byte_writer& w, const fleet_snapshot& s,
                      std::uint16_t version) {
        if (version >= Since) encode(w, s.*Member);
    }
    static void read(column_reader& c, fleet_snapshot& s,
                     std::uint16_t version) {
        if (version >= Since) decode(c, s.*Member);
    }
};

using fs = fleet_snapshot;

/// Every fleet_snapshot column, in wire order.  A new column is one
/// struct member plus one entry here, appended with the bumped
/// fleet_wire_version (the additive-skew rule above).
using fleet_columns = std::tuple<
    column<&fs::windows, sum>,
    column<&fs::beats, sum>,
    column<&fs::arrhythmia_windows, sum>,
    column<&fs::energy, sum>,
    column<&fs::by_engine, sum>,
    column<&fs::beats_dropped, sum>,
    column<&fs::beats_rejected, sum>,
    column<&fs::beats_overwritten, sum>,
    column<&fs::drop_alarms, concat>,
    column<&fs::mode_switches, sum>,
    column<&fs::battery_fraction_min, min>,
    column<&fs::quality, concat>,
    column<&fs::lf_sum, sum>,
    column<&fs::hf_sum, sum>,
    column<&fs::ratio_sum, sum>,
    column<&fs::high_water_alarms, sum, 2>,
    column<&fs::journal_appends, sum, 2>,
    column<&fs::journal_bytes, sum, 2>,
    column<&fs::journal_fsyncs, sum, 2>,
    column<&fs::journal_torn_tails, sum, 2>,
    column<&fs::sessions_migrated_in, sum, 3>,
    column<&fs::sessions_migrated_out, sum, 3>,
    column<&fs::hop_hits, sum, 4>,
    column<&fs::hop_misses, sum, 4>,
    column<&fs::hop_bytes, sum, 4>,
    column<&fs::windows_stolen, sum, 5>,
    column<&fs::lane_slots_filled, sum, 5>,
    column<&fs::lane_slots_offered, sum, 5>>;

/// Call f(column) for every column in list order (unrolled at compile
/// time: no loop, no indirect calls).
template <typename F>
void for_each_column(F&& f) {
    std::apply([&](auto... col) { (f(col), ...); }, fleet_columns{});
}

}  // namespace

fleet_snapshot& fleet_snapshot::operator+=(const fleet_snapshot& o) {
    for_each_column([&](auto col) { col.merge(*this, o); });
    return *this;
}

std::vector<std::uint8_t> fleet_snapshot::serialize(
    std::uint16_t version) const {
    QPSA_EXPECTS(version >= 1 && version <= fleet_wire_version);
    byte_writer w;
    // Header + scalars + typical alarm/quality payloads fit well under
    // this for fleets of a few hundred sessions; one reserve avoids the
    // doubling churn.
    w.reserve(512 + 32 * drop_alarms.size() + 25 * quality.size());
    w.u32(wire_magic);
    w.u16(version);
    w.u16(static_cast<std::uint16_t>(core::engine_class_count));
    for_each_column([&](auto col) { col.write(w, *this, version); });
    return w.take();
}

fleet_snapshot fleet_snapshot::deserialize(
    std::span<const std::uint8_t> bytes) {
    column_reader c{byte_reader(bytes, "fleet_snapshot wire"), 0};
    if (c.r.u32() != wire_magic) c.r.fail("bad magic");
    const std::uint16_t version = c.r.u16();
    if (version == 0 || version > fleet_wire_version)
        c.r.fail("unknown version " + std::to_string(version));
    c.kinds = c.r.u16();
    if (c.kinds > core::engine_class_count)
        c.r.fail("snapshot carries " + std::to_string(c.kinds) +
                 " engine kinds, this build knows " +
                 std::to_string(core::engine_class_count));

    fleet_snapshot snap;
    for_each_column([&](auto col) { col.read(c, snap, version); });
    c.r.expect_exhausted();
    return snap;
}

namespace {

constexpr std::uint32_t session_state_magic = 0x53535051;  // "QPSS" LE
constexpr std::uint16_t session_state_wire_version = 1;
constexpr const char* state_context = "session_state wire";

void write_reports(byte_writer& w, std::span<const core::window_report> v) {
    w.u64(v.size());
    for (const core::window_report& rep : v) encode(w, rep);
}

std::vector<core::window_report> read_reports(byte_reader& r) {
    std::vector<core::window_report> v(r.count(window_report_bytes));
    for (core::window_report& rep : v) decode(r, rep);
    return v;
}

}  // namespace

std::vector<std::uint8_t> session_runtime_state::serialize() const {
    byte_writer w;
    w.reserve(256 + 16 * (ring.size() + monitor.buffered.size()) +
              window_report_bytes * (monitor.pending.size() +
                                     monitor.history.size() + reports.size()));

    w.u32(session_state_magic);
    w.u16(session_state_wire_version);
    w.u64(global_id);
    w.u64(seed);
    w.str(patient_id);

    w.u64(ring.size());
    for (const beat_sample& s : ring) {
        w.f64(s.t);
        w.f64(s.rr);
    }

    w.u64(monitor.buffered.size());
    for (const auto& [t, rr] : monitor.buffered) {
        w.f64(t);
        w.f64(rr);
    }
    write_reports(w, monitor.pending);
    write_reports(w, monitor.history);
    w.f64(monitor.next_window_start);
    w.flag(monitor.started);
    w.u64(monitor.windows_completed);
    w.u64(monitor.beats_seen);

    w.u64(governor.current_index);
    w.u64(governor.windows_seen);
    w.u64(governor.windows_since_switch);
    w.u64(governor.switches);

    w.f64(battery_charge_j);
    w.u64(beats_ingested);
    w.u64(beats_rejected);
    w.u64(beats_dropped);
    w.u64(beats_overwritten);
    w.u64(windows_completed);
    w.u64(high_water_alarms);

    w.u64(switch_log.size());
    for (const mode_switch_event& e : switch_log) {
        w.u64(e.window_index);
        w.u64(static_cast<std::uint64_t>(e.mode_index));
    }
    write_reports(w, reports);
    return w.take();
}

session_runtime_state session_runtime_state::deserialize(
    std::span<const std::uint8_t> bytes) {
    byte_reader r(bytes, state_context);

    if (r.u32() != session_state_magic) r.fail("bad magic");
    const std::uint16_t version = r.u16();
    if (version == 0 || version > session_state_wire_version)
        r.fail("unknown version " + std::to_string(version));

    session_runtime_state st;
    st.global_id = r.u64();
    st.seed = r.u64();
    st.patient_id = r.str();

    st.ring.resize(r.count(2 * 8));
    for (beat_sample& s : st.ring) {
        s.t = r.f64();
        s.rr = r.f64();
    }

    st.monitor.buffered.resize(r.count(2 * 8));
    for (auto& [t, rr] : st.monitor.buffered) {
        t = r.f64();
        rr = r.f64();
    }
    st.monitor.pending = read_reports(r);
    st.monitor.history = read_reports(r);
    st.monitor.next_window_start = r.f64();
    st.monitor.started = r.flag();
    st.monitor.windows_completed = r.u64();
    st.monitor.beats_seen = r.u64();

    st.governor.current_index = r.u64();
    st.governor.windows_seen = r.u64();
    st.governor.windows_since_switch = r.u64();
    st.governor.switches = r.u64();

    st.battery_charge_j = r.f64();
    st.beats_ingested = r.u64();
    st.beats_rejected = r.u64();
    st.beats_dropped = r.u64();
    st.beats_overwritten = r.u64();
    st.windows_completed = r.u64();
    st.high_water_alarms = r.u64();

    st.switch_log.resize(r.count(2 * 8));
    for (mode_switch_event& e : st.switch_log) {
        e.window_index = r.u64();
        e.mode_index = static_cast<std::size_t>(r.u64());
    }
    st.reports = read_reports(r);
    r.expect_exhausted();
    return st;
}

std::vector<std::uint8_t> serialize_reports(
    std::span<const core::window_report> reports) {
    byte_writer w;
    write_reports(w, reports);
    return w.take();
}

std::vector<core::window_report> deserialize_reports(
    std::span<const std::uint8_t> bytes) {
    byte_reader r(bytes, state_context);
    std::vector<core::window_report> v = read_reports(r);
    r.expect_exhausted();
    return v;
}

}  // namespace qpsa::service
