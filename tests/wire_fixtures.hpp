// Shared test fixtures: fully populated values of every wire-encoded
// type.  The round-trip, version-skew and golden-bytes tests all encode
// these, so the golden hex literals stay valid only while there is
// exactly one copy of each.
#pragma once

#include <cstddef>

#include "qpsa/service/service.hpp"

namespace qpsa::test {

/// A fully populated snapshot exercising every v1 wire field.
inline service::fleet_snapshot fat_snapshot() {
    service::fleet_snapshot s;
    s.windows = 1234;
    s.beats = 98765;
    s.arrhythmia_windows = 17;
    s.energy.windows = 1234;
    s.energy.ops.adds = 11;
    s.energy.ops.muls = 22;
    s.energy.ops.divs = 33;
    s.energy.ops.sqrts = 44;
    s.energy.ops.cmps = 55;
    s.energy.ops.trigs = 66;
    s.energy.ops.loads = 77;
    s.energy.ops.stores = 88;
    s.energy.cycles = 1.25e9;
    s.energy.time_nominal_s = 0.125;
    s.energy.energy_nominal_j = 3.0e-3;
    s.energy.energy_vfs_j = 1.0e-3;
    for (std::size_t i = 0; i < s.by_engine.size(); ++i) {
        s.by_engine[i].windows = 10 + i;
        s.by_engine[i].beats = 100 + i;
        s.by_engine[i].energy_nominal_j = 1e-4 * static_cast<real>(i + 1);
    }
    s.beats_dropped = 3;
    s.beats_rejected = 2;
    s.beats_overwritten = 1;
    s.drop_alarms = {{7, 3, 2, 1}, {12, 0, 5, 0}};
    s.mode_switches = 9;
    s.battery_fraction_min = 0.3125;
    s.quality = {{7, 2, core::engine_class::fixed_q15, 0.75},
                 {12, 1, core::engine_class::welch, 0.5}};
    s.lf_sum = 1.0 / 3.0;  // non-representable decimals: bit-exactness
    s.hf_sum = 2.0 / 7.0;  // matters, not round-tripping via text
    s.ratio_sum = 1.0e-17;
    return s;
}

/// fat_snapshot() plus the columns later wire versions appended, so
/// skew tests can see them zeroed by older encodings.
inline service::fleet_snapshot fat_snapshot_v5() {
    service::fleet_snapshot s = fat_snapshot();
    s.high_water_alarms = 4;  // v2 columns
    s.journal_appends = 100;
    s.journal_bytes = 6400;
    s.journal_fsyncs = 10;
    s.journal_torn_tails = 1;
    s.sessions_migrated_in = 2;  // v3 columns
    s.sessions_migrated_out = 3;
    s.hop_hits = 48;  // v4 columns
    s.hop_misses = 6;
    s.hop_bytes = 32768;
    s.windows_stolen = 5;  // v5 columns
    s.lane_slots_filled = 620;
    s.lane_slots_offered = 640;
    return s;
}

/// A session state exercising every wire field.
inline service::session_runtime_state fat_state() {
    service::session_runtime_state st;
    st.global_id = 42;
    st.patient_id = "patient-42";
    st.seed = 0xDEADBEEFCAFEF00DULL;
    st.ring = {{100.25, 0.8125}, {101.0, 0.75}};
    st.monitor.buffered = {{90.5, 0.8}, {91.25, 0.875}};
    st.monitor.next_window_start = 60.0;
    st.monitor.started = true;
    st.monitor.windows_completed = 3;
    st.monitor.beats_seen = 321;
    core::window_report rep;
    rep.t_start = 0.0;
    rep.t_end = 120.0;
    rep.bands.ulf = 1.0 / 3.0;
    rep.bands.lf = 2.0 / 7.0;
    rep.bands.hf = 1.0e-17;
    rep.bands.total = 0.625;
    rep.diagnosis = hrv::diagnosis::normal;
    rep.ops.adds = 11;
    rep.ops.muls = 22;
    rep.beats = 123;
    rep.engine = core::engine_class::fixed_q15;
    st.monitor.pending = {rep};
    st.monitor.history = {rep, rep};
    st.governor.current_index = 1;
    st.governor.windows_seen = 3;
    st.governor.windows_since_switch = 1;
    st.governor.switches = 2;
    st.battery_charge_j = 1.625e-3;
    st.beats_ingested = 400;
    st.beats_rejected = 5;
    st.beats_dropped = 3;
    st.beats_overwritten = 1;
    st.windows_completed = 3;
    st.high_water_alarms = 2;
    st.switch_log = {{2, 1}, {3, 2}};
    st.reports = {rep};
    return st;
}

}  // namespace qpsa::test
