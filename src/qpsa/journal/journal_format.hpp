// On-disk format of the qpsa journal: a per-shard append-only log of
// everything a fleet computes, durable enough to survive SIGKILL and
// complete enough to rebuild the merged fleet_snapshot bit for bit.
//
// File layout (all integers little-endian, doubles as raw IEEE-754 bits;
// written and read with the shared byte codec, service/wire_codec.hpp):
//
//   header   u32 magic "QPJL"; u16 version; u16 reserved (0);
//            u32 shard_index; u32 shard_count
//   record*  u32 len; u32 crc32(payload); payload = u8 type + body
//            (len counts the payload, type byte included)
//
// Record types and bodies:
//   session_meta  u64 session_id; u64 seed; f64 window_seconds,
//                 hop_seconds; u64 min_beats, history_limit; u8 governed
//                 (0/1); u8 initial_mode (engine_class); u16 patient_id
//                 length; patient_id bytes
//   beat          u64 session_id; f64 beat_time_s; f64 rr_s
//                 (journaled at drain time, malformed beats included, so a
//                 replay reproduces reject counts too)
//   report        u64 session_id; window_report (the shared encoding in
//                 wire_codec.hpp: f64 t_start, t_end; f64 ulf, lf, hf,
//                 total; u8 diagnosis; 8 x u64 op counts; u64 beats;
//                 u8 engine); then the session's post-window state:
//                 f64 battery_fraction; u64 mode_switches; u8 mode_after
//   stats_delta   one embedded fleet_snapshot::serialize() payload -- the
//                 batch partial exactly as it was merged into fleet_stats
//                 (appended under the stats mutex in merge order, so a
//                 recovery scan replays the identical operator+= sequence
//                 and lands on bit-identical double sums)
//   footer        u64 records; u64 bytes (both excluding the footer
//                 record itself); u64 fsyncs (including the final fsync
//                 close() issues right after the footer)
//   migration     u64 session_id; u8 direction (0 = out, 1 = in); then a
//                 checkpoint of the session's quality columns at the
//                 moment of the move: f64 battery_fraction;
//                 u64 mode_switches; u8 mode_after.  (v2+.)  An "out"
//                 record retires the session from this shard's rebuild;
//                 an "in" record (preceded by a fresh session_meta whose
//                 initial_mode is the *restored* mode) is the session's
//                 state until its first post-adopt report.
//
// Versioning rules mirror the snapshot wire rules: additive changes bump
// journal_wire_version and the reader keeps accepting every older
// version; unknown record *types* are rejected loudly (a reader must not
// silently drop data it cannot interpret).
//
// Recovery semantics: a crash can only truncate the file (appends go
// through one descriptor, so the on-disk bytes are a prefix of the
// logical stream).  A trailing record whose frame or payload is cut off
// is a *torn tail*: tolerated, counted, scan succeeds.  Anything else --
// bad magic, CRC mismatch, zero/oversized length, unknown type, records
// after the footer, footer counters disagreeing with the scan -- throws
// service::wire_error.  Known blind spot, shared with every append-only
// log: a corrupted length field that makes a mid-file record claim to
// extend past EOF is indistinguishable from a torn append and is treated
// as one; every other corruption fails the CRC loudly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/service/fleet_stats.hpp"

namespace qpsa::journal {

/// Thrown on journal I/O failures (open/write/fsync); wire-level
/// corruption throws service::wire_error instead.
class journal_error : public std::runtime_error {
public:
    explicit journal_error(const std::string& what)
        : std::runtime_error(what) {}
};

inline constexpr std::uint32_t journal_magic = 0x4C4A5051;  // "QPJL" LE
/// v1 = PR 6 record set; v2 adds the migration record (live session
/// moves).  The reader accepts every version it ever shipped.
inline constexpr std::uint16_t journal_wire_version = 2;
inline constexpr std::size_t journal_header_bytes = 16;
inline constexpr std::size_t journal_frame_bytes = 8;  ///< u32 len + u32 crc
/// Records larger than this are corruption, not data (the largest real
/// record is a stats_delta, well under a megabyte for huge fleets).
inline constexpr std::uint32_t journal_max_record_bytes = 1u << 24;
/// Per-shard journal files are named shard-<index>.qpsaj.
inline constexpr const char* journal_file_extension = ".qpsaj";

enum class record_type : std::uint8_t {
    session_meta = 1,
    beat = 2,
    report = 3,
    stats_delta = 4,
    footer = 5,
    migration = 6,  ///< v2+: a session left or joined this shard
};

/// Which way a migration record's session moved relative to the shard
/// whose log holds the record (the log's own header names the shard).
enum class migration_direction : std::uint8_t {
    out = 0,  ///< extracted here, resumes elsewhere
    in = 1,   ///< adopted here, extracted elsewhere
};

/// Admission-time facts about one session: everything a replay needs to
/// rebuild an identical monitor (the analysis config itself is supplied
/// by the replay caller -- that is the point of re-analysis).
struct session_meta {
    std::uint64_t session_id = 0;  ///< global (fleet-wide) id
    std::uint64_t seed = 0;        ///< resolved per-session stream seed
    core::monitor_options monitor;
    bool governed = false;         ///< session ran under a runtime governor
    core::engine_class initial_mode = core::engine_class::conventional;
    std::string patient_id;

    bool operator==(const session_meta&) const = default;
};

/// One beat exactly as the drain loop fed it to the monitor.
struct beat_event {
    std::uint64_t session_id = 0;
    real beat_time_s = 0.0;
    real rr_s = 0.0;

    bool operator==(const beat_event&) const = default;
};

/// One completed window plus the session's post-window quality state.
/// Battery and governor state only change at window boundaries, so the
/// last report's post-state *is* the session's live state at snapshot
/// time -- which is what lets rebuild_fleet_snapshot reconstruct the
/// battery/quality columns bit for bit.
struct report_event {
    std::uint64_t session_id = 0;
    core::window_report report;
    real battery_fraction = 1.0;
    std::uint64_t mode_switches = 0;
    core::engine_class mode_after = core::engine_class::conventional;

    bool operator==(const report_event&) const = default;
};

/// One live session move, logged on both sides (an "out" record in the
/// source shard's journal, a session_meta + "in" record in the
/// destination's).  The checkpoint fields carry the quality columns at
/// the moment of the move: for an adopted session they are what a
/// rebuild reports until its first post-adopt window report.
struct migration_event {
    std::uint64_t session_id = 0;  ///< global (fleet-wide) id
    migration_direction direction = migration_direction::out;
    real battery_fraction = 1.0;
    std::uint64_t mode_switches = 0;
    core::engine_class mode_after = core::engine_class::conventional;

    bool operator==(const migration_event&) const = default;
};

/// Trailer written by a graceful close(); its presence marks a clean
/// shutdown and its counters cross-check the scan.
struct journal_footer {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::uint64_t fsyncs = 0;

    bool operator==(const journal_footer&) const = default;
};

}  // namespace qpsa::journal
