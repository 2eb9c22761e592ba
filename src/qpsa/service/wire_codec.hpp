// The one little-endian byte codec behind every qpsa wire format: the
// fleet_snapshot and session_runtime_state encodings (wire.cpp), the
// journal's file header, record frames and bodies, and the net frame
// envelope and message bodies.  Integers travel little-endian, doubles as
// their raw IEEE-754 bit patterns (lossless), strings as a u16 length plus
// bytes.  The field encodings of op_counts and window_report live here
// too, so the snapshot, the session state, the report blob and the
// journal's report record share one layout for them.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "qpsa/core/streaming_monitor.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::service {

/// Thrown by every decoder on malformed or incompatible wire bytes (bad
/// magic, unknown version, truncation, invalid enums).
class wire_error : public std::runtime_error {
public:
    explicit wire_error(const std::string& what) : std::runtime_error(what) {}
};

/// Little-endian field encoder.  Default-constructed, it appends to a
/// buffer it owns and take() hands over; constructed over a caller-owned
/// span it writes in place and never allocates (overrunning the span is a
/// contract error), which keeps per-record stack encodes heap-free.
class byte_writer {
public:
    byte_writer() = default;
    explicit byte_writer(std::span<std::uint8_t> fixed) noexcept
        : buf_(fixed), fixed_(true) {}

    // buf_ may view owned_: copies would alias another writer's storage.
    byte_writer(const byte_writer&) = delete;
    byte_writer& operator=(const byte_writer&) = delete;

    void u8(std::uint8_t v) { *room(1) = v; }
    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }
    void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
    /// Canonical boolean byte: 0 or 1.
    void flag(bool v) { u8(v ? 1 : 0); }
    void bytes(std::span<const std::uint8_t> b) {
        if (!b.empty()) std::memcpy(room(b.size()), b.data(), b.size());
    }
    /// u16 length prefix + raw bytes.
    void str(std::string_view s) {
        QPSA_EXPECTS(s.size() <= 0xFFFF);
        u16(static_cast<std::uint16_t>(s.size()));
        bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    }

    /// Pre-size an owning writer for `n` bytes in total.
    void reserve(std::size_t n) {
        if (!fixed_ && n > buf_.size()) grow_to(n);
    }
    /// The bytes written so far (either mode).
    std::span<const std::uint8_t> written() const noexcept {
        return buf_.first(pos_);
    }
    /// Hand over an owning writer's bytes; the writer restarts empty.
    std::vector<std::uint8_t> take() {
        QPSA_EXPECTS(!fixed_);
        owned_.resize(pos_);
        buf_ = {};
        pos_ = 0;
        return std::move(owned_);
    }

private:
    template <typename T>
    void put(T v) {
        std::uint8_t* p = room(sizeof(T));
        for (std::size_t i = 0; i < sizeof(T); ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    std::uint8_t* room(std::size_t n) {
        if (buf_.size() - pos_ < n) grow_to(pos_ + n);
        std::uint8_t* p = buf_.data() + pos_;
        pos_ += n;
        return p;
    }
    void grow_to(std::size_t n) {
        QPSA_EXPECTS(!fixed_);
        owned_.resize(std::max({n, 2 * owned_.size(), std::size_t{64}}));
        buf_ = owned_;
    }

    std::vector<std::uint8_t> owned_;
    std::span<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    bool fixed_ = false;
};

/// Bounds-checked little-endian field decoder.  Every underflow, bad
/// count or non-canonical flag throws wire_error prefixed with the
/// caller's context ("journal", "net frame", ...), so malformed bytes
/// from a peer or a damaged file never fault the process.
class byte_reader {
public:
    explicit byte_reader(std::span<const std::uint8_t> bytes,
                         const char* context = "wire") noexcept
        : bytes_(bytes), context_(context) {}

    std::uint8_t u8() { return take<std::uint8_t>(); }
    std::uint16_t u16() { return take<std::uint16_t>(); }
    std::uint32_t u32() { return take<std::uint32_t>(); }
    std::uint64_t u64() { return take<std::uint64_t>(); }
    double f64() { return std::bit_cast<double>(take<std::uint64_t>()); }
    /// A boolean byte; anything but 0 or 1 is corruption.
    bool flag() {
        const std::uint8_t v = u8();
        if (v > 1) fail("invalid flag byte " + std::to_string(v));
        return v != 0;
    }
    std::span<const std::uint8_t> bytes(std::size_t n) {
        need(n);
        const auto s = bytes_.subspan(pos_, n);
        pos_ += n;
        return s;
    }
    /// u16 length prefix + raw bytes.
    std::string str() {
        const auto s = bytes(u16());
        return {reinterpret_cast<const char*>(s.data()), s.size()};
    }
    /// The remaining bytes, consumed (embedded snapshot/state blobs).
    std::span<const std::uint8_t> rest() noexcept {
        const auto s = bytes_.subspan(pos_);
        pos_ = bytes_.size();
        return s;
    }

    /// An element count of width N whose entries each take at least
    /// `entry_bytes`: a count the remaining payload cannot hold is
    /// corruption, rejected before anyone allocates or acts on it.
    template <typename N = std::uint64_t>
    std::size_t count(std::size_t entry_bytes) {
        const N n = take<N>();
        if (n > remaining() / entry_bytes)
            fail("element count " + std::to_string(n) + " exceeds payload");
        return static_cast<std::size_t>(n);
    }

    std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
    /// Throws unless every byte was consumed.
    void expect_exhausted() const {
        if (pos_ != bytes_.size()) fail("trailing bytes");
    }
    [[noreturn]] void fail(const std::string& what) const {
        throw wire_error(std::string(context_) + ": " + what);
    }

private:
    template <typename T>
    T take() {
        need(sizeof(T));
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v = static_cast<T>(v | static_cast<T>(bytes_[pos_ + i]) << (8 * i));
        pos_ += sizeof(T);
        return v;
    }
    void need(std::size_t n) const {
        if (remaining() < n) fail("truncated");
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
    const char* context_;
};

// Record encodings shared by every format that carries an engine kind,
// an op_counts or a window_report, so each layout exists once.

/// engine_class: u8, validated against this build's engine table.
inline void encode(byte_writer& w, core::engine_class c) {
    w.u8(static_cast<std::uint8_t>(c));
}
inline void decode(byte_reader& r, core::engine_class& c) {
    const std::uint8_t v = r.u8();
    if (v >= core::engine_class_count)
        r.fail("invalid engine class " + std::to_string(v));
    c = static_cast<core::engine_class>(v);
}

/// op_counts: 8 x u64 (adds, muls, divs, sqrts, cmps, trigs, loads,
/// stores).
inline void encode(byte_writer& w, const counting::op_counts& ops) {
    w.u64(ops.adds);
    w.u64(ops.muls);
    w.u64(ops.divs);
    w.u64(ops.sqrts);
    w.u64(ops.cmps);
    w.u64(ops.trigs);
    w.u64(ops.loads);
    w.u64(ops.stores);
}
inline void decode(byte_reader& r, counting::op_counts& ops) {
    ops.adds = r.u64();
    ops.muls = r.u64();
    ops.divs = r.u64();
    ops.sqrts = r.u64();
    ops.cmps = r.u64();
    ops.trigs = r.u64();
    ops.loads = r.u64();
    ops.stores = r.u64();
}

/// window_report: f64 t_start, t_end; f64 ulf, lf, hf, total;
/// u8 diagnosis; op_counts; u64 beats; u8 engine.
inline constexpr std::size_t window_report_bytes = 6 * 8 + 1 + 8 * 8 + 8 + 1;

inline void encode(byte_writer& w, const core::window_report& rep) {
    w.f64(rep.t_start);
    w.f64(rep.t_end);
    w.f64(rep.bands.ulf);
    w.f64(rep.bands.lf);
    w.f64(rep.bands.hf);
    w.f64(rep.bands.total);
    w.u8(static_cast<std::uint8_t>(rep.diagnosis));
    encode(w, rep.ops);
    w.u64(rep.beats);
    encode(w, rep.engine);
}
inline void decode(byte_reader& r, core::window_report& rep) {
    rep.t_start = r.f64();
    rep.t_end = r.f64();
    rep.bands.ulf = r.f64();
    rep.bands.lf = r.f64();
    rep.bands.hf = r.f64();
    rep.bands.total = r.f64();
    const std::uint8_t diag = r.u8();
    if (diag > static_cast<std::uint8_t>(hrv::diagnosis::normal))
        r.fail("invalid diagnosis " + std::to_string(diag));
    rep.diagnosis = static_cast<hrv::diagnosis>(diag);
    decode(r, rep.ops);
    rep.beats = static_cast<std::size_t>(r.u64());
    decode(r, rep.engine);
}

}  // namespace qpsa::service
