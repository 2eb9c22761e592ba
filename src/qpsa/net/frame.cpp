#include "qpsa/net/frame.hpp"

#include "qpsa/util/common.hpp"
#include "qpsa/util/crc32.hpp"

namespace qpsa::net {

namespace {

[[noreturn]] void fail(const char* what) {
    throw service::wire_error(std::string(frame_context) + ": " + what);
}

bool known_type(std::uint8_t t) {
    return t >= static_cast<std::uint8_t>(msg_type::hello) &&
           t <= static_cast<std::uint8_t>(msg_type::bye);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(msg_type type,
                                       std::span<const std::uint8_t> body) {
    const std::size_t payload = 1 + body.size();
    QPSA_EXPECTS(payload <= frame_max_payload_bytes);

    const auto type_b = static_cast<std::uint8_t>(type);
    std::uint32_t crc = util::crc32({&type_b, 1});
    crc = util::crc32_append(crc, body);

    body_writer w;
    w.reserve(frame_header_bytes + payload);
    w.u32(frame_magic);
    w.u32(static_cast<std::uint32_t>(payload));
    w.u32(crc);
    w.u8(type_b);
    w.bytes(body);
    return w.take();
}

frame_header decode_frame_header(std::span<const std::uint8_t> header) {
    if (header.size() < frame_header_bytes) fail("short header");
    body_reader r(header, frame_context);
    if (r.u32() != frame_magic) fail("bad magic");
    frame_header h;
    h.len = r.u32();
    h.crc = r.u32();
    if (h.len == 0) fail("zero-length payload");
    if (h.len > frame_max_payload_bytes) fail("oversized payload");
    return h;
}

frame decode_frame_payload(std::uint32_t crc,
                           std::span<const std::uint8_t> payload) {
    if (payload.empty()) fail("empty payload");
    if (util::crc32(payload) != crc) fail("payload crc mismatch");
    if (!known_type(payload[0])) fail("unknown message type");
    frame f;
    f.type = static_cast<msg_type>(payload[0]);
    f.body.assign(payload.begin() + 1, payload.end());
    return f;
}

frame decode_frame(std::span<const std::uint8_t> bytes) {
    const frame_header h = decode_frame_header(bytes);
    if (bytes.size() != frame_header_bytes + h.len)
        fail("frame length disagrees with buffer");
    return decode_frame_payload(h.crc, bytes.subspan(frame_header_bytes));
}

}  // namespace qpsa::net
