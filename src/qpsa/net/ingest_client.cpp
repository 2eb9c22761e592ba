#include "qpsa/net/ingest_client.hpp"

#include "qpsa/util/common.hpp"
#include "qpsa/util/random.hpp"

namespace qpsa::net {

ingest_client::ingest_client(ingest_client_options opt)
    : opt_(std::move(opt)),
      map_(opt_.shards.empty() ? 1 : opt_.shards.size(), opt_.placement),
      pending_(opt_.shards.size()) {
    QPSA_EXPECTS(!opt_.shards.empty());
    QPSA_EXPECTS(opt_.batch_beats >= 1);
}

void ingest_client::connect() {
    conns_.clear();
    conns_.reserve(opt_.shards.size());
    for (std::size_t k = 0; k < opt_.shards.size(); ++k) {
        socket_conn c = dial(opt_.shards[k], opt_.dial);
        body_writer hello;
        hello.u16(net_protocol_version);
        hello.u8(static_cast<std::uint8_t>(peer_role::ingest));
        hello.u32(static_cast<std::uint32_t>(k));
        hello.u32(static_cast<std::uint32_t>(opt_.shards.size()));
        const std::vector<std::uint8_t> body = hello.take();
        c.send_frame(msg_type::hello, body);
        conns_.push_back(std::move(c));
    }
}

void ingest_client::close() {
    for (socket_conn& c : conns_) {
        if (!c.valid()) continue;
        try {
            c.send_frame(msg_type::bye, {});
        } catch (...) {
            // Server treats EOF like bye.
        }
        c.close();
    }
}

std::uint64_t ingest_client::add_session(const std::string& patient_id,
                                         const std::string& config_token) {
    QPSA_EXPECTS(!conns_.empty());
    const std::uint64_t global_id = routes_.size();
    const std::size_t shard = map_.shard_for(patient_id);
    const std::uint64_t seed =
        util::derive_stream_seed(opt_.base_seed, global_id);

    body_writer w;
    w.u64(global_id);
    w.u64(seed);
    w.str(config_token);
    w.str(patient_id);
    const std::vector<std::uint8_t> body = w.take();
    conns_[shard].send_frame(msg_type::admit, body);
    routes_.push_back(static_cast<std::uint32_t>(shard));
    return global_id;
}

void ingest_client::ingest(std::uint64_t global_id, real beat_time_s,
                           real rr_s) {
    QPSA_EXPECTS(global_id < routes_.size());
    const std::size_t shard = routes_[global_id];
    pending_batch& b = pending_[shard];
    std::uint8_t triple[24];
    body_writer w(triple);
    w.u64(global_id);
    w.f64(beat_time_s);
    w.f64(rr_s);
    b.triples.insert(b.triples.end(), std::begin(triple), std::end(triple));
    if (++b.count >= opt_.batch_beats) ship_batch(shard);
}

void ingest_client::ship_batch(std::size_t k) {
    pending_batch& b = pending_[k];
    if (b.count == 0) return;
    body_writer w;
    w.u32(b.count);
    w.bytes(b.triples);
    const std::vector<std::uint8_t> body = w.take();
    conns_[k].send_frame(msg_type::beat_batch, body);
    beats_sent_ += b.count;
    b.count = 0;
    b.triples.clear();
}

frame ingest_client::request(std::size_t shard, msg_type type,
                             std::span<const std::uint8_t> body,
                             msg_type want) {
    socket_conn& c = conns_[shard];
    c.send_frame(type, body);
    std::optional<frame> f = c.recv_frame();
    if (!f) throw net_error("net: shard closed during request");
    if (f->type == msg_type::error) {
        body_reader r(f->body, frame_context);
        throw net_error("net: shard error: " + r.str());
    }
    if (f->type != want)
        throw service::wire_error("net frame: unexpected reply type");
    return std::move(*f);
}

std::uint64_t ingest_client::flush() {
    for (std::size_t k = 0; k < pending_.size(); ++k) ship_batch(k);
    std::uint64_t windows = 0;
    for (std::size_t k = 0; k < conns_.size(); ++k) {
        const frame ack = request(k, msg_type::flush, {}, msg_type::flush_ack);
        body_reader r(ack.body, frame_context);
        windows += r.u64();
        r.expect_exhausted();
    }
    return windows;
}

service::fleet_snapshot ingest_client::shard_stats(std::size_t shard) {
    QPSA_EXPECTS(shard < conns_.size());
    const frame reply =
        request(shard, msg_type::stats_query, {}, msg_type::stats_reply);
    return service::fleet_snapshot::deserialize(reply.body);
}

service::fleet_snapshot ingest_client::merged_stats() {
    service::fleet_snapshot merged;
    for (std::size_t k = 0; k < conns_.size(); ++k) {
        if (k == 0)
            merged = shard_stats(0);
        else
            merged += shard_stats(k);
    }
    return merged;
}

void ingest_client::migrate(std::uint64_t global_id,
                            std::size_t target_shard) {
    QPSA_EXPECTS(global_id < routes_.size());
    QPSA_EXPECTS(target_shard < conns_.size());
    const std::size_t source = routes_[global_id];
    if (source == target_shard) return;
    QPSA_EXPECTS(pending_[source].count == 0);  // flush() first

    body_writer out;
    out.u64(global_id);
    const std::vector<std::uint8_t> out_body = out.take();
    const frame state = request(source, msg_type::migrate_out, out_body,
                                msg_type::migrate_state);

    // The migrate_state body (token + state) is byte-compatible with the
    // adopt body: hand it over verbatim.
    const frame ack = request(target_shard, msg_type::adopt, state.body,
                              msg_type::adopt_ack);
    body_reader r(ack.body, frame_context);
    if (r.u64() != global_id)
        throw service::wire_error("net frame: adopt_ack id mismatch");
    r.expect_exhausted();

    routes_[global_id] = static_cast<std::uint32_t>(target_shard);
    ++migrations_;
}

session_report ingest_client::query_session(std::uint64_t global_id) {
    QPSA_EXPECTS(global_id < routes_.size());
    body_writer w;
    w.u64(global_id);
    const std::vector<std::uint8_t> body = w.take();
    const frame reply = request(routes_[global_id], msg_type::session_query,
                                body, msg_type::session_state);
    body_reader r(reply.body, frame_context);
    session_report rep;
    rep.found = r.flag();
    if (!rep.found) {
        r.expect_exhausted();
        return rep;
    }
    rep.global_id = r.u64();
    rep.windows_completed = r.u64();
    rep.switch_log.resize(r.count<std::uint32_t>(2 * 8));
    for (service::mode_switch_event& e : rep.switch_log) {
        e.window_index = r.u64();
        e.mode_index = static_cast<std::size_t>(r.u64());
    }
    rep.reports = service::deserialize_reports(r.rest());
    return rep;
}

std::size_t ingest_client::shard_of(std::uint64_t global_id) const {
    QPSA_EXPECTS(global_id < routes_.size());
    return routes_[global_id];
}

std::uint64_t ingest_client::bytes_sent() const {
    std::uint64_t total = 0;
    for (const socket_conn& c : conns_) total += c.bytes_sent();
    return total;
}

}  // namespace qpsa::net
