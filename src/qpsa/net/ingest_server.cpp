#include "qpsa/net/ingest_server.hpp"

#include <chrono>

#include "qpsa/service/session_state.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::net {

ingest_server::ingest_server(
    ingest_server_options opt,
    std::function<service::session_config(std::string_view,
                                          std::string_view)>
        make_config,
    service::plan_cache* cache)
    : opt_(std::move(opt)),
      make_config_(std::move(make_config)),
      mgr_(opt_.service, cache),
      listener_(opt_.listen) {
    QPSA_EXPECTS(make_config_ != nullptr);
    QPSA_EXPECTS(opt_.shard_index < opt_.shard_count);
}

ingest_server::~ingest_server() {
    try {
        stop();
    } catch (...) {
        // Destructor must not throw.
    }
}

void ingest_server::start() {
    if (accept_thread_.joinable()) return;
    stop_.store(false, std::memory_order_relaxed);
    accept_thread_ = std::thread([this] { accept_loop(); });
    if (opt_.pump_interval_ms > 0)
        pump_thread_ = std::thread([this] { pump_loop(); });
}

void ingest_server::stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (accept_thread_.joinable()) accept_thread_.join();
    if (pump_thread_.joinable()) pump_thread_.join();
    std::vector<std::unique_ptr<connection>> conns;
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns.swap(conns_);
    }
    // shutdown() wakes each handler's blocked poll/recv; the handler
    // EOFs/fails out and closes its own conn (single-owner close).
    for (auto& c : conns) c->conn.shutdown();
    for (auto& c : conns)
        if (c->thread.joinable()) c->thread.join();
    listener_.close();
}

void ingest_server::pump_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
        mgr_.pump();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opt_.pump_interval_ms));
    }
}

void ingest_server::accept_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
        std::optional<socket_conn> accepted;
        try {
            accepted = listener_.accept(/*timeout_ms=*/50, opt_.io_timeout_ms);
        } catch (const net_error&) {
            continue;
        }
        if (!accepted) continue;

        std::lock_guard<std::mutex> lock(conns_mu_);
        reap_locked();
        auto c = std::make_unique<connection>();
        c->conn = std::move(*accepted);
        connection* raw = c.get();
        c->thread = std::thread([this, raw] { serve(raw->conn); });
        conns_.push_back(std::move(c));
    }
}

void ingest_server::reap_locked() {
    std::erase_if(conns_, [](const std::unique_ptr<connection>& c) {
        if (c->conn.valid()) return false;
        if (c->thread.joinable()) c->thread.join();
        return true;
    });
}

std::uint64_t ingest_server::local_of(std::uint64_t global_id) const {
    std::lock_guard<std::mutex> lock(map_mu_);
    const auto it = global_to_local_.find(global_id);
    return it == global_to_local_.end() ? ~std::uint64_t{0} : it->second;
}

void ingest_server::serve(socket_conn& conn) {
    try {
        while (!stop_.load(std::memory_order_relaxed)) {
            std::optional<frame> f = conn.recv_frame();
            if (!f) break;
            switch (f->type) {
                case msg_type::hello: {
                    body_reader r(f->body, frame_context);
                    if (r.u16() > net_protocol_version) {
                        conn.send_error("protocol version too new");
                        conn.close();
                        return;
                    }
                    break;
                }
                case msg_type::heartbeat:
                    break;
                case msg_type::admit:
                    handle_admit(conn, *f);
                    break;
                case msg_type::beat_batch:
                    handle_beat_batch(*f);
                    break;
                case msg_type::flush:
                    handle_flush(conn);
                    break;
                case msg_type::stats_query: {
                    const std::vector<std::uint8_t> body =
                        fleet_global().serialize();
                    conn.send_frame(msg_type::stats_reply, body);
                    break;
                }
                case msg_type::migrate_out:
                    handle_migrate_out(conn, *f);
                    break;
                case msg_type::adopt:
                    handle_adopt(conn, *f);
                    break;
                case msg_type::session_query:
                    handle_session_query(conn, *f);
                    break;
                case msg_type::bye:
                    conn.close();
                    return;
                default:
                    conn.send_error("unexpected message type");
                    break;
            }
        }
    } catch (const net_error&) {
        // Idle timeout or vanished peer: drop the connection.
    } catch (const service::wire_error&) {
        // Corrupt stream: unusable, drop it.
    }
    conn.close();
}

void ingest_server::handle_admit(socket_conn& conn, const frame& f) {
    body_reader r(f.body, frame_context);
    const std::uint64_t global_id = r.u64();
    const std::uint64_t seed = r.u64();
    const std::string token = r.str();
    const std::string patient = r.str();
    r.expect_exhausted();

    service::session_config cfg = make_config_(token, patient);
    cfg.patient_id = patient;
    cfg.seed = seed;
    cfg.journal_id = global_id;

    std::lock_guard<std::mutex> lock(map_mu_);
    if (global_to_local_.count(global_id)) {
        conn.send_error("duplicate admit for global id");
        return;
    }
    const std::uint64_t local = mgr_.add_session(std::move(cfg));
    if (local_to_global_.size() <= local)
        local_to_global_.resize(local + 1, ~std::uint64_t{0});
    local_to_global_[local] = global_id;
    global_to_local_[global_id] = local;
    token_of_global_[global_id] = token;
    admits_.fetch_add(1, std::memory_order_relaxed);
}

void ingest_server::handle_beat_batch(const frame& f) {
    body_reader r(f.body, frame_context);
    // Validate the whole body before ingesting anything: a malformed
    // batch must not leave a prefix of its beats behind.
    constexpr std::size_t beat_bytes = 8 + 8 + 8;
    const std::size_t count = r.count<std::uint32_t>(beat_bytes);
    if (r.remaining() != count * beat_bytes)
        r.fail("beat_batch body disagrees with its count");
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t global_id = r.u64();
        const real t = r.f64();
        const real rr = r.f64();
        const std::uint64_t local = local_of(global_id);
        if (local != ~std::uint64_t{0} && mgr_.ingest(local, t, rr))
            beats_in_.fetch_add(1, std::memory_order_relaxed);
        else
            beats_rejected_.fetch_add(1, std::memory_order_relaxed);
    }
}

void ingest_server::handle_flush(socket_conn& conn) {
    mgr_.drain_all();
    flushes_.fetch_add(1, std::memory_order_relaxed);
    body_writer w;
    w.u64(mgr_.fleet().windows);
    const std::vector<std::uint8_t> body = w.take();
    conn.send_frame(msg_type::flush_ack, body);
}

void ingest_server::handle_migrate_out(socket_conn& conn, const frame& f) {
    body_reader r(f.body, frame_context);
    const std::uint64_t global_id = r.u64();
    r.expect_exhausted();

    std::string token;
    std::uint64_t local;
    {
        std::lock_guard<std::mutex> lock(map_mu_);
        const auto it = global_to_local_.find(global_id);
        if (it == global_to_local_.end()) {
            conn.send_error("migrate_out: unknown global id");
            return;
        }
        local = it->second;
        token = token_of_global_.at(global_id);
        // Retire the id from this shard's routing *before* extraction:
        // a beat batch racing the migration sees "unknown" and counts a
        // reject, never a torn session.
        global_to_local_.erase(it);
    }
    const service::extracted_session es = mgr_.extract_session(local);

    body_writer w;
    w.str(token);
    w.bytes(es.state.serialize());
    const std::vector<std::uint8_t> body = w.take();
    conn.send_frame(msg_type::migrate_state, body);
}

void ingest_server::handle_adopt(socket_conn& conn, const frame& f) {
    body_reader r(f.body, frame_context);
    const std::string token = r.str();
    const service::session_runtime_state st =
        service::session_runtime_state::deserialize(r.rest());

    service::session_config cfg = make_config_(token, st.patient_id);
    cfg.patient_id = st.patient_id;

    std::lock_guard<std::mutex> lock(map_mu_);
    if (global_to_local_.count(st.global_id)) {
        conn.send_error("adopt: global id already resident");
        return;
    }
    const std::uint64_t local = mgr_.adopt_session(std::move(cfg), st);
    if (local_to_global_.size() <= local)
        local_to_global_.resize(local + 1, ~std::uint64_t{0});
    local_to_global_[local] = st.global_id;
    global_to_local_[st.global_id] = local;
    token_of_global_[st.global_id] = token;

    body_writer w;
    w.u64(st.global_id);
    const std::vector<std::uint8_t> body = w.take();
    conn.send_frame(msg_type::adopt_ack, body);
}

void ingest_server::handle_session_query(socket_conn& conn, const frame& f) {
    body_reader r(f.body, frame_context);
    const std::uint64_t global_id = r.u64();
    r.expect_exhausted();

    const std::uint64_t local = local_of(global_id);
    body_writer w;
    if (local == ~std::uint64_t{0}) {
        w.flag(false);
    } else {
        const service::session& s = mgr_.at(local);
        w.flag(true);
        w.u64(global_id);
        w.u64(s.windows_completed());
        const std::span<const service::mode_switch_event> log =
            s.switch_log();
        w.u32(static_cast<std::uint32_t>(log.size()));
        for (const service::mode_switch_event& e : log) {
            w.u64(e.window_index);
            w.u64(static_cast<std::uint64_t>(e.mode_index));
        }
        w.bytes(service::serialize_reports(s.reports()));
    }
    const std::vector<std::uint8_t> body = w.take();
    conn.send_frame(msg_type::session_state, body);
}

service::fleet_snapshot ingest_server::fleet_global() const {
    // Snapshot first, then remap rows under the map mutex -- the same
    // local -> global rewrite shard_router::shard_fleet() performs.
    service::fleet_snapshot snap = mgr_.fleet();
    std::lock_guard<std::mutex> lock(map_mu_);
    const auto to_global = [this](std::uint64_t local) {
        return local < local_to_global_.size() ? local_to_global_[local]
                                               : local;
    };
    for (service::session_drop_alarm& a : snap.drop_alarms)
        a.session_id = to_global(a.session_id);
    for (service::session_quality& q : snap.quality)
        q.session_id = to_global(q.session_id);
    return snap;
}

}  // namespace qpsa::net
