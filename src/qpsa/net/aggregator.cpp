#include "qpsa/net/aggregator.hpp"

namespace qpsa::net {

aggregator::aggregator(aggregator_options opt)
    : opt_(std::move(opt)), listener_(opt_.listen) {}

aggregator::~aggregator() {
    try {
        stop();
    } catch (...) {
        // Destructor must not throw.
    }
}

void aggregator::start() {
    if (accept_thread_.joinable()) return;
    stop_.store(false, std::memory_order_relaxed);
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void aggregator::stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::unique_ptr<connection>> conns;
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns.swap(conns_);
    }
    // shutdown() wakes each handler's blocked poll/recv; the handler
    // then EOFs/fails out and closes its own conn (single-owner close,
    // so stop never races a handler mid-recv).
    for (auto& c : conns) c->conn.shutdown();
    for (auto& c : conns)
        if (c->thread.joinable()) c->thread.join();
    listener_.close();
}

void aggregator::accept_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
        std::optional<socket_conn> accepted;
        try {
            accepted = listener_.accept(/*timeout_ms=*/50,
                                        opt_.heartbeat_timeout_ms);
        } catch (const net_error&) {
            // Listener closed under us during stop(); or a transient
            // accept failure -- either way, re-check the stop flag.
            continue;
        }
        if (!accepted) continue;
        accepted_.fetch_add(1, std::memory_order_relaxed);

        std::lock_guard<std::mutex> lock(conns_mu_);
        reap_locked();
        auto c = std::make_unique<connection>();
        c->conn = std::move(*accepted);
        connection* raw = c.get();
        c->thread = std::thread([this, raw] { serve(raw->conn); });
        conns_.push_back(std::move(c));
    }
}

void aggregator::reap_locked() {
    std::erase_if(conns_, [](const std::unique_ptr<connection>& c) {
        if (c->conn.valid()) return false;
        if (c->thread.joinable()) c->thread.join();
        return true;
    });
}

void aggregator::serve(socket_conn& conn) {
    try {
        while (!stop_.load(std::memory_order_relaxed)) {
            std::optional<frame> f = conn.recv_frame();
            if (!f) break;  // clean EOF
            bytes_received_.fetch_add(f->body.size() + frame_header_bytes + 1,
                                      std::memory_order_relaxed);
            switch (f->type) {
                case msg_type::hello: {
                    body_reader r(f->body, frame_context);
                    const std::uint16_t proto = r.u16();
                    if (proto > net_protocol_version) {
                        conn.send_error("protocol version too new");
                        conn.close();
                        return;
                    }
                    break;
                }
                case msg_type::snapshot: {
                    body_reader r(f->body, frame_context);
                    const std::uint32_t shard = r.u32();
                    service::fleet_snapshot snap =
                        service::fleet_snapshot::deserialize(r.rest());
                    std::lock_guard<std::mutex> lock(snap_mu_);
                    latest_[shard] = std::move(snap);
                    snapshots_.fetch_add(1, std::memory_order_relaxed);
                    break;
                }
                case msg_type::heartbeat:
                    heartbeats_.fetch_add(1, std::memory_order_relaxed);
                    break;
                case msg_type::stats_query: {
                    const std::vector<std::uint8_t> body =
                        merged().serialize();
                    conn.send_frame(msg_type::stats_reply, body);
                    break;
                }
                case msg_type::bye:
                    conn.close();
                    return;
                default:
                    conn.send_error("unexpected message type");
                    break;
            }
        }
    } catch (const net_error&) {
        // Timeout past the heartbeat deadline, vanished peer, or our own
        // stop() closing the socket: drop the connection; a live
        // publisher redials.
    } catch (const service::wire_error&) {
        // Corrupt frame: this peer's stream is unusable; drop it.
    }
    conn.close();
}

service::fleet_snapshot aggregator::merged() const {
    std::lock_guard<std::mutex> lock(snap_mu_);
    service::fleet_snapshot out;
    bool first = true;
    for (const auto& [shard, snap] : latest_) {
        if (first) {
            out = snap;
            first = false;
        } else {
            out += snap;
        }
    }
    return out;
}

std::size_t aggregator::shards_reporting() const {
    std::lock_guard<std::mutex> lock(snap_mu_);
    return latest_.size();
}

}  // namespace qpsa::net
