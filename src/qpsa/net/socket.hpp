// Stream-socket transport for qpsa::net frames: TCP and Unix-domain.
//
// Thin RAII wrappers over POSIX sockets, shaped for the fleet daemons:
//
//   * endpoint -- "tcp:host:port" / "unix:/path" textual addresses, so
//     daemon flags and test fixtures share one parser.  TCP port 0 binds
//     an ephemeral port and listener::local() reports the resolved one
//     (how the tests avoid port collisions);
//   * socket_conn -- a connected stream; send_frame/recv_frame speak the
//     QPNT framing with an I/O deadline per operation, and byte counters
//     feed the transport bench;
//   * listener -- bound+listening socket; accept() takes a timeout so
//     server loops can poll a stop flag instead of blocking forever;
//   * dial() -- connect with exponential backoff, the reconnect story
//     for publishers whose aggregator comes up later (or restarts).
//
// Error taxonomy: transport failures (refused, timeout, EOF mid-frame,
// syscall errors) throw net_error; a frame that arrives complete but
// does not checksum throws service::wire_error, same as every other
// qpsa wire reader.  Clean EOF between frames is not an error -- peers
// end with bye, but a vanished process must not poison the survivor.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "qpsa/net/frame.hpp"

namespace qpsa::net {

/// Thrown on transport failures (connect/read/write/timeout); wire-level
/// corruption throws service::wire_error instead.
class net_error : public std::runtime_error {
public:
    explicit net_error(const std::string& what) : std::runtime_error(what) {}
};

struct endpoint {
    enum class kind : std::uint8_t { tcp, unix_path };
    kind transport = kind::tcp;
    std::string host;        ///< tcp only
    std::uint16_t port = 0;  ///< tcp only; 0 = ephemeral (listeners)
    std::string path;        ///< unix only

    /// Parse "tcp:host:port" or "unix:/path"; throws net_error on
    /// malformed input.
    static endpoint parse(const std::string& text);
    std::string to_string() const;

    bool operator==(const endpoint&) const = default;
};

/// Reconnect policy for dial(): exponential backoff between attempts.
struct dial_options {
    int max_attempts = 40;        ///< throws net_error once exhausted
    int initial_backoff_ms = 10;  ///< doubles per attempt...
    int max_backoff_ms = 500;     ///< ...capped here
    int io_timeout_ms = 5000;     ///< per-operation deadline on the conn
};

/// One connected stream socket (move-only RAII).
class socket_conn {
public:
    socket_conn() = default;
    explicit socket_conn(int fd, int io_timeout_ms = 5000);
    ~socket_conn();

    socket_conn(socket_conn&& o) noexcept;
    socket_conn& operator=(socket_conn&& o) noexcept;
    socket_conn(const socket_conn&) = delete;
    socket_conn& operator=(const socket_conn&) = delete;

    bool valid() const noexcept {
        return fd_.load(std::memory_order_relaxed) >= 0;
    }
    void close() noexcept;

    /// Half of a cross-thread stop: shut the socket down (waking any
    /// thread blocked in poll/recv on it, which then fails/EOFs out and
    /// closes the conn itself) WITHOUT closing the fd.  Daemon stop()
    /// paths use this on handler connections before joining the handler
    /// threads -- the owner thread keeps the only close().
    void shutdown() noexcept;

    /// Frame and send one message; blocks up to the I/O deadline per
    /// write.  Throws net_error on failure.
    void send_frame(msg_type type, std::span<const std::uint8_t> body);
    /// Send an error frame carrying `message` (u16 length + bytes).
    void send_error(std::string_view message);

    /// Receive one frame.  Returns nullopt on clean EOF at a frame
    /// boundary; throws net_error on timeout/EOF mid-frame and
    /// service::wire_error on corruption.
    std::optional<frame> recv_frame();

    /// Per-operation deadline (applies to each blocking read/write).
    void set_io_timeout(int ms) noexcept { io_timeout_ms_ = ms; }

    std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
    std::uint64_t bytes_received() const noexcept { return bytes_received_; }
    std::uint64_t frames_sent() const noexcept { return frames_sent_; }
    std::uint64_t frames_received() const noexcept {
        return frames_received_;
    }

private:
    void send_all(const std::uint8_t* p, std::size_t n);
    /// Read exactly n bytes; returns false on EOF before the first byte
    /// when eof_ok (clean close), throws otherwise.
    bool recv_all(std::uint8_t* p, std::size_t n, bool eof_ok);
    void wait_readable();
    void wait_writable();

    /// Atomic so a stopper's shutdown()/valid() can race the owner
    /// thread's close() without UB; exchange in close() makes the
    /// actual ::close single-shot.
    std::atomic<int> fd_{-1};
    int io_timeout_ms_ = 5000;
    std::uint64_t bytes_sent_ = 0;
    std::uint64_t bytes_received_ = 0;
    std::uint64_t frames_sent_ = 0;
    std::uint64_t frames_received_ = 0;
};

/// Bound, listening socket (move-only RAII).  Unix listeners unlink a
/// stale socket file on bind and remove it on close.
class listener {
public:
    explicit listener(const endpoint& ep);
    ~listener();

    listener(listener&& o) noexcept;
    listener& operator=(listener&&) = delete;
    listener(const listener&) = delete;
    listener& operator=(const listener&) = delete;

    /// The bound address with any ephemeral TCP port resolved.
    const endpoint& local() const noexcept { return local_; }

    /// Accept one connection, waiting up to timeout_ms (-1 = forever).
    /// Returns nullopt on timeout so accept loops can poll a stop flag.
    std::optional<socket_conn> accept(int timeout_ms,
                                      int conn_io_timeout_ms = 5000);

    void close() noexcept;

private:
    int fd_ = -1;
    endpoint local_;
};

/// Connect to a peer, retrying with exponential backoff -- publishers
/// and front-ends outlive aggregator restarts this way.  Throws
/// net_error when every attempt fails.
socket_conn dial(const endpoint& ep, const dial_options& opt = {});

/// One connection attempt, no retry.  Returns an invalid conn on
/// failure (the backoff loop's primitive).
socket_conn try_dial(const endpoint& ep, int io_timeout_ms);

}  // namespace qpsa::net
