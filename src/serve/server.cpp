#include "serve/server.hpp"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "observability/metrics.hpp"
#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "serve/fd_stream.hpp"
#include "serve/protocol.hpp"

namespace kstable::serve {

ServeEngine::ResponseSink make_stream_sink(std::ostream& os) {
  // The mutex is owned by the sink (shared_ptr) because sink copies travel
  // into pool worker tasks: every copy must serialize on the same lock.
  auto mutex = std::make_shared<std::mutex>();
  return [&os, mutex](const Frame& frame) {
    std::scoped_lock lock(*mutex);
    write_frame(os, frame);
    os.flush();
    if (!os) throw std::runtime_error("stream sink write failed");
  };
}

void pump_stream(ServeEngine& engine, std::istream& is,
                 const ServeEngine::ResponseSink& sink) {
  while (!engine.drain_requested()) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(is);
    } catch (const InjectedFault& e) {
      // The frame_parse fault fires after the frame's bytes are consumed:
      // the stream is synchronized, no resync needed.
      KSTABLE_COUNTER_ADD("serve.faults.frame_parse", 1);
      engine.on_bad_frame(e.what(), sink);
      continue;
    } catch (const ParseError& e) {
      engine.on_bad_frame(e.what(), sink);
      if (!resync_to_frame(is)) break;
      continue;
    }
    if (!frame) break;  // clean EOF (or a drain signal popped the read)
    engine.handle(std::move(*frame), sink);
  }
}

void pump_stream(ServeEngine& engine, std::istream& is) {
  pump_stream(engine, is, engine.default_sink());
}

namespace {

std::atomic<ServeEngine*> g_drain_engine{nullptr};
volatile std::sig_atomic_t g_drain_signal = 0;

// Async-signal-safe: one sig_atomic_t store plus one lock-free atomic store
// (request_drain). No locks, no allocation, no I/O.
void drain_signal_handler(int /*signo*/) {
  g_drain_signal = 1;
  if (ServeEngine* engine = g_drain_engine.load(std::memory_order_relaxed)) {
    engine->request_drain();
  }
}

}  // namespace

void install_drain_signal_handlers(ServeEngine& engine) {
  g_drain_engine.store(&engine, std::memory_order_relaxed);

  struct sigaction action {};
  action.sa_handler = drain_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately NOT SA_RESTART: blocked reads must
                        // return EINTR so the transport observes the drain
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  // A peer that hangs up mid-response must surface as a failed send
  // (counted in responses_dropped), never as process death.
  std::signal(SIGPIPE, SIG_IGN);
}

bool drain_signal_seen() noexcept { return g_drain_signal != 0; }

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// One accepted connection. The fd is closed when the LAST reference drops —
/// pool workers hold sink copies that may outlive the reader thread, and a
/// closed-and-reused fd number must never receive another request's response.
struct TcpServer::Conn {
  explicit Conn(int fd_in) : fd(fd_in) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  const int fd;
  std::mutex write_mutex;
};

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

TcpServer::TcpServer(ServeEngine& engine, std::uint16_t port)
    : engine_(engine) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket() failed");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ") failed");
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("listen() failed");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);
}

TcpServer::~TcpServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  // conns_ drops its references here; each fd closes when pool workers drop
  // the last sink copy (the engine outlives this object in the CLI, and its
  // destructor joins the pool).
}

void TcpServer::run() {
  std::vector<std::thread> readers;

  while (!engine_.drain_requested()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);  // 100 ms drain-flag heartbeat
    if (ready <= 0) continue;  // timeout or EINTR: re-check the drain flag

    const int conn_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (conn_fd < 0) continue;

    // Accept-path fault: the connection is dropped before any frame is
    // read. The client sees a closed socket and reconnects with backoff —
    // no request was acknowledged, so nothing can be lost.
    try {
      KSTABLE_FAULT_POINT("serve/accept");
    } catch (const ExecutionAborted&) {
      KSTABLE_COUNTER_ADD("serve.faults.accept", 1);
      ::close(conn_fd);
      continue;
    }

    auto conn = std::make_shared<Conn>(conn_fd);
    {
      std::scoped_lock lock(conns_mutex_);
      conns_.push_back(conn);
    }
    KSTABLE_COUNTER_ADD("serve.connections.accepted", 1);

    // Per-connection sink: serialize the whole frame first so the locked
    // section is one send burst — interleaved partial frames from two
    // workers would corrupt the stream for the client.
    ServeEngine::ResponseSink sink = [conn](const Frame& frame) {
      std::ostringstream os;
      write_frame(os, frame);
      const std::string bytes = os.str();
      std::scoped_lock lock(conn->write_mutex);
      if (!send_all(conn->fd, bytes.data(), bytes.size())) {
        throw std::runtime_error("connection write failed");
      }
    };
    readers.emplace_back([this, conn, sink = std::move(sink)] {
      FdReadBuf buffer(conn->fd);
      std::istream is(&buffer);
      pump_stream(engine_, is, sink);
    });
  }

  // Drain: stop reading everywhere. SHUT_RD pops blocked readers out of
  // ::read with EOF while leaving write sides open, so in-flight responses
  // still reach their clients while engine.drain() waits.
  {
    std::scoped_lock lock(conns_mutex_);
    for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RD);
  }
  for (auto& reader : readers) reader.join();
}

}  // namespace kstable::serve
