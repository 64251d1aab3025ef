#include "common/socket_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>

#include "common/failpoint.h"
#include "obs/log.h"

namespace disc {

namespace {

// Table-driven IEEE CRC-32. The table is a pure function of the
// polynomial, built once at first use (thread-safe since C++11 via the
// function-local static).
const std::array<std::uint32_t, 256>& Crc32Table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& table = Crc32Table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status OpenTcpListener(const std::string& bind_address, std::uint16_t port,
                       int backlog, int* listen_fd,
                       std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Error(std::string("socket(): ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::Error("bad bind address \"" + bind_address + "\"");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Error("cannot bind " + bind_address + ":" +
                         std::to_string(port) + ": " + error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Error(std::string("getsockname(): ") + error);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Error(std::string("listen(): ") + error);
  }
  *listen_fd = fd;
  *bound_port = ntohs(bound.sin_port);
  return Status::Ok();
}

void SetIoTimeouts(int fd, int seconds) {
  timeval timeout{};
  timeout.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

bool SendAllBytes(int fd, const void* data, std::size_t size) {
  const char* bytes = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;  // Peer went away; nothing useful to do.
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t RecvFully(int fd, void* data, std::size_t size) {
  char* bytes = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, bytes + got, size - got, 0);
    if (n <= 0) break;  // EOF, reset, or timeout: report the torn count.
    got += static_cast<std::size_t>(n);
  }
  return got;
}

// ---------------------------------------------------------------------------
// SocketServer
// ---------------------------------------------------------------------------

SocketServer::SocketServer(SocketServerOptions options)
    : options_(std::move(options)) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Error(options_.name + " server already running on port " +
                         std::to_string(bound_port_));
  }
  if (!options_.handler) {
    return Status::Error(options_.name +
                         " server needs a connection handler");
  }
  int fd = -1;
  std::uint16_t bound = 0;
  if (Status opened =
          OpenTcpListener(options_.bind_address, options_.port,
                          options_.listen_backlog, &fd, &bound);
      !opened.ok()) {
    return opened;
  }
  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Error(std::string("pipe(): ") + error);
  }
  listen_fd_ = fd;
  wake_read_fd_ = wake[0];
  wake_write_fd_ = wake[1];
  bound_port_ = bound;
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
  const std::size_t workers =
      options_.worker_threads == 0 ? 1 : options_.worker_threads;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
  DISC_LOG(kInfo, "sockserv.started")
      .Str("server", options_.name)
      .Str("address", options_.bind_address)
      .Num("port", bound_port_)
      .Num("workers", workers);
  return Status::Ok();
}

void SocketServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    // Under the queue mutex, so a worker between its wait predicate and
    // its block cannot miss the notify below (a lost wake-up hangs join).
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  const char wake_byte = 'x';
  // A failed wake write leaves the 1 s poll timeout as the fallback.
  if (wake_write_fd_ >= 0) {
    [[maybe_unused]] const ssize_t written =
        ::write(wake_write_fd_, &wake_byte, 1);
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Workers exit once the queue drains, so nothing should be left; close
  // defensively anyway.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (const int pending_fd : pending_) ::close(pending_fd);
    pending_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  DISC_LOG(kInfo, "sockserv.stopped")
      .Str("server", options_.name)
      .Num("port", bound_port_);
  bound_port_ = 0;
}

void SocketServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = wake_read_fd_;
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    const int ready = ::poll(fds, 2, /*timeout_ms=*/1000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // Stop() wrote the wake byte.
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    if (options_.accept_failpoint != nullptr && failpoint::Armed()) {
      try {
        failpoint::Hit(options_.accept_failpoint);
      } catch (const std::exception& e) {
        // An injected accept fault costs one connection (the client sees
        // a reset), never the accept thread.
        DISC_LOG(kError, "sockserv.accept_fault")
            .Str("server", options_.name)
            .Str("error", e.what());
        ::close(conn);
        continue;
      }
    }
    // A stuck client must not wedge a worker: cap both directions.
    SetIoTimeouts(conn, options_.io_timeout_s);
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (pending_.size() < options_.max_queued_connections) {
        pending_.push_back(conn);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      // Bounded handling: shed load in the accept thread with the owner's
      // canned response instead of queueing without limit.
      if (options_.on_overload) options_.on_overload(conn);
      ::close(conn);
      DISC_LOG(kWarn, "sockserv.overloaded")
          .Str("server", options_.name)
          .Num("queued", options_.max_queued_connections);
    }
  }
}

void SocketServer::WorkerLoop() {
  for (;;) {
    int conn = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this]() REQUIRES(queue_mutex_) {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (pending_.empty()) return;  // Stopping and drained.
      conn = pending_.front();
      pending_.pop_front();
    }
    // A throwing handler (a bug, or an injected fault) must cost one
    // connection, never the worker lane — the fd still closes and the
    // loop keeps serving.
    try {
      options_.handler(conn);
    } catch (const std::exception& e) {
      DISC_LOG(kError, "sockserv.worker_error")
          .Str("server", options_.name)
          .Str("error", e.what());
    }
    ::close(conn);
  }
}

}  // namespace disc
