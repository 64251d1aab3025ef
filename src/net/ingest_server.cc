#include "net/ingest_server.h"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "obs/log.h"

namespace disc {
namespace net {

namespace {

// Canned shed-load frame the accept thread answers when the connection
// queue is full. Built once: the overload path must stay allocation-light
// and — because it runs on the accept thread, outside the worker lanes'
// try/catch — must never throw, so no failpoint sits on it.
const std::string& OverloadFrame() {
  static const std::string frame = EncodeFrame(
      MessageType::kBusy,
      "ingest server overloaded: connection queue full, retry later");
  return frame;
}

}  // namespace

IngestServer::IngestServer(const IngestServerOptions& options)
    : options_(options) {}

IngestServer::~IngestServer() { Stop(); }

Status IngestServer::Start() {
  if (options_.engine == nullptr) {
    return Status::Error("ingest server needs an engine to front");
  }
  if (options_.max_pending_slides == 0) {
    return Status::Error(
        "ingest server needs max_pending_slides >= 1 (bounded admission is "
        "the backpressure contract)");
  }
  if (server_ != nullptr && server_->running()) {
    return Status::Error("ingest server already running on port " +
                         std::to_string(server_->port()));
  }

  SocketServerOptions socket_options;
  socket_options.name = "ingest";
  socket_options.bind_address = options_.bind_address;
  socket_options.port = options_.port;
  socket_options.worker_threads = options_.worker_threads;
  socket_options.max_queued_connections = options_.max_queued_connections;
  socket_options.io_timeout_s = options_.io_timeout_s;
  socket_options.accept_failpoint = "net.accept";
  socket_options.handler = [this](int fd) { HandleConnection(fd); };
  socket_options.on_overload = [this](int fd) {
    if (options_.metrics != nullptr) {
      options_.metrics->counter("net_busy_rejections_total").Add();
    }
    const std::string& frame = OverloadFrame();
    SendAllBytes(fd, frame.data(), frame.size());
  };

  auto server = std::make_unique<SocketServer>(std::move(socket_options));
  if (Status started = server->Start(); !started.ok()) return started;
  server_ = std::move(server);

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.metrics;
    m.counter("net_connections_total",
              "Connections the ingest server accepted");
    m.counter("net_frames_total",
              "Request frames the ingest server processed");
    m.counter("net_frames_bad_total",
              "Frames rejected before dispatch: torn, malformed, "
              "CRC-corrupt, or oversized");
    m.counter("net_busy_rejections_total",
              "Explicit BUSY answers: full admission queue or shed "
              "connection (never a silent drop)");
    m.counter("net_bytes_rx_total", "Frame bytes received by the ingest "
                                    "server (headers + payloads)");
    m.counter("net_bytes_tx_total",
              "Frame bytes sent by the ingest server");
    m.gauge("net_connections_open",
            "Ingest connections currently being served");
  }
  DISC_LOG(kInfo, "net.started")
      .Str("address", options_.bind_address)
      .Num("port", server_->port())
      .Num("lanes", options_.worker_threads)
      .Num("max_pending_slides", options_.max_pending_slides);
  return Status::Ok();
}

void IngestServer::Stop() {
  if (server_ != nullptr) server_->Stop();
}

bool IngestServer::running() const {
  return server_ != nullptr && server_->running();
}

std::uint16_t IngestServer::port() const {
  return server_ != nullptr ? server_->port() : 0;
}

bool IngestServer::SendFrame(int fd, MessageType type,
                             std::string_view payload) {
  // An injected write fault drops the connection (the worker lane's
  // try/catch closes the fd); the client sees a disconnect with the
  // request's outcome unknown — exactly the ambiguity a real network
  // failure produces, which the chaos harness drives clients through.
  DISC_FAILPOINT("net.frame.write");
  const std::string frame = EncodeFrame(type, payload);
  if (!SendAllBytes(fd, frame.data(), frame.size())) {
    DISC_LOG(kWarn, "net.send_failed")
        .Str("type", MessageTypeName(type))
        .Num("bytes", frame.size());
    return false;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter("net_bytes_tx_total").Add(frame.size());
  }
  return true;
}

void IngestServer::HandleConnection(int fd) {
  obs::MetricsRegistry* metrics = options_.metrics;
  if (metrics != nullptr) metrics->counter("net_connections_total").Add();
  const std::int64_t open =
      open_connections_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (metrics != nullptr) {
    metrics->gauge("net_connections_open").Set(static_cast<double>(open));
  }
  // The gauge must come back down however the connection ends — including
  // an injected fault unwinding through the worker lane's try/catch.
  struct ConnectionScope {
    IngestServer* server;
    ~ConnectionScope() {
      const std::int64_t now_open =
          server->open_connections_.fetch_sub(1, std::memory_order_relaxed) -
          1;
      if (server->options_.metrics != nullptr) {
        server->options_.metrics->gauge("net_connections_open")
            .Set(static_cast<double>(now_open));
      }
    }
  } scope{this};

  DISC_LOG(kDebug, "net.connected").Num("open", open);
  char header_buf[kFrameHeaderBytes];
  for (;;) {
    const std::size_t header_got =
        RecvFully(fd, header_buf, kFrameHeaderBytes);
    if (header_got == 0) break;  // Clean EOF between frames.
    if (header_got < kFrameHeaderBytes) {
      // Torn header: without the full 16 bytes there is no trustworthy
      // type to answer, so the clean disconnect is the whole response.
      if (metrics != nullptr) metrics->counter("net_frames_bad_total").Add();
      DISC_LOG(kWarn, "net.frame_torn")
          .Str("where", "header")
          .Num("got", header_got)
          .Num("need", kFrameHeaderBytes);
      break;
    }
    DISC_FAILPOINT("net.frame.read");

    FrameHeader header;
    if (Status parsed =
            ParseFrameHeader(header_buf, options_.max_frame_bytes, &header);
        !parsed.ok()) {
      if (metrics != nullptr) metrics->counter("net_frames_bad_total").Add();
      DISC_LOG(kWarn, "net.frame_rejected").Str("error", parsed.message());
      // Answer with the reason, then disconnect: past a bad header the
      // stream's framing cannot be trusted.
      SendFrame(fd, MessageType::kError, parsed.message());
      break;
    }

    std::string payload(header.payload_size, '\0');
    if (header.payload_size > 0) {
      const std::size_t payload_got =
          RecvFully(fd, payload.data(), payload.size());
      if (payload_got < payload.size()) {
        if (metrics != nullptr) {
          metrics->counter("net_frames_bad_total").Add();
        }
        DISC_LOG(kWarn, "net.frame_torn")
            .Str("where", "payload")
            .Num("got", payload_got)
            .Num("need", payload.size());
        SendFrame(fd, MessageType::kError,
                  "torn frame: got " + std::to_string(payload_got) + " of " +
                      std::to_string(payload.size()) + " payload bytes");
        break;
      }
    }

    if (Status crc = VerifyPayloadCrc(header, payload); !crc.ok()) {
      if (metrics != nullptr) metrics->counter("net_frames_bad_total").Add();
      DISC_LOG(kWarn, "net.frame_rejected").Str("error", crc.message());
      SendFrame(fd, MessageType::kError, crc.message());
      break;  // Corruption in transit: resynchronization is hopeless.
    }
    if (!IsRequestType(static_cast<std::uint8_t>(header.type))) {
      if (metrics != nullptr) metrics->counter("net_frames_bad_total").Add();
      const std::string error =
          std::string("expected a request frame, got response type ") +
          MessageTypeName(header.type);
      DISC_LOG(kWarn, "net.frame_rejected").Str("error", error);
      SendFrame(fd, MessageType::kError, error);
      break;
    }

    if (metrics != nullptr) {
      metrics->counter("net_frames_total").Add();
      metrics->counter("net_bytes_rx_total")
          .Add(kFrameHeaderBytes + payload.size());
    }
    std::string response_payload;
    const MessageType response_type =
        Dispatch(header.type, payload, &response_payload);
    if (!SendFrame(fd, response_type, response_payload)) break;
  }
  DISC_LOG(kDebug, "net.disconnected").Num("open", open - 1);
}

MessageType IngestServer::Dispatch(MessageType type,
                                   const std::string& payload,
                                   std::string* response_payload) {
  response_payload->clear();
  switch (type) {
    case MessageType::kCreateSession: {
      CreateSessionRequest request;
      if (Status decoded = DecodeCreateSession(payload, &request);
          !decoded.ok()) {
        *response_payload = decoded.message();
        return MessageType::kError;
      }
      SessionOptions session;
      session.spec.dims = request.dims;
      session.spec.window_size = request.window_size;
      session.spec.stride = request.stride;
      session.spec.disc.eps = request.eps;
      session.spec.disc.tau = request.tau;
      if (Status created = options_.engine->CreateSession(request.name,
                                                          session);
          !created.ok()) {
        *response_payload = created.message();
        return MessageType::kError;
      }
      DISC_LOG(kInfo, "net.session_created").Str("session", request.name);
      return MessageType::kOk;
    }

    case MessageType::kFeedSlide: {
      FeedSlideRequest request;
      if (Status decoded = DecodeFeedSlide(payload, &request);
          !decoded.ok()) {
        *response_payload = decoded.message();
        return MessageType::kError;
      }
      // The admission fault surface: a kStatus rule rejects the slide
      // (answered kError, nothing admitted — the producer retries), a
      // kThrow rule kills the connection before any admission.
      if (failpoint::Armed()) {
        if (Status injected = failpoint::HitStatus("net.admit");
            !injected.ok()) {
          *response_payload = injected.message();
          return MessageType::kError;
        }
      }
      bool busy = false;
      const Status fed = options_.engine->FeedSlideBounded(
          request.name, request.points, options_.max_pending_slides, &busy);
      if (busy) {
        if (options_.metrics != nullptr) {
          options_.metrics->counter("net_busy_rejections_total").Add();
        }
        DISC_LOG(kWarn, "net.busy")
            .Str("session", request.name)
            .Num("bound", options_.max_pending_slides);
        *response_payload = fed.message();
        return MessageType::kBusy;
      }
      if (!fed.ok()) {
        *response_payload = fed.message();
        return MessageType::kError;
      }
      return MessageType::kOk;
    }

    case MessageType::kDrain: {
      if (!payload.empty()) {
        *response_payload = "Drain carries no payload";
        return MessageType::kError;
      }
      const std::uint64_t executed = options_.engine->Drain();
      *response_payload = EncodeU64(executed);
      return MessageType::kDrained;
    }

    case MessageType::kQuerySnapshot: {
      std::string name;
      if (Status decoded = DecodeSessionName(payload, &name);
          !decoded.ok()) {
        *response_payload = decoded.message();
        return MessageType::kError;
      }
      ClusteringSnapshot snapshot;
      if (Status queried = options_.engine->QuerySnapshot(name, &snapshot);
          !queried.ok()) {
        *response_payload = queried.message();
        return MessageType::kError;
      }
      *response_payload = EncodeSnapshot(snapshot);
      return MessageType::kSnapshot;
    }

    case MessageType::kCloseSession: {
      std::string name;
      if (Status decoded = DecodeSessionName(payload, &name);
          !decoded.ok()) {
        *response_payload = decoded.message();
        return MessageType::kError;
      }
      if (Status closed = options_.engine->CloseSession(name);
          !closed.ok()) {
        *response_payload = closed.message();
        return MessageType::kError;
      }
      DISC_LOG(kInfo, "net.session_closed").Str("session", name);
      return MessageType::kOk;
    }

    case MessageType::kPing:
      *response_payload = payload;  // Echo.
      return MessageType::kPong;

    default:
      // Unreachable: HandleConnection filters to request types. Kept so a
      // future MessageType gains an explicit answer instead of UB.
      *response_payload = std::string("unhandled request type ") +
                          MessageTypeName(type);
      return MessageType::kError;
  }
}

}  // namespace net
}  // namespace disc
