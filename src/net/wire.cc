#include "net/wire.h"

#include <cstdio>
#include <cstring>

#include "common/socket_util.h"

namespace disc {
namespace net {

namespace {

void PutLe16(std::string* out, std::uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFFu));
  out->push_back(static_cast<char>((v >> 8) & 0xFFu));
}

void PutLe32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint32_t GetLe32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

constexpr std::size_t kMaxWireString = 1u << 20;

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kCreateSession: return "CreateSession";
    case MessageType::kFeedSlide: return "FeedSlide";
    case MessageType::kDrain: return "Drain";
    case MessageType::kQuerySnapshot: return "QuerySnapshot";
    case MessageType::kCloseSession: return "CloseSession";
    case MessageType::kPing: return "Ping";
    case MessageType::kOk: return "Ok";
    case MessageType::kError: return "Error";
    case MessageType::kBusy: return "Busy";
    case MessageType::kDrained: return "Drained";
    case MessageType::kSnapshot: return "Snapshot";
    case MessageType::kPong: return "Pong";
  }
  return "Unknown";
}

bool IsRequestType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(MessageType::kCreateSession) &&
         type <= static_cast<std::uint8_t>(MessageType::kPing);
}

bool IsResponseType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(MessageType::kOk) &&
         type <= static_cast<std::uint8_t>(MessageType::kPong);
}

std::string EncodeFrame(MessageType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutLe32(&out, kFrameMagic);
  out.push_back(static_cast<char>(type));
  out.push_back('\0');  // flags
  PutLe16(&out, 0);     // reserved
  PutLe32(&out, static_cast<std::uint32_t>(payload.size()));
  PutLe32(&out, Crc32(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

Status ParseFrameHeader(const char* data, std::size_t max_frame_bytes,
                        FrameHeader* out) {
  const std::uint32_t magic = GetLe32(data);
  if (magic != kFrameMagic) {
    return Status::Error("bad frame magic 0x" + [magic] {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08x", magic);
      return std::string(buf);
    }());
  }
  const std::uint8_t type = static_cast<std::uint8_t>(data[4]);
  if (!IsRequestType(type) && !IsResponseType(type)) {
    return Status::Error("unknown frame type " + std::to_string(type));
  }
  if (data[5] != 0 || data[6] != 0 || data[7] != 0) {
    return Status::Error("nonzero flags/reserved bytes in frame header");
  }
  const std::uint32_t payload_size = GetLe32(data + 8);
  if (payload_size > max_frame_bytes) {
    return Status::Error("frame payload of " + std::to_string(payload_size) +
                         " bytes exceeds the " +
                         std::to_string(max_frame_bytes) + "-byte frame cap");
  }
  out->type = static_cast<MessageType>(type);
  out->payload_size = payload_size;
  out->payload_crc = GetLe32(data + 12);
  return Status::Ok();
}

Status VerifyPayloadCrc(const FrameHeader& header, std::string_view payload) {
  const std::uint32_t actual = Crc32(payload.data(), payload.size());
  if (actual != header.payload_crc) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "payload CRC mismatch: header %08x, "
                  "computed %08x", header.payload_crc, actual);
    return Status::Error(buf);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// WireWriter / WireReader
// ---------------------------------------------------------------------------

void WireWriter::U32(std::uint32_t v) { PutLe32(&out_, v); }

void WireWriter::U64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void WireWriter::F64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  out_.append(s);
}

bool WireReader::Take(std::size_t n, const char** out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint8_t WireReader::U8() {
  const char* p = nullptr;
  if (!Take(1, &p)) return 0;
  return static_cast<std::uint8_t>(*p);
}

std::uint32_t WireReader::U32() {
  const char* p = nullptr;
  if (!Take(4, &p)) return 0;
  return GetLe32(p);
}

std::uint64_t WireReader::U64() {
  const char* p = nullptr;
  if (!Take(8, &p)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

double WireReader::F64() {
  const std::uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::Str() {
  const std::uint32_t size = U32();
  if (size > kMaxWireString) {
    ok_ = false;
    return std::string();
  }
  const char* p = nullptr;
  if (!Take(size, &p)) return std::string();
  return std::string(p, size);
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

std::string EncodeCreateSession(const CreateSessionRequest& request) {
  WireWriter w;
  w.Str(request.name);
  w.U32(request.dims);
  w.U64(request.window_size);
  w.U64(request.stride);
  w.F64(request.eps);
  w.U32(request.tau);
  return w.Take();
}

Status DecodeCreateSession(std::string_view payload,
                           CreateSessionRequest* out) {
  WireReader r(payload);
  out->name = r.Str();
  out->dims = r.U32();
  out->window_size = r.U64();
  out->stride = r.U64();
  out->eps = r.F64();
  out->tau = r.U32();
  if (!r.AtEnd()) {
    return Status::Error("malformed CreateSession payload");
  }
  return Status::Ok();
}

std::string EncodeFeedSlide(const FeedSlideRequest& request) {
  WireWriter w;
  w.Str(request.name);
  const std::uint32_t dims =
      request.points.empty() ? 0 : request.points.front().dims;
  w.U32(dims);
  w.U32(static_cast<std::uint32_t>(request.points.size()));
  for (const Point& p : request.points) {
    w.U64(p.id);
    for (std::uint32_t d = 0; d < dims; ++d) w.F64(p.x[d]);
  }
  return w.Take();
}

Status DecodeFeedSlide(std::string_view payload, FeedSlideRequest* out) {
  WireReader r(payload);
  out->name = r.Str();
  const std::uint32_t dims = r.U32();
  const std::uint32_t count = r.U32();
  if (!r.ok()) return Status::Error("malformed FeedSlide payload");
  // Geometry gates before any allocation sized by attacker-controlled
  // counts: dims must fit a Point, and the byte math must square with the
  // actual payload size (the CRC already passed, so a mismatch here is a
  // mis-encoded frame, not corruption).
  if (dims < 1 || dims > static_cast<std::uint32_t>(kMaxDims)) {
    return Status::Error("FeedSlide dims=" + std::to_string(dims) +
                         " outside [1, " + std::to_string(kMaxDims) + "]");
  }
  const std::size_t per_point = 8 + std::size_t{dims} * 8;
  const std::size_t expected = std::size_t{count} * per_point;
  const std::size_t remaining = payload.size() - (out->name.size() + 12);
  if (remaining != expected) {
    return Status::Error(
        "FeedSlide payload size mismatch: " + std::to_string(count) +
        " points at dims=" + std::to_string(dims) + " need " +
        std::to_string(expected) + " bytes, got " + std::to_string(remaining));
  }
  out->points.clear();
  out->points.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Point p;
    p.id = r.U64();
    p.dims = dims;
    for (std::uint32_t d = 0; d < dims; ++d) p.x[d] = r.F64();
    out->points.push_back(p);
  }
  if (!r.AtEnd()) return Status::Error("malformed FeedSlide payload");
  return Status::Ok();
}

std::string EncodeSessionName(std::string_view name) {
  WireWriter w;
  w.Str(name);
  return w.Take();
}

Status DecodeSessionName(std::string_view payload, std::string* out) {
  WireReader r(payload);
  *out = r.Str();
  if (!r.AtEnd()) return Status::Error("malformed session-name payload");
  return Status::Ok();
}

std::string EncodeU64(std::uint64_t value) {
  WireWriter w;
  w.U64(value);
  return w.Take();
}

Status DecodeU64(std::string_view payload, std::uint64_t* out) {
  WireReader r(payload);
  *out = r.U64();
  if (!r.AtEnd()) return Status::Error("malformed u64 payload");
  return Status::Ok();
}

std::string EncodeSnapshot(const ClusteringSnapshot& snapshot) {
  WireWriter w;
  w.U64(snapshot.size());
  // Parallel arrays walked by index — snapshot order (ascending point id,
  // the producer contract), never container hash order.
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    w.U64(snapshot.ids[i]);
    w.U8(static_cast<std::uint8_t>(snapshot.categories[i]));
    w.I64(snapshot.cids[i]);
  }
  return w.Take();
}

Status DecodeSnapshot(std::string_view payload, ClusteringSnapshot* out) {
  WireReader r(payload);
  const std::uint64_t count = r.U64();
  if (!r.ok()) return Status::Error("malformed Snapshot payload");
  const std::size_t expected = 8 + static_cast<std::size_t>(count) * 17;
  if (payload.size() != expected) {
    return Status::Error("Snapshot payload size mismatch: " +
                         std::to_string(count) + " rows need " +
                         std::to_string(expected) + " bytes, got " +
                         std::to_string(payload.size()));
  }
  out->ids.clear();
  out->categories.clear();
  out->cids.clear();
  out->ids.reserve(count);
  out->categories.reserve(count);
  out->cids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out->ids.push_back(r.U64());
    const std::uint8_t category = r.U8();
    if (category > static_cast<std::uint8_t>(Category::kNoise)) {
      return Status::Error("Snapshot row " + std::to_string(i) +
                           ": unknown category byte " +
                           std::to_string(category));
    }
    out->categories.push_back(static_cast<Category>(category));
    out->cids.push_back(r.I64());
  }
  if (!r.AtEnd()) return Status::Error("malformed Snapshot payload");
  return Status::Ok();
}

}  // namespace net
}  // namespace disc
