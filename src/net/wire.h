#ifndef DISC_NET_WIRE_H_
#define DISC_NET_WIRE_H_

// Binary wire protocol of the ingest/query plane (docs/API.md §net).
//
// Every message travels as one length-prefixed, CRC32-checked frame:
//
//   offset  size  field
//        0     4  magic 0x43534944 — the bytes "DISC" on the wire
//        4     1  message type (MessageType)
//        5     1  flags, must be 0 (reserved)
//        6     2  reserved, must be 0
//        8     4  payload size in bytes
//       12     4  CRC32 (IEEE, common/socket_util.h) of the payload
//       16     …  payload
//
// All integers are little-endian on the wire, floats are IEEE-754 binary64
// bit patterns — explicitly serialized byte by byte, so the format does
// not depend on host endianness or struct layout. Strings are a u32
// length followed by raw bytes.
//
// The receiving side validates in this order: magic, flags/reserved
// zero, known type, payload size against the frame cap, then — after the
// payload arrives — the CRC. A violation at any step yields a descriptive
// kError frame (or a clean disconnect when the stream died mid-frame),
// never a partially-admitted message: decoding is all-or-nothing.
//
// Requests mirror the DiscEngine surface (CreateSession / FeedSlide /
// Drain / QuerySnapshot / CloseSession) plus Ping; responses mirror
// disc::Status — kOk/kError carry the outcome, kBusy is the explicit
// backpressure signal (admission queue full: retry after a drain, the
// slide was NOT admitted), kDrained/kSnapshot/kPong carry result
// payloads.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/point.h"
#include "common/status.h"
#include "stream/stream_clusterer.h"

namespace disc {
namespace net {

// "DISC" read little-endian.
inline constexpr std::uint32_t kFrameMagic = 0x43534944u;
inline constexpr std::size_t kFrameHeaderBytes = 16;
// Default cap on a frame's payload; IngestServerOptions/IngestClientOptions
// can lower it. A length prefix above the cap is rejected before any
// payload byte is read.
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;

enum class MessageType : std::uint8_t {
  // Requests.
  kCreateSession = 1,
  kFeedSlide = 2,
  kDrain = 3,
  kQuerySnapshot = 4,
  kCloseSession = 5,
  kPing = 6,
  // Responses.
  kOk = 64,        // Empty payload: the request succeeded.
  kError = 65,     // Payload: the Status message (request rejected/failed).
  kBusy = 66,      // Payload: message; admission queue full, retry later.
  kDrained = 67,   // Payload: u64 — slides executed by the drain.
  kSnapshot = 68,  // Payload: an encoded ClusteringSnapshot.
  kPong = 69,      // Payload: the ping payload, echoed.
};

const char* MessageTypeName(MessageType type);
bool IsRequestType(std::uint8_t type);
bool IsResponseType(std::uint8_t type);

// Parsed frame header (the fixed 16 bytes, already validated).
struct FrameHeader {
  MessageType type = MessageType::kPing;
  std::uint32_t payload_size = 0;
  std::uint32_t payload_crc = 0;
};

// One whole frame ready to serialize: EncodeFrame computes size + CRC.
std::string EncodeFrame(MessageType type, std::string_view payload);

// Validates and parses the fixed header from `data` (which must hold at
// least kFrameHeaderBytes). Fails with a descriptive Status on a bad
// magic, nonzero flags/reserved bytes, an unknown type, or a payload size
// above `max_frame_bytes`.
Status ParseFrameHeader(const char* data, std::size_t max_frame_bytes,
                        FrameHeader* out);

// CRC-checks `payload` against the header. Fails with a descriptive
// Status naming both CRCs on mismatch.
Status VerifyPayloadCrc(const FrameHeader& header, std::string_view payload);

// ---------------------------------------------------------------------------
// Payload serialization
// ---------------------------------------------------------------------------

// Append-only little-endian payload builder.
class WireWriter {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v);
  void Str(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

// Sticky-failure little-endian payload reader: the first short or invalid
// read fails every later call, so decoders check ok() once at the end.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64();
  // Caps a single string at 1 MiB — no message carries more.
  std::string Str();

  bool ok() const { return ok_; }
  // True when every byte was consumed; decoders require this so trailing
  // garbage (a mis-framed payload) cannot pass silently.
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Take(std::size_t n, const char** out);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

// kCreateSession: the remotable subset of SessionOptions — dims, window
// geometry, and the DISC thresholds. Everything else keeps its DiscConfig
// default, matching what in-process hosts typically set.
struct CreateSessionRequest {
  std::string name;
  std::uint32_t dims = 2;
  std::uint64_t window_size = 0;
  std::uint64_t stride = 0;
  double eps = 0.5;
  std::uint32_t tau = 5;
};

std::string EncodeCreateSession(const CreateSessionRequest& request);
Status DecodeCreateSession(std::string_view payload,
                           CreateSessionRequest* out);

// kFeedSlide: one stride of points for a named session. All points carry
// the same dims (validated on decode, like DiscEngine::FeedSlide).
struct FeedSlideRequest {
  std::string name;
  std::vector<Point> points;
};

std::string EncodeFeedSlide(const FeedSlideRequest& request);
Status DecodeFeedSlide(std::string_view payload, FeedSlideRequest* out);

// kQuerySnapshot / kCloseSession: just the session name.
std::string EncodeSessionName(std::string_view name);
Status DecodeSessionName(std::string_view payload, std::string* out);

// kDrained: the executed-slide count.
std::string EncodeU64(std::uint64_t value);
Status DecodeU64(std::string_view payload, std::uint64_t* out);

// kSnapshot: the full labeling, rows ordered by ascending point id (the
// snapshot contract, see stream/stream_clusterer.h).
std::string EncodeSnapshot(const ClusteringSnapshot& snapshot);
Status DecodeSnapshot(std::string_view payload, ClusteringSnapshot* out);

}  // namespace net
}  // namespace disc

#endif  // DISC_NET_WIRE_H_
