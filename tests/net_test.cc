// Ingest/query plane tests (ctest -L net): the wire codec, the framed TCP
// server in front of DiscEngine, and the contracts docs/API.md §net
// states:
//
//   * a multi-session socket-fed run is byte-identical (canonical
//     snapshots AND checkpoint bytes) to the same run in-process, for
//     worker-lane counts 1/2/4, including across checkpoint → kill →
//     Open → resume;
//   * backpressure is explicit: a full admission queue answers kBusy
//     (counted in net_busy_rejections_total), never a silent drop;
//   * every malformed input — truncation at each header boundary, CRC
//     bit flips, oversized length prefixes, byte-trickled and stalled
//     frames — yields a descriptive error frame or a clean disconnect,
//     never a crash or a partial admission.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/socket_util.h"
#include "engine/disc_engine.h"
#include "gtest/gtest.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "net/wire.h"
#include "obs/http_server.h"
#include "obs/metrics_registry.h"
#include "stream/blobs_generator.h"

namespace disc {
namespace net {
namespace {

constexpr std::size_t kWindow = 120;
constexpr std::size_t kStride = 30;

CreateSessionRequest TestSessionRequest(const std::string& name) {
  CreateSessionRequest request;
  request.name = name;
  request.dims = 2;
  request.window_size = kWindow;
  request.stride = kStride;
  request.eps = 0.4;
  request.tau = 5;
  return request;
}

// The exact mapping IngestServer::Dispatch applies, so in-process
// reference runs host identical sessions.
SessionOptions ToSessionOptions(const CreateSessionRequest& request) {
  SessionOptions options;
  options.spec.dims = request.dims;
  options.spec.window_size = request.window_size;
  options.spec.stride = request.stride;
  options.spec.disc.eps = request.eps;
  options.spec.disc.tau = request.tau;
  return options;
}

std::vector<std::vector<Point>> MakeSlides(std::uint64_t seed,
                                           std::size_t num_slides) {
  BlobsGenerator::Options o;
  o.dims = 2;
  o.num_blobs = 4;
  o.extent = 8.0;
  o.stddev = 0.3;
  o.noise_fraction = 0.1;
  o.drift = 0.05;
  o.seed = seed;
  BlobsGenerator gen(o);
  std::vector<std::vector<Point>> slides(num_slides);
  for (auto& slide : slides) slide = gen.NextPoints(kStride);
  return slides;
}

std::string SpillDir(const std::string& leaf) {
  const std::string dir = testing::TempDir() + "disc_net_" + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

std::map<std::string, std::string> DirBytes(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    out[entry.path().filename().string()] = os.str();
  }
  return out;
}

// Byte-level checkpoint comparison with readable failures (never dumps
// the binary blobs themselves).
void ExpectSameCheckpointBytes(const std::string& expect_dir,
                               const std::string& actual_dir,
                               const std::string& label) {
  const auto expect = DirBytes(expect_dir);
  const auto actual = DirBytes(actual_dir);
  ASSERT_EQ(expect.size(), actual.size()) << label;
  for (const auto& [file, bytes] : expect) {
    const auto it = actual.find(file);
    ASSERT_NE(it, actual.end()) << label << ": missing " << file;
    EXPECT_TRUE(it->second == bytes)
        << label << ": " << file << " differs (" << it->second.size()
        << " vs " << bytes.size() << " bytes)";
  }
}

void ExpectSameSnapshot(const ClusteringSnapshot& expect,
                        const ClusteringSnapshot& actual,
                        const std::string& label) {
  EXPECT_EQ(expect.ids, actual.ids) << label;
  EXPECT_TRUE(expect.categories == actual.categories) << label;
  EXPECT_EQ(expect.cids, actual.cids) << label;
}

// Raw loopback socket for the malformed-frame matrix (the client class
// refuses to send garbage, so the tests go under it).
int ConnectTcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  SetIoTimeouts(fd, 5);
  return fd;
}

// Reads one response frame off a raw fd. Returns false on disconnect.
bool ReadFrame(int fd, MessageType* type, std::string* payload) {
  char header_buf[kFrameHeaderBytes];
  if (RecvFully(fd, header_buf, kFrameHeaderBytes) < kFrameHeaderBytes) {
    return false;
  }
  FrameHeader header;
  if (!ParseFrameHeader(header_buf, kDefaultMaxFrameBytes, &header).ok()) {
    return false;
  }
  payload->assign(header.payload_size, '\0');
  if (header.payload_size > 0 &&
      RecvFully(fd, payload->data(), payload->size()) < payload->size()) {
    return false;
  }
  *type = header.type;
  return true;
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(WireTest, FrameRoundTrips) {
  const std::string payload = "hello frame";
  const std::string frame = EncodeFrame(MessageType::kPing, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  FrameHeader header;
  ASSERT_TRUE(
      ParseFrameHeader(frame.data(), kDefaultMaxFrameBytes, &header).ok());
  EXPECT_EQ(header.type, MessageType::kPing);
  EXPECT_EQ(header.payload_size, payload.size());
  EXPECT_TRUE(
      VerifyPayloadCrc(header, frame.substr(kFrameHeaderBytes)).ok());
}

TEST(WireTest, FrameHeaderRejections) {
  FrameHeader header;
  std::string frame = EncodeFrame(MessageType::kPing, "x");

  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  Status s = ParseFrameHeader(bad_magic.data(), kDefaultMaxFrameBytes,
                              &header);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("magic"), std::string::npos);

  std::string bad_type = frame;
  bad_type[4] = static_cast<char>(200);
  s = ParseFrameHeader(bad_type.data(), kDefaultMaxFrameBytes, &header);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("type"), std::string::npos);

  std::string bad_flags = frame;
  bad_flags[5] = 1;
  EXPECT_FALSE(
      ParseFrameHeader(bad_flags.data(), kDefaultMaxFrameBytes, &header)
          .ok());

  // Length prefix above the cap is rejected from the header alone.
  s = ParseFrameHeader(frame.data(), /*max_frame_bytes=*/0, &header);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("frame cap"), std::string::npos);
}

TEST(WireTest, PayloadCrcCatchesEveryBitFlipPosition) {
  const std::string payload = "crc-guarded-payload";
  const std::string frame = EncodeFrame(MessageType::kPing, payload);
  FrameHeader header;
  ASSERT_TRUE(
      ParseFrameHeader(frame.data(), kDefaultMaxFrameBytes, &header).ok());
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = payload;
      mutated[byte] = static_cast<char>(
          static_cast<unsigned char>(mutated[byte]) ^ (1u << bit));
      const Status s = VerifyPayloadCrc(header, mutated);
      ASSERT_FALSE(s.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_NE(s.message().find("CRC mismatch"), std::string::npos);
    }
  }
}

TEST(WireTest, CreateSessionRoundTrips) {
  const CreateSessionRequest request = TestSessionRequest("round_trip");
  CreateSessionRequest decoded;
  ASSERT_TRUE(
      DecodeCreateSession(EncodeCreateSession(request), &decoded).ok());
  EXPECT_EQ(decoded.name, request.name);
  EXPECT_EQ(decoded.dims, request.dims);
  EXPECT_EQ(decoded.window_size, request.window_size);
  EXPECT_EQ(decoded.stride, request.stride);
  EXPECT_EQ(decoded.eps, request.eps);
  EXPECT_EQ(decoded.tau, request.tau);
}

// The previous CreateSession layout carried a clustering-method string
// after the name. Such a payload must be refused whole, not half-read with
// the method's bytes taken for the dims and geometry.
TEST(WireTest, CreateSessionRejectsTheLayoutWithAMethodString) {
  const CreateSessionRequest request = TestSessionRequest("old_client");
  WireWriter w;
  w.Str(request.name);
  w.Str("DISC");
  w.U32(request.dims);
  w.U64(request.window_size);
  w.U64(request.stride);
  w.F64(request.eps);
  w.U32(request.tau);
  CreateSessionRequest decoded;
  const Status s = DecodeCreateSession(w.bytes(), &decoded);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "malformed CreateSession payload");
}

TEST(WireTest, FeedSlideRoundTrips) {
  FeedSlideRequest request;
  request.name = "slide_session";
  const auto slides = MakeSlides(42, 1);
  request.points = slides[0];
  FeedSlideRequest decoded;
  ASSERT_TRUE(DecodeFeedSlide(EncodeFeedSlide(request), &decoded).ok());
  ASSERT_EQ(decoded.points.size(), request.points.size());
  for (std::size_t i = 0; i < decoded.points.size(); ++i) {
    EXPECT_EQ(decoded.points[i].id, request.points[i].id);
    ASSERT_EQ(decoded.points[i].dims, request.points[i].dims);
    for (std::uint32_t d = 0; d < decoded.points[i].dims; ++d) {
      EXPECT_EQ(decoded.points[i].x[d], request.points[i].x[d]);
    }
  }
}

TEST(WireTest, FeedSlideDecodeRejectsBadGeometry) {
  FeedSlideRequest request;
  request.name = "geom";
  request.points = MakeSlides(7, 1)[0];
  const std::string good = EncodeFeedSlide(request);
  FeedSlideRequest decoded;

  // dims byte tampered to 0 and to kMaxDims+1: both named in the error.
  const std::size_t dims_offset = 4 + request.name.size();
  std::string zero_dims = good;
  zero_dims[dims_offset] = 0;
  Status s = DecodeFeedSlide(zero_dims, &decoded);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("dims"), std::string::npos);

  std::string big_dims = good;
  big_dims[dims_offset] = static_cast<char>(kMaxDims + 1);
  EXPECT_FALSE(DecodeFeedSlide(big_dims, &decoded).ok());

  // Trailing garbage and truncation are byte-count mismatches.
  EXPECT_FALSE(DecodeFeedSlide(good + "x", &decoded).ok());
  s = DecodeFeedSlide(std::string_view(good).substr(0, good.size() - 3),
                      &decoded);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("size mismatch"), std::string::npos);
}

TEST(WireTest, SnapshotRoundTripsAndRejectsBadCategory) {
  ClusteringSnapshot snapshot;
  snapshot.ids = {1, 5, 9};
  snapshot.categories = {Category::kCore, Category::kBorder,
                         Category::kNoise};
  snapshot.cids = {0, 0, -1};
  const std::string payload = EncodeSnapshot(snapshot);
  ClusteringSnapshot decoded;
  ASSERT_TRUE(DecodeSnapshot(payload, &decoded).ok());
  ExpectSameSnapshot(snapshot, decoded, "snapshot round trip");

  std::string bad = payload;
  bad[8 + 8] = 9;  // First row's category byte: no such Category.
  const Status s = DecodeSnapshot(bad, &decoded);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("category"), std::string::npos);
  EXPECT_FALSE(DecodeSnapshot(payload + "x", &decoded).ok());
}

TEST(WireTest, ReaderFailuresAreSticky) {
  WireWriter w;
  w.U32(7);
  const std::string bytes = w.Take();
  WireReader r(bytes);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.U64(), 0u);  // Past the end: fails...
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // ...and stays failed.
  EXPECT_FALSE(r.AtEnd());

  // A string whose length prefix exceeds the 1 MiB cap fails without
  // allocating.
  WireWriter huge;
  huge.U32(0x7FFFFFFFu);
  WireReader hr(huge.bytes());
  EXPECT_EQ(hr.Str(), "");
  EXPECT_FALSE(hr.ok());
}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

TEST(IngestServerTest, StartValidatesOptions) {
  IngestServerOptions no_engine;
  IngestServer server(no_engine);
  const Status s = server.Start();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("engine"), std::string::npos);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);

  DiscEngine engine(EngineOptions{});
  IngestServerOptions unbounded;
  unbounded.engine = &engine;
  unbounded.max_pending_slides = 0;
  IngestServer bad_bound(unbounded);
  EXPECT_FALSE(bad_bound.Start().ok());
}

TEST(IngestServerTest, DoubleStartFailsAndStopIsIdempotent) {
  DiscEngine engine(EngineOptions{});
  IngestServerOptions options;
  options.engine = &engine;
  IngestServer server(options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  const Status again = server.Start();
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.message().find("already running"), std::string::npos);
  server.Stop();
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end byte identity
// ---------------------------------------------------------------------------

// Two sessions fed over the socket must end byte-identical to the same
// run in-process — snapshots and checkpoint bytes — for every worker-lane
// count, because a connection's requests execute in order on one lane.
TEST(IngestEndToEndTest, SocketFedRunMatchesInProcessForEveryLaneCount) {
  const std::vector<std::string> names = {"sock_a", "sock_b"};
  constexpr std::size_t kSlideCount = 6;
  std::vector<std::vector<std::vector<Point>>> streams;
  for (std::size_t i = 0; i < names.size(); ++i) {
    streams.push_back(MakeSlides(4000 + i, kSlideCount));
  }

  // In-process reference, single lane.
  EngineOptions ref_options;
  ref_options.num_threads = 1;
  ref_options.spill_dir = SpillDir("ref");
  DiscEngine reference(ref_options);
  for (const std::string& name : names) {
    ASSERT_TRUE(
        reference
            .CreateSession(name, ToSessionOptions(TestSessionRequest(name)))
            .ok());
  }
  for (std::size_t k = 0; k < kSlideCount; ++k) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      ASSERT_TRUE(reference.FeedSlide(names[i], streams[i][k]).ok());
    }
    reference.Drain();
  }
  ASSERT_TRUE(reference.Checkpoint().ok());
  std::vector<ClusteringSnapshot> ref_snapshots(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(reference.QuerySnapshot(names[i], &ref_snapshots[i]).ok());
  }

  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    EngineOptions engine_options;
    engine_options.num_threads = static_cast<std::uint32_t>(lanes);
    engine_options.spill_dir = SpillDir("lanes_" + std::to_string(lanes));
    DiscEngine engine(engine_options);
    IngestServerOptions server_options;
    server_options.worker_threads = lanes;
    server_options.engine = &engine;
    IngestServer server(server_options);
    ASSERT_TRUE(server.Start().ok());

    IngestClientOptions client_options;
    client_options.port = server.port();
    IngestClient client(client_options);
    ASSERT_TRUE(client.Connect().ok());
    for (const std::string& name : names) {
      ASSERT_TRUE(client.CreateSession(TestSessionRequest(name)).ok());
    }
    for (std::size_t k = 0; k < kSlideCount; ++k) {
      for (std::size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(client.FeedSlide(names[i], streams[i][k]).ok());
      }
      std::uint64_t executed = 0;
      ASSERT_TRUE(client.Drain(&executed).ok());
      EXPECT_EQ(executed, names.size());
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
      ClusteringSnapshot snapshot;
      ASSERT_TRUE(client.QuerySnapshot(names[i], &snapshot).ok());
      ExpectSameSnapshot(ref_snapshots[i], snapshot, names[i]);
    }
    client.Close();
    server.Stop();
    ASSERT_TRUE(engine.Checkpoint().ok());
    ExpectSameCheckpointBytes(ref_options.spill_dir,
                              engine_options.spill_dir,
                              "lanes " + std::to_string(lanes));
    std::filesystem::remove_all(engine_options.spill_dir);
  }
  std::filesystem::remove_all(ref_options.spill_dir);
}

// The same identity must hold across checkpoint → kill → Open → resume:
// half the stream over one server incarnation, recovery, the other half
// over a fresh incarnation.
TEST(IngestEndToEndTest, ResumedSocketRunMatchesUninterruptedInProcess) {
  const std::vector<std::string> names = {"res_a", "res_b"};
  constexpr std::size_t kSlideCount = 8;
  constexpr std::size_t kCut = 4;
  std::vector<std::vector<std::vector<Point>>> streams;
  for (std::size_t i = 0; i < names.size(); ++i) {
    streams.push_back(MakeSlides(6000 + i, kSlideCount));
  }

  // Uninterrupted in-process reference.
  EngineOptions ref_options;
  ref_options.num_threads = 1;
  ref_options.spill_dir = SpillDir("resume_ref");
  DiscEngine reference(ref_options);
  for (const std::string& name : names) {
    ASSERT_TRUE(
        reference
            .CreateSession(name, ToSessionOptions(TestSessionRequest(name)))
            .ok());
  }
  for (std::size_t k = 0; k < kSlideCount; ++k) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      ASSERT_TRUE(reference.FeedSlide(names[i], streams[i][k]).ok());
    }
    reference.Drain();
  }
  ASSERT_TRUE(reference.Checkpoint().ok());

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.spill_dir = SpillDir("resume_sock");
  {
    DiscEngine engine(engine_options);
    IngestServerOptions server_options;
    server_options.worker_threads = 2;
    server_options.engine = &engine;
    IngestServer server(server_options);
    ASSERT_TRUE(server.Start().ok());
    IngestClientOptions client_options;
    client_options.port = server.port();
    IngestClient client(client_options);
    ASSERT_TRUE(client.Connect().ok());
    for (const std::string& name : names) {
      ASSERT_TRUE(client.CreateSession(TestSessionRequest(name)).ok());
    }
    for (std::size_t k = 0; k < kCut; ++k) {
      for (std::size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(client.FeedSlide(names[i], streams[i][k]).ok());
      }
      ASSERT_TRUE(client.Drain().ok());
    }
    client.Close();
    server.Stop();
    ASSERT_TRUE(engine.Checkpoint().ok());
    // Engine destroyed here: the kill.
  }
  Status open_error;
  std::unique_ptr<DiscEngine> recovered =
      DiscEngine::Open(engine_options, &open_error);
  ASSERT_NE(recovered, nullptr) << open_error.message();
  IngestServerOptions server_options;
  server_options.worker_threads = 4;  // Lane count may even change.
  server_options.engine = recovered.get();
  IngestServer server(server_options);
  ASSERT_TRUE(server.Start().ok());
  IngestClientOptions client_options;
  client_options.port = server.port();
  IngestClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  for (std::size_t k = kCut; k < kSlideCount; ++k) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      ASSERT_TRUE(client.FeedSlide(names[i], streams[i][k]).ok());
    }
    ASSERT_TRUE(client.Drain().ok());
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    ClusteringSnapshot expect;
    ASSERT_TRUE(reference.QuerySnapshot(names[i], &expect).ok());
    ClusteringSnapshot actual;
    ASSERT_TRUE(client.QuerySnapshot(names[i], &actual).ok());
    ExpectSameSnapshot(expect, actual, names[i]);
  }
  client.Close();
  server.Stop();
  ASSERT_TRUE(recovered->Checkpoint().ok());
  ExpectSameCheckpointBytes(ref_options.spill_dir, engine_options.spill_dir,
                            "resumed run");
  std::filesystem::remove_all(ref_options.spill_dir);
  std::filesystem::remove_all(engine_options.spill_dir);
}

// ---------------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------------

TEST(IngestBackpressureTest, FullAdmissionQueueAnswersBusyAndNeverDrops) {
  obs::MetricsRegistry metrics;
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.metrics = &metrics;
  DiscEngine engine(engine_options);
  IngestServerOptions server_options;
  server_options.engine = &engine;
  server_options.metrics = &metrics;
  server_options.max_pending_slides = 2;
  IngestServer server(server_options);
  ASSERT_TRUE(server.Start().ok());
  IngestClientOptions client_options;
  client_options.port = server.port();
  IngestClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.CreateSession(TestSessionRequest("pressured")).ok());

  const auto slides = MakeSlides(99, 3);
  bool busy = false;
  ASSERT_TRUE(client.FeedSlide("pressured", slides[0], &busy).ok());
  ASSERT_TRUE(client.FeedSlide("pressured", slides[1], &busy).ok());
  EXPECT_FALSE(busy);

  // Third slide: the bound is 2, so this is an explicit BUSY — counted,
  // descriptive, nothing admitted.
  const Status rejected = client.FeedSlide("pressured", slides[2], &busy);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(busy);
  EXPECT_NE(rejected.message().find("admission queue full"),
            std::string::npos);
  EXPECT_EQ(metrics.counter("net_busy_rejections_total").value(), 1u);
  EXPECT_EQ(engine.PendingSlides("pressured"), 2u);

  // The producer's contract: drain, then the same slide is admitted.
  std::uint64_t executed = 0;
  ASSERT_TRUE(client.Drain(&executed).ok());
  EXPECT_EQ(executed, 2u);
  busy = false;
  ASSERT_TRUE(client.FeedSlide("pressured", slides[2], &busy).ok());
  EXPECT_FALSE(busy);
  ASSERT_TRUE(client.Drain().ok());
  EXPECT_EQ(engine.SlidesRun("pressured"), 3u);  // Nothing lost.
  client.Close();
  server.Stop();
}

TEST(IngestBackpressureTest, RequestErrorsAreDescriptive) {
  DiscEngine engine(EngineOptions{});
  IngestServerOptions server_options;
  server_options.engine = &engine;
  IngestServer server(server_options);
  ASSERT_TRUE(server.Start().ok());
  IngestClientOptions client_options;
  client_options.port = server.port();
  IngestClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());

  // Unknown session, duplicate session, wrong point count: each surfaces
  // the engine's message through the kError payload, connection intact.
  const auto slides = MakeSlides(1, 1);
  Status s = client.FeedSlide("nobody", slides[0]);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("nobody"), std::string::npos);

  ASSERT_TRUE(client.CreateSession(TestSessionRequest("dup")).ok());
  s = client.CreateSession(TestSessionRequest("dup"));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("dup"), std::string::npos);

  std::vector<Point> short_slide(slides[0].begin(), slides[0].begin() + 5);
  s = client.FeedSlide("dup", short_slide);
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(s.message().empty());
  EXPECT_EQ(engine.PendingSlides("dup"), 0u);  // Nothing partially admitted.

  ClusteringSnapshot unused;
  s = client.QuerySnapshot("nobody", &unused);
  EXPECT_FALSE(s.ok());

  EXPECT_TRUE(client.Ping().ok());  // Connection survived every rejection.
  client.Close();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Malformed-frame matrix
// ---------------------------------------------------------------------------

class FrameMatrixTest : public testing::Test {
 protected:
  void SetUp() override {
    engine_options_.num_threads = 1;
    engine_options_.metrics = &metrics_;
    engine_ = std::make_unique<DiscEngine>(engine_options_);
    server_options_.engine = engine_.get();
    server_options_.metrics = &metrics_;
    server_ = std::make_unique<IngestServer>(server_options_);
    ASSERT_TRUE(server_->Start().ok());
  }

  // The liveness probe every case ends with: a fresh client must get a
  // clean Pong, proving the garbage cost at most its own connection. The
  // probe can race the backlog of just-closed garbage connections and be
  // load-shed (a correct kBusy), so it retries briefly.
  void ExpectServerAlive() {
    IngestClientOptions options;
    options.port = server_->port();
    IngestClient client(options);
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (client.Connect().ok() && client.Ping().ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "server never answered a clean Pong";
  }

  obs::MetricsRegistry metrics_;
  EngineOptions engine_options_;
  IngestServerOptions server_options_;
  std::unique_ptr<DiscEngine> engine_;
  std::unique_ptr<IngestServer> server_;
};

TEST_F(FrameMatrixTest, TruncationAtEveryHeaderBoundary) {
  const std::string frame = EncodeFrame(MessageType::kPing, "torn");
  for (std::size_t cut = 0; cut < kFrameHeaderBytes; ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const int fd = ConnectTcp(server_->port());
    ASSERT_GE(fd, 0);
    if (cut > 0) {
      ASSERT_TRUE(SendAllBytes(fd, frame.data(), cut));
    }
    ::close(fd);  // Mid-header hangup: the server owes nothing but survival.
  }
  ExpectServerAlive();
}

TEST_F(FrameMatrixTest, TruncatedPayloadGetsDescriptiveErrorFrame) {
  const std::string frame = EncodeFrame(MessageType::kPing, "half-a-payload");
  const int fd = ConnectTcp(server_->port());
  ASSERT_GE(fd, 0);
  // Full header plus half the payload, then a half-close so the server's
  // read sees EOF while the answer can still come back.
  ASSERT_TRUE(SendAllBytes(fd, frame.data(), kFrameHeaderBytes + 7));
  ::shutdown(fd, SHUT_WR);
  MessageType type = MessageType::kOk;
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &type, &payload));
  EXPECT_EQ(type, MessageType::kError);
  EXPECT_NE(payload.find("torn frame"), std::string::npos);
  ::close(fd);
  ExpectServerAlive();
  EXPECT_GE(metrics_.counter("net_frames_bad_total").value(), 1u);
}

TEST_F(FrameMatrixTest, CrcBitFlipsAnswerErrorNeverAdmit) {
  // A real FeedSlide frame with one payload bit flipped: the CRC check
  // must reject it before the engine sees any point — corruption can
  // never partially admit a slide.
  IngestClientOptions client_options;
  client_options.port = server_->port();
  IngestClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.CreateSession(TestSessionRequest("crc_victim")).ok());
  FeedSlideRequest request;
  request.name = "crc_victim";
  request.points = MakeSlides(5, 1)[0];
  const std::string frame =
      EncodeFrame(MessageType::kFeedSlide, EncodeFeedSlide(request));

  for (const std::size_t flip_at :
       {kFrameHeaderBytes, frame.size() / 2, frame.size() - 1}) {
    SCOPED_TRACE("flip at byte " + std::to_string(flip_at));
    std::string corrupt = frame;
    corrupt[flip_at] = static_cast<char>(
        static_cast<unsigned char>(corrupt[flip_at]) ^ 0x08);
    const int fd = ConnectTcp(server_->port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAllBytes(fd, corrupt.data(), corrupt.size()));
    MessageType type = MessageType::kOk;
    std::string payload;
    ASSERT_TRUE(ReadFrame(fd, &type, &payload));
    EXPECT_EQ(type, MessageType::kError);
    EXPECT_NE(payload.find("CRC mismatch"), std::string::npos);
    ::close(fd);
  }
  EXPECT_EQ(engine_->PendingSlides("crc_victim"), 0u);  // Nothing admitted.
  ExpectServerAlive();
}

TEST_F(FrameMatrixTest, OversizedLengthPrefixRejectedBeforePayload) {
  // Hand-built header whose length prefix claims ~4 GiB. The server must
  // answer from the header alone — reading (or allocating) that payload
  // would be the vulnerability.
  std::string header = EncodeFrame(MessageType::kPing, "");
  header[8] = static_cast<char>(0xFF);
  header[9] = static_cast<char>(0xFF);
  header[10] = static_cast<char>(0xFF);
  header[11] = static_cast<char>(0xFF);
  const int fd = ConnectTcp(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAllBytes(fd, header.data(), header.size()));
  MessageType type = MessageType::kOk;
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &type, &payload));
  EXPECT_EQ(type, MessageType::kError);
  EXPECT_NE(payload.find("frame cap"), std::string::npos);
  ::close(fd);
  ExpectServerAlive();
}

TEST_F(FrameMatrixTest, ResponseTypeAsRequestRejected) {
  const std::string frame = EncodeFrame(MessageType::kOk, "");
  const int fd = ConnectTcp(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAllBytes(fd, frame.data(), frame.size()));
  MessageType type = MessageType::kOk;
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &type, &payload));
  EXPECT_EQ(type, MessageType::kError);
  EXPECT_NE(payload.find("request"), std::string::npos);
  ::close(fd);
  ExpectServerAlive();
}

TEST_F(FrameMatrixTest, ByteTrickledFrameStillAnswered) {
  // Slow-loris a valid Ping one byte at a time: the frame loop
  // accumulates across reads, so it must still answer Pong.
  const std::string frame = EncodeFrame(MessageType::kPing, "drip");
  const int fd = ConnectTcp(server_->port());
  ASSERT_GE(fd, 0);
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  for (const char c : frame) {
    ASSERT_TRUE(SendAllBytes(fd, &c, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  MessageType type = MessageType::kOk;
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &type, &payload));
  EXPECT_EQ(type, MessageType::kPong);
  EXPECT_EQ(payload, "drip");
  ::close(fd);
  ExpectServerAlive();
}

TEST(IngestTimeoutTest, StalledMidFramePeerIsDisconnected) {
  // A peer that sends half a header and then stalls must be cut loose by
  // the I/O timeout — it can hold a worker lane for io_timeout_s, never
  // forever.
  DiscEngine engine(EngineOptions{});
  IngestServerOptions server_options;
  server_options.engine = &engine;
  server_options.io_timeout_s = 1;
  IngestServer server(server_options);
  ASSERT_TRUE(server.Start().ok());
  const int fd = ConnectTcp(server.port());
  ASSERT_GE(fd, 0);
  const std::string frame = EncodeFrame(MessageType::kPing, "stall");
  ASSERT_TRUE(SendAllBytes(fd, frame.data(), 6));  // ...then silence.
  char buf[16];
  const std::size_t got = RecvFully(fd, buf, sizeof(buf));
  EXPECT_EQ(got, 0u);  // Clean disconnect, no bytes.
  ::close(fd);
  IngestClientOptions client_options;
  client_options.port = server.port();
  IngestClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

TEST(IngestOverloadTest, QueueOverflowAnswersBusyFrame) {
  obs::MetricsRegistry metrics;
  DiscEngine engine(EngineOptions{});
  IngestServerOptions server_options;
  server_options.engine = &engine;
  server_options.metrics = &metrics;
  server_options.worker_threads = 1;
  server_options.max_queued_connections = 1;
  server_options.io_timeout_s = 2;
  IngestServer server(server_options);
  ASSERT_TRUE(server.Start().ok());

  // Wedge the single lane with a half-sent frame, fill the one queue
  // slot, then overflow: the third connection must get an immediate kBusy
  // from the accept thread — shed load is explicit, never a silent close.
  const int wedge = ConnectTcp(server.port());
  ASSERT_GE(wedge, 0);
  const std::string frame = EncodeFrame(MessageType::kPing, "wedge");
  ASSERT_TRUE(SendAllBytes(wedge, frame.data(), 4));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int queued = ConnectTcp(server.port());
  ASSERT_GE(queued, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int shed = ConnectTcp(server.port());
  ASSERT_GE(shed, 0);
  MessageType type = MessageType::kOk;
  std::string payload;
  ASSERT_TRUE(ReadFrame(shed, &type, &payload));
  EXPECT_EQ(type, MessageType::kBusy);
  EXPECT_NE(payload.find("overloaded"), std::string::npos);
  EXPECT_GE(metrics.counter("net_busy_rejections_total").value(), 1u);
  ::close(shed);
  ::close(queued);
  ::close(wedge);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Telemetry integration
// ---------------------------------------------------------------------------

TEST(IngestTelemetryTest, HealthzCoversTheIngestListener) {
  obs::MetricsRegistry metrics;
  bool ingest_up = true;
  obs::HttpServerOptions options;
  options.metrics = &metrics;
  options.ingest_ready = [&ingest_up]() { return ingest_up; };
  obs::HttpServer server(options);

  obs::HttpResponse ok = server.Handle("/healthz");
  EXPECT_EQ(ok.status, 200);
  EXPECT_NE(ok.body.find("\"ingest\":\"ok\""), std::string::npos);

  ingest_up = false;  // The ingest plane died: readiness must flip.
  obs::HttpResponse down = server.Handle("/healthz");
  EXPECT_EQ(down.status, 503);
  EXPECT_NE(down.body.find("\"ingest\":\"not_listening\""),
            std::string::npos);
  EXPECT_NE(down.body.find("\"ready\":false"), std::string::npos);

  // Without the probe the component reports unbound and does not gate.
  obs::HttpServerOptions unbound;
  unbound.metrics = &metrics;
  obs::HttpServer plain(unbound);
  obs::HttpResponse response = plain.Handle("/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"ingest\":\"unbound\""), std::string::npos);
}

TEST(IngestTelemetryTest, NetCountersTrackTraffic) {
  obs::MetricsRegistry metrics;
  DiscEngine engine(EngineOptions{});
  IngestServerOptions server_options;
  server_options.engine = &engine;
  server_options.metrics = &metrics;
  IngestServer server(server_options);
  ASSERT_TRUE(server.Start().ok());
  IngestClientOptions client_options;
  client_options.port = server.port();
  IngestClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Ping().ok());
  client.Close();
  server.Stop();  // Quiesce before reading.

  EXPECT_EQ(metrics.counter("net_connections_total").value(), 1u);
  EXPECT_EQ(metrics.counter("net_frames_total").value(), 2u);
  EXPECT_EQ(metrics.counter("net_frames_bad_total").value(), 0u);
  EXPECT_GT(metrics.counter("net_bytes_rx_total").value(), 0u);
  EXPECT_GT(metrics.counter("net_bytes_tx_total").value(), 0u);
  EXPECT_EQ(metrics.gauge("net_connections_open").value(), 0.0);
}

// Stop() right after Start() catches worker lanes on their way into the
// queue wait, where a wake-up that is not ordered with their predicate
// check is lost and join() hangs. Hundreds of cycles give a racing worker
// many chances; the TSan leg runs this too.
TEST(SocketServerTest, StartStopCyclesNeverHang) {
  SocketServerOptions options;
  options.name = "cycle";
  options.worker_threads = 4;
  options.handler = [](int) {};
  SocketServer server(options);
  for (int cycle = 0; cycle < 300; ++cycle) {
    ASSERT_TRUE(server.Start().ok()) << "cycle " << cycle;
    EXPECT_NE(server.port(), 0u);
    if (cycle % 3 == 1) std::this_thread::yield();
    server.Stop();
    EXPECT_FALSE(server.running());
  }
}

}  // namespace
}  // namespace net
}  // namespace disc
