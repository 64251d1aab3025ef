#include "engine/disc_engine.h"

#include <cassert>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/point.h"
#include "core/disc.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace disc {

namespace {

// Spill-file framing. Same-machine byte order, like Disc's own checkpoint.
constexpr std::uint32_t kSessionMagic = 0x464E4753;  // "SGNF" little-endian.

// The name of a superseded spill layout, or null. Recognized only to refuse
// such a spill by name instead of misreading its bytes as checkpoint data:
// "SGND" carried two more config fields (a CLUSTER-mode byte and a
// probe-batch u32), "SGNE" the clusterer's name string after the session name.
const char* SupersededLayout(std::uint32_t magic) {
  switch (magic) {
    case 0x444E4753: return "SGND";
    case 0x454E4753: return "SGNE";
    default: return nullptr;
  }
}

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

void WriteString(std::ostream& out, const std::string& s) {
  WritePod(out, static_cast<std::uint64_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadString(std::istream& in, std::string* s) {
  std::uint64_t size = 0;
  if (!ReadPod(in, &size) || size > (1u << 20)) return false;
  s->resize(size);
  in.read(s->data(), static_cast<std::streamsize>(size));
  return static_cast<bool>(in);
}

// Prometheus-compatible metric-name fragment — also keeps the session's
// spill file name shell-safe.
bool ValidSessionName(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    if (!(alpha || (i > 0 && c >= '0' && c <= '9'))) return false;
  }
  return true;
}

std::size_t ResolveLanes(std::uint32_t num_threads) {
  if (num_threads != 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/engine.manifest";
}

std::string SessionPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".session";
}

constexpr char kManifestHeader[] = "DISCENGINE 1";

}  // namespace

LabeledPoint DiscEngine::QueueSource::Next() {
  assert(!queue_.empty() && "engine slide scheduled without queued points");
  LabeledPoint lp;
  lp.point = queue_.front();
  queue_.pop_front();
  return lp;
}

DiscEngine::DiscEngine(const EngineOptions& options) : options_(options) {
  const std::size_t lanes = ResolveLanes(options_.num_threads);
  if (lanes > 1) pool_ = std::make_unique<ThreadPool>(lanes - 1);
}

DiscEngine::~DiscEngine() { StopTelemetry(); }

DiscEngine::Session* DiscEngine::Find(const std::string& name) {
  for (const auto& session : sessions_) {
    if (session->name == name) return session.get();
  }
  return nullptr;
}

const DiscEngine::Session* DiscEngine::Find(const std::string& name) const {
  for (const auto& session : sessions_) {
    if (session->name == name) return session.get();
  }
  return nullptr;
}

Status DiscEngine::CreateSession(const std::string& name,
                                 const SessionOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!ValidSessionName(name)) {
    return Status::Error("invalid session name \"" + name +
                         "\"; names must match [a-zA-Z_][a-zA-Z0-9_]*");
  }
  if (Find(name) != nullptr) {
    return Status::Error("session \"" + name + "\" already exists");
  }
  const SessionOptions::Spec& spec = options.spec;
  if (spec.stride < 1 || spec.window_size < spec.stride) {
    std::ostringstream os;
    os << "session \"" << name << "\": window geometry needs 1 <= stride <= "
       << "window_size, got window_size=" << spec.window_size
       << " stride=" << spec.stride;
    return Status::Error(os.str());
  }
  if (Status valid = spec.disc.Validate(); !valid.ok()) {
    DISC_LOG(kWarn, "engine.create_session_rejected")
        .Str("session", name)
        .Str("error", valid.message());
    return Status::Error("session \"" + name + "\": " + valid.message());
  }
  // The engine owns execution: a session never spins up an internal pool;
  // it runs single-lane on whichever lane the scheduler gives it.
  SessionOptions adopted = options;
  adopted.spec.disc.num_threads = 1;
  auto clusterer =
      std::make_unique<Disc>(adopted.spec.dims, adopted.spec.disc);
  Admit(name, std::move(adopted), std::move(clusterer), {}, 0);
  DISC_LOG(kInfo, "engine.session_created")
      .Str("session", name)
      .Num("window_size", options.spec.window_size)
      .Num("stride", options.spec.stride);
  return Status::Ok();
}

void DiscEngine::Admit(const std::string& name, SessionOptions options,
                       std::unique_ptr<Disc> clusterer,
                       std::vector<Point> seed_window,
                       std::size_t slides_already_run) {
  auto session = std::make_unique<Session>();
  session->name = name;
  session->id = next_session_id_++;
  session->options = std::move(options);
  session->clusterer = std::move(clusterer);
  const SessionOptions::Spec& spec = session->options.spec;
  // Session is heap-allocated, so the pipeline's borrowed source/clusterer
  // pointers stay valid for the session's lifetime.
  if (seed_window.empty() && slides_already_run == 0) {
    session->pipeline = std::make_unique<StreamingPipeline>(
        &session->source, session->clusterer.get(), spec.window_size,
        spec.stride);
  } else {
    session->pipeline = std::make_unique<StreamingPipeline>(
        &session->source, session->clusterer.get(), spec.window_size,
        spec.stride, std::move(seed_window), slides_already_run);
  }
  sessions_.push_back(std::move(session));
  if (options_.metrics != nullptr) {
    options_.metrics->gauge("engine_sessions",
                            "Sessions currently admitted to the engine.")
        .Set(static_cast<double>(sessions_.size()));
  }
  UpdateBacklogGauges();
}

Status DiscEngine::FeedSlide(const std::string& name,
                             const std::vector<Point>& points) {
  DISC_FAILPOINT_STATUS("engine.feed.pre");
  std::lock_guard<std::mutex> lock(mutex_);
  return FeedSlideLocked(name, points, /*max_pending_slides=*/0,
                         /*busy=*/nullptr);
}

Status DiscEngine::FeedSlideBounded(const std::string& name,
                                    const std::vector<Point>& points,
                                    std::size_t max_pending_slides,
                                    bool* busy) {
  if (busy != nullptr) *busy = false;
  DISC_FAILPOINT_STATUS("engine.feed.pre");
  std::lock_guard<std::mutex> lock(mutex_);
  return FeedSlideLocked(name, points, max_pending_slides, busy);
}

Status DiscEngine::FeedSlideLocked(const std::string& name,
                                   const std::vector<Point>& points,
                                   std::size_t max_pending_slides,
                                   bool* busy) {
  Session* session = Find(name);
  if (session == nullptr) {
    return Status::Error("no session named \"" + name + "\"");
  }
  const std::size_t stride = session->options.spec.stride;
  if (points.size() != stride) {
    std::ostringstream os;
    os << "session \"" << name << "\": a slide is exactly stride=" << stride
       << " points, got " << points.size();
    return Status::Error(os.str());
  }
  const std::uint32_t dims = session->options.spec.dims;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].dims != dims) {
      std::ostringstream os;
      os << "session \"" << name << "\": point " << i << " (id "
         << points[i].id << ") has dims=" << points[i].dims
         << ", session expects dims=" << dims;
      // Rate-limited: a misbehaving feeder retrying every slide must not
      // flood the sink.
      DISC_LOG(kWarn, "engine.slide_rejected")
          .Str("session", name)
          .Str("error", os.str());
      return Status::Error(os.str());
    }
  }
  // Admission bound last: a slide that fails validation is *rejected*, not
  // BUSY — only a full queue earns the retryable backpressure signal.
  if (max_pending_slides > 0 && session->pending_slides >= max_pending_slides) {
    if (busy != nullptr) *busy = true;
    std::ostringstream os;
    os << "session \"" << name << "\": admission queue full ("
       << session->pending_slides << " slides pending, bound "
       << max_pending_slides << "); retry after a drain";
    return Status::Error(os.str());
  }
  for (const Point& p : points) session->source.Push(p);
  ++session->pending_slides;
  UpdateBacklogGauges();
  return Status::Ok();
}

Status DiscEngine::QuerySnapshot(const std::string& name,
                                 ClusteringSnapshot* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Session* session = Find(name);
  if (session == nullptr) {
    return Status::Error("no session named \"" + name + "\"");
  }
  *out = session->clusterer->Snapshot();
  return Status::Ok();
}

Status DiscEngine::CloseSession(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i]->name != name) continue;
    sessions_.erase(sessions_.begin() +
                    static_cast<std::ptrdiff_t>(i));
    if (options_.metrics != nullptr) {
      options_.metrics->gauge("engine_sessions")
          .Set(static_cast<double>(sessions_.size()));
    }
    UpdateBacklogGauges();
    return Status::Ok();
  }
  return Status::Error("no session named \"" + name + "\"");
}

void DiscEngine::ExecuteSessionSlide(Session* session) {
  obs::TraceSpan span("engine.session");
  span.AddArg("session", session->id);
  span.AddArg("slide", session->pipeline->slides_run());
  // Fires before any queue consumption: an injected throw here leaves the
  // pipeline untouched and the slide pending, so the retry at the next
  // Drain replays it exactly.
  DISC_FAILPOINT("engine.session.slide");
  session->pipeline->Run(1, [session](const SlideReport& report) {
    session->last_report = report;
    return true;
  });
  --session->pending_slides;
  session->ran_this_round = true;
}

void DiscEngine::FoldSessionMetrics(Session* session) {
  if (options_.metrics == nullptr) return;
  obs::MetricsRegistry& reg = *options_.metrics;
  const SlideReport& r = session->last_report;
  const std::string prefix = "engine_session_" + session->name + "_";
  reg.counter(prefix + "slides_total").Add(1);
  reg.counter(prefix + "points_entered_total").Add(r.entered);
  reg.counter(prefix + "points_exited_total").Add(r.exited);
  reg.counter(prefix + "points_relabeled_total").Add(r.relabeled);
  reg.gauge(prefix + "window_size").Set(static_cast<double>(r.window_size));
  reg.histogram(prefix + "update_ms").Observe(r.update_ms);
}

void DiscEngine::UpdateBacklogGauges() {
  if (options_.metrics == nullptr) return;
  obs::MetricsRegistry& reg = *options_.metrics;
  // Watermark: the furthest slide index any session would reach if every
  // queued slide ran now. A session's lag is its distance behind that —
  // a stalled session (no feed, or feeds but never drained) shows a
  // growing lag while the healthy ones stay at 0.
  std::size_t watermark = 0;
  for (const auto& s : sessions_) {
    const std::size_t frontier = s->pipeline->slides_run() + s->pending_slides;
    if (frontier > watermark) watermark = frontier;
  }
  for (const auto& s : sessions_) {
    const std::string prefix = "engine_session_" + s->name + "_";
    reg.gauge(prefix + "queue_depth",
              "Slides fed to this session but not yet drained.")
        .Set(static_cast<double>(s->pending_slides));
    reg.gauge(prefix + "watermark_lag_slides",
              "Slides this session is behind the engine watermark (the "
              "furthest frontier over all sessions).")
        .Set(static_cast<double>(watermark - s->pipeline->slides_run()));
    reg.gauge(prefix + "last_slide_ms",
              "Update latency of this session's most recent slide.")
        .Set(s->last_report.update_ms);
  }
}

std::size_t DiscEngine::Drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  return DrainLocked();
}

void DiscEngine::MarkSlideFault(Session* session, const char* what) {
  session->faulted_this_drain = true;
  DISC_LOG(kError, "engine.slide_failed")
      .Str("session", session->name)
      .Str("error", what);
}

std::size_t DiscEngine::DrainLocked() {
  obs::TraceSpan span("engine.drain");
  std::size_t executed = 0;
  for (const auto& s : sessions_) s->faulted_this_drain = false;
  while (!sessions_.empty()) {
    // Ready set of this round, in round-robin order so no session starves
    // the slot assignment when there are more ready sessions than lanes.
    // A session whose slide already faulted this drain sits out: retrying
    // inside the same drain would spin on a deterministic failure.
    const std::size_t n = sessions_.size();
    std::vector<Session*> ready;
    for (std::size_t k = 0; k < n; ++k) {
      Session* s = sessions_[(rr_cursor_ + k) % n].get();
      if (s->pending_slides > 0 && !s->faulted_this_drain) ready.push_back(s);
    }
    if (ready.empty()) break;
    rr_cursor_ = (rr_cursor_ + 1) % n;

    // One slide per ready session, one session per pool lane; a lone
    // session runs on this thread (ParallelFor runs one-item batches
    // inline). Each session's Disc is single-lane (num_threads=1), so lanes
    // never share any clusterer state; the lambda writes only to its own
    // session. chunk=1: slides are coarse, uneven tasks.
    bool dispatch_fault = false;
    try {
      ParallelFor(
          pool_.get(), ready.size(),
          [&ready, this](std::size_t, std::size_t i) {
            try {
              ExecuteSessionSlide(ready[i]);
            } catch (const std::exception& e) {
              // The slide threw (bug or injected fault): quarantine the
              // session for this drain, keep its queue intact, keep the
              // engine alive.
              MarkSlideFault(ready[i], e.what());
            }
          },
          1);
    } catch (const std::exception& e) {
      // The dispatch machinery itself threw (session bodies are contained
      // above). Slides that never started are still pending; finish the
      // round's bookkeeping, then stop — the next Drain retries.
      DISC_LOG(kError, "engine.drain_failed").Str("error", e.what());
      dispatch_fault = true;
    }

    // Fold telemetry on the scheduler thread (the registry is not
    // thread-safe), in creation order so exports never depend on the
    // round-robin phase or lane scheduling.
    for (const auto& up : sessions_) {
      if (!up->ran_this_round) continue;
      up->ran_this_round = false;
      FoldSessionMetrics(up.get());
      ++executed;
    }
    // Refresh backlog gauges per round, not just at the end: a live scrape
    // mid-drain sees queue depths shrink round by round.
    UpdateBacklogGauges();
    if (dispatch_fault) break;
  }
  std::size_t faulted = 0;
  for (const auto& s : sessions_) {
    if (s->faulted_this_drain) ++faulted;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter("engine_drains_total").Add(1);
    options_.metrics->counter("engine_slides_total").Add(executed);
    if (faulted > 0) {
      options_.metrics
          ->counter("engine_slide_faults_total",
                    "Sessions quarantined by a throwing slide, summed over "
                    "drains.")
          .Add(faulted);
    }
  }
  span.AddArg("slides", executed);
  return executed;
}

Status DiscEngine::SaveSession(const Session& session,
                               std::ostream& out) const {
  WritePod(out, kSessionMagic);
  WriteString(out, session.name);
  const SessionOptions::Spec& spec = session.options.spec;
  WritePod(out, spec.dims);
  WritePod(out, static_cast<std::uint64_t>(spec.window_size));
  WritePod(out, static_cast<std::uint64_t>(spec.stride));
  WritePod(out, static_cast<std::uint64_t>(session.pipeline->slides_run()));
  const DiscConfig& c = spec.disc;
  WritePod(out, c.eps);
  WritePod(out, c.tau);
  WritePod(out, static_cast<std::uint8_t>(c.use_msbfs));
  WritePod(out, static_cast<std::uint8_t>(c.use_epoch_probing));
  WritePod(out, static_cast<std::uint8_t>(c.use_border_witness));
  WritePod(out, static_cast<std::int32_t>(c.rtree_max_entries));
  WritePod(out, static_cast<std::uint8_t>(c.rtree_split_policy));
  if (!out) {
    return Status::Error("session \"" + session.name +
                         "\": write failed on the spill header");
  }
  return session.clusterer->SaveCheckpoint(out);
}

Status DiscEngine::Checkpoint() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.spill_dir.empty()) {
    return Status::Error(
        "checkpointing disabled: EngineOptions::spill_dir is unset");
  }
  // No queued slide may be lost to the checkpoint boundary. The drain runs
  // inside this critical section (the mutex is not recursive, hence the
  // DrainLocked split).
  DrainLocked();
  // A faulted slide leaves its session with queued work the drain could not
  // run; persisting now would spill a state that silently forgets those
  // slides, so refuse and let the caller retry after the next clean drain.
  for (const auto& session : sessions_) {
    if (session->pending_slides > 0) {
      std::ostringstream os;
      os << "session \"" << session->name << "\" still has "
         << session->pending_slides
         << " queued slide(s) after the pre-checkpoint drain (slide "
            "fault?); checkpoint refused";
      DISC_LOG(kError, "engine.checkpoint_failed")
          .Str("session", session->name)
          .Str("error", os.str());
      return Status::Error(os.str());
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(options_.spill_dir, ec);
  if (ec) {
    return Status::Error("cannot create spill directory " +
                         options_.spill_dir + ": " + ec.message());
  }
  // Stage the whole generation as .tmp files first: the live .session files
  // the current manifest points at stay untouched until every write has
  // succeeded, so a crash (or failure return) anywhere below leaves the
  // previous checkpoint generation fully recoverable.
  for (const auto& session : sessions_) {
    const std::string tmp =
        SessionPath(options_.spill_dir, session->name) + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      DISC_LOG(kError, "engine.checkpoint_failed").Str("path", tmp);
      return Status::Error("cannot open " + tmp + " for writing");
    }
    if (Status saved = SaveSession(*session, out); !saved.ok()) {
      DISC_LOG(kError, "engine.checkpoint_failed")
          .Str("session", session->name)
          .Str("error", saved.message());
      return saved;
    }
    out.flush();
    if (!out) {
      DISC_LOG(kError, "engine.checkpoint_failed").Str("path", tmp);
      return Status::Error("write failed on " + tmp);
    }
  }
  // Every .tmp is staged and fsync-equivalent-flushed; a fault here (the
  // classic crash window) must leave the previous generation live.
  DISC_FAILPOINT_STATUS("checkpoint.write.pre_rename");
  for (const auto& session : sessions_) {
    const std::string path = SessionPath(options_.spill_dir, session->name);
    std::filesystem::rename(path + ".tmp", path, ec);
    if (ec) {
      return Status::Error("cannot publish " + path + ": " + ec.message());
    }
  }
  // Manifest last, via rename: after the session renames every .session
  // file on disk is a complete spill of the old or the new generation, so a
  // crash before this point still leaves the old manifest recoverable.
  const std::string manifest = ManifestPath(options_.spill_dir);
  const std::string tmp = manifest + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::Error("cannot open " + tmp + " for writing");
    out << kManifestHeader << "\n" << sessions_.size() << "\n";
    // A fired short-write truncates the manifest after the header/count:
    // the torn .tmp never gets renamed, so the published manifest always
    // lists every session it names.
    DISC_FAILPOINT_STREAM("engine.checkpoint.manifest", out);
    for (const auto& session : sessions_) out << session->name << "\n";
    out.flush();
    if (!out) return Status::Error("write failed on " + tmp);
  }
  std::filesystem::rename(tmp, manifest, ec);
  if (ec) {
    return Status::Error("cannot publish " + manifest + ": " + ec.message());
  }
  return Status::Ok();
}

std::unique_ptr<DiscEngine> DiscEngine::Open(const EngineOptions& options,
                                             Status* error) {
  if (error != nullptr) *error = Status::Ok();
  const auto fail = [error](const std::string& message) {
    // Every recovery failure funnels through here — one logging choke
    // point for the whole Open path.
    DISC_LOG(kError, "engine.open_failed").Str("error", message);
    if (error != nullptr) *error = Status::Error(message);
    return std::unique_ptr<DiscEngine>();
  };
  if (options.spill_dir.empty()) {
    return fail("EngineOptions::spill_dir is unset");
  }
  if (failpoint::Armed()) {
    // Function form of DISC_FAILPOINT_STATUS: recovery failures must flow
    // through fail() so they hit the same logging choke point.
    Status injected = failpoint::HitStatus("engine.open.pre");
    if (!injected.ok()) return fail(injected.message());
  }
  std::ifstream manifest(ManifestPath(options.spill_dir));
  if (!manifest) {
    return fail("no engine manifest in " + options.spill_dir);
  }
  std::string header;
  std::getline(manifest, header);
  if (header != kManifestHeader) {
    return fail("bad manifest header \"" + header + "\"");
  }
  std::size_t count = 0;
  manifest >> count;
  manifest.ignore(1, '\n');
  std::vector<std::string> names;
  for (std::size_t i = 0; i < count; ++i) {
    std::string name;
    if (!std::getline(manifest, name) || !ValidSessionName(name)) {
      return fail("corrupt manifest: bad session name at entry " +
                  std::to_string(i));
    }
    names.push_back(std::move(name));
  }

  auto engine = std::unique_ptr<DiscEngine>(new DiscEngine(options));
  // The engine is not yet published, but Admit requires the lock it is
  // annotated with; taking it here keeps the discipline uniform.
  std::lock_guard<std::mutex> admit_lock(engine->mutex_);
  for (const std::string& name : names) {
    const std::string path = SessionPath(options.spill_dir, name);
    std::ifstream in(path, std::ios::binary);
    if (!in) return fail("cannot open " + path);
    std::uint32_t magic = 0;
    std::string stored_name;
    if (!ReadPod(in, &magic)) return fail("corrupt session header in " + path);
    if (const char* layout = SupersededLayout(magic)) {
      return fail("session spill " + path + " has the superseded \"" +
                  layout +
                  "\" layout, which this build no longer reads; re-create "
                  "the session and checkpoint it again");
    }
    if (magic != kSessionMagic || !ReadString(in, &stored_name) ||
        stored_name != name) {
      return fail("corrupt session header in " + path);
    }
    SessionOptions so;
    SessionOptions::Spec& spec = so.spec;
    std::uint64_t window_size = 0, stride = 0, slides_run = 0;
    std::uint8_t use_msbfs = 0, use_epoch = 0, use_witness = 0;
    std::uint8_t split_policy = 0;
    std::int32_t max_entries = 0;
    if (!ReadPod(in, &spec.dims) || !ReadPod(in, &window_size) ||
        !ReadPod(in, &stride) || !ReadPod(in, &slides_run) ||
        !ReadPod(in, &spec.disc.eps) || !ReadPod(in, &spec.disc.tau) ||
        !ReadPod(in, &use_msbfs) || !ReadPod(in, &use_epoch) ||
        !ReadPod(in, &use_witness) || !ReadPod(in, &max_entries) ||
        !ReadPod(in, &split_policy)) {
      return fail("corrupt session header in " + path);
    }
    spec.window_size = window_size;
    spec.stride = stride;
    // Same geometry gate as CreateSession: a hand-edited or corrupt spill
    // must not build a degenerate pipeline.
    if (spec.stride < 1 || spec.window_size < spec.stride) {
      return fail("corrupt session header in " + path +
                  ": window geometry needs 1 <= stride <= window_size, got "
                  "window_size=" +
                  std::to_string(spec.window_size) +
                  " stride=" + std::to_string(spec.stride));
    }
    // Validate() checks the DiscConfig but not the index geometry; a
    // bit-flipped dims or split-policy byte must fail here, not deep inside
    // the R-tree (or as an out-of-range enum cast).
    if (spec.dims < 1 || spec.dims > kMaxDims) {
      return fail("corrupt session header in " + path +
                  ": dims=" + std::to_string(spec.dims) + " outside [1, " +
                  std::to_string(kMaxDims) + "]");
    }
    if (split_policy > static_cast<std::uint8_t>(SplitPolicy::kRStar)) {
      return fail("corrupt session header in " + path +
                  ": unknown rtree split policy byte " +
                  std::to_string(split_policy));
    }
    spec.disc.use_msbfs = use_msbfs != 0;
    spec.disc.use_epoch_probing = use_epoch != 0;
    spec.disc.use_border_witness = use_witness != 0;
    spec.disc.rtree_max_entries = max_entries;
    spec.disc.rtree_split_policy = static_cast<SplitPolicy>(split_policy);
    spec.disc.num_threads = 1;
    if (Status valid = spec.disc.Validate(); !valid.ok()) {
      return fail("session \"" + name + "\": " + valid.message());
    }
    auto clusterer = std::make_unique<Disc>(spec.dims, spec.disc);
    if (Status loaded = clusterer->LoadCheckpoint(in); !loaded.ok()) {
      return fail("session \"" + name + "\": " + loaded.message());
    }
    // The checkpoint's point count and the header's geometry are stored
    // independently, so a corrupt header can claim a window smaller than
    // the restored contents; that must fail here, not as the window
    // seeding assert.
    std::vector<Point> restored = clusterer->WindowContents();
    if (restored.size() > spec.window_size) {
      return fail("session \"" + name + "\": checkpoint holds " +
                  std::to_string(restored.size()) +
                  " window points but the header claims window_size=" +
                  std::to_string(spec.window_size));
    }
    engine->Admit(name, std::move(so), std::move(clusterer),
                  std::move(restored), slides_run);
  }
  return engine;
}

std::vector<std::string> DiscEngine::SessionNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(sessions_.size());
  for (const auto& session : sessions_) names.push_back(session->name);
  return names;
}

const Disc* DiscEngine::Clusterer(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Session* session = Find(name);
  return session == nullptr ? nullptr : session->clusterer.get();
}

std::size_t DiscEngine::PendingSlides(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Session* session = Find(name);
  return session == nullptr ? 0 : session->pending_slides;
}

std::size_t DiscEngine::SlidesRun(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Session* session = Find(name);
  return session == nullptr ? 0 : session->pipeline->slides_run();
}

std::vector<obs::SessionStatusRow> DiscEngine::SessionStatus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t watermark = 0;
  for (const auto& s : sessions_) {
    const std::size_t frontier = s->pipeline->slides_run() + s->pending_slides;
    if (frontier > watermark) watermark = frontier;
  }
  std::vector<obs::SessionStatusRow> rows;
  rows.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    obs::SessionStatusRow row;
    row.name = s->name;
    row.id = s->id;
    row.window_size = s->last_report.window_size;
    row.slides_run = s->pipeline->slides_run();
    row.queue_depth = s->pending_slides;
    row.watermark_lag_slides = watermark - s->pipeline->slides_run();
    row.last_slide_ms = s->last_report.update_ms;
    rows.push_back(std::move(row));
  }
  return rows;
}

Status DiscEngine::ServeTelemetry(std::uint16_t port,
                                  std::uint16_t* bound_port) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (http_ != nullptr) {
      return Status::Error("telemetry already serving on port " +
                           std::to_string(http_->port()));
    }
  }
  obs::HttpServerOptions server_options;
  server_options.port = port;
  server_options.metrics = options_.metrics;
  server_options.engine = this;
  server_options.tracer = obs::TraceRecorder::active();
  auto server = std::make_unique<obs::HttpServer>(server_options);
  // Start outside the engine lock: the spawned workers take mutex_ through
  // SessionStatus and must never find it held by their own birth.
  if (Status started = server->Start(); !started.ok()) {
    DISC_LOG(kError, "engine.telemetry_start_failed")
        .Str("error", started.message());
    return started;
  }
  if (bound_port != nullptr) *bound_port = server->port();
  std::unique_ptr<obs::HttpServer> displaced;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (http_ == nullptr) {
      http_ = std::move(server);
    } else {
      displaced = std::move(server);  // Lost a race with another caller.
    }
  }
  if (displaced != nullptr) {
    displaced->Stop();
    return Status::Error("telemetry already serving");
  }
  return Status::Ok();
}

void DiscEngine::StopTelemetry() {
  std::unique_ptr<obs::HttpServer> server;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    server = std::move(http_);
  }
  // Destroyed (and therefore joined) without the lock; workers blocked in
  // SessionStatus can finish.
  server.reset();
}

std::uint16_t DiscEngine::TelemetryPort() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return http_ == nullptr ? 0 : http_->port();
}

}  // namespace disc
