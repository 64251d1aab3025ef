#ifndef DISC_ENGINE_DISC_ENGINE_H_
#define DISC_ENGINE_DISC_ENGINE_H_

// DiscEngine: many concurrent DISC sessions multiplexed over one shared
// thread pool, with checkpointed recovery (docs/API.md §Engine).
//
// A *session* is a named (Disc, window, slide queue) triple. Hosts feed raw
// point strides with FeedSlide and call Drain() to advance every session
// that has work; the engine schedules ready sessions round-robin onto the
// pool's lanes, one session per lane. Every session's Disc runs single-lane,
// so scheduling never changes results: per-session snapshots, deltas, and
// checkpoints are byte-identical to a standalone single-threaded run of the
// same stream.
//
// Checkpoint() persists every session into the engine's spill directory
// (drained first, so no queued slide is lost); DiscEngine::Open() restores
// all of them — window contents, labels, slide numbering — and the resumed
// streams continue exactly as if never interrupted.
//
// Scheduler state (the session table, the admission counter, the
// round-robin cursor) is guarded by an internal mutex: every public entry
// point takes it, so concurrent surface calls serialize instead of
// corrupting the table. The intended usage is still one driving thread —
// Drain holds the lock for the whole drain, so a second thread's calls
// would simply block — but the lock discipline is machine-checked
// (GUARDED_BY/REQUIRES, enforced by disc_lint's lock-discipline rule and
// by clang -Wthread-safety where available). Per-session telemetry —
// `engine_session_<name>_*` metrics, "engine.session" trace spans — is
// emitted on the draining thread; see docs/OBSERVABILITY.md.

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/disc.h"
#include "core/pipeline.h"
#include "obs/http_server.h"
#include "obs/metrics_registry.h"
#include "stream/stream_source.h"

namespace disc {

struct EngineOptions {
  // Concurrent lanes of the shared pool, like DiscConfig::num_threads:
  // 1 = no pool (everything runs on the calling thread), 0 = one lane per
  // hardware thread. Lane count never affects any session's output.
  std::uint32_t num_threads = 0;

  // Directory Checkpoint() writes to and Open() reads from. Empty disables
  // checkpointing (Checkpoint() then fails with a Status).
  std::string spill_dir;

  // Optional telemetry sink, borrowed (must outlive the engine). Gains
  // engine_* counters plus engine_session_<name>_* metrics per session.
  obs::MetricsRegistry* metrics = nullptr;
};

// What CreateSession needs to build a session: its Disc and its window.
struct SessionOptions {
  struct Spec {
    std::uint32_t dims = 2;
    // Window geometry of the count-based window; both required.
    std::size_t window_size = 0;
    std::size_t stride = 0;
    // The session's DISC configuration. The engine owns execution:
    // disc.num_threads is forced to 1.
    DiscConfig disc;
  };
  Spec spec;
};

class DiscEngine : public obs::EngineStatusProvider {
 public:
  explicit DiscEngine(const EngineOptions& options);
  ~DiscEngine() override;  // Stops the telemetry server if serving.

  DiscEngine(const DiscEngine&) = delete;
  DiscEngine& operator=(const DiscEngine&) = delete;

  // Admits a new session. Fails (without side effects) when the name is
  // empty, not Prometheus-compatible ([a-zA-Z_][a-zA-Z0-9_]*), or taken;
  // when the window geometry is degenerate (stride < 1 or window_size <
  // stride); or when DiscConfig::Validate() rejects spec.disc — the
  // returned Status carries its message.
  Status CreateSession(const std::string& name, const SessionOptions& options)
      EXCLUDES(mutex_);

  // Queues one slide for the named session. `points` must hold exactly
  // stride points (the count-based window model); ids are the caller's and
  // must be fresh, as with any StreamClusterer. The slide runs at the next
  // Drain().
  Status FeedSlide(const std::string& name, const std::vector<Point>& points)
      EXCLUDES(mutex_);

  // FeedSlide with bounded admission for remote feeders (the ingest
  // plane): the queue-depth check and the admission happen atomically
  // under the engine mutex, so concurrent feeders can never overshoot the
  // bound between a Pending check and a feed. When the session already
  // holds `max_pending_slides` queued slides the call fails, sets *busy
  // to true (when non-null), and admits nothing — the caller owes the
  // producer an explicit BUSY so no slide is ever silently dropped.
  // Validation failures (unknown session, wrong point count, wrong dims)
  // fail with *busy left false.
  Status FeedSlideBounded(const std::string& name,
                          const std::vector<Point>& points,
                          std::size_t max_pending_slides, bool* busy = nullptr)
      EXCLUDES(mutex_);

  // Runs every queued slide of every session to completion and returns the
  // number of slides executed. Scheduling is round-robin over the sessions
  // with work: each round picks the ready set, runs one slide per session
  // across the pool's lanes, then folds telemetry before the next round.
  //
  // A slide that throws — a genuine bug or an injected fault
  // (common/failpoint.h) — never takes the engine down: the failure is
  // logged ("engine.slide_failed"), the session sits out the rest of this
  // drain with its queued slides intact, and the next Drain retries. The
  // executed count covers only slides that completed.
  std::size_t Drain() EXCLUDES(mutex_);

  // Removes the session and its queued slides. Fails when unknown.
  Status CloseSession(const std::string& name) EXCLUDES(mutex_);

  // Drains, then persists every session to spill_dir (one binary file per
  // session plus a manifest). Fails when spill_dir is unset, when a faulted
  // slide is still queued after the drain, or on the first I/O error. The
  // new generation is staged as .tmp files and renamed into place only
  // after every write succeeds, manifest last: a
  // crash (or failure return) at any point leaves the previous manifest
  // live, with each session file it references a complete spill of its old
  // or new generation — Open() always recovers every listed session.
  Status Checkpoint() EXCLUDES(mutex_);

  // Restores an engine (and every session of the manifest) from
  // options.spill_dir. Returns null with the reason in *error when the
  // directory holds no manifest or any session fails to load. Sessions
  // resume with their window contents, labels, and slide numbering intact.
  static std::unique_ptr<DiscEngine> Open(const EngineOptions& options,
                                          Status* error = nullptr);

  // Session names in creation (manifest) order.
  std::vector<std::string> SessionNames() const EXCLUDES(mutex_);

  // The named session's Disc, or null when unknown. Reading through the
  // pointer is safe while no Drain runs; feed the engine to update it.
  const Disc* Clusterer(const std::string& name) const EXCLUDES(mutex_);

  // Stores the named session's current labeling into *out. Unlike going
  // through Clusterer()->Snapshot(), the read holds the engine mutex, so
  // a remote caller's query serializes against an in-flight Drain instead
  // of racing it — the ingest plane's QuerySnapshot entry point.
  Status QuerySnapshot(const std::string& name, ClusteringSnapshot* out) const
      EXCLUDES(mutex_);

  // Queued-but-not-yet-run slides of the named session (0 when unknown).
  std::size_t PendingSlides(const std::string& name) const EXCLUDES(mutex_);

  // Slides the named session has executed since creation — checkpointed
  // and restored, so numbering continues across recovery.
  std::size_t SlidesRun(const std::string& name) const EXCLUDES(mutex_);

  std::size_t session_count() const EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
  }
  const EngineOptions& options() const { return options_; }

  // Live status of every session in creation order — what /sessions serves
  // (obs::EngineStatusProvider). Safe from any thread; waits for an
  // in-flight Drain round.
  std::vector<obs::SessionStatusRow> SessionStatus() const override
      EXCLUDES(mutex_);

  // Starts the embedded telemetry HTTP server (obs/http_server.h) bound to
  // 127.0.0.1:<port> with this engine's registry, status, and the active
  // trace recorder attached. port 0 binds an ephemeral port; the bound port
  // is stored into *bound_port when non-null. Fails when already serving or
  // when the bind fails. docs/API.md §Telemetry.
  Status ServeTelemetry(std::uint16_t port,
                        std::uint16_t* bound_port = nullptr) EXCLUDES(mutex_);

  // Stops and discards the telemetry server. Idempotent; also run by the
  // destructor. Never called under mutex_: server workers may be blocked in
  // SessionStatus() waiting for it.
  void StopTelemetry() EXCLUDES(mutex_);

  // The serving port, or 0 when no telemetry server is running.
  std::uint16_t TelemetryPort() const EXCLUDES(mutex_);

 private:
  // Feeds a session's queued strides to its pipeline: FeedSlide pushes
  // here, the pipeline's window pulls via Next() during a drained slide.
  class QueueSource : public StreamSource {
   public:
    LabeledPoint Next() override;
    void Push(const Point& p) { queue_.push_back(p); }
    std::size_t size() const { return queue_.size(); }

   private:
    std::deque<Point> queue_;
  };

  struct Session {
    std::string name;
    std::uint64_t id = 0;  // Creation order; the trace-span session arg.
    SessionOptions options;
    QueueSource source;
    std::unique_ptr<Disc> clusterer;
    std::unique_ptr<StreamingPipeline> pipeline;
    std::size_t pending_slides = 0;
    // Scratch of the current Drain round, written only by the lane running
    // this session, folded into metrics by the scheduler thread after the
    // round's barrier.
    SlideReport last_report;
    bool ran_this_round = false;
    // Set (by the lane that hit the fault) when this session's slide threw
    // during the current Drain: the session sits out the rest of the drain
    // — its queued slides stay pending, nothing is silently dropped — and
    // retries at the next Drain call. Cleared when a drain begins.
    bool faulted_this_drain = false;
  };

  Session* Find(const std::string& name) REQUIRES(mutex_);
  const Session* Find(const std::string& name) const REQUIRES(mutex_);

  // Shared body of FeedSlide / FeedSlideBounded: validates, then admits.
  // `max_pending_slides` of 0 means unbounded (the in-process path).
  Status FeedSlideLocked(const std::string& name,
                         const std::vector<Point>& points,
                         std::size_t max_pending_slides, bool* busy)
      REQUIRES(mutex_);

  // Builds the session object (no validation; CreateSession and Open have
  // already vetted the options and built the Disc). The seed window and
  // slide counter carry restored state when resuming.
  void Admit(const std::string& name, SessionOptions options,
             std::unique_ptr<Disc> clusterer,
             std::vector<Point> seed_window, std::size_t slides_already_run)
      REQUIRES(mutex_);

  // Drain's body; split out so Checkpoint can drain inside its own
  // critical section (the mutex is not recursive).
  std::size_t DrainLocked() REQUIRES(mutex_);

  // Runs exactly one queued slide of `session` on the calling thread (a
  // pool lane, or the scheduler thread when the session runs alone). Emits
  // the "engine.session" span.
  void ExecuteSessionSlide(Session* session);

  void FoldSessionMetrics(Session* session);

  // Quarantines `session` for the rest of the current drain after its slide
  // threw, logging the fault. Runs on whichever lane hit the exception;
  // touches only the session's own scratch (same discipline as
  // ExecuteSessionSlide), never the table.
  void MarkSlideFault(Session* session, const char* what);

  // Refreshes the per-session backlog gauges (`..._queue_depth`,
  // `..._watermark_lag_slides`, `..._last_slide_ms`) after any queue or
  // progress change. Runs on the scheduler thread under the lock, like
  // FoldSessionMetrics, so gauge writes keep the single-writer discipline.
  void UpdateBacklogGauges() REQUIRES(mutex_);

  Status SaveSession(const Session& session, std::ostream& out) const;

  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // Null when num_threads resolves to 1.

  // Guards the scheduler state below. Held across a whole Drain round,
  // including the ParallelFor barrier: lanes receive raw Session pointers
  // collected under the lock and never touch the table itself.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Session>> sessions_
      GUARDED_BY(mutex_);  // Creation order.
  std::uint64_t next_session_id_ GUARDED_BY(mutex_) = 0;
  // Round-robin start of the next ready set.
  std::size_t rr_cursor_ GUARDED_BY(mutex_) = 0;
  // The embedded telemetry server, when serving. The pointer is guarded;
  // StopTelemetry moves it out under the lock and destroys it unlocked so
  // joining its workers (which may be blocked in SessionStatus) cannot
  // deadlock against mutex_.
  std::unique_ptr<obs::HttpServer> http_ GUARDED_BY(mutex_);
};

}  // namespace disc

#endif  // DISC_ENGINE_DISC_ENGINE_H_
