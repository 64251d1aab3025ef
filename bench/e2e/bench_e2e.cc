// bench_e2e: the end-to-end and per-layer benchmark of the DISC serving
// stack (bench/e2e/README.md). One invocation runs one workload:
//
//   bench_e2e --workload maze-loopback --seed 1 --seconds 24 --trace 0
//
// Each run sets the stack up (engine, ingest server and clients on loopback
// workloads, sessions, window fill), then measures two phases:
//
//  * closed loop, a quarter of --seconds: feed until the engine answers
//    kBusy, drain, re-send — the disc_feed policy — and report points/s;
//  * open loop, the rest: one producer thread sends a slide to every
//    session at each due time of a fixed-rate schedule and drains; latency
//    runs from the due time to the return of that drain. QuerySnapshot
//    calls run on the same thread at their own fixed rate.
//
// After each phase every session's labeling is checked against DBSCAN run
// from scratch on its window. Any failed operation or check makes the run
// incorrect: the result line says so and the exit code is 1.
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics instead: it adds a slide-at-a-time counting phase, traces half of
// the closed loop and the whole open loop with obs::TraceSpans, replays the
// counted slides in standalone Disc instances at 1 and 4 lanes, and times
// the public calls of each layer on the workload's own data. It writes
// trace.json (Chrome trace) and layers.json under --out.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "baselines/dbscan.h"
#include "bench/datasets.h"
#include "core/disc.h"
#include "core/pipeline.h"
#include "engine/disc_engine.h"
#include "eval/equivalence.h"
#include "index/rtree.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "net/wire.h"
#include "obs/log.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace disc {
namespace {

using Clock = std::chrono::steady_clock;

// Engine lanes: one per core of the 4-core host the workloads were sized on.
constexpr std::uint32_t kLanes = 4;
// Per-session admission bound. The closed loop feeds until a session holds
// this many queued slides, gets kBusy, and drains.
constexpr std::size_t kMaxPending = 32;
// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetupRepeats = 5;
// Slides of the workload's own stream that the codec / admission probes use.
constexpr std::size_t kProbeSlides = 48;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

// Linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Peak resident set of this process (VmHWM), in bytes.
double PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return 1024.0 * std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  bench::DatasetSpec data;  // Generator, dims, eps, tau, window size.
  std::size_t stride = 0;
  std::size_t sessions = 1;
  // Sessions are driven over TCP: IngestClient → IngestServer → DiscEngine.
  bool loopback = false;
  // Set-up ends with Checkpoint → destroy → DiscEngine::Open.
  bool restart_in_setup = false;
  // Open-loop schedule. One event feeds one slide to every session and
  // drains. The rates are fixed constants, never derived at run time, so a
  // slower build faces the same offered load. They were set once, when the
  // benchmark was introduced, to load the one-event-at-a-time path to
  // about 45% of its capacity on the 4-core host (bench/e2e/README.md).
  // The slide rate is a whole multiple of the query rate.
  double events_per_s = 0.0;
  double queries_per_s = 0.0;
  // --trace 1: slides drained one at a time so each one's counters can be
  // read; also the slides the 1-lane / 4-lane replays run.
  std::size_t counted_slides = 0;
};

bool FindWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "maze-loopback") {
    // Small slides: wire, two RPCs, admission and the pool borrow are a
    // large share of each slide.
    w.data = bench::MazeSpec();
    w.stride = 240;
    w.loopback = true;
    w.events_per_s = 120.0;
    w.queries_per_s = 2.0;
    w.counted_slides = 200;
  } else if (name == "dtg-inproc") {
    // The ex-core phase dominates: MS-BFS and cluster-id work, no wire.
    w.data = bench::DtgSpec();
    w.stride = 200;
    w.events_per_s = 24.0;
    w.queries_per_s = 8.0;
    w.counted_slides = 100;
  } else if (name == "geolife-inproc") {
    // 3-D, 25% stride: COLLECT and R-tree probes dominate.
    w.data = bench::GeolifeSpec();
    w.stride = 2500;
    w.events_per_s = 24.0;
    w.queries_per_s = 6.0;
    w.counted_slides = 40;
  } else if (name == "multi-tenant") {
    // One session per lane (concurrent drain rounds), reads beside the
    // feeds, and a checkpoint/recover cycle in set-up.
    w.data = bench::MazeSpec(1.0, 6000);
    w.stride = 120;
    w.sessions = 4;
    w.loopback = true;
    w.restart_in_setup = true;
    w.events_per_s = 200.0;
    w.queries_per_s = 20.0;
    w.counted_slides = 100;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

// Seed of one session's stream; session 0 streams the run seed itself.
std::uint64_t SessionSeed(std::uint64_t seed, std::size_t session) {
  return seed + 0x9E3779B97F4A7C15ull * session;
}

// A session of the workload, as created over the wire...
net::CreateSessionRequest SessionRequest(const Workload& w,
                                         const std::string& name) {
  net::CreateSessionRequest request;
  request.name = name;
  request.dims = w.data.dims;
  request.window_size = w.data.window;
  request.stride = w.stride;
  request.eps = w.data.eps;
  request.tau = w.data.tau;
  return request;
}

// ...and in-process.
SessionOptions SessionSpec(const Workload& w) {
  SessionOptions options;
  options.spec.dims = w.data.dims;
  options.spec.window_size = w.data.window;
  options.spec.stride = w.stride;
  options.spec.disc.eps = w.data.eps;
  options.spec.disc.tau = w.data.tau;
  return options;
}

// ---------------------------------------------------------------------------
// Operation ledger
// ---------------------------------------------------------------------------

// Counts what the result line reports as attempted/failed. A kBusy answer
// re-sends the same slide: it is counted in `busy`, not as a failure.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t busy = 0;

  bool Record(const Status& status, const std::string& what) {
    ++attempted;
    if (status.ok()) return true;
    Fail(what + ": " + status.message());
    return false;
  }
  void Fail(const std::string& error, std::uint64_t count = 1) {
    failed += count;
    std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
  }
  bool ok() const { return failed == 0; }
};

// ---------------------------------------------------------------------------
// The stack under test
// ---------------------------------------------------------------------------

// One engine, plus — on loopback workloads — the ingest server in front of
// it and one client connection per session, all in this process.
struct Stack {
  const Workload* w = nullptr;
  EngineOptions engine_options;
  obs::MetricsRegistry registry;
  std::unique_ptr<DiscEngine> engine;
  std::unique_ptr<net::IngestServer> server;
  std::vector<std::unique_ptr<net::IngestClient>> clients;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<StreamSource>> sources;
  std::vector<std::uint64_t> points_fed;  // Admitted, per session.
  // Wall time of every Drain call (an RPC on loopback workloads) and the
  // slides those drains executed.
  double drain_ms = 0.0;
  std::uint64_t drained_slides = 0;
  std::size_t pending_max = 0;
  double fill_peak_rss = 0.0;  // VmHWM when the windows were first full.

  ~Stack() { Disconnect(); }

  // Clients first: a server lane serves one connection until it closes.
  void Disconnect() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
  }

  Status Connect() {
    if (!w->loopback) return Status::Ok();
    net::IngestServerOptions so;
    so.engine = engine.get();
    so.metrics = &registry;
    so.worker_threads = w->sessions;  // One lane per connection.
    so.max_pending_slides = kMaxPending;
    so.io_timeout_s = 60;
    server = std::make_unique<net::IngestServer>(so);
    if (Status started = server->Start(); !started.ok()) return started;
    for (std::size_t s = 0; s < w->sessions; ++s) {
      net::IngestClientOptions co;
      co.port = server->port();
      co.io_timeout_s = 60;
      auto client = std::make_unique<net::IngestClient>(co);
      if (Status connected = client->Connect(); !connected.ok()) {
        return connected;
      }
      clients.push_back(std::move(client));
    }
    return Status::Ok();
  }

  Status CreateSessions() {
    for (std::size_t s = 0; s < w->sessions; ++s) {
      const Status created =
          server != nullptr
              ? clients[s]->CreateSession(SessionRequest(*w, names[s]))
              : engine->CreateSession(names[s], SessionSpec(*w));
      if (!created.ok()) return created;
    }
    return Status::Ok();
  }

  Status Feed(std::size_t s, const std::vector<Point>& slide, bool* busy) {
    if (server != nullptr) return clients[s]->FeedSlide(names[s], slide, busy);
    return engine->FeedSlideBounded(names[s], slide, kMaxPending, busy);
  }

  Status Drain(std::uint64_t* executed) {
    if (server != nullptr) return clients[0]->Drain(executed);
    *executed = engine->Drain();
    return Status::Ok();
  }

  Status Query(std::size_t s, ClusteringSnapshot* out) {
    if (server != nullptr) return clients[s]->QuerySnapshot(names[s], out);
    return engine->QuerySnapshot(names[s], out);
  }

  // Sessions are always DISC (the engine's default method). Reading through
  // this pointer is safe while no Drain runs: Clusterer() takes the engine
  // mutex that the last Drain released.
  const Disc* Session(std::size_t s) {
    return static_cast<const Disc*>(engine->Clusterer(names[s]));
  }

  std::vector<Point> NextSlide(std::size_t s) {
    return sources[s]->NextPoints(w->stride);
  }

  // Sum of the engine's per-slide update_ms histogram over all sessions.
  double UpdateMsSum() {
    double sum = 0.0;
    for (const std::string& name : names) {
      sum += registry.histogram("engine_session_" + name + "_update_ms").sum();
    }
    return sum;
  }

  std::size_t WindowPoints() const { return w->sessions * w->data.window; }
};

bool DrainAll(Stack& st, Ledger* ledger) {
  obs::TraceSpan span("bench.drain");
  const Clock::time_point start = Clock::now();
  std::uint64_t executed = 0;
  const Status drained = st.Drain(&executed);
  st.drain_ms += MsBetween(start, Clock::now());
  st.drained_slides += executed;
  return ledger->Record(drained, "drain");
}

// disc_feed's policy: on kBusy, drain to make room and re-send the slide.
bool FeedSlide(Stack& st, std::size_t s, const std::vector<Point>& slide,
               Ledger* ledger) {
  for (;;) {
    bool busy = false;
    Status fed;
    {
      obs::TraceSpan span("bench.feed");
      fed = st.Feed(s, slide, &busy);
    }
    if (fed.ok()) {
      ++ledger->attempted;
      st.points_fed[s] += slide.size();
      st.pending_max =
          std::max(st.pending_max, st.engine->PendingSlides(st.names[s]));
      return true;
    }
    if (!busy) return ledger->Record(fed, "feed " + st.names[s]);
    ++ledger->busy;
    if (!DrainAll(st, ledger)) return false;
  }
}

// ---------------------------------------------------------------------------
// Exactness gates (never inside a timed region)
// ---------------------------------------------------------------------------

// Every session's labeling equals DBSCAN from scratch on its window, and the
// window holds exactly the newest admitted points — no slide was lost.
bool CheckExact(Stack& st, const std::string& phase, Ledger* ledger) {
  const std::size_t window = st.w->data.window;
  for (std::size_t s = 0; s < st.w->sessions; ++s) {
    const std::string where = phase + " " + st.names[s];
    const std::vector<Point> points = st.Session(s)->WindowContents();
    const std::uint64_t fed = st.points_fed[s];
    const std::uint64_t expected = std::min<std::uint64_t>(fed, window);
    bool contiguous = points.size() == expected;
    for (std::size_t i = 0; contiguous && i < points.size(); ++i) {
      contiguous = points[i].id == fed - expected + i;
    }
    ++ledger->attempted;
    if (!contiguous) {
      ledger->Fail(where + ": window does not hold the newest " +
                   std::to_string(expected) + " admitted points");
      return false;
    }
    ClusteringSnapshot snapshot;
    if (!ledger->Record(st.engine->QuerySnapshot(st.names[s], &snapshot),
                        where + " snapshot")) {
      return false;
    }
    const DbscanResult reference =
        RunDbscan(points, st.w->data.eps, st.w->data.tau);
    const EquivalenceResult same = CheckSameClustering(
        snapshot, reference.snapshot, points, st.w->data.eps);
    ++ledger->attempted;
    if (!same.ok) {
      ledger->Fail(where + ": differs from DBSCAN: " + same.error);
      return false;
    }
  }
  return true;
}

struct SavedState {
  std::vector<ClusteringSnapshot> snapshots;
  std::vector<std::vector<Point>> windows;
};

SavedState SaveState(Stack& st) {
  SavedState saved;
  for (std::size_t s = 0; s < st.w->sessions; ++s) {
    saved.windows.push_back(st.Session(s)->WindowContents());
    saved.snapshots.push_back(st.Session(s)->Snapshot());
  }
  return saved;
}

// After Checkpoint → Open each session holds the same window and the same
// clustering (cluster ids may be renamed by the bulk-loaded index).
bool CheckRestored(Stack& st, const SavedState& before, Ledger* ledger) {
  for (std::size_t s = 0; s < st.w->sessions; ++s) {
    const std::vector<Point> points = st.Session(s)->WindowContents();
    bool same_window = points.size() == before.windows[s].size();
    for (std::size_t i = 0; same_window && i < points.size(); ++i) {
      same_window = points[i].id == before.windows[s][i].id;
    }
    const EquivalenceResult same =
        CheckSameClustering(before.snapshots[s], st.Session(s)->Snapshot(),
                            before.windows[s], st.w->data.eps);
    ++ledger->attempted;
    if (!same_window || !same.ok) {
      ledger->Fail("restart " + st.names[s] + ": recovered state differs: " +
                   (same_window ? same.error : "window contents"));
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

// Everything a deployment pays before it serves: engine (and server) start,
// session creation, window fill and, on restart_in_setup workloads,
// Checkpoint → destroy → DiscEngine::Open → reconnect. The restart gate's
// state capture and comparison are not timed.
std::unique_ptr<Stack> SetUp(const Workload& w, std::uint64_t seed,
                             const std::string& spill_dir, Ledger* ledger,
                             double* seconds) {
  auto st = std::make_unique<Stack>();
  st->w = &w;
  for (std::size_t s = 0; s < w.sessions; ++s) {
    st->names.push_back("s" + std::to_string(s));
    st->sources.push_back(w.data.make(SessionSeed(seed, s)));
    st->points_fed.push_back(0);
  }
  st->engine_options.num_threads = kLanes;
  st->engine_options.spill_dir = spill_dir;
  st->engine_options.metrics = &st->registry;

  const Clock::time_point start = Clock::now();
  st->engine = std::make_unique<DiscEngine>(st->engine_options);
  if (!ledger->Record(st->Connect(), "connect") ||
      !ledger->Record(st->CreateSessions(), "create sessions")) {
    return nullptr;
  }
  for (std::size_t k = 0; k < w.data.window / w.stride; ++k) {
    for (std::size_t s = 0; s < w.sessions; ++s) {
      if (!FeedSlide(*st, s, st->NextSlide(s), ledger)) return nullptr;
    }
  }
  if (!DrainAll(*st, ledger)) return nullptr;
  *seconds = SecondsSince(start);
  st->fill_peak_rss = PeakRssBytes();

  if (w.restart_in_setup) {
    const SavedState before = SaveState(*st);
    const Clock::time_point restart = Clock::now();
    if (!ledger->Record(st->engine->Checkpoint(), "checkpoint")) {
      return nullptr;
    }
    st->Disconnect();
    st->engine.reset();
    Status opened;
    st->engine = DiscEngine::Open(st->engine_options, &opened);
    if (!ledger->Record(opened, "open") ||
        !ledger->Record(st->Connect(), "reconnect")) {
      return nullptr;
    }
    *seconds += SecondsSince(restart);
    if (!CheckRestored(*st, before, ledger)) return nullptr;
  }
  return st;
}

// ---------------------------------------------------------------------------
// Measured phases
// ---------------------------------------------------------------------------

struct ClosedLoop {
  double seconds = 0.0;
  std::uint64_t points = 0;  // Executed by the phase's drains.
  std::uint64_t feeds = 0;   // Feed calls, kBusy answers included.
  std::uint64_t busy = 0;

  double points_per_s() const {
    return Ratio(static_cast<double>(points), seconds);
  }
};

ClosedLoop RunClosedLoop(Stack& st, double seconds, Ledger* ledger) {
  ClosedLoop result;
  obs::TraceSpan span("bench.closed_loop");
  const std::uint64_t slides_before = st.drained_slides;
  const std::uint64_t busy_before = ledger->busy;
  std::uint64_t admitted = 0;
  const Clock::time_point start = Clock::now();
  while (ledger->ok() && SecondsSince(start) < seconds) {
    for (std::size_t s = 0; s < st.w->sessions; ++s) {
      if (!FeedSlide(st, s, st.NextSlide(s), ledger)) break;
      ++admitted;
    }
  }
  DrainAll(st, ledger);
  result.seconds = SecondsSince(start);
  result.points = (st.drained_slides - slides_before) * st.w->stride;
  result.busy = ledger->busy - busy_before;
  result.feeds = admitted + result.busy;
  return result;
}

struct OpenLoop {
  std::vector<double> slide_ms;  // Due time → return of the event's drain.
  std::vector<double> query_ms;  // Due time → snapshot answered.
  std::vector<double> lag_ms;    // Due time → first send of the event.
};

// Sleeps until shortly before `due`, then spins, so the send time does not
// inherit the scheduler's wake-up jitter.
void WaitUntil(Clock::time_point due) {
  const Clock::time_point coarse = due - std::chrono::microseconds(300);
  if (Clock::now() < coarse) std::this_thread::sleep_until(coarse);
  while (Clock::now() < due) {
  }
}

OpenLoop RunOpenLoop(Stack& st, double seconds, Ledger* ledger) {
  OpenLoop result;
  obs::TraceSpan span("bench.open_loop");
  const Workload& w = *st.w;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const auto at = [start](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  const Clock::time_point end = at(seconds);
  // A build too slow for the schedule would otherwise keep working through
  // its backlog long after the phase. Events still unsent at this point are
  // the slowest samples: they are not sent but counted as failed, so that
  // cutting off the tail cannot hide latency.
  const Clock::time_point hard_end = at(2.0 * seconds);
  std::uint64_t cut_off = 0;

  std::vector<std::vector<Point>> next(w.sessions);
  for (std::size_t s = 0; s < w.sessions; ++s) next[s] = st.NextSlide(s);
  std::uint64_t event = 0;
  std::uint64_t query = 0;
  // The slide rate is a whole multiple of the query rate, so every query is
  // due three quarters into a gap between slide events — after the slide
  // has usually finished at the load the rates are set for.
  const double query_offset_s = 0.75 / w.events_per_s;
  while (ledger->ok()) {
    const Clock::time_point slide_due =
        at(static_cast<double>(event) / w.events_per_s);
    const Clock::time_point query_due =
        at(static_cast<double>(query) / w.queries_per_s + query_offset_s);
    const bool is_query = query_due < slide_due;
    const Clock::time_point due = is_query ? query_due : slide_due;
    if (due >= end) break;
    if (Clock::now() >= hard_end) {
      ++cut_off;
      if (is_query) {
        ++query;
      } else {
        ++event;
      }
      continue;
    }
    WaitUntil(due);
    if (is_query) {
      obs::TraceSpan query_span("bench.query");
      ClusteringSnapshot snapshot;
      const std::size_t s = query % w.sessions;
      if (!ledger->Record(st.Query(s, &snapshot), "query " + st.names[s])) {
        break;
      }
      result.query_ms.push_back(MsBetween(due, Clock::now()));
      ++query;
      continue;
    }
    result.lag_ms.push_back(MsBetween(due, Clock::now()));
    {
      obs::TraceSpan event_span("bench.open_event");
      for (std::size_t s = 0; s < w.sessions; ++s) {
        if (!FeedSlide(st, s, next[s], ledger)) break;
      }
      if (!ledger->ok() || !DrainAll(st, ledger)) break;
    }
    result.slide_ms.push_back(MsBetween(due, Clock::now()));
    for (std::size_t s = 0; s < w.sessions; ++s) next[s] = st.NextSlide(s);
    ++event;
  }
  if (cut_off > 0) {
    ledger->attempted += cut_off;
    ledger->Fail("open loop: " + std::to_string(cut_off) +
                     " events due in the phase were still unsent at twice "
                     "its length",
                 cut_off);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Per-layer measurement (--trace 1)
// ---------------------------------------------------------------------------

// The lane-count-deterministic DiscMetrics of one update, plus its relabel
// count, as one comparable string.
std::string CounterKey(const Disc& disc) {
  const DiscMetrics& m = disc.last_metrics();
  std::ostringstream os;
  os << m.range_searches << ',' << m.collect_searches << ','
     << m.cluster_searches << ',' << m.num_ex_cores << ',' << m.num_neo_cores
     << ',' << m.num_ex_groups << ',' << m.num_neo_groups << ','
     << m.msbfs_expansions << ',' << m.msbfs_rounds << ','
     << m.survivor_reconciliations << ',' << m.nodes_visited << ','
     << m.entries_checked << ',' << m.leaf_entries_tested << ','
     << m.epoch_pruned << ',' << disc.last_delta().relabeled.size();
  return os.str();
}

// Per-slide sums over the counting phase, every session included.
struct CoreTotals {
  std::uint64_t slides = 0;
  DiscMetrics sum;  // Counters and phase timings summed.
  std::uint64_t relabeled = 0;
  double update_ms = 0.0;
  double snapshot_ms = 0.0;  // Session 0, once per counted event.

  void Add(const Disc& disc) {
    const DiscMetrics& m = disc.last_metrics();
    ++slides;
    sum.range_searches += m.range_searches;
    sum.collect_searches += m.collect_searches;
    sum.cluster_searches += m.cluster_searches;
    sum.num_ex_cores += m.num_ex_cores;
    sum.num_neo_cores += m.num_neo_cores;
    sum.msbfs_expansions += m.msbfs_expansions;
    sum.msbfs_rounds += m.msbfs_rounds;
    sum.nodes_visited += m.nodes_visited;
    sum.leaf_entries_tested += m.leaf_entries_tested;
    sum.epoch_pruned += m.epoch_pruned;
    sum.collect_ms += m.collect_ms;
    sum.collect_parallel_ms += m.collect_parallel_ms;
    sum.ex_phase_ms += m.ex_phase_ms;
    sum.cluster_parallel_ms += m.cluster_parallel_ms;
    sum.neo_phase_ms += m.neo_phase_ms;
    sum.recheck_ms += m.recheck_ms;
    relabeled += disc.last_delta().relabeled.size();
  }
};

// Drains one event at a time so every slide's counters can be read off the
// sessions. Session 0's per-slide counter keys go to *keys.
bool RunCountedSlides(Stack& st, CoreTotals* totals,
                      std::vector<std::string>* keys, Ledger* ledger) {
  const double update_before = st.UpdateMsSum();
  for (std::size_t k = 0; k < st.w->counted_slides; ++k) {
    for (std::size_t s = 0; s < st.w->sessions; ++s) {
      if (!FeedSlide(st, s, st.NextSlide(s), ledger)) return false;
    }
    if (!DrainAll(st, ledger)) return false;
    for (std::size_t s = 0; s < st.w->sessions; ++s) {
      totals->Add(*st.Session(s));
    }
    const Disc* first = st.Session(0);
    keys->push_back(CounterKey(*first));
    const Clock::time_point start = Clock::now();
    first->Snapshot();
    totals->snapshot_ms += MsBetween(start, Clock::now());
  }
  totals->update_ms = st.UpdateMsSum() - update_before;
  return true;
}

struct Replay {
  std::vector<std::string> keys;  // One per counted slide.
  double update_ms = 0.0;         // Summed over the counted slides.
};

// Session 0's stream through a standalone Disc at `lanes` lanes: the window
// fill, a checkpoint round trip where the workload restarts in set-up, then
// the counted slides.
Replay ReplaySession(const Workload& w, std::uint64_t seed,
                     std::uint32_t lanes) {
  Replay replay;
  std::unique_ptr<StreamSource> source = w.data.make(SessionSeed(seed, 0));
  DiscConfig config;
  config.eps = w.data.eps;
  config.tau = w.data.tau;
  config.num_threads = lanes;
  auto disc = std::make_unique<Disc>(w.data.dims, config);
  const std::size_t fill = w.data.window / w.stride;
  auto pipeline = std::make_unique<StreamingPipeline>(
      source.get(), disc.get(), w.data.window, w.stride);
  pipeline->Run(fill);
  if (w.restart_in_setup) {
    std::stringstream spill;
    auto restored = std::make_unique<Disc>(w.data.dims, config);
    if (!disc->SaveCheckpoint(spill).ok() ||
        !restored->LoadCheckpoint(spill).ok()) {
      return replay;  // No keys: the counter gate reports the mismatch.
    }
    disc = std::move(restored);
    pipeline = std::make_unique<StreamingPipeline>(
        source.get(), disc.get(), w.data.window, w.stride,
        disc->WindowContents(), fill);
  }
  const Disc* observed = disc.get();
  pipeline->Run(w.counted_slides, [&](const SlideReport& report) {
    replay.update_ms += report.update_ms;
    replay.keys.push_back(CounterKey(*observed));
    return true;
  });
  return replay;
}

std::vector<std::vector<Point>> ProbeSlides(const Workload& w,
                                            std::uint64_t seed) {
  std::unique_ptr<StreamSource> source = w.data.make(SessionSeed(seed, 0));
  std::vector<std::vector<Point>> slides;
  for (std::size_t k = 0; k < kProbeSlides; ++k) {
    slides.push_back(source->NextPoints(w.stride));
  }
  return slides;
}

struct CodecProbe {
  double encode_us = 0.0;  // Per slide: EncodeFeedSlide + EncodeFrame.
  double decode_us = 0.0;  // Per slide: DecodeFeedSlide.
  double frame_bytes_per_point = 0.0;
};

CodecProbe MeasureCodec(const std::vector<std::vector<Point>>& slides,
                        Ledger* ledger) {
  CodecProbe probe;
  std::vector<double> encode_passes;
  std::vector<double> decode_passes;
  std::size_t frame_bytes = 0;
  std::size_t points = 0;
  for (int pass = 0; pass < 7; ++pass) {
    double encode_ms = 0.0;
    double decode_ms = 0.0;
    for (const std::vector<Point>& slide : slides) {
      net::FeedSlideRequest request;
      request.name = "s0";
      request.points = slide;
      Clock::time_point start = Clock::now();
      const std::string payload = net::EncodeFeedSlide(request);
      const std::string frame =
          net::EncodeFrame(net::MessageType::kFeedSlide, payload);
      encode_ms += MsBetween(start, Clock::now());
      net::FeedSlideRequest decoded;
      start = Clock::now();
      const Status status = net::DecodeFeedSlide(payload, &decoded);
      decode_ms += MsBetween(start, Clock::now());
      if (!ledger->Record(status, "decode probe")) return probe;
      if (pass == 0) {
        frame_bytes += frame.size();
        points += slide.size();
      }
    }
    const auto n = static_cast<double>(slides.size());
    encode_passes.push_back(1000.0 * encode_ms / n);
    decode_passes.push_back(1000.0 * decode_ms / n);
  }
  probe.encode_us = Median(encode_passes);
  probe.decode_us = Median(decode_passes);
  probe.frame_bytes_per_point =
      Ratio(static_cast<double>(frame_bytes), static_cast<double>(points));
  return probe;
}

struct AdmitProbe {
  double rpc_p50_us = 0.0;    // IngestClient::FeedSlide round trip.
  double admit_p50_us = 0.0;  // DiscEngine::FeedSlideBounded.
};

// Admission alone, without clustering: the probe slides go into idle
// sessions of a scratch engine whose bound is never reached, once over a
// loopback connection and once in-process.
AdmitProbe MeasureAdmission(const Workload& w,
                            const std::vector<std::vector<Point>>& slides,
                            Ledger* ledger) {
  AdmitProbe probe;
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  DiscEngine engine(engine_options);
  net::IngestServerOptions server_options;
  server_options.engine = &engine;
  server_options.worker_threads = 1;
  server_options.max_pending_slides = slides.size() + 1;
  net::IngestServer server(server_options);
  if (!ledger->Record(server.Start(), "probe server")) return probe;
  std::vector<double> rpc_us;
  {
    net::IngestClientOptions client_options;
    client_options.port = server.port();
    net::IngestClient client(client_options);
    if (!ledger->Record(client.Connect(), "probe connect") ||
        !ledger->Record(client.CreateSession(SessionRequest(w, "rpc")),
                        "probe session")) {
      return probe;
    }
    for (const std::vector<Point>& slide : slides) {
      const Clock::time_point start = Clock::now();
      const Status fed = client.FeedSlide("rpc", slide);
      rpc_us.push_back(1000.0 * MsBetween(start, Clock::now()));
      if (!ledger->Record(fed, "probe feed")) return probe;
    }
  }
  server.Stop();
  if (!ledger->Record(engine.CreateSession("admit", SessionSpec(w)),
                      "probe session")) {
    return probe;
  }
  std::vector<double> admit_us;
  for (const std::vector<Point>& slide : slides) {
    const Clock::time_point start = Clock::now();
    const Status fed =
        engine.FeedSlideBounded("admit", slide, slides.size() + 1);
    admit_us.push_back(1000.0 * MsBetween(start, Clock::now()));
    if (!ledger->Record(fed, "probe admit")) return probe;
  }
  probe.rpc_p50_us = Median(rpc_us);
  probe.admit_p50_us = Median(admit_us);
  return probe;
}

struct RestartProbe {
  double checkpoint_ms = 0.0;
  double checkpoint_bytes_per_point = 0.0;
  double open_ms = 0.0;
};

// Checkpoint and Open of the live engine, each timed three times.
RestartProbe MeasureRestart(Stack& st, Ledger* ledger) {
  RestartProbe probe;
  std::vector<double> checkpoint_ms;
  std::vector<double> open_ms;
  EngineOptions open_options = st.engine_options;
  open_options.metrics = nullptr;
  for (int k = 0; k < 3; ++k) {
    Clock::time_point start = Clock::now();
    if (!ledger->Record(st.engine->Checkpoint(), "checkpoint probe")) {
      return probe;
    }
    checkpoint_ms.push_back(MsBetween(start, Clock::now()));
    Status opened;
    start = Clock::now();
    std::unique_ptr<DiscEngine> reopened =
        DiscEngine::Open(open_options, &opened);
    open_ms.push_back(MsBetween(start, Clock::now()));
    if (!ledger->Record(opened, "open probe")) return probe;
  }
  std::uintmax_t bytes = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(st.engine_options.spill_dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  probe.checkpoint_ms = Median(checkpoint_ms);
  probe.open_ms = Median(open_ms);
  probe.checkpoint_bytes_per_point =
      Ratio(static_cast<double>(bytes), static_cast<double>(st.WindowPoints()));
  return probe;
}

struct IndexProbe {
  double range_search_us = 0.0;
  double heap_bytes_per_point = 0.0;
};

// RTree::RangeSearch around every window point of session 0, on a tree
// bulk-loaded from the window; heap growth of that build per point.
IndexProbe MeasureIndex(Stack& st) {
  IndexProbe probe;
  const std::vector<Point> window = st.Session(0)->WindowContents();
  const std::size_t heap_before = mallinfo2().uordblks;
  RTree tree(st.w->data.dims);
  tree.BulkLoad(window);
  const std::size_t heap_after = mallinfo2().uordblks;
  probe.heap_bytes_per_point =
      Ratio(static_cast<double>(heap_after) - static_cast<double>(heap_before),
            static_cast<double>(window.size()));
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    const Clock::time_point start = Clock::now();
    for (const Point& p : window) {
      tree.RangeSearch(p, st.w->data.eps, [](PointId, const Point&) {});
    }
    passes.push_back(1000.0 * MsBetween(start, Clock::now()) /
                     static_cast<double>(window.size()));
  }
  probe.range_search_us = Median(passes);
  return probe;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 24.0;
  bool trace = false;
  std::string out = ".bench_build/e2e/results";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// What one run measured, for EndToEndMetrics and LayerMetrics below.
struct Measured {
  std::vector<double> setup_s;
  double rss_growth = 0.0;  // VmHWM growth through the first window fill.
  // --trace 1 counting phase: every session's slides, and session 0's
  // per-slide counter keys for the replay gate.
  CoreTotals core;
  std::vector<std::string> engine_keys;
  ClosedLoop closed;  // With --trace 1, the untraced first half.
  ClosedLoop traced;  // With --trace 1, the traced second half.
  OpenLoop open;
  // Over the closed and open loop: Σ update_ms of every session, and the
  // Drain calls' wall time and executed slides.
  double update_ms = 0.0;
  double drain_ms = 0.0;
  std::uint64_t drained_slides = 0;
};

// Closed loop for a quarter of the run, open loop for the rest: the open
// loop needs the longer share to collect 400+ latency samples at the
// slowest workload's rate. With --trace 1 a counting phase runs first, and
// the second half of the closed loop and the open loop are traced.
void RunPhases(Stack& st, const Args& args, obs::TraceRecorder* recorder,
               Measured* m, Ledger* ledger) {
  if (args.trace && !RunCountedSlides(st, &m->core, &m->engine_keys, ledger)) {
    return;
  }
  const double update_before = st.UpdateMsSum();
  const double drain_ms_before = st.drain_ms;
  const std::uint64_t drained_before = st.drained_slides;
  const double closed_s = args.seconds / 4.0;
  if (args.trace) {
    m->closed = RunClosedLoop(st, closed_s / 2.0, ledger);
    recorder->Install();
    m->traced = RunClosedLoop(st, closed_s / 2.0, ledger);
  } else {
    m->closed = RunClosedLoop(st, closed_s, ledger);
  }
  if (ledger->ok()) CheckExact(st, "closed loop", ledger);
  if (ledger->ok()) m->open = RunOpenLoop(st, args.seconds - closed_s, ledger);
  recorder->Uninstall();
  if (ledger->ok()) CheckExact(st, "open loop", ledger);
  if (ledger->ok() && m->open.slide_ms.empty()) {
    ledger->Fail("open loop produced no latency samples");
  }
  m->update_ms = st.UpdateMsSum() - update_before;
  m->drain_ms = st.drain_ms - drain_ms_before;
  m->drained_slides = st.drained_slides - drained_before;
}

std::vector<Metric> EndToEndMetrics(const Workload& w, const Measured& m,
                                    const Ledger& ledger) {
  const auto window_points = static_cast<double>(w.sessions * w.data.window);
  return {
      {"points_per_s", m.closed.points_per_s(), "points/s"},
      {"slide_latency_p50_ms", Quantile(m.open.slide_ms, 0.50), "ms"},
      {"slide_latency_p95_ms", Quantile(m.open.slide_ms, 0.95), "ms"},
      {"query_latency_p50_ms", Quantile(m.open.query_ms, 0.50), "ms"},
      {"success_frac",
       1.0 - Ratio(static_cast<double>(ledger.failed),
                   static_cast<double>(ledger.attempted)),
       "frac"},
      {"setup_s", Median(m.setup_s), "s"},
      {"rss_bytes_per_point", Ratio(m.rss_growth, window_points),
       "bytes/point"},
  };
}

// Runs the per-layer probes on the live stack and its workload's data, the
// replay gate, and assembles every per-layer metric.
std::vector<Metric> LayerMetrics(const Workload& w, std::uint64_t seed,
                                 Stack& st, const Measured& m,
                                 Ledger* ledger) {
  const std::vector<std::vector<Point>> slides = ProbeSlides(w, seed);
  const CodecProbe codec = MeasureCodec(slides, ledger);
  const AdmitProbe admit = MeasureAdmission(w, slides, ledger);
  std::vector<double> query_ms;
  for (int k = 0; k < 10 && ledger->ok(); ++k) {
    ClusteringSnapshot snapshot;
    const Clock::time_point start = Clock::now();
    ledger->Record(st.engine->QuerySnapshot(st.names[0], &snapshot),
                   "query probe");
    query_ms.push_back(MsBetween(start, Clock::now()));
  }
  const RestartProbe restart = MeasureRestart(st, ledger);
  const IndexProbe index = MeasureIndex(st);
  const Replay one_lane = ReplaySession(w, seed, 1);
  const Replay all_lanes = ReplaySession(w, seed, kLanes);
  ++ledger->attempted;
  if (one_lane.keys != m.engine_keys || all_lanes.keys != m.engine_keys) {
    ledger->Fail("core counters of the 1-lane / 4-lane replays differ from "
                 "the engine run");
  }

  const auto n = static_cast<double>(m.core.slides);
  const DiscMetrics& c = m.core.sum;
  const auto per_slide = [n](double v) { return Ratio(v, n); };
  const auto count = [n](std::uint64_t v) {
    return Ratio(static_cast<double>(v), n);
  };
  const auto per_search = [&c](std::uint64_t v) {
    return Ratio(static_cast<double>(v),
                 static_cast<double>(c.range_searches));
  };
  const double concurrency =
      static_cast<double>(std::min<std::size_t>(w.sessions, kLanes));
  return {
      {"net.encode_us_per_slide", codec.encode_us, "us"},
      {"net.decode_us_per_slide", codec.decode_us, "us"},
      {"net.frame_bytes_per_point", codec.frame_bytes_per_point,
       "bytes/point"},
      {"net.feed_rpc_p50_us", admit.rpc_p50_us, "us"},
      {"net.busy_frac",
       Ratio(static_cast<double>(m.closed.busy + m.traced.busy),
             static_cast<double>(m.closed.feeds + m.traced.feeds)),
       "frac"},
      {"engine.admit_p50_us", admit.admit_p50_us, "us"},
      {"engine.drain_ms_per_slide",
       Ratio(m.drain_ms, static_cast<double>(m.drained_slides)), "ms"},
      {"engine.dispatch_overhead_frac",
       1.0 - Ratio(m.update_ms, concurrency * m.drain_ms), "frac"},
      {"engine.pending_max", static_cast<double>(st.pending_max), "count"},
      {"engine.query_snapshot_ms", Median(query_ms), "ms"},
      {"engine.checkpoint_ms", restart.checkpoint_ms, "ms"},
      {"engine.checkpoint_bytes_per_point", restart.checkpoint_bytes_per_point,
       "bytes/point"},
      {"engine.open_ms", restart.open_ms, "ms"},
      {"core.update_ms", per_slide(m.core.update_ms), "ms"},
      {"core.collect_ms", per_slide(c.collect_ms), "ms"},
      {"core.collect_parallel_ms", per_slide(c.collect_parallel_ms), "ms"},
      {"core.ex_phase_ms", per_slide(c.ex_phase_ms), "ms"},
      {"core.cluster_parallel_ms", per_slide(c.cluster_parallel_ms), "ms"},
      {"core.neo_phase_ms", per_slide(c.neo_phase_ms), "ms"},
      {"core.recheck_ms", per_slide(c.recheck_ms), "ms"},
      {"core.snapshot_ms",
       Ratio(m.core.snapshot_ms, static_cast<double>(w.counted_slides)),
       "ms"},
      {"core.range_searches", count(c.range_searches), "count"},
      {"core.collect_searches", count(c.collect_searches), "count"},
      {"core.cluster_searches", count(c.cluster_searches), "count"},
      {"core.ex_cores", count(c.num_ex_cores), "count"},
      {"core.neo_cores", count(c.num_neo_cores), "count"},
      {"core.msbfs_expansions", count(c.msbfs_expansions), "count"},
      {"core.msbfs_rounds", count(c.msbfs_rounds), "count"},
      {"core.relabeled", count(m.core.relabeled), "count"},
      {"core.lane_speedup", Ratio(one_lane.update_ms, all_lanes.update_ms),
       "x"},
      {"index.nodes_visited_per_search", per_search(c.nodes_visited), "count"},
      {"index.leaf_tests_per_search", per_search(c.leaf_entries_tested),
       "count"},
      {"index.epoch_pruned_per_slide", count(c.epoch_pruned), "count"},
      {"index.range_search_us", index.range_search_us, "us"},
      {"index.heap_bytes_per_point", index.heap_bytes_per_point,
       "bytes/point"},
      {"obs.trace_overhead_frac",
       Ratio(m.closed.points_per_s(), m.traced.points_per_s()) - 1.0, "frac"},
      {"harness.generator_lag_p95_ms", Quantile(m.open.lag_ms, 0.95), "ms"},
      {"harness.latency_samples", static_cast<double>(m.open.slide_ms.size()),
       "count"},
  };
}

int Run(const Args& args) {
  Workload w;
  if (!FindWorkload(args.workload, &w)) {
    std::fprintf(stderr, "bench_e2e: unknown workload \"%s\"\n",
                 args.workload.c_str());
    return 2;
  }
  obs::SetLogLevel(obs::LogLevel::kError);
  const std::string run_dir =
      args.out + "/" + w.name + "-seed" + std::to_string(args.seed);
  const std::string spill_dir =
      run_dir + "-spill-" + std::to_string(static_cast<long>(getpid()));
  const double rss_before = PeakRssBytes();
  Ledger ledger;
  Measured m;

  // Set-up, repeated for a steady setup_s; the last stack is measured.
  // Resident growth is read when the first set-up's windows are full:
  // after that, the restart, the later set-ups and the phases reuse freed
  // memory in whichever thread's malloc arena held it, which makes the
  // peak vary by up to a third from run to run.
  std::unique_ptr<Stack> st;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < setups && ledger.ok(); ++k) {
    st.reset();
    double seconds = 0.0;
    st = SetUp(w, args.seed, spill_dir, &ledger, &seconds);
    m.setup_s.push_back(seconds);
    if (k == 0 && st != nullptr) m.rss_growth = st->fill_peak_rss - rss_before;
  }
  obs::TraceRecorder recorder;
  if (ledger.ok()) RunPhases(*st, args, &recorder, &m, &ledger);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(w, m, ledger);
  } else if (ledger.ok()) {
    std::filesystem::create_directories(run_dir);
    std::ofstream trace(run_dir + "/trace.json");
    recorder.WriteChromeJson(trace);
    metrics = LayerMetrics(w, args.seed, *st, m, &ledger);
    std::ofstream layers(run_dir + "/layers.json");
    layers << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
           << ", \"metrics\": " << MetricsJson(metrics) << "}\n";
  }
  st.reset();
  std::filesystem::remove_all(spill_dir);

  std::printf("workload %s seed %llu: %zu open-loop slide samples, %zu "
              "query samples\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              m.open.slide_ms.size(), m.open.query_ms.size());
  for (const Metric& metric : metrics) {
    std::printf("%-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ledger.ok() ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed),
              MetricsJson(metrics).c_str());
  return ledger.ok() ? 0 : 1;
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  disc::Args args;
  if (!disc::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out DIR]\n"
                 "workloads: maze-loopback dtg-inproc geolife-inproc "
                 "multi-tenant\n",
                 argv[0]);
    return 2;
  }
  return disc::Run(args);
}
