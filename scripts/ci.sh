#!/usr/bin/env bash
# CI entry point: the full static-analysis + test matrix (docs/ANALYSIS.md).
#
#   1. disc_lint invariant checks over src/ + lint fixture self-tests
#   2. format gate (skips when clang-format is not installed)
#   3. Release: build + full ctest suite
#   4. Observability smoke: run an example with tracing + JSONL metrics and
#      validate both artifacts with tools/trace_check.py
#   5. Engine smoke: multi-session run with checkpoint/recover through a
#      spill dir, trace validated for the engine scheduling spans
#   6. Telemetry smoke: quickstart --serve 0, scrape the live /metrics,
#      /healthz, and /sessions endpoints, validate the exposition with
#      tools/prom_check.py (TYPE/HELP pairing, name validity, monotone
#      counter re-scrape) — run under the Release AND ASan binaries
#   7. Ingest smoke: disc_ingestd on ephemeral ports, slides fed through
#      the framed TCP plane by disc_feed, /sessions and the net_* counters
#      asserted over the telemetry port (prom_check.py validates the
#      exposition) — run under the Release AND ASan binaries
#   8. Chaos: the seeded fault-injection scenarios (ctest -L chaos, which
#      also matches the net-chaos label) under three pinned seeds, Release
#      and ASan legs; a failure prints the seed so the exact storm replays
#      locally
#   9. ASan+UBSan: build + full ctest suite (UBSan findings are fatal via
#      -fno-sanitize-recover, see the asan preset)
#  10. TSan: build + full ctest suite
#  11. clang-tidy over src/ (skips when clang-tidy is not installed)
#
# Usage: scripts/ci.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

# The lint stage is a hard gate, not best-effort: a missing interpreter
# must fail the run loudly instead of skipping the invariant checks.
command -v python3 >/dev/null 2>&1 || {
  echo "error: python3 not found on PATH — the disc_lint stage cannot run" >&2
  echo "       (install python3; the lint gate is mandatory, see docs/ANALYSIS.md)" >&2
  exit 1
}

echo "=== disc_lint: project invariants ==="
lint_report="build-release/disc_lint_report.json"
mkdir -p build-release
python3 tools/lint/disc_lint.py \
  --baseline tools/lint/baseline.json --json "${lint_report}" src/
python3 tools/lint/check_fixtures.py
echo "disc_lint: clean; findings report written to ${lint_report}"

echo "=== format gate ==="
scripts/check_format.sh

echo "=== Release: configure + build + full ctest ==="
cmake --preset release
cmake --build --preset release -j "${jobs}"
ctest --preset release -j "${jobs}" "$@"

echo "=== observability smoke: trace + JSONL artifacts ==="
obs_dir="$(mktemp -d)"
trap 'rm -rf "${obs_dir}"' EXIT
./build-release/examples/quickstart \
  "${obs_dir}/trace.json" "${obs_dir}/metrics.jsonl" > /dev/null
python3 tools/trace_check.py \
  --trace "${obs_dir}/trace.json" \
  --require-span pipeline.slide --require-span disc.update \
  --require-span disc.collect --require-span disc.ex_phase \
  --require-span disc.neo_phase --require-span disc.recheck \
  --require-span rtree.epoch_search \
  --require-span disc.msbfs \
  --jsonl "${obs_dir}/metrics.jsonl" --min-slides 20

echo "=== engine smoke: multi-session checkpoint/recover + scheduling spans ==="
./build-release/examples/multi_session \
  "${obs_dir}/engine_trace.json" "${obs_dir}/engine_metrics.prom" \
  "${obs_dir}/engine_spill" > /dev/null
python3 tools/trace_check.py \
  --trace "${obs_dir}/engine_trace.json" \
  --require-span engine.drain --require-span engine.session \
  --require-span disc.update
grep -q '^engine_session_city_vehicles_slides_total 15$' \
  "${obs_dir}/engine_metrics.prom" || {
    echo "engine smoke: per-session metrics missing or wrong" >&2; exit 1; }

# Launch `$1 --serve 0`, hold its stdin open on a fifo while scraping the
# live endpoints, then release stdin for a clean exit. Validates the
# Prometheus exposition (and counter monotonicity across a re-scrape) with
# tools/prom_check.py and the /healthz + /sessions JSON shapes inline.
telemetry_smoke() {
  local exe="$1" label="$2"
  echo "=== telemetry smoke (${label}): live /metrics + /healthz + /sessions ==="
  local dir fifo log pid port
  dir="$(mktemp -d)"
  fifo="${dir}/stdin.fifo"
  log="${dir}/serve.log"
  mkfifo "${fifo}"
  "${exe}" --serve 0 < "${fifo}" > "${log}" 2>&1 &
  pid=$!
  exec 9> "${fifo}" # keep a writer open so the server's stdin stays alive
  port=""
  for _ in $(seq 200); do # sanitizer binaries start slowly; allow 20s
    port="$(sed -n 's/^serving telemetry on port \([0-9]*\)$/\1/p' "${log}")"
    [ -n "${port}" ] && break
    sleep 0.1
  done
  if [ -z "${port}" ]; then
    echo "telemetry smoke (${label}): server never announced a port" >&2
    cat "${log}" >&2
    exit 1
  fi
  python3 tools/prom_check.py --url "http://127.0.0.1:${port}/metrics" --rescrape
  python3 - "http://127.0.0.1:${port}" <<'PY'
import json, sys, urllib.request

base = sys.argv[1]
health = json.load(urllib.request.urlopen(base + "/healthz", timeout=10))
assert health.get("live") is True and health.get("ready") is True, health
sessions = json.load(urllib.request.urlopen(base + "/sessions", timeout=10))
assert isinstance(sessions.get("sessions"), list), sessions
print(f"telemetry smoke: healthz ready; "
      f"{len(sessions['sessions'])} session rows")
PY
  echo >&9 # one stdin line releases the hold
  exec 9>&-
  wait "${pid}" || {
    echo "telemetry smoke (${label}): server exited nonzero" >&2
    cat "${log}" >&2
    exit 1
  }
  rm -rf "${dir}"
}

telemetry_smoke ./build-release/examples/quickstart "Release"

# Launch disc_ingestd on ephemeral ports, push slides through the framed
# TCP plane with disc_feed, then assert over the telemetry port that the
# wire traffic is visible: the session appears in /sessions and the net_*
# counters moved. prom_check.py validates the exposition itself.
ingest_smoke() {
  local daemon="$1" feeder="$2" label="$3"
  echo "=== ingest smoke (${label}): socket-fed slides + net_* counters ==="
  local dir fifo log pid ingest_port telemetry_port
  dir="$(mktemp -d)"
  fifo="${dir}/stdin.fifo"
  log="${dir}/ingestd.log"
  mkfifo "${fifo}"
  "${daemon}" --port 0 --telemetry-port 0 --lanes 2 \
    < "${fifo}" > "${log}" 2>&1 &
  pid=$!
  exec 8> "${fifo}"
  ingest_port=""
  telemetry_port=""
  for _ in $(seq 200); do # sanitizer binaries start slowly; allow 20s
    ingest_port="$(sed -n 's/^serving ingest on port \([0-9]*\)$/\1/p' "${log}")"
    telemetry_port="$(sed -n 's/^serving telemetry on port \([0-9]*\)$/\1/p' "${log}")"
    [ -n "${ingest_port}" ] && [ -n "${telemetry_port}" ] && break
    sleep 0.1
  done
  if [ -z "${ingest_port}" ] || [ -z "${telemetry_port}" ]; then
    echo "ingest smoke (${label}): daemon never announced its ports" >&2
    cat "${log}" >&2
    exit 1
  fi
  "${feeder}" --port "${ingest_port}" --session ci_smoke \
    --window 600 --stride 100 --slides 8
  python3 tools/prom_check.py \
    --url "http://127.0.0.1:${telemetry_port}/metrics" --rescrape
  python3 - "http://127.0.0.1:${telemetry_port}" <<'PY'
import json, sys, urllib.request

base = sys.argv[1]
health = json.load(urllib.request.urlopen(base + "/healthz", timeout=10))
assert health.get("ready") is True, health
assert health.get("components", {}).get("ingest") == "ok", health
sessions = json.load(urllib.request.urlopen(base + "/sessions", timeout=10))
names = [row["name"] for row in sessions["sessions"]]
assert "ci_smoke" in names, names
with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
    metrics = {}
    for line in response.read().decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.partition(" ")
            metrics[name] = float(value)
for counter in ("net_frames_total", "net_connections_total",
                "net_bytes_rx_total", "net_bytes_tx_total"):
    assert metrics.get(counter, 0) > 0, (counter, metrics.get(counter))
assert metrics.get("net_frames_bad_total", -1) == 0, metrics
print(f"ingest smoke: ci_smoke session live; "
      f"{int(metrics['net_frames_total'])} frames, "
      f"{int(metrics['net_bytes_rx_total'])} bytes rx")
PY
  echo >&8 # one stdin line shuts the daemon down
  exec 8>&-
  wait "${pid}" || {
    echo "ingest smoke (${label}): daemon exited nonzero" >&2
    cat "${log}" >&2
    exit 1
  }
  rm -rf "${dir}"
}

ingest_smoke ./build-release/examples/disc_ingestd \
  ./build-release/examples/disc_feed "Release"

# Replay the chaos scenarios (ctest -L chaos) once per pinned seed. The
# seeds are fixed so a red run is reproducible: on failure we print the
# seed, and `DISC_CHAOS_SEED=<seed> ./tests/chaos_test` replays the exact
# storm locally (common/failpoint.h; docs/ANALYSIS.md §Fault injection).
chaos_stage() {
  local preset="$1" build_dir="$2"
  echo "=== chaos (${preset}): seeded fault-injection scenarios ==="
  local seed
  for seed in 1701 424242 777000777; do
    DISC_CHAOS_SEED="${seed}" \
      ctest --preset "${preset}" -L chaos -j "${jobs}" || {
        echo "chaos (${preset}): FAILED at seed ${seed} — replay with" >&2
        echo "  DISC_CHAOS_SEED=${seed} ${build_dir}/tests/chaos_test" >&2
        echo "  DISC_CHAOS_SEED=${seed} ${build_dir}/tests/net_chaos_test" >&2
        exit 1
      }
  done
}

chaos_stage release ./build-release

echo "=== ASan+UBSan: configure + build + full ctest ==="
cmake --preset asan
cmake --build --preset asan -j "${jobs}"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --preset asan -j "${jobs}" "$@"

ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  telemetry_smoke ./build-asan/examples/quickstart "ASan"

ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ingest_smoke ./build-asan/examples/disc_ingestd \
    ./build-asan/examples/disc_feed "ASan"

ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  chaos_stage asan ./build-asan

echo "=== TSan: configure + build + full ctest ==="
cmake --preset tsan
cmake --build --preset tsan -j "${jobs}"
TSAN_OPTIONS=halt_on_error=1 ctest --preset tsan -j "${jobs}" "$@"

echo "=== clang-tidy over src/ ==="
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json comes from the release preset configured above.
  mapfile -t tidy_files < <(git ls-files 'src/**/*.cc')
  clang-tidy -p build-release "${tidy_files[@]}"
  echo "clang-tidy: ${#tidy_files[@]} files clean"
else
  echo "clang-tidy not found on PATH; skipping tidy gate"
fi

echo "CI passed."
