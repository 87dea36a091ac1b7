#!/usr/bin/env bash
# Full verification sweep: build + ctest plain (warnings are errors), then
# under each sanitizer, then with the observability layer compiled out.
# Usage: scripts/check.sh [--fast|--obs-off|--bench-smoke|--perf-gate|--obs-smoke|--swap-smoke|--fleet-smoke|--ingest-smoke|--fuzz-smoke|--daemon-smoke|--e2e-smoke|--csv-drift]
#   --fast         plain build/test only (skip the sanitizer matrix)
#   --obs-off      build and ctest with -DIGUARD_OBS_OFF=ON, the
#                  observability layer compiled out: tests that read
#                  recorded instrument values skip that part, everything
#                  else must pass (the full sweep runs this leg last)
#   --bench-smoke  Release build + bench_throughput --smoke: fails if the
#                  compiled match engine diverges from the linear-scan oracle
#                  on any PL or FL key of the trace, if sharded replay is
#                  non-deterministic, if the steady-state packet path
#                  allocates, if any config's whole-trace allocs_per_packet
#                  exceeds 0.02 (when allocations are counted), or if the
#                  JSON artifact is malformed
#   --perf-gate    Release build + full bench_throughput: fails if any
#                  compiled config's ns/packet is >25% above the committed
#                  BENCH_pipeline.json row with the same (engine, shards);
#                  advisory only on a 1-core host
#   --obs-smoke    Release build + examples/switch_deployment twice: fails if
#                  any non-timing.* key of the observability snapshot differs
#                  between the two identical runs (DESIGN.md §4d determinism)
#   --swap-smoke   Release build + bench_model_swap --smoke twice: fails on
#                  any swap-gate violation (non-determinism, data-plane
#                  perturbation, packet/mirror loss, no publish, steady-state
#                  allocations) or if the swap.* observability snapshot is
#                  not byte-identical across the two runs (DESIGN.md §4e)
#   --fleet-smoke  Release build + bench_fleet --smoke twice: fails on any
#                  fleet-gate violation (N=1 faults-off fleet diverging from
#                  the single-switch sharded replay, thread-count
#                  non-determinism, conservation-audit failure) or if any
#                  non-timing key of BENCH_fleet.json / the fleet
#                  observability snapshot differs between the two identical
#                  runs (DESIGN.md §4f)
#   --ingest-smoke Release build + bench_ingest --smoke twice: fails on any
#                  ingest-gate violation (hardened chain diverging from plain
#                  replay, thread-count non-determinism, conservation-audit
#                  failure, ring opacity) or if any non-timing key of
#                  BENCH_ingest.json / the ingest observability snapshot
#                  differs between the two identical runs (DESIGN.md §4g)
#   --fuzz-smoke   Build the TraceReader and digest-decode fuzz targets under
#                  ASan then UBSan; each replays its committed seed corpus
#                  plus seeded mutations and aborts on any crash, sanitizer
#                  report, or conservation violation
#   --daemon-smoke Release build + iguardd against a bundled looped trace:
#                  scrapes /metrics twice after the finite replay completes
#                  and fails unless the non-timing exposition is
#                  byte-identical, the alert stream carries installs, and
#                  SIGTERM drains cleanly (conservation audit ok, exit 0);
#                  then repeats the serve-and-drain run under ASan, and
#                  under TSan with a two-slot ring (the producer parks on
#                  nearly every batch; any TSan report fails it)
#   --e2e-smoke    bench/e2e/check.sh --smoke: builds the repo benchmark
#                  (its own CMake project, into the gitignored .bench_build/)
#                  and serves every workload through both of its binaries
#                  with a tiny lab; fails if the benchmark does not build
#                  against the current API or any of its correctness gates
#                  fails (25-80 s once built, with host load)
#   --csv-drift    Release build + regenerate the committed fig*/table*/b*
#                  CSVs in a scratch dir: fails if any regenerated CSV
#                  differs from the committed copy (stale-artifact gate)
set -euo pipefail

cd "$(dirname "$0")/.."
GENERATOR_ARGS=()
command -v ninja >/dev/null 2>&1 && GENERATOR_ARGS=(-G Ninja)
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# run_suite <name> <sanitizer> [extra cmake args...]
run_suite() {
  local name="$1" sanitize="$2"
  shift 2
  local dir="build-check-${name}"
  echo "=== ${name} (IGUARD_SANITIZE='${sanitize}') ==="
  cmake -B "${dir}" -S . "${GENERATOR_ARGS[@]}" -DIGUARD_SANITIZE="${sanitize}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

# Shard/fleet sweeps on a 1-core container measure overhead, not scaling:
# the determinism gates still hold, but throughput numbers are meaningless.
# Every bench JSON artifact records hardware_threads so consumers can tell.
warn_if_single_core() {
  if [[ "${JOBS}" -le 1 ]]; then
    echo "WARNING: only 1 hardware thread detected — shard/fleet sweep" >&2
    echo "WARNING: throughput numbers measure overhead, not parallel scaling" >&2
  fi
}

bench_smoke() {
  local dir="build-check-bench"
  echo "=== bench-smoke (Release) ==="
  warn_if_single_core
  release_build bench_throughput
  local out="${dir}/BENCH_pipeline_smoke.json"
  # The bench itself exits non-zero on engine divergence, non-deterministic
  # sharding, or steady-state allocations — the drift gates. It runs inside
  # the build dir so its BENCH_pipeline_obs.json never clobbers the
  # committed artifact.
  (cd "${dir}" && bench/bench_throughput --smoke --out BENCH_pipeline_smoke.json)
  # Artifact sanity: well-formed JSON with the verdict fields present and
  # the compiled engine in agreement with the linear oracle.
  python3 - "${out}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    j = json.load(f)
for key in ("configs", "parity_keys", "steady_state_allocs_per_packet",
            "compiled_equals_linear", "sharded_deterministic"):
    assert key in j, f"BENCH_pipeline json missing {key!r}"
assert j["compiled_equals_linear"] is True, "engine verdicts diverge"
assert j["parity_keys"]["pl"] > 0 and j["parity_keys"]["fl"] > 0, "engine parity checked no keys"
assert j["sharded_deterministic"] is True, "sharded replay non-deterministic"
assert j["steady_state_allocs_per_packet"] == 0, "steady-state path allocates"
engines = {c["engine"] for c in j["configs"]}
assert engines == {"compiled"}, f"unexpected engines {engines}"
# Whole-trace allocation budget: with the flat blacklist and leak set only
# first classifications and leak-set doublings allocate (~0.005/packet on
# the smoke trace); a per-install or per-packet allocation crosses 0.02.
if j["alloc_counting_active"]:
    for c in j["configs"]:
        assert c["allocs_per_packet"] <= 0.02, (
            f"{c['shards']}-shard replay allocates {c['allocs_per_packet']} times per packet (> 0.02)")
print("bench-smoke artifact OK:", sys.argv[1])
EOF
}

perf_gate() {
  local dir="build-check-bench"
  echo "=== perf-gate (Release) ==="
  warn_if_single_core
  release_build bench_throughput
  local fresh="${dir}/BENCH_pipeline_fresh.json"
  (cd "${dir}" && bench/bench_throughput --out BENCH_pipeline_fresh.json >/dev/null)
  # Compare the fresh ns/packet of every compiled config against the
  # committed BENCH_pipeline.json row with the same (engine, shards): >25%
  # regression on any of them fails the gate. On a 1-core host throughput
  # numbers measure overhead, not the engine (see warn_if_single_core), so
  # the gate only warns there.
  local enforce=1
  [[ "${JOBS}" -le 1 ]] && enforce=0
  python3 - "BENCH_pipeline.json" "${fresh}" "${enforce}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    base = json.load(f)
with open(sys.argv[2]) as f:
    fresh = json.load(f)
enforce = sys.argv[3] == "1"
def key(c):
    return (c["engine"], c["shards"])
baseline = {key(c): c for c in base["configs"]}
failures = []
for c in fresh["configs"]:
    b = baseline.get(key(c))
    if b is None:
        continue  # new config with no committed baseline yet
    ratio = c["ns_per_packet"] / b["ns_per_packet"]
    tag = f'{c["engine"]} shards={c["shards"]}'
    print(f'{tag}: {b["ns_per_packet"]:.0f} -> {c["ns_per_packet"]:.0f} ns/pkt '
          f'({(ratio - 1) * 100:+.1f}%)')
    if ratio > 1.25:
        failures.append(tag)
if failures:
    msg = "PERF REGRESSION: " + "; ".join(failures)
    if enforce:
        raise SystemExit(msg)
    print("WARNING (1-core host, gate advisory):", msg)
else:
    print("perf-gate OK: no compiled path regressed >25%")
EOF
}

release_build() {
  local dir="build-check-bench"
  cmake -B "${dir}" -S . "${GENERATOR_ARGS[@]}" \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "${dir}" -j "${JOBS}" --target "$@"
}

# Determinism smokes (DESIGN.md §4d): each row builds one Release binary,
# runs it twice in fresh run dirs, lets the mode's artifact check (if any)
# read both runs, then requires every non-timing.* key of the observability
# snapshot to be byte-identical across the two. The binaries exit non-zero
# on their own gate violations, which fails the smoke on the spot.
#   mode|binary|args|snapshot|marker|instruments|label|needs host.hardware_threads|artifact check
DETERMINISM_SMOKES=(
  "obs|examples/switch_deployment||switch_deployment_obs.json|\"pipeline.|pipeline||0|"
  "swap|bench/bench_model_swap|--smoke --out BENCH_model_swap_smoke.json|BENCH_model_swap_obs.json|.swap.|swap-loop|swap |0|swap_artifact_check"
  "fleet|bench/bench_fleet|--smoke --out BENCH_fleet_smoke.json|BENCH_fleet_obs.json|.fleet.|fleet|fleet |1|fleet_artifact_check"
  "ingest|bench/bench_ingest|--smoke --out BENCH_ingest_smoke.json|BENCH_ingest_obs.json|ingest.|ingest|ingest |1|ingest_artifact_check"
)

determinism_smoke() {
  local mode="$1" row="" entry
  for entry in "${DETERMINISM_SMOKES[@]}"; do
    [[ "${entry%%|*}" == "${mode}" ]] && row="${entry}"
  done
  local binary args snapshot marker instruments label need_hw check
  IFS='|' read -r _ binary args snapshot marker instruments label need_hw check <<< "${row}"
  local dir="build-check-bench"
  echo "=== ${mode}-smoke (Release) ==="
  warn_if_single_core
  release_build "${binary##*/}"
  local a="${dir}/${mode}-run-a" b="${dir}/${mode}-run-b"
  rm -rf "${a}" "${b}"
  mkdir -p "${a}" "${b}"
  (cd "${a}" && "../${binary}" ${args} >/dev/null)
  (cd "${b}" && "../${binary}" ${args} >/dev/null)
  [[ -z "${check}" ]] || "${check}" "${a}" "${b}"
  # Wall-clock measurements live under timing.* by policy; every other key
  # must be byte-identical across identical runs.
  python3 - "${a}/${snapshot}" "${b}/${snapshot}" "${mode}" "${marker}" "${instruments}" \
    "${label}" "${need_hw}" <<'EOF'
import json, sys
def non_timing(path):
    with open(path) as f:
        j = json.load(f)
    j["scalars"] = {k: v for k, v in j["scalars"].items() if not k.startswith("timing.")}
    j["series"] = {k: v for k, v in j.get("series", {}).items() if not k.startswith("timing.")}
    return json.dumps(j, sort_keys=True)
mode, marker, instruments, label, need_hw = sys.argv[3:]
a, b = non_timing(sys.argv[1]), non_timing(sys.argv[2])
assert marker in a, f"snapshot has no {instruments} instruments"
if need_hw == "1":
    assert 'host.hardware_threads' in a, "snapshot missing host.hardware_threads"
assert a == b, f"non-timing {label}snapshot keys differ between identical runs"
print(f"{mode}-smoke OK: non-timing {label}snapshot byte-identical across runs")
EOF
}

# Swap gate artifact: verdict fields present and true.
swap_artifact_check() {
  python3 - "$1/BENCH_model_swap_smoke.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    j = json.load(f)
for key in ("drift_run", "swap_overhead_ns_per_packet",
            "steady_state_allocs_per_packet", "swap_deterministic",
            "hitless_noop_equivalent", "no_packet_loss", "drift_swapped"):
    assert key in j, f"BENCH_model_swap json missing {key!r}"
assert j["swap_deterministic"] is True, "swap replay non-deterministic"
assert j["hitless_noop_equivalent"] is True, "un-triggered loop perturbed the data plane"
assert j["no_packet_loss"] is True, "packet/mirror accounting does not balance"
assert j["drift_swapped"] is True, "drifting workload never published"
assert j["steady_state_allocs_per_packet"] == 0, "swap-enabled steady state allocates"
assert j["drift_run"]["final_version"] == 1 + j["drift_run"]["publishes"], \
    "version clock out of step with publishes"
print("swap-smoke artifact OK:", sys.argv[1])
EOF
}

# Fleet gate artifact: verdict fields present and true, and every key outside
# the top-level "timing" object byte-identical between the two runs.
fleet_artifact_check() {
  python3 - "$1/BENCH_fleet_smoke.json" "$2/BENCH_fleet_smoke.json" <<'EOF'
import json, sys
def load(path):
    with open(path) as f:
        return json.load(f)
a, b = load(sys.argv[1]), load(sys.argv[2])
for key in ("hardware_threads", "cells", "n1_equivalent",
            "fleet_deterministic", "conserved", "timing"):
    assert key in a, f"BENCH_fleet json missing {key!r}"
assert a["n1_equivalent"] is True, "N=1 fleet diverges from sharded replay"
assert a["fleet_deterministic"] is True, "fleet replay non-deterministic"
assert a["conserved"] is True, "fleet conservation audit failed"
assert len(a["cells"]) > 0, "fleet sweep produced no cells"
sa = json.dumps({k: v for k, v in a.items() if k != "timing"}, sort_keys=True)
sb = json.dumps({k: v for k, v in b.items() if k != "timing"}, sort_keys=True)
assert sa == sb, "non-timing BENCH_fleet keys differ between identical runs"
print("fleet-smoke artifact OK:", sys.argv[1])
EOF
}

# Ingest gate artifact: verdict fields present and true, per-cell
# conservation, and every key outside "timing" byte-identical across runs.
ingest_artifact_check() {
  python3 - "$1/BENCH_ingest_smoke.json" "$2/BENCH_ingest_smoke.json" <<'EOF'
import json, sys
def load(path):
    with open(path) as f:
        return json.load(f)
a, b = load(sys.argv[1]), load(sys.argv[2])
for key in ("hardware_threads", "cells", "passthrough_parity",
            "ring_transparent", "deterministic", "conserved", "timing"):
    assert key in a, f"BENCH_ingest json missing {key!r}"
assert a["passthrough_parity"] is True, "hardened chain diverges from plain replay"
assert a["ring_transparent"] is True, "SPSC ring pump altered the packet stream"
assert a["deterministic"] is True, "ingest replay non-deterministic across threads"
assert a["conserved"] is True, "ingest conservation audit failed"
assert len(a["cells"]) > 0, "ingest sweep produced no cells"
for c in a["cells"]:
    assert c["offered"] == c["accepted"] + c["quarantined"], \
        f"cell {c['chaos']}/{c['policy']}/{c['shards']}: offered != accepted + quarantined"
    assert c["accepted"] == c["admitted"] + c["shed"], \
        f"cell {c['chaos']}/{c['policy']}/{c['shards']}: accepted != admitted + shed"
    assert c["admitted"] == c["replayed"], \
        f"cell {c['chaos']}/{c['policy']}/{c['shards']}: admitted != replayed"
sa = json.dumps({k: v for k, v in a.items() if k != "timing"}, sort_keys=True)
sb = json.dumps({k: v for k, v in b.items() if k != "timing"}, sort_keys=True)
assert sa == sb, "non-timing BENCH_ingest keys differ between identical runs"
print("ingest-smoke artifact OK:", sys.argv[1])
EOF
}

fuzz_smoke() {
  echo "=== fuzz-smoke (ASan + UBSan) ==="
  # Fuzz the untrusted-input parsers under both sanitizers, one at a time
  # (they cannot be combined with the cmake cache wiring). Each target
  # replays its committed seed corpus and then runs seeded deterministic
  # mutations; any crash, sanitizer report, or conservation violation
  # aborts.
  local san
  for san in address undefined; do
    local dir="build-check-fuzz-${san}"
    echo "--- fuzz targets under ${san} sanitizer ---"
    cmake -B "${dir}" -S . "${GENERATOR_ARGS[@]}" -DIGUARD_SANITIZE="${san}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build "${dir}" -j "${JOBS}" --target fuzz_trace_reader fuzz_digest_decode
    "${dir}/fuzz/fuzz_trace_reader" --iters 2048 --seed 7 fuzz/corpus/trace_reader
    "${dir}/fuzz/fuzz_digest_decode" --iters 2048 --seed 7 fuzz/corpus/digest
  done
}

daemon_smoke() {
  local dir="build-check-bench"
  echo "=== daemon-smoke (Release) ==="
  release_build iguardd
  local work="${dir}/daemon-smoke"
  rm -rf "${work}"
  mkdir -p "${work}"
  "${dir}/src/daemon/iguardd" --gen-trace "${work}/trace.csv"
  python3 - "${dir}/src/daemon/iguardd" "${work}/trace.csv" <<'EOF'
import re, signal, subprocess, sys, time, urllib.request

binary, trace = sys.argv[1], sys.argv[2]
proc = subprocess.Popen(
    [binary, "--trace", trace, "--loop", "3", "--shards", "2", "--metrics-port", "0"],
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
line = proc.stdout.readline()
m = re.search(r"127\.0\.0\.1:(\d+)/metrics", line)
assert m, f"no endpoint line: {line!r}"
url = f"http://127.0.0.1:{m.group(1)}"

def scrape(path="/metrics"):
    with urllib.request.urlopen(url + path, timeout=5) as r:
        return r.read().decode()

def non_timing(text):
    return "\n".join(l for l in text.splitlines() if "iguard_timing_" not in l)

# Wait for the finite replay to finish; the endpoint outlives it so the
# completed run's state can be scraped at rest.
deadline = time.time() + 60
while time.time() < deadline:
    if "iguard_daemon_loops 3\n" in scrape():
        break
    time.sleep(0.1)
else:
    proc.kill()
    raise SystemExit("daemon never completed 3 loops")

a, b = scrape(), scrape()
assert non_timing(a) == non_timing(b), "non-timing exposition differs between scrapes"
assert "iguard_daemon_pushed" in a, "daemon counters missing from exposition"
assert "iguard_daemon_ingest_offered" in a, "ingest counters missing from exposition"
alerts = scrape("/alerts")
assert "kind=blacklist_install" in alerts, f"no install alerts:\n{alerts[:400]}"
assert scrape("/healthz") == "ok\n", "healthz not ok"

proc.send_signal(signal.SIGTERM)
out, _ = proc.communicate(timeout=30)
assert proc.returncode == 0, f"iguardd exited {proc.returncode}:\n{out}"
assert "conservation audit: ok" in out, f"no clean audit:\n{out}"
print("daemon-smoke OK: deterministic exposition, alert stream, clean SIGTERM drain")
EOF
  # The same serve-and-drain loop must be clean under ASan.
  local asan_dir="build-check-daemon-asan"
  cmake -B "${asan_dir}" -S . "${GENERATOR_ARGS[@]}" -DIGUARD_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${asan_dir}" -j "${JOBS}" --target iguardd
  "${asan_dir}/src/daemon/iguardd" --trace "${work}/trace.csv" --loop 2 --shards 2 \
    | grep -q "conservation audit: ok"
  echo "daemon-smoke OK under ASan"
  # And race-free under TSan. A two-slot ring fills on every push, so the
  # threaded producer waits, and the consumer wakes it, on nearly every one.
  local tsan_dir="build-check-daemon-tsan"
  cmake -B "${tsan_dir}" -S . "${GENERATOR_ARGS[@]}" -DIGUARD_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${tsan_dir}" -j "${JOBS}" --target iguardd
  printf 'ring_capacity = 2\n' > "${work}/tsan.conf"
  local tsan_status=0
  "${tsan_dir}/src/daemon/iguardd" --config "${work}/tsan.conf" --trace "${work}/trace.csv" \
    --loop 2 --shards 2 > "${work}/tsan.log" 2>&1 || tsan_status=$?
  if [[ "${tsan_status}" != 0 ]] || grep -q "ThreadSanitizer" "${work}/tsan.log" ||
     ! grep -q "conservation audit: ok" "${work}/tsan.log"; then
    cat "${work}/tsan.log"
    echo "daemon-smoke FAILED under TSan (exit ${tsan_status})"
    exit 1
  fi
  echo "daemon-smoke OK under TSan (ring_capacity = 2)"
}

# The committed paper artifacts regenerated by --csv-drift, with the bench
# that writes each. ablation.csv / consistency.csv are sweep-style artifacts
# outside the fig*/table*/b* set and are not gated.
CSV_BENCHES=(
  "fig2_fig7_path_lengths.csv:bench_fig2_path_overlap"
  "fig5_fig8_cpu_detection.csv:bench_fig5_cpu_detection"
  "fig6_fig9_testbed_detection.csv:bench_fig6_testbed_detection"
  "fig10_candidates.csv:bench_fig10_candidates"
  "table1_resources.csv:bench_table1_resources"
  "table2_adversarial.csv:bench_table2_adversarial"
  "b1_throughput_latency.csv:bench_b1_throughput_latency"
  "b2_control_plane.csv:bench_b2_control_plane"
)

csv_drift() {
  local dir="build-check-bench"
  echo "=== csv-drift (Release) ==="
  local targets=()
  for entry in "${CSV_BENCHES[@]}"; do targets+=("${entry#*:}"); done
  release_build "${targets[@]}"
  local work="${dir}/csv-drift"
  rm -rf "${work}"
  mkdir -p "${work}"
  local drift=0
  for entry in "${CSV_BENCHES[@]}"; do
    local csv="${entry%%:*}" bench="${entry#*:}"
    (cd "${work}" && "../bench/${bench}" >/dev/null)
    if diff -u "${csv}" "${work}/${csv}"; then
      echo "ok: ${csv}"
    else
      echo "DRIFT: ${csv} (regenerate with ${bench} and commit)"
      drift=1
    fi
  done
  [[ "${drift}" == 0 ]] || { echo "=== csv drift detected ==="; exit 1; }
}

if [[ "${1:-}" == "--obs-off" ]]; then
  run_suite obs-off "" -DIGUARD_OBS_OFF=ON
  echo "=== obs-off suite passed ==="
  exit 0
fi
if [[ "${1:-}" == "--bench-smoke" ]]; then
  bench_smoke
  echo "=== bench smoke passed ==="
  exit 0
fi
if [[ "${1:-}" == "--perf-gate" ]]; then
  perf_gate
  echo "=== perf gate passed ==="
  exit 0
fi
for mode in obs swap fleet ingest; do
  if [[ "${1:-}" == "--${mode}-smoke" ]]; then
    determinism_smoke "${mode}"
    echo "=== ${mode} smoke passed ==="
    exit 0
  fi
done
if [[ "${1:-}" == "--fuzz-smoke" ]]; then
  fuzz_smoke
  echo "=== fuzz smoke passed ==="
  exit 0
fi
if [[ "${1:-}" == "--daemon-smoke" ]]; then
  daemon_smoke
  echo "=== daemon smoke passed ==="
  exit 0
fi
if [[ "${1:-}" == "--e2e-smoke" ]]; then
  echo "=== e2e-smoke (bench/e2e, Release) ==="
  bench/e2e/check.sh --smoke
  echo "=== e2e smoke passed ==="
  exit 0
fi
if [[ "${1:-}" == "--csv-drift" ]]; then
  csv_drift
  echo "=== csv drift gate passed ==="
  exit 0
fi

# The plain leg is the warning gate: any -Wall -Wextra warning fails it. The
# sanitizer legs build with the same warnings, not as errors.
run_suite plain "" -DCMAKE_CXX_FLAGS=-Werror
if [[ "${1:-}" != "--fast" ]]; then
  run_suite ubsan undefined
  run_suite asan address
  run_suite tsan thread
  run_suite obs-off "" -DIGUARD_OBS_OFF=ON
fi
echo "=== all checks passed ==="
