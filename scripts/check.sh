#!/usr/bin/env bash
# The full local gate, eleven stages back to back:
#   1. release       — configure, build, and run the whole suite
#                      (fast + ctx + slow + session + fleet labels).
#   2. perf smoke    — fig16 on a 50-trace subset; fails if the event
#                      evaluator's speedup over the fixed-step loop
#                      drops below the committed floor (the DES engine
#                      must beat the loop it replaced, which now lives
#                      on as the test-only oracle in tests/oracle/).
#   3. parallel scaling — the same fig16 smoke with the driver pool at
#                      $(nproc); fails if the parallel fan-out speedup
#                      over the serial event walk drops below 2x.  Only
#                      meaningful with >= 4 cores; skipped (visibly) on
#                      smaller boxes.
#   4. stream smoke  — bench/stream_pipeline on a 50-trace subset; the
#                      binary hard-gates zero torn frames / zero arena
#                      copies / >= 1 Gbps through flaps, and this stage
#                      additionally holds the adaptive policy's freeze
#                      rate under a fixed ceiling.
#   5. arena smoke   — bench/arena_capacity on a 6-second subset; the
#                      binary hard-gates zero duty violations, >= 1
#                      TX-failure migration, and the uniform 4-TX SLA
#                      floor, and this stage re-checks the same three
#                      out of the smoke JSON.
#   6. fleet smoke   — bench/fleet_sim on 1000 sessions; the binary
#                      hard-gates rollup-vs-per-session-sum
#                      reconciliation and zero empty sessions, and this
#                      stage additionally holds a mixed sessions/sec
#                      floor and one floor per session variant.
#   7. recal smoke   — bench/online_recal on a 1-second drift session;
#                      the binary and this stage both gate >= 1
#                      drift-triggered refit, zero refit-attributable down
#                      windows, and >= 90 % margin recovery over the
#                      frozen-calibration twin (refit without outage).
#   8. perfbench     — python3 perfbench/run.py --self-test: tiny runs of
#                      every benchmark workload, traced and untraced,
#                      must emit every BENCHMARK.json metric.
#   9. tsan-fast     — ThreadSanitizer over the quick gate plus the
#                      context/concurrency isolation tests, the phy
#                      layer, the streaming plane, the multi-TX arena,
#                      the session layer, and the calibration plane
#                      (fast|ctx|phy|stream|arena|session|cal), then the
#                      fleet determinism suite (tsan-fleet) — so the
#                      engine-equivalence and ABR bit-exactness oracles,
#                      the arena determinism tests, the LM checkpoint
#                      resume sweeps, and the fleet==alone byte-equality
#                      run under both release AND tsan.
#  10. obs-off-fast  — the CYCLOPS_OBS=OFF build of the same quick gate,
#                      proving the telemetry compile-out keeps everything
#                      green.
#  11. src size      — counts the *.cpp, *.hpp and CMakeLists.txt lines
#                      under src/ and fails above a committed ceiling:
#                      the production code may only shrink unless the
#                      ceiling is raised on purpose.
# Any failure stops the script (set -e); a clean exit means all eleven
# gates passed.  Run from the repository root:  ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Floor for the fig16 legacy_vs_event_speedup smoke check.  The full run
# sits around 1.12x on the reference box (BENCH_fig16.json); the floor
# leaves headroom for machine noise while still catching a regression
# back to event-slower-than-legacy.  Timing phases inside fig16 are
# best-of-2 precisely so this single-shot gate is stable.
PERF_SPEEDUP_FLOOR="1.0"

echo "== [1/11] release: configure + build + full test suite =="
cmake --preset release
cmake --build --preset release -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== [2/11] perf smoke: fig16 50-trace subset, speedup floor ${PERF_SPEEDUP_FLOOR} =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT
(cd "${smoke_dir}" && "${OLDPWD}/build/bench/fig16_trace_cdf" 50 > fig16_smoke.log)
speedup="$(sed -n 's/.*"legacy_vs_event_speedup": \([0-9.eE+-]*\).*/\1/p' \
  "${smoke_dir}/BENCH_fig16_smoke.json")"
echo "fig16 smoke speedup: ${speedup} (floor ${PERF_SPEEDUP_FLOOR})"
awk -v s="${speedup}" -v floor="${PERF_SPEEDUP_FLOOR}" \
  'BEGIN { exit !(s + 0 >= floor + 0) }' || {
  echo "FAIL: event engine speedup ${speedup} below floor ${PERF_SPEEDUP_FLOOR}" >&2
  exit 1
}

# Floor for the per-trace fan-out's parallel speedup over the serial
# event walk.  Static chunking over independent traces should scale
# nearly linearly; 2x at >= 4 cores leaves generous headroom.
PARALLEL_SPEEDUP_FLOOR="2.0"
if [ "$(nproc)" -ge 4 ]; then
  echo "== [3/11] parallel scaling: fig16 smoke on $(nproc) threads, speedup floor ${PARALLEL_SPEEDUP_FLOOR} =="
  (cd "${smoke_dir}" && CYCLOPS_THREADS="$(nproc)" \
    "${OLDPWD}/build/bench/fig16_trace_cdf" 50 > fig16_parallel.log)
  par="$(sed -n 's/.*"parallel_speedup": \([0-9.eE+-]*\).*/\1/p' \
    "${smoke_dir}/BENCH_fig16_smoke.json")"
  echo "fig16 parallel speedup: ${par} on $(nproc) threads (floor ${PARALLEL_SPEEDUP_FLOOR})"
  awk -v s="${par}" -v floor="${PARALLEL_SPEEDUP_FLOOR}" \
    'BEGIN { exit !(s + 0 >= floor + 0) }' || {
    echo "FAIL: parallel speedup ${par} below floor ${PARALLEL_SPEEDUP_FLOOR}" >&2
    exit 1
  }
else
  echo "== [3/11] parallel scaling: SKIPPED ($(nproc) core(s) < 4 — the 2x floor needs >= 4) =="
fi

echo "== [4/11] stream smoke: 50-trace subset, torn frames + freeze-rate gates =="
# The adaptive controller's freeze rate on the trace library must stay
# under this ceiling (freezes per minute; the full run sits around 6 —
# see BENCH_stream.json).  The binary itself additionally hard-fails on
# torn frames, arena copies, or < 1 Gbps goodput through flaps.
STREAM_FREEZE_CEILING="10.0"
(cd "${smoke_dir}" && "${OLDPWD}/build/bench/stream_pipeline" 50 > stream_smoke.log)
torn="$(sed -n 's/.*"torn_frames": \([0-9.eE+-]*\).*/\1/p' \
  "${smoke_dir}/BENCH_stream_smoke.json")"
freeze="$(sed -n 's/.*"abr_adaptive_freeze_per_min": \([0-9.eE+-]*\).*/\1/p' \
  "${smoke_dir}/BENCH_stream_smoke.json")"
echo "stream smoke: torn_frames=${torn}, adaptive freezes/min=${freeze} (ceiling ${STREAM_FREEZE_CEILING})"
awk -v t="${torn}" 'BEGIN { exit !(t + 0 == 0) }' || {
  echo "FAIL: stream smoke reported torn frames" >&2
  exit 1
}
awk -v f="${freeze}" -v c="${STREAM_FREEZE_CEILING}"   'BEGIN { exit !(f + 0 <= c + 0) }' || {
  echo "FAIL: adaptive freeze rate ${freeze}/min above ceiling ${STREAM_FREEZE_CEILING}" >&2
  exit 1
}

echo "== [5/11] arena smoke: 6-second subset, duty + migration + SLA gates =="
# Capacity floor for the predictive policy at 4 TXs on the 6 s smoke run
# (fraction of the 16 offered headsets meeting their SLA; the full 30 s
# run sits higher — see BENCH_arena.json).  The binary exits non-zero on
# any gate breach; re-reading the JSON here keeps the gate explicit.
ARENA_SLA_FLOOR="0.75"
(cd "${smoke_dir}" && "${OLDPWD}/build/bench/arena_capacity" 6 > arena_smoke.log)
duty="$(sed -n 's/.*"duty_violations": \([0-9.eE+-]*\).*/\1/p' \
  "${smoke_dir}/BENCH_arena_smoke.json")"
failmig="$(sed -n 's/.*"failure_migrations": \([0-9.eE+-]*\).*/\1/p' \
  "${smoke_dir}/BENCH_arena_smoke.json")"
sla="$(sed -n 's/.*"uniform_tx4_sla_fraction": \([0-9.eE+-]*\).*/\1/p' \
  "${smoke_dir}/BENCH_arena_smoke.json")"
echo "arena smoke: duty_violations=${duty}, failure_migrations=${failmig}, uniform_tx4_sla=${sla} (floor ${ARENA_SLA_FLOOR})"
awk -v d="${duty}" 'BEGIN { exit !(d + 0 == 0) }' || {
  echo "FAIL: arena smoke reported duty-budget violations" >&2
  exit 1
}
awk -v m="${failmig}" 'BEGIN { exit !(m + 0 >= 1) }' || {
  echo "FAIL: TX-failure scenario produced no migrations" >&2
  exit 1
}
awk -v s="${sla}" -v floor="${ARENA_SLA_FLOOR}" \
  'BEGIN { exit !(s + 0 >= floor + 0) }' || {
  echo "FAIL: arena SLA fraction ${sla} below floor ${ARENA_SLA_FLOOR}" >&2
  exit 1
}

echo "== [6/11] fleet smoke: 1000 mixed sessions, reconciliation + throughput gates =="
# Sessions/sec floor for the 1k-session smoke fleet.  On the 4-core
# reference host the smoke mix runs at ~2200 sessions/s warm and ~800 when
# the process is cold (BENCH_fleet.json has the 10k run); the floor
# catches an order-of-magnitude per-session lifecycle regression (context
# setup, scheduler construction) while staying far from machine noise.  The
# binary itself hard-fails if a rollup does not reconcile exactly against
# the per-session sums or any session dispatched zero events.
FLEET_SESSIONS_PER_SEC_FLOOR="300"
# Per-variant floors (sessions/s of each variant's 142-143-session slice
# run alone on $(nproc) drivers), about half of what the 4-core reference
# host measured: link ~2000, channel ~8500, hetero ~2000, multi_tx ~6000,
# arena ~12000, stream ~5400, online_recal ~610.  A mix change can then
# no longer hide a 2x regression in one variant.  They assume >= 4 cores
# and are skipped (visibly) on smaller boxes, like stage 3.
FLEET_VARIANT_FLOORS="link:1000 channel:4000 hetero:1000 multi_tx:3000 arena:6000 stream:2500 online_recal:300"
(cd "${smoke_dir}" && "${OLDPWD}/build/bench/fleet_sim" 1000 > fleet_smoke.log)
sps="$(sed -n 's/.*"sessions_per_sec": \([0-9.eE+-]*\).*/\1/p' \
  "${smoke_dir}/BENCH_fleet_smoke.json")"
reconciled="$(sed -n 's/.*"reconciled": \([0-9.eE+-]*\).*/\1/p' \
  "${smoke_dir}/BENCH_fleet_smoke.json")"
echo "fleet smoke: ${sps} sessions/s (floor ${FLEET_SESSIONS_PER_SEC_FLOOR}), reconciled=${reconciled}"
awk -v r="${reconciled}" 'BEGIN { exit !(r + 0 == 1) }' || {
  echo "FAIL: fleet rollup did not reconcile against per-session sums" >&2
  exit 1
}
awk -v s="${sps}" -v floor="${FLEET_SESSIONS_PER_SEC_FLOOR}" \
  'BEGIN { exit !(s + 0 >= floor + 0) }' || {
  echo "FAIL: fleet throughput ${sps} sessions/s below floor ${FLEET_SESSIONS_PER_SEC_FLOOR}" >&2
  exit 1
}
if [ "$(nproc)" -ge 4 ]; then
  for entry in ${FLEET_VARIANT_FLOORS}; do
    variant="${entry%%:*}"
    floor="${entry#*:}"
    rate="$(sed -n "s/.*\"sessions_per_sec_${variant}\": \([0-9.eE+-]*\).*/\1/p" \
      "${smoke_dir}/BENCH_fleet_smoke.json")"
    echo "fleet smoke ${variant} alone: ${rate} sessions/s (floor ${floor})"
    awk -v s="${rate}" -v floor="${floor}" \
      'BEGIN { exit !(s + 0 >= floor + 0) }' || {
      echo "FAIL: ${variant} throughput ${rate} sessions/s below floor ${floor}" >&2
      exit 1
    }
  done
else
  echo "fleet smoke per-variant floors: SKIPPED ($(nproc) core(s) < 4)"
fi

echo "== [7/11] recal smoke: 1-second drift session, refit-without-outage gates =="
# bench/online_recal self-gates: >= 1 refit, refit_down_windows == 0,
# margin_recovered >= 0.9 (the full 2 s run sits around 0.97 — see
# BENCH_recal.json).  This stage re-gates the same three numbers from
# the smoke JSON, so the gate holds even if the binary's own checks drift.
(cd "${smoke_dir}" && "${OLDPWD}/build/bench/online_recal" 1.0 > recal_smoke.log)
recovered="$(sed -n 's/.*"margin_recovered": \([0-9.eE+-]*\).*/\1/p' \
  "${smoke_dir}/BENCH_recal_smoke.json")"
refit_down="$(sed -n 's/.*"refit_down_windows": \([0-9.eE+-]*\).*/\1/p' \
  "${smoke_dir}/BENCH_recal_smoke.json")"
refits="$(sed -n 's/.*"refits": \([0-9.eE+-]*\).*/\1/p' \
  "${smoke_dir}/BENCH_recal_smoke.json")"
echo "recal smoke: refits=${refits}, refit_down_windows=${refit_down}, margin_recovered=${recovered} (floor 0.9)"
[ -n "${refits}" ] && [ -n "${refit_down}" ] && [ -n "${recovered}" ] || {
  echo "FAIL: recal smoke JSON lacks refits / refit_down_windows / margin_recovered" >&2
  exit 1
}
awk -v r="${refits}" 'BEGIN { exit !(r + 0 >= 1) }' || {
  echo "FAIL: recal smoke triggered no refit" >&2
  exit 1
}
awk -v d="${refit_down}" 'BEGIN { exit !(d + 0 == 0) }' || {
  echo "FAIL: recal smoke had ${refit_down} down windows during a refit" >&2
  exit 1
}
awk -v m="${recovered}" 'BEGIN { exit !(m + 0 >= 0.9) }' || {
  echo "FAIL: recal smoke recovered ${recovered} of the lost margin (< 0.9)" >&2
  exit 1
}

echo "== [8/11] perfbench: self-test of every benchmark workload =="
python3 perfbench/run.py --self-test

echo "== [9/11] tsan: quick gate (fast|ctx|phy|stream|arena|session|cal) + fleet determinism =="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --preset tsan-fast
ctest --preset tsan-fleet

echo "== [10/11] obs-off-fast: telemetry compiled out, quick-gate labels =="
cmake --preset obs-off
cmake --build --preset obs-off -j "$(nproc)"
ctest --preset obs-off-fast

echo "== [11/11] src size: production line count under the ceiling =="
# Lines of *.cpp, *.hpp and CMakeLists.txt under src/ (ROADMAP tracks
# this number).  The ceiling is the current count: lower it when src/
# shrinks, raise it only deliberately.
SRC_LINES_CEILING="18665"
src_files="$(find src -type f \( -name '*.cpp' -o -name '*.hpp' -o -name CMakeLists.txt \) | wc -l)"
src_lines="$(find src -type f \( -name '*.cpp' -o -name '*.hpp' -o -name CMakeLists.txt \) -print0 | xargs -0 cat | wc -l)"
echo "src: ${src_lines} lines in ${src_files} files (ceiling ${SRC_LINES_CEILING})"
[ "${src_lines}" -le "${SRC_LINES_CEILING}" ] || {
  echo "FAIL: src/ has ${src_lines} lines, above the ceiling ${SRC_LINES_CEILING}" >&2
  exit 1
}

echo "== all gates passed =="
