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
#                      over the serial event walk drops below 2x.  Then
#                      Table 2's calibration on $(nproc) threads; fails
#                      if its pool-wide LM iterations (Jacobian columns,
#                      normal-equation tiles, board-sample residuals) run
#                      below 1.3x the forced-serial run.  Then bench/obs_overhead on
#                      $(nproc) threads; fails if the §5.4 evaluator
#                      with a registry attached runs more than 5 % slower
#                      than without one (telemetry must stay cheap
#                      enough to leave on).  Only meaningful with >= 4
#                      cores; skipped (visibly) on smaller boxes.
#   4. stream smoke  — bench/stream_pipeline on a 50-trace subset; the
#                      binary hard-gates zero torn frames / >= 1 Gbps
#                      through flaps, and this stage additionally holds
#                      the adaptive policy's freeze rate under a fixed
#                      ceiling.
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
#   7. calibration-plane smoke — bench/online_recal on a 1-second drift
#                      session; the binary and this stage both gate >= 1
#                      drift-triggered refit, zero refit-attributable down
#                      windows, and >= 90 % margin recovery over the
#                      frozen-calibration twin (refit without outage).
#                      Then examples/calibration_demo power-cycles a
#                      calibration twice — save/reload of the finished
#                      calibration, and a checkpoint file cut mid-Stage-1
#                      fit — and exits non-zero unless both are bit-exact.
#   8. perfbench     — python3 perfbench/run.py --self-test: tiny runs of
#                      every benchmark workload, traced and untraced,
#                      must emit every BENCHMARK.json metric.  Then the
#                      binary it built runs each workload --tiny at seed
#                      1 and fails unless its report digest equals the
#                      constant kept below: the simulated output is
#                      pinned, so a speed-only change is bit-exact.
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
#  10. asan-ubsan    — AddressSanitizer + UndefinedBehaviorSanitizer
#                      (-fno-sanitize-recover=undefined: the first UB
#                      report fails its test) over the same quick gate
#                      (fast|ctx|phy|stream|arena|session|cal), then the
#                      session|fleet suites — so the Stage-1 Jacobian
#                      probes' sample references and per-Jacobian cache,
#                      the checkpoint reader and every pool fan-out run
#                      under ASan and UBSan as well as TSan.
#  11. src size      — counts the *.cpp, *.hpp and CMakeLists.txt lines
#                      under src/ and fails above a committed ceiling:
#                      the production code may only shrink unless the
#                      ceiling is raised on purpose.  It fails when a
#                      header under src/ is included by nothing outside
#                      tests/ (its own .cpp does not count), and when
#                      scripts/src_reach.sh finds a function defined in
#                      src/ that no bench, example or perfbench links
#                      (bar its keep-list of test hooks): src/ keeps
#                      only what runs.  The same stage keeps the caller
#                      the only source of pools and registries: it fails
#                      if src/ names default_ctx, Registry::global or
#                      materialize_, or names ThreadPool::global()
#                      outside the three files that may
#                      (util/thread_pool.cpp, session/fleet.cpp,
#                      core/evaluation.cpp).  And it keeps telemetry
#                      compiled in: it fails if CYCLOPS_OBS or kEnabled
#                      appears in src/, bench/, examples/, tests/ or the
#                      top-level CMake files, bar the one constant
#                      perfbench prints (src/obs/config.hpp).
# Any failure stops the script (set -e); a clean exit means all eleven
# gates passed.  Run from the repository root:  ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Floor for the fig16 legacy_vs_event_speedup smoke check.  Since the
# evaluator answers most intervals from an upper bound on the rotation
# angle (DESIGN.md §13), twelve 50-trace smoke runs on a 4-vCPU Intel Xeon
# VM read 2.03-3.29x; the evaluator before it read 1.15-1.46x there (and
# up to 1.74x in other runs on that host type).  With the per-gap screen
# (two compares per connected interval) ten smokes read 3.14-4.81x
# (median 4.3x), alternating with ten of the bound-only evaluator at
# 2.41-3.42x.  The two overlap, so the floor cannot tell them apart; it
# rises to 2.5, 20 % under the lowest run, and still fails an evaluator
# that loses the bound's saving.  Timing phases inside fig16 are best-of-2
# so this single-shot gate is stable.
PERF_SPEEDUP_FLOOR="2.5"

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
TABLE2_SPEEDUP_FLOOR="1.3"
# Ceiling for the obs-ON cost on the §5.4 evaluator (bench/obs_overhead:
# the median time ratio of 540 adjacent pass pairs with and without a
# registry).  Ten runs on a 4-vCPU Intel Xeon VM read +1.4 % to +3.1 % on
# 4 threads; with an atomic add per evaluated interval the evaluator cost
# +31 % to +34 %.  Once the per-gap screen cut a pass to ~2.2 ms, the
# per-chunk registry shards' fixed ~85 us per pass read +3.9 % to +4.2 %;
# with one tally per chunk recorded once, seven runs read -0.2 % to +0.3 %.
OBS_OVERHEAD_CEILING="0.05"
if [ "$(nproc)" -ge 4 ]; then
  echo "== [3/11] parallel scaling: fig16 smoke, table2 and obs overhead on $(nproc) threads, floors ${PARALLEL_SPEEDUP_FLOOR}x / ${TABLE2_SPEEDUP_FLOOR}x, ceiling ${OBS_OVERHEAD_CEILING} =="
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
  # Table 2's calibration: each Stage-1 LM iteration deals its Jacobian
  # one column per chunk, its normal equations (JtJ with Jr) one tile row
  # per chunk, and its candidate residuals (which also trace the next
  # Jacobian's base point) by board sample over the pool; the Cholesky
  # solve stays serial.  An earlier LM, whose
  # Jacobian alone fanned out, measured 1.97-2.29x on
  # the 4-core reference host when this floor was set.  The Stage-1
  # probes and the inlined trace then made the Jacobian ~3.6x cheaper but
  # not that serial rest, so its share of an iteration grew and the
  # speedup fell: 129 ms serial, 85 ms parallel (1.52x; 1.43-1.63x over
  # five runs) on a 4-vCPU AMD EPYC VM, where the parent read 388 / 167
  # ms (2.32x).  The serial normal matrix is now register-tiled (about
  # half its row-streaming time on Stage 1's 532 x 25 Jacobian), so that
  # serial rest shrank again: BENCH_table2.json reads serial 284 ms,
  # parallel 171 ms (1.66x) on a 4-vCPU Intel Xeon VM, where the parent
  # binary read 352 / 197 ms (1.79x) run back to back.  Single runs
  # of either binary on that shared host ranged 0.75-2.2x while
  # co-tenants were busy.  Now the whole iteration fans out (polling
  # workers, one Jacobian column and one normal-matrix tile row per
  # chunk, residuals by board sample): BENCH_table2.json reads 249 /
  # 104 ms (2.41x), and ten runs back to back read 2.34-2.85x against
  # 1.32-2.03x for the parent binary; in busy spells both binaries also
  # read 0.8-1.1x, because the bench timed two serial runs and then two
  # parallel ones, so one busy spell could slow one side only.  It now
  # alternates serial and parallel runs on one pool and keeps the best of
  # five of each: ten runs read 2.27-3.10x (serial 246-298 ms, parallel
  # 95-126 ms) but for one at 1.48x and one at 0.86x, whose five
  # parallel runs were all slower than the serial ones between them
  # (most likely util::ThreadPool's workers left on the caller's CPU);
  # BENCH_table2.json reads 267 / 94 ms (2.84x).  The floor stays where
  # it was: it leaves headroom for a shared host.
  (cd "${smoke_dir}" && CYCLOPS_THREADS="$(nproc)" \
    "${OLDPWD}/build/bench/table2_gma_errors" > table2_parallel.log)
  t2="$(sed -n 's/.*"speedup": \([0-9.eE+-]*\).*/\1/p' \
    "${smoke_dir}/BENCH_table2.json")"
  echo "table2 parallel speedup: ${t2} on $(nproc) threads (floor ${TABLE2_SPEEDUP_FLOOR})"
  awk -v s="${t2}" -v floor="${TABLE2_SPEEDUP_FLOOR}" \
    'BEGIN { exit !(s + 0 >= floor + 0) }' || {
    echo "FAIL: table2 parallel speedup ${t2} below floor ${TABLE2_SPEEDUP_FLOOR}" >&2
    exit 1
  }
  (cd "${smoke_dir}" && CYCLOPS_THREADS="$(nproc)" \
    "${OLDPWD}/build/bench/obs_overhead" > obs_overhead.log)
  obs_cost="$(sed -n 's/.*"overhead_fraction": \([0-9.eE+-]*\).*/\1/p' \
    "${smoke_dir}/BENCH_obs_overhead.json")"
  echo "obs-ON overhead: ${obs_cost} on $(nproc) threads (ceiling ${OBS_OVERHEAD_CEILING})"
  [ -n "${obs_cost}" ] || {
    echo "FAIL: BENCH_obs_overhead.json lacks overhead_fraction" >&2
    exit 1
  }
  awk -v o="${obs_cost}" -v ceiling="${OBS_OVERHEAD_CEILING}" \
    'BEGIN { exit !(o + 0 <= ceiling + 0) }' || {
    echo "FAIL: obs-ON overhead ${obs_cost} above ceiling ${OBS_OVERHEAD_CEILING}" >&2
    exit 1
  }
else
  echo "== [3/11] parallel scaling: SKIPPED ($(nproc) core(s) < 4 — the 2x fig16 and 1.3x table2 floors and the 5 % obs-ON ceiling need >= 4) =="
fi

echo "== [4/11] stream smoke: 50-trace subset, torn frames + freeze-rate gates =="
# The adaptive controller's freeze rate on the trace library must stay
# under this ceiling (freezes per minute; the full run sits around 6 —
# see BENCH_stream.json).  The binary itself additionally hard-fails on
# torn frames or < 1 Gbps goodput through flaps.
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
# reference host the smoke mix runs at ~4100 sessions/s warm (~800 when
# the process is cold, measured before the galvo traces were split;
# BENCH_fleet.json has the 10k run); the floor
# catches an order-of-magnitude per-session lifecycle regression (context
# setup, scheduler construction) while staying far from machine noise.  The
# binary itself hard-fails if a rollup does not reconcile exactly against
# the per-session sums or any session dispatched zero events.
FLEET_SESSIONS_PER_SEC_FLOOR="300"
# Per-variant floors (sessions/s of each variant's 142-143-session slice
# run alone on $(nproc) drivers), about half of what the 4-core reference
# host measured: link ~5000, channel ~10500, hetero ~4900, multi_tx
# ~10500, arena ~12000, stream ~5000, online_recal ~1400 (three runs on
# a 4-vCPU Intel Xeon VM).  link, hetero and online_recal were last
# raised when the aligner's rasters began sharing their mirror legs, a
# coupling was evaluated once per couple() and the online refit began
# re-posing only the GMA a Jacobian column moves (the parent binary read
# ~3600, ~3400 and ~1100 there); multi_tx was raised when the galvo
# traces were split, and the other floors keep their earlier values.  A
# mix change can then no longer hide a 2x regression in one variant.
# They assume >= 4 cores and are skipped (visibly) on smaller boxes,
# like stage 3.
FLEET_VARIANT_FLOORS="link:2500 channel:4000 hetero:2400 multi_tx:4900 arena:6000 stream:2500 online_recal:700"
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

echo "== [7/11] calibration-plane smoke: drift refit without outage, calibration power cycles =="
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
# The demo writes only under its own temp directory and exits 1 unless a
# reloaded calibration points bit-identically and a checkpoint restored
# mid-Stage-1 fit finishes bit-equal to an uninterrupted run.
build/examples/calibration_demo > "${smoke_dir}/calibration_demo.log"
tail -n 2 "${smoke_dir}/calibration_demo.log"

echo "== [8/11] perfbench: self-test of every benchmark workload, pinned simulated output =="
python3 perfbench/run.py --self-test
# The simulated output, pinned: a tiny run of each workload must print
# these report digests (they are equal at 1 and 3 threads and at 1 and 3
# seconds).  A change that alters simulated output updates them and says
# so in CHANGES.md; a speed-only change must leave them alone.
PERFBENCH_TINY_DIGESTS="fleet_mix:1a93e62f53d6156c trace_eval:5eed9b96e9f895bc calibration:4b838d7c8213d9c7"
for entry in ${PERFBENCH_TINY_DIGESTS}; do
  workload="${entry%%:*}"
  expected="${entry#*:}"
  actual="$(.bench_build/perfbench/cyclops_perfbench --workload "${workload}" \
    --tiny --seconds 1 --trace 0 --seed 1 2>/dev/null |
    sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' | head -n 1 || true)"
  echo "perfbench --tiny ${workload}: digest ${actual} (expected ${expected})"
  [ "${actual}" = "${expected}" ] || {
    echo "FAIL: perfbench --tiny ${workload} digest is '${actual}', expected ${expected}: the simulated output changed" >&2
    exit 1
  }
done

echo "== [9/11] tsan: quick gate (fast|ctx|phy|stream|arena|session|cal) + fleet determinism =="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --preset tsan-fast
ctest --preset tsan-fleet

echo "== [10/11] asan-ubsan: quick gate (fast|ctx|phy|stream|arena|session|cal) + session|fleet =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"
ctest --preset asan-ubsan-fast
ctest --preset asan-ubsan-fleet

echo "== [11/11] src size + one door: line ceiling, no test-only headers or functions, no hidden global resources, no telemetry switch =="
# Lines of *.cpp, *.hpp and CMakeLists.txt under src/ (ROADMAP tracks
# this number).  The ceiling is the current count: lower it when src/
# shrinks, raise it only deliberately.
SRC_LINES_CEILING="17362"
src_files="$(find src -type f \( -name '*.cpp' -o -name '*.hpp' -o -name CMakeLists.txt \) | wc -l)"
src_lines="$(find src -type f \( -name '*.cpp' -o -name '*.hpp' -o -name CMakeLists.txt \) -print0 | xargs -0 cat | wc -l)"
echo "src: ${src_lines} lines in ${src_files} files (ceiling ${SRC_LINES_CEILING})"
[ "${src_lines}" -le "${SRC_LINES_CEILING}" ] || {
  echo "FAIL: src/ has ${src_lines} lines, above the ceiling ${SRC_LINES_CEILING}" >&2
  exit 1
}
# src/ keeps only what runs: every header under it is included from src/,
# bench/, examples/ or perfbench/ by something other than its own .cpp.
# A header only tests include is a test reference and lives in tests/oracle/.
test_only_headers=""
for header in $(cd src && find . -name '*.hpp' | sed 's|^\./||' | sort); do
  users="$(grep -rlF --include='*.cpp' --include='*.hpp' \
    "#include \"${header}\"" src bench examples perfbench |
    grep -vxF "src/${header%.hpp}.cpp" || true)"
  [ -n "${users}" ] || test_only_headers="${test_only_headers} ${header}"
done
[ -z "${test_only_headers}" ] || {
  echo "FAIL: src/ headers included by nothing outside tests/:${test_only_headers}" >&2
  exit 1
}
# The same down to the function: every out-of-line function of a src/
# archive is linked into a bench, an example or perfbench (an -O0
# --gc-sections build in build-reach/), or is one of the few test hooks
# on the script's keep-list.
./scripts/src_reach.sh
# Every solver, aligner and session plane takes its caller's context or
# pool: no process-wide context or registry, no lazily built resources.
removed_globals="$(grep -rnE 'default_ctx|Registry::global|materialize_' src || true)"
[ -z "${removed_globals}" ] || {
  echo "FAIL: src/ names a removed global resource:" >&2
  echo "${removed_globals}" >&2
  exit 1
}
# Telemetry is always compiled in: no build option, preset or guard
# names the old switch.  The one constant left is the one perfbench
# prints in its host record.
obs_switch="$(grep -rnE 'CYCLOPS_OBS|kEnabled' src bench examples tests \
  CMakeLists.txt CMakePresets.json |
  grep -vE '^src/obs/config\.hpp:[0-9]+:inline constexpr bool kEnabled = true;$' ||
  true)"
[ -z "${obs_switch}" ] || {
  echo "FAIL: the telemetry compile-out switch is named again:" >&2
  echo "${obs_switch}" >&2
  exit 1
}
# The process-wide pool is named only where no caller pool can reach:
# its definition, run_fleet's perfbench-pinned default, and
# evaluate_combined_errors' perfbench-pinned signature.
global_pool_files="$(grep -rlF 'ThreadPool::global()' src |
  grep -vxE 'src/(util/thread_pool|session/fleet|core/evaluation)\.cpp' || true)"
[ -z "${global_pool_files}" ] || {
  echo "FAIL: ThreadPool::global() named outside its three allowed files:" >&2
  echo "${global_pool_files}" >&2
  exit 1
}
echo "src/ keeps only what runs: every header and function has a caller outside tests/"
echo "one door: no default_ctx / Registry::global / materialize_ under src/; ThreadPool::global() only in its three files"
echo "one build: telemetry compiled in, no CYCLOPS_OBS switch or guard"

echo "== all gates passed =="
