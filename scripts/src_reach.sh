#!/usr/bin/env bash
# Function-level reach scan: every function that src/ defines out of line
# must be linked into a program that runs it — a bench, an example or
# perfbench.  A function only tests call is a test helper and leaves src/.
#
# The scan builds build-reach/ at -O0 with one section per function and
# data object, links every bench, example and perfbench with
# --gc-sections, and lists each global text symbol (`T` in
# `nm -C --defined-only`) of a src/ archive that no runner binary contains.
# -O0 matters: at -O2 a function inlined into its only caller in the same
# file loses its out-of-line copy and would look unreached.
#
# KEEP names the few functions tests need to drive or observe production
# state; each entry must still be defined and still be unreached, so the
# list cannot go stale.  Run from anywhere:  ./scripts/src_reach.sh
set -euo pipefail
cd "$(dirname "$0")/.."

KEEP=(
  # event_test and multi_tx_test drive HandoverProcess to exact instants.
  "cyclops::event::Scheduler::run_until(long)"
  "cyclops::event::EventQueue::peek()"
  "cyclops::event::EventQueue::pop()"
  # The stream_* tests observe the arena's generation and refcount
  # invariants.
  "cyclops::stream::FrameArena::valid(cyclops::stream::FrameHandle) const"
  "cyclops::stream::FrameArena::ref_count(cyclops::stream::FrameHandle) const"
  # context_test checks context isolation.
  "cyclops::obs::Registry::empty() const"
)

build=build-reach
flags="-O0 -ffunction-sections -fdata-sections"
jobs="$(nproc)"

benches="$(sed -n 's/^cyclops_bench(\([a-z0-9_]*\)).*/\1/p' bench/CMakeLists.txt)"
examples="$(sed -n 's/^add_executable(\([a-z0-9_]*\) .*/\1/p' examples/CMakeLists.txt)"

cmake -S . -B "${build}" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="${flags}" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \
  > /dev/null
# shellcheck disable=SC2086  # target lists split on whitespace
cmake --build "${build}" -j "${jobs}" --target ${benches} ${examples}
cmake -S perfbench -B "${build}/perfbench" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="${flags}" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \
  > /dev/null
cmake --build "${build}/perfbench" -j "${jobs}" --target cyclops_perfbench

runners=()
for b in ${benches}; do runners+=("${build}/bench/${b}"); done
for e in ${examples}; do runners+=("${build}/examples/${e}"); done
runners+=("${build}/perfbench/cyclops_perfbench")

scan="${build}/reach"
mkdir -p "${scan}"
find "${build}/src" -name 'libcyclops_*.a' -print0 |
  xargs -0 nm -C --defined-only |
  sed -n 's/^[0-9a-f]* T //p' | sort -u > "${scan}/defined.txt"
nm -C --defined-only "${runners[@]}" |
  sed -n 's/^[0-9a-f]* [A-Za-z] //p' | sort -u > "${scan}/reached.txt"
comm -23 "${scan}/defined.txt" "${scan}/reached.txt" > "${scan}/unreached.txt"
printf '%s\n' "${KEEP[@]}" | sort -u > "${scan}/keep.txt"

offenders="$(comm -23 "${scan}/unreached.txt" "${scan}/keep.txt")"
stale="$(comm -13 "${scan}/unreached.txt" "${scan}/keep.txt")"
echo "src reach: $(wc -l < "${scan}/defined.txt") src/ functions, ${#runners[@]} runners, $(wc -l < "${scan}/keep.txt") kept for tests"
status=0
if [ -n "${offenders}" ]; then
  echo "FAIL: src/ functions no bench, example or perfbench reaches:" >&2
  echo "${offenders}" >&2
  status=1
fi
if [ -n "${stale}" ]; then
  echo "FAIL: keep-list entries that are reached or no longer defined:" >&2
  echo "${stale}" >&2
  status=1
fi
[ "${status}" -eq 0 ] && echo "src/ keeps only what runs: every function has a non-test caller"
exit "${status}"
