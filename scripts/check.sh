#!/usr/bin/env bash
# One-command CI gate: the tier-1 configure/build/ctest line from ROADMAP.md
# plus the sanitizer suites from CMakePresets.json — `ctest -L tsan` under
# the tsan preset (data races in the parallel search + session server +
# epoll reactor transport) and the full ctest run under the asan preset
# (heap errors/leaks, notably the COW snapshot lifecycle and per-connection
# teardown through the reactor's ops thread), with the reactor/socket
# suites re-run explicitly so the network gates are visible in the log.
# The loopback-TCP smoke drives the real rankhow_cli --listen binary over
# /dev/tcp in both text and binary framing.
#
# The chaos suite rides both sanitizer gates: `ctest --preset tsan` picks
# up chaos_tests_nokill (fault injection, journal recovery, shedding —
# the subprocess-free subset; SIGKILLing children under tsan is noise),
# and the asan preset's full ctest includes the kill/crash tests that
# SIGKILL a real --listen server mid-session. The explicit `-L chaos` run
# below makes the durability gate visible in the log like the socket one.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: default build + full ctest =="
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== loopback-TCP smoke: rankhow_cli --listen over /dev/tcp =="
bash scripts/smoke_listen.sh build

echo "== coordinator smoke: rankhow_coord fronting 2 workers =="
# Two real worker processes behind the shard coordinator, two clients on
# two pinned shards; proven results must equal serial --session replays
# and the aggregated stats line must carry the coord_* breakdown.
bash scripts/smoke_coord.sh build

echo "== stress: chaos/coord/net/cache suites under CPU load =="
# Tier-1 must hold on a loaded machine, not only when a suite runs alone:
# re-run the timing-sensitive suites (SIGKILL/restart, coordinator
# failover, the reactor, the warm cache) three times each while one
# busy-loop process per core competes for the CPU.
HOGS=()
stop_hogs() {
  for pid in "${HOGS[@]-}"; do
    [[ -n "$pid" ]] || continue
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  HOGS=()
}
trap stop_hogs EXIT
for _ in $(seq 1 "$(nproc)"); do
  (while :; do :; done) &
  HOGS+=("$!")
done
(cd build && ctest --output-on-failure -L 'chaos|coord|net|cache' \
  --repeat until-fail:3)
stop_hogs

echo "== tsan: thread-sanitized build + ctest -L tsan =="
cmake --preset tsan
cmake --build --preset tsan -j
ctest --preset tsan

echo "== tsan reactor gate: net suite, explicitly =="
# The epoll reactor is the most thread-dense subsystem (event loops + ops
# thread + accept thread + strand completions all touching per-connection
# state); the explicit -L net run makes its race gate visible in the log.
(cd build-tsan && ctest --output-on-failure -L net)

echo "== tsan cache gate: warm-start cache suite, explicitly =="
# The persistent warm cache runs a background writer thread against
# concurrent publish/draw traffic from every registry strand; the -L cache
# run makes its race gate visible in the log (the suite includes a
# 4-thread publish/draw hammer for exactly this preset).
(cd build-tsan && ctest --output-on-failure -L cache)

echo "== tsan coord gate: shard coordinator suite, explicitly =="
# The coordinator's reactor loops and ops thread race upstream reader and
# writer threads, the health prober, and the failover replay path; the -L coord
# run makes that gate visible in the log. (Kill-based failover lives in
# tests/chaos and rides the asan chaos gate below.)
(cd build-tsan && ctest --output-on-failure -L coord)

echo "== asan: address-sanitized build + full ctest =="
cmake --preset asan
cmake --build --preset asan -j
ctest --preset asan

echo "== asan socket gate: net + server suites, explicitly =="
(cd build-asan && ctest --output-on-failure -R '^(net|server)_tests$')

echo "== asan chaos gate: journal recovery + SIGKILL/crash tests =="
(cd build-asan && ctest --output-on-failure -L chaos)

echo "== asan coord gate: shard coordinator suite, explicitly =="
# Failover tears down upstream connections while reader threads and
# pending proxy entries are still live; asan watches those teardown paths.
(cd build-asan && ctest --output-on-failure -L coord)

echo "== asan cache gate: warm-start cache suite, explicitly =="
# The cache's round-trip/corruption tests shuttle heap-backed records
# through open/close/reopen cycles; asan watches the file-descriptor-
# adjacent buffers and the writer thread's teardown path.
(cd build-asan && ctest --output-on-failure -L cache)

echo "== ubsan: UB-sanitized build + ctest -L kernels =="
# The batched scoring kernels (src/data/kernels.cc) lean on blocked FP
# accumulation and branch-free integer masks; the ubsan preset runs the
# kernel equivalence suite to catch signed overflow / bad shifts / invalid
# casts that -Wall cannot see.
cmake --preset ubsan
cmake --build --preset ubsan -j
ctest --preset ubsan

echo "check.sh: all gates passed"
