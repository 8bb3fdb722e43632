#!/usr/bin/env bash
# Pre-PR gate (docs/testing.md): the tier-1 suite, the bounded tier-2 smoke
# subset, the benchmark's smoke suite, tier-1 again under AddressSanitizer
# and UndefinedBehaviorSanitizer, and the worker-pool tests under
# ThreadSanitizer -- one command, fails fast.
#
#   scripts/check.sh            # full gate
#   SKIP_ASAN=1 scripts/check.sh  # skip the sanitizer builds (quick local loop)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"
ctest --preset tier1
# tier2-smoke includes the viewer fan-out plan (50k sessions, 16 views,
# seeded churn waves) alongside the six chaos-plan scenarios.
ctest --preset tier2-smoke
# Every perfbench workload at smoke size through its correctness checks
# (image hashes, frame digest, the 3:1 share, digest agreement across
# repetitions), so a change that breaks one fails here and not only in the
# benchmark pipeline. Builds into .bench_build/ on first use.
python3 -m unittest discover -s perfbench/tests

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$jobs"
  ctest --preset asan-tier1
  # The viewer fan-out smoke again under ASan: the tier's fiber handoffs,
  # frame cache eviction, and churn-time session teardown are exactly the
  # lifetime bugs the sanitizer exists to catch (viewer_test itself is
  # tier1 and already ran above).
  ctest --preset asan-tier2-smoke -R ViewerFanOut
  # Tier-1 once more under UBSan, which aborts on its first report: wire
  # decoders and size checks are where overflow and null-pointer UB hide.
  cmake --preset ubsan >/dev/null
  cmake --build --preset ubsan -j "$jobs"
  ctest --preset ubsan-tier1
  # The host worker pool (des::parallel_pure) under ThreadSanitizer, driven
  # from inside DES fibers: des_test, apps_test (Mandelbulb planes on the
  # pool), catalyst_test, render_test, net_test, chaos_test and
  # integrity_test (multi-chunk hashes and pulls), the Fig 3 hash pin and
  # the bench-smoke runs (abl_flowctl's 2 MiB stages) carry the parallel
  # label.
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$jobs"
  ctest --preset tsan-parallel
fi

echo "check.sh: all green"
