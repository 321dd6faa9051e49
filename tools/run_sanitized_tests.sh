#!/usr/bin/env sh
# Builds the test suite under AddressSanitizer, UBSan or ThreadSanitizer
# (one build tree per sanitizer) and runs ctest in each, all but the
# paper-scale figures label. Any sanitizer report fails the run:
# -fno-sanitize-recover=all aborts ASan/UBSan on the first finding, and
# a TSan report makes the test exit non-zero.
#
# Usage: tools/run_sanitized_tests.sh [address|undefined|thread]...
#        (no arguments = address and undefined)
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
sanitizers="${*:-address undefined}"

for sanitizer in $sanitizers; do
  build="$repo/build-$sanitizer"
  echo "=== $sanitizer sanitizer: configuring $build ==="
  cmake -B "$build" -S "$repo" -DHETSCHED_SANITIZE="$sanitizer" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j
  echo "=== $sanitizer sanitizer: running tests ==="
  # The figures label runs paper-scale benches, too slow instrumented.
  ctest --test-dir "$build" --output-on-failure -j -LE figures
done

echo "=== all sanitized test runs passed ==="
