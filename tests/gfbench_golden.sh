#!/bin/sh
# The golden corpus pins the command line as well as the library:
# `gfbench campaign` with the options of tests/test_golden.cpp writes every
# deterministic artifact that campaign collects (it is unprofiled, so no
# profile or flamegraph), and tests/golden/ must hold exactly those files,
# byte for byte.
#
#   gfbench_golden.sh GFBENCH GOLDEN_DIR
set -u
gfbench=$1 golden=$2
out=gfbench-golden-scratch
rm -rf "$out" && mkdir -p "$out" || exit 1

"$gfbench" campaign --os 2000 --server apex --stride 101 --iterations 1 \
  --scale 0.02 --baseline-ms 250 --seed 42 --jobs 1 \
  --metrics-json "$out/manifest.json" --html-report "$out/report.html" \
  --journal-out "$out/journal.jsonl" --trace-out "$out/activations.jsonl" \
  --activation-json "$out/activation_summary.json" >/dev/null 2>&1 || exit 1

status=0
if [ "$(ls "$golden")" != "$(ls "$out")" ]; then
  echo "FAIL: tests/golden holds $(ls "$golden" | tr '\n' ' ')"
  echo "      gfbench wrote $(ls "$out" | tr '\n' ' ')"
  status=1
fi
for f in "$out"/*; do
  cmp "$golden/${f##*/}" "$f" || status=1
done
rm -rf "$out"
exit $status
