#!/bin/sh
# Numeric flags outside the campaign flag table: a malformed or out-of-range
# value must fail with "error: <flag>: ..." on stderr and exit status 2,
# before any work is done.
#
#   flag_exit_status.sh GFBENCH BENCH_DIFF TABLE4 CAMPAIGN_STEAL \
#                       CAMPAIGN_RESUME SOURCE_DIR
set -u
gfbench=$1 bench_diff=$2 table4=$3 steal=$4 resume=$5 src=$6
scratch=flag-exit-scratch
rm -rf "$scratch" && mkdir -p "$scratch" || exit 1
status=0

# expect_rejected FLAG COMMAND...
expect_rejected() {
  flag=$1
  shift
  err=$("$@" 2>&1 >/dev/null)
  rc=$?
  case "$rc:$err" in
    "2:error: $flag: "*) ;;
    *)
      echo "FAIL (exit $rc): $*"
      echo "  stderr: $err"
      status=1
      ;;
  esac
}

bench=$src/BENCH_sched.json
expect_rejected --tolerance "$bench_diff" "$bench" "$bench" --tolerance abc
expect_rejected --tolerance "$bench_diff" "$bench" "$bench" --tolerance -5

manifest=$src/tests/golden/manifest.json
expect_rejected --threshold "$gfbench" diff "$manifest" "$manifest" \
  --threshold abc
expect_rejected --threshold "$gfbench" diff "$manifest" "$manifest" \
  --threshold -1

"$gfbench" scan --os 2000 --out "$scratch/f.fl" >/dev/null || exit 1
expect_rejected --limit "$gfbench" show --faultload "$scratch/f.fl" --limit -1
expect_rejected --limit "$gfbench" show --faultload "$scratch/f.fl" --limit x
expect_rejected --max-bytes "$gfbench" store gc --store "$scratch/store" \
  --max-bytes -1

expect_rejected --jobs "$table4" --jobs abc --seed x
expect_rejected --seed "$table4" --seed x
expect_rejected --jobs "$steal" --jobs abc --out "$scratch/sched.json"
expect_rejected --scale "$steal" --scale x --out "$scratch/sched.json"
expect_rejected --jobs "$resume" --jobs abc --store-dir "$scratch/rs" \
  --out "$scratch/store.json"
expect_rejected --scale "$resume" --scale x --store-dir "$scratch/rs" \
  --out "$scratch/store.json"

rm -rf "$scratch"
exit $status
