#!/bin/sh
# Numeric flags outside the campaign flag table, and campaign flags that
# would change nothing: a malformed or out-of-range value, or a flag missing
# the flag it needs, must fail with "error: <flag>: ..." on stderr and exit
# status 2, before any work is done.
#
#   flag_exit_status.sh GFBENCH TABLE4 SOURCE_DIR
set -u
gfbench=$1 table4=$2 src=$3
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

# The store flags need --store; --profile-stride needs a profile artifact.
campaign() {
  "$gfbench" campaign --os 2000 --server apex --stride 101 --iterations 1 \
    --scale 0.02 --baseline-ms 250 "$@"
}
expect_rejected --store-json campaign --store-json "$scratch/st.json"
expect_rejected --crash-after-puts campaign --crash-after-puts 1
expect_rejected --no-cache campaign --no-cache
expect_rejected --resume campaign --resume
expect_rejected --profile-stride campaign --profile-stride 512 \
  --metrics-json "$scratch/m.json"
test ! -e "$scratch/st.json" || { echo "FAIL: st.json written"; status=1; }

rm -rf "$scratch"
exit $status
