#!/bin/sh
# Every front-end parses its command line through one flag table
# (src/util/flags.h): an unknown flag, a missing value, a malformed or
# out-of-range value, or a flag that would change nothing must fail with
# "error: ..." naming the flag on stderr and exit status 2, before any work
# is done or any file or directory is created.
#
#   flag_exit_status.sh GFBENCH TABLE4 SOURCE_DIR GFCHECK JSON_CHECK
set -u
gfbench=$1 table4=$2 src=$3 gfcheck=$4 json_check=$5
scratch=flag-exit-scratch
rm -rf "$scratch" && mkdir -p "$scratch" || exit 1
status=0

# expect_error PREFIX COMMAND...: exit status 2, stderr starting with PREFIX.
expect_error() {
  prefix=$1
  shift
  err=$("$@" 2>&1 >/dev/null)
  rc=$?
  case "$rc:$err" in
    "2:$prefix"*) ;;
    *)
      echo "FAIL (exit $rc): $*"
      echo "  stderr: $err"
      status=1
      ;;
  esac
}

# expect_rejected FLAG COMMAND...
expect_rejected() {
  flag=$1
  shift
  expect_error "error: $flag: " "$@"
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

expect_rejected --os "$gfbench" scan --os 98
expect_rejected --seed "$gfcheck" --seed x
expect_rejected --engine "$gfcheck" --engine foo
expect_rejected --cases "$gfcheck" --cases 1x
expect_rejected --schema "$json_check" --schema nope "$manifest"

# Unknown flags and missing values, on every front-end.
for cmd in "$gfbench scan" "$gfbench show" "$gfbench diff" "$gfbench campaign" \
    "$gfbench store" "$table4" "$gfcheck" "$json_check"; do
  # shellcheck disable=SC2086
  expect_error "error: unknown flag --bogus" $cmd --bogus 1
done
expect_rejected --out "$gfbench" scan --out
expect_rejected --limit "$gfbench" show --faultload "$scratch/f.fl" --limit
expect_rejected --json "$gfbench" diff "$manifest" "$manifest" --json
expect_rejected --stride campaign --stride
expect_rejected --jobs "$table4" --jobs
expect_rejected --dump "$gfcheck" --dump --verbose
expect_rejected --schema "$json_check" --schema

# gfbench store checks its action and flags before it opens (and so
# creates) the store directory.
expect_error "error: store: " "$gfbench" store lss --store "$scratch/store"
expect_rejected --max-bytes "$gfbench" store ls --store "$scratch/store" \
  --max-bytes 5
expect_rejected --max-bytes "$gfbench" store verify --store "$scratch/store" \
  --max-bytes 5
test ! -e "$scratch/store" || { echo "FAIL: store created"; status=1; }

rm -rf "$scratch"
exit $status
