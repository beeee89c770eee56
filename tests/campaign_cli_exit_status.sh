#!/bin/sh
# Campaign front-ends (gfbench campaign, table5_campaign) share one flag
# table and one session: a bad flag must exit 2, and a --store that names an
# unusable directory must exit 1 with "error: --store: ..." on stderr,
# never an uncaught exception.
#
#   campaign_cli_exit_status.sh GFBENCH TABLE5
set -u
gfbench=$1 table5=$2
scratch=campaign-exit-scratch
rm -rf "$scratch" && mkdir -p "$scratch" || exit 1
status=0

for argv in '--strid 48' '--stride 0' '--jobs abc'; do
  # shellcheck disable=SC2086
  "$gfbench" campaign --os 2000 --server apex $argv 2>/dev/null
  rc=$?
  [ "$rc" -eq 2 ] || { echo "FAIL (exit $rc): gfbench campaign $argv"; status=1; }
  # shellcheck disable=SC2086
  "$table5" $argv >/dev/null 2>&1
  rc=$?
  [ "$rc" -eq 2 ] || { echo "FAIL (exit $rc): table5_campaign $argv"; status=1; }
done

# expect_store_error COMMAND...
expect_store_error() {
  err=$("$@" 2>&1 >/dev/null)
  rc=$?
  case "$rc:$err" in
    *terminate*) ok=no ;;
    "1:"*"error: --store: "*) ok=yes ;;
    *) ok=no ;;
  esac
  if [ "$ok" = no ]; then
    echo "FAIL (exit $rc): $*"
    echo "  stderr: $err"
    status=1
  fi
}

: >"$scratch/a_file"
for store in "$scratch/a_file" "$scratch/a_file/store"; do
  expect_store_error "$gfbench" campaign --os 2000 --server apex \
    --stride 101 --iterations 1 --scale 0.02 --store "$store"
  expect_store_error "$table5" --stride 101 --iterations 1 --scale 0.02 \
    --store "$store"
done
exit $status
