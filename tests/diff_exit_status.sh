#!/bin/sh
# `gfbench diff` is the cross-campaign regression gate, so a manifest it
# cannot read must refuse the comparison instead of reading a field as 0.
# Each edit below breaks one field of the golden manifest: `gfbench diff
# GOLDEN EDITED` must exit 2 with "error: NEW: <path>: ..." on stderr, and
# `json_check --schema manifest EDITED` must exit 1.
#
#   diff_exit_status.sh GFBENCH JSON_CHECK GOLDEN_DIR
set -u
gfbench=$1 json_check=$2 golden=$3/manifest.json
scratch=diff-exit-scratch
rm -rf "$scratch" && mkdir -p "$scratch" || exit 1
status=0

# expect_refused PATH SED-ARGS...
expect_refused() {
  path=$1
  shift
  edited=$scratch/manifest.json
  sed "$@" "$golden" >"$edited" || exit 1
  if cmp -s "$golden" "$edited"; then
    echo "FAIL: the edit for $path changed nothing"
    status=1
    return
  fi
  err=$("$gfbench" diff "$golden" "$edited" 2>&1 >/dev/null)
  rc=$?
  case "$rc:$err" in
    "2:error: NEW: $path: "*) ;;
    *)
      echo "FAIL (gfbench diff exit $rc): $path"
      echo "  stderr: $err"
      status=1
      ;;
  esac
  "$json_check" --schema manifest "$edited" 2>/dev/null
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL (json_check exit $rc): $path"
    status=1
  fi
}

expect_refused 'cells[0].iterations[0].counters.faults_injected' \
  -e 's/"faults_injected": 7/"faults_injected": "7"/'
expect_refused 'cells[0].iterations[0].metrics.thr' \
  -e '/"counters"/s/"thr": [0-9.]*/"thr": "fast"/'
expect_refused 'cells[0].iterations[0].counters.mis' \
  -e '/"counters"/s/"mis": 0/"mis": -3.5/'
expect_refused 'cells[0].baseline' -e '/^ "baseline": /d'
expect_refused 'options' -e 's/^"options": .*/"options": "x",/'
expect_refused 'cells[0].derived' \
  -e '/"counters"/s/}],$/}]}/' -e '/^ "derived": /d'

rm -rf "$scratch"
exit $status
