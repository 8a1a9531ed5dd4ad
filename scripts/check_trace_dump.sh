#!/usr/bin/env bash
# RTDB_TRACE_DUMP gate: a server-chaos proof run with RTDB_TRACE=lock,fault
# must append its typed events of exactly those categories as JSONL — the
# server crash at site 0 (fault), lock grants (lock) and no commits (txn).
#
# Usage: scripts/check_trace_dump.sh <path-to-rtdb_verify> <dump-file>
set -u

VERIFY=$1
DUMP=$2

rm -f "$DUMP"  # the dump appends
if ! RTDB_TRACE=lock,fault RTDB_TRACE_DUMP="$DUMP" \
     "$VERIFY" --system cs --chaos-server >/dev/null; then
  echo "check_trace_dump: rtdb_verify failed" >&2
  exit 1
fi

status=0
expect() {  # expect <yes|no> <pattern> <what>
  if grep -q "$2" "$DUMP"; then found=yes; else found=no; fi
  if [ "$found" != "$1" ]; then
    echo "check_trace_dump: $3 (pattern $2, found=$found)" >&2
    status=1
  fi
}
expect yes '"kind":"site_crash","site":0,' 'no server crash line'
expect yes '"kind":"lock_grant"' 'no lock grant line'
expect no '"kind":"txn_commit"' 'txn events leaked past the lock,fault filter'
if [ "$status" -eq 0 ]; then
  echo "check_trace_dump: $DUMP holds lock and fault events only"
fi
exit "$status"
