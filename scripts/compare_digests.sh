#!/usr/bin/env bash
# Compare rtdb_verify's same-seed determinism digests against the committed
# golden values in scripts/golden_digests.txt. Any drift fails: the digests
# are the proof that a refactor was behavior-preserving.
#
# Usage: scripts/compare_digests.sh [path-to-rtdb_verify]
set -u

cd "$(dirname "$0")/.."
VERIFY=${1:-build/tools/rtdb_verify}
# RTDB_TRACE turns telemetry events on and folds them into every digest.
unset RTDB_TRACE RTDB_TRACE_DUMP

if [ ! -x "$VERIFY" ]; then
  echo "compare_digests: $VERIFY not found — build the rtdb_verify target first" >&2
  exit 2
fi

# Every stage runs and prints each line that drifted, so drift in a later
# stage (chaos, server-chaos, scaled) is never hidden behind drift in an
# earlier one; the exit status is 1 when any stage drifted.
drifted=0

# compare <stage> <hint> <golden> <actual>
compare() {
  if [ "$4" != "$3" ]; then
    echo "compare_digests: $1 digest drift detected" >&2
    diff <(printf '%s\n' "$3") <(printf '%s\n' "$4") >&2
    echo "(golden on the left, this build on the right; $2)" >&2
    drifted=1
  else
    echo "compare_digests: all $1 digests match golden"
  fi
}

golden_lines() {  # golden_lines <awk condition on the name field $1>
  grep -v '^#' scripts/golden_digests.txt | awk "NF && ($1) {print \$1, \$2}"
}

# Default-configuration fault-free lines carry no ':' or '@'; chaos lines
# are <prototype>:<schedule>, scaled lines <prototype>@<clients>.
compare prototype \
  "update scripts/golden_digests.txt only for intended behavior changes" \
  "$(golden_lines '$1 !~ /[:@]/')" \
  "$("$VERIFY" | awk '/determinism/ {sub(/^digest=/, "", $4); print $2, $4}')"

chaos_golden=$(golden_lines '$1 ~ /:/ && $1 !~ /:server-/')
if [ -n "$chaos_golden" ]; then
  compare chaos \
    "chaos digests fold the fault/recovery counters — drift means injection or recovery changed" \
    "$chaos_golden" \
    "$("$VERIFY" --chaos | awk '/ chaos /  {sub(/^digest=/, "", $4); print $2, $4}')"
fi

server_golden=$(golden_lines '$1 ~ /:server-/')
if [ -n "$server_golden" ]; then
  compare server-chaos \
    "server-chaos digests cover the crash/epoch-recovery/standby paths" \
    "$server_golden" \
    "$("$VERIFY" --chaos-server | awk '/ chaos /  {sub(/^digest=/, "", $4); print $2, $4}')"
fi

# Scaled lines: the paper's cluster at 5 % updates, where site selection
# ships and decomposes transactions (the default 16-client run barely does).
scaled_golden=$(golden_lines '$1 ~ /@/')
if [ -n "$scaled_golden" ]; then
  scaled_actual=$(while read -r name _; do
    case ${name%@*} in
      CE-RTDBS) system=ce ;;
      CS-RTDBS) system=cs ;;
      LS-CS-RTDBS) system=ls ;;
      OCC-CS-RTDBS) system=occ ;;
      *) echo "compare_digests: unknown prototype in $name" >&2; exit 2 ;;
    esac
    "$VERIFY" --system "$system" --clients "${name#*@}" --updates 5 \
              --duration 600 --warmup 100 --mode determinism |
      awk -v name="$name" '/determinism/ {sub(/^digest=/, "", $4); print name, $4}'
  done <<< "$scaled_golden")
  compare scaled \
    "scaled digests cover H1/H2 shipping and decomposition at 100 clients" \
    "$scaled_golden" "$scaled_actual"
fi

exit $drifted
