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

# Default-configuration fault-free lines carry no ':' or '@'; chaos lines
# are <prototype>:<schedule>, scaled lines <prototype>@<clients>.
actual=$("$VERIFY" | awk '/determinism/ {sub(/^digest=/, "", $4); print $2, $4}')
golden=$(grep -v '^#' scripts/golden_digests.txt | awk 'NF && $1 !~ /[:@]/ {print $1, $2}')

if [ "$actual" != "$golden" ]; then
  echo "compare_digests: determinism digest drift detected" >&2
  diff <(printf '%s\n' "$golden") <(printf '%s\n' "$actual") >&2
  echo "(golden on the left, this build on the right;" \
       "update scripts/golden_digests.txt only for intended behavior changes)" >&2
  exit 1
fi
echo "compare_digests: all prototype digests match golden"

chaos_golden=$(grep -v '^#' scripts/golden_digests.txt | awk 'NF && $1 ~ /:/ && $1 !~ /:server-/ {print $1, $2}')
if [ -n "$chaos_golden" ]; then
  chaos_actual=$("$VERIFY" --chaos | awk '/ chaos /  {sub(/^digest=/, "", $4); print $2, $4}')
  if [ "$chaos_actual" != "$chaos_golden" ]; then
    echo "compare_digests: chaos digest drift detected" >&2
    diff <(printf '%s\n' "$chaos_golden") <(printf '%s\n' "$chaos_actual") >&2
    echo "(golden on the left, this build on the right; chaos digests fold the" \
         "fault/recovery counters — drift means injection or recovery changed)" >&2
    exit 1
  fi
  echo "compare_digests: all chaos digests match golden"
fi

server_golden=$(grep -v '^#' scripts/golden_digests.txt | awk 'NF && $1 ~ /:server-/ {print $1, $2}')
if [ -n "$server_golden" ]; then
  server_actual=$("$VERIFY" --chaos-server | awk '/ chaos /  {sub(/^digest=/, "", $4); print $2, $4}')
  if [ "$server_actual" != "$server_golden" ]; then
    echo "compare_digests: server-chaos digest drift detected" >&2
    diff <(printf '%s\n' "$server_golden") <(printf '%s\n' "$server_actual") >&2
    echo "(golden on the left, this build on the right; server-chaos digests" \
         "cover the crash/epoch-recovery/standby paths)" >&2
    exit 1
  fi
  echo "compare_digests: all server-chaos digests match golden"
fi

# Scaled lines: the paper's cluster at 5 % updates, where site selection
# ships and decomposes transactions (the default 16-client run barely does).
scaled_golden=$(grep -v '^#' scripts/golden_digests.txt | awk 'NF && $1 ~ /@/ {print $1, $2}')
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
  if [ "$scaled_actual" != "$scaled_golden" ]; then
    echo "compare_digests: scaled digest drift detected" >&2
    diff <(printf '%s\n' "$scaled_golden") <(printf '%s\n' "$scaled_actual") >&2
    echo "(golden on the left, this build on the right; scaled digests cover" \
         "H1/H2 shipping and decomposition at 100 clients)" >&2
    exit 1
  fi
  echo "compare_digests: all scaled digests match golden"
fi
