#!/bin/sh
# tests/golden/artifacts.sh - every tool artifact against a committed manifest.
#
# Usage: sh artifacts.sh <golden> <workdir> <relc-gen> <relc-check> \
#            <relc-lint> <relc-codelint> <relc-rulint>
#
# Runs relc-gen three times into fresh directories, each with its own
# -cache-dir: cold at -j 1, cold at -j 4, and warm on the -j 1 cache. The
# -j 4 output, the warm output and the -j 4 cache must equal their -j 1
# counterparts (diff -r). It then runs relc-check over the -j 1 output,
# relc-lint -q, relc-codelint and relc-rulint.
#
# The manifest holds one POSIX cksum line (CRC, size, name) for each file
# of the -j 1 output and cache and for each run's stdout and stderr, then
# one "exit <run> <code>" line per run. It must equal <golden>, whose '#'
# header it copies. A change that alters an artifact on purpose updates
# <golden> in the same diff by copying the fresh manifest named on failure.

set -u
if [ $# -ne 7 ]; then
  echo "usage: $0 <golden> <workdir> <relc-gen> <relc-check>" \
       "<relc-lint> <relc-codelint> <relc-rulint>" >&2
  exit 2
fi
GOLDEN=$1 WORK=$2 GEN=$3 CHECK=$4 LINT=$5 CODELINT=$6 RULINT=$7
LC_ALL=C
export LC_ALL

rm -rf "$WORK" && mkdir -p "$WORK" && cd "$WORK" || exit 2

# run <name> <command...>: <name>.out and <name>.err capture the streams,
# and the exit code is appended to the manifest's tail.
run() {
  name=$1
  shift
  "$@" > "$name.out" 2> "$name.err"
  echo "exit $name $?" >> exits
}

run gen-j1 "$GEN" -out out-j1 -cache-dir cache-j1 -j 1
run gen-j4 "$GEN" -out out-j4 -cache-dir cache-j4 -j 4
run gen-warm "$GEN" -out out-warm -cache-dir cache-j1 -j 1
run check "$CHECK" -certs out-j1
run lint "$LINT" -q
run codelint "$CODELINT"
run rulint "$RULINT"

status=0
for pair in "out-j4 out-j1" "out-warm out-j1" "cache-j4 cache-j1"; do
  set -- $pair
  if ! diff -r "$2" "$1"; then
    echo "artifacts: $1 differs from $2" >&2
    status=1
  fi
done

{
  grep '^#' "$GOLDEN"
  find out-j1 cache-j1 -type f | sort | xargs cksum
  cksum *.out *.err
  cat exits
} > manifest.txt

if ! diff -u "$GOLDEN" manifest.txt; then
  echo "artifacts: the manifest differs from $GOLDEN (lines above)." >&2
  echo "artifacts: if every change is intended, copy $WORK/manifest.txt" \
       "over it." >&2
  status=1
fi
exit $status
