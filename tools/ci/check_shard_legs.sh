#!/bin/sh
# CI gate for determinism invariant 2 (docs/ARCHITECTURE.md): four
# --shard K/4 legs of a bench, run side by side as four hosts would
# and merged by dream_merge, must reproduce the unsharded --out CSV
# byte for byte.
#
# Runs BENCH [BENCH-ARGS...] --jobs 1 --shard K/4 for K = 1..4 into
# MERGED.K, merges the legs into MERGED with the dream_merge next to
# BENCH, and fails unless MERGED equals REF.
#
# Usage: check_shard_legs.sh MERGED REF BENCH [BENCH-ARGS...]
set -eu

merged="$1"
ref="$2"
bench="$3"
shift 3

pids=""
for K in 1 2 3 4; do
    "$bench" "$@" --jobs 1 --shard "$K/4" --out "$merged.$K" > /dev/null &
    pids="$pids $!"
done
failed=false
for pid in $pids; do
    wait "$pid" || failed=true
done
if $failed; then
    echo "check_shard_legs: a --shard K/4 leg of $bench failed" >&2
    exit 1
fi

"$(dirname "$bench")/dream_merge" --out "$merged" \
    "$merged.1" "$merged.2" "$merged.3" "$merged.4"
if ! cmp "$merged" "$ref"; then
    echo "check_shard_legs: the merged --shard K/4 legs of $bench" \
         "differ from $ref" >&2
    exit 1
fi
