#!/bin/sh
# Doc-drift lint: every user-facing --flag must be documented, and
# every documented --flag must exist.
#
# Sources of truth are the flag tables themselves (src/util/flags.h):
# the shared bench flags (bench/bench_main.h), each bench's extra
# flags (bench/*.cc) and each tools/*.cc binary. A flag string literal
# that appears in a table but in none of that surface's READMEs fails
# the check — so adding a flag without documenting it breaks CI, and
# the docs cannot silently rot as the CLIs grow. The other direction
# catches a removed flag: a --flag that tools/README.md or
# src/engine/README.md mentions must be a literal of one of those
# tables, or an add_argument flag of perfbench/run.py, tools/*.py or
# tools/ci/*.py.
#
# Mapping:
#   bench/bench_main.h, bench/*.cc
#                       -> src/engine/README.md or tools/README.md
#                          (the two docs that describe the shared
#                          bench protocol)
#   tools/dream_X.cc    -> tools/README.md
#
# --help/-h are exempt (self-documenting), and so are cmake's --build
# and the prose placeholder --flag in the READMEs.
#
# Usage: check_docs.sh [REPO_ROOT]
set -eu

root="${1:-.}"
cd "$root"

fail=0

# Print the unique --flag literals appearing in a source file.
flags_of() {
    grep -oE '"--[a-z0-9][a-z0-9-]*"' "$1" | tr -d '"' | sort -u
}

check() {
    src="$1"
    shift # remaining args: the README(s) allowed to document it
    for flag in $(flags_of "$src"); do
        [ "$flag" = "--help" ] && continue
        ok=0
        for doc in "$@"; do
            if grep -qF -- "$flag" "$doc"; then
                ok=1
                break
            fi
        done
        if [ "$ok" -eq 0 ]; then
            echo "check_docs: $src accepts '$flag' but none of" \
                 "[$*] documents it" >&2
            fail=1
        fi
    done
}

for src in bench/bench_main.h bench/*.cc; do
    check "$src" src/engine/README.md tools/README.md
done

for src in tools/*.cc; do
    check "$src" tools/README.md
done

accepted="$(
    for src in bench/bench_main.h bench/*.cc tools/*.cc; do
        flags_of "$src"
    done
    grep -hoE 'add_argument\("--[a-z0-9][a-z0-9-]*"' \
        perfbench/run.py tools/*.py tools/ci/*.py |
        grep -oE -- '--[a-z0-9-]+'
)"
for doc in tools/README.md src/engine/README.md; do
    for flag in $(grep -oE -- '--[a-z0-9][a-z0-9-]*' "$doc" | sort -u); do
        case "$flag" in --help | --build | --flag) continue ;; esac
        if ! printf '%s\n' "$accepted" | grep -qxF -- "$flag"; then
            echo "check_docs: $doc documents '$flag' but no flag" \
                 "table accepts it" >&2
            fail=1
        fi
    done
done

# The documentation front door must exist and link every
# per-directory README (acceptance criterion of the docs PR).
for doc in README.md docs/ARCHITECTURE.md; do
    if [ ! -f "$doc" ]; then
        echo "check_docs: $doc is missing" >&2
        fail=1
        continue
    fi
    for sub in src/engine/README.md src/obs/README.md \
               tools/README.md scenarios/README.md; do
        if ! grep -qF -- "$sub" "$doc"; then
            echo "check_docs: $doc does not link $sub" >&2
            fail=1
        fi
    done
done

# The perf record is perfbench/, and both front doors must say so.
for doc in README.md tools/README.md; do
    if ! grep -qF -- "perfbench/README.md" "$doc"; then
        echo "check_docs: $doc does not link perfbench/README.md" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "check_docs: documentation drift detected" >&2
    exit 1
fi
echo "check_docs: OK"
