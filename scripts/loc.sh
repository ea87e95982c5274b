#!/usr/bin/env bash
# Non-test line counts, per crate and in total.
#
# Every crates/*/src/**.rs is counted up to the line before its first
# `#[cfg(test)]` line whose very next line opens a `mod`; a file with no
# such pair counts whole. (A test module behind an `#[allow]` line after
# the `#[cfg(test)]` is therefore counted.)
#
#   scripts/loc.sh            per-crate lines, then `total <n>`
#   scripts/loc.sh FILE...    the same count for each file named, then the total
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s globstar nullglob

if [ $# -eq 0 ]; then
    set -- crates/*/src/**/*.rs
fi

awk '
    FNR == 1 { cut = 0; pending = 0 }
    cut { next }
    pending {
        pending = 0
        if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) {
            cut = 1
            n[FILENAME]--
            next
        }
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1 }
    { n[FILENAME]++ }
    END {
        for (f in n) {
            split(f, part, "/")
            key = (part[1] == "crates") ? part[2] : f
            by[key] += n[f]
            total += n[f]
        }
        m = 0
        for (k in by) {
            for (i = ++m; i > 1 && name[i - 1] > k; i--) name[i] = name[i - 1]
            name[i] = k
        }
        for (i = 1; i <= m; i++) printf "%-12s %6d\n", name[i], by[name[i]]
        printf "%-12s %6d\n", "total", total
    }
' "$@"
