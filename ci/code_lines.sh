#!/usr/bin/env bash
# Count the non-test lines of Rust under crates/.
#
# A file's lines count up to its first `#[cfg(test)]` at the start of a
# line (its unit-test module, by convention the file's tail); blank
# lines and `//` lines (comments and doc comments) are left out. Prints
# one line per crate, then the total. With --files it first prints one
# line per file.
#
# Usage: ci/code_lines.sh [--files]
set -euo pipefail
cd "$(dirname "$0")/.."

per_file() {
    find crates -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n[FILENAME]++ }
        END { for (f in n) print n[f], f }
    ' | sort -k2
}

counts=$(per_file)
if [[ "${1:-}" == "--files" ]]; then
    echo "$counts"
fi
echo "$counts" | awk '
    { split($2, p, "/"); c[p[2]] += $1; total += $1 }
    END {
        for (k in c) printf "%-10s %6d\n", k, c[k] | "sort"
        close("sort")
        printf "%-10s %6d\n", "total", total
    }
'
