#!/bin/sh
# Size report every simplicity PR quotes: the lines of each file before
# its first `#[cfg(test)]` (comments and blanks included — one rule,
# computed one way), summed per crate over crates/*/src and src, or
# listed per file when files are given. Informational; never fails.
cd "$(dirname "$0")/.." || exit 0
by_file=$#
[ $# -gt 0 ] || set -- $(find crates/*/src src -name '*.rs' | sort)
awk -v by_file="$by_file" '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { key = FILENAME
               if (!by_file) { sub(/\/src\/.*/, "", key); sub(/^src\/.*/, "src (facade)", key) }
               n[key]++; total++ }
    END { for (k in n) printf "%7d  %s\n", n[k], k | "sort -k2"; close("sort -k2")
          printf "%7d  total\n", total }
' "$@"
