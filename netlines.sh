#!/bin/sh
# netlines.sh BASE: print the lines of non-test Go added, removed and
# net between commit BASE and the working tree, over internal/, cmd/,
# examples/ and polis.go. Untracked files count as added.
#
#   ./netlines.sh HEAD~1
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 <base>" >&2
    exit 2
fi
cd "$(dirname "$0")"
{
    git diff --numstat "$1" -- internal cmd examples polis.go
    git ls-files --others --exclude-standard -- internal cmd examples polis.go |
        while read -r f; do printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"; done
} | awk -F'\t' '
    $3 ~ /\.go$/ && $3 !~ /_test\.go$/ && $1 != "-" { add += $1; del += $2 }
    END { printf "added %d, removed %d, net %+d\n", add, del, add - del }'
