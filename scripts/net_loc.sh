#!/usr/bin/env bash
# Net non-test lines of Rust code between a base commit and the working
# tree, per package: the non-blank lines before each file's first
# `#[cfg(test)]`, integration tests (any `tests/` directory) excluded.
# Covers `crates/`, the root package's `src/` and `examples/`, and lists
# the stand-alone `perfbench/` package separately, outside the total.
#
# Usage: scripts/net_loc.sh [BASE]   (BASE defaults to HEAD~1)

set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 1 ]; then
    echo "usage: scripts/net_loc.sh [BASE]" >&2
    exit 2
fi
BASE="${1:-HEAD~1}"
if ! git rev-parse --verify -q "$BASE^{commit}" > /dev/null; then
    echo "not a commit: $BASE" >&2
    exit 2
fi

# Non-blank lines of the Rust source on stdin before its first
# `#[cfg(test)]`.
count() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } NF { n++ } END { print n + 0 }'
}

# The package a file belongs to: a crate's package name, `fare` for the
# root `src/` and `examples/`, or `perfbench`.
package_of() {
    case "$1" in
        crates/*)
            local dir="${1#crates/}"
            dir="crates/${dir%%/*}"
            { cat "$dir/Cargo.toml" 2> /dev/null || git show "$BASE:$dir/Cargo.toml"; } |
                sed -n 's/^name = "\(.*\)"$/\1/p' | head -n 1
            ;;
        perfbench/*) echo perfbench ;;
        *) echo fare ;;
    esac
}

ROOTS=(crates src examples perfbench)
{
    git ls-tree -r --name-only "$BASE" -- "${ROOTS[@]}"
    git ls-files --cached --others --exclude-standard -- "${ROOTS[@]}"
} | grep '\.rs$' | grep -v '/tests/' | sort -u |
    while read -r file; do
        before=0
        if git cat-file -e "$BASE:$file" 2> /dev/null; then
            before="$(git show "$BASE:$file" | count)"
        fi
        after=0
        if [ -f "$file" ]; then
            after="$(count < "$file")"
        fi
        echo "$(package_of "$file") $before $after"
    done |
    awk '{ before[$1] += $2; after[$1] += $3 } END { for (p in before) print p, before[p], after[p] }' |
    sort |
    awk -v base="$BASE" '
        function row(name, b, a, note) { printf "%-16s %8d %8d %+8d%s\n", name, b, a, a - b, note }
        BEGIN {
            printf "net non-test lines, %s -> working tree\n", base
            printf "%-16s %8s %8s %8s\n", "package", "before", "after", "delta"
        }
        $1 == "perfbench" { pb_before = $2; pb_after = $3; pb = 1; next }
        { row($1, $2, $3, ""); total_before += $2; total_after += $3 }
        END {
            row("total", total_before, total_after, "")
            if (pb) row("perfbench", pb_before, pb_after, "  (separate)")
        }'
