#!/usr/bin/env bash
# Non-test Rust lines per crate: every `.rs` file of the crate outside
# `tests/`, `benches/`, `vendor/` and `target/`, counted up to its trailing
# `#[cfg(test)]` module (a line that is exactly `#[cfg(test)]`; a mention
# inside a comment does not cut). Blank and comment lines count. No gate:
# the output is the number a "net lines removed" claim is checked against.
#
#   scripts/loc.sh            # counts the checkout the script lives in
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' \
        -not -path '*/tests/*' -not -path '*/benches/*' \
        -not -path '*/vendor/*' -not -path '*/target/*' -print0 |
        sort -z |
        xargs -0 -r awk '
            FNR == 1 { cut = 0 }
            /^#\[cfg\(test\)\]$/ { cut = 1 }
            !cut { n++ }
            END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }'
}

total=0
printf '%-16s %8s\n' crate lines
for dir in crates/*/ src/ benchmark/src/; do
    [ -d "$dir" ] || continue
    case "$dir" in
        src/) name=sasgd ;;
        benchmark/src/) name=benchmark ;;
        *) name=$(basename "$dir") ;;
    esac
    n=$(count "$dir")
    total=$((total + n))
    printf '%-16s %8d\n' "$name" "$n"
done
printf '%-16s %8d\n' total "$total"
