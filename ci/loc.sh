#!/bin/sh
# Prints the formatted non-test lines of Rust code under each DIR.
#
#   ci/loc.sh DIR...
#
# A file's non-test lines are every line before its first line that
# starts with `#[cfg(test)]` or `#[cfg(all(test` (the test module sits
# at the end of a file by this workspace's convention). Blank and
# comment lines count: run it on rustfmt-formatted code, so that the
# figures compare across changes. The last line is the total.
set -eu
if [ "$#" -eq 0 ]; then
    echo "usage: ci/loc.sh DIR..." >&2
    exit 2
fi
total=0
for dir in "$@"; do
    n=$(find "$dir" -name '*.rs' -type f -exec awk '
        /^#\[cfg\(test\)\]/ || /^#\[cfg\(all\(test/ { nextfile }
        { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%8d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%8d  total\n' "$total"
