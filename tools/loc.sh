#!/bin/sh
# Counts the repository's Rust lines, split into non-test and test code.
#
# A line is test code when its file sits under a `tests/` directory, when
# its file is declared `#[cfg(test)] mod x;`, or when it comes at or after
# the first top-level `#[cfg(test)] mod x {` of its file. Every other line,
# nvbench and the examples included, is non-test. The last figure counts
# the non-test lines that are neither blank nor `//` comments.
#
# Usage: tools/loc.sh [DIR]   (DIR defaults to the repository root)
set -eu
cd "${1:-$(dirname "$0")/..}"
files=$(find . -name target -prune -o -name '*.rs' -print | sort)
# shellcheck disable=SC2086 # one operand per file
awk '
function dir(path) { sub(/\/[^\/]*$/, "", path); return path }
FNR == 1 { cfg = 0; test = (pass == 2) && (FILENAME ~ /\/tests\// || FILENAME in test_file) }
# Pass 1 finds the files declared `#[cfg(test)] mod x;`.
pass == 1 {
    if (cfg && match($0, /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/)) {
        name = $0; sub(/^[ \t]*(pub(\([a-z]+\))? )?mod /, "", name); sub(/;.*/, "", name)
        stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
        base = (stem == "lib" || stem == "main" || stem == "mod") ? dir(FILENAME) : dir(FILENAME) "/" stem
        test_file[base "/" name ".rs"] = 1
    }
    cfg = ($0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/)
    next
}
# Pass 2 counts, moving a file to test at its first top-level test module.
{
    if (!test && cfg && $0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/) {
        test = 1; nontest--; code--; tests++
    }
    if (!test && $0 ~ /^#\[cfg\(test\)\] *(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/) test = 1
    cfg = ($0 ~ /^#\[cfg\(test\)\][ \t]*$/)
    if (test) { tests++; next }
    nontest++
    if ($0 !~ /^[ \t]*$/ && $0 !~ /^[ \t]*\/\//) code++
}
END {
    printf "non-test Rust lines:              %6d\n", nontest
    printf "test Rust lines:                  %6d\n", tests
    printf "non-test, no blank or // comment: %6d\n", code
}' pass=1 $files pass=2 $files
