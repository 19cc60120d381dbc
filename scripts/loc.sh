#!/bin/sh
# loc: non-blank, non-comment ("//") Go line counts in three groups —
# the numbers ROADMAP tracks for "the same numbers from less code":
#
#   non-test   every non-test .go file outside perfbench/
#   test       every _test.go file outside perfbench/
#   frontends  non-test .go files in cmd/ and internal/exp
#
# Informational only: `make loc` prints the counts and never fails.
set -eu
cd "$(dirname "$0")/.."

count() {
    # Reads file names on stdin; prints the summed code-line count. Each
    # file is read on its own, so a missing final newline cannot fuse
    # two files' lines.
    xargs awk '{ sub(/^[ \t]+/, "") } $0 != "" && substr($0, 1, 2) != "//" { n++ } END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }'
}

nontest=$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | count)
tests=$(find . -name '*_test.go' ! -path './perfbench/*' | count)
front=$(find ./cmd ./internal/exp -name '*.go' ! -name '*_test.go' | count)

printf '%-10s %6d  non-test Go outside perfbench/\n' non-test "$nontest"
printf '%-10s %6d  test Go outside perfbench/\n' test "$tests"
printf '%-10s %6d  non-test Go in cmd/ + internal/exp\n' frontends "$front"
