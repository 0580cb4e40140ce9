#!/bin/sh
# require_tests.sh PKG PATTERN — fail unless every '|'-separated
# alternative of the `go test -run` PATTERN lists at least one test,
# fuzz target or benchmark in PKG (`go test -list`). A smoke lane whose
# pattern went stale — its tests renamed, folded or moved to another
# package — would otherwise match nothing and pass. Every Makefile lane
# that filters with -run calls this first. PATTERN must not group
# alternatives in parentheses: the split is on every '|'.
set -euf
pkg=$1
pattern=$2
GO=${GO:-go}

status=0
IFS='|'
for alt in $pattern; do
    if ! "$GO" test -list "$alt" "$pkg" | grep -qE '^(Test|Fuzz|Benchmark|Example)'; then
        echo "require-tests: -run alternative '$alt' lists no test in $pkg" >&2
        status=1
    fi
done
exit $status
