#!/usr/bin/env bash
# The simplicity figure CHANGES.md quotes for every PR: Go source lines
# outside bench/ (the frozen benchmark harness) and .bench_build/ (its
# build output), non-test and test separately. Plain `wc -l` lines —
# blank lines and comments count. The non-test figure has a ceiling
# (ROADMAP item 7); above it the script fails.
#
#   scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."
count() {
	find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' "$@" -print0 |
		xargs -0 cat | wc -l
}
ceiling=18582
nontest=$(count -not -name '*_test.go')
printf 'non-test Go lines outside bench/: %d (ceiling %d)\n' "$nontest" "$ceiling"
printf 'test Go lines outside bench/:     %d\n' "$(count -name '*_test.go')"
if [ "$nontest" -gt "$ceiling" ]; then
	echo "loc: $((nontest - ceiling)) non-test lines over the ceiling" >&2
	exit 1
fi
