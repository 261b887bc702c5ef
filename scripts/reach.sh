#!/usr/bin/env bash
# Every internal/ package must be on a path from a command, the
# benchmark harness or an example: `go list ./internal/...` minus the
# dependency closure of ./cmd/... ./bench/... ./examples/... must be
# empty. A package only its own tests (or other unreachable packages)
# import is printed and fails the check — wire it in or delete it.
#
#   scripts/reach.sh
set -euo pipefail

cd "$(dirname "$0")/.."
unreachable=$(comm -23 \
	<(go list ./internal/... | sort) \
	<(go list -deps ./cmd/... ./bench/... ./examples/... | sort))
if [ -n "$unreachable" ]; then
	echo "internal packages no command, bench/ or example reaches:" >&2
	echo "$unreachable" >&2
	exit 1
fi
echo "reach: every internal/ package is reachable from cmd/, bench/ or examples/"
