#!/usr/bin/env bash
# Every internal/…, cmd/…, scripts/… and examples/… path README.md,
# DESIGN.md and EXPERIMENTS.md cite must resolve in the tree, so a
# deleted or moved package cannot stay documented. A trailing
# `:line`, `/...` or sentence punctuation is not part of the path.
#
#   scripts/docs-check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
missing=0
for doc in README.md DESIGN.md EXPERIMENTS.md; do
	while read -r path; do
		path=${path%%:*}
		path=${path%/...}
		path=${path%/}
		while [[ $path == *[.,\;\)] ]]; do path=${path%?}; done
		if [ ! -e "$path" ]; then
			echo "$doc cites $path, which does not exist" >&2
			missing=1
		fi
	done < <(grep -oE '\b(internal|cmd|scripts|examples)/[A-Za-z0-9_./:-]+' "$doc" | sort -u)
done
if [ "$missing" -ne 0 ]; then
	exit 1
fi
echo "docs-check: every cited path resolves"
