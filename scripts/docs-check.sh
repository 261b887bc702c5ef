#!/usr/bin/env bash
# Every internal/…, cmd/…, scripts/… and examples/… path README.md,
# DESIGN.md, EXPERIMENTS.md and ROADMAP.md cite must resolve in the
# tree, so a deleted or moved package cannot stay documented. A trailing
# `:line`, `/...` or sentence punctuation is not part of the path.
#
# Likewise every backticked `pkg.Identifier` or `pkg.Type.Member` whose
# pkg is a directory under internal/ and whose Identifier is exported
# must name something that package declares (test files included), so a
# renamed or deleted function, type, field or option cannot stay
# documented either. The lookup is a
# grep for a declaration of that name, not a type check; prose that only
# looks like a qualified name (`stats.Instructions` for a field of
# vm.Stats) goes in scripts/docs-check.allow, one `pkg.Name` per line —
# as does a path or name ROADMAP.md records as deleted.
#
# And every `file.go:N` or `file.go:N–M` must fit the file: a cited line
# past its end means the code moved and the citation did not. A bare
# file name is looked up by name anywhere in the tree.
#
#   scripts/docs-check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
missing=0
docs="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md"
allowed() { grep -qsxF -e "$1" scripts/docs-check.allow; }
for doc in $docs; do
	while read -r path; do
		path=${path%%:*}
		path=${path%/...}
		path=${path%/}
		while [[ $path == *[.,\;\)] ]]; do path=${path%?}; done
		if [ ! -e "$path" ] && ! allowed "$path"; then
			echo "$doc cites $path, which does not exist" >&2
			missing=1
		fi
	done < <(grep -oE '\b(internal|cmd|scripts|examples)/[A-Za-z0-9_./:-]+' "$doc" | sort -u)
done

# declares DIR NAME: some Go file in DIR declares NAME at top level, as
# a method, or as a member of a block (struct field, interface method,
# grouped const or var).
declares() {
	grep -qsE "^(func|type|var|const) $2\\b|^func \\([^)]*\\) $2\\(|^[[:space:]]+$2\\b" "$1"/*.go
}

for doc in $docs; do
	while IFS=. read -r pkg name member; do
		[ -d "internal/$pkg" ] || continue
		if allowed "$pkg.$name" || allowed "$pkg.$name.$member"; then
			continue
		fi
		if ! declares "internal/$pkg" "$name"; then
			echo "$doc cites $pkg.$name, which internal/$pkg does not declare" >&2
			missing=1
		elif [ -n "$member" ] && ! declares "internal/$pkg" "$member"; then
			echo "$doc cites $pkg.$name.$member, and internal/$pkg declares no $member" >&2
			missing=1
		fi
	done < <(grep -oE '`[^`]+`' "$doc" |
		grep -oE '\b[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?' | sort -u)
done

for doc in $docs; do
	while IFS=: read -r file lines; do
		last=${lines##*[!0-9]}
		candidates=$file
		if [[ $file != */* ]]; then
			candidates=$(find . -name "$file" -not -path './.bench_build/*' -not -path './.git/*')
		fi
		longest=0
		for found in $candidates; do
			if [ -f "$found" ] && [ "$(wc -l <"$found")" -gt "$longest" ]; then
				longest=$(wc -l <"$found")
			fi
		done
		if [ "$longest" -eq 0 ]; then
			echo "$doc cites $file:$lines, and there is no $file" >&2
			missing=1
		elif [ "$last" -gt "$longest" ]; then
			echo "$doc cites $file:$lines, but $file ends at line $longest" >&2
			missing=1
		fi
	done < <(grep -oE '[A-Za-z0-9_./-]+\.(go|sh):[0-9]+((–|-)[0-9]+)?' "$doc" | sort -u)
done
if [ "$missing" -ne 0 ]; then
	exit 1
fi
echo "docs-check: every cited path resolves, every cited identifier is declared, every cited line exists"
