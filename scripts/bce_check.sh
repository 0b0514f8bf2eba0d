#!/usr/bin/env bash
# bce_check.sh — fail if a bounds check comes back inside a marked hot loop.
#
# The row kernels of internal/stencil (rowJacobi, rowGeneric, row9) and the
# four-wide halo copy loops of internal/grid (Tile.PackBytes, UnpackBytes)
# mark their loop with a "// bce: <name>" comment on its `for` line. This
# script builds each package with the compiler's bounds-check report
# (-d=ssa/check_bce/debug=1) and fails if the compiler reports an
# IsInBounds or IsSliceInBounds between a marked `for` and its closing brace,
# or if one of the markers is missing. Checks outside those loops (the
# once-per-row slicing) are expected and ignored. Run from anywhere:
#
#	bash scripts/bce_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# check <package dir> <marker names...>
check() {
	local dir=$1
	shift
	local want="$*"
	local srcs ranges report hits name
	srcs=$(ls "$dir"/*.go | grep -v '_test\.go$')

	# One "file start end name" line per marked loop: the loop ends at the
	# first line holding only a closing brace at the `for` line's indentation.
	ranges=$(awk '
		FNR == 1 { start = 0 }
		/^[[:space:]]*for .*\/\/ bce: / {
			match($0, /^[[:space:]]*/)
			indent = substr($0, 1, RLENGTH)
			start = FNR
			name = $NF
			next
		}
		start && $0 == indent "}" { print FILENAME, start, FNR, name; start = 0 }
	' $srcs)

	for name in $want; do
		if ! awk -v n="$name" '$4 == n { found = 1 } END { exit !found }' <<<"$ranges"; then
			echo "bce_check: no loop marked \"// bce: $name\" in $dir" >&2
			fail=1
		fi
	done

	if ! report=$(go build -gcflags="castencil/$dir=-d=ssa/check_bce/debug=1" "./$dir" 2>&1); then
		echo "bce_check: build of $dir failed:" >&2
		echo "$report" >&2
		exit 1
	fi

	# Report lines read "internal/stencil/kernel.go:85:26: Found IsInBounds".
	hits=$(awk -v ranges="$ranges" '
		BEGIN {
			n = split(ranges, lines, "\n")
			for (i = 1; i <= n; i++) {
				split(lines[i], f, " ")
				file[i] = f[1]; lo[i] = f[2]; hi[i] = f[3]; name[i] = f[4]
			}
		}
		/: Found Is(Slice)?InBounds$/ {
			split($1, loc, ":")
			for (i = 1; i <= n; i++) {
				if (loc[1] == file[i] && loc[2] + 0 >= lo[i] + 0 && loc[2] + 0 < hi[i] + 0) {
					print name[i] ": " $0
				}
			}
		}
	' <<<"$report")

	if [ -n "$hits" ]; then
		echo "bce_check: bounds checks inside marked loops of $dir:" >&2
		echo "$hits" >&2
		fail=1
	else
		echo "bce_check: no bounds check inside the loops of $want"
	fi
}

check internal/stencil rowJacobi rowGeneric row9
check internal/grid packBytes unpackBytes

if [ "$fail" -ne 0 ]; then
	exit 1
fi
