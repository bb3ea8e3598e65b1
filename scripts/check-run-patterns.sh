#!/usr/bin/env bash
# Fails when a `go test -run` pattern in the Makefile or the CI workflow
# selects no test. `go test -run X` passes when X matches nothing, so a
# renamed or deleted test would silently turn a CI step into a no-op; this
# check lists each step's packages with `go test -list` and requires every
# `|`-separated alternative of its pattern to name at least one test there.
#
# Run from the repository root: bash scripts/check-run-patterns.sh
set -euo pipefail

go=${GO:-go}
fail=0
while IFS= read -r line; do
	rest=${line#*-run }
	if [[ $rest == \'* ]]; then
		rest=${rest#\'}
		pattern=${rest%%\'*}
	else
		pattern=${rest%% *}
	fi
	[[ $pattern == "-" ]] && continue # "-run -" deliberately runs no tests
	read -r -a pkgs <<<"$(grep -oE '\./[^ ]*' <<<"$line" | tr '\n' ' ')"
	if [[ ${#pkgs[@]} -eq 0 ]]; then
		echo "check-run-patterns: no packages in: $line" >&2
		fail=1
		continue
	fi
	names=$($go test -list . "${pkgs[@]}" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	IFS='|' read -r -a alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "check-run-patterns: -run '$alt' matches no test in ${pkgs[*]}" >&2
			fail=1
		fi
	done
done < <(grep -hE '^[^#]*(go|\$\(GO\)) test .*-run ' Makefile .github/workflows/ci.yml)
exit $fail
