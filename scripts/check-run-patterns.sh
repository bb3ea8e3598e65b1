#!/usr/bin/env bash
# Fails when a `go test -run` or `-bench` pattern in the Makefile or the CI
# workflow selects nothing. `go test -run X` passes when X matches nothing,
# and `-bench X` runs nothing when X names no benchmark, so a renamed or
# deleted test would silently turn a CI step into a no-op; this check lists
# each step's packages with `go test -list` and requires every
# `|`-separated alternative of its pattern to name at least one test (for
# -run) or benchmark (for -bench) there. A bare `.` argument is the root
# package; `-run -` deliberately runs no tests and is skipped.
#
# Run from the repository root: bash scripts/check-run-patterns.sh
set -euo pipefail

go=${GO:-go}
fail=0
while IFS= read -r line; do
	read -r -a words <<<"${line//\'/}"
	pkgs=()
	pats=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		case ${words[i]} in
		-run | -bench)
			flag=${words[i]}
			i=$((i + 1))
			[[ $flag == -run && ${words[i]} == "-" ]] || pats+=("$flag ${words[i]}")
			;;
		. | ./*) pkgs+=("${words[i]}") ;;
		esac
	done
	[[ ${#pats[@]} -eq 0 ]] && continue
	if [[ ${#pkgs[@]} -eq 0 ]]; then
		echo "check-run-patterns: no packages in: $line" >&2
		fail=1
		continue
	fi
	names=$($go test -list . "${pkgs[@]}" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	for fp in "${pats[@]}"; do
		flag=${fp%% *}
		pattern=${fp#* }
		want=$names
		[[ $flag == -bench ]] && want=$(grep -E '^Benchmark' <<<"$names" || true)
		IFS='|' read -r -a alts <<<"${pattern%%/*}"
		for alt in "${alts[@]}"; do
			if ! grep -qE -- "$alt" <<<"$want"; then
				echo "check-run-patterns: $flag '$alt' matches nothing in ${pkgs[*]}" >&2
				fail=1
			fi
		done
	done
done < <(grep -hE '^[^#]*(go|\$\(GO\)) test .*-(run|bench) ' Makefile .github/workflows/ci.yml)
exit $fail
