#!/bin/sh
# Lint entry point, shared by `make lint` and CI.
#
# Always runs:
#   gofmt -l      — every Go file outside testdata must be gofmt-clean
#   go vet        — the standard vet checks
#   pcmaplint     — the project's custom analyzers (determinism, unit
#                   safety, metrics lifecycle, typed errors, float
#                   comparisons, lock discipline, goroutine lifecycle,
#                   wall-clock bans, channel ownership); see DESIGN.md
#                   "Simulator invariants" and "Concurrency invariants"
#
# Runs when installed (CI installs pinned versions; locally they are
# optional because this repository builds offline with no dependencies
# beyond the Go toolchain):
#   staticcheck
#   govulncheck
#
# Every tool runs even when an earlier one fails, so one invocation
# reports everything; the exit code is non-zero if any tool failed.
set -u

cd "$(dirname "$0")/.."

failed=''
run() {
	name=$1
	shift
	echo ">> $name"
	if ! "$@"; then
		failed="$failed $name"
	fi
}

# gofmt -l prints the files that need formatting and exits 0 either
# way, so the check fails on non-empty output. testdata holds analyzer
# fixtures kept exactly as written; .bench_build holds build caches.
gofmt_check() {
	unformatted=$(find . \( -path ./.git -o -path ./.bench_build -o -name testdata \) -prune \
		-o -name '*.go' -print | xargs gofmt -l)
	if [ -n "$unformatted" ]; then
		echo "not gofmt-clean (run gofmt -w):"
		echo "$unformatted"
		return 1
	fi
}
run 'gofmt' gofmt_check

run 'go vet' go vet ./...

# pcmaplint runs go vet itself by default; -vet=false avoids doing it
# twice. -summary prints the per-analyzer finding counts.
run 'pcmaplint' go run ./cmd/pcmaplint -vet=false -summary ./...

if command -v staticcheck >/dev/null 2>&1; then
	run 'staticcheck' staticcheck ./...
else
	echo '>> staticcheck not installed; skipping (CI runs it)'
fi

if command -v govulncheck >/dev/null 2>&1; then
	run 'govulncheck' govulncheck ./...
else
	echo '>> govulncheck not installed; skipping (CI runs it)'
fi

if [ -n "$failed" ]; then
	echo "lint FAILED:$failed"
	exit 1
fi
echo 'lint OK'
