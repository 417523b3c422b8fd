#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper_grid --seed 1 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary) goes
# to .bench_build/ at the repository root, so nothing is read or written
# outside the checkout. The build fails, and so does this script, when
# perfbench/ is not inside a checkout of the simulator's source.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The host fingerprint names the code measured: the commit when the
# checkout is a git work tree, and always a digest of the Go sources.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
srcsum=$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
(cd "$root/perfbench" && go build -ldflags "-X main.commit=$commit -X main.sourceSum=$srcsum" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
