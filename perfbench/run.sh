#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it from the
# repository root; every argument passes through (see main.go for them).
# The Go build cache stays inside .bench_build and no module is fetched;
# the result files record the git revision when the tree is a git checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
