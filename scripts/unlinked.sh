#!/usr/bin/env bash
# Fails when a declared function is linked by no binary and is not named in
# scripts/unlinked.allow:
#
#	scripts/unlinked.sh
#
# It builds every main package under cmd/ and examples/, and the bench
# module's binary, with inlining off (-gcflags=all=-l) so that every function
# a binary reaches keeps its own symbol. It reads the symbols with
# `go tool nm`, lists the main module's non-test functions and methods with
# go/parser (scripts/unlinked.go), and compares the two. Code only the bench
# module reaches (Server.Close, cirank.LoadEngine, ...) counts as linked.
#
# Each allowlist line is a function key (or a `pkg.*` prefix) and a reason;
# an entry that matches no unlinked function fails the check too, so the list
# shrinks when its code goes.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...)
: >"$tmp/symbols"
n=0
for pkg in $mains; do
	n=$((n + 1))
	go build -gcflags=all=-l -o "$tmp/bin$n" "$pkg"
	# A main package's symbols are named main.*; key them by import path.
	go tool nm "$tmp/bin$n" | sed -E 's/^ *[0-9a-f]* [A-Za-z] //' |
		sed -E "s#^main\\.#$pkg.#" >>"$tmp/symbols"
done
(cd bench && go build -gcflags=all=-l -o "$tmp/bench" .)
n=$((n + 1))
go tool nm "$tmp/bench" | sed -E 's/^ *[0-9a-f]* [A-Za-z] //' >>"$tmp/symbols"

# One line per package of the main module: import path, then its non-test
# Go files under the current build constraints.
go list -f '{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}' ./... >"$tmp/packages"

go run scripts/unlinked.go -binaries "$n" -allow scripts/unlinked.allow \
	-symbols "$tmp/symbols" -packages "$tmp/packages"
