#!/bin/sh
# Build the end-to-end benchmark if needed and run it from the repository
# root; every argument goes to e2e.exe (see README.md).
cd "$(dirname "$0")/.." || exit 1
exec dune exec --root . --display quiet -- ./bench_e2e/e2e.exe "$@"
