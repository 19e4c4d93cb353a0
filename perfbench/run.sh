#!/bin/sh
# Build the benchmark from the checkout's sources, then run it with the
# given arguments:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from anywhere inside a full checkout; the build lands in _build/.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a full checkout (no dune-project or lib/ next to perfbench/)" >&2
  exit 2
fi
dune build --root . --cache=disabled ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
