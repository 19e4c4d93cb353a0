#!/bin/sh
# CLI contract check: rn_cli answers bad input with a usage exit code and
# a diagnostic, never an uncaught exception (cmdliner's "internal error",
# exit 125).  Exit codes: 0 ok, 1 check failed, 2 usage; 124 is
# cmdliner's own code for an unknown option.
#
#   sh test/cli_contract.sh PATH/TO/rn_cli.exe
#
# `dune runtest` runs it on the freshly built binary.

set -u

cli=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=0

fail() {
  echo "cli_contract: FAIL: $*" >&2
  sed 's/^/  stderr: /' "$tmp/err" >&2
  failed=1
}

expect() { # expect CODE ARGS... : run rn_cli ARGS, want exit CODE
  want=$1; shift
  "$cli" "$@" > "$tmp/out" 2> "$tmp/err"
  got=$?
  [ "$got" -eq "$want" ] || fail "rn_cli $* exited $got, want $want"
  if grep -q "internal error" "$tmp/err"; then fail "rn_cli $* raised"; fi
}

# Every id is resolved before any cell runs.
expect 2 experiment NOPE --no-cache
expect 2 experiment E5 NOPE --no-cache
[ -s "$tmp/out" ] && fail "experiment E5 NOPE ran E5 before rejecting NOPE"

# A one-size sweep cannot fit an exponent, and says so.
expect 0 scale --sizes 1024
grep -q "fit needs ≥ 2 sizes" "$tmp/out" || fail "scale --sizes 1024 has no fit note"

# A malformed trace gets one line naming the file.
printf 'not an event\n' > "$tmp/bad.jsonl"
expect 2 trace inspect "$tmp/bad.jsonl"
[ "$(wc -l < "$tmp/err")" -eq 1 ] && grep -q "bad.jsonl" "$tmp/err" \
  || fail "trace inspect: want one stderr line naming the file"

# World sizes too small to build are rejected while parsing (cmdliner
# reports a bad option value with its usage code, 124), on every
# subcommand that builds a world.
for sub in mis ccds broadcast repair "trace run"; do
  for bad in "-n 0" "-n 1" "--degree 0"; do
    # shellcheck disable=SC2086 # word splitting is the point
    expect 124 $sub $bad
  done
done

# An output directory that cannot be created gets one line naming it.
expect 2 figures --out "$tmp/missing/parent/dir"
[ "$(wc -l < "$tmp/err")" -eq 1 ] && grep -q "missing/parent/dir" "$tmp/err" \
  || fail "figures --out: want one stderr line naming the directory"

# An unknown experiment is a usage error here too.
expect 2 trace cell NOPE 'n=1'

# Removed switches are ordinary unknown options (spelled in two parts so
# a search for a removed name finds only its history).
expect 124 scale --resume-"kernel" on
expect 124 scale --"shards" 2

[ "$failed" -eq 0 ] || exit 1
