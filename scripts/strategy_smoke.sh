#!/bin/sh
# Strategy-equivalence smoke: the CI-facing proof that every evaluation
# strategy of the round engine is pure — the delivery kernel
# (--kernel), the adversary kernel (--adv-kernel), delivery sharding
# (--shards) and resume-loop sharding (--resume-shards).
#
#   scripts/strategy_smoke.sh [SIZES]
#
# Runs the S1 beacon scenario in --check mode (deterministic columns
# only: world shape and send/delivery/collision counts, no timings) for
# each adversary policy, once down the all-scalar path (--kernel off
# --adv-kernel off, one shard) and once per strategy setting below.
# Every table must be byte-identical to the policy's all-scalar one.
#
# The beacon workload syncs every fiber every round, so at n >= 1024
# each round clears the resume-shard gate (1024 live fibers) and the
# --resume-shards settings really shard; the default grid straddles it.
# bernoulli has no adversary kernel (its per-edge draw sequence is the
# semantics), so --adv-kernel on must be a no-op for it.
#
# SIZES is a comma-separated n grid (default small enough for CI).
#
# RN_CLI overrides how the CLI is invoked (CI uses
# "opam exec -- dune exec bin/rn_cli.exe --").

SMOKE_NAME=strategy_smoke
. "$(dirname "$0")/smoke_lib.sh"

sizes=${1:-512,1024,2048}

run() { # run OUTFILE EXTRA_ARGS...
  out=$1; shift
  rn scale --check --sizes "$sizes" "$@" > "$out" 2> "$out.err"
}

check() { # check ADVERSARY SETTING... : each SETTING's table = all-scalar
  adv=$1; shift
  run "$tmp/ref.out" --adversary "$adv" --kernel off --adv-kernel off
  for setting in "$@"; do
    # shellcheck disable=SC2086  # SETTING is a flag list, split on purpose
    run "$tmp/got.out" --adversary "$adv" $setting
    assert_same "$tmp/ref.out" "$tmp/got.out" "$adv: $setting differs from the all-scalar table"
  done
  note "$adv: $# strategy settings byte-identical to all-scalar"
}

check bernoulli:0.5 \
  "--shards 1" "--shards 2" "--shards 4" "--kernel on --shards 4" \
  "--resume-shards 2 --kernel on" "--resume-shards 4 --kernel on" \
  "--resume-shards 2 --kernel off" "--resume-shards 4 --kernel off" \
  "--resume-shards 4 --shards 4" "--adv-kernel on --shards 2"

for adv in spiteful jamming all; do
  check "$adv" \
    "--adv-kernel on --shards 1" "--adv-kernel on --shards 2" "--adv-kernel on --shards 4" \
    "--adv-kernel auto --shards 1" "--adv-kernel auto --shards 2" \
    "--adv-kernel auto --shards 4" "--adv-kernel on --resume-shards 4 --shards 4"
done

echo "strategy_smoke: OK (sizes=$sizes: kernel/adv-kernel/shards/resume-shards = all-scalar)"
