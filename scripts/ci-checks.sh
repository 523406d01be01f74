#!/usr/bin/env bash
# The CLI and benchmark checks of the CI workflow, in one script, so that a
# change can run exactly what CI runs before it lands:
#
#   scripts/ci-checks.sh [WORK_DIR]
#
# It runs from the repository root, wherever it is called from, and writes
# the instance, allocation and output files it checks to WORK_DIR (default:
# a new temporary directory).  Each grep fails the script on a mismatch.
set -euo pipefail

cd "$(dirname "$0")/.."
work=${1:-$(mktemp -d)}
mkdir -p "$work"

cli() {
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m entitled_cuts.cli "$@"
}

# the paper's 2n-2 lower bound at n = 12, through the CLI under the default
# oracle budget (n = 5, 6 and 8 are in the test suite)
echo "== Lower bound at n = 12 (min cuts = 22)"
cli gen --lower-bound 12 -o "$work/lb12.json"
cli min-cuts "$work/lb12.json" --k-max 22 | tee "$work/lb12.out"
grep -Fx "k=21: infeasible (all 13518946182948634987088128574976000 combinations ruled out)" "$work/lb12.out"
grep -Fx "k=22: feasible (witness at combination 121098171213448682127410309611474871 in canonical order)" "$work/lb12.out"
grep -Fx "min cuts = 22" "$work/lb12.out"

# and at n = 8, whose certificate's bytes are pinned below
echo "== Lower bound at n = 8 (min cuts = 14)"
cli gen --lower-bound 8 -o "$work/lb8.json"
cli min-cuts "$work/lb8.json" --k-max 14 | tee "$work/lb8.out"
grep -Fx "k=13: infeasible (all 4622352909318144000 combinations ruled out)" "$work/lb8.out"
grep -Fx "k=14: feasible (witness at combination 25911587181984444307 in canonical order)" "$work/lb8.out"
grep -Fx "min cuts = 14" "$work/lb8.out"

# six agents whose top split a plain scan of every cut-cell tuple would
# project at 19.2M systems: the prefix walk solves it under the default
# budget, and the allocation verifies; auto returns cloning's allocation,
# so the recursion is solved and verified on its own too
echo "== Six-agent solve under the default budget"
cli gen --random 6 --seed 2 --max-cells 6 --denom-bound 64 -o "$work/r6.json"
cli solve "$work/r6.json" -o "$work/r6.allocation.json"
cli verify "$work/r6.json" "$work/r6.allocation.json" | tee "$work/r6.out"
grep -Fx "PASS" "$work/r6.out"
cli solve "$work/r6.json" --algorithm recursive -o "$work/r6.recursive.json" \
  | tee "$work/r6.recursive.solve.out"
grep "^cuts (16 of bound 22): " "$work/r6.recursive.solve.out"
cli verify "$work/r6.json" "$work/r6.recursive.json" | tee "$work/r6.recursive.out"
grep -Fx "PASS" "$work/r6.recursive.out"

# eight agents: the recursion's top split is the cost, on 8 cuts over 40
# refinement cells, and the walk drops every tuple whose last cut its value
# equations pin outside its cell, so the LP sees few; about 10 s
echo "== Eight-agent recursive solve"
cli gen --random 8 --seed 2 --max-cells 6 --denom-bound 64 -o "$work/r8.json"
cli solve "$work/r8.json" --algorithm recursive -o "$work/r8.recursive.json" \
  | tee "$work/r8.solve.out"
grep "^cuts (24 of bound 34): " "$work/r8.solve.out"
cli verify "$work/r8.json" "$work/r8.recursive.json" | tee "$work/r8.out"
grep -Fx "PASS" "$work/r8.out"

# a speedup must keep the output bytes: the n = 8 certificate and the
# recursive six- and eight-agent allocations are the witnesses the LP
# returned, the six-agent allocation auto returns is cloning's, the
# recursive five-agent allocation over denominators up to 10^6 has cuts of
# up to 80 digits, and every benchmark workload still prints the digest of
# the files it writes
echo "== Output bytes unchanged"
cli gen --random 5 --seed 4 --max-cells 4 --denom-bound 1000000 -o "$work/r5big.json"
cli solve "$work/r5big.json" --algorithm recursive -o "$work/r5big.recursive.json" \
  | tee "$work/r5big.solve.out"
grep "^cuts (12 of bound 16): " "$work/r5big.solve.out"
cli verify "$work/r5big.json" "$work/r5big.recursive.json" | tee "$work/r5big.out"
grep -Fx "PASS" "$work/r5big.out"
(cd "$work" && sha256sum -c) <<'SUMS'
86307dea4d7aa203e8415fc2f70a2c2f98a7a70669272d69b13589746ff709a8  lb8.certificate.json
e4d66060d4cc439c0e75c673d669367d947c32dc81527b9bc091fbb327e3ebf6  r6.recursive.json
8085e36bef680df8d6dab732f7883e3518fc33c7eb4dee736d4e1dcd794a4956  r6.allocation.json
33b824ed9a514aba0bb2a4c1e9efbbb53088dd5a2e96e2870fb8d526b2f07ff6  r5big.recursive.json
9b8009cd6621298dffcc93eeb20da63094c2237a63908a9e86deed347c9d584f  r8.recursive.json
SUMS
for expected in \
  divide:9ee8fdc55a23bc5291b39f9068711901a5fa3b2f18a845b6fddf8a622d09c278 \
  certify:769518a277eccda9db17e43cb84a451c726b80e71056d59f50824d559f151ccf \
  lower_bound:0309f8af1580a5d48397aa1cc4f754fcab74e7508300a96daadfa8f276b8e9aa
do
  workload=${expected%%:*}
  python perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 \
    | tee "$work/$workload.out"
  grep -Fx "output digest ${expected#*:}" "$work/$workload.out"
done

# a speedup must keep the work pinned, not only the bytes: one traced
# certify pass makes exactly these LP calls, oracle systems, protocol cuts
# and model calls, and one traced divide pass these LP calls, protocol cuts
# and model calls.  The oracle's check calls fall to 1770 because its
# ordered-chain bound refutes 756 infeasible systems before the LP; the
# splitter's checks fall by 159 on divide (744 to 585) and by 19 on certify
# because its walk drops every full tuple whose value equations pin the
# last cut outside its cell; the solves, systems_examined and every other
# count stay fixed.  model.calls
# counts calls that enter the model layer from another layer (the tracer's
# spans), not every model function call: the marks one Valuation.marks call
# places count once, and the verifier, which values pieces and counts cuts
# with its own arithmetic, adds none
echo "== LP call counts pinned (check calls fall, the rest fixed)"
python perfbench/run.py --workload certify --seed 1 --seconds 2 --trace 1 \
  | tee "$work/certify-trace.out"
for expected in \
  "split.lp_calls 282 count" \
  "feasibility.check_calls 1751 count" \
  "feasibility.solve_calls 525 count" \
  "bounds.systems_examined 8548 count" \
  "protocols.cuts 502 count" \
  "model.calls 12517 count"
do
  grep -Fx "$expected" "$work/certify-trace.out"
done
python perfbench/run.py --workload divide --seed 1 --seconds 2 --trace 1 \
  | tee "$work/divide-trace.out"
for expected in \
  "split.lp_calls 940 count" \
  "feasibility.check_calls 585 count" \
  "feasibility.solve_calls 355 count" \
  "protocols.cuts 785 count" \
  "model.calls 25098 count"
do
  grep -Fx "$expected" "$work/divide-trace.out"
done

echo "all CI checks passed"
