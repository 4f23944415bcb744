#!/bin/sh
# Local CI entry point, mirrored by .github/workflows/ci.yml:
#   build everything, run the test suite, and check formatting when
#   ocamlformat is available (the formatting step is advisory on machines
#   without it, so a bare opam switch can still run CI).
set -eu

cd "$(dirname "$0")/.."

# --no-perf-gate skips the throughput assertions over BENCH_core.json
# (bin/perf_gate.sh) while still producing the artifacts: the escape
# hatch for machines whose noise floor genuinely exceeds the gate's 10%
# tolerance.  Everything else always runs.
PERF_GATE=1
for arg in "$@"; do
  case "$arg" in
    --no-perf-gate) PERF_GATE=0 ;;
    *) echo "ci.sh: unknown option $arg" >&2; exit 2 ;;
  esac
done

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

# The batched-vs-sequential differential suite runs inside `dune runtest`
# already; run it by name as well so a batching regression is visible as
# its own CI line rather than buried in the full-suite log.
echo "== differential batch suite"
dune exec test/test_batch.exe -- -q

# Golden simulated figures (docs/testing.md): the simulator is
# deterministic, so Figures 5, 7 and 8 at a tiny scale must reproduce
# the committed tables byte for byte — a refactor or deletion that
# should not move the reproduction is checked rather than asserted.
# Figures 1-4 and the ablations are pinned at full precision by
# test/test_figures.ml inside `dune runtest`.
echo "== golden figures 5, 7, 8"
for n in 5 7 8; do
  OA_BENCH_SCALE=0.02 OA_BENCH_REPEATS=1 OA_BENCH_THREADS=2,4 \
    ./_build/default/bin/oa_cli.exe figure "$n" \
    | diff -u "test/golden/fig$n.txt" -
done

# Schedule-exploration smoke run (docs/testing.md): the deliberately broken
# HP and VBR schemes must be caught within the seed budget, and the real
# schemes must survive the same adversary.  All runs are seconds.
echo "== oa_cli check smoke"
dune exec bin/oa_cli.exe -- check --scheme broken-hp --seeds 100 --quiet \
  --expect-fail
dune exec bin/oa_cli.exe -- check --scheme broken-vbr --seeds 100 --quiet \
  --expect-fail
dune exec bin/oa_cli.exe -- check --scheme oa --seeds 25 --quiet
dune exec bin/oa_cli.exe -- check --scheme vbr --seeds 25 --quiet
# Batched execution under the explorer: the broken scheme must still be
# caught when operations run through run_batch with the batch-boundary
# fault battery, a tight arena must stay clean for OA (reclamation phases
# and rollbacks landing inside batches), and the skip list must survive a
# batched sweep.
dune exec bin/oa_cli.exe -- check --scheme broken-hp --batch 4 \
  --faults batchshift --seeds 100 --quiet --expect-fail
dune exec bin/oa_cli.exe -- check --scheme oa --batch 4 --slack 2 \
  --seeds 25 --quiet
dune exec bin/oa_cli.exe -- check --scheme oa -s skiplist --batch 4 \
  --seeds 25 --quiet

# Elastic-arena churn smoke (docs/memory.md): --churn backs the checked
# structure with the elastic allocator at a tiny 8-node chunk size, so
# the explorer's adversarial schedules constantly cross chunk
# grow/decommit/re-open boundaries while the retire/reclaim conservation
# oracle watches.  All seven schemes, plus one batched run (reclamation
# phases landing inside batches while chunks decommit underneath).
echo "== oa_cli check churn smoke (elastic arena)"
for s in norecl oa hp ebr anchors rc vbr; do
  dune exec bin/oa_cli.exe -- check --scheme "$s" --churn --seeds 25 --quiet
done
dune exec bin/oa_cli.exe -- check --scheme oa --churn --batch 4 \
  --seeds 25 --quiet

# Crash-at-batch-boundary recovery checker (docs/persistence.md): rounds
# served by a durable one-shard service must recover from every round
# boundary — clean and with an injected torn tail — to exactly the
# sequential model, with the retire/reclaim conservation oracle intact
# across the recovery replay.  All seven schemes, as the churn smoke.
echo "== oa_cli check crash-recovery smoke"
for s in norecl oa hp ebr anchors rc vbr; do
  dune exec bin/oa_cli.exe -- check --crash-recovery --scheme "$s" \
    --seeds 4 --quiet
done

# Server smoke (docs/server.md): serve the sharded table over loopback,
# drive it with the closed-loop load generator, then deliver SIGINT and
# require a graceful drain with a clean conservation verdict (serve exits
# nonzero otherwise).  The binary is started directly — not through
# `dune exec` — so the signal reaches it.  Port derived from the PID to
# tolerate parallel CI runs on one machine.
#
# Run each scheme at server batch 1 (per-op control) and 64 (the default
# batch bound — the batched execution path), three runs per
# point with the median kept —
# loaded machines and single-core runners time-slice badly enough that a
# single run per point is a coin flip — and assemble the four median runs
# plus their batched/per-op speedups into one composite BENCH_server.json
# (uploaded as a CI artifact; the speedup comparison is the batching
# acceptance evidence, so it is recorded rather than asserted — a hard
# threshold would still flake).
echo "== server smoke (per-op vs batched)"
OA_SMOKE_PORT=$(( ($$ % 20000) + 20000 ))
tput_of () {
  sed -n 's/.*"throughput_ops_per_s":\([0-9.]*\).*/\1/p' "$1"
}
serve_loadgen_once () {
  # serve_loadgen_once SCHEME DEQUEUE_BATCH OUT_JSON
  # The drain line is kept, and must leave nothing retired unreclaimed
  # (in-flight=0): every scheme here frees its whole backlog at stop.
  ./_build/default/bin/oa_cli.exe serve --scheme "$1" --shards 2 \
    --batch "$2" --port "$OA_SMOKE_PORT" > serve_smoke.log &
  OA_SERVE_PID=$!
  sleep 1
  ./_build/default/bin/oa_cli.exe loadgen --port "$OA_SMOKE_PORT" \
    --conns 4 --pipeline 64 --batch 64 --duration 4 --json "$3"
  kill -INT "$OA_SERVE_PID"
  wait "$OA_SERVE_PID"
  cat serve_smoke.log
  grep -q ' in-flight=0 ' serve_smoke.log
  rm -f serve_smoke.log
  test -s "$3"
  OA_SMOKE_PORT=$(( OA_SMOKE_PORT + 1 ))
}
serve_loadgen () {
  # serve_loadgen SCHEME DEQUEUE_BATCH OUT_JSON: median of three runs
  serve_loadgen_once "$1" "$2" "$3.r1"
  serve_loadgen_once "$1" "$2" "$3.r2"
  serve_loadgen_once "$1" "$2" "$3.r3"
  OA_MEDIAN=$( { echo "$(tput_of "$3.r1") $3.r1";
                 echo "$(tput_of "$3.r2") $3.r2";
                 echo "$(tput_of "$3.r3") $3.r3"; } \
               | sort -n | sed -n '2s/.* //p' )
  mv "$OA_MEDIAN" "$3"
  rm -f "$3.r1" "$3.r2" "$3.r3"
}
serve_loadgen oa 1 bench_server_oa_b1.json
serve_loadgen oa 64 bench_server_oa_b64.json
serve_loadgen hp 1 bench_server_hp_b1.json
serve_loadgen hp 64 bench_server_hp_b64.json
serve_loadgen vbr 1 bench_server_vbr_b1.json
serve_loadgen vbr 64 bench_server_vbr_b64.json

# Two execution contexts per shard: the four connections' shares of one
# shard run concurrently on its lock-free table and its scheme.  serve
# exits nonzero unless the drain conserves; the load must see no error.
echo "== server smoke (two contexts per shard)"
./_build/default/bin/oa_cli.exe serve --scheme oa --shards 2 --workers 2 \
  --port "$OA_SMOKE_PORT" > serve_w2.log &
OA_SERVE_PID=$!
sleep 1
./_build/default/bin/oa_cli.exe loadgen --port "$OA_SMOKE_PORT" \
  --conns 4 --pipeline 64 --batch 64 --duration 4 --json bench_server_w2.json
kill -INT "$OA_SERVE_PID"
wait "$OA_SERVE_PID"
cat serve_w2.log
grep -q '"errors":0,' bench_server_w2.json
grep -q 'conservation=ok' serve_w2.log
rm -f serve_w2.log bench_server_w2.json
OA_SMOKE_PORT=$(( OA_SMOKE_PORT + 1 ))

# Kill-and-restart recovery smoke (docs/persistence.md): run a durable
# server, drive it with a hot-key ledgered load, SIGKILL it mid-flight
# (no drain, no final checkpoint — the WAL tail may be torn), restart
# from the same data dir and verify every key the generator can vouch
# for, recording the recovery wait and the post-failover read latency.
# Then start a --follow replica of the restarted primary and verify the
# same ledger against it once the log stream has converged.
echo "== kill-and-restart recovery smoke"
OA_DATA_DIR=$(mktemp -d "${TMPDIR:-/tmp}/oa-ci-data.XXXXXX")
OA_LEDGER="$OA_DATA_DIR/ledger.txt"
./_build/default/bin/oa_cli.exe serve --scheme oa --shards 2 --workers 1 \
  --port "$OA_SMOKE_PORT" --keys 8000 --prefill 0 \
  --data-dir "$OA_DATA_DIR/primary" --ckpt-every 5000 &
OA_SERVE_PID=$!
sleep 1
./_build/default/bin/oa_cli.exe loadgen --port "$OA_SMOKE_PORT" \
  --conns 4 --pipeline 32 --duration 3 --mix 40/35/25 --keys 8000 \
  --hot 400,60 --ledger "$OA_LEDGER" --json -
kill -KILL "$OA_SERVE_PID"
wait "$OA_SERVE_PID" 2>/dev/null || true
OA_SMOKE_PORT=$(( OA_SMOKE_PORT + 1 ))
./_build/default/bin/oa_cli.exe serve --scheme oa --shards 2 --workers 1 \
  --port "$OA_SMOKE_PORT" --keys 8000 --prefill 0 \
  --data-dir "$OA_DATA_DIR/primary" --ckpt-every 5000 &
OA_SERVE_PID=$!
./_build/default/bin/oa_cli.exe ledger-verify --port "$OA_SMOKE_PORT" \
  --ledger "$OA_LEDGER" --timeout 30 --json recovery_primary.json
echo "== replica convergence smoke"
OA_REPLICA_PORT=$(( OA_SMOKE_PORT + 1 ))
./_build/default/bin/oa_cli.exe serve --scheme oa --shards 2 --workers 1 \
  --port "$OA_REPLICA_PORT" --keys 8000 --prefill 0 \
  --follow "127.0.0.1:$OA_SMOKE_PORT" &
OA_REPLICA_PID=$!
# the follower streams the whole log from seq 0; give it a few attempts
# to converge before the verify is considered failed
OA_TRY=0
until ./_build/default/bin/oa_cli.exe ledger-verify \
    --port "$OA_REPLICA_PORT" --ledger "$OA_LEDGER" --timeout 30 \
    --json recovery_replica.json; do
  OA_TRY=$(( OA_TRY + 1 ))
  test "$OA_TRY" -lt 10
  rm -f recovery_replica.json
  sleep 1
done
kill -INT "$OA_REPLICA_PID"
wait "$OA_REPLICA_PID"
kill -INT "$OA_SERVE_PID"
wait "$OA_SERVE_PID"
rm -rf "$OA_DATA_DIR"
OA_SMOKE_PORT=$(( OA_SMOKE_PORT + 2 ))
tail -1 recovery_primary.json > recovery_primary.json.tmp \
  && mv recovery_primary.json.tmp recovery_primary.json
tail -1 recovery_replica.json > recovery_replica.json.tmp \
  && mv recovery_replica.json.tmp recovery_replica.json
OA_SPEEDUP=$(awk "BEGIN { printf \"%.3f\", \
  $(tput_of bench_server_oa_b64.json) / $(tput_of bench_server_oa_b1.json) }")
HP_SPEEDUP=$(awk "BEGIN { printf \"%.3f\", \
  $(tput_of bench_server_hp_b64.json) / $(tput_of bench_server_hp_b1.json) }")
VBR_SPEEDUP=$(awk "BEGIN { printf \"%.3f\", \
  $(tput_of bench_server_vbr_b64.json) / $(tput_of bench_server_vbr_b1.json) }")
{
  printf '{"bench":"server_batch_ab","pipeline":64,\n'
  printf ' "runs":[\n'
  printf '  %s,\n' "$(cat bench_server_oa_b1.json)"
  printf '  %s,\n' "$(cat bench_server_oa_b64.json)"
  printf '  %s,\n' "$(cat bench_server_hp_b1.json)"
  printf '  %s,\n' "$(cat bench_server_hp_b64.json)"
  printf '  %s,\n' "$(cat bench_server_vbr_b1.json)"
  printf '  %s\n' "$(cat bench_server_vbr_b64.json)"
  printf ' ],\n'
  printf ' "speedup_at_batch_64":{"OA":%s,"HP":%s,"VBR":%s},\n' \
    "$OA_SPEEDUP" "$HP_SPEEDUP" "$VBR_SPEEDUP"
  printf ' "recovery":%s,\n' "$(cat recovery_primary.json)"
  printf ' "replica_recovery":%s}\n' "$(cat recovery_replica.json)"
} > BENCH_server.json
rm -f bench_server_oa_b1.json bench_server_oa_b64.json \
  bench_server_hp_b1.json bench_server_hp_b64.json \
  bench_server_vbr_b1.json bench_server_vbr_b64.json \
  recovery_primary.json recovery_replica.json
echo "== BENCH_server.json"
cat BENCH_server.json

# Store-failure smoke (docs/persistence.md): the data directory of a
# durable one-shard server is removed one second into a load run.  Appends
# go on into the open segment until it fills; the rotation after that
# cannot create the next one.  The shard must answer that round and every
# later mutation as failed, so loadgen returns, and serve must exit
# nonzero with one line naming the shard instead of hanging.  Both are
# bounded by timeout, with a SIGKILL after it: a hung serve ignores
# SIGTERM, because its shutdown waits for a handler that never returns.
echo "== store-failure smoke"
OA_FAIL_DIR=$(mktemp -d "${TMPDIR:-/tmp}/oa-ci-fail.XXXXXX")
timeout -k 2 20 ./_build/default/bin/oa_cli.exe serve --scheme oa \
  --shards 1 --port "$OA_SMOKE_PORT" --data-dir "$OA_FAIL_DIR/data" \
  --segment-bytes 4096 --duration 8 2> "$OA_FAIL_DIR/serve.err" &
OA_SERVE_PID=$!
sleep 1
# rename first: rm -rf alone races the segments the server keeps creating
( sleep 1; mv "$OA_FAIL_DIR/data" "$OA_FAIL_DIR/gone" ) &
OA_RM_PID=$!
timeout -k 2 10 ./_build/default/bin/oa_cli.exe loadgen \
  --port "$OA_SMOKE_PORT" --conns 1 --duration 3 --json -
wait "$OA_RM_PID"
OA_SERVE_RC=0
wait "$OA_SERVE_PID" || OA_SERVE_RC=$?
cat "$OA_FAIL_DIR/serve.err"
test "$OA_SERVE_RC" = 1
test "$(grep -c 'shard 0 went read-only' "$OA_FAIL_DIR/serve.err")" = 1
rm -rf "$OA_FAIL_DIR"
OA_SMOKE_PORT=$(( OA_SMOKE_PORT + 1 ))

# Core benchmark smoke (docs/performance.md): bounded hash-table
# throughput sweep plus the batched-execution sweep on the real backend,
# over the full seven-scheme matrix — BENCH_core.json carries a
# vbr_over_oa ratio series (VBR/OA throughput per domain count) so
# future PRs can gate the read-barrier crossover (docs/performance.md)
# instead of rediscovering it.  Emits BENCH_core.json (uploaded as a CI
# artifact) and exits nonzero if retire/recycle conservation is violated
# at any point or batch size.
echo "== bench-core smoke"
# 800k ops x 11 repeats: each run is a ~250ms measurement, each batch
# speedup a trimmed mean over eleven interleaved per-op/batched pairs.
# Long samples average over noise episodes on shared runners (at ~50ms
# a single bad time slice swings a point 10-15%), and the trimmed mean
# on top is what keeps the perf gate below honest against its 10%
# tolerance.  Oversubscribed domain points are demoted to three runs by
# bench-core itself: nothing gates them, so the wall-clock budget goes
# where it buys stability.
dune exec bin/oa_cli.exe -- bench-core \
  --schemes norecl,oa,hp,ebr,anchors,rc,vbr \
  --domains 1,2,4,8 --ops 800000 --repeats 11 --batches 1,16 \
  --json BENCH_core.json
test -s BENCH_core.json
echo "== BENCH_core.json"
cat BENCH_core.json

# Perf gate (docs/performance.md): a regression this repo has shipped
# before — run_batch costing throughput — fails CI here, with a 10%
# tolerance on top of bench-core's trimmed mean and an oversubscribed
# sweep excluded.
if [ "$PERF_GATE" = 1 ]; then
  echo "== perf gate"
  sh bin/perf_gate.sh BENCH_core.json
else
  echo "== perf gate SKIPPED (--no-perf-gate)"
fi

# Cycle attribution (docs/performance.md): where each scheme's cycles
# go — per-phase sampled-TSC estimates over bench-core's batch-sweep
# workload.  Recorded as an artifact, not asserted: attribution shares
# drift with the machine, and the gate above already covers the
# end-to-end numbers.
echo "== profile smoke (cycle attribution)"
dune exec bin/oa_cli.exe -- profile --schemes oa,hp,ebr,vbr --ops 60000 \
  --json BENCH_profile.json
test -s BENCH_profile.json

# The elastic allocator's RSS-over-time curve (docs/memory.md) rides in
# BENCH_core.json, uploaded with it.
grep -q '"rss_curve"' BENCH_core.json

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed)"
fi

echo "CI OK"
