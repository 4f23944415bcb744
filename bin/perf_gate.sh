#!/bin/sh
# CI perf gate over BENCH_core.json (docs/performance.md).
#
# A regression this repo has actually shipped is turned into a hard CI
# failure here: run_batch amortisation must not cost throughput, so
# every scheme's speedup at the largest batch size must be >= TOL.
#
# TOL is 0.90 — a 10% tolerance on top of bench-core's own trimmed mean
# over paired repeats (Oa_harness.Stats.trimmed_mean), sized to the noise
# floor of shared CI runners, not to forgive real regressions.
#
# A batch sweep run with more domains than the machine has cores
# carries "oversubscribed": true and is reported but NOT gated: on a 1-2
# core runner it measures scheduler time-slicing, and which batch size
# wins that coin flip is noise.
#
# The operation path must also stay allocation-free: every scheme's
# "minor_words_per_op" (minor-heap words per hash-table operation, the
# worst of its domain points that do not oversubscribe the host) must
# be <= 1.  The one word of slack
# covers amortised pool-chunk refills and threshold work; the per-op
# path itself allocates nothing (test/test_alloc.ml).
#
# Usage: perf_gate.sh [BENCH_core.json]
#
# The JSON is bench-core's own printf output (one object per line), so
# line-oriented awk is a faithful parser for it; this script is not a
# general JSON reader.
set -eu

JSON="${1:-BENCH_core.json}"
TOL=0.90
WORDS=1

test -s "$JSON" || { echo "perf-gate: $JSON missing or empty" >&2; exit 1; }

awk -v tol="$TOL" -v words="$WORDS" '
  # --- minor-heap words per operation, per scheme ---
  /^  "minor_words_per_op": \{/ {
    line = $0
    sub(/.*\{/, "", line); sub(/\}.*/, "", line)
    n = split(line, pairs, /, */)
    for (i = 1; i <= n; i++) {
      split(pairs[i], kv, /": */)
      scheme = kv[1]; sub(/^"/, "", scheme)
      w = kv[2] + 0
      alloc_gated++
      if (w > words + 0) {
        printf "perf-gate: FAIL alloc   %-4s minor words/op: %.3f > %s\n", \
          scheme, w, words
        fails++
      } else {
        printf "perf-gate: ok   alloc   %-4s minor words/op: %.3f\n", scheme, w
      }
    }
  }

  # --- batch speedup per scheme (skip if sweep oversubscribed) ---
  /"batch_sweep"/ { in_batch = 1 }
  in_batch && /"oversubscribed"/ { batch_over = ($0 ~ /true/) }
  in_batch && /"speedup_at_batch_/ {
    line = $0
    batch = line
    sub(/.*speedup_at_batch_/, "", batch); sub(/".*/, "", batch)
    if (batch + 0 <= 1) next   # batches 1-only run: nothing to gate
    # the summary object: {"OA": 0.970, "HP": 0.776, ...}
    sub(/.*\{/, "", line); sub(/\}.*/, "", line)
    n = split(line, pairs, /, */)
    for (i = 1; i <= n; i++) {
      split(pairs[i], kv, /": */)
      scheme = kv[1]; sub(/^"/, "", scheme)
      speedup = kv[2] + 0
      if (batch_over) {
        printf "perf-gate: skip batch-%s %-4s speedup: %.3f (oversubscribed)\n", \
          batch, scheme, speedup
        continue
      }
      gated++
      if (speedup < tol + 0) {
        printf "perf-gate: FAIL batch-%s %-4s speedup: %.3f < %.2f\n", \
          batch, scheme, speedup, tol
        fails++
      } else {
        printf "perf-gate: ok   batch-%s %-4s speedup: %.3f\n", \
          batch, scheme, speedup
      }
    }
    in_batch = 0
  }

  END {
    if (alloc_gated == 0) {
      print "perf-gate: FAIL no minor_words_per_op summary found in input"
      exit 1
    }
    if (gated == 0) {
      # refuse to "pass" on a file the gate could not read: an upstream
      # format change must break CI loudly, not disarm the gate silently
      print "perf-gate: FAIL no gateable batch points found in input"
      exit 1
    }
    if (fails > 0) {
      printf "perf-gate: %d of %d checks failed (%d batch, %d alloc; tolerance %.2f)\n", \
        fails, gated + alloc_gated, gated, alloc_gated, tol
      exit 1
    }
    printf "perf-gate: all %d checks passed (%d batch, %d alloc; tolerance %.2f)\n", \
      gated + alloc_gated, gated, alloc_gated, tol
  }
' "$JSON"
