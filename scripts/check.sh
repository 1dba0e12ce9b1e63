#!/usr/bin/env sh
# check.sh — the tier-1 verification gate. Everything CI runs is here, so
# "./scripts/check.sh passes" locally means the push will be green.
set -eu

cd "$(dirname "$0")/.."

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

echo '== gofmt -l .'
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "$unformatted"; exit 1; }

echo '== go test ./...'
# Includes internal/experiments' TestPaperShapes: the paper's orderings and
# the fleet/membound contracts as within-run inequalities (each timed series
# measured back to back with the one it is compared to), so no committed
# absolute numbers are diffed against this machine's hour. Also includes
# internal/lint's TestRepositoryIsLintClean, the same check `go run
# ./cmd/slicelint ./...` makes, so the gate does not run the binary again.
go test ./...

echo '== bench: vet, short tests, smoke run vs the oracle (skip with SKIP_BENCH=1)'
# bench/ is its own module, so the legs above never see it. The smoke run
# (~30 s) builds cmd/scotty, drives it over pipes on all four BENCHMARK.json
# workloads at half scale, parses every output row, and checks each window
# against internal/reference: it is the row-format and result guard on the
# path users run. Its numbers mean nothing; only the verdict line is read.
if [ "${SKIP_BENCH:-0}" = "1" ]; then
  echo 'skipped (SKIP_BENCH=1)'
else
  go vet -C bench ./...
  go test -C bench -short ./...
  sh bench/run.sh -smoke | tail -n 1 | grep -q '^{"correct":true,"attempted":[0-9]*,"failed":0,'
fi

echo '== go test -shuffle=on (order-independence; skip with SKIP_SHUFFLE=1)'
# Shuffled test order shakes out hidden inter-test state (shared registries,
# leaked goroutines, working-directory residue) that fixed order can mask.
if [ "${SKIP_SHUFFLE:-0}" = "1" ]; then
  echo 'skipped (SKIP_SHUFFLE=1)'
else
  go test -shuffle=on -count=1 ./...
fi

echo '== go test -race -short (engine, ops, core, fleet, differential, stream, obs)'
# The engine leg covers the batched pipeline too (BatchProcessor handoff,
# buffer-pool recycling, keyed ProcessBatch behind parallel partitions); the
# ops leg hammers the backpressure edges, breaker, and DLQ under concurrency.
# The core leg carries the keyed differential (TestKeyedDifferential: both
# representations of core.Keyed against internal/reference, keys x windows x
# disorder x batch size) and the fleet leg the fleet oracle (TestOracle*),
# both cases of the one differential harness; the differential leg runs the
# harness itself on drawn cases of every technique. -short shrinks streams
# and trial counts, it never skips; it also shrinks the planner's scaling
# shapes.
go test -race -short ./internal/engine ./internal/ops ./internal/core ./internal/fleet ./internal/differential ./internal/stream ./internal/obs

echo '== chaos: crash/torn-snapshot/barrier-fault equivalence'
# The fault-injection harness kills every technique at seeded points and
# requires the recovered results to be identical to an uninterrupted run
# (fixed seeds, so a failure here reproduces verbatim). -count=2 re-runs the
# suite to shake out order dependence between recovered state and fresh state.
go test ./internal/chaos/... -race -count=2

echo '== fuzz smoke (55s total; skip with SKIP_FUZZ=1)'
# Each fuzz target gets a short randomized burst on top of its checked-in
# seed corpus: the envelope decoder must never panic on arbitrary bytes
# (recovery reads checkpoint files straight off disk), the lint directive
# parser backs every suppression in the tree, scotty's block reader and
# in-place line parser must accept, reject and parse exactly what the
# Scanner/Split/strconv feed they replaced did, a row must show any
# float64 as %v does (integral values skip strconv's shortest-digits search),
# the in-place decimal writer must append what strconv.AppendInt does, and
# every operator must agree with internal/reference on whatever case the
# fuzzer decodes (FuzzOperatorVsReference, the differential harness).
if [ "${SKIP_FUZZ:-0}" = "1" ]; then
  echo 'skipped (SKIP_FUZZ=1)'
else
  go test ./internal/checkpoint -run '^$' -fuzz '^FuzzDecodeEnvelope$' -fuzztime 10s
  go test ./internal/lint -run '^$' -fuzz '^FuzzParseIgnoreDirective$' -fuzztime 10s
  go test ./cmd/scotty -run '^$' -fuzz '^FuzzParseLine$' -fuzztime 10s
  go test ./cmd/scotty -run '^$' -fuzz '^FuzzRowValueMatchesFprintf$' -fuzztime 10s
  go test ./cmd/scotty -run '^$' -fuzz '^FuzzAppendIntMatchesStrconv$' -fuzztime 5s
  go test ./internal/differential -run '^$' -fuzz '^FuzzOperatorVsReference$' -fuzztime 10s
fi

echo 'OK'
