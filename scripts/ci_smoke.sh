#!/usr/bin/env bash
# End-to-end CLI smokes for the sweep layer, shared by CI and local runs.
#
#   REPRO_CACHE_DIR=/tmp/repro-ci-cache bash scripts/ci_smoke.sh
#
# Each section exercises one operational story against the real CLI:
#   1. interrupt + --resume (zero retrain / zero re-simulate)
#   2. work stealing over a shared lease directory (two concurrent
#      workers, both claim work, merge == full sweep, one lease/scenario)
#   3. serving sweep (--serve): cold run trains once, warm replay is
#      zero re-simulation, the latency tail diverges from the mean under
#      load (saturation), and serving manifests merge with inference
#      manifests side by side
#   4. work stealing over a remote store URL (repro store-serve + two
#      workers sharing nothing but http://...; merge == full sweep, the
#      served directory holds one done lease per scenario)
#   5. warm start: a second process over the same store loads the DRAM
#      calibration the first one stored (identical output, one entry)
#
# Everything lands under /tmp (*.jsonl manifests, *.log transcripts) so a
# failing CI run can upload the lot as artifacts.

set -euo pipefail
cd "$(dirname "$0")/.."

export REPRO_CACHE_DIR="${REPRO_CACHE_DIR:-/tmp/repro-ci-cache}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

SWEEP="python -m repro.cli sweep --serial --trees 2 --dataset mq2008 --axis max_depth=2,3 --systems ideal-32-core booster"

echo "=== smoke 1/5: sweep interrupt + resume ==="
$SWEEP --out /tmp/sweep.jsonl
# Simulate an interrupted run: drop the manifest's second line.
head -n 1 /tmp/sweep.jsonl > /tmp/sweep.partial && mv /tmp/sweep.partial /tmp/sweep.jsonl
$SWEEP --out /tmp/sweep.jsonl --resume | tee /tmp/resume.log
# The resumed run must not retrain or re-simulate anything.
if grep -q '\[trained\]' /tmp/resume.log; then echo 'resume retrained!' >&2; exit 1; fi
grep -q 'resume: 1/2 scenarios already in' /tmp/resume.log
grep -q '\[stored\]' /tmp/resume.log
python -c 'import json; lines = [json.loads(l) for l in open("/tmp/sweep.jsonl")]; assert len(lines) == 2 and all(l["error"] is None for l in lines), lines; assert lines[1]["stored"] is True, "resumed scenario was re-simulated"'

echo "=== smoke 2/5: work stealing over a shared lease directory ==="
# Two workers drain ONE sweep through lease files in a shared directory.
# A cold cache makes every scenario cost real training time, so both
# workers reliably get to claim work (a warm store would let the first
# worker drain the whole sweep in milliseconds).
export REPRO_CACHE_DIR=/tmp/repro-ci-steal-cache
rm -rf /tmp/repro-ci-steal-cache /tmp/steal-coord
STEAL_AXES="--axis max_depth=2,3,4,5,6,7"
STEAL="python -m repro.cli sweep --serial --trees 2 --dataset mq2008 $STEAL_AXES --systems ideal-32-core booster --coordinate /tmp/steal-coord --lease-ttl 300"
$STEAL --out /tmp/steal-w1.jsonl > /tmp/steal-w1.log 2>&1 &
W1=$!
$STEAL --out /tmp/steal-w2.jsonl | tee /tmp/steal-w2.log
wait "$W1"
cat /tmp/steal-w1.log
python -m repro.cli steal-status /tmp/steal-coord | tee /tmp/steal-status.log
# Both workers must have claimed at least one scenario.
grep -Eq 'steal: claimed [1-9][0-9]*/6' /tmp/steal-w1.log
grep -Eq 'steal: claimed [1-9][0-9]*/6' /tmp/steal-w2.log
# The union of the worker manifests equals the full sweep, and the
# lease directory shows exactly one (done) lease per scenario.
python -m repro.cli sweep --serial --trees 2 --dataset mq2008 $STEAL_AXES --systems ideal-32-core booster --out /tmp/steal-full.jsonl > /tmp/steal-full.log
python -m repro.cli merge /tmp/steal-merged.jsonl /tmp/steal-w1.jsonl /tmp/steal-w2.jsonl
python -c 'import json, pathlib; load = lambda p: {d["cache_key"]: d for d in map(json.loads, open(p))}; full = load("/tmp/steal-full.jsonl"); merged = load("/tmp/steal-merged.jsonl"); assert set(full) == set(merged), (sorted(full), sorted(merged)); assert all(m["error"] is None and m["comparison"] == full[k]["comparison"] and m["scenario"] == full[k]["scenario"] for k, m in merged.items()), "steal-mode merge diverges from the full sweep"; leases = list(pathlib.Path("/tmp/steal-coord").glob("*.lease")); assert len(leases) == len(full), (len(leases), len(full)); assert all(json.loads(p.read_bytes())["done"] for p in leases), "undone lease left behind"; print(f"steal-mode merge matches the full sweep ({len(merged)} scenarios, {len(leases)} leases, all done)")'

echo "=== smoke 3/5: serving sweep (latency tail under load) ==="
# records_per_request=20000 puts the ideal-32-core design point's serving
# capacity at ~112 qps, so arrival_qps=100,400 straddles it: the cool row
# is stationary, the hot row saturates and the tail diverges from the mean.
export REPRO_CACHE_DIR=/tmp/repro-ci-serve-cache
rm -rf /tmp/repro-ci-serve-cache
SERVE="python -m repro.cli sweep --serial --trees 2 --dataset mq2008 --systems ideal-32-core booster --serve --serve-duration 2.0 --axis records_per_request=20000 --axis arrival_qps=100,400"
$SERVE --out /tmp/serve.jsonl | tee /tmp/serve.log
grep -q '\[trained\]' /tmp/serve.log   # cold cache: the design point trains once
# Warm replay: zero retraining, zero re-simulation, both rows [stored].
$SERVE --out /tmp/serve-warm.jsonl | tee /tmp/serve-warm.log
if grep -q '\[trained\]' /tmp/serve-warm.log; then echo 'warm serving sweep retrained!' >&2; exit 1; fi
test "$(grep -c '\[stored\]' /tmp/serve-warm.log)" -eq 2
python -c 'import json; rows = [json.loads(l) for l in open("/tmp/serve.jsonl")]; assert len(rows) == 2 and all(r["error"] is None and r["kind"] == "serving" for r in rows), rows; by_qps = {r["scenario"]["serving"]["qps"]: r["serving"]["systems"] for r in rows}; hot = by_qps[400.0]["ideal-32-core"]; assert hot["saturated"] and hot["sustained_qps"] < hot["offered_qps"], hot; assert hot["p99_ms"] > 1.5 * hot["mean_ms"] > 0, (hot["p99_ms"], hot["mean_ms"]); cool = by_qps[100.0]["ideal-32-core"]; assert not cool["saturated"], cool; assert cool["p99_ms"] > 2 * cool["mean_ms"] > 0, (cool["p99_ms"], cool["mean_ms"]); assert by_qps[400.0]["booster"]["p99_ms"] < hot["p99_ms"], "booster tail should beat the baseline"; ratio = cool["p99_ms"] / cool["mean_ms"]; print("tail diverges under load: cool p99/mean %.2fx, hot saturated at %.0f/%.0f qps" % (ratio, hot["sustained_qps"], hot["offered_qps"]))'
# Serving manifests merge with inference manifests side by side; report
# renders one table per kind.
python -m repro.cli sweep --serial --trees 2 --dataset mq2008 --systems ideal-32-core booster --inference --axis max_depth=2 --out /tmp/serve-inf.jsonl
python -m repro.cli merge /tmp/serve-mixed.jsonl /tmp/serve.jsonl /tmp/serve-inf.jsonl | tee /tmp/serve-merge.log
grep -q 'kinds: inference+serving' /tmp/serve-merge.log
python -m repro.cli report --from-manifest /tmp/serve-mixed.jsonl | tee /tmp/serve-report.log
grep -q 'p99 (ms)' /tmp/serve-report.log
grep -q 'booster (ms)' /tmp/serve-report.log

echo "=== smoke 4/5: work stealing over a remote store URL ==="
# The smoke-2 story again, but the workers share nothing except the URL
# of a `repro store-serve` process: leases, the sweep descriptor, and
# steal-status all travel over HTTP, and each worker keeps a private
# (cold) local cache -- no shared filesystem anywhere.
rm -rf /tmp/remote-store /tmp/repro-ci-remote-w1 /tmp/repro-ci-remote-w2
python -m repro.cli store-serve /tmp/remote-store --port 0 > /tmp/store-serve.log 2>&1 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT
for _ in $(seq 50); do grep -q 'store-serve: serving' /tmp/store-serve.log && break; sleep 0.1; done
STORE_URL=$(sed -n 's/.* at \(http:[^ ]*\)$/\1/p' /tmp/store-serve.log)
test -n "$STORE_URL"
REMOTE="python -m repro.cli sweep --serial --trees 2 --dataset mq2008 $STEAL_AXES --systems ideal-32-core booster --coordinate $STORE_URL --lease-ttl 300"
REPRO_CACHE_DIR=/tmp/repro-ci-remote-w1 $REMOTE --out /tmp/remote-w1.jsonl > /tmp/remote-w1.log 2>&1 &
RW1=$!
REPRO_CACHE_DIR=/tmp/repro-ci-remote-w2 $REMOTE --out /tmp/remote-w2.jsonl | tee /tmp/remote-w2.log
wait "$RW1"
cat /tmp/remote-w1.log
python -m repro.cli steal-status "$STORE_URL" | tee /tmp/remote-status.log
# Both workers must have claimed at least one scenario over the wire.
grep -Eq 'steal: claimed [1-9][0-9]*/6' /tmp/remote-w1.log
grep -Eq 'steal: claimed [1-9][0-9]*/6' /tmp/remote-w2.log
# Neither worker crashed and the TTL is 300 s, so a steal can only come
# from a change wake-up racing the claim protocol.
grep -qF '0 stale lease(s) reclaimed' /tmp/remote-w1.log
grep -qF '0 stale lease(s) reclaimed' /tmp/remote-w2.log
# The union of the worker manifests equals the full sweep (smoke 2
# already produced it), and the *served directory* -- a plain local store
# the whole time -- holds exactly one done lease per scenario.
python -m repro.cli merge /tmp/remote-merged.jsonl /tmp/remote-w1.jsonl /tmp/remote-w2.jsonl
python -c 'import json, pathlib; load = lambda p: {d["cache_key"]: d for d in map(json.loads, open(p))}; full = load("/tmp/steal-full.jsonl"); merged = load("/tmp/remote-merged.jsonl"); assert set(full) == set(merged), (sorted(full), sorted(merged)); assert all(m["error"] is None and m["comparison"] == full[k]["comparison"] and m["scenario"] == full[k]["scenario"] for k, m in merged.items()), "remote-store merge diverges from the full sweep"; leases = list(pathlib.Path("/tmp/remote-store").glob("*.lease")); assert len(leases) == len(full), (len(leases), len(full)); assert all(json.loads(p.read_bytes())["done"] for p in leases), "undone lease left behind"; print(f"remote-store merge matches the full sweep ({len(merged)} scenarios, {len(leases)} leases, all done)")'
kill "$SRV" && trap - EXIT

echo "=== smoke 5/5: warm start loads the stored DRAM calibration ==="
# The first compare trains and calibrates into a fresh store; the second
# process loads both.  Output must not change, and the store must hold
# exactly one calibration entry.
export REPRO_CACHE_DIR=/tmp/repro-ci-warm-cache
rm -rf /tmp/repro-ci-warm-cache
python -m repro.cli compare mq2008 --trees 2 > /tmp/warm-1.log
python -m repro.cli compare mq2008 --trees 2 > /tmp/warm-2.log
cmp /tmp/warm-1.log /tmp/warm-2.log
test "$(find /tmp/repro-ci-warm-cache -maxdepth 1 -name 'dram*.pkl' | wc -l)" -eq 1
echo "warm start: identical output, one stored calibration"

echo "all sweep smokes passed"
