#!/usr/bin/env bash
# Full local gate: formatting, lints, release build, tests.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> examples (release)"
# The examples are the main in-repo callers of the row-fed entry points
# over live generators: quickstart runs Simulator::run,
# design_space_sweep CycleSim::run, smt_corun SmtSim::run, and
# runahead_exploration Simulator::run with perfect branch prediction,
# whose own pass masks the predictor's verdicts, and database_mlp_study
# counts its miss census from the Access values mlp-mem returns. A
# non-zero exit fails the gate.
for example in quickstart design_space_sweep smt_corun runahead_exploration \
    database_mlp_study; do
    cargo run -q --release --example "$example" >/dev/null
done

echo "==> benchmark builds against the workspace API"
# mlpbench/ is its own package that calls registry::find(..).run(..),
# exec::run_isolated and runner::shared_seeded, and times the predictors
# through BranchPredictor::new(BranchPredictorConfig::default()),
# BranchObserver::observe_branch and LastValuePredictor::{new, peek,
# train}: a predictor change keeps these. Its lock file is stale,
# so cargo rewrites it; files under mlpbench/ change only together with
# the benchmark, so the lock is restored afterwards.
bench_lock=$(mktemp)
cp mlpbench/Cargo.lock "$bench_lock"
bench_ok=0
cargo check --offline --manifest-path mlpbench/Cargo.toml --target-dir target || bench_ok=$?
cp "$bench_lock" mlpbench/Cargo.lock
rm -f "$bench_lock"
[ "$bench_ok" -eq 0 ]

echo "==> cargo test"
cargo test -q --workspace

echo "==> golden snapshots (quick scale, release)"
# The golden suite is compiled out of debug builds (quick-scale runs are
# far too slow unoptimized), so it needs an explicit release invocation.
cargo test -q --release -p mlp-experiments --test golden

echo "==> fault isolation (end to end, release)"
# Same deal: spawns real quick-scale CLI runs with MLP_FAULT armed and
# checks survivors stay byte-identical, so release only.
cargo test -q --release -p mlp-experiments --test faults

echo "==> differential cross-validation (release)"
# MLPsim vs CycleSim over identical trace windows, compared through the
# mlp-obs counter layer — the paper's Table 1/3/4 agreement as a gate.
cargo test -q --release -p mlp-experiments --test differential

echo "==> no-panic property suites"
# Hostile-input coverage: arbitrary/mutated trace bytes must never panic
# the chunked v2 decoder, arbitrary/damaged JSON must never
# panic the parser (and every golden must re-print byte-identically),
# arbitrary/damaged HTTP requests and responses must never panic either
# parser (and the size caps hold at their boundaries), and randomly
# panicking sweep jobs must never lose a slot.
cargo test -q -p mlp-isa --test prop
cargo test -q -p mlp-isa --test chunked_prop
cargo test -q -p mlp-json --test prop
cargo test -q -p mlp-serve --test http_prop
cargo test -q -p mlp-par --test prop

echo "==> trace codec suites (release)"
# The chunked codec's varint, delta and checksum arithmetic must also
# hold with debug assertions and overflow checks compiled out.
cargo test -q --release -p mlp-isa

echo "==> memory-hierarchy suites (release)"
# The hierarchy must match its reference copy, outcomes and per-level
# counters alike, in the optimized build too.
cargo test -q --release -p mlp-mem

echo "==> predictor suites (release)"
# Predictors keep no statistics: the tests count with BranchStats::record
# and ValueStats::record as the engines do, in the optimized build too.
cargo test -q --release -p mlp-predict

echo "==> epoch-model suites (release)"
# Runs making their own program-order pass and runs reading a shared
# annotation column must report identically in the optimized build the
# sweeps use, too.
cargo test -q --release -p mlpsim

echo "==> cycle-pipeline suites (release)"
# Runs starting from one shared warm state must equal cold runs, report
# and counters alike, in the optimized build the sweeps use.
cargo test -q --release -p mlp-cyclesim

echo "==> model + observability property suites"
# Algebraic laws of the §2.2 CPI model and conservation invariants of
# the mlp-obs counters the engines flush.
cargo test -q -p mlp-model --test prop
cargo test -q -p mlpsim --test prop

echo "==> mlp-stats smoke (armed run -> summary/timeline/self-diff)"
# One small armed experiment with an event trace, then the analyzer over
# its own output: the self-diff must report zero deltas and exit 0.
# epochs' six runs share three annotation keys (one per workload), so
# the run must report one program-order pass per key, six runs reading
# the columns, and no warm-up pass: a key that drifts back to a pass of
# its own beside its column fails here.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
MLP_OBS=all MLP_THREADS=1 target/release/mlp-experiments \
    --only epochs --scale quick \
    --json "$smoke_dir" --events "$smoke_dir" >/dev/null
grep -q '"histograms": {' "$smoke_dir/epochs.quick.json"
grep -q '"mlpsim.annotate.passes": 3,' "$smoke_dir/epochs.quick.json"
grep -q '"mlpsim.annotate.shared_runs": 6,' "$smoke_dir/epochs.quick.json"
if grep -q '"mlpsim.warm.passes"' "$smoke_dir/epochs.quick.json"; then
    echo "epochs made a warm-up pass beside its shared columns" >&2
    exit 1
fi
target/release/mlp-stats summary "$smoke_dir/epochs.quick.json" >/dev/null
target/release/mlp-stats timeline "$smoke_dir/epochs.quick.jsonl" >/dev/null
target/release/mlp-stats diff \
    "$smoke_dir/epochs.quick.json" "$smoke_dir/epochs.quick.json" >/dev/null
# figure10's perfect-branch-prediction arms walk the default predictor,
# so each reads its real twin's column: two keys per workload (perfect
# instruction fetch or not), six passes for thirty runs. A perfect-BP
# key that drifts back to a pass of its own fails here. Its perfect
# value-prediction arms have no table to train, so no run walks its
# warm-up prefix.
MLP_OBS=counters MLP_THREADS=1 target/release/mlp-experiments \
    --only figure10 --scale quick --json "$smoke_dir" >/dev/null
grep -q '"mlpsim.annotate.passes": 6,' "$smoke_dir/figure10.quick.json"
grep -q '"mlpsim.annotate.shared_runs": 30,' "$smoke_dir/figure10.quick.json"
if grep -q '"mlpsim.warm.passes"' "$smoke_dir/figure10.quick.json"; then
    echo "figure10 made a warm-up pass without a value-predictor table" >&2
    exit 1
fi

echo "==> streaming smoke (spilled trace run == in-memory run)"
# Force every trace to spill as a chunked v2 file and re-run experiments
# from disk: the streamed reports must be byte-identical to the
# in-memory ones. table5 covers the in-order kernel; in epochs the 64C
# and RAE runs share one annotation key per workload, so in memory they
# read the column their key's first run builds, while spilled each run
# annotates the chunks it streams with a program-order pass of its own;
# figure10's perfect-branch-prediction arms mask the predictor's
# verdicts, over their real twins' columns in memory and over their own
# passes spilled; fm runs the cycle pipeline, whose functional warm-up
# then reads a chunked source; in rae-timing the conventional, perfect-L2 and
# runahead runs share one warm state per workload in memory, while
# spilled each run warms itself. A spill leaves its trace file alone,
# with no generator snapshot beside it. Then a new process runs table5
# at a longer window on the same cache: it adopts each spilled file,
# replays the generator past what the file holds and appends, and its
# report must equal the in-memory run's at that window. The grown
# database file must then hold exactly the generator's stream: its
# `mlp-trace stats` equal those of a fresh `mlp-trace gen` of the same
# length. Its bytes differ from the fresh file's, since a short frame
# stays where the quick-scale spill ended, so `cmp` cannot check this;
# the stats comparison also runs the streamed fold over uneven chunks.
stream_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir" "$stream_dir"' EXIT
target/release/mlp-experiments --only table5,epochs,figure10,fm,rae-timing --scale quick \
    --json "$stream_dir/mem" >/dev/null
MLP_TRACE_CACHE_BYTES=0 target/release/mlp-experiments \
    --only table5,epochs,figure10,fm,rae-timing --scale quick \
    --trace-cache "$stream_dir/cache" --json "$stream_dir/disk" >/dev/null
ls "$stream_dir"/cache/*.mlp2 >/dev/null   # traces really went to disk
if compgen -G "$stream_dir/cache/*.ckpt" >/dev/null; then
    echo "a spilled run left .ckpt files in its cache" >&2
    exit 1
fi
for exp in table5 epochs figure10 fm rae-timing; do
    diff "$stream_dir/mem/$exp.quick.json" "$stream_dir/disk/$exp.quick.json"
done
target/release/mlp-experiments table5 --inst-window 2M --json "$stream_dir/mem" >/dev/null
MLP_TRACE_CACHE_BYTES=0 target/release/mlp-experiments table5 --inst-window 2M \
    --trace-cache "$stream_dir/cache" --json "$stream_dir/disk" >/dev/null
diff "$stream_dir/mem/table5.custom.json" "$stream_dir/disk/table5.custom.json"
grown="$stream_dir/cache/database-42.mlp2"
grown_insts=$(target/release/mlp-trace info "$grown" | sed -n 's/^instructions: *//p')
target/release/mlp-trace gen database "$grown_insts" "$stream_dir/ref.mlp2" 42 >/dev/null
target/release/mlp-trace stats "$grown" > "$stream_dir/grown.stats"
target/release/mlp-trace stats "$stream_dir/ref.mlp2" > "$stream_dir/ref.stats"
diff "$stream_dir/grown.stats" "$stream_dir/ref.stats"
# The trace writer is deterministic (the same trace twice is the same
# bytes), a written trace reads back through info and dump, and a
# spilled cache file reads back as an ordinary trace.
target/release/mlp-trace gen database 200000 "$stream_dir/x.mlp2" >/dev/null
target/release/mlp-trace gen database 200000 "$stream_dir/y.mlp2" >/dev/null
cmp "$stream_dir/x.mlp2" "$stream_dir/y.mlp2"
target/release/mlp-trace info "$stream_dir/x.mlp2" >/dev/null
target/release/mlp-trace dump "$stream_dir/x.mlp2" 5 >/dev/null
spilled=("$stream_dir"/cache/*.mlp2)
target/release/mlp-trace stats "${spilled[0]}" >/dev/null

echo "==> surrogate property + cross-validation suites"
# Planted-coefficient recovery, ridge totality on hostile designs, and
# row-order-invariant fits (prop, also in the debug workspace run); then
# k-fold CV over the golden report corpus against the published 5%/15%
# tolerance (release only: 231-wide ridge fits).
cargo test -q --release -p mlp-surrogate --test prop
cargo test -q --release -p mlp-surrogate --test crossval

echo "==> surrogate smoke (train from reports -> predict -> self-validate)"
# Run a few experiments with --json, train the surrogate from the report
# directory (only reports with full sweep coordinates contribute rows —
# the others must be tolerated, not fatal), and check the schema-tagged
# report lands with an in-tolerance verdict (exit 0).
surr_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir" "$stream_dir" "$surr_dir"' EXIT
target/release/mlp-experiments --only sweep1000,table1,figure7 --scale quick \
    --json "$surr_dir" >/dev/null
target/release/mlp-experiments --surrogate "$surr_dir" >/dev/null
grep -q '"schema": "mlp-surrogate.report/v1"' "$surr_dir/surrogate.json"

echo "==> serve chaos suite (hang/io-error/cache-corrupt/shed, release)"
# Arms each MLP_FAULT serve site in a real daemon process and checks the
# faulted job degrades while sibling responses stay byte-identical and
# the daemon keeps serving.
cargo test -q --release -p mlp-serve --test chaos

echo "==> armed smoke (MLP_OBS=counters output == unarmed output)"
# Arming the mlp-obs counters must not change a result: the statistics
# reset at the warm-up boundary and the end-of-run flushes must leave
# the text alone; l3 also runs a hierarchy with an L3. Timings go to
# stderr.
target/release/mlp-experiments --only fm,l3 --scale quick > "$stream_dir/unarmed.txt"
MLP_OBS=counters target/release/mlp-experiments --only fm,l3 --scale quick \
    > "$stream_dir/armed.txt"
diff "$stream_dir/unarmed.txt" "$stream_dir/armed.txt"

echo "==> mlp-serve smoke (daemon response == CLI artifact bytes)"
# Start the daemon on an ephemeral port, run two experiments through it,
# and diff each response byte-for-byte against the file the CLI writes
# for the same experiment and scale.
serve_dir=$(mktemp -d)
target/release/mlp-serve --addr 127.0.0.1:0 --port-file "$serve_dir/port" \
    --workers 2 --cache-dir "$serve_dir/cache" 2>/dev/null &
serve_pid=$!
# A failed step below exits early; never leave the daemon behind.
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir" "$stream_dir" "$surr_dir" "$serve_dir"' EXIT
for _ in $(seq 150); do [ -s "$serve_dir/port" ] && break; sleep 0.1; done
serve_addr=$(cat "$serve_dir/port")
target/release/mlp-loadgen get "$serve_addr" /healthz | grep -q '"status":"ok"'
for exp in fm l3; do
    target/release/mlp-loadgen run "$serve_addr" "$exp" quick > "$serve_dir/$exp.served.json"
    target/release/mlp-experiments "$exp" --scale quick --json "$serve_dir/cli" >/dev/null
    diff "$serve_dir/$exp.served.json" "$serve_dir/cli/$exp.quick.json"
done
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

echo "==> line coverage (fail-soft; see scripts/coverage.sh)"
if scripts/coverage.sh; then
    :
else
    rc=$?
    if [ "$rc" -eq 2 ]; then
        echo "coverage regression — failing the gate"
        exit 1
    fi
    echo "  (skipped: no usable coverage tooling in this environment)"
fi

echo "All checks passed."
