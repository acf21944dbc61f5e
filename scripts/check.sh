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
# the decoders (v1 and chunked v2), arbitrary/damaged JSON must never
# panic the parser (and every golden must re-print byte-identically),
# arbitrary/damaged HTTP requests and responses must never panic either
# parser (and the size caps hold at their boundaries), and randomly
# panicking sweep jobs must never lose a slot.
cargo test -q -p mlp-isa --test prop
cargo test -q -p mlp-isa --test chunked_prop
cargo test -q -p mlp-json --test prop
cargo test -q -p mlp-serve --test http_prop
cargo test -q -p mlp-par --test prop

echo "==> model + observability property suites"
# Algebraic laws of the §2.2 CPI model and conservation invariants of
# the mlp-obs counters the engines flush.
cargo test -q -p mlp-model --test prop
cargo test -q -p mlpsim --test prop

echo "==> mlp-stats smoke (armed run -> summary/timeline/self-diff)"
# One small armed experiment with an event trace, then the analyzer over
# its own output: the self-diff must report zero deltas and exit 0.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
MLP_OBS=all MLP_THREADS=1 target/release/mlp-experiments \
    --only epochs --scale quick \
    --json "$smoke_dir" --events "$smoke_dir" >/dev/null
grep -q '"histograms": {' "$smoke_dir/epochs.quick.json"
target/release/mlp-stats summary "$smoke_dir/epochs.quick.json" >/dev/null
target/release/mlp-stats timeline "$smoke_dir/epochs.quick.jsonl" >/dev/null
target/release/mlp-stats diff \
    "$smoke_dir/epochs.quick.json" "$smoke_dir/epochs.quick.json" >/dev/null

echo "==> streaming smoke (spilled trace run == in-memory run)"
# Force every trace to spill as a chunked v2 file and re-run an
# experiment from disk: the streamed report must be byte-identical to
# the in-memory one.
stream_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir" "$stream_dir"' EXIT
target/release/mlp-experiments table5 --scale quick \
    --json "$stream_dir/mem" >/dev/null
MLP_TRACE_CACHE_BYTES=0 target/release/mlp-experiments table5 --scale quick \
    --trace-cache "$stream_dir/cache" --json "$stream_dir/disk" >/dev/null
ls "$stream_dir"/cache/*.mlp2 >/dev/null   # traces really went to disk
diff "$stream_dir/mem/table5.quick.json" "$stream_dir/disk/table5.quick.json"

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

echo "==> mlp-serve smoke (daemon response == CLI artifact bytes)"
# Start the daemon on an ephemeral port, run one experiment through it,
# and diff the response byte-for-byte against the file the CLI writes
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
target/release/mlp-loadgen run "$serve_addr" fm quick > "$serve_dir/served.json"
target/release/mlp-experiments fm --scale quick --json "$serve_dir/cli" >/dev/null
diff "$serve_dir/served.json" "$serve_dir/cli/fm.quick.json"
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
