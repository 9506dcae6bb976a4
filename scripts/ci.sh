#!/usr/bin/env bash
# CI gate: formatting, lints, release build, and the full test suite.
# Everything runs offline against the vendored/std-only workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

# Reads `grep -n` matches (file:line:text) and prints file:line for each
# one in non-test code: outside a tests/ directory and before its file's
# first #[cfg(test)] (lines from there on are test code).
non_test_lines() {
  while IFS=: read -r file line _; do
    case "$file" in */tests/*) continue ;; esac
    first_test=$(grep -n '#\[cfg(test)\]' "$file" | head -1 | cut -d: -f1)
    if [ -z "$first_test" ] || [ "$line" -lt "$first_test" ]; then echo "$file:$line"; fi
  done
}

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== one way to read adjacency (no per-edge accessor) =="
# GraphView hands out rows (out_edges / in_edges); a per-edge accessor
# re-resolves the row for every edge, so none may come back.
if grep -rnE 'fn (out|in)_edge\(' crates/*/src; then
  echo "per-edge accessor reintroduced: read the row with out_edges(v) / in_edges(v)"; exit 1
fi

echo "== one way to write an in-row (rebuilt once per batch, no point mutator) =="
# OverlayGraph::apply writes out-rows only, and every in-row a batch
# touched is rebuilt from them by the routine undo shares; a per-edge
# mutator that edits an in-row in place may not come back.
if grep -rnE 'fn (insert_edge|delete_edge|weight_of)\b|fn ensure_in_patch' crates/graph/src; then
  echo "point mutator reintroduced: write out-rows in OverlayGraph::apply and let GraphSnapshot::rebuild_in_rows derive the in-rows"; exit 1
fi

echo "== one way to start and tear down a run (no cold/typed twins, no second codec) =="
# A cold start is the seeded run from initial_state, a parallel report is
# the shards' reports merged, and GPC1 is the only binary graph format.
if grep -rnE 'fn seed_(initial|shard)_events|struct (Parallel)?SeededOutcome|struct ShardPartial|fn (en|de)code_binary' crates/*/src; then
  echo "deleted twin reintroduced: seed through seed_events, return Outcome<V> / ParallelOutcome<V>, merge through ExecutionReport::merge"; exit 1
fi

echo "== one way to drain turbo (no priority queue behind the bitmap sweep) =="
# Turbo sweeps one active bitmap in vertex order; the bucketed scheduler's
# urgency hint, key quantizer and enqueue-key column may not come back.
if grep -rnE 'fn urgency\(|enq_key|key_of|KEY_SPACE' crates/*/src; then
  echo "bucketed drain reintroduced: deposit into Pool::pending / active and let sweep() order the work"; exit 1
fi

echo "== one kind of thing cached in gp-serve (lane-local typed columns, constants not knobs) =="
# A lane caches columns in the algorithm's own value type and brings them
# to an epoch one way; the shared mutex-guarded caches, the projected f64
# copies and the eight never-set ServeConfig fields may not come back.
if grep -rnE 'SharedCaches|struct ClassCache|fn warm_step|Arc<Vec<f64>>' crates/serve/src; then
  echo "second cache mechanism reintroduced: keep state in executor::Column and advance it through Class::catch_up"; exit 1
fi
# A PageRank column catches up by its residual, which takes any state to
# the pinned graph's fixed point, so nothing counts the deltas it merged
# and no class carries numbers of its own: the drift cap, its streak and
# the per-class Policy may not come back.
if grep -rnE 'warm_streak|WARM_LIMIT|struct Policy' crates/serve/src; then
  echo "PageRank drift cap reintroduced: a behind PageRank column catches up by residual_seeds_with, with no cap"; exit 1
fi
if grep -nE 'pub (queue_capacity|global_capacity|max_batch|batch_window|update_queue|degrade_lag|warm_limit|path_cache_sources)' crates/serve/src/lib.rs; then
  echo "never-set ServeConfig field reintroduced: it is a constant beside the struct until two callers need different values"; exit 1
fi

echo "== one way to converge a column in gp-serve (the class's own algorithm, one run per key) =="
# A cold column is initial_state + one turbo run with the class's own
# algorithm, for all five classes; the 8-lane fused formulation of the
# path classes, or any other algorithm defined inside the service, may
# not come back.
if grep -rnE 'FusedPaths|PathKind|LANES|Fuse<' crates/serve/src; then
  echo "path fusion reintroduced: a class is one algorithm type, run cold through Class::run_cold"; exit 1
fi
if grep -rn 'impl.*DeltaAlgorithm for' crates/serve/src; then
  echo "gp-serve defines an algorithm of its own: algorithms live in gp-algorithms, where golden checks them"; exit 1
fi

echo "== the incremental step is resident (one pool per owner) =="
# IncrementalEngine and every gp-serve executor class keep one DeltaPool
# across runs, used by each seed plan and then by the turbo run; a finished
# plan or run leaves it empty, so reuse is free. The per-call entry points
# allocate and fill n-length columns every call, and the BTreeMap seed
# accumulator cost a tree insert per event (EXPERIMENTS.md, "Resident
# incremental step").
if grep -rnE 'run_turbo_seeded\(|incremental_seeds\(' crates/stream/src crates/serve/src; then
  echo "per-call turbo run or seed plan in gp-stream / gp-serve: use the owner's resident DeltaPool (incremental_seeds_with, run_turbo_with)"; exit 1
fi
if grep -rnE 'fn coalesce_into|fn into_plan' crates/algorithms/src; then
  echo "BTreeMap seed accumulator reintroduced: seeds coalesce in a DeltaPool"; exit 1
fi
# An incremental algorithm's delta is its value type, so a converged value
# is its propagation basis and needs no conversion hook.
if grep -rn 'fn basis_of' crates/algorithms/src; then
  echo "basis_of reintroduced: IncrementalAlgorithm has Delta = Value; read the value"; exit 1
fi

echo "== one pool in gp-turbo (no vertex shards, no threads, no shard-count knob) =="
# Turbo is one DeltaPool swept by one loop. Vertex sharding — worker threads,
# outboxes, round barriers, the two round drivers and the shard-count knob
# on every surface above it — cost 1.17-1.51x the events and never read
# ahead of one pool in two timing sweeps running (EXPERIMENTS.md, "Sharded
# turbo"), and may not come back without a measurement that says otherwise.
if grep -rnE 'Barrier|RwLock|thread::|Outbox|drive_(threaded|sequential)' crates/turbo/src; then
  echo "sharded turbo reintroduced: gp-turbo is one DeltaPool and one round loop"; exit 1
fi
if grep -rnE 'turbo[_-]shards' crates scripts README.md DESIGN.md; then
  echo "turbo shard-count knob reintroduced: there is one pool, so there is nothing to set"; exit 1
fi

echo "== queue storage follows the slice, one tick path =="
# A bin allocates rows for the longest resident slice, not the configured
# geometry (261 MiB a machine at the paper's), and Machine::tick is the one
# way a cycle is simulated: the every-cycle sweep it replaced was kept only
# while the two were diffed, and may not come back as a second path.
if grep -nE 'vec!\[None; cfg\.rows \* cfg\.cols\]' crates/core/src/queue.rs; then
  echo "full-geometry queue storage reintroduced: Bin::new takes the rows the resident slice reaches"; exit 1
fi
if grep -rnE 'tick_reference|tick_every_cycle|fn tick_old' crates/core/src; then
  echo "second tick path reintroduced: park and wake units in Machine::tick (DESIGN.md 4a)"; exit 1
fi

echo "== one evaluation sweep (no per-figure binaries, one app x workload loop) =="
# gp_bench::evaluate runs every engine once per (app, workload) cell and
# every figure, Table V and the verdict are views of that grid
# (crates/bench/src/figures.rs). A per-figure binary, or a second sweep
# beside evaluate's, simulates the same cells again and can print a table
# the verdict was not computed from.
if ls crates/bench/src/bin/fig*.rs crates/bench/src/bin/tab05_power.rs 2>/dev/null; then
  echo "per-figure binary reintroduced: add a view to crates/bench/src/figures.rs; report prints it"; exit 1
fi
if [ "$(grep -rE 'for &?[a-z_]+ in &?[a-z_.]*(apps|workloads)\b' crates/bench/src | wc -l)" -ne 2 ]; then
  echo "second (app x workload) sweep under crates/bench/src: read the Grid that gp_bench::evaluate returns"; exit 1
fi

echo "== one application table (no per-front-end algorithm ladder, no second app enum) =="
# gp_algorithms::App names the applications and with_algorithm! is the one
# place a name becomes a concrete algorithm (crates/algorithms/src/table.rs).
# A front end that constructs one itself has started a ladder of its own,
# and a second enum is a second set of spellings and input rules to drift.
if grep -nE '(PageRankDelta|Adsorption|Sssp|Bfs|ConnectedComponents|Sswp)::new\(' \
    src/bin/gpulse.rs crates/bench/src/lib.rs crates/bench/src/bin/*.rs \
    crates/chaos/src/campaign.rs crates/verify/src/oracle.rs; then
  echo "algorithm constructed in a front end: dispatch through gp_algorithms::with_algorithm!"; exit 1
fi
if grep -rnE 'enum (App|AlgoKind)\b' --include='*.rs' src crates examples tests | grep -v '^crates/algorithms/src/'; then
  echo "second application enum: add the row to gp_algorithms::App (crates/algorithms/src/table.rs)"; exit 1
fi

echo "== gp-algorithms holds what the App table runs (no algorithm outside it) =="
# Every algorithm a front end, bench, service or example runs is a row of
# gp_algorithms::App and is judged by accept. The general linear solver and
# its damping helper sat outside both: no row, flag, bench binary or serve
# class ran them, and accept would have refused any inexact run of theirs.
# Test code may name them.
if grep -rnE --include='*.rs' '[L]inearSolver|[s]cale_for_convergence' crates/*/src src examples \
    | non_test_lines | grep .; then
  echo "algorithm outside the application table: make it a row of gp_algorithms::App, or leave it out"; exit 1
fi

echo "== one place decides where a slice ends (the container holds the graph only) =="
# Slicing is a run-time property of the machine's queue capacity (§IV-F):
# Partition::contiguous cuts any GraphView, a mapped container included.
# The stored per-slice index GPC1 version 1 carried was a second copy of
# that rule, fixed at write time and read by no engine, and may not come
# back with its cap option or flag.
if grep -rnE 'Slice[E]xtent|slice_[e]xtents|slice_[v]ertices|SEG_SLICE_[I]NDEX' crates src tests scripts; then
  echo "stored slice index reintroduced: cut slices with Partition::contiguous over the mapped graph"; exit 1
fi

echo "== one event step (Algorithm 1 written once, in gp_algorithms::engine) =="
# Reduce, local termination and the out-row walk are apply_event and
# for_each_propagated; every engine calls them, so the termination test
# has one call site. Lines from the first #[cfg(test)] of a file on are
# test code and may call it directly.
if grep -rn --include='*.rs' '\.propagation_basis(' crates \
    | grep -v '^crates/algorithms/src/engine.rs:' \
    | non_test_lines | grep .; then
  echo "a second event step: reach reduce / local termination through gp_algorithms::engine::apply_event"; exit 1
fi

echo "== one conservation identity (gp_algorithms::engine::EventCounts) =="
# Every generated event is coalesced or processed: turbo, the chaos
# executor and the cycle model test that through EventCounts::check, the
# one place the identity and its messages live. It holds exactly for every
# engine, a merged shard-parallel report included (its outbox merges count
# as coalesced), so no in-flight allowance or strict/bounded switch may
# come back. Nor may a second copy of the identity, the zeroed report once
# faked to reach it, chaos's own counter struct or the trait hooks no
# engine read (progress, global_threshold, needs_weights). Lines from the
# first #[cfg(test)] of a file on are test code and may quote the messages.
identity_lines=$(grep -rn --include='*.rs' 'absorbed more events than generated' crates/*/src \
    | non_test_lines | wc -l || true)
if [ "$identity_lines" -ne 1 ]; then
  echo "the conservation identity is written $identity_lines times under crates/*/src: check through EventCounts::check"; exit 1
fi
if grep -rnE 'from_event_counters|struct Totals|global_threshold|progress_accum|fn progress\(|fn needs_weights' crates/*/src; then
  echo "deleted conservation twin or unread trait hook reintroduced: count in EventCounts, check with EventCounts::check"; exit 1
fi
if grep -rnE --include='*.rs' 'check_within|check_event_conservation\((true|false)\)' crates/*/src \
    | non_test_lines | grep .; then
  echo "bounded conservation mode reintroduced: every report balances exactly, check it with EventCounts::check"; exit 1
fi

echo "== a run is compared whole (gp_algorithms::same_run) =="
# Two runs that must reproduce each other are compared as whole records
# ({:#?} through same_run), so a field added to a record is compared
# without a hand-written field list to extend; turbo-vs-golden acceptance
# is the one rule below, with no degree-scaled widening. The
# oracle's turbo comparator, turbo's rendered log and the out-of-core
# bench's residue bound may not come back.
if [ "$(grep -rn --include='*.rs' 'fn same_run' crates/*/src | wc -l)" -ne 1 ]; then
  echo "same_run must be defined exactly once under crates/*/src (gp_algorithms)"; exit 1
fi
if grep -rn 'fn same_turbo_outcome' crates/*/src \
    || grep -rn 'fn render_log' crates/turbo/src \
    || grep -rn 'residue_bound' crates/bench/src; then
  echo "hand-picked run comparison or second acceptance bound reintroduced: compare records with same_run, judge values with gp_algorithms::accept"; exit 1
fi

echo "== the read path never rebuilds an epoch (an executor reads its pinned epoch) =="
# The store keeps a graph only for the current epoch; SnapshotStore::epoch
# rebuilds any older one from it by undoing the delta of every epoch in
# between. An executor reads the epoch it pinned and that epoch's delta,
# nothing else; a lookup anywhere else in gp-serve would put a rebuild on
# the read path. Lines from the first #[cfg(test)] of a file on are test
# code and may look epochs up.
if grep -rn --include='*.rs' '\.epoch(' crates/serve/src \
    | grep -v '^crates/serve/src/snapshot.rs:' \
    | non_test_lines | grep .; then
  echo "epoch lookup on the gp-serve read path: serve from the pinned epoch and its delta"; exit 1
fi

echo "== a path column replays one epoch (no chain replay, no graph per column) =="
# A path column exactly one epoch behind the pin replays the pinned
# epoch's stored delta; one further behind runs cold. A chain bound, a
# ranged delta lookup or a net diff between two graphs would bring back
# the chain replay, and a graph held by a column keeps an old base alive.
if grep -rnE --include='*.rs' 'MAX_WARM_CHAIN|fn deltas\(|\.deltas\(|fn between\(|::between\(' \
    crates/serve/src crates/graph/src | non_test_lines | grep . \
  || grep -Hn 'GraphSnapshot' crates/serve/src/executor.rs | non_test_lines | grep .; then
  echo "chain replay or a per-column graph reintroduced: a path column replays the pinned epoch's delta or runs cold"; exit 1
fi

echo "== a retained epoch is its delta (no stored rows, no shared rebuilds) =="
# A retained epoch costs the batch that made it, which its epoch holds
# anyway; OverlayGraph::undo derives the touched in-rows from the newer
# graph when a lookup rebuilds. Stored pre-batch in-rows, an undo record
# beside the batch or a Weak handle to share rebuilds would bring back the
# per-epoch copy this replaced.
if grep -rnE --include='*.rs' 'old_in_rows|restore_rows|struct Undo|Weak<' \
    crates/serve/src crates/graph/src | non_test_lines | grep .; then
  echo "stored undo rows reintroduced: keep each epoch's delta and rebuild with OverlayGraph::undo"; exit 1
fi

echo "== one canonicalization (an edge stream becomes CSR rows through one counting sort) =="
# GraphBuilder::build and the container builder's buckets both go through
# builder::csr_rows: count per row, scatter in stream order, sort each row
# stably by column, keep the first of a repeated one. A global sort by the
# (src, dst) pair, the cloned edge list it sorted, or a spill file loaded
# whole would be a second canonicalization to keep in step with the first.
if grep -rnE 'sort(_unstable)?_by_key\(.*\((src, *dst|[a-z_]+\.0, *[a-z_]+\.1)\)' \
    crates/graph/src/builder.rs crates/graph/src/container/ \
  || grep -rnE 'read_records|self\.edges\.clone\(\)' crates/graph/src; then
  echo "second canonicalization reintroduced: build CSR rows with builder::csr_rows (count, scatter, per-row stable sort)"; exit 1
fi

echo "== one R-MAT quadrant walk (generators::rmat_step and rmat_scramble) =="
# rmat_edges and gp-stream's UpdateStream place an edge through the same
# step and the same scramble, so the graphs and the update hot spots they
# produce cannot drift apart. A second quadrant chain or scramble would.
if grep -rnE 'roll < a \+ b|wrapping_mul\(0x9E37_79B9_7F4A_7C15\) %' crates src tests examples \
    | grep -v '^crates/graph/src/generators/rmat\.rs:'; then
  echo "second R-MAT quadrant walk reintroduced: call gp_graph::generators::{rmat_step, rmat_scramble}"; exit 1
fi

echo "== one description per bench record (gp_bench::json::SCHEMAS) =="
# A bench record's shape is its Schema table in crates/bench/src/json.rs:
# validation, --against's exact fields and row pairing, and bench_check's
# tag lookup all walk it. A per-schema validator, a hand-kept exact-field
# list or a schema tag spelled outside the table would be a second copy of
# the record to keep in step with the first. Lines from the first
# #[cfg(test)] of a file on are test code and may spell tags.
if grep -rnE --include='*.rs' 'fn validate_(serve|chaos|outofcore)|_EXACT: \[|"gp-bench/' crates/bench/src \
    | grep -vE '^crates/bench/src/json\.rs:[0-9]+:pub static [A-Z]+: Schema = Schema \{ tag: "gp-bench/' \
    | non_test_lines | grep .; then
  echo "second description of a bench record: extend its table in gp_bench::json (SCHEMAS)"; exit 1
fi

echo "== one acceptance rule (gp_algorithms::accept) =="
# Every backend-vs-reference verdict — the oracle's legs, the evaluation's
# cross-check, the out-of-core bench, the chaos campaign and serve_bench's
# PageRank samples — is gp_algorithms::accept, the one non-test reader of
# comparison_tolerance(). A second reader, or a comparator handed the
# tolerance as a parameter, is a second rule to keep in step when the bound
# changes. Test code may read the tolerance.
tolerance_reads=$(grep -rn --include='*.rs' 'comparison_tolerance()' crates/*/src src/bin \
    | grep -v 'fn comparison_tolerance' | non_test_lines || true)
if grep -v '^crates/algorithms/src/lib.rs:' <<< "$tolerance_reads" | grep . \
    || [ "$(grep -c . <<< "$tolerance_reads")" -ne 1 ]; then
  echo "comparison_tolerance() read outside gp_algorithms::accept: judge values with accept"; exit 1
fi
if grep -rnE --include='*.rs' 'fn compare_values|\b(tol|tolerance): f64' crates/*/src src/bin \
    | non_test_lines | grep .; then
  echo "second comparator reintroduced: judge values with gp_algorithms::accept"; exit 1
fi

echo "== one container serializer (build_streaming writes every segment in place) =="
# write_container streams a resident graph's rows through build_streaming,
# and step 5 of the builder writes each segment once, straight into the
# container. A second serializer (a relabeled resident copy, per-segment
# byte buffers, a position-counting writer) or temporary segment files
# copied into place would be a second writer to keep in step with the
# format, and a copy pass over every edge byte.
if grep -rnE 'io::[c]opy|Counting[W]riter|fn (neighbor|weight)_[b]ytes|\.relabel[(]|_(neigh|weights)[.]seg' \
    crates/graph/src/container/; then
  echo "second container serializer reintroduced: write through build_streaming, one SegmentWriter per segment"; exit 1
fi

echo "== one verdict per bench record (each producer runs its Schema::validate) =="
# chaos, serve_bench and container write their record, then hold it to its
# own table in gp_bench::json and exit 1 with the schema's message. A
# campaign failure list or text log beside the record, a failure tally or a
# turbo early exit in a producer would be a second verdict to keep in step
# with the table. Test code may keep its own checks.
if grep -rnE 'fn (failures|render_log)[(]' crates/chaos/src | non_test_lines | grep . \
  || grep -rnE 'total_[f]ailures|![r][.]turbo_ok' crates/bench/src/bin | non_test_lines | grep .; then
  echo "second verdict on a bench record: let the producer's Schema::validate judge it"; exit 1
fi

echo "== one timed region per Ligra driver (two round loops, no hand-written CAS loop) =="
# BFS, SSSP and CC run through apps.rs's frontier driver, PageRank-Delta
# and Adsorption through its delta driver, and each driver holds the run's
# one clock. A clock anywhere else in apps.rs is a round loop of an app's
# own, timed its own way. AtomicF64's updates are AtomicU64::fetch_update,
# so a compare_exchange_weak loop in atomic.rs would be a second copy of it.
clocks=$(grep -o 'Instant::now()' crates/baselines/src/ligra/apps.rs | wc -l)
if [ "$clocks" -ne 2 ]; then
  echo "Instant::now() appears $clocks times in ligra/apps.rs, not 2: run the app through the frontier or the delta driver"; exit 1
fi
if grep -n 'compare_exchange_weak' crates/baselines/src/ligra/atomic.rs; then
  echo "hand-written CAS loop reintroduced in AtomicF64: update the cell with AtomicU64::fetch_update"; exit 1
fi

echo "== cargo clippy (warnings denied) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo test =="
cargo test --workspace -q

echo "== streaming smoke (tiny update stream) =="
cargo run --release -q -p gp-bench --bin streaming -- \
  --vertices 256 --batches 2 --batch-size 16

echo "== figures smoke (the whole evaluation once, simulator-only tables vs the committed record) =="
# report at the smoke scale, three-slice Twitter column included (~20 s),
# run from a temp directory so its figures/ lands there. Every CSV but the
# host-time ones (*-host.csv: they divide by the software framework's wall
# clock) must match figures/smoke/ byte for byte: a change that moves a
# simulated number regenerates the record or fails here.
GP_ROOT=$PWD
GP_FIG_DIR=$(mktemp -d /tmp/gp-figures-smoke.XXXXXX)
(cd "$GP_FIG_DIR" && cargo run --release -q --manifest-path "$GP_ROOT/Cargo.toml" \
  -p gp-bench --bin report -- --scale 4096 --seed 42 > report.txt)
diff -r -x '*-host.csv' figures/smoke "$GP_FIG_DIR/figures" \
  || { echo "figures/smoke is stale: from an empty directory run report --scale 4096 --seed 42 and copy its figures/*.csv (not *-host.csv) over figures/smoke/"; exit 1; }
rm -rf "$GP_FIG_DIR"

echo "== fuzz smoke (fixed seed, byte-deterministic) =="
# 58 iterations: 50 before the cycle model stopped visiting idle units,
# raised by what that bought this step (~1.2x: the cycle model is one leg
# of an iteration among golden, turbo, chaos and stream) at the same wall
# time.
cargo run --release -q -p gp-bench --bin fuzz -- --seed 7 --iters 58 \
  > /tmp/gp-fuzz-a.log
cargo run --release -q -p gp-bench --bin fuzz -- --seed 7 --iters 58 \
  > /tmp/gp-fuzz-b.log
diff /tmp/gp-fuzz-a.log /tmp/gp-fuzz-b.log \
  || { echo "fuzz output not deterministic"; exit 1; }
# Two runs of one binary agree even when a verdict flips, so the log is also
# pinned: its line count and POSIX cksum (CRC, bytes), as
# crates/verify/tests/fuzz_fold.rs pins its 24-iteration prefix. A change
# meant to move case generation or a verdict re-pins both.
[ "$(wc -l < /tmp/gp-fuzz-a.log)" -eq 60 ] \
  || { echo "fuzz log line count moved: expected 60"; exit 1; }
[ "$(cksum < /tmp/gp-fuzz-a.log)" = "2115535695 4393" ] \
  || { echo "fuzz log checksum moved: expected 2115535695 4393"; exit 1; }

echo "== shrinker self-test (injected fault must be caught and shrunk) =="
if cargo run --release -q -p gp-bench --bin fuzz -- \
    --seed 7 --iters 5 --shrink --inject-fault merge-order \
    > /tmp/gp-fuzz-fault.log 2>&1; then
  echo "injected fault was NOT detected"; exit 1
fi
grep -q "minimal repro (ready-to-paste regression test):" /tmp/gp-fuzz-fault.log \
  || { echo "no shrunk repro in fault output"; cat /tmp/gp-fuzz-fault.log; exit 1; }

echo "== chaos smoke (every fault kind, detect/recover/verify, byte-deterministic) =="
# Fixed-seed fault-injection campaign: every fault kind x algorithm across
# the chaos executor, the shard-parallel engine, and the turbo backend.
# The binary prints the record it writes and exits non-zero when the record
# fails its gp-bench/chaos/v1 schema (a scenario undetected or recovered to
# the wrong answer); two runs must be byte-identical (log and JSON).
cargo run --release -q -p gp-bench --bin chaos -- \
  --seed 42 --out /tmp/gp-chaos-a.json > /tmp/gp-chaos-a.log
cargo run --release -q -p gp-bench --bin chaos -- \
  --seed 42 --out /tmp/gp-chaos-b.json > /tmp/gp-chaos-b.log
# The final "wrote <path>" line names the per-run output file; everything
# above it (the rendered record) must be byte-identical.
diff <(grep -v '^wrote ' /tmp/gp-chaos-a.log) \
     <(grep -v '^wrote ' /tmp/gp-chaos-b.log) \
  || { echo "chaos campaign log not deterministic"; exit 1; }
diff /tmp/gp-chaos-a.json /tmp/gp-chaos-b.json \
  || { echo "chaos campaign JSON not deterministic"; exit 1; }
# The committed record is this same seed-42 campaign, so it must match the
# fresh one byte for byte: a behaviour change regenerates it or fails here.
diff BENCH_chaos.json /tmp/gp-chaos-a.json \
  || { echo "BENCH_chaos.json is stale: regenerate with chaos --seed 42 --out BENCH_chaos.json"; exit 1; }
# Both the fresh campaign output and the committed record must satisfy the
# gp-bench/chaos/v1 schema (every scenario detected + recovered bit-exact).
cargo run --release -q -p gp-bench --bin bench_check -- \
  /tmp/gp-chaos-a.json BENCH_chaos.json

echo "== serve smoke (executor pool, every sample vs golden) =="
# Fixed-seed load run on a 2^14 R-MAT: four client threads race mixed
# queries against an updater publishing epochs mid-run, served by a
# two-executor pool. --verify-all makes the bench cross-check every
# sampled response against a sequential golden recompute on the exact
# epoch the response named — bit-exact for the monotone classes, within
# tolerance for PageRank. Exit 1 on any mismatch (the record's
# gp-bench/serve/v3 schema, which serve_bench holds its own output to).
# Forty-eight batches close several eight-epoch refresh windows on each
# executor lane, so the PageRank columns catch up by their residual on the
# pinned graph, which the check then covers; a run with no warm start did
# not exercise it. Sixteen batches closed one or two windows in all, so
# the count read 1 or 2 by thread schedule; 48 read 5 or 6 over twelve
# reruns, and a catch-up that never succeeds reads 0. The store keeps a
# graph only for the current epoch, so most samples are checked on an
# epoch the store rebuilt from it by undoing the later epochs' deltas: the
# check covers the rebuild too.
cargo run --release -q -p gp-bench --bin serve_bench -- \
  --seed 11 --vertices 16384 --queries 20000 --batches 48 \
  --executors 2 --sample-every 64 --verify-all --out /tmp/gp-serve-smoke.json
warm=$(grep -o '"warm_starts": *[0-9]*' /tmp/gp-serve-smoke.json | grep -o '[0-9]*$')
[ "${warm:-0}" -ge 1 ] \
  || { echo "serve smoke ran no whole-graph replay (warm_starts ${warm:-missing})"; exit 1; }
# The fresh run and the committed full-scale sweep must both satisfy the
# gp-bench/serve/v3 schema (non-empty executor sweep, golden checks ran
# and passed per run, per-class latency quantiles present and ordered).
cargo run --release -q -p gp-bench --bin bench_check -- \
  /tmp/gp-serve-smoke.json BENCH_serve.json

echo "== out-of-core smoke (streamed container, mapped vs resident bit-compare) =="
# Builds a 2^16-vertex weighted R-MAT container in a temp dir with the
# streaming external-memory builder (the graph is never resident during
# the build), memory-maps it, and runs golden + turbo over the mapping
# under a 4 MiB working-state budget the fully-resident graph (~8 MiB
# both-direction CSR) cannot meet. --check-resident additionally builds
# the graph in RAM from the same stream through GraphBuilder, requires the
# container to be it relabeled by the container's hub-first ranks, and
# requires golden and turbo over the mapping to be bit-identical (values
# and every event counter) to the fully resident runs; the binary exits
# non-zero on any divergence. --bucket-vertices 8192 spreads the build
# over 8 buckets, so the kept-edge spill and the relabel replay cross
# bucket boundaries. The emitted
# JSON plus the committed sweep must both satisfy gp-bench/outofcore/v2
# (v1 minus the top-level slice-index cap, which went with the index).
# (The differential-outofcore oracle leg inside the fuzz smokes above
# additionally bit-compares mapped vs resident runs on every corpus case;
# it writes its containers through the same streaming builder.)
GP_OOC_DIR=$(mktemp -d /tmp/gp-ooc-smoke.XXXXXX)
trap 'rm -rf "$GP_OOC_DIR"' EXIT
cargo run --release -q -p gp-bench --bin container -- \
  --seed 7 --log2 16 --budget-mb 4 --check-resident --bucket-vertices 8192 \
  --dir "$GP_OOC_DIR" \
  --out /tmp/gp-ooc-smoke.json
cargo run --release -q -p gp-bench --bin bench_check -- \
  /tmp/gp-ooc-smoke.json BENCH_outofcore.json

echo "== repo benchmark smoke (BENCHMARK.json plumbing, every graph at 2^10) =="
# Builds the benchmark package against this checkout and runs all five
# workloads small; exits non-zero on a failed operation or a results file
# that does not carry exactly the declared workloads and metrics.
bash benchmark/run.sh --smoke

echo "CI gate passed."
