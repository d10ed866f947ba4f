#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 test suite.
#
# Usage: scripts/check.sh
# Runs from any directory; everything executes at the workspace root.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (perf lints, -D warnings)"
# -W clippy::perf before -D warnings: perf lints are raised to warn, then
# the warnings group denies every warn-level lint, so perf findings fail
# the gate.
cargo clippy --workspace --all-targets -- -W clippy::perf -D warnings

echo "==> structure gate: each experiment phase is written once"
# The workload, bootstrap and network seed salts mark the injection loop,
# the bootstrap-graph site and the network constructor; a second non-test
# occurrence under crates/experiments/src is a copied run-loop.
for salt in 0x5EED 0xB007 0x4B494E47; do
    hits=$(awk -v salt="$salt" 'FNR == 1 { test = 0 }
        /#\[cfg\(test\)\]/ { test = 1 }
        !test && index($0, salt) && $0 !~ /^[[:space:]]*\/\// { n++ }
        END { print n + 0 }' crates/experiments/src/*.rs)
    [[ "$hits" -eq 1 ]] || {
        echo "FAIL: $salt occurs on $hits non-test lines of crates/experiments/src (want 1)" >&2
        exit 1
    }
done

# nontest_lines PATTERN FILE...: FILE:LINE of every non-test, non-comment
# line matching PATTERN.
nontest_lines() {
    local pattern=$1
    shift
    awk -v pattern="$pattern" 'FNR == 1 { test = 0 }
        /#\[cfg\(test\)\]/ { test = 1 }
        !test && $0 ~ pattern && $0 !~ /^[[:space:]]*\/\// { print FILENAME ":" FNR }' "$@"
}
mapfile -d '' sources < <(find crates examples -name '*.rs' \
    -not -path '*/tests/*' -not -path '*/benches/*' -print0)

echo "==> structure gate: one socket host, one event vocabulary"
# gocast-testnet is the only crate that binds a socket outside test code,
# and a trace record carries GoCastEvent itself: a second host or a second
# copy of the event enum would have to reintroduce one of these.
stray=$(nontest_lines 'UdpSocket::bind' "${sources[@]}" |
    grep -v '^crates/testnet/src/' || true)
[[ -z "$stray" ]] || {
    echo "FAIL: UdpSocket::bind outside crates/testnet/src: $stray" >&2
    exit 1
}
if grep -rnE --include='*.rs' 'enum TraceEv\b|struct UdpHost\b' \
    crates tests examples benchmark; then
    echo "FAIL: the TraceEv mirror or the UdpHost second host is back" >&2
    exit 1
fi

echo "==> structure gate: one neighbor table, unsafe in two places"
# The neighbor table is the sorted 64-byte-entry array in
# crates/core/src/node/neighbors.rs, and non-test code says `unsafe` only
# in the mmsg FFI (crates/testnet/src/batch.rs) and on the one line of the
# kernel's prefetch function (crates/sim/src/queue.rs).
stray=$(nontest_lines 'BTreeMap<NodeId, *Neighbor>' "${sources[@]}")
[[ -z "$stray" ]] || {
    echo "FAIL: the BTreeMap neighbor table is back: $stray" >&2
    exit 1
}
stray=$(nontest_lines '(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)' "${sources[@]}" |
    grep -v '^crates/testnet/src/batch\.rs:' || true)
[[ "$stray" =~ ^crates/sim/src/queue\.rs:[0-9]+$ ]] || {
    echo "FAIL: unsafe outside batch.rs and the one prefetch line: $stray" >&2
    exit 1
}

echo "==> structure gate: one fault vocabulary"
# A network fault is a NetFault value and gocast_sim::FaultState is the
# only holder of it, in the kernel and on the wire: neither the per-kind
# engine setters nor a second fault state may come back.
# (`Scenario::partition_at` is the builder DSL's step, not a setter.)
mapfile -d '' fault_sources < <(find crates/sim crates/testnet -name '*.rs' -print0)
stray=$(nontest_lines 'struct (Impairments|NetFaults)([^_[:alnum:]]|$)' "${fault_sources[@]}"
    nontest_lines 'fn (fail_link_at|set_loss_at|partition_at)([^_[:alnum:]]|$)' \
        "${fault_sources[@]}" | grep -v '^crates/sim/src/scenario\.rs:' || true)
[[ -z "$stray" ]] || {
    echo "FAIL: a per-kind fault setter or a second fault state is back: $stray" >&2
    exit 1
}

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark harness builds and passes against the workspace"
# benchmark/ is a stand-alone package with path dependencies on crates/*;
# it is not a workspace member, so an API break against it would otherwise
# surface only when the benchmark is next run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo doc --no-deps (missing docs are errors)"
# First-party crates only: the vendored offline stand-ins under vendor/
# are exempt from the docs gate. gocast-sim and gocast-core carry
# #![warn(missing_docs)], which -D warnings turns into errors.
FIRST_PARTY=(-p gocast-sim -p gocast-net -p gocast-membership -p gocast
    -p gocast-baselines -p gocast-plumtree -p gocast-analysis
    -p gocast-metrics -p gocast-app -p gocast-experiments -p gocast-udp
    -p gocast-testnet -p gocast-bench -p gocast-tests -p gocast-examples)
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${FIRST_PARTY[@]}"

echo "==> cargo test --doc"
cargo test -q --doc -p gocast-sim -p gocast-net -p gocast-membership \
    -p gocast -p gocast-baselines -p gocast-plumtree -p gocast-analysis \
    -p gocast-metrics -p gocast-app -p gocast-experiments -p gocast-udp \
    -p gocast-testnet

echo "==> chaos smoke scenario (oracle-gated)"
# A quick scenario-driven churn run; the subcommand exits nonzero if the
# online invariant oracle reports any violation.
cargo run --release -q -p gocast-experiments -- chaos --quick --nodes 64 \
    --scenario churn --seeds 2 --no-csv

echo "==> bad --spec smoke: a usage error (exit 2), not a panic (101)"
for spec in 'crash(at=1,node=99999)' 'cutlink(at=1,a=1,b=99999)' \
    'jitter(ms=1e30)' 'crash(at=1e30,node=1)'; do
    status=0
    cargo run --release -q -p gocast-experiments -- chaos --quick --nodes 32 \
        --messages 5 --no-csv --spec "$spec" 2> /dev/null || status=$?
    [[ $status -eq 2 ]] || {
        echo "FAIL: --spec '$spec' exited $status, expected 2" >&2
        exit 1
    }
done

echo "==> compare smoke: gocast vs plumtree under the same chaos preset"
# Both stacks through one preset with identical seeds and audit; the
# subcommand exits nonzero if either stack's invariant oracle reports a
# violation, so a regression in either protocol fails the gate.
cargo run --release -q -p gocast-experiments -- compare --quick --nodes 64 \
    --scenario churn --seeds 2 --no-csv

echo "==> app-tier smoke: pub/sub + CRDT workloads (oracle- and audit-gated)"
# The application tier (topic mux + delta-CRDT anti-entropy) under the
# two fault families it must survive; each subcommand exits nonzero on
# any invariant violation, CRDT replica divergence, or a dead topic
# layer. Explicit small flags (rather than --quick) keep the wire replay,
# which runs in wall-clock time, at a few seconds where loopback is
# available. Seed 1 is pinned for the churn run: the Poisson churn
# process happens to draw zero arrivals in a 30 s window at the default
# seed, and the smoke should exercise real leave/rejoin traffic.
cargo run --release -q -p gocast-experiments -- pubsub --nodes 24 \
    --topics 4 --messages 60 --rate 20 --seed 1 --scenario churn --no-csv
cargo run --release -q -p gocast-experiments -- crdt --nodes 24 \
    --topics 4 --messages 60 --rate 20 --scenario partition --no-csv

echo "==> traced smoke experiment + invariant oracle"
# A small traced GoCast run whose JSONL trace is then reconstructed and
# checked by the invariant oracle; the subcommand exits nonzero on any
# violation or unreconstructable dissemination tree.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
cargo run --release -q -p gocast-experiments -- trace --quick --nodes 64 \
    --messages 20 --no-csv --trace-out "$TRACE_DIR/smoke.jsonl"

echo "==> metrics smoke: instrumented run + JSONL stream determinism"
# The metrics view runs a fully instrumented simulation and renders every
# subsystem's telemetry tables; a second quick run streams snapshots to a
# manifest-stamped JSONL file that must be non-empty and start with the
# run-manifest header.
cargo run --release -q -p gocast-experiments -- metrics --quick --nodes 64
cargo run --release -q -p gocast-experiments -- fig3a --quick --nodes 64 \
    --no-csv --metrics-out "$TRACE_DIR/metrics.jsonl"
head -n1 "$TRACE_DIR/metrics.jsonl" | grep -q '"manifest":1' \
    || { echo "FAIL: metrics JSONL missing run-manifest header" >&2; exit 1; }
grep -q '"ev":"metrics"' "$TRACE_DIR/metrics.jsonl" \
    || { echo "FAIL: metrics JSONL contains no snapshots" >&2; exit 1; }
# The lane kernel streams through the same drive loop: both scale runs
# (delivery, then the chaos preset) leave a stamped, non-empty stream.
cargo run --release -q -p gocast-experiments -- scale --nodes 2000 \
    --warmup 20 --messages 4 --rate 2 --drain 20 --no-csv \
    --metrics-out "$TRACE_DIR/scale.jsonl" > /dev/null
for stream in "$TRACE_DIR/scale.jsonl" "$TRACE_DIR/scale.1.jsonl"; do
    head -n1 "$stream" | grep -q '"manifest":1' \
        || { echo "FAIL: $stream missing run-manifest header" >&2; exit 1; }
    grep -q '"ev":"metrics"' "$stream" \
        || { echo "FAIL: $stream contains no snapshots" >&2; exit 1; }
done

echo "==> telemetry overhead budget (instrumented kernel within 5%)"
# Exits nonzero if the instrumented kernel retires steady-state events
# more than 5% slower than the uninstrumented one.
cargo run --release -q -p gocast-experiments -- metrics --overhead --nodes 64

echo "==> testnet sim-vs-wire conformance (real loopback sockets)"
# The same workload through the simulator and through real loopback-UDP
# nodes; exits nonzero if the two sides disagree beyond tolerance or any
# trace violates a protocol invariant. The subcommand itself skips with
# exit 0 where loopback sockets cannot be bound (socket-less sandboxes),
# keeping this gate green without network access. A smaller-than-default
# workload keeps the wall-clock cost at a few seconds per run.
cargo run --release -q -p gocast-experiments -- testnet --nodes 12 \
    --messages 100 --no-csv
cargo run --release -q -p gocast-experiments -- testnet --nodes 12 \
    --messages 100 --scenario partition --no-csv

echo "==> udp_cluster example: 8 nodes on ephemeral loopback ports"
# Exits nonzero unless every node holds all three multicasts; prints a
# note and exits 0 where loopback sockets cannot be bound. One 3.5 s
# wall-clock window.
cargo run --release -q -p gocast-examples --bin udp_cluster

echo "==> batched sharded wire path (syscall batching live under conformance)"
# Runs the conformance workload on two event-loop shards and asserts the
# batch path actually engaged: conformance PASS plus a nonzero
# syscalls_saved count on the greppable `fabric:` line. Skipped where
# loopback is unavailable (the subcommand exits 0 without printing the
# fabric line).
SHARD_OUT=$(cargo run --release -q -p gocast-experiments -- testnet \
    --nodes 12 --messages 100 --shards 2 --no-csv)
if echo "$SHARD_OUT" | grep -q '^fabric:'; then
    echo "$SHARD_OUT" | grep '^fabric:'
    echo "$SHARD_OUT" | grep -q '^conformance: PASS' \
        || { echo "FAIL: sharded conformance did not pass" >&2; exit 1; }
    echo "$SHARD_OUT" | grep '^fabric:' | grep -Eq 'syscalls_saved=[1-9]' \
        || { echo "FAIL: sharded run saved no syscalls (batching inactive)" >&2; exit 1; }
else
    echo "==> skipped (loopback unavailable)"
fi

echo "==> portable (non-mmsg) wire path fallback"
# The same conformance workload with GOCAST_FABRIC_PORTABLE forcing the
# sendto/recv_from fallback: correctness must not depend on sendmmsg.
GOCAST_FABRIC_PORTABLE=1 cargo run --release -q -p gocast-experiments -- \
    testnet --nodes 12 --messages 100 --shards 2 --no-csv

echo "==> scale smoke: 10^4 nodes on the sharded kernel (oracle-gated)"
# A 10,000-node delivery + site-catastrophe run through the sharded
# kernel and the
# O(sites)-memory latency model, on 2 worker threads. The subcommand
# exits nonzero on any oracle violation or delivery collapse; `timeout`
# enforces the wall-clock budget so a scaling regression fails loudly.
# The printed `node_kb` (mean self-reported protocol state per node,
# `GoCastNode::mem_bytes`) is held to a tenth of a KB above the 6.2 KB this
# workload measures: per-node state that grows with the population or
# the run length (the old per-node coordinate cache: 44.3 KB here) fails,
# and so does a slide back toward the 6.7 KB of the B-tree neighbor table
# and the per-node configuration copy.
# `queue_mem_mb` (what the lane queues reserve when the run ends) is held
# to a quarter above its 12.9 MB the same way: queues that keep their
# start-up storm's capacity (44.9 MB here, before they shrank) fail.
NODE_KB_MAX=6.3
QUEUE_MB_MAX=16.1
SCALE_OUT=$(timeout 600 cargo run --release -q -p gocast-experiments -- scale \
    --nodes 10000 --sim-shards 2 --warmup 30 --messages 10 --rate 2 \
    --drain 20 --no-csv)
echo "$SCALE_OUT"
# scale_column_at_most COLUMN MAX UNIT: every row's COLUMN is at most MAX.
scale_column_at_most() {
    echo "$SCALE_OUT" | awk -v name="$1" -v max="$2" -v unit="$3" '
        !col { for (i = 1; i <= NF; i++) if ($i == name) col = i; next }
        NF >= col { rows++
          if ($col + 0 > max) {
              printf "FAIL: %s has %s %s %s, over the %s bound\n", $1, name, $col, unit, max > "/dev/stderr"
              bad = 1
          } }
        END { if (!rows) print "FAIL: scale printed no " name " row" > "/dev/stderr"
              exit (bad || !rows) }'
}
scale_column_at_most node_kb "$NODE_KB_MAX" "KB/node"
scale_column_at_most queue_mem_mb "$QUEUE_MB_MAX" "MB"

echo "==> docs cross-reference check (every .md link resolves)"
# Every relative markdown link in the repo's own docs must point at a
# file that exists, so the architecture pass cannot rot silently.
fail=0
for doc in *.md crates/*/README.md; do
    [[ -f "$doc" ]] || continue
    # Externally sourced reference material (paper abstracts, exemplar
    # snippets, the issue brief) quotes links from *other* repositories;
    # only the repo's own docs are held to the resolvable-link bar.
    case "$doc" in
        SNIPPETS.md|PAPER.md|PAPERS.md|ISSUE.md) continue ;;
    esac
    dir=$(dirname "$doc")
    # Relative links only: skip http(s), mailto, and in-page anchors.
    while IFS= read -r target; do
        [[ -z "$target" ]] && continue
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path="${target%%#*}"
        [[ -e "$dir/$path" ]] || {
            echo "FAIL: $doc links to missing file: $target" >&2
            fail=1
        }
    done < <(grep -oE '\]\(([^)]+)\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done
[[ $fail -eq 0 ]] || exit 1
echo "    all markdown links resolve"

echo "All checks passed."
