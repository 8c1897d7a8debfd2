#!/usr/bin/env bash
# The canonical repo check (see DESIGN.md): tier-1 gate + lint + format.
#
#   ./ci.sh            build (release) + full test suite + clippy -D warnings + fmt --check
#   ./ci.sh quick      skip the release build (debug tests + clippy + fmt only)
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" != "quick" ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

# Tier-1 (root package) includes the chaos smoke (tests/chaos_smoke.rs:
# one injected worker death plus a kill-and-resume cycle); --workspace
# adds every crate's suite, including the full supervision matrix in
# crates/pipeline/tests/supervision.rs.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Report digests: the determinism contract makes the report bytes the
# proof that a change to the analysis (affinity propagation, the suite)
# kept every number. Each line of tests/golden/report-small.sha256 is
# "<sha256>  <webdep arguments>"; the stdout of that command must hash to
# it. After an intended change to the report, rewrite the digest line.
echo "==> report digests (tests/golden/report-small.sha256)"
while read -r want args; do
    # shellcheck disable=SC2086 # the arguments are meant to split
    got=$(cargo run --release -q --bin webdep -- $args | sha256sum | cut -d' ' -f1)
    if [[ "$got" != "$want" ]]; then
        echo "ci: 'webdep $args' stdout hashes to $got, golden is $want" >&2
        exit 1
    fi
    echo "    webdep $args: $got"
done < tests/golden/report-small.sha256

# The documented checkpoint flow through the real CLI: measure into a
# chunk store with a run journal beside it, lose one chunk, and heal it
# with `fsck --repair` from the journal. fsck exits nonzero (and prints
# "intact":false) unless every chunk is back.
echo "==> checkpoint flow: measure --store --journal, fsck --repair"
ckpt=$(mktemp -d)
trap 'rm -rf "$ckpt"' EXIT
cargo run --release -q --bin webdep -- measure tiny --store "$ckpt/s" --journal "$ckpt/j" >/dev/null
lost=$(find "$ckpt/s" -name 'chunk-*.col' | sort | sed -n 2p)
rm "$lost"
report=$(cargo run --release -q --bin webdep -- fsck "$ckpt/s" --repair --journal "$ckpt/j") || {
    echo "ci: fsck could not heal $(basename "$lost") from the journal: $report" >&2
    exit 1
}
echo "    $report"
if [[ "$report" != *'"intact":true'* ]]; then
    echo "ci: fsck report is not intact" >&2
    exit 1
fi

# Cross-process store identity: the determinism contract holds between
# processes, not only within one deployed world. Two `measure tiny --store`
# runs must write the same chunk files and manifest, byte for byte.
echo "==> cross-process store identity: measure tiny --store, twice"
for run in a b; do
    ./target/release/webdep measure tiny --store "$ckpt/$run" >/dev/null
done
if [[ "$(ls "$ckpt/a")" != "$(ls "$ckpt/b")" ]]; then
    echo "ci: two measure runs wrote different store files" >&2
    exit 1
fi
for f in "$ckpt"/a/*; do
    cmp "$f" "$ckpt/b/$(basename "$f")" || {
        echo "ci: $(basename "$f") differs between two measure processes" >&2
        exit 1
    }
done
echo "    $(ls "$ckpt/a" | wc -l) files identical"

# The CLI's own serve path, without --store: `webdep serve` measures into
# a scratch chunk store and folds the snapshot from it. Start it on an
# ephemeral port, read the bound address off its "listening on" line,
# require 200 from two routes, and require exit 0 after SIGINT.
echo "==> webdep serve tiny (measure, fold, serve, SIGINT)"
./target/release/webdep serve tiny --addr 127.0.0.1:0 --threads 2 >"$ckpt/serve.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 600); do
    addr=$(sed -n 's|.*listening on http://\([^ ]*\).*|\1|p' "$ckpt/serve.log")
    if [[ -n "$addr" ]] || ! kill -0 "$serve_pid" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "ci: webdep serve never reported a listening address:" >&2
    cat "$ckpt/serve.log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
python3 - "$addr" <<'PY' || { kill "$serve_pid"; echo "ci: webdep serve at $addr failed a fetch" >&2; exit 1; }
import sys
import urllib.request

addr = sys.argv[1]
for path in ["/v1/meta", "/v1/score/US?replicates=0"]:
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=30) as resp:
        if resp.status != 200:
            sys.exit(f"{path} answered {resp.status}")
    print(f"    GET {path}: 200")
PY
kill -INT "$serve_pid"
if ! wait "$serve_pid"; then
    echo "ci: webdep serve did not exit 0 after SIGINT:" >&2
    cat "$ckpt/serve.log" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

# Streaming-dataset smoke: every scale phase (equivalence certification,
# resident, streaming) at toy sizes — seconds, not the full 5M-site run.
echo "==> bench-snapshot scale --smoke"
cargo run --release -q -p webdep-bench --bin bench-snapshot -- scale --smoke

# Query-service smoke: start the server on an ephemeral port, sweep the
# full query catalog, spot-check served JSON against a directly-built
# AnalysisCtx, and publish two epochs under load. Fails on any non-2xx,
# any served/one-shot mismatch, or any mixed-epoch response.
echo "==> bench-snapshot serve --smoke"
cargo run --release -q -p webdep-bench --bin bench-snapshot -- serve --smoke

# Incremental-epoch smoke: evolve a small world two epochs, measure each
# both ways, and certify the delta store byte-identical to from-scratch,
# the delta-applied cube identical to a full refold, and the delta-built
# snapshot's taxonomy identical to a rebuild.
echo "==> bench-snapshot evolve --smoke"
cargo run --release -q -p webdep-bench --bin bench-snapshot -- evolve --smoke

# Self-healing smoke: the seeded chaos harness at toy sizes — slow-loris
# flood with fast queries flowing, a burst storm with no wedged workers,
# mid-serve chunk corruption healed byte-identically by fsck --repair,
# and poisoned publishes rejected with the prior epoch still serving.
echo "==> bench-snapshot overload --smoke"
cargo run --release -q -p webdep-bench --bin bench-snapshot -- overload --smoke

# Perf-regression gate: deterministic smoke workloads (seeded 1-worker
# pipeline measurement, sequential serve sweep, always-on overload
# machinery with exact shed/abort/reject counts) compared against
# BENCH_baselines.json — exact integer counts, so it cannot flake on a
# loaded box. Exits nonzero (and appends to BENCH_alerts.log) on breach;
# after an accepted behavior change, re-record with
# `bench-snapshot gate --smoke --update`.
echo "==> bench-snapshot gate --smoke"
cargo run --release -q -p webdep-bench --bin bench-snapshot -- gate --smoke

# Repository benchmark smoke: perfbench/ is its own Cargo workspace built
# against the crates' public API, so the workspace steps above never
# compile it. Runs every workload untraced and traced on a tiny world.
echo "==> python3 perfbench/smoke.py"
python3 perfbench/smoke.py

echo "ci: all gates green"
