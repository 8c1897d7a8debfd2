#!/usr/bin/env bash
# The canonical repo check (see DESIGN.md): tier-1 gate + lint + format.
#
#   ./ci.sh            every step below
#   ./ci.sh quick      every step but the explicit `cargo build --release`; the
#                      release-binary flows and the perfbench smoke still run,
#                      building what they need on first use
set -euo pipefail
cd "$(dirname "$0")"

# A check must not edit the tree it checks: every step below leaves
# `git status` as it found it (no tracked file changed, no unignored file
# left behind), and the run fails at the end otherwise.
tree_before=$(git status --porcelain)

# No wall clock on the measurement path: a timeout is a comparison of
# simulated times (a reply's delay against the exchange's window), so what
# the resolver, the scanner, the fabric under them and the code that runs
# inside an exchange (the deployed responders and their per-site lookups)
# measure can never depend on how the host scheduled its threads. Their
# non-test code (each file up to its first `#[cfg(test)]`) names neither
# `Instant` nor `thread::sleep`.
echo "==> no wall clock in non-test code of dns, tls, netsim, geodb, webgen deploy"
clock=$(find crates/dns/src crates/tls/src crates/netsim/src crates/geodb/src \
    crates/webgen/src/deploy.rs -name '*.rs' | sort | xargs awk '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && /Instant|thread::sleep/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$clock" ]]; then
    echo "ci: the measurement path reads the wall clock:" >&2
    echo "$clock" >&2
    exit 1
fi

# One borrowed wire on the measurement path: responders write each reply
# straight into its datagram (`dns::wire::Reply`) and the resolver reads
# replies in place (`dns::wire::MessageView`). The owned `Message` with
# `encode`/`decode` is compiled into dns's tests only (the compiler refuses
# it elsewhere, and the release-symbol step below checks the binary); this
# guard names the files where a second, owned path would creep back: the
# non-test code of the resolver, the registry tables and the deployed racks
# names none of them.
echo "==> no owned DNS messages in non-test code of the resolver, registries, racks"
owned=$(awk '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && /(^|[^A-Za-z0-9_])Message([^A-Za-z0-9_]|$)|decode\(|encode\(&/ {
        print FILENAME ":" FNR ": " $0
    }' crates/dns/src/resolver.rs crates/dns/src/bigzone.rs crates/webgen/src/deploy.rs)
if [[ -n "$owned" ]]; then
    echo "ci: the measurement path builds or decodes owned DNS messages:" >&2
    echo "$owned" >&2
    exit 1
fi

# No copies on the exchange path: a client lends its encoded query and a
# buffer the responder writes the reply into, and the scanner reads the
# served chain in place (`tls::ChainView`). The non-test code of the
# scanner and of the pipeline's workers names neither the owned
# `CertificateChain` nor `decode_flight` (compiled into tls's tests only;
# the release-symbol step below checks the binary), and the non-test code
# of netsim, dns and tls names neither `build_payload` nor
# `copy_from_slice`: no datagram is copied into a payload of its own again.
echo "==> no owned TLS chains in the scanner or workers, no payload copies in netsim, dns, tls"
copies=$( (awk '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && /CertificateChain|decode_flight/ { print FILENAME ":" FNR ": " $0 }
    ' crates/tls/src/scanner.rs crates/pipeline/src/run.rs
    find crates/netsim/src crates/dns/src crates/tls/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && /build_payload|copy_from_slice/ { print FILENAME ":" FNR ": " $0 }') )
if [[ -n "$copies" ]]; then
    echo "ci: the exchange path copies payloads or decodes owned chains:" >&2
    echo "$copies" >&2
    exit 1
fi

# One country index: every country-code join reads the compile-time
# table behind `World::country_index` (and `CountryRecord::by_code`, built
# on it), one load per lookup. The non-test code of every crate and of the
# binary scans `COUNTRIES` by code nowhere: no `.find(` or `.position(`
# comparing `.code ==` on a line that names `COUNTRIES` or within the three
# lines after it (a chain rustfmt splits).
echo "==> no scan of COUNTRIES by code in non-test code of crates/*/src, src"
scans=$(find crates/*/src src -name '*.rs' | sort | xargs awk '
    FNR == 1 { live = 1; seen = -10 }
    /#\[cfg\(test\)\]/ { live = 0 }
    /COUNTRIES/ { seen = FNR }
    live && FNR - seen <= 3 && /\.(find|position)\(.*\.code ==/ {
        print FILENAME ":" FNR ": " $0
    }')
if [[ -n "$scans" ]]; then
    echo "ci: a country-code join scans COUNTRIES instead of World::country_index:" >&2
    echo "$scans" >&2
    exit 1
fi

# One hasher on the measurement path: every map an exchange, a resolution,
# a deployed responder or a chunk encoding probes is a `KeyedMap`/`KeyedSet`
# over netsim's process-keyed `KeyedState` (DESIGN.md "One keyed hasher"),
# never std's SipHash. The non-test code of netsim, dns and geodb, the
# deployed world and the store and workers names no `RandomState`, and no
# `HashMap`/`HashSet` on a line without `KeyedState`. `netsim/src/hash.rs`
# is where the key is drawn from `RandomState`, so it is the one file left
# out.
echo "==> no SipHash maps in non-test code of netsim, dns, geodb, webgen deploy, pipeline store and run"
siphash=$( (find crates/netsim/src crates/dns/src crates/geodb/src -name '*.rs' \
    ! -path crates/netsim/src/hash.rs
    echo crates/webgen/src/deploy.rs crates/pipeline/src/store.rs crates/pipeline/src/run.rs) |
    xargs awk '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && (/RandomState/ || (/(^|[^A-Za-z0-9_])Hash(Map|Set)([^A-Za-z0-9_]|$)/ && !/KeyedState/)) {
        print FILENAME ":" FNR ": " $0
    }')
if [[ -n "$siphash" ]]; then
    echo "ci: a measurement-path map hashes with SipHash instead of KeyedState:" >&2
    echo "$siphash" >&2
    exit 1
fi

# No owned observation on the worker path: a worker fills a row whose
# strings borrow from the world's site, the resolver's NS set and the
# address databases, and the store copies it into its chunk's arena
# (`store::SiteRow`, DESIGN.md "A measured site allocates nothing").
# `SiteObservation` is the load side's type; the non-test code of the
# measurement run names it nowhere, so a per-site owned observation cannot
# come back onto the worker path.
echo "==> no SiteObservation in non-test code of pipeline run"
observations=$(awk '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && /SiteObservation/ { print FILENAME ":" FNR ": " $0 }
    ' crates/pipeline/src/run.rs)
if [[ -n "$observations" ]]; then
    echo "ci: the measurement run builds owned observations:" >&2
    echo "$observations" >&2
    exit 1
fi

# No owned name per site: a worker resolves each site through its domain
# checked in place in the world's text (`dns::Name`), so the non-test code
# of the measurement run parses no `DomainName`, and a per-site owned copy
# of the name cannot come back onto the worker path.
echo "==> no DomainName::parse in non-test code of pipeline run"
parses=$(awk '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    live && /DomainName::parse/ { print FILENAME ":" FNR ": " $0 }
    ' crates/pipeline/src/run.rs)
if [[ -n "$parses" ]]; then
    echo "ci: the measurement run parses an owned name per site:" >&2
    echo "$parses" >&2
    exit 1
fi

if [[ "${1:-}" != "quick" ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

# Tier-1 (root package) includes the chaos smoke (tests/chaos_smoke.rs:
# one injected worker death plus a crash-and-resume cycle) and the
# exact-count gate (tests/gate_counts.rs, read against
# BENCH_baselines.json); --workspace adds every crate's suite, including
# the full supervision matrix in crates/pipeline/tests/supervision.rs.
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

# One codec per protocol in the shipped binary: the owned DNS message, zone
# server and TLS chain and handshake messages are the reference the
# borrowed codecs are tested against, compiled under `#[cfg(test)]` only.
# The text guards above read source; this reads the release binary the
# report-digest step built, so no owned-codec function can be linked into
# it by any path.
echo "==> no owned-codec symbols in the release webdep binary"
symbols=$(nm -C target/release/webdep)
if ! grep -q 'webdep_dns::' <<<"$symbols"; then
    echo "ci: nm lists no webdep_dns symbol in the release binary; nothing to check" >&2
    exit 1
fi
owned_symbols=$(grep -E \
    'webdep_dns::wire::(Message|decode|encode)\b|webdep_dns::server::answer\b|webdep_dns::zone::|webdep_tls::cert::CertificateChain|webdep_tls::handshake::(HandshakeMessage|decode_flight|encode_flight)' \
    <<<"$symbols" || true)
if [[ -n "$owned_symbols" ]]; then
    echo "ci: the release binary links owned-codec code:" >&2
    echo "$owned_symbols" >&2
    exit 1
fi

# The documented crash-and-heal flow through the real CLI: measure into a
# chunk store, lose chunk 2 and flip one byte of chunk 3. `fsck --repair`
# must exit nonzero, report both and quarantine the corrupt one; `measure
# --resume` measures their sites again, after which a plain fsck is clean
# and the store's files (quarantine/ aside) hash to the `measure tiny
# --store` line of tests/golden/store.sha256 — the same bytes an
# uninterrupted run writes.
echo "==> crash-and-heal flow: measure --store, damage, fsck --repair, measure --resume"
ckpt=$(mktemp -d)
trap 'rm -rf "$ckpt"' EXIT
cargo run --release -q --bin webdep -- measure tiny --store "$ckpt/s" >/dev/null
rm "$ckpt/s/chunk-000002.col"
python3 -c '
import sys
with open(sys.argv[1], "r+b") as f:
    f.seek(64)
    b = f.read(1)
    f.seek(64)
    f.write(bytes([b[0] ^ 0x01]))
' "$ckpt/s/chunk-000003.col"
if report=$(./target/release/webdep fsck "$ckpt/s" --repair); then
    echo "ci: fsck --repair passed a store missing chunk 2 with chunk 3 flipped: $report" >&2
    exit 1
fi
python3 -c '
import json, sys
r = json.loads(sys.argv[1])
if r["missing"] != [[2, 3]] or [c["chunk"] for c in r["corrupt"]] != [3] or r["quarantined"] != 1:
    sys.exit("ci: fsck --repair did not report missing chunk 2 and corrupt chunk 3: " + sys.argv[1])
' "$report"
echo "    $report"
out=$(./target/release/webdep measure tiny --store "$ckpt/s" --resume)
# Chunks 2 and 3 hold 4,096 sites each; every other site is kept, not re-measured.
sites=$(sed -n 's/^sites  *= //p' <<<"$out")
resumed=$(sed -n 's/^sites resumed  *= //p' <<<"$out")
if [[ "$resumed" != "$((sites - 2 * 4096))" ]]; then
    echo "ci: measure --resume kept $resumed of $sites sites, not all but chunks 2 and 3" >&2
    exit 1
fi
report=$(./target/release/webdep fsck "$ckpt/s") || {
    echo "ci: the resumed store is not clean: $report" >&2
    exit 1
}
got=$(cd "$ckpt/s" && find . -type f -not -path './quarantine/*' -printf '%P\n' | LC_ALL=C sort |
    xargs sha256sum | sha256sum | cut -d' ' -f1)
want=$(awk '$2 == "measure" && $3 == "tiny" && $4 == "--store" { print $1 }' tests/golden/store.sha256)
if [[ -z "$want" || "$got" != "$want" ]]; then
    echo "ci: the healed store hashes to $got, an uninterrupted run's to ${want:-<no golden line>}" >&2
    exit 1
fi
echo "    healed by measure --resume: fsck clean, store hashes to the golden $got"

# Every measurement streams into a chunk store: a command given no
# --store measures into a scratch store under the temp directory and
# removes it. Run the report and accounting commands, and one example that
# reads its dataset back from a store, with TMPDIR pointing at an empty
# directory, and require it empty afterwards. The example writes its data
# release to ./out, so it runs from the scratch directory.
echo "==> scratch stores: measure tiny, experiments tiny, full_reproduction tiny"
cargo build --release -q --example full_reproduction
mkdir "$ckpt/tmp"
TMPDIR="$ckpt/tmp" ./target/release/webdep measure tiny >/dev/null
TMPDIR="$ckpt/tmp" ./target/release/webdep experiments tiny >/dev/null
root=$PWD
(cd "$ckpt" && TMPDIR="$ckpt/tmp" cargo run --release -q --manifest-path "$root/Cargo.toml" \
    --example full_reproduction -- tiny >/dev/null)
left=$(ls -A "$ckpt/tmp")
if [[ -n "$left" ]]; then
    echo "ci: a scratch store was left in the temp directory: $left" >&2
    exit 1
fi
echo "    the temp directory is empty after all three"

# The continuous loop's stacked stores through the real CLI: each of three
# evolve epochs carries its predecessor's chunks and patches and adds one
# patch of the sites it migrated. fsck must find the last epoch's store
# clean with every patch, then exit nonzero and name the newest patch
# once that patch is garbled.
echo "==> evolve flow: evolve 3 tiny --store, fsck the patched store"
./target/release/webdep evolve 3 tiny --store "$ckpt/ev" >/dev/null
last="$ckpt/ev/epoch-0003"
report=$(./target/release/webdep fsck "$last") || {
    echo "ci: fsck of the last epoch's store failed: $report" >&2
    exit 1
}
python3 -c '
import json, sys
r = json.loads(sys.argv[1])
p = r["patches"]
if not r["clean"] or p["count"] < 1 or p["valid"] != p["count"]:
    sys.exit("ci: the last epoch is not clean with its patches: " + sys.argv[1])
' "$report"
echo "    $report"
newest=$(find "$last" -name 'patch-*.col' | sort | tail -1)
python3 -c '
import sys
with open(sys.argv[1], "r+b") as f:
    f.seek(40)
    b = f.read(1)
    f.seek(40)
    f.write(bytes([b[0] ^ 0xFF]))
' "$newest"
if report=$(./target/release/webdep fsck "$last"); then
    echo "ci: fsck passed a store with a garbled $(basename "$newest"): $report" >&2
    exit 1
fi
index=$((10#$(basename "$newest" .col | cut -d- -f2)))
if [[ "$report" != *"\"patch\":$index,"* ]]; then
    echo "ci: fsck did not name the garbled patch $index: $report" >&2
    exit 1
fi
echo "    garbled $(basename "$newest"): fsck exits nonzero and names patch $index"

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

# Store digests: the measured bytes pinned across commits (the identity
# check above only compares a commit with itself). Each line of
# tests/golden/store.sha256 is "<sha256>  <webdep arguments>"; the command
# runs with a fresh store directory appended, and the digest is the sha256
# of the `sha256sum` listing of every file under that directory, by path
# relative to it, in path order — so an `evolve --store` directory of
# epoch stores is pinned file by file like a single store.
# After an intended change to what is measured, rewrite the digest line.
echo "==> store digests (tests/golden/store.sha256)"
while read -r want args; do
    store="$ckpt/golden"
    rm -rf "$store"
    # shellcheck disable=SC2086 # the arguments are meant to split
    cargo run --release -q --bin webdep -- $args "$store" >/dev/null
    got=$(cd "$store" && find . -type f -printf '%P\n' | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)
    if [[ "$got" != "$want" ]]; then
        echo "ci: 'webdep $args' store hashes to $got, golden is $want" >&2
        exit 1
    fi
    echo "    webdep $args: $got"
done < tests/golden/store.sha256

# The CLI's own serve path, without --store: `webdep serve` measures into
# a scratch chunk store and folds the snapshot from it. Start it on an
# ephemeral port, read the bound address off its "listening on" line,
# require 200 from four routes, and require exit 0 after SIGINT. The CI
# and badge routes must carry a full 200-replicate bootstrap interval, so
# the served bootstrap path runs end to end.
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
import json
import sys
import urllib.request

addr = sys.argv[1]
# Each path, and the field of its body that must hold a bootstrap interval.
for path, ci_field in [
    ("/v1/meta", None),
    ("/v1/score/US?replicates=0", None),
    ("/v1/ci/US?layer=dns&seed=3", "ci"),
    ("/v1/badge/US", "hosting_ci"),
]:
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=30) as resp:
        if resp.status != 200:
            sys.exit(f"{path} answered {resp.status}")
        body = json.load(resp)
    if ci_field is not None:
        ci = body.get(ci_field)
        if not isinstance(ci, dict) or ci.get("replicates") != 200:
            sys.exit(f"{path}: {ci_field} is {ci!r}, not a 200-replicate interval")
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

# Rustdoc gate: every intra-doc link resolves and no doc warns, so deleting
# or privatising an item that docs link to fails here.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

# Repository benchmark smoke: perfbench/ is its own Cargo workspace built
# against the crates' public API, so the workspace steps above never
# compile it. Runs every workload untraced and traced on a tiny world.
echo "==> python3 perfbench/smoke.py"
python3 perfbench/smoke.py

echo "==> git status unchanged by the run"
tree_after=$(git status --porcelain)
if [[ "$tree_after" != "$tree_before" ]]; then
    echo "ci: the run changed the working tree:" >&2
    diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
    exit 1
fi

echo "ci: all gates green"
