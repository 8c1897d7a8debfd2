//! The `scale` snapshot: million-site worlds, memory-bounded.
//!
//! Everything else in the bench suite drives the *measurement* engine;
//! this module benches the *dataset path* — commit → columnar chunk store
//! → incremental cube fold → report — at scales where a resident
//! `Vec<SiteObservation>` stops being free. Observations are synthesized
//! deterministically from world ground truth (the DNS simulation's
//! throughput is `BENCH_pipeline.json`'s subject), so five-million-site
//! worlds flow through the exact production commit/decode/fold code in
//! seconds.
//!
//! Peak RSS (`VmHWM`) is monotonic over a process's lifetime, so phases
//! that must not see each other's high-water mark each run in a child
//! process: the parent re-executes the current binary with a hidden
//! `scale-phase <phase> <sites-per-country>` argument and reads one JSON
//! line from the child's stdout.
//!
//! Three phases feed `BENCH_scale.json`:
//!
//! * `equivalence` — at a size where both paths are feasible, certify the
//!   streaming path end-to-end: the chunk store reloads into a dataset
//!   `==`-identical to the resident one, and the report rendered from a
//!   chunk-folded cube is byte-identical to the resident report.
//! * `resident` — the paper-scale baseline: materialize every
//!   observation, build the cube from the resident vector, render.
//! * `streaming` — same work, but each observation is committed to the
//!   chunk store the moment it exists and dropped; the cube folds decoded
//!   chunks read back from disk; the report renders from a cube-only
//!   context. Run at paper scale and at beyond-paper (≥5M sites) scale.

use crate::peak_rss_bytes;
use serde::Serialize;
use serde_json::Value;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::Instant;
use webdep_analysis::{AnalysisCtx, CubeBuilder};
use webdep_core::centralization::centralization_score;
use webdep_pipeline::{
    ChunkStore, ChunkStoreWriter, FailureCause, LayerError, MeasuredDataset, SiteObservation,
    DEFAULT_CHUNK_SITES,
};
use webdep_webgen::{Layer, World, WorldConfig, COUNTRIES};

/// World parameters for a given toplist size, interpolating the preset
/// ladder (`tiny` → `small` → `paper`) so provider-pool richness grows
/// with the world instead of dwarfing a smoke world with the paper's
/// ~12k-provider tail.
pub fn scale_config(sites_per_country: u32) -> WorldConfig {
    let f = (sites_per_country as f64 / 10_000.0).min(1.0);
    WorldConfig {
        seed: 42,
        sites_per_country,
        global_pool_size: sites_per_country.saturating_mul(3),
        tail_scale: f.clamp(0.04, 1.0),
        pool_target: ((420.0 * f.sqrt()) as usize).clamp(40, 420),
    }
}

/// A deterministic synthetic observation for site `i`, derived from the
/// world's ground truth: correct layer owners and HQ countries, plausible
/// addresses/ASNs/nameservers, and a small failure fraction so the error
/// columns of the chunk format carry real traffic.
pub fn synth_observation(world: &World, i: usize) -> SiteObservation {
    let site = &world.sites[i];
    let mut o = SiteObservation::blank(&site.domain, &site.language);
    if i.is_multiple_of(97) {
        // Dead site: the A lookup timed out, nothing downstream ran.
        o.hosting_error = Some(LayerError::new(FailureCause::Timeout, "A: query timed out"));
        o.dns_error = Some(LayerError::new(
            FailureCause::Timeout,
            "NS: query timed out",
        ));
        o.ca_error = Some(LayerError::new(
            FailureCause::Skipped,
            "no serving IP to scan",
        ));
        o.derive_error_summary();
        return o;
    }
    let hosting = world.universe.provider(site.hosting);
    o.hosting_ip = Some(Ipv4Addr::from(0x0A00_0000u32 | (i as u32 & 0x00FF_FFFF)));
    o.hosting_asn = Some(hosting.asn);
    o.hosting_org = Some(site.hosting);
    o.hosting_org_country = Some(hosting.country.clone());
    o.hosting_ip_country = Some(hosting.country.clone());
    o.hosting_anycast = hosting.anycast;
    let dns = world.universe.provider(site.dns);
    let slug = dns.slug();
    o.ns_names = vec![format!("ns1.{slug}.net"), format!("ns2.{slug}.net")];
    o.dns_ip = Some(Ipv4Addr::from(0xAC10_0000u32 | (i as u32 & 0x000F_FFFF)));
    o.dns_asn = Some(dns.asn);
    o.dns_org = Some(site.dns);
    o.dns_org_country = Some(dns.country.clone());
    o.dns_ip_country = Some(dns.country.clone());
    o.dns_anycast = dns.anycast;
    if i.is_multiple_of(89) {
        // Hosting and DNS fine, but the TLS handshake was refused.
        o.ca_error = Some(LayerError::new(
            FailureCause::Refused,
            "TLS: handshake refused",
        ));
    } else {
        let ca = world.universe.ca(site.ca);
        o.ca_owner = Some(site.ca);
        o.ca_owner_country = Some(ca.country.clone());
    }
    o.derive_error_summary();
    o
}

/// Renders the cube-backed dependence summary both paths must agree on:
/// per layer, the global top-10 owners and every country's toplist size,
/// observed total, coverage, and centralization score. Touches only
/// cube-backed accessors, so it renders identically from a resident
/// context and from a cube-only streaming context.
pub fn cube_report(ctx: &AnalysisCtx<'_>) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for &layer in Layer::ALL.iter() {
        writeln!(out, "## {}", layer.name()).unwrap();
        for (owner, count) in ctx.global_counts(layer).iter().take(10) {
            writeln!(out, "- {} {count}", ctx.owner_name(layer, *owner)).unwrap();
        }
        for (ci, c) in COUNTRIES.iter().enumerate() {
            let total = ctx.country_total(ci, layer);
            let coverage = ctx.country_coverage(ci, layer);
            let s = ctx
                .country_dist(ci, layer)
                .map(centralization_score)
                .unwrap_or(-1.0);
            writeln!(
                out,
                "{} {} {total} {coverage:.6} {s:.6}",
                c.code,
                ctx.toplist_len(ci),
            )
            .unwrap();
        }
    }
    out
}

/// Builds the resident dataset and renders its report.
fn resident_path(world: &World) -> (MeasuredDataset, String) {
    let n = world.sites.len();
    let observations: Vec<SiteObservation> = (0..n).map(|i| synth_observation(world, i)).collect();
    let ds = MeasuredDataset {
        observations,
        label: world.label.clone(),
    };
    let ctx = AnalysisCtx::new(world, &ds);
    let report = cube_report(&ctx);
    (ds, report)
}

/// Streams every observation into a chunk store at `dir` (one observation
/// alive at a time), folds the decoded chunks into a cube, and renders
/// the report from a cube-only context. Returns the on-disk store size
/// too.
fn streaming_path(world: &World, dir: &Path) -> (ChunkStore, String, u64) {
    let n = world.sites.len();
    let mut writer = ChunkStoreWriter::create(dir, &world.label, n, DEFAULT_CHUNK_SITES)
        .expect("create chunk store");
    for i in 0..n {
        writer
            .commit(i, &synth_observation(world, i))
            .expect("commit observation");
    }
    let store_bytes = writer.bytes_written();
    writer.finish().expect("finish chunk store");

    let store = ChunkStore::open(dir).expect("reopen chunk store");
    let mut builder = CubeBuilder::new(n);
    for c in 0..store.num_chunks() {
        let chunk = store.read_chunk(c).expect("read chunk");
        builder.fold_chunk(&chunk, world);
    }
    let cube = builder.finish(world);
    let report = cube_report(&AnalysisCtx::over_cube(world, &cube));
    (store, report, store_bytes)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webdep-scale-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Outcome of the dual-feasible certification phase.
#[derive(Serialize)]
pub struct EquivalenceOut {
    /// Sites in the certification world.
    pub sites: u64,
    /// `ChunkStore::load_dataset` reproduced the resident dataset exactly.
    pub identical_dataset: bool,
    /// The chunk-folded report was byte-identical to the resident report.
    pub identical_report: bool,
}

/// Runs both paths at a dual-feasible size and compares them exactly.
pub fn equivalence_phase(sites_per_country: u32) -> EquivalenceOut {
    let world = World::generate(scale_config(sites_per_country));
    let (resident_ds, resident_report) = resident_path(&world);
    let dir = scratch_dir("equivalence");
    let (store, streaming_report, _bytes) = streaming_path(&world, &dir);
    let reloaded = store.load_dataset(&world).expect("reload dataset");
    let out = EquivalenceOut {
        sites: world.sites.len() as u64,
        identical_dataset: reloaded == resident_ds,
        identical_report: streaming_report == resident_report,
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// One timed phase, as the child process reports it (integers only — the
/// parent computes rates, so the vendored JSON parser never sees floats).
#[derive(Serialize)]
pub struct PhaseOut {
    /// `resident` or `streaming`.
    pub mode: String,
    /// Toplist size the world was generated at.
    pub sites_per_country: u64,
    /// Unique sites that flowed through the dataset path.
    pub sites: u64,
    /// World generation wall (excluded from the throughput window).
    pub gen_ms: u64,
    /// Dataset-path wall: synthesize + commit + cube + report.
    pub wall_ms: u64,
    /// `VmHWM` of this phase's process at exit (`None` off-Linux,
    /// serialized as `null`).
    pub peak_rss_bytes: Option<u64>,
    /// Chunk-store footprint on disk (0 for the resident path).
    pub store_bytes: u64,
}

/// Times the resident path at `sites_per_country` scale.
pub fn resident_phase(sites_per_country: u32) -> PhaseOut {
    let gen0 = Instant::now();
    let world = World::generate(scale_config(sites_per_country));
    let gen_ms = gen0.elapsed().as_millis() as u64;
    let t0 = Instant::now();
    let (ds, report) = resident_path(&world);
    let wall_ms = t0.elapsed().as_millis() as u64;
    assert!(!report.is_empty() && !ds.observations.is_empty());
    PhaseOut {
        mode: "resident".into(),
        sites_per_country: sites_per_country as u64,
        sites: world.sites.len() as u64,
        gen_ms,
        wall_ms,
        peak_rss_bytes: peak_rss_bytes(),
        store_bytes: 0,
    }
}

/// Times the streaming path at `sites_per_country` scale.
pub fn streaming_phase(sites_per_country: u32) -> PhaseOut {
    let gen0 = Instant::now();
    let world = World::generate(scale_config(sites_per_country));
    let gen_ms = gen0.elapsed().as_millis() as u64;
    let dir = scratch_dir("streaming");
    let t0 = Instant::now();
    let (_store, report, store_bytes) = streaming_path(&world, &dir);
    let wall_ms = t0.elapsed().as_millis() as u64;
    assert!(!report.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
    PhaseOut {
        mode: "streaming".into(),
        sites_per_country: sites_per_country as u64,
        sites: world.sites.len() as u64,
        gen_ms,
        wall_ms,
        peak_rss_bytes: peak_rss_bytes(),
        store_bytes,
    }
}

/// Child-side dispatch for the hidden `scale-phase` subcommand: runs one
/// phase and returns the JSON line to print on stdout.
pub fn run_phase(phase: &str, sites_per_country: u32) -> String {
    match phase {
        "equivalence" => serde_json::to_string(&equivalence_phase(sites_per_country)),
        "resident" => serde_json::to_string(&resident_phase(sites_per_country)),
        "streaming" => serde_json::to_string(&streaming_phase(sites_per_country)),
        other => panic!("unknown scale phase {other:?}"),
    }
    .expect("phase serializes")
}

/// One row of `BENCH_scale.json`, with the rate filled in by the parent.
#[derive(Serialize)]
pub struct ScaleRow {
    /// `resident` or `streaming`.
    pub mode: String,
    /// Toplist size the world was generated at.
    pub sites_per_country: u64,
    /// Unique sites that flowed through the dataset path.
    pub sites: u64,
    /// World generation wall (excluded from the throughput window).
    pub gen_ms: u64,
    /// Dataset-path wall: synthesize + commit + cube + report.
    pub wall_ms: u64,
    /// Sites through the dataset path per second of `wall_ms`.
    pub sites_per_sec: f64,
    /// Peak RSS (`VmHWM`) of the phase's dedicated process (`None`
    /// off-Linux, serialized as `null`).
    pub peak_rss_bytes: Option<u64>,
    /// Chunk-store footprint on disk (0 for the resident path).
    pub store_bytes: u64,
}

/// The whole `BENCH_scale.json` payload.
#[derive(Serialize)]
pub struct ScaleSnapshot {
    /// Sites per chunk in the streaming store.
    pub chunk_sites: u64,
    /// The dual-feasible certification (must be all-identical).
    pub equivalence: EquivalenceOut,
    /// Resident baseline at paper scale, then streaming at paper and
    /// beyond-paper scale.
    pub rows: Vec<ScaleRow>,
    /// Streaming beyond-paper peak RSS over the resident baseline's peak
    /// RSS scaled linearly to the same site count — < 1.0 means the
    /// streaming path grows sub-linearly where the resident path cannot.
    /// `None` (JSON `null`) where peak RSS is unavailable.
    pub rss_ratio_streaming_vs_scaled_resident: Option<f64>,
}

/// Toplist sizes for the three phases.
struct Spcs {
    /// Dual-feasible certification size.
    equivalence: u32,
    /// Paper-scale baseline (~588K unique sites at 6,200).
    base: u32,
    /// Beyond-paper streaming size (~5M unique sites at 53,000).
    big: u32,
}

fn spcs(smoke: bool) -> Spcs {
    if smoke {
        Spcs {
            equivalence: 40,
            base: 80,
            big: 160,
        }
    } else {
        Spcs {
            equivalence: 1_000,
            base: 6_200,
            big: 53_000,
        }
    }
}

fn run_child(exe: &Path, phase: &str, sites_per_country: u32) -> Value {
    let out = std::process::Command::new(exe)
        .args(["scale-phase", phase, &sites_per_country.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn scale phase");
    assert!(
        out.status.success(),
        "scale phase {phase} (spc={sites_per_country}) failed: {:?}",
        out.status
    );
    let text = String::from_utf8(out.stdout).expect("phase output is UTF-8");
    serde_json::from_str(text.trim()).expect("phase output parses")
}

fn u(v: &Value, key: &str) -> u64 {
    v[key]
        .as_u64()
        .unwrap_or_else(|| panic!("phase field {key}"))
}

fn parse_row(v: &Value) -> ScaleRow {
    let sites = u(v, "sites");
    let wall_ms = u(v, "wall_ms");
    ScaleRow {
        mode: v["mode"].as_str().expect("phase field mode").to_string(),
        sites_per_country: u(v, "sites_per_country"),
        sites,
        gen_ms: u(v, "gen_ms"),
        wall_ms,
        sites_per_sec: ((sites as f64 / (wall_ms.max(1) as f64 / 1000.0)) * 10.0).round() / 10.0,
        peak_rss_bytes: v["peak_rss_bytes"].as_u64(),
        store_bytes: u(v, "store_bytes"),
    }
}

/// Parent-side orchestration: spawns one child per phase (so each reports
/// its own `VmHWM`), certifies equivalence, and assembles the snapshot.
/// `exe` is the `bench-snapshot` binary itself.
pub fn scale_snapshot(exe: &Path, smoke: bool, log: impl Fn(&str)) -> ScaleSnapshot {
    let s = spcs(smoke);

    log(&format!(
        "certifying streaming == resident at spc={}...",
        s.equivalence
    ));
    let eq = run_child(exe, "equivalence", s.equivalence);
    let equivalence = EquivalenceOut {
        sites: u(&eq, "sites"),
        identical_dataset: eq["identical_dataset"].as_bool().expect("bool field"),
        identical_report: eq["identical_report"].as_bool().expect("bool field"),
    };
    assert!(
        equivalence.identical_dataset,
        "chunk store reload diverged from the resident dataset"
    );
    assert!(
        equivalence.identical_report,
        "chunk-folded report diverged from the resident report"
    );
    log(&format!(
        "  identical over {} sites (dataset and report)",
        equivalence.sites
    ));

    log(&format!("resident baseline at spc={}...", s.base));
    let resident = parse_row(&run_child(exe, "resident", s.base));
    log(&format!(
        "  {} sites, {} ms, peak RSS {} MB",
        resident.sites,
        resident.wall_ms,
        crate::fmt_rss_mb(resident.peak_rss_bytes)
    ));

    log(&format!("streaming at spc={}...", s.base));
    let streaming_base = parse_row(&run_child(exe, "streaming", s.base));
    log(&format!(
        "  {} sites, {} ms, peak RSS {} MB, store {} MB",
        streaming_base.sites,
        streaming_base.wall_ms,
        crate::fmt_rss_mb(streaming_base.peak_rss_bytes),
        streaming_base.store_bytes >> 20
    ));

    log(&format!("streaming beyond paper at spc={}...", s.big));
    let streaming_big = parse_row(&run_child(exe, "streaming", s.big));
    log(&format!(
        "  {} sites, {} ms, peak RSS {} MB, store {} MB",
        streaming_big.sites,
        streaming_big.wall_ms,
        crate::fmt_rss_mb(streaming_big.peak_rss_bytes),
        streaming_big.store_bytes >> 20
    ));

    let ratio = match (resident.peak_rss_bytes, streaming_big.peak_rss_bytes) {
        (Some(resident_rss), Some(big_rss)) => {
            let scaled_resident =
                resident_rss as f64 * (streaming_big.sites as f64 / resident.sites.max(1) as f64);
            let ratio = big_rss as f64 / scaled_resident.max(1.0);
            Some((ratio * 1000.0).round() / 1000.0)
        }
        _ => None,
    };
    ScaleSnapshot {
        chunk_sites: DEFAULT_CHUNK_SITES as u64,
        equivalence,
        rows: vec![resident, streaming_base, streaming_big],
        rss_ratio_streaming_vs_scaled_resident: ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tier-1: the certification the full bench runs at 95K sites holds
    /// in-process at smoke scale — streaming reload and report are exact.
    #[test]
    fn equivalence_certifies_at_smoke_scale() {
        let out = equivalence_phase(20);
        assert!(out.sites > 1_000, "world too small: {}", out.sites);
        assert!(out.identical_dataset, "reloaded dataset diverged");
        assert!(out.identical_report, "streaming report diverged");
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        let rss = crate::peak_rss_bytes();
        if cfg!(target_os = "linux") {
            let rss = rss.expect("VmHWM available on Linux");
            assert!(rss > 1 << 20, "VmHWM under 1 MB: {rss}");
        }
    }
}
