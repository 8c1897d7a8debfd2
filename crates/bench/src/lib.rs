//! Shared fixtures for the benchmark suite.
//!
//! The figure/table benches all need a measured world; building one per
//! bench would dominate the run, so a tiny world is generated, deployed,
//! and measured once per process.

use std::sync::OnceLock;
use webdep_analysis::AnalysisCtx;
use webdep_pipeline::{measure, MeasuredDataset, PipelineConfig};
use webdep_webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

pub mod analysis;
pub mod evolve;
pub mod faults;
pub mod gate;
pub mod overload;
pub mod resilience;
pub mod scale;
pub mod serve;

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where `/proc` is unavailable
/// (non-Linux) or the field is missing/unparseable. Callers serialize
/// absence as JSON `null` — never as a fake `0`, which downstream ratio
/// math would read as "no memory used".
///
/// The high-water mark is monotonic for the life of the process, so a
/// bench that wants per-phase peaks must run each phase in its own
/// subprocess (see [`scale`]).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb = rest.trim().trim_end_matches("kB").trim();
            return kb.parse::<u64>().ok().map(|kb| kb * 1024);
        }
    }
    None
}

/// Appends one `unix_ts,bench,summary` line to the history CSV at
/// `path`, writing the header first if the file does not exist yet.
///
/// The summary is one CSV field: any comma in it would silently shift
/// the columns for every later reader, so commas are replaced with `;`
/// here rather than trusted away at each call site.
pub fn append_history_line(
    path: &std::path::Path,
    name: &str,
    summary: &str,
) -> std::io::Result<()> {
    use std::io::Write;
    let summary = summary.replace(',', ";");
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let header = if path.exists() {
        ""
    } else {
        "unix_ts,bench,summary\n"
    };
    let line = format!("{header}{ts},{name},{summary}\n");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
}

/// Renders a peak-RSS reading as whole mebibytes, or `n/a` where the
/// platform reports none.
pub fn fmt_rss_mb(rss: Option<u64>) -> String {
    match rss {
        Some(bytes) => (bytes >> 20).to_string(),
        None => "n/a".to_string(),
    }
}

/// The shared (world, dataset) fixture at tiny scale.
pub fn fixture() -> &'static (World, MeasuredDataset) {
    static FIXTURE: OnceLock<(World, MeasuredDataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny());
        let dep = DeployedWorld::deploy(&world, DeployConfig::default());
        let ds = measure(&world, &dep, &PipelineConfig::default());
        (world, ds)
    })
}

/// Analysis context over the shared fixture.
pub fn ctx() -> AnalysisCtx<'static> {
    let (world, ds) = fixture();
    AnalysisCtx::new(world, ds)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tier-1 smoke for the snapshot harness: a cube build plus a full
    /// suite run over the shared world, through the same `time_suite` the
    /// `bench-snapshot` binary times, and a (tiny) affinity sweep check.
    /// A summary with commas must land as a single CSV field: commas are
    /// sanitized to `;`, never written through (a raw comma would shift
    /// the columns for every later `BENCH_history.csv` reader).
    #[test]
    fn history_summaries_are_comma_sanitized() {
        let dir = std::env::temp_dir().join(format!("webdep-history-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.csv");
        let _ = std::fs::remove_file(&path);
        append_history_line(&path, "serve", "p50 12us, p99 80us, 9 rps").unwrap();
        append_history_line(&path, "scale", "clean summary").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "unix_ts,bench,summary");
        assert_eq!(lines.len(), 3, "header plus two rows: {text:?}");
        for row in &lines[1..] {
            assert_eq!(
                row.matches(',').count(),
                2,
                "row must have exactly three fields: {row:?}"
            );
        }
        assert!(lines[1].ends_with("serve,p50 12us; p99 80us; 9 rps"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_harness_runs_cube_suite() {
        let (world, ds) = fixture();
        let t = analysis::time_suite(world, ds);
        assert_eq!(t.passed, t.total, "{}/{} experiments", t.passed, t.total);
        assert!(t.ctx_build_ms >= 0.0 && t.suite_wall_ms > 0.0);

        let a = analysis::time_affinity(160, 2);
        assert!(a.identical, "parallel affinity diverged from serial");
        assert!(a.sweeps > 0);
    }
}
