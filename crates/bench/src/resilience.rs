//! The supervision/resilience bench behind `BENCH_resilience.json`.
//!
//! Three questions, answered on one reduced world, every run streaming
//! into a chunk store:
//!
//! 1. What does checkpointing cost? A clean run vs the same run with the
//!    run journal (one-row chunks beside the store) enabled: wall overhead
//!    and journal size.
//! 2. What does a worker death cost? Seeded [`ChaosPlan`] kills at N
//!    evenly spaced sites; the snapshot records time-to-complete, the
//!    supervision counters, and — the headline — how many observations
//!    were lost or changed versus the undisturbed baseline (must be 0:
//!    requeued batches re-measure to identical bytes).
//! 3. What does crash-resume cost? The scene a run killed at 50% of its
//!    commits leaves behind (the journal's first half and the chunks it
//!    completed) is rebuilt through the public writers and the run
//!    resumed; the snapshot records the resume wall against the clean
//!    wall and certifies the healed store byte-identical.

use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;
use webdep_pipeline::{
    journal, measure_streamed, resume_streamed, ChaosPlan, ChunkStore, ChunkStoreWriter,
    JournalWriter, MeasuredDataset, PipelineConfig, SupervisorConfig, DEFAULT_CHUNK_SITES,
};
use webdep_webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

/// Worker deaths injected per degraded run.
const DEATH_COUNTS: [usize; 3] = [1, 2, 4];

/// The clean reference pair: the same streamed run without and with the
/// journal.
#[derive(Serialize)]
pub struct CleanRuns {
    /// Wall-clock of the plain run (ms).
    pub wall_ms: u64,
    /// Wall-clock with the journal enabled (ms).
    pub journaled_wall_ms: u64,
    /// `journaled_wall_ms / wall_ms - 1`, the checkpointing tax.
    pub journal_overhead: f64,
    /// Size of the completed journal file (bytes).
    pub journal_bytes: u64,
}

/// One chaos run with a fixed number of injected worker deaths.
#[derive(Serialize)]
pub struct DeathRun {
    /// Worker deaths scheduled (at evenly spaced sites, first attempt
    /// only, so each fires exactly once).
    pub deaths_injected: usize,
    /// Workers the supervisor actually declared lost.
    pub workers_lost: u64,
    /// Replacement workers spawned.
    pub workers_respawned: u64,
    /// In-flight batches requeued.
    pub batches_requeued: u64,
    /// Sites failed by the poison policy (must stay 0 here).
    pub sites_poisoned: u64,
    /// Observations that differ from the undisturbed baseline (must be 0).
    pub observations_lost: u64,
    /// Wall-clock of the degraded run (ms).
    pub wall_ms: u64,
    /// `wall_ms` relative to the clean run.
    pub slowdown: f64,
    /// Whether every store file is byte-identical to the baseline's.
    pub byte_identical: bool,
}

/// The kill-at-50%-and-resume cycle.
#[derive(Serialize)]
pub struct ResumeRun {
    /// Journal records restored instead of re-measured.
    pub resumed_records: u64,
    /// `resumed_records` over the site count.
    pub resumed_fraction: f64,
    /// Wall-clock of the resumed (second) half (ms).
    pub wall_ms: u64,
    /// Resume wall over the clean full-run wall — roughly the fraction of
    /// work the crash did *not* save, plus journal-replay overhead.
    pub overhead_vs_clean: f64,
    /// Whether every healed store file is byte-identical to the
    /// uninterrupted baseline's.
    pub byte_identical: bool,
}

/// The whole `BENCH_resilience.json` payload.
#[derive(Serialize)]
pub struct ResilienceSnapshot {
    /// Sites in the bench world.
    pub sites: u64,
    /// Pipeline workers.
    pub workers: u64,
    /// The clean / journaled reference runs.
    pub baseline: CleanRuns,
    /// One run per injected death count.
    pub deaths: Vec<DeathRun>,
    /// The crash-resume cycle.
    pub resume: ResumeRun,
    /// Peak RSS (`VmHWM`) of the bench process when the snapshot was
    /// assembled (bytes; `None`/JSON `null` off-Linux).
    pub peak_rss_bytes: Option<u64>,
}

/// World for the resilience runs: same reduced scale as the fault sweep,
/// so several full measurements stay tractable.
fn bench_world_config() -> WorldConfig {
    WorldConfig {
        seed: 42,
        sites_per_country: 60,
        global_pool_size: 300,
        tail_scale: 0.04,
        pool_target: 40,
    }
}

fn pipeline_config(workers: usize, chaos: Option<ChaosPlan>) -> PipelineConfig {
    PipelineConfig {
        workers,
        chaos,
        supervisor: SupervisorConfig {
            // Enough respawn budget for the deepest death schedule.
            max_respawns: DEATH_COUNTS[DEATH_COUNTS.len() - 1] * 2,
            ..SupervisorConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Evenly spaced kill sites, far enough apart that each lands in its own
/// batch and kills exactly one worker (first attempt only).
fn kill_sites(n_sites: usize, deaths: usize) -> Vec<usize> {
    (1..=deaths).map(|k| k * n_sites / (deaths + 1)).collect()
}

/// Every file of a finished store, in name order.
fn store_bytes(dir: &Path) -> Vec<Vec<u8>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store")
        .map(|e| e.expect("store entry").path())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read(p).expect("read store file"))
        .collect()
}

fn load(dir: &Path, world: &World) -> MeasuredDataset {
    ChunkStore::open(dir)
        .and_then(|s| s.load_dataset(world))
        .expect("load store")
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("webdep-resilience-{name}-{}", std::process::id()))
}

/// Runs the resilience bench and assembles the snapshot.
///
/// `progress` receives one line per completed stage (the bench binary
/// wires it to stderr; tests pass a sink).
pub fn resilience_snapshot(workers: usize, progress: impl FnMut(&str)) -> ResilienceSnapshot {
    resilience_snapshot_with(bench_world_config(), workers, progress)
}

/// [`resilience_snapshot`] over an explicit world config (tests shrink it).
pub fn resilience_snapshot_with(
    world_cfg: WorldConfig,
    workers: usize,
    mut progress: impl FnMut(&str),
) -> ResilienceSnapshot {
    let world = World::generate(world_cfg);
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let n = world.sites.len();
    let streamed = |name: &str, chaos: Option<ChaosPlan>, journal: Option<&Path>| {
        let dir = scratch(name);
        let stats = measure_streamed(
            &world,
            &dep,
            &pipeline_config(workers, chaos),
            &dir,
            journal,
        )
        .expect("streamed run");
        (dir, stats)
    };

    let (clean_dir, clean_stats) = streamed("clean", None, None);
    let clean_wall = clean_stats.wall;
    let baseline_ds = load(&clean_dir, &world);
    let baseline_bytes = store_bytes(&clean_dir);
    progress(&format!(
        "clean: {n} sites in {} ms",
        clean_wall.as_millis()
    ));

    let journal_path = scratch("journal");
    let (journaled_dir, journaled_stats) = streamed("journaled", None, Some(&journal_path));
    assert!(
        store_bytes(&journaled_dir) == baseline_bytes,
        "journaling changed the store"
    );
    let _ = std::fs::remove_dir_all(&journaled_dir);
    let journal_bytes = std::fs::metadata(&journal_path)
        .map(|m| m.len())
        .unwrap_or(0);
    let journaled_wall = journaled_stats.wall;
    progress(&format!(
        "journaled: {} ms (+{:.1}%), journal {} KiB",
        journaled_wall.as_millis(),
        100.0 * (journaled_wall.as_secs_f64() / clean_wall.as_secs_f64() - 1.0),
        journal_bytes / 1024
    ));

    let deaths = DEATH_COUNTS
        .iter()
        .map(|&d| {
            let plan = ChaosPlan::kill_at(&kill_sites(n, d));
            let (dir, stats) = streamed("deaths", Some(plan), None);
            let observations_lost = baseline_ds
                .observations
                .iter()
                .zip(&load(&dir, &world).observations)
                .filter(|(a, b)| a != b)
                .count() as u64;
            let run = DeathRun {
                deaths_injected: d,
                workers_lost: stats.supervision.workers_lost,
                workers_respawned: stats.supervision.workers_respawned,
                batches_requeued: stats.supervision.batches_requeued,
                sites_poisoned: stats.supervision.sites_poisoned,
                observations_lost,
                wall_ms: stats.wall.as_millis() as u64,
                slowdown: round3(stats.wall.as_secs_f64() / clean_wall.as_secs_f64()),
                byte_identical: store_bytes(&dir) == baseline_bytes,
            };
            let _ = std::fs::remove_dir_all(&dir);
            progress(&format!(
                "deaths={d}: lost {}, requeued {}, obs lost {}, {} ms (x{:.2}), identical {}",
                run.workers_lost,
                run.batches_requeued,
                run.observations_lost,
                run.wall_ms,
                run.slowdown,
                run.byte_identical
            ));
            run
        })
        .collect();

    // Crash-resume: rebuild what a process killed after half its commits
    // leaves behind — the journal's first half, and every chunk those
    // commits completed — through the public writers.
    let full = journal::load(&journal_path).expect("load journal");
    let keep = n / 2;
    let (cut_dir, cut_path) = (scratch("resume-store"), scratch("resume-journal"));
    {
        let mut store = ChunkStoreWriter::create(&cut_dir, &world.label, n, DEFAULT_CHUNK_SITES)
            .expect("create cut store");
        let mut journal =
            JournalWriter::create(&cut_path, &world.label, n).expect("create cut journal");
        for (site, obs) in &full.records[..keep] {
            store.commit(*site, obs).expect("commit");
            journal.append(*site, obs).expect("append");
        }
    }

    let t0 = Instant::now();
    let resumed_stats = resume_streamed(
        &world,
        &dep,
        &pipeline_config(workers, None),
        &cut_dir,
        &cut_path,
    )
    .expect("resume");
    let resume_wall = t0.elapsed();
    let resume = ResumeRun {
        resumed_records: resumed_stats.supervision.sites_resumed,
        resumed_fraction: round3(keep as f64 / n as f64),
        wall_ms: resume_wall.as_millis() as u64,
        overhead_vs_clean: round3(resume_wall.as_secs_f64() / clean_wall.as_secs_f64()),
        byte_identical: store_bytes(&cut_dir) == baseline_bytes,
    };
    progress(&format!(
        "resume from {}/{}: {} ms ({:.0}% of clean), identical {}",
        resume.resumed_records,
        n,
        resume.wall_ms,
        100.0 * resume.overhead_vs_clean,
        resume.byte_identical
    ));
    for dir in [&clean_dir, &cut_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    for file in [&cut_path, &journal_path] {
        let _ = std::fs::remove_file(file);
    }

    ResilienceSnapshot {
        sites: n as u64,
        workers: workers as u64,
        baseline: CleanRuns {
            wall_ms: clean_wall.as_millis() as u64,
            journaled_wall_ms: journaled_wall.as_millis() as u64,
            journal_overhead: round3(journaled_wall.as_secs_f64() / clean_wall.as_secs_f64() - 1.0),
            journal_bytes,
        },
        deaths,
        resume,
        peak_rss_bytes: crate::peak_rss_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full snapshot machinery on a micro world: every chaos run must
    /// lose zero observations and the resume must be byte-identical.
    #[test]
    fn resilience_snapshot_certifies_no_loss() {
        let cfg = WorldConfig {
            seed: 42,
            sites_per_country: 20,
            global_pool_size: 80,
            tail_scale: 0.04,
            pool_target: 40,
        };
        let snap = resilience_snapshot_with(cfg, 4, |_| {});
        assert_eq!(snap.deaths.len(), DEATH_COUNTS.len());
        for run in &snap.deaths {
            assert!(
                run.workers_lost >= 1,
                "deaths={} lost none",
                run.deaths_injected
            );
            assert_eq!(run.observations_lost, 0, "deaths={}", run.deaths_injected);
            assert_eq!(run.sites_poisoned, 0, "deaths={}", run.deaths_injected);
            assert!(run.byte_identical, "deaths={}", run.deaths_injected);
        }
        assert!(snap.resume.byte_identical);
        assert!(snap.resume.resumed_records > 0);
        assert!(snap.baseline.journal_bytes > 0);
    }

    #[test]
    fn kill_sites_are_spread_and_in_range() {
        let sites = kill_sites(9000, 4);
        assert_eq!(sites.len(), 4);
        assert!(sites.windows(2).all(|w| w[0] < w[1]));
        assert!(sites.iter().all(|&s| s > 0 && s < 9000));
    }
}
