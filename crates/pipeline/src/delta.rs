//! Incremental epoch measurement: re-measure only what changed.
//!
//! A continuous measurement loop evolves the world each epoch
//! ([`webdep_webgen::EvolutionPlan`]) and hands [`measure_delta`] the
//! previous epoch's chunk store plus the [`WorldDelta`] naming the dirty
//! site set. Clean sites never touch the network again:
//!
//! * a chunk with no dirty site and an unchanged row count is **adopted**
//!   wholesale — hard-linked (copy fallback) from the previous store and
//!   checksum-verified, zero decode and zero re-encode;
//! * a chunk containing dirty rows (or the previous store's short final
//!   chunk, whose row count grows with the site table) has its *clean*
//!   rows decoded from the previous store and re-committed, while its
//!   dirty rows go to the measurement workers;
//! * every dirty site is re-measured under the same supervised runner as
//!   [`crate::run::measure_streamed`].
//!
//! Because per-site measurement is deterministic and chunk bytes are a
//! pure function of their rows, the finished store is **byte-identical**
//! to a from-scratch `measure_streamed` of the evolved world — provided
//! the evolved world is deployed with the base epoch's pinned pool census
//! ([`webdep_webgen::DeployConfig::pool_sites`]), which keeps unchanged
//! sites' serving IPs fixed while customer counts churn. The identity
//! holds across worker counts (`tests/delta.rs`), the same contract as
//! crash-resume.

use crate::journal::JournalWriter;
use crate::run::{finish_streaming, run_supervised, MeasureStats, PipelineConfig, Sink};
use crate::store::{ChunkStore, ChunkStoreWriter};
use std::io;
use std::path::Path;
use webdep_webgen::{DeployedWorld, World, WorldDelta};

/// Accounting for one [`measure_delta`] run.
#[derive(Debug)]
pub struct DeltaStats {
    /// Sites in the evolved epoch.
    pub sites_total: usize,
    /// Dirty sites actually re-measured.
    pub sites_remeasured: usize,
    /// Clean chunks reused wholesale (hard-link or copy, no re-encode).
    pub chunks_adopted: usize,
    /// Total chunks in the new store.
    pub chunks_total: usize,
    /// Clean rows re-committed out of partially dirty chunks.
    pub rows_recommitted: usize,
    /// Stats from the supervised run over the dirty remainder.
    pub measure: MeasureStats,
}

/// Materializes the epoch-N+1 store at `store_dir` from the epoch-N store
/// at `prev_store_dir` plus the dirty set in `delta`, re-measuring only
/// dirty sites against `dep`.
///
/// `world` must be the evolved world (`delta.to_label`), deployed with the
/// base epoch's pinned pool census for the byte-identity contract to hold;
/// `journal_path` optionally checkpoints the dirty-site re-measurement
/// exactly as in [`crate::run::measure_streamed`].
pub fn measure_delta(
    world: &World,
    dep: &DeployedWorld,
    config: &PipelineConfig,
    delta: &WorldDelta,
    prev_store_dir: &Path,
    store_dir: &Path,
    journal_path: Option<&Path>,
) -> io::Result<DeltaStats> {
    let n = world.sites.len();
    if world.label != delta.to_label || n != delta.to_sites {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "world '{}' ({} sites) is not the delta's target '{}' ({} sites)",
                world.label, n, delta.to_label, delta.to_sites
            ),
        ));
    }
    let prev = ChunkStore::open(prev_store_dir)?;
    if prev.label != delta.from_label || prev.sites != delta.from_sites {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "previous store '{}' ({} sites) is not the delta's source '{}' ({} sites)",
                prev.label, prev.sites, delta.from_label, delta.from_sites
            ),
        ));
    }

    // Same chunk geometry as the previous epoch, so clean chunks align.
    let k = prev.chunk_sites;
    let mut store = ChunkStoreWriter::create(store_dir, &world.label, n, k)?;
    let dirty = delta.dirty();
    let mut done = vec![false; n];
    let mut chunks_adopted = 0usize;
    let mut rows_recommitted = 0usize;
    for c in 0..prev.num_chunks() {
        let lo = c * k;
        let prev_rows = prev.chunk_rows(c);
        let new_rows = (n - lo).min(k);
        let chunk_dirty = dirty[lo..lo + prev_rows].iter().any(|&d| d);
        if prev_rows == new_rows && !chunk_dirty {
            store.adopt_chunk(&prev, c)?;
            chunks_adopted += 1;
            for d in done[lo..lo + new_rows].iter_mut() {
                *d = true;
            }
        } else {
            // The previous epoch's rows are the ground truth for this
            // chunk's clean sites; dirty rows (and the appended tail) are
            // left for the workers.
            let chunk = prev.read_chunk(c)?;
            for r in 0..prev_rows {
                if !dirty[lo + r] {
                    store.commit_owned(lo + r, chunk.observation(r))?;
                    done[lo + r] = true;
                    rows_recommitted += 1;
                }
            }
        }
    }

    let resumed = done.iter().filter(|&&d| d).count();
    let journal = journal_path
        .map(|p| JournalWriter::create(p, &world.label, n))
        .transpose()?;
    let sink = Sink::Streaming {
        done,
        store,
        store_error: None,
    };
    let (sink, stats, journal_err) = run_supervised(world, dep, config, journal, sink, resumed);
    let measure = finish_streaming(world, sink, journal_err, stats)?;
    Ok(DeltaStats {
        sites_total: n,
        sites_remeasured: n - resumed,
        chunks_adopted,
        chunks_total: n.div_ceil(k),
        rows_recommitted,
        measure,
    })
}
