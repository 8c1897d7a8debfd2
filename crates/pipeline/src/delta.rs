//! Incremental epoch measurement: re-measure only what changed, and
//! store only what changed.
//!
//! A continuous measurement loop evolves the world each epoch
//! ([`webdep_webgen::EvolutionPlan`]) and hands [`measure_delta`] the
//! previous epoch's chunk store plus the [`WorldDelta`] naming the dirty
//! site set — the sites appended at the end of the site table and the
//! sites migrated in place. Clean sites never touch the network again,
//! and an epoch's store work follows the dirty rows, not the world
//! ([`crate::store`] has the layout):
//!
//! * every base chunk and patch of the previous store whose rows the
//!   growth leaves alone is **carried** — hard-linked (copy fallback) and
//!   checked by header and checksum, zero decode and zero re-encode;
//! * the previous store's short tail chunk, which the appended sites
//!   grow, is decoded and re-encoded with its old rows plus the appended
//!   sites, and the other appended sites fill fresh chunks;
//! * the migrated sites, and only those, are written as one new patch,
//!   which supersedes their old rows;
//! * every dirty site is re-measured under the same supervised runner as
//!   [`crate::run::measure_streamed`].
//!
//! Once the patches hold more than `1/`[`COMPACT_SHARE`] of the sites, the
//! epoch ends with [`ChunkStore::compact`].
//!
//! Because per-site measurement is deterministic and chunk bytes are a
//! pure function of their rows, the finished store **reads** the same as
//! a from-scratch `measure_streamed` of the evolved world, and
//! **compacts to byte-identical** stores — an epoch without migrations
//! is byte-identical as written — provided the evolved world is deployed
//! with the base epoch's pinned pool census
//! ([`webdep_webgen::DeployConfig::pool_sites`]), which keeps unchanged
//! sites' serving IPs fixed while customer counts churn. The identity
//! holds across worker counts (`tests/delta.rs`), the same contract as
//! crash-resume. It is also how a damaged epoch store heals: running the
//! epoch's `measure_delta` again from the previous epoch's store resets
//! `store_dir` and writes the same bytes.

use crate::run::{finish_streaming, run_supervised, MeasureStats, PipelineConfig, Sink};
use crate::store::{ChunkStore, ChunkStoreWriter};
use std::convert::Infallible;
use std::io;
use std::path::Path;
use webdep_webgen::{DeployedWorld, World, WorldDelta};

/// An epoch compacts its store once the patch rows exceed one
/// `COMPACT_SHARE`-th of the sites. Every patch row is a superseded base
/// row that each full read (`load_dataset`, `CubeSnapshot::from_store`,
/// `fsck`) decodes on top of one row per site, and compaction rewrites
/// about the whole store once. At 1/16 a full read pays at most 6.25%
/// extra decode, within run-to-run noise, while a compaction is spread
/// over the epochs it takes the migrations to add a sixteenth of the
/// sites — 29 under `EvolutionPlan::continuous` at 10% churn on the
/// `small` world, where they migrate 740–880 sites an epoch.
pub const COMPACT_SHARE: usize = 16;

/// Accounting for one [`measure_delta`] run. `rows_recommitted` are the
/// only clean rows the epoch decodes, and each is encoded once more;
/// every other row it encodes is dirty.
#[derive(Debug)]
pub struct DeltaStats {
    /// Sites in the evolved epoch.
    pub sites_total: usize,
    /// Dirty sites actually re-measured.
    pub sites_remeasured: usize,
    /// Base chunks carried from the previous store unchanged (hard-link
    /// or copy, no decode, no re-encode) and still its files after any
    /// compaction.
    pub chunks_adopted: usize,
    /// Total base chunks in the new store.
    pub chunks_total: usize,
    /// Clean rows of the previous short tail chunk, decoded and
    /// re-committed into the grown tail (fewer than one chunk).
    pub rows_recommitted: usize,
    /// Patch rows the new store holds over all its patches (0 once
    /// compacted).
    pub patch_rows: usize,
    /// Whether the epoch compacted the store ([`ChunkStore::compact`]).
    pub compacted: bool,
    /// Stats from the supervised run over the dirty remainder.
    pub measure: MeasureStats,
}

/// Materializes the epoch-N+1 store at `store_dir` from the epoch-N store
/// at `prev_store_dir` plus the dirty set in `delta`, re-measuring only
/// dirty sites against `dep`.
///
/// `world` must be the evolved world (`delta.to_label`), deployed with the
/// base epoch's pinned pool census for the byte-identity contract to hold.
/// Whatever `store_dir` held is replaced, so running an epoch again heals
/// its store. `_retired` is always `None`, as in
/// [`crate::run::measure_streamed`].
pub fn measure_delta(
    world: &World,
    dep: &DeployedWorld,
    config: &PipelineConfig,
    delta: &WorldDelta,
    prev_store_dir: &Path,
    store_dir: &Path,
    _retired: Option<Infallible>,
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

    // Same chunk geometry as the previous epoch, so carried chunks align.
    let (store, carried) =
        ChunkStoreWriter::carry(&prev, store_dir, &world.label, n, &delta.migrated)?;
    let done: Vec<bool> = delta.dirty().into_iter().map(|dirty| !dirty).collect();
    let (sink, stats) = run_supervised(world, || dep, config, Sink::new(done, store));
    let measure = finish_streaming(world, sink, stats)?;

    let mut patch_rows = prev.patch_rows() + delta.migrated.len();
    let compacted = patch_rows * COMPACT_SHARE > n;
    // The carried chunks are the leading ones; compaction replaces those
    // holding a patched site.
    let mut chunks_adopted = carried.chunks;
    if compacted {
        let rewritten = ChunkStore::compact(store_dir)?;
        chunks_adopted -= rewritten.iter().filter(|&&c| c < carried.chunks).count();
        patch_rows = 0;
    }
    Ok(DeltaStats {
        sites_total: n,
        sites_remeasured: delta.dirty_count(),
        chunks_adopted,
        chunks_total: n.div_ceil(prev.chunk_sites),
        rows_recommitted: carried.tail_rows,
        patch_rows,
        compacted,
        measure,
    })
}
