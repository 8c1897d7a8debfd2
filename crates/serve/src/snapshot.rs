//! Epoch-versioned immutable snapshots and their RwLock-free publication
//! cell.
//!
//! A [`CubeSnapshot`] bundles everything a request needs to answer a query
//! — the world, a (possibly hollow) dataset, the [`DependenceCube`], and
//! the failure taxonomy — behind a single `Arc`. Snapshots are immutable
//! after construction; re-measurement builds a *new* snapshot off-thread
//! and publishes it through [`SnapshotCell`], so readers never block on a
//! writer and a publish landing mid-traffic can never tear a response.
//!
//! [`SnapshotCell`] is the ArcSwap idiom over std primitives: the current
//! `Arc<CubeSnapshot>` lives under a `Mutex` that is only locked to clone
//! the `Arc` (a few ns) or to swap it, while a separate `AtomicU64` epoch
//! lets workers validate a thread-local cached `Arc` with one atomic load
//! on the hot path — zero lock acquisitions for cache-warm workers until
//! an epoch actually changes.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use webdep_analysis::{AnalysisCtx, CubeBuilder, DependenceCube, Trajectory};
use webdep_pipeline::{
    ChunkStore, FailureCause, FailureTaxonomy, MeasuredDataset, SiteObservation,
};
use webdep_webgen::{Layer, World, WorldDelta};

/// The carry-forward state that lets epoch N+1 build from epoch N without
/// re-reading clean chunks: the cube builder's per-site owner labels (16
/// bytes per site) plus each site's failure causes at the three measured
/// layers (for incremental taxonomy adjustment). Both are pure per-site
/// records, so cloning + patching dirty sites reproduces a from-scratch
/// fold exactly.
struct DeltaState {
    builder: CubeBuilder,
    causes: Vec<[Option<FailureCause>; 3]>,
}

/// One immutable epoch of serving state.
pub struct CubeSnapshot {
    /// Monotonic version; every response body and `X-Webdep-Epoch` header
    /// carries it.
    pub epoch: u64,
    /// The generating world (entity metadata, toplists).
    pub world: Arc<World>,
    /// The dataset — hollow (no resident observations) when loaded from a
    /// chunked store.
    pub dataset: MeasuredDataset,
    /// The columnar cube every query reads.
    pub cube: DependenceCube,
    /// Failure taxonomy folded at snapshot build time (the hollow dataset
    /// cannot derive it on demand).
    pub taxonomy: FailureTaxonomy,
    /// Whether raw observations are resident in `dataset`.
    pub resident: bool,
    /// Per-epoch centralization trajectory up to and including this epoch;
    /// [`CubeSnapshot::from_delta`] extends the previous snapshot's, so
    /// `/v1/trajectory` is epoch-consistent with every other route.
    pub trajectory: Trajectory,
    /// Carry-forward for the next delta build.
    delta_state: DeltaState,
}

/// A hollow dataset (toplists only) mirroring `ChunkStore::load_dataset`'s
/// shape minus the observation vector.
fn hollow_dataset(world: &World, label: &str) -> MeasuredDataset {
    MeasuredDataset {
        observations: Vec::new(),
        toplists: world.toplists.clone(),
        global_top: world.global_top.clone(),
        label: label.to_string(),
    }
}

impl CubeSnapshot {
    /// Builds a snapshot from a resident dataset (a fresh measurement).
    pub fn from_dataset(epoch: u64, world: Arc<World>, dataset: MeasuredDataset) -> Self {
        let mut builder = CubeBuilder::new(dataset.observations.len());
        let mut causes = Vec::with_capacity(dataset.observations.len());
        for (i, obs) in dataset.observations.iter().enumerate() {
            builder.fold_observation(i, obs, &world);
            causes.push(obs.failure_causes());
        }
        let cube = builder.finish(&world, &dataset.toplists, &dataset.global_top);
        let taxonomy = dataset.failure_taxonomy();
        let mut trajectory = Trajectory::new();
        trajectory.push(&AnalysisCtx::with_cube_ref(&world, &dataset, &cube));
        CubeSnapshot {
            epoch,
            world,
            dataset,
            cube,
            taxonomy,
            resident: true,
            trajectory,
            delta_state: DeltaState { builder, causes },
        }
    }

    /// Builds a **hollow** snapshot from a borrowed observation slice: the
    /// cube, taxonomy, and delta carry-forward fold exactly as in
    /// [`CubeSnapshot::from_dataset`], but the observations stay with the
    /// caller and the snapshot's dataset is hollow. For callers that
    /// already hold a resident dataset and want to publish several epochs
    /// of it without paying a resident copy per snapshot.
    pub fn from_observations(
        epoch: u64,
        world: Arc<World>,
        label: &str,
        observations: &[SiteObservation],
    ) -> Self {
        let mut builder = CubeBuilder::new(observations.len());
        let mut causes = Vec::with_capacity(observations.len());
        let mut taxonomy = FailureTaxonomy {
            total: observations.len() as u64,
            ..FailureTaxonomy::default()
        };
        for (i, obs) in observations.iter().enumerate() {
            builder.fold_observation(i, obs, &world);
            let site_causes = obs.failure_causes();
            causes.push(site_causes);
            taxonomy.record_site(site_causes);
        }
        let cube = builder.finish(&world, &world.toplists, &world.global_top);
        let dataset = hollow_dataset(&world, label);
        let mut trajectory = Trajectory::new();
        trajectory.push(&AnalysisCtx::with_cube_ref(&world, &dataset, &cube));
        CubeSnapshot {
            epoch,
            world,
            dataset,
            cube,
            taxonomy,
            resident: false,
            trajectory,
            delta_state: DeltaState { builder, causes },
        }
    }

    /// Builds a snapshot by streaming a chunked store: every chunk is
    /// folded into a [`CubeBuilder`] and the taxonomy via the error
    /// columns, and the dataset stays hollow — peak memory is one decoded
    /// chunk plus the cube, never the observation vector.
    ///
    /// The store must describe the same world (`label` and site count
    /// guarded, mirroring `ChunkStore::load_dataset`).
    pub fn from_store(epoch: u64, world: Arc<World>, dir: &Path) -> io::Result<Self> {
        Self::from_store_inner(epoch, world, dir, None)
    }

    /// [`CubeSnapshot::from_store`], but extending a previous snapshot's
    /// trajectory instead of starting a fresh one — the full-rebuild
    /// fallback for when a delta build fails validation mid-evolution:
    /// the cube and taxonomy are folded from scratch off the store, yet
    /// `/v1/trajectory` keeps its history and the result still satisfies
    /// [`CubeSnapshot::validate`] against the snapshot it succeeds.
    pub fn from_store_extending(
        epoch: u64,
        world: Arc<World>,
        dir: &Path,
        prev: &CubeSnapshot,
    ) -> io::Result<Self> {
        Self::from_store_inner(epoch, world, dir, Some(&prev.trajectory))
    }

    fn from_store_inner(
        epoch: u64,
        world: Arc<World>,
        dir: &Path,
        prev_trajectory: Option<&Trajectory>,
    ) -> io::Result<Self> {
        let store = ChunkStore::open(dir)?;
        if store.label != world.label || store.sites != world.sites.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "store ({} sites, label {:?}) does not match world ({} sites, label {:?})",
                    store.sites,
                    store.label,
                    world.sites.len(),
                    world.label
                ),
            ));
        }
        let mut builder = CubeBuilder::new(store.sites);
        let mut site_causes = vec![[None; 3]; store.sites];
        let mut taxonomy = FailureTaxonomy {
            total: store.sites as u64,
            ..FailureTaxonomy::default()
        };
        for c in 0..store.num_chunks() {
            let chunk = store.read_chunk(c)?;
            builder.fold_chunk(&chunk, &world);
            for r in 0..chunk.rows {
                let causes = chunk.failure_causes(r);
                site_causes[chunk.lo + r] = causes;
                taxonomy.record_site(causes);
            }
        }
        let cube = builder.finish(&world, &world.toplists, &world.global_top);
        let dataset = hollow_dataset(&world, &store.label);
        let mut trajectory = prev_trajectory.cloned().unwrap_or_default();
        trajectory.push(&AnalysisCtx::with_cube_ref(&world, &dataset, &cube));
        Ok(CubeSnapshot {
            epoch,
            world,
            dataset,
            cube,
            taxonomy,
            resident: false,
            trajectory,
            delta_state: DeltaState {
                builder,
                causes: site_causes,
            },
        })
    }

    /// Builds the next epoch's snapshot from the previous snapshot plus a
    /// [`WorldDelta`], reading **only the dirty chunks** of the new store
    /// at `dir` (the one `measure_delta` materialized). Clean chunks are
    /// never opened: the previous snapshot's carried cube-builder labels
    /// and per-site failure causes already hold their contribution, so the
    /// new cube is the old builder cloned, grown to the evolved site
    /// table, and refolded over dirty chunks, and the taxonomy is the old
    /// taxonomy with each dirty site's causes retracted and re-recorded.
    /// The result is indistinguishable from [`CubeSnapshot::from_store`]
    /// over the full store (`tests/service.rs` asserts equality).
    ///
    /// The trajectory extends the previous snapshot's with this epoch's
    /// point, so a delta-published server serves its full history.
    pub fn from_delta(
        epoch: u64,
        world: Arc<World>,
        prev: &CubeSnapshot,
        delta: &WorldDelta,
        dir: &Path,
    ) -> io::Result<Self> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if prev.world.label != delta.from_label || prev.world.sites.len() != delta.from_sites {
            return Err(invalid(format!(
                "previous snapshot '{}' ({} sites) is not the delta's source '{}' ({} sites)",
                prev.world.label,
                prev.world.sites.len(),
                delta.from_label,
                delta.from_sites
            )));
        }
        if world.label != delta.to_label || world.sites.len() != delta.to_sites {
            return Err(invalid(format!(
                "world '{}' ({} sites) is not the delta's target '{}' ({} sites)",
                world.label,
                world.sites.len(),
                delta.to_label,
                delta.to_sites
            )));
        }
        let store = ChunkStore::open(dir)?;
        if store.label != world.label || store.sites != world.sites.len() {
            return Err(invalid(format!(
                "store ({} sites, label {:?}) does not match world ({} sites, label {:?})",
                store.sites,
                store.label,
                world.sites.len(),
                world.label
            )));
        }

        let mut builder = prev.delta_state.builder.clone();
        builder.grow(store.sites);
        let mut causes = prev.delta_state.causes.clone();
        causes.resize(store.sites, [None; 3]);
        let mut taxonomy = prev.taxonomy.clone();
        taxonomy.total = store.sites as u64;
        let dirty = delta.dirty();

        let k = store.chunk_sites;
        for c in 0..store.num_chunks() {
            let lo = c * k;
            let rows = store.chunk_rows(c);
            if !dirty[lo..lo + rows].iter().any(|&d| d) {
                continue;
            }
            let chunk = store.read_chunk(c)?;
            // Refolds the whole chunk; clean rows overwrite their own
            // labels (folds are idempotent), dirty rows take new ones.
            builder.fold_chunk(&chunk, &world);
            for r in 0..rows {
                let i = lo + r;
                if !dirty[i] {
                    continue;
                }
                if i < delta.from_sites {
                    // Retract the superseded observation's contribution.
                    taxonomy.unrecord_site(causes[i]);
                }
                causes[i] = chunk.failure_causes(r);
                taxonomy.record_site(causes[i]);
            }
        }

        let cube = builder.finish(&world, &world.toplists, &world.global_top);
        let dataset = hollow_dataset(&world, &store.label);
        let mut trajectory = prev.trajectory.clone();
        trajectory.push(&AnalysisCtx::with_cube_ref(&world, &dataset, &cube));
        Ok(CubeSnapshot {
            epoch,
            world,
            dataset,
            cube,
            taxonomy,
            resident: false,
            trajectory,
            delta_state: DeltaState { builder, causes },
        })
    }

    /// A throwaway analysis context borrowing this snapshot's cube — what
    /// every request handler builds.
    pub fn ctx(&self) -> AnalysisCtx<'_> {
        AnalysisCtx::with_cube_ref(&self.world, &self.dataset, &self.cube)
    }

    /// Pre-publish invariant checks: every constructor upholds these by
    /// construction, so a candidate failing any of them was corrupted
    /// between build and publish (bit-flipped store, poisoned delta, a
    /// bug in an incremental path) and must not reach readers. Returns
    /// the first violated invariant as a human-readable reason.
    ///
    /// Checked against the snapshot alone:
    /// - the carried per-site state, the taxonomy total, and the world's
    ///   site table all agree on the site count;
    /// - the taxonomy equals an exact refold of the carried per-site
    ///   failure causes (incremental delta bookkeeping reproduces a
    ///   from-scratch tally or the candidate is rejected);
    /// - every layer's cube column totals reconcile with a walk of the
    ///   toplists through the carried owner labels (global-pool sites
    ///   legitimately appear in many countries' toplists, so totals are
    ///   compared with multiplicity, not as a site partition);
    /// - the trajectory is position-consistent (`points[i].epoch == i`)
    ///   and its last point belongs to this snapshot's world.
    ///
    /// Checked against `prev` (the snapshot currently serving):
    /// - the epoch strictly advances;
    /// - the trajectory extends the previous one by exactly one point.
    ///
    /// Checked against `delta` (when this candidate came from one):
    /// - the delta's source matches `prev` and its target matches this
    ///   snapshot's world, by label and site count.
    pub fn validate(
        &self,
        prev: Option<&CubeSnapshot>,
        delta: Option<&WorldDelta>,
    ) -> Result<(), String> {
        let sites = self.world.sites.len();
        if self.delta_state.causes.len() != sites {
            return Err(format!(
                "carried failure causes cover {} sites, world has {}",
                self.delta_state.causes.len(),
                sites
            ));
        }
        if self.delta_state.builder.sites() != sites {
            return Err(format!(
                "carried cube builder covers {} sites, world has {}",
                self.delta_state.builder.sites(),
                sites
            ));
        }
        if self.taxonomy.total != sites as u64 {
            return Err(format!(
                "taxonomy total {} does not reconcile with {} sites",
                self.taxonomy.total, sites
            ));
        }

        // Refold the taxonomy from the carried per-site causes and demand
        // exact equality — `unrecord` drops zeroed cells precisely so an
        // incremental tally stays bit-identical to a fresh one.
        let mut refold = FailureTaxonomy {
            total: sites as u64,
            ..FailureTaxonomy::default()
        };
        for &causes in &self.delta_state.causes {
            refold.record_site(causes);
        }
        if refold != self.taxonomy {
            return Err(
                "taxonomy does not equal a refold of the carried per-site causes".to_string(),
            );
        }

        // Cube column totals vs a toplist walk through the carried owner
        // labels: `CubeBuilder::finish` counts exactly the observed
        // toplist entries, so any divergence means the cube and the
        // carried state disagree about who owns what.
        for layer in Layer::ALL {
            let lc = self.cube.layer(layer);
            for (ci, toplist) in self.dataset.toplists.iter().enumerate() {
                let expected = toplist
                    .iter()
                    .filter(|&&site| {
                        self.delta_state
                            .builder
                            .owner(layer, site as usize)
                            .is_some()
                    })
                    .count() as u64;
                if lc.total(ci) != expected {
                    return Err(format!(
                        "cube {layer:?} total for country {ci} is {}, toplist walk says {expected}",
                        lc.total(ci)
                    ));
                }
            }
        }

        let Some(last) = self.trajectory.points.last() else {
            return Err("trajectory is empty".to_string());
        };
        if last.label != self.world.label {
            return Err(format!(
                "trajectory ends at label {:?}, world is {:?}",
                last.label, self.world.label
            ));
        }
        for (i, p) in self.trajectory.points.iter().enumerate() {
            if p.epoch != i {
                return Err(format!(
                    "trajectory point {i} carries epoch {} (not monotone)",
                    p.epoch
                ));
            }
        }

        if let Some(prev) = prev {
            if self.epoch <= prev.epoch {
                return Err(format!(
                    "epoch must advance ({} -> {})",
                    prev.epoch, self.epoch
                ));
            }
            if self.trajectory.points.len() != prev.trajectory.points.len() + 1 {
                return Err(format!(
                    "trajectory has {} points, must extend the previous {} by one",
                    self.trajectory.points.len(),
                    prev.trajectory.points.len()
                ));
            }
        }

        if let Some(delta) = delta {
            if let Some(prev) = prev {
                if prev.world.label != delta.from_label
                    || prev.world.sites.len() != delta.from_sites
                {
                    return Err(format!(
                        "delta source '{}' ({} sites) is not the serving snapshot '{}' ({} sites)",
                        delta.from_label,
                        delta.from_sites,
                        prev.world.label,
                        prev.world.sites.len()
                    ));
                }
            }
            if self.world.label != delta.to_label || sites != delta.to_sites {
                return Err(format!(
                    "delta target '{}' ({} sites) is not this snapshot '{}' ({} sites)",
                    delta.to_label, delta.to_sites, self.world.label, sites
                ));
            }
        }

        Ok(())
    }
}

/// RwLock-free publication point for the current snapshot.
pub struct SnapshotCell {
    current: Mutex<Arc<CubeSnapshot>>,
    epoch: AtomicU64,
}

impl SnapshotCell {
    /// Creates the cell with its first snapshot.
    pub fn new(initial: Arc<CubeSnapshot>) -> Self {
        let epoch = AtomicU64::new(initial.epoch);
        SnapshotCell {
            current: Mutex::new(initial),
            epoch,
        }
    }

    /// The currently-published epoch (one atomic load).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the current snapshot `Arc` (brief mutex hold, no blocking on
    /// snapshot construction).
    pub fn load(&self) -> Arc<CubeSnapshot> {
        Arc::clone(&self.current.lock().expect("snapshot cell poisoned"))
    }

    /// The worker fast path: revalidates a per-thread cached `Arc` with a
    /// single atomic load, touching the mutex only when the epoch moved.
    pub fn load_cached(&self, cached: &mut Option<Arc<CubeSnapshot>>) -> Arc<CubeSnapshot> {
        let epoch = self.epoch();
        if let Some(snap) = cached {
            if snap.epoch == epoch {
                return Arc::clone(snap);
            }
        }
        let fresh = self.load();
        *cached = Some(Arc::clone(&fresh));
        fresh
    }

    /// Publishes a new snapshot. Its epoch must be strictly greater than
    /// the current one; after this returns, every subsequently-started
    /// request observes the new epoch. Returns the published epoch.
    pub fn publish(&self, next: Arc<CubeSnapshot>) -> u64 {
        let mut guard = self.current.lock().expect("snapshot cell poisoned");
        let prev = guard.epoch;
        assert!(
            next.epoch > prev,
            "publish must advance the epoch ({} -> {})",
            prev,
            next.epoch
        );
        let epoch = next.epoch;
        *guard = next;
        // Publish the epoch while still holding the lock so a reader that
        // sees the new epoch can never load the old snapshot.
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }
}
