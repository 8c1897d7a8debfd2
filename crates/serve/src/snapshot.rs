//! Epoch-versioned immutable snapshots and their RwLock-free publication
//! cell.
//!
//! A [`CubeSnapshot`] bundles everything a request needs to answer a query
//! — the world, the [`DependenceCube`], and the failure taxonomy — behind a
//! single `Arc`. Every snapshot is folded from a chunk store, through one
//! fold: [`CubeSnapshot::from_store`] reads every chunk,
//! [`CubeSnapshot::from_store_extending`] does the same but keeps the
//! previous trajectory, and [`CubeSnapshot::from_delta`] starts from the
//! previous snapshot's carried state and reads only the chunks holding a
//! dirty site. Snapshots are immutable after construction; re-measurement
//! builds a *new* snapshot off-thread and publishes it through
//! [`SnapshotCell`], so readers never block on a writer and a publish
//! landing mid-traffic can never tear a response.
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
use webdep_pipeline::{ChunkStore, FailureCause, FailureTaxonomy};
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
    /// The generating world (entity metadata, toplists, label).
    pub world: Arc<World>,
    /// The columnar cube every query reads.
    pub cube: DependenceCube,
    /// Failure taxonomy folded from the store's error columns.
    pub taxonomy: FailureTaxonomy,
    /// Per-epoch centralization trajectory up to and including this epoch;
    /// [`CubeSnapshot::from_delta`] extends the previous snapshot's, so
    /// `/v1/trajectory` is epoch-consistent with every other route.
    pub trajectory: Trajectory,
    /// Carry-forward for the next delta build.
    delta_state: DeltaState,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl CubeSnapshot {
    /// Builds a snapshot by streaming the chunk store at `dir`: every
    /// chunk is folded into a [`CubeBuilder`] and the taxonomy via the
    /// error columns — peak memory is one decoded chunk plus the cube,
    /// never the observation vector.
    ///
    /// The store must describe the same world (`label` and site count
    /// guarded, mirroring `ChunkStore::load_dataset`).
    pub fn from_store(epoch: u64, world: Arc<World>, dir: &Path) -> io::Result<Self> {
        Self::fold(epoch, world, dir, None, Trajectory::new())
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
        Self::fold(epoch, world, dir, None, prev.trajectory.clone())
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
    /// over the full store (`tests/contracts.rs` asserts equality).
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
        Self::fold(
            epoch,
            world,
            dir,
            Some((prev, delta)),
            prev.trajectory.clone(),
        )
    }

    /// The one chunk fold behind every constructor.
    ///
    /// Without `carried`, it starts empty and folds every row of every
    /// chunk. With `(prev, delta)`, it starts from `prev`'s carried
    /// builder, causes and taxonomy grown to the evolved site table, folds
    /// only `delta`'s dirty rows, and first un-records each one below
    /// `delta.from_sites` — only a site recorded before can be retracted.
    /// Either way a chunk is read only when it holds a row to fold, and
    /// the cube is finished over the world's toplists with this epoch's
    /// point appended to `trajectory`.
    fn fold(
        epoch: u64,
        world: Arc<World>,
        dir: &Path,
        carried: Option<(&CubeSnapshot, &WorldDelta)>,
        mut trajectory: Trajectory,
    ) -> io::Result<Self> {
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
        let sites = store.sites;
        let (mut builder, mut causes, mut taxonomy, dirty, retract_below) = match carried {
            None => (
                CubeBuilder::new(sites),
                vec![[None; 3]; sites],
                FailureTaxonomy::default(),
                None,
                0,
            ),
            Some((prev, delta)) => {
                let mut builder = prev.delta_state.builder.clone();
                builder.grow(sites);
                let mut causes = prev.delta_state.causes.clone();
                causes.resize(sites, [None; 3]);
                (
                    builder,
                    causes,
                    prev.taxonomy.clone(),
                    Some(delta.dirty()),
                    delta.from_sites,
                )
            }
        };
        taxonomy.total = sites as u64;
        let wanted = |i: usize| dirty.as_ref().is_none_or(|d| d[i]);

        for c in 0..store.num_chunks() {
            let lo = c * store.chunk_sites;
            let rows = store.chunk_rows(c);
            if !(lo..lo + rows).any(wanted) {
                continue;
            }
            let chunk = store.read_chunk(c)?;
            // Folds the whole chunk; clean rows overwrite their own labels
            // (folds are idempotent), dirty rows take new ones.
            builder.fold_chunk(&chunk, &world);
            for r in 0..rows {
                let i = lo + r;
                if !wanted(i) {
                    continue;
                }
                if i < retract_below {
                    taxonomy.unrecord_site(causes[i]);
                }
                causes[i] = chunk.failure_causes(r);
                taxonomy.record_site(causes[i]);
            }
        }

        let cube = builder.finish(&world);
        trajectory.push(&AnalysisCtx::over_cube(&world, &cube));
        Ok(CubeSnapshot {
            epoch,
            world,
            cube,
            taxonomy,
            trajectory,
            delta_state: DeltaState { builder, causes },
        })
    }

    /// A throwaway analysis context borrowing this snapshot's cube — what
    /// every request handler builds.
    pub fn ctx(&self) -> AnalysisCtx<'_> {
        AnalysisCtx::over_cube(&self.world, &self.cube)
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
            for (ci, toplist) in self.world.toplists.iter().enumerate() {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;
    use webdep_pipeline::{measure_streamed, PipelineConfig};
    use webdep_webgen::{DeployConfig, DeployedWorld, WorldConfig};

    /// Measures a small world into a scratch chunk store and hands the
    /// world and the store to `f`; the store is removed afterwards.
    fn with_store<T>(tag: &str, f: impl FnOnce(&Arc<World>, &Path) -> T) -> T {
        let world = Arc::new(World::generate(WorldConfig {
            seed: 42,
            sites_per_country: 8,
            global_pool_size: 40,
            tail_scale: 0.04,
            pool_target: 16,
        }));
        let dep = DeployedWorld::deploy(&world, DeployConfig::default());
        let dir =
            std::env::temp_dir().join(format!("webdep-snapshot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        measure_streamed(&world, &dep, &PipelineConfig::default(), &dir, None).expect("measure");
        let out = f(&world, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    /// A measured snapshot shared by the unit tests that only read it.
    pub(crate) fn fixture() -> &'static CubeSnapshot {
        static SNAP: OnceLock<CubeSnapshot> = OnceLock::new();
        SNAP.get_or_init(|| {
            with_store("fixture", |world, dir| {
                CubeSnapshot::from_store(1, Arc::clone(world), dir).expect("fold")
            })
        })
    }

    /// A named edit to one part of a snapshot.
    type Mutation = (&'static str, fn(&mut CubeSnapshot));

    /// Each single mutation of an honest snapshot's carried state is
    /// caught by validation as an `Err`, never a panic.
    #[test]
    fn validate_rejects_each_single_mutation() {
        let mutations: [Mutation; 4] = [
            ("taxonomy cell", |s| {
                let layer = s.taxonomy.counts.entry("dns".into()).or_default();
                *layer
                    .entry(FailureCause::Timeout.name().into())
                    .or_default() += 1;
            }),
            ("causes length", |s| {
                s.delta_state.causes.pop();
            }),
            ("builder sites", |s| {
                let sites = s.delta_state.builder.sites();
                s.delta_state.builder.grow(sites + 1);
            }),
            ("trajectory label", |s| {
                s.trajectory.points.last_mut().expect("a point").label = "elsewhere".into();
            }),
        ];
        with_store("mutations", |world, dir| {
            let fold = || CubeSnapshot::from_store(1, Arc::clone(world), dir).expect("fold");
            fold()
                .validate(None, None)
                .expect("the honest snapshot validates");
            for (what, mutate) in mutations {
                let mut snap = fold();
                mutate(&mut snap);
                assert!(
                    snap.validate(None, None).is_err(),
                    "validation accepted a mutated {what}"
                );
            }
        });
    }
}
