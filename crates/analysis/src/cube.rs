//! The dependence cube: every per-(country, layer) owner tally, built once.
//!
//! The analysis re-reads the same aggregations constantly — score tables,
//! usage curves, insularity, breakdowns, correlations, and bootstrap
//! replicates all start from "how many of country X's sites does owner Y
//! serve at layer L". Tallying that from raw observations per call made
//! `AnalysisCtx` quadratic in places (`owner_share` re-walked a whole
//! toplist per lookup). The [`DependenceCube`] replaces all of that with
//! one parallel pass over the [`MeasuredDataset`]:
//!
//! * per layer, a dense `country × owner` count matrix (`u64`), with owners
//!   interned to dense indices (only owners actually observed get a column;
//!   observation TLD labels are interned through the universe once, at
//!   build time, instead of being hashed on every lookup);
//! * precomputed row totals, per-country sorted `(owner, count)` views in
//!   the analysis's canonical order (count descending, owner id ascending —
//!   exactly [`World::layer_counts`]'s order), and per-country
//!   [`CountDist`]s;
//! * the global-top tally per layer (the Figure 12 marker);
//! * per-country dense owner labels per measured site, in toplist order —
//!   the index arrays bootstrap replicates resample against with zero
//!   per-replicate allocation.
//!
//! Determinism: the per-country pass runs under
//! [`webdep_stats::par_map_indices`], which returns results in country
//! order; interning sorts the observed owner set; every sorted view uses a
//! total order. The cube is byte-identical across runs and thread counts.

use std::collections::HashMap;
use webdep_core::CountDist;
use webdep_pipeline::store::DecodedChunk;
use webdep_pipeline::{MeasuredDataset, SiteObservation};
use webdep_stats::{par::default_threads, par_map_indices};
use webdep_webgen::{Layer, World, COUNTRIES};

/// Sentinel in `dense_of` for owners never observed at a layer.
const UNOBSERVED: u32 = u32::MAX;

/// One layer's dense count matrix plus its derived views.
pub struct LayerCube {
    /// Observed owner world-ids, ascending. Dense index = position.
    owners: Vec<u32>,
    /// World id → dense index (`UNOBSERVED` when never seen at this layer).
    dense_of: Vec<u32>,
    /// Row-major counts: `COUNTRIES.len()` rows × `owners.len()` columns.
    counts: Vec<u64>,
    /// Per-country measured-site totals (row sums).
    totals: Vec<u64>,
    /// Flattened per-country `(owner world id, count)` views, count
    /// descending then owner ascending; country `ci` spans
    /// `sorted_off[ci]..sorted_off[ci + 1]`.
    sorted: Vec<(u32, u64)>,
    sorted_off: Vec<usize>,
    /// Per-country distributions (`None` when nothing measured).
    dists: Vec<Option<CountDist>>,
    /// Global-top tally in the same sorted order.
    global_sorted: Vec<(u32, u64)>,
    /// Global-top distribution.
    global_dist: Option<CountDist>,
    /// Dense owner label per measured site, toplist order, flattened;
    /// country `ci` spans `label_off[ci]..label_off[ci + 1]`.
    labels: Vec<u32>,
    label_off: Vec<usize>,
}

impl LayerCube {
    /// Observed owner world-ids, ascending.
    pub fn owners(&self) -> &[u32] {
        &self.owners
    }

    /// Dense column index of an owner world id, if observed at this layer.
    pub fn dense_of(&self, owner: u32) -> Option<usize> {
        match self.dense_of.get(owner as usize) {
            Some(&d) if d != UNOBSERVED => Some(d as usize),
            _ => None,
        }
    }

    /// A country's full count row (one slot per observed owner).
    pub fn row(&self, ci: usize) -> &[u64] {
        let w = self.owners.len();
        &self.counts[ci * w..(ci + 1) * w]
    }

    /// A country's measured-site total.
    pub fn total(&self, ci: usize) -> u64 {
        self.totals[ci]
    }

    /// Sites of country `ci` served by `owner` (world id).
    pub fn count(&self, ci: usize, owner: u32) -> u64 {
        match self.dense_of(owner) {
            Some(d) => self.row(ci)[d],
            None => 0,
        }
    }

    /// A country's `(owner world id, count)` view, count descending then
    /// owner ascending — the canonical tally order everywhere else in the
    /// analysis.
    pub fn sorted_counts(&self, ci: usize) -> &[(u32, u64)] {
        &self.sorted[self.sorted_off[ci]..self.sorted_off[ci + 1]]
    }

    /// A country's distribution, if anything was measured.
    pub fn dist(&self, ci: usize) -> Option<&CountDist> {
        self.dists[ci].as_ref()
    }

    /// The global-top tally in sorted order.
    pub fn global_sorted(&self) -> &[(u32, u64)] {
        &self.global_sorted
    }

    /// The global-top distribution.
    pub fn global_dist(&self) -> Option<&CountDist> {
        self.global_dist.as_ref()
    }

    /// Dense owner labels of a country's measured sites, toplist order —
    /// the resampling universe for bootstrap replicates. Each label indexes
    /// [`LayerCube::owners`].
    pub fn site_labels(&self, ci: usize) -> &[u32] {
        &self.labels[self.label_off[ci]..self.label_off[ci + 1]]
    }
}

/// All four layers' cubes. See the module docs for layout and guarantees.
pub struct DependenceCube {
    layers: [LayerCube; 4],
}

impl DependenceCube {
    /// One layer's cube.
    pub fn layer(&self, layer: Layer) -> &LayerCube {
        &self.layers[layer.index()]
    }

    /// Builds the cube from a measured dataset.
    ///
    /// Internally this folds every observation through a [`CubeBuilder`]
    /// — the same single code path the streaming pipeline uses — so the
    /// resident and incremental constructions cannot drift.
    pub fn build(world: &World, ds: &MeasuredDataset) -> Self {
        let mut b = CubeBuilder::new(ds.observations.len());
        for (i, obs) in ds.observations.iter().enumerate() {
            b.fold_observation(i, obs, world);
        }
        b.finish(world)
    }
}

/// Incremental [`DependenceCube`] construction for the streaming pipeline:
/// observations fold in one at a time (or a decoded chunk at a time), in
/// any order, and only a per-site `u32` owner label per layer stays
/// resident — 16 bytes per site instead of a whole [`SiteObservation`].
///
/// [`CubeBuilder::finish`] then walks the toplists through the label
/// arrays and assembles exactly what [`DependenceCube::build`] produces;
/// `build` itself is implemented on top of this builder, so equivalence is
/// structural, not merely tested.
///
/// The builder is also the unit of *epoch deltas*: it is `Clone` (16 bytes
/// per site), `finish` borrows rather than consumes, and
/// [`CubeBuilder::grow`] / [`CubeBuilder::retract`] let a continuous
/// measurement loop carry epoch N's builder forward — clone, grow to the
/// evolved site table, refold only the dirty sites, finish. Because folds
/// are idempotent per-site overwrites, the applied builder is identical to
/// one built from scratch over the evolved dataset.
#[derive(Clone)]
pub struct CubeBuilder {
    /// Per layer (in [`Layer::ALL`] order), the owner world-id of each
    /// site, [`UNOBSERVED`] where the layer failed or the site is unfolded.
    owner_of: [Vec<u32>; 4],
}

impl CubeBuilder {
    /// A builder for a world of `sites` sites, all initially unobserved.
    pub fn new(sites: usize) -> Self {
        CubeBuilder {
            owner_of: std::array::from_fn(|_| vec![UNOBSERVED; sites]),
        }
    }

    /// Folds one observation: records the site's owner world-id at each
    /// layer, interning the observed TLD label through `world`'s universe.
    /// Idempotent and order-independent (the slot is simply overwritten
    /// with the same deterministic value).
    pub fn fold_observation(&mut self, site: usize, obs: &SiteObservation, world: &World) {
        let owners = [
            obs.hosting_org,
            obs.dns_org,
            obs.ca_owner,
            world.universe.tld_by_label(&obs.tld),
        ];
        for (li, o) in owners.into_iter().enumerate() {
            self.owner_of[li][site] = o.unwrap_or(UNOBSERVED);
        }
    }

    /// The folded owner world-id of `site` at `layer`, or `None` while
    /// unobserved. A read-only view for integrity checks: publish
    /// validation reconciles each cube column total against a toplist walk
    /// over these labels.
    pub fn owner(&self, layer: Layer, site: usize) -> Option<u32> {
        match self.owner_of[layer.index()][site] {
            UNOBSERVED => None,
            o => Some(o),
        }
    }

    /// Number of site slots currently folded or foldable.
    pub fn sites(&self) -> usize {
        self.owner_of[0].len()
    }

    /// Extends the builder to a grown site table (epoch evolution only
    /// appends sites); new slots start unobserved. Shrinking is refused —
    /// site indices are stable across epochs by construction.
    pub fn grow(&mut self, sites: usize) {
        for col in &mut self.owner_of {
            assert!(sites >= col.len(), "site tables never shrink across epochs");
            col.resize(sites, UNOBSERVED);
        }
    }

    /// Retracts a site's observation batch: all four layers back to
    /// unobserved, as if the site were never folded. For sites that drop
    /// out of every toplist this is cosmetic (finish only walks toplists),
    /// but it keeps `cube(N+1) = cube(N) − retracted + refolded` exact at
    /// the label level too.
    pub fn retract(&mut self, site: usize) {
        for col in &mut self.owner_of {
            col[site] = UNOBSERVED;
        }
    }

    /// Folds the rows of a decoded store layer (a base chunk or a patch)
    /// whose site `wanted` accepts, straight from the columnar store — no
    /// [`SiteObservation`] materialization. Each row lands on its own site
    /// index ([`DecodedChunk::site`]), overwriting whatever that site held,
    /// so folding the layers in walk order leaves every site its newest
    /// row. Each distinct chunk-local TLD string resolves through
    /// `world`'s universe once.
    pub fn fold_chunk(
        &mut self,
        chunk: &DecodedChunk,
        world: &World,
        wanted: impl Fn(usize) -> bool,
    ) {
        let mut tld_cache: HashMap<u32, u32> = HashMap::new();
        for r in 0..chunk.rows {
            let site = chunk.site(r);
            if !wanted(site) {
                continue;
            }
            self.owner_of[Layer::Hosting.index()][site] =
                chunk.hosting_org[r].unwrap_or(UNOBSERVED);
            self.owner_of[Layer::Dns.index()][site] = chunk.dns_org[r].unwrap_or(UNOBSERVED);
            self.owner_of[Layer::Ca.index()][site] = chunk.ca_owner[r].unwrap_or(UNOBSERVED);
            let t = *tld_cache.entry(chunk.tld[r]).or_insert_with(|| {
                world
                    .universe
                    .tld_by_label(chunk.str_of(chunk.tld[r]))
                    .unwrap_or(UNOBSERVED)
            });
            self.owner_of[Layer::Tld.index()][site] = t;
        }
    }

    /// Assembles the cube: walks each toplist (and the global top) through
    /// the per-site label arrays — restoring toplist order regardless of
    /// fold order — then builds the dense matrices and sorted views.
    ///
    /// Borrows the builder (it does not consume it) so an epoch loop can
    /// finish a snapshot and keep folding deltas into the same state.
    pub fn finish(&self, world: &World) -> DependenceCube {
        let (toplists, global_top) = (&world.toplists, &world.global_top);
        let n_countries = COUNTRIES.len();
        let threads = default_threads();

        // Pass 1 (parallel over countries): gather each toplist's observed
        // owner world-ids per layer, in toplist order.
        let owner_of = &self.owner_of;
        let resolve = |ci: usize| -> [Vec<u32>; 4] {
            let mut out: [Vec<u32>; 4] = Default::default();
            for &oi in &toplists[ci] {
                for (li, col) in owner_of.iter().enumerate() {
                    let o = col[oi as usize];
                    if o != UNOBSERVED {
                        out[li].push(o);
                    }
                }
            }
            out
        };
        let per_country: Vec<[Vec<u32>; 4]> = par_map_indices(n_countries, threads, resolve);

        // The global top list, resolved the same way (serial: one list).
        let mut global: [Vec<u32>; 4] = Default::default();
        for &oi in global_top {
            for (li, col) in owner_of.iter().enumerate() {
                let o = col[oi as usize];
                if o != UNOBSERVED {
                    global[li].push(o);
                }
            }
        }

        let layers = Layer::ALL.map(|layer| {
            let li = layer.index();
            let universe_width = match layer {
                Layer::Hosting | Layer::Dns => world.universe.providers.len(),
                Layer::Ca => world.universe.cas.len(),
                Layer::Tld => world.universe.tlds.len(),
            };

            // Intern: every owner observed anywhere (countries or global
            // top) gets a dense column, in ascending world-id order.
            let mut seen = vec![false; universe_width];
            for c in &per_country {
                for &o in &c[li] {
                    seen[o as usize] = true;
                }
            }
            for &o in &global[li] {
                seen[o as usize] = true;
            }
            let owners: Vec<u32> = (0..universe_width as u32)
                .filter(|&o| seen[o as usize])
                .collect();
            let mut dense_of = vec![UNOBSERVED; universe_width];
            for (d, &o) in owners.iter().enumerate() {
                dense_of[o as usize] = d as u32;
            }
            let w = owners.len();

            // Pass 2 (parallel over countries): dense rows, sorted views,
            // dists, and dense site labels, assembled in country order.
            struct CountryAgg {
                row: Vec<u64>,
                total: u64,
                sorted: Vec<(u32, u64)>,
                dist: Option<CountDist>,
                labels: Vec<u32>,
            }
            let built: Vec<CountryAgg> = par_map_indices(n_countries, threads, |ci| {
                let world_labels = &per_country[ci][li];
                let mut row = vec![0u64; w];
                let mut labels = Vec::with_capacity(world_labels.len());
                for &o in world_labels {
                    let d = dense_of[o as usize];
                    row[d as usize] += 1;
                    labels.push(d);
                }
                let total: u64 = world_labels.len() as u64;
                let mut sorted: Vec<(u32, u64)> = row
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(d, &c)| (owners[d], c))
                    .collect();
                sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let dist = CountDist::from_counts(sorted.iter().map(|&(_, c)| c).collect()).ok();
                CountryAgg {
                    row,
                    total,
                    sorted,
                    dist,
                    labels,
                }
            });

            let mut counts = Vec::with_capacity(n_countries * w);
            let mut totals = Vec::with_capacity(n_countries);
            let mut sorted = Vec::new();
            let mut sorted_off = Vec::with_capacity(n_countries + 1);
            let mut dists = Vec::with_capacity(n_countries);
            let mut labels = Vec::new();
            let mut label_off = Vec::with_capacity(n_countries + 1);
            sorted_off.push(0);
            label_off.push(0);
            for agg in built {
                counts.extend_from_slice(&agg.row);
                totals.push(agg.total);
                sorted.extend_from_slice(&agg.sorted);
                sorted_off.push(sorted.len());
                dists.push(agg.dist);
                labels.extend_from_slice(&agg.labels);
                label_off.push(labels.len());
            }

            // Global-top tally over the same dense axis.
            let mut global_row = vec![0u64; w];
            for &o in &global[li] {
                global_row[dense_of[o as usize] as usize] += 1;
            }
            let mut global_sorted: Vec<(u32, u64)> = global_row
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(d, &c)| (owners[d], c))
                .collect();
            global_sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let global_dist =
                CountDist::from_counts(global_sorted.iter().map(|&(_, c)| c).collect()).ok();

            LayerCube {
                owners,
                dense_of,
                counts,
                totals,
                sorted,
                sorted_off,
                dists,
                global_sorted,
                global_dist,
                labels,
                label_off,
            }
        });

        DependenceCube { layers }
    }
}

#[cfg(test)]
mod tests {
    use crate::ctx::testutil::{ctx, fixture, reference_tally};
    use webdep_core::CountDist;
    use webdep_webgen::{Layer, COUNTRIES};

    /// The cube must reproduce a plain per-call tally *exactly* — same
    /// counts, same order, same floats — on a seeded world, for every
    /// country and layer.
    #[test]
    fn cube_reproduces_reference_tallies_exactly() {
        let cube = ctx();
        let (world, _) = fixture();
        for layer in Layer::ALL {
            for (ci, country) in COUNTRIES.iter().enumerate() {
                let want = reference_tally(&world.toplists[ci], layer);
                assert_eq!(
                    cube.country_counts(ci, layer),
                    want.as_slice(),
                    "counts mismatch: {} {layer:?}",
                    country.code
                );
                assert_eq!(
                    cube.country_dist(ci, layer).cloned(),
                    CountDist::from_counts(want.iter().map(|&(_, c)| c).collect()).ok(),
                    "dist mismatch: {} {layer:?}",
                    country.code
                );
                assert_eq!(
                    cube.country_total(ci, layer),
                    want.iter().map(|&(_, c)| c).sum::<u64>(),
                    "total mismatch: {} {layer:?}",
                    country.code
                );
            }
            let global = reference_tally(&world.global_top, layer);
            assert_eq!(
                cube.global_counts(layer),
                global.as_slice(),
                "global counts mismatch: {layer:?}"
            );
            assert_eq!(
                cube.global_dist(layer).cloned(),
                CountDist::from_counts(global.iter().map(|&(_, c)| c).collect()).ok(),
                "global dist mismatch: {layer:?}"
            );
        }
    }

    #[test]
    fn cube_reproduces_reference_usage_matrix() {
        let cube = ctx();
        let (world, _) = fixture();
        for layer in Layer::ALL {
            let mut want = std::collections::HashMap::new();
            for ci in 0..COUNTRIES.len() {
                let counts = reference_tally(&world.toplists[ci], layer);
                let total: u64 = counts.iter().map(|&(_, c)| c).sum();
                for (owner, c) in counts {
                    want.entry(owner)
                        .or_insert_with(|| vec![0.0; COUNTRIES.len()])[ci] =
                        100.0 * c as f64 / total as f64;
                }
            }
            // Exact f64 equality: both compute 100 * count / total from
            // identical integers.
            assert_eq!(
                cube.usage_matrix(layer),
                want,
                "usage matrix mismatch: {layer:?}"
            );
        }
    }

    #[test]
    fn cube_reproduces_reference_owner_share() {
        let cube = ctx();
        let (world, _) = fixture();
        for layer in Layer::ALL {
            for ci in (0..COUNTRIES.len()).step_by(7) {
                let counts = reference_tally(&world.toplists[ci], layer);
                let total: u64 = counts.iter().map(|&(_, c)| c).sum();
                // Every observed owner in the country's top ten, exactly.
                for &(owner, c) in counts.iter().take(10) {
                    assert_eq!(
                        cube.owner_share(ci, layer, owner),
                        c as f64 / total as f64,
                        "share mismatch: {} {layer:?} owner {owner}",
                        COUNTRIES[ci].code
                    );
                }
            }
            // An owner never observed at this layer shares 0.0.
            assert_eq!(cube.owner_share(0, layer, u32::MAX - 1), 0.0);
        }
    }

    /// Folding observations one at a time, in reverse order, must produce
    /// the exact cube the batch build does: the builder records per-site
    /// labels, so fold order cannot matter. This is the streaming path's
    /// core equivalence claim.
    #[test]
    fn incremental_fold_is_order_independent() {
        use super::{CubeBuilder, DependenceCube};

        let (world, ds) = fixture();
        let mut b = CubeBuilder::new(ds.observations.len());
        for (i, obs) in ds.observations.iter().enumerate().rev() {
            b.fold_observation(i, obs, world);
        }
        let inc = b.finish(world);
        let batch = DependenceCube::build(world, ds);
        for layer in Layer::ALL {
            let (a, b) = (inc.layer(layer), batch.layer(layer));
            assert_eq!(a.owners(), b.owners(), "{layer:?}");
            assert_eq!(a.global_sorted(), b.global_sorted(), "{layer:?}");
            for ci in 0..COUNTRIES.len() {
                assert_eq!(a.row(ci), b.row(ci), "{layer:?} {ci}");
                assert_eq!(a.total(ci), b.total(ci), "{layer:?} {ci}");
                assert_eq!(a.sorted_counts(ci), b.sorted_counts(ci), "{layer:?} {ci}");
                assert_eq!(a.site_labels(ci), b.site_labels(ci), "{layer:?} {ci}");
                assert_eq!(
                    a.dist(ci).map(|d| d.counts().to_vec()),
                    b.dist(ci).map(|d| d.counts().to_vec()),
                    "{layer:?} {ci}"
                );
            }
        }
    }

    /// The incremental-epoch claim: cloning epoch N's builder, growing it
    /// to the evolved site table, and refolding *only* the dirty sites
    /// must yield exactly the cube a from-scratch rebuild over the evolved
    /// dataset produces. Clean sites keep their serving infrastructure via
    /// the pinned pool census, so their observations are unchanged and
    /// never need refolding.
    #[test]
    fn delta_apply_equals_full_rebuild() {
        use super::{CubeBuilder, DependenceCube};
        use crate::ctx::testutil::measured;
        use std::sync::Arc;
        use webdep_webgen::{provider_site_counts, DeployConfig, DeployedWorld, EvolutionPlan};

        let (world, ds) = fixture();

        // Epoch N state.
        let mut b = CubeBuilder::new(ds.observations.len());
        for (i, obs) in ds.observations.iter().enumerate() {
            b.fold_observation(i, obs, world);
        }

        let census = Arc::new(provider_site_counts(world));
        let (new_world, delta) = EvolutionPlan::continuous(1, 0.12, 11).evolve_epoch(world, 0);
        delta.certify_unchanged(world, &new_world).unwrap();
        assert!(!delta.migrated.is_empty() && delta.to_sites > delta.from_sites);
        let dep = DeployedWorld::deploy(
            &new_world,
            DeployConfig {
                pool_sites: Some(census),
                ..DeployConfig::default()
            },
        );
        let ds2 = measured(&new_world, &dep, "cube-delta");

        // Delta apply: clone + grow + refold exactly the dirty sites.
        let mut inc = b.clone();
        inc.grow(new_world.sites.len());
        let dirty = delta.dirty();
        for (i, obs) in ds2.observations.iter().enumerate() {
            if dirty[i] {
                inc.fold_observation(i, obs, &new_world);
            }
        }
        let applied = inc.finish(&new_world);
        let rebuilt = DependenceCube::build(&new_world, &ds2);

        for layer in Layer::ALL {
            let (a, b) = (applied.layer(layer), rebuilt.layer(layer));
            assert_eq!(a.owners(), b.owners(), "{layer:?}");
            assert_eq!(a.global_sorted(), b.global_sorted(), "{layer:?}");
            for ci in 0..COUNTRIES.len() {
                assert_eq!(a.row(ci), b.row(ci), "{layer:?} {ci}");
                assert_eq!(a.total(ci), b.total(ci), "{layer:?} {ci}");
                assert_eq!(a.sorted_counts(ci), b.sorted_counts(ci), "{layer:?} {ci}");
                assert_eq!(a.site_labels(ci), b.site_labels(ci), "{layer:?} {ci}");
            }
        }

        // The original builder is intact (finish borrows): it still
        // reproduces epoch N exactly.
        let again = b.finish(world);
        let base = DependenceCube::build(world, ds);
        for layer in Layer::ALL {
            assert_eq!(
                again.layer(layer).global_sorted(),
                base.layer(layer).global_sorted(),
                "{layer:?}"
            );
        }
    }

    /// Retracting a site is exactly "never folded it": the finished cube
    /// matches one built with the site skipped.
    #[test]
    fn retract_equals_never_folded() {
        use super::CubeBuilder;

        let (world, ds) = fixture();
        // A site that actually measured at hosting, so the retraction is
        // visible in country 0's total.
        let victim = world.toplists[0]
            .iter()
            .map(|&i| i as usize)
            .find(|&i| ds.observations[i].hosting_org.is_some())
            .unwrap();

        let mut folded = CubeBuilder::new(ds.observations.len());
        let mut skipped = CubeBuilder::new(ds.observations.len());
        for (i, obs) in ds.observations.iter().enumerate() {
            folded.fold_observation(i, obs, world);
            if i != victim {
                skipped.fold_observation(i, obs, world);
            }
        }
        folded.retract(victim);

        let a = folded.finish(world);
        let b = skipped.finish(world);
        for layer in Layer::ALL {
            assert_eq!(
                a.layer(layer).owners(),
                b.layer(layer).owners(),
                "{layer:?}"
            );
            for ci in 0..COUNTRIES.len() {
                assert_eq!(
                    a.layer(layer).row(ci),
                    b.layer(layer).row(ci),
                    "{layer:?} {ci}"
                );
            }
            assert_eq!(
                a.layer(layer).global_sorted(),
                b.layer(layer).global_sorted(),
                "{layer:?}"
            );
        }
        // And the retracted site really left the tallies.
        assert_eq!(a.layer(Layer::Hosting).total(0) + 1, {
            let full = CubeBuilder::new(ds.observations.len());
            let mut full = full;
            for (i, obs) in ds.observations.iter().enumerate() {
                full.fold_observation(i, obs, world);
            }
            full.finish(world).layer(Layer::Hosting).total(0)
        });
    }

    /// The dense site labels must re-tally to the count rows — they are
    /// what bootstrap replicates resample.
    #[test]
    fn site_labels_tally_back_to_rows() {
        let c = ctx();
        let cube = c.cube();
        for layer in Layer::ALL {
            let lc = cube.layer(layer);
            for ci in (0..COUNTRIES.len()).step_by(13) {
                let mut row = vec![0u64; lc.owners().len()];
                for &l in lc.site_labels(ci) {
                    row[l as usize] += 1;
                }
                assert_eq!(&row, lc.row(ci), "{} {layer:?}", COUNTRIES[ci].code);
                assert_eq!(
                    row.iter().sum::<u64>(),
                    lc.total(ci),
                    "{} {layer:?}",
                    COUNTRIES[ci].code
                );
            }
        }
    }
}
