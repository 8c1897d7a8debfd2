//! The analysis context: measured data joined with entity metadata.

use crate::cube::DependenceCube;
use std::cell::RefCell;
use std::collections::HashMap;
use webdep_core::CountDist;
use webdep_pipeline::MeasuredDataset;
use webdep_stats::{
    bootstrap_ci_indexed, bootstrap_ci_indexed_abortable, bootstrap_ci_indexed_scratch,
    BootstrapAborted, BootstrapCi, BootstrapScratch, Resample,
};
use webdep_webgen::{Layer, World, COUNTRIES};

/// Joins a [`MeasuredDataset`] with the [`World`]'s entity metadata.
///
/// Every per-layer tally keys owners by a dense `u32`: provider org id for
/// hosting/DNS, CA owner id for the CA layer, and TLD id for the TLD layer
/// (observation TLD labels are interned through the universe).
///
/// Every accessor below reads borrowed slices of a [`DependenceCube`]:
/// [`AnalysisCtx::new`] builds one up front (one parallel pass over the
/// observations); [`AnalysisCtx::with_cube`] and
/// [`AnalysisCtx::with_cube_ref`] wrap one built elsewhere.
pub struct AnalysisCtx<'a> {
    /// The generating world (entity names, HQ countries, TLD kinds).
    pub world: &'a World,
    /// The measured dataset under analysis.
    pub ds: &'a MeasuredDataset,
    cube: CubeSlot<'a>,
}

/// How a context holds its cube: owned (the one-shot paths) or borrowed (a
/// long-lived snapshot shared across many short-lived contexts, as in
/// `webdep serve`).
enum CubeSlot<'a> {
    Owned(Box<DependenceCube>),
    Borrowed(&'a DependenceCube),
}

impl<'a> AnalysisCtx<'a> {
    /// Builds a context backed by a freshly built [`DependenceCube`].
    pub fn new(world: &'a World, ds: &'a MeasuredDataset) -> Self {
        Self::with_cube(world, ds, DependenceCube::build(world, ds))
    }

    /// Builds a context around a cube that was constructed elsewhere —
    /// the streaming path, where a [`crate::cube::CubeBuilder`] folded
    /// chunks as they were read and no resident observation vector exists.
    ///
    /// `ds` may be *hollow* (empty `observations`) as long as its toplists
    /// are populated; every cube-backed accessor works, but accessors that
    /// read raw observations must not be used against a hollow dataset.
    pub fn with_cube(world: &'a World, ds: &'a MeasuredDataset, cube: DependenceCube) -> Self {
        AnalysisCtx {
            world,
            ds,
            cube: CubeSlot::Owned(Box::new(cube)),
        }
    }

    /// Builds a context that *borrows* a cube owned elsewhere — the serving
    /// path, where one immutable epoch snapshot is shared by many
    /// concurrent readers and each request builds a throwaway context
    /// without copying the cube. Same hollow-dataset caveats as
    /// [`AnalysisCtx::with_cube`].
    pub fn with_cube_ref(
        world: &'a World,
        ds: &'a MeasuredDataset,
        cube: &'a DependenceCube,
    ) -> Self {
        AnalysisCtx {
            world,
            ds,
            cube: CubeSlot::Borrowed(cube),
        }
    }

    /// The dependence cube every accessor reads.
    pub fn cube(&self) -> &DependenceCube {
        match &self.cube {
            CubeSlot::Owned(c) => c,
            CubeSlot::Borrowed(c) => c,
        }
    }

    /// The owner's display name.
    pub fn owner_name(&self, layer: Layer, owner: u32) -> &str {
        match layer {
            Layer::Hosting | Layer::Dns => &self.world.universe.provider(owner).name,
            Layer::Ca => &self.world.universe.ca(owner).name,
            Layer::Tld => &self.world.universe.tld(owner).label,
        }
    }

    /// The owner's home country, if it has one (`None` for global TLDs).
    pub fn owner_country(&self, layer: Layer, owner: u32) -> Option<&str> {
        match layer {
            Layer::Hosting | Layer::Dns => {
                Some(self.world.universe.provider(owner).country.as_str())
            }
            Layer::Ca => Some(self.world.universe.ca(owner).country.as_str()),
            Layer::Tld => self.world.universe.tld(owner).home_country(),
        }
    }

    /// Per-owner website counts for a country's layer, largest first
    /// (count descending, owner id ascending). Borrowed straight from the
    /// cube.
    pub fn country_counts(&self, country_idx: usize, layer: Layer) -> &[(u32, u64)] {
        self.cube().layer(layer).sorted_counts(country_idx)
    }

    /// The country's measured distribution as a [`CountDist`].
    pub fn country_dist(&self, country_idx: usize, layer: Layer) -> Option<&CountDist> {
        self.cube().layer(layer).dist(country_idx)
    }

    /// Total measured sites for a country's layer.
    pub fn country_total(&self, country_idx: usize, layer: Layer) -> u64 {
        self.cube().layer(layer).total(country_idx)
    }

    /// Share of a country's measured sites belonging to `owner` at `layer`:
    /// one dense cube lookup plus the precomputed row total.
    pub fn owner_share(&self, country_idx: usize, layer: Layer, owner: u32) -> f64 {
        let lc = self.cube().layer(layer);
        let total = lc.total(country_idx);
        if total == 0 {
            return 0.0;
        }
        lc.count(country_idx, owner) as f64 / total as f64
    }

    /// The global-top tally for a layer, largest first (Figure 12's
    /// marker distribution).
    pub fn global_counts(&self, layer: Layer) -> &[(u32, u64)] {
        self.cube().layer(layer).global_sorted()
    }

    /// The global-top distribution for a layer.
    pub fn global_dist(&self, layer: Layer) -> Option<&CountDist> {
        self.cube().layer(layer).global_dist()
    }

    /// Per-owner usage matrix for a layer: owner → usage percentage in each
    /// of the 150 countries (the raw material of usage curves, Figure 4).
    pub fn usage_matrix(&self, layer: Layer) -> HashMap<u32, Vec<f64>> {
        let mut m: HashMap<u32, Vec<f64>> = HashMap::new();
        for ci in 0..COUNTRIES.len() {
            let counts = self.country_counts(ci, layer);
            let total = self.country_total(ci, layer);
            if total == 0 {
                continue;
            }
            for &(owner, c) in counts.iter() {
                m.entry(owner).or_insert_with(|| vec![0.0; COUNTRIES.len()])[ci] =
                    100.0 * c as f64 / total as f64;
            }
        }
        m
    }

    /// [`AnalysisCtx::usage_matrix`] in a deterministic shape: one row per
    /// observed owner, ascending owner id. Consumers that feed clustering
    /// or reports should prefer this — HashMap iteration order is not
    /// stable across runs.
    pub fn usage_rows(&self, layer: Layer) -> Vec<(u32, Vec<f64>)> {
        let m = self.usage_matrix(layer);
        let mut rows: Vec<(u32, Vec<f64>)> = m.into_iter().collect();
        rows.sort_by_key(|&(owner, _)| owner);
        rows
    }

    /// Bootstrap confidence interval for a country's centralization score
    /// at a layer, resampling the cube's dense site-label array.
    ///
    /// Replicates draw indices into the label array and tally into a
    /// thread-local scratch row — zero allocation per replicate after the
    /// first on each worker thread. Deterministic per seed, independent of
    /// thread count. Returns `None` for an unmeasured country or for
    /// degenerate `replicates`/`level`.
    pub fn score_ci(
        &self,
        country_idx: usize,
        layer: Layer,
        replicates: usize,
        level: f64,
        seed: u64,
    ) -> Option<BootstrapCi> {
        let lc = self.cube().layer(layer);
        let labels = lc.site_labels(country_idx);
        bootstrap_ci_indexed(
            labels,
            label_score_statistic(lc.owners().len()),
            replicates,
            level,
            seed,
        )
    }

    /// [`AnalysisCtx::score_ci`] with caller-provided bootstrap scratch,
    /// run serially on the calling thread: the variant for CI sweeps that
    /// are parallel over countries. The experiment suite maps the countries
    /// across threads with one scratch per country task; a serial loop can
    /// reuse one scratch and allocate nothing after its first call.
    /// Identical results — both variants draw the same per-replicate index
    /// streams.
    pub fn score_ci_scratch(
        &self,
        country_idx: usize,
        layer: Layer,
        replicates: usize,
        level: f64,
        seed: u64,
        scratch: &mut BootstrapScratch,
    ) -> Option<BootstrapCi> {
        let lc = self.cube().layer(layer);
        let labels = lc.site_labels(country_idx);
        bootstrap_ci_indexed_scratch(
            labels,
            label_score_statistic(lc.owners().len()),
            replicates,
            level,
            seed,
            scratch,
        )
    }

    /// [`AnalysisCtx::score_ci`] that polls `should_abort` between
    /// replicate chunks so a server under deadline pressure can abandon an
    /// expensive CI instead of wedging a worker. When it completes, the
    /// interval is bit-identical to [`AnalysisCtx::score_ci`]'s (same
    /// per-replicate seeding).
    #[allow(clippy::too_many_arguments)]
    pub fn score_ci_abortable(
        &self,
        country_idx: usize,
        layer: Layer,
        replicates: usize,
        level: f64,
        seed: u64,
        scratch: &mut BootstrapScratch,
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<Option<BootstrapCi>, BootstrapAborted> {
        let lc = self.cube().layer(layer);
        let labels = lc.site_labels(country_idx);
        bootstrap_ci_indexed_abortable(
            labels,
            label_score_statistic(lc.owners().len()),
            replicates,
            level,
            seed,
            scratch,
            should_abort,
        )
    }

    /// Observation count per country toplist (should equal the configured
    /// toplist length).
    pub fn toplist_len(&self, country_idx: usize) -> usize {
        self.ds.toplists[country_idx].len()
    }

    /// Fraction of a country's toplist observed at `layer` — the weight a
    /// reader should put on that country's score under degraded
    /// measurement. 0.0 for an empty toplist.
    pub fn country_coverage(&self, country_idx: usize, layer: Layer) -> f64 {
        let expected = self.toplist_len(country_idx);
        if expected == 0 {
            return 0.0;
        }
        self.country_total(country_idx, layer) as f64 / expected as f64
    }
}

/// The zero-alloc replicate statistic over dense cube labels: tally into a
/// thread-local scratch row, compute `Σ(a/C)² − 1/C`, and zero every
/// touched slot on the way out so the row is clean for the next replicate
/// without a memset.
fn label_score_statistic(n_owners: usize) -> impl Fn(&Resample<'_, u32>) -> f64 {
    thread_local! {
        static SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }
    move |rs| {
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            if scratch.len() < n_owners {
                scratch.resize(n_owners, 0);
            }
            let mut total = 0u64;
            for &l in rs.iter() {
                scratch[l as usize] += 1;
                total += 1;
            }
            let c = total as f64;
            let mut hhi = 0.0;
            for &l in rs.iter() {
                let a = scratch[l as usize];
                if a != 0 {
                    let share = a as f64 / c;
                    hhi += share * share;
                    scratch[l as usize] = 0;
                }
            }
            hhi - 1.0 / c
        })
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::sync::OnceLock;
    use webdep_pipeline::SiteObservation;
    use webdep_pipeline::{measure, PipelineConfig};
    use webdep_webgen::{DeployConfig, DeployedWorld, WorldConfig};

    /// One shared tiny world + measurement for all analysis tests (the
    /// deployment is expensive enough to amortize).
    pub fn fixture() -> &'static (World, MeasuredDataset) {
        static FIXTURE: OnceLock<(World, MeasuredDataset)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let world = World::generate(WorldConfig::tiny());
            let dep = DeployedWorld::deploy(&world, DeployConfig::default());
            let ds = measure(&world, &dep, &PipelineConfig::default());
            (world, ds)
        })
    }

    pub fn ctx() -> AnalysisCtx<'static> {
        let (world, ds) = fixture();
        AnalysisCtx::new(world, ds)
    }

    /// Reference owner of an observation at a layer, read straight off the
    /// observation (TLD labels interned through the universe).
    pub fn reference_owner(world: &World, obs: &SiteObservation, layer: Layer) -> Option<u32> {
        match layer {
            Layer::Hosting => obs.hosting_org,
            Layer::Dns => obs.dns_org,
            Layer::Ca => obs.ca_owner,
            Layer::Tld => world.universe.tld_by_label(&obs.tld),
        }
    }

    /// Reference tally over the fixture: one HashMap pass over the sites
    /// `indices` names, in the canonical order (count descending, owner
    /// ascending). The cube must reproduce it exactly.
    pub fn reference_tally(indices: &[u32], layer: Layer) -> Vec<(u32, u64)> {
        let (world, ds) = fixture();
        let mut tally: HashMap<u32, u64> = HashMap::new();
        for &i in indices {
            if let Some(owner) = reference_owner(world, &ds.observations[i as usize], layer) {
                *tally.entry(owner).or_insert(0) += 1;
            }
        }
        let mut v: Vec<(u32, u64)> = tally.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::ctx;
    use webdep_webgen::World;

    #[test]
    fn counts_match_ground_truth_distribution() {
        let c = ctx();
        let th = World::country_index("TH").unwrap();
        let measured = c.country_counts(th, Layer::Hosting);
        let truth = c.world.layer_counts(th, Layer::Hosting);
        assert_eq!(
            measured,
            truth.as_slice(),
            "pipeline must recover the ground truth"
        );
    }

    #[test]
    fn owner_metadata_resolves() {
        let c = ctx();
        let us = World::country_index("US").unwrap();
        let counts = c.country_counts(us, Layer::Hosting);
        let (head, _) = counts[0];
        assert_eq!(c.owner_name(Layer::Hosting, head), "Cloudflare");
        assert_eq!(c.owner_country(Layer::Hosting, head), Some("US"));
    }

    #[test]
    fn tld_owner_interning() {
        let c = ctx();
        let us = World::country_index("US").unwrap();
        let counts = c.country_counts(us, Layer::Tld);
        let (head, _) = counts[0];
        assert_eq!(c.owner_name(Layer::Tld, head), "com");
        assert_eq!(c.owner_country(Layer::Tld, head), Some("US"));
    }

    #[test]
    fn usage_matrix_rows_have_country_width() {
        let c = ctx();
        let m = c.usage_matrix(Layer::Hosting);
        let cf = c.world.universe.provider_by_name("Cloudflare").unwrap();
        let row = &m[&cf];
        assert_eq!(row.len(), 150);
        // Cloudflare is used everywhere except possibly a couple of edge
        // countries at tiny scale.
        let used = row.iter().filter(|&&v| v > 0.0).count();
        assert!(used > 140, "{used}");
    }

    #[test]
    fn usage_rows_are_sorted_and_match_matrix() {
        let c = ctx();
        let rows = c.usage_rows(Layer::Hosting);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        let m = c.usage_matrix(Layer::Hosting);
        assert_eq!(rows.len(), m.len());
        for (owner, row) in &rows {
            assert_eq!(&m[owner], row);
        }
    }

    /// The cube's zero-allocation CI must match a plain reference: the
    /// generic `bootstrap_ci` over the country's per-site owner ids with a
    /// HashMap-tally statistic. Both draw the same index streams; the
    /// statistics differ only in floating-point summation order, so the
    /// intervals must agree to tight tolerance.
    #[test]
    fn score_ci_matches_reference_bootstrap() {
        let c = ctx();
        let (world, ds) = crate::ctx::testutil::fixture();
        let reference_score = |sample: &[u32]| {
            let mut tally: HashMap<u32, u64> = HashMap::new();
            for &o in sample {
                *tally.entry(o).or_insert(0) += 1;
            }
            let mut counts: Vec<u64> = tally.into_values().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            CountDist::from_counts(counts)
                .map(|d| webdep_core::centralization_score(&d))
                .unwrap_or(0.0)
        };
        for code in ["TH", "US", "IR"] {
            let i = World::country_index(code).unwrap();
            let labels: Vec<u32> = ds
                .country_observations(i)
                .filter_map(|obs| crate::ctx::testutil::reference_owner(world, obs, Layer::Hosting))
                .collect();
            let a = c.score_ci(i, Layer::Hosting, 100, 0.95, 7).unwrap();
            let b = webdep_stats::bootstrap_ci(&labels, reference_score, 100, 0.95, 7).unwrap();
            assert!((a.point - b.point).abs() < 1e-9, "{code}: {a:?} vs {b:?}");
            assert!((a.lo - b.lo).abs() < 1e-9, "{code}: {a:?} vs {b:?}");
            assert!((a.hi - b.hi).abs() < 1e-9, "{code}: {a:?} vs {b:?}");
        }
    }

    /// The scratch variant draws the same index streams serially; the
    /// intervals must be bit-identical, and the scratch must be safely
    /// reusable across countries and layers.
    #[test]
    fn score_ci_scratch_is_identical_and_reusable() {
        let c = ctx();
        let mut scratch = webdep_stats::BootstrapScratch::new();
        for code in ["TH", "US", "IR"] {
            let i = World::country_index(code).unwrap();
            for layer in [Layer::Hosting, Layer::Dns, Layer::Ca] {
                let a = c.score_ci(i, layer, 100, 0.95, 7).unwrap();
                let b = c
                    .score_ci_scratch(i, layer, 100, 0.95, 7, &mut scratch)
                    .unwrap();
                assert_eq!(a, b, "{code} {layer:?}");
            }
        }
    }

    #[test]
    fn score_ci_brackets_point_and_is_seeded() {
        let c = ctx();
        let th = World::country_index("TH").unwrap();
        let ci = c.score_ci(th, Layer::Hosting, 200, 0.95, 42).unwrap();
        let point = webdep_core::centralization_score(c.country_dist(th, Layer::Hosting).unwrap());
        assert!((ci.point - point).abs() < 1e-12, "{} vs {point}", ci.point);
        assert!(ci.contains(ci.point));
        assert!(ci.width() > 0.0 && ci.width() < 0.5, "{ci:?}");
        let again = c.score_ci(th, Layer::Hosting, 200, 0.95, 42).unwrap();
        assert_eq!(ci, again);
    }
}
