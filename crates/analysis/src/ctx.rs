//! The analysis context: measured data joined with entity metadata.

use crate::cube::DependenceCube;
use std::collections::HashMap;
use webdep_core::CountDist;
use webdep_pipeline::{MeasuredDataset, SiteObservation};
use webdep_stats::{label_score_ci_scratch, BootstrapAborted, BootstrapCi, BootstrapScratch};
use webdep_webgen::{Layer, World, COUNTRIES};

/// Joins a [`MeasuredDataset`] with the [`World`]'s entity metadata.
///
/// Every per-layer tally keys owners by a dense `u32`: provider org id for
/// hosting/DNS, CA owner id for the CA layer, and TLD id for the TLD layer
/// (observation TLD labels are interned through the universe).
///
/// Every accessor below reads borrowed slices of a [`DependenceCube`]:
/// [`AnalysisCtx::new`] builds one up front (one parallel pass over the
/// observations); [`AnalysisCtx::over_cube`] borrows one built elsewhere.
/// Toplist membership always comes from the world.
pub struct AnalysisCtx<'a> {
    /// The generating world (entity names, HQ countries, toplists).
    pub world: &'a World,
    /// The measured dataset under analysis — empty for a context built
    /// with [`AnalysisCtx::over_cube`].
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

/// The dataset of a cube-only context: no observations at all.
static NO_OBSERVATIONS: MeasuredDataset = MeasuredDataset {
    observations: Vec::new(),
    label: String::new(),
};

impl<'a> AnalysisCtx<'a> {
    /// Builds a context backed by a freshly built [`DependenceCube`].
    pub fn new(world: &'a World, ds: &'a MeasuredDataset) -> Self {
        AnalysisCtx {
            world,
            ds,
            cube: CubeSlot::Owned(Box::new(DependenceCube::build(world, ds))),
        }
    }

    /// Builds a context that *borrows* a cube folded elsewhere — from a
    /// chunk store, where no resident observation vector exists. Serving
    /// builds one per request over its epoch snapshot without copying the
    /// cube. Every cube-backed accessor works; readers of raw
    /// observations see none.
    pub fn over_cube(world: &'a World, cube: &'a DependenceCube) -> Self {
        AnalysisCtx {
            world,
            ds: &NO_OBSERVATIONS,
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
    /// Runs the fused label-tally kernel ([`label_score_ci_scratch`]) on
    /// the calling thread with a fresh scratch: each replicate draws an
    /// index, reads the label and bumps a dense count in one pass.
    /// Deterministic per seed. Returns `None` for an unmeasured country or
    /// for degenerate `replicates`/`level`.
    pub fn score_ci(
        &self,
        country_idx: usize,
        layer: Layer,
        replicates: usize,
        level: f64,
        seed: u64,
    ) -> Option<BootstrapCi> {
        let mut scratch = BootstrapScratch::new();
        self.score_ci_scratch(country_idx, layer, replicates, level, seed, &mut scratch)
    }

    /// [`AnalysisCtx::score_ci`] with caller-provided bootstrap scratch:
    /// the variant for CI sweeps. The experiment suite maps the countries
    /// across threads with one scratch per country task; a serial loop can
    /// reuse one scratch and allocate nothing after its first call.
    /// Bit-identical results — both run the same kernel over the same
    /// per-replicate index streams.
    pub fn score_ci_scratch(
        &self,
        country_idx: usize,
        layer: Layer,
        replicates: usize,
        level: f64,
        seed: u64,
        scratch: &mut BootstrapScratch,
    ) -> Option<BootstrapCi> {
        self.score_ci_abortable(
            country_idx,
            layer,
            replicates,
            level,
            seed,
            scratch,
            &mut || false,
        )
        .unwrap_or_else(|BootstrapAborted| unreachable!("never polled to abort"))
    }

    /// [`AnalysisCtx::score_ci_scratch`] that polls `should_abort` before
    /// the first replicate and then every 32 replicates, so a server under
    /// deadline pressure can abandon an expensive CI instead of wedging a
    /// worker. When it completes, the interval is bit-identical to
    /// [`AnalysisCtx::score_ci`]'s (same kernel, same per-replicate
    /// seeding).
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
        label_score_ci_scratch(
            lc.site_labels(country_idx),
            lc.owners().len(),
            replicates,
            level,
            seed,
            scratch,
            should_abort,
        )
    }

    /// Length of a country's toplist (the configured toplist length).
    pub fn toplist_len(&self, country_idx: usize) -> usize {
        self.world.toplists[country_idx].len()
    }

    /// A country's observations in toplist order: the world's toplist
    /// joined to the dataset. Empty over a cube-only context.
    pub fn country_observations(
        &self,
        country_idx: usize,
    ) -> impl Iterator<Item = &'a SiteObservation> + 'a {
        let observations = &self.ds.observations;
        self.world.toplists[country_idx]
            .iter()
            .filter_map(move |&i| observations.get(i as usize))
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

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::sync::OnceLock;
    use webdep_pipeline::SiteObservation;
    use webdep_pipeline::{measure_streamed, ChunkStore, PipelineConfig};
    use webdep_webgen::{DeployConfig, DeployedWorld, WorldConfig};

    /// `world` measured against `dep` into the scratch store `name` and
    /// loaded back.
    pub fn measured(world: &World, dep: &DeployedWorld, name: &str) -> MeasuredDataset {
        let dir =
            std::env::temp_dir().join(format!("webdep-analysis-{name}-{}", std::process::id()));
        measure_streamed(world, dep, &PipelineConfig::default(), &dir, None)
            .expect("measure into a store");
        let ds = ChunkStore::open(&dir).and_then(|s| s.load_dataset(world));
        let _ = std::fs::remove_dir_all(&dir);
        ds.expect("load the store")
    }

    /// One shared tiny world + measurement for all analysis tests (the
    /// deployment is expensive enough to amortize).
    pub fn fixture() -> &'static (World, MeasuredDataset) {
        static FIXTURE: OnceLock<(World, MeasuredDataset)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let world = World::generate(WorldConfig::tiny());
            let dep = DeployedWorld::deploy(&world, DeployConfig::default());
            let ds = measured(&world, &dep, "fixture");
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

    /// All three CI entry points must be bit-identical to a plain
    /// reference: the generic `bootstrap_ci` over a country's per-site
    /// owners, read off the observations (renumbered by first appearance),
    /// with a statistic that sums the squared shares in the order each
    /// owner is first seen in the resample. Every country, every layer,
    /// seeds 1–6 at the server's 200 replicates; one scratch is reused
    /// throughout.
    #[test]
    fn score_ci_matches_reference_bootstrap() {
        let c = ctx();
        let (world, _) = crate::ctx::testutil::fixture();
        // Over owner ranks `0..distinct`: a dense tally, summed in the
        // order each owner is first seen in the sample.
        let first_seen_score = |sample: &[u32]| {
            let mut counts = vec![0u64; sample.len()];
            let mut order = Vec::new();
            for &o in sample {
                if counts[o as usize] == 0 {
                    order.push(o);
                }
                counts[o as usize] += 1;
            }
            let total = sample.len() as f64;
            let mut hhi = 0.0;
            for o in order {
                let share = counts[o as usize] as f64 / total;
                hhi += share * share;
            }
            hhi - 1.0 / total
        };
        let bits = |ci: BootstrapCi| [ci.point.to_bits(), ci.lo.to_bits(), ci.hi.to_bits()];
        let mut scratch = webdep_stats::BootstrapScratch::new();
        let mut checked = 0;
        for (i, country) in COUNTRIES.iter().enumerate() {
            for layer in Layer::ALL {
                let mut rank: HashMap<u32, u32> = HashMap::new();
                let owners: Vec<u32> = c
                    .country_observations(i)
                    .filter_map(|obs| crate::ctx::testutil::reference_owner(world, obs, layer))
                    .map(|o| {
                        let next = rank.len() as u32;
                        *rank.entry(o).or_insert(next)
                    })
                    .collect();
                for seed in 1..=6 {
                    let what = format!("{} {layer:?} seed {seed}", country.code);
                    let want =
                        webdep_stats::bootstrap_ci(&owners, first_seen_score, 200, 0.95, seed);
                    let Some(want) = want else {
                        assert_eq!(c.score_ci(i, layer, 200, 0.95, seed), None, "{what}");
                        continue;
                    };
                    let one_shot = c.score_ci(i, layer, 200, 0.95, seed).expect(&what);
                    let serial = c
                        .score_ci_scratch(i, layer, 200, 0.95, seed, &mut scratch)
                        .expect(&what);
                    let abortable = c
                        .score_ci_abortable(i, layer, 200, 0.95, seed, &mut scratch, &mut || false)
                        .expect(&what)
                        .expect(&what);
                    for got in [one_shot, serial, abortable] {
                        assert_eq!(got.replicates, 200, "{what}");
                        assert_eq!(bits(got), bits(want), "{what}: {got:?} vs {want:?}");
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 3_000, "only {checked} measured CIs");
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
