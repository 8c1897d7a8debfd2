//! Longitudinal evolution: seeded multi-epoch world churn (§5.4).
//!
//! The paper's second snapshot shows: strong score stability (ρ = 0.98),
//! toplist churn (mean Jaccard ≈ 0.37, Russia 0.4), Cloudflare adoption up
//! ~3.8 points everywhere except Russia, Belarus, Uzbekistan, and Myanmar,
//! Turkmenistan +11.3 and Brazil +10 as the extremes, and Russia shifting
//! from US (30% → 29%) to domestic providers (50% → 56%).
//!
//! [`EvolutionPlan`] generalizes that single re-measurement into a seeded
//! sequence of epochs. Each [`EpochKnobs`] entry controls churn (fixed
//! fraction or the paper's Jaccard targets), in-place provider migration,
//! and whether the §5.4 adoption deltas apply; [`EvolutionPlan::paper`] is
//! the calibrated 2023→2025 preset and [`evolve`] remains its one-call
//! form. Every epoch emits a [`WorldDelta`] naming the exact dirty site
//! set — appended replacements plus in-place migrations — so downstream
//! consumers (`measure_delta`, cube delta-apply, snapshot publish) can do
//! O(churn) work; [`WorldDelta::certify_unchanged`] proves every other
//! site record is bit-identical between the two snapshots.

use crate::country::CountryRecord;
use crate::paper_data::COUNTRIES;
use crate::toplist::DomainForge;
use crate::world::World;

/// Target mean Jaccard index between the two snapshots' toplists.
pub const TARGET_JACCARD: f64 = 0.37;
/// Russia's observed Jaccard (slightly above the mean).
pub const TARGET_JACCARD_RU: f64 = 0.40;

/// Cloudflare share delta (percentage points) for a country (§5.4).
pub fn cloudflare_delta_pts(country: &CountryRecord) -> f64 {
    match country.code {
        "TM" => 11.3,
        "BR" => 10.0,
        "RU" => -2.0,
        "BY" | "UZ" | "MM" => -1.0,
        _ => 3.8,
    }
}

/// Per-epoch evolution knobs.
#[derive(Clone, Debug)]
pub struct EpochKnobs {
    /// Fraction of each country's *local* toplist entries replaced by fresh
    /// domains. `None` sizes the churn from the paper's per-country Jaccard
    /// targets ([`TARGET_JACCARD`] / [`TARGET_JACCARD_RU`]).
    pub churn: Option<f64>,
    /// Fraction of surviving local toplist sites migrated **in place** to the
    /// country's largest regional provider (dirties mid-store sites without
    /// growing the site table).
    pub migration: f64,
    /// Fraction of provider serving addresses a measurement of this epoch
    /// should black-hole (carried to the pipeline's fault plan by the caller;
    /// evolution itself never consults it). Delta re-measurement stays valid
    /// only while this is constant across epochs.
    pub outage: f64,
    /// Apply the §5.4 provider-shift deltas (Cloudflare adoption,
    /// localization drift, Russia's domestic shift) to the fresh sites.
    pub adoption: bool,
    /// Label for the evolved world; `None` derives `"{base}/eN"`.
    pub label: Option<String>,
}

impl EpochKnobs {
    /// The paper's calibrated May-2023 → May-2025 step.
    pub fn paper() -> Self {
        EpochKnobs {
            churn: None,
            migration: 0.0,
            outage: 0.0,
            adoption: true,
            label: Some("2025-05".to_string()),
        }
    }

    /// A steady-state epoch: fixed churn plus a small in-place migration
    /// stream (one tenth of the churn rate).
    pub fn steady(churn: f64) -> Self {
        EpochKnobs {
            churn: Some(churn),
            migration: churn * 0.1,
            outage: 0.0,
            adoption: true,
            label: None,
        }
    }
}

/// A seeded multi-epoch evolution schedule.
#[derive(Clone, Debug)]
pub struct EvolutionPlan {
    /// Mixed into every per-site churn/migration decision. Seed 0 with the
    /// paper preset reproduces the historical single-step [`evolve`] output
    /// byte for byte.
    pub seed: u64,
    /// One entry per epoch, applied in order.
    pub epochs: Vec<EpochKnobs>,
}

impl EvolutionPlan {
    /// The paper's single 2023→2025 re-measurement.
    pub fn paper() -> Self {
        EvolutionPlan {
            seed: 0,
            epochs: vec![EpochKnobs::paper()],
        }
    }

    /// `epochs` steady-state epochs at a fixed churn fraction.
    pub fn continuous(epochs: usize, churn: f64, seed: u64) -> Self {
        EvolutionPlan {
            seed,
            epochs: vec![EpochKnobs::steady(churn); epochs],
        }
    }

    /// Applies epoch `epoch` of the plan to `world`, returning the evolved
    /// world and the delta naming every site that changed.
    ///
    /// The universe is shared; churned entries *append* fresh sites, so
    /// indices of the previous snapshot remain valid in the new world's
    /// site table (both worlds can be deployed independently), and only
    /// migration rewrites a site record in place.
    pub fn evolve_epoch(&self, world: &World, epoch: usize) -> (World, WorldDelta) {
        let knobs = &self.epochs[epoch];
        let mut new_world = world.clone();
        new_world.label = knobs.label.clone().unwrap_or_else(|| next_label(world));
        let mut warnings = Vec::new();
        // Keep new domains clear of the originals and of earlier epochs.
        let mut forge = DomainForge::new(50_000_000u64.wrapping_mul(epoch as u64 + 1));
        // Seed 0 / epoch 0 leaves the historical decision stream untouched.
        let mix = self
            .seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add((epoch as u64).wrapping_mul(0x85EB_CA6B));
        let cf = world.universe.provider_by_name("Cloudflare");
        if cf.is_none() && knobs.adoption {
            warnings.push(
                "provider 'Cloudflare' absent from universe; adoption deltas skipped".to_string(),
            );
        }

        let mut replaced: Vec<(u32, u32)> = Vec::new();
        let mut migrated: Vec<u32> = Vec::new();
        for (ci, country) in COUNTRIES.iter().enumerate() {
            let c_total = world.toplists[ci].len() as f64;

            // Count global vs local entries to size the churn. The Jaccard
            // preset solves J = (g + k*l) / (g + (2 - k) * l) for the keep
            // fraction k.
            let local_idx: Vec<usize> = (0..world.toplists[ci].len())
                .filter(|&i| {
                    let s = world.toplists[ci][i];
                    !world.sites[s as usize].is_global
                })
                .collect();
            let g = c_total - local_idx.len() as f64;
            let l = local_idx.len() as f64;
            let keep = match knobs.churn {
                Some(f) => 1.0 - f.clamp(0.0, 1.0),
                None => {
                    let jaccard_target = if country.code == "RU" {
                        TARGET_JACCARD_RU
                    } else {
                        TARGET_JACCARD
                    };
                    if l > 0.0 {
                        ((jaccard_target * (g + 2.0 * l) - g) / (l * (1.0 + jaccard_target)))
                            .clamp(0.0, 1.0)
                    } else {
                        1.0
                    }
                }
            };

            // Churn: replace (1 - keep) of local sites with fresh domains
            // that copy the replaced site's dependency mixture.
            let epoch_replaced_lo = replaced.len();
            for (pos, &tpos) in local_idx.iter().enumerate() {
                let spread = (pos as u64).wrapping_add(mix).wrapping_mul(2654435761) % 1000;
                if (spread as f64) < (1.0 - keep) * 1000.0 {
                    let old_site_idx = world.toplists[ci][tpos];
                    let old = &world.sites[old_site_idx as usize];
                    let mut fresh = old.clone();
                    fresh.domain = forge.next(&world.universe.tld(old.tld).label);
                    let new_idx = new_world.sites.len() as u32;
                    new_world.sites.push(fresh);
                    new_world.toplists[ci][tpos] = new_idx;
                    replaced.push((old_site_idx, new_idx));
                }
            }
            let fresh_sites: Vec<u32> = replaced[epoch_replaced_lo..]
                .iter()
                .map(|&(_, n)| n)
                .collect();

            // In-place migration: a slice of the *surviving* local sites
            // moves to the country's largest regional provider without
            // changing its domain or toplist slot.
            if knobs.migration > 0.0 {
                if let Some(&fallback) = world
                    .universe
                    .regional_by_country
                    .get(country.code)
                    .and_then(|lst| lst.first())
                {
                    for (pos, &tpos) in local_idx.iter().enumerate() {
                        if new_world.toplists[ci][tpos] != world.toplists[ci][tpos] {
                            continue; // churned away this epoch
                        }
                        // Unlike the churn stream, mix the country in:
                        // positions repeat across all 150 toplists, and a
                        // position-only draw would migrate the same slots
                        // everywhere (or nowhere, at low rates).
                        let spread = (pos as u64)
                            .wrapping_add((ci as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                            .wrapping_add(mix)
                            .wrapping_mul(0x2545_F491_4F6C_DD1D)
                            .rotate_left(17)
                            % 1000;
                        if (spread as f64) < knobs.migration * 1000.0 {
                            let idx = world.toplists[ci][tpos];
                            let s = &mut new_world.sites[idx as usize];
                            if s.hosting != fallback {
                                s.hosting = fallback;
                                s.dns = fallback;
                                migrated.push(idx);
                            }
                        }
                    }
                }
            }

            if !knobs.adoption {
                continue;
            }

            // Provider-shift conversions operate on the fresh sites only.
            let delta_sites = (cloudflare_delta_pts(country) / 100.0 * c_total).round() as i64;
            if let Some(cf) = cf {
                if delta_sites > 0 {
                    // Cloudflare's gains come mostly from *other US
                    // providers* (§5.4: overall US reliance does not rise
                    // with Cloudflare): convert US-hosted fresh sites
                    // first, then any others.
                    let mut left = delta_sites as u64;
                    for us_pass in [true, false] {
                        for &idx in &fresh_sites {
                            if left == 0 {
                                break;
                            }
                            let s = &mut new_world.sites[idx as usize];
                            if s.hosting == cf {
                                continue;
                            }
                            let is_us = world.universe.provider(s.hosting).country == "US";
                            if is_us == us_pass {
                                s.hosting = cf;
                                s.dns = cf; // Cloudflare bundles DNS (§6.1)
                                left -= 1;
                            }
                        }
                    }
                } else if delta_sites < 0 {
                    // Shed Cloudflare toward the country's largest regional
                    // provider.
                    let fallback = world
                        .universe
                        .regional_by_country
                        .get(country.code)
                        .and_then(|lst| lst.first())
                        .copied();
                    if let Some(fallback) = fallback {
                        let mut left = (-delta_sites) as u64;
                        for &idx in &fresh_sites {
                            if left == 0 {
                                break;
                            }
                            let s = &mut new_world.sites[idx as usize];
                            if s.hosting == cf {
                                s.hosting = fallback;
                                s.dns = fallback;
                                left -= 1;
                            }
                        }
                    }
                }
            }

            // Mild localization drift: every country moves a small,
            // country-specific slice of its fresh sites from US providers
            // to its largest regional provider. Combined with the US-first
            // Cloudflare conversions above, roughly a third of countries
            // end up with a net *decrease* in US reliance (paper: 56 of
            // 150).
            let h = {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for b in country.code.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
                }
                h
            };
            let drift_pts = 0.5 + (h % 31) as f64 / 10.0; // 0.5 .. 3.5 points
            if let Some(&fallback) = world
                .universe
                .regional_by_country
                .get(country.code)
                .and_then(|lst| lst.first())
            {
                let mut left = (drift_pts / 100.0 * c_total).round() as u64;
                for &idx in &fresh_sites {
                    if left == 0 {
                        break;
                    }
                    let s = &mut new_world.sites[idx as usize];
                    if Some(s.hosting) != cf && world.universe.provider(s.hosting).country == "US" {
                        s.hosting = fallback;
                        s.dns = fallback;
                        left -= 1;
                    }
                }
            }

            // Russia's shift away from the US toward domestic providers
            // (+6 points domestic, §5.4).
            if country.code == "RU" {
                let ru_providers = world
                    .universe
                    .regional_by_country
                    .get("RU")
                    .cloned()
                    .unwrap_or_default();
                if !ru_providers.is_empty() {
                    let mut left = (0.06 * c_total).round() as u64;
                    let mut rr = 0usize;
                    for &idx in &fresh_sites {
                        if left == 0 {
                            break;
                        }
                        let s = &mut new_world.sites[idx as usize];
                        let hq = &world.universe.provider(s.hosting).country;
                        if hq == "US" && Some(s.hosting) != cf {
                            let target = ru_providers[rr % ru_providers.len()];
                            rr += 1;
                            s.hosting = target;
                            s.dns = target;
                            left -= 1;
                        }
                    }
                }
            }
        }

        migrated.sort_unstable();
        migrated.dedup();
        let delta = WorldDelta {
            from_label: world.label.clone(),
            to_label: new_world.label.clone(),
            from_sites: world.sites.len(),
            to_sites: new_world.sites.len(),
            replaced,
            migrated,
            warnings,
        };
        (new_world, delta)
    }
}

/// `"{base}/eN"` → `"{base}/eN+1"`, anything else → `"{label}/e1"`.
fn next_label(world: &World) -> String {
    if let Some((base, n)) = world.label.rsplit_once("/e") {
        if let Ok(n) = n.parse::<u64>() {
            return format!("{base}/e{}", n + 1);
        }
    }
    format!("{}/e1", world.label)
}

/// Produces the 2025 snapshot of `world` (the paper preset of
/// [`EvolutionPlan`]).
pub fn evolve(world: &World) -> World {
    EvolutionPlan::paper().evolve_epoch(world, 0).0
}

/// The exact change set between two consecutive epoch worlds.
///
/// `measure_delta` re-measures only [`WorldDelta::dirty`] sites;
/// everything else is covered by the unchanged-site certificate
/// ([`WorldDelta::certify_unchanged`]).
#[derive(Clone, Debug)]
pub struct WorldDelta {
    /// Label of the world this delta evolved from.
    pub from_label: String,
    /// Label of the evolved world.
    pub to_label: String,
    /// Site-table length of the previous epoch.
    pub from_sites: usize,
    /// Site-table length of the evolved epoch (appends only).
    pub to_sites: usize,
    /// `(old toplist site index, fresh replacement index)` per churned
    /// entry; every replacement index lies in [`WorldDelta::added`].
    pub replaced: Vec<(u32, u32)>,
    /// Existing site indices whose provider assignment changed in place
    /// (sorted, deduplicated).
    pub migrated: Vec<u32>,
    /// Non-fatal degradations (e.g. an adoption target absent from the
    /// universe).
    pub warnings: Vec<String>,
}

impl WorldDelta {
    /// The appended site indices (all of them fresh replacements).
    pub fn added(&self) -> std::ops::Range<usize> {
        self.from_sites..self.to_sites
    }

    /// Per-site dirty flags for the evolved world: `true` for appended and
    /// migrated sites, `false` for certified-unchanged ones.
    pub fn dirty(&self) -> Vec<bool> {
        let mut dirty = vec![false; self.to_sites];
        for d in dirty.iter_mut().skip(self.from_sites) {
            *d = true;
        }
        for &i in &self.migrated {
            dirty[i as usize] = true;
        }
        dirty
    }

    /// Number of dirty sites.
    pub fn dirty_count(&self) -> usize {
        (self.to_sites - self.from_sites) + self.migrated.len()
    }

    /// The unchanged-site certificate: every site outside the dirty set
    /// must be bit-identical between the two snapshots (the universe is
    /// shared by construction). Returns the first offending index.
    pub fn certify_unchanged(&self, old: &World, new: &World) -> Result<(), String> {
        if old.sites.len() != self.from_sites || new.sites.len() != self.to_sites {
            return Err(format!(
                "site counts {}→{} do not match delta {}→{}",
                old.sites.len(),
                new.sites.len(),
                self.from_sites,
                self.to_sites
            ));
        }
        let dirty = self.dirty();
        for (i, &d) in dirty.iter().enumerate().take(self.from_sites) {
            if !d && old.sites[i] != new.sites[i] {
                return Err(format!("site {i} changed outside the dirty set"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::country::Layer;
    use crate::world::WorldConfig;
    use std::collections::HashSet;

    fn pair() -> (World, World) {
        let w = World::generate(WorldConfig::tiny());
        let e = evolve(&w);
        (w, e)
    }

    fn domains(w: &World, ci: usize) -> HashSet<String> {
        w.toplists[ci]
            .iter()
            .map(|&i| w.sites[i as usize].domain.clone())
            .collect()
    }

    fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
        let inter = a.intersection(b).count() as f64;
        inter / (a.len() as f64 + b.len() as f64 - inter)
    }

    #[test]
    fn toplist_churn_near_target() {
        let (w, e) = pair();
        let mut js = Vec::new();
        for ci in (0..150).step_by(10) {
            let (a, b) = (domains(&w, ci), domains(&e, ci));
            js.push(jaccard(&a, &b));
        }
        let mean = js.iter().sum::<f64>() / js.len() as f64;
        assert!(
            (0.25..0.55).contains(&mean),
            "mean Jaccard {mean} (target ~0.37)"
        );
    }

    #[test]
    fn cloudflare_rises_almost_everywhere() {
        let (w, e) = pair();
        let cf = w.universe.provider_by_name("Cloudflare").unwrap();
        let share = |world: &World, ci: usize| {
            let counts = world.layer_counts(ci, Layer::Hosting);
            let total: u64 = counts.iter().map(|&(_, c)| c).sum();
            counts
                .iter()
                .find(|&&(id, _)| id == cf)
                .map(|&(_, c)| c as f64 / total as f64)
                .unwrap_or(0.0)
        };
        let br = World::country_index("BR").unwrap();
        let tm = World::country_index("TM").unwrap();
        let ru = World::country_index("RU").unwrap();
        assert!(
            share(&e, br) > share(&w, br) + 0.05,
            "BR: {} -> {}",
            share(&w, br),
            share(&e, br)
        );
        assert!(share(&e, tm) > share(&w, tm) + 0.05);
        assert!(share(&e, ru) <= share(&w, ru) + 0.005, "RU must not rise");
    }

    #[test]
    fn russia_shifts_to_domestic_providers() {
        let (w, e) = pair();
        let ru = World::country_index("RU").unwrap();
        let domestic = |world: &World| {
            let counts = world.layer_counts(ru, Layer::Hosting);
            let total: u64 = counts.iter().map(|&(_, c)| c).sum();
            counts
                .iter()
                .filter(|&&(id, _)| world.universe.provider(id).country == "RU")
                .map(|&(_, c)| c as f64)
                .sum::<f64>()
                / total as f64
        };
        assert!(
            domestic(&e) > domestic(&w) + 0.02,
            "{} -> {}",
            domestic(&w),
            domestic(&e)
        );
    }

    #[test]
    fn scores_strongly_correlated_across_snapshots() {
        let (w, e) = pair();
        let old: Vec<f64> = (0..150)
            .map(|ci| w.achieved_score(ci, Layer::Hosting))
            .collect();
        let new: Vec<f64> = (0..150)
            .map(|ci| e.achieved_score(ci, Layer::Hosting))
            .collect();
        let c = webdep_stats_free_pearson(&old, &new);
        assert!(c > 0.9, "rho {c}");
    }

    /// Minimal Pearson to avoid a dev-dependency cycle with webdep-stats.
    fn webdep_stats_free_pearson(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len() as f64;
        let mx = x.iter().sum::<f64>() / n;
        let my = y.iter().sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for (&a, &b) in x.iter().zip(y) {
            sxy += (a - mx) * (b - my);
            sxx += (a - mx) * (a - mx);
            syy += (b - my) * (b - my);
        }
        sxy / (sxx.sqrt() * syy.sqrt())
    }

    #[test]
    fn original_world_untouched() {
        let w = World::generate(WorldConfig::tiny());
        let before = w.sites.len();
        let snapshot: Vec<String> = w.sites.iter().take(20).map(|s| s.domain.clone()).collect();
        let _ = evolve(&w);
        assert_eq!(w.sites.len(), before);
        let after: Vec<String> = w.sites.iter().take(20).map(|s| s.domain.clone()).collect();
        assert_eq!(snapshot, after);
    }

    #[test]
    fn evolved_label_and_site_growth() {
        let (w, e) = pair();
        assert_eq!(w.label, "2023-05");
        assert_eq!(e.label, "2025-05");
        assert!(e.sites.len() > w.sites.len());
    }

    #[test]
    fn paper_plan_delta_certifies_unchanged_sites() {
        let w = World::generate(WorldConfig::tiny());
        let (e, delta) = EvolutionPlan::paper().evolve_epoch(&w, 0);
        assert_eq!(delta.from_label, "2023-05");
        assert_eq!(delta.to_label, "2025-05");
        assert_eq!(delta.from_sites, w.sites.len());
        assert_eq!(delta.to_sites, e.sites.len());
        assert!(delta.migrated.is_empty(), "paper preset migrates nothing");
        assert_eq!(delta.replaced.len(), e.sites.len() - w.sites.len());
        assert!(delta.warnings.is_empty());
        delta.certify_unchanged(&w, &e).unwrap();
        // The wrapper and the plan agree byte for byte.
        let e2 = evolve(&w);
        assert_eq!(e.label, e2.label);
        assert_eq!(e.sites, e2.sites);
        assert_eq!(e.toplists, e2.toplists);
    }

    #[test]
    fn continuous_plan_chains_epochs_with_certified_deltas() {
        let base = World::generate(WorldConfig::tiny());
        let plan = EvolutionPlan::continuous(3, 0.10, 7);
        let mut prev = base.clone();
        for epoch in 0..3 {
            let (next, delta) = plan.evolve_epoch(&prev, epoch);
            delta.certify_unchanged(&prev, &next).unwrap();
            assert_eq!(delta.from_label, prev.label);
            assert_eq!(delta.to_label, next.label);
            assert!(delta.to_sites > delta.from_sites, "epoch {epoch} grew");
            assert!(
                !delta.migrated.is_empty(),
                "steady preset migrates sites in place"
            );
            // Migrated sites really changed; dirty covers every change.
            for &i in &delta.migrated {
                assert_ne!(prev.sites[i as usize], next.sites[i as usize]);
            }
            prev = next;
        }
        assert_eq!(prev.label, "2023-05/e3");
        // Same base, same plan, same seed → byte-identical worlds.
        let again = {
            let mut p = base.clone();
            for epoch in 0..3 {
                p = plan.evolve_epoch(&p, epoch).0;
            }
            p
        };
        assert_eq!(prev.sites, again.sites);
        assert_eq!(prev.toplists, again.toplists);
    }

    #[test]
    fn a_lying_delta_fails_the_certificate() {
        let w = World::generate(WorldConfig::tiny());
        let (e, delta) = EvolutionPlan::continuous(1, 0.10, 7).evolve_epoch(&w, 0);
        delta.certify_unchanged(&w, &e).unwrap();

        // A migrated site left out of `migrated` changed outside the dirty
        // set, and the certificate names it.
        for pos in [0, delta.migrated.len() - 1] {
            let mut lying = delta.clone();
            let hidden = lying.migrated.remove(pos);
            assert_eq!(
                lying.certify_unchanged(&w, &e),
                Err(format!("site {hidden} changed outside the dirty set"))
            );
        }

        // A delta that misstates the evolved site count is refused.
        for to_sites in [delta.to_sites - 1, delta.to_sites + 1] {
            let lying = WorldDelta {
                to_sites,
                ..delta.clone()
            };
            let err = lying.certify_unchanged(&w, &e).unwrap_err();
            assert!(err.contains("do not match delta"), "{err}");
        }
    }

    #[test]
    fn seed_changes_the_churn_stream() {
        let w = World::generate(WorldConfig::tiny());
        let a = EvolutionPlan::continuous(1, 0.10, 1).evolve_epoch(&w, 0).0;
        let b = EvolutionPlan::continuous(1, 0.10, 2).evolve_epoch(&w, 0).0;
        assert_ne!(a.toplists, b.toplists, "different seeds must differ");
    }

    #[test]
    fn missing_cloudflare_degrades_to_no_adoption_with_warning() {
        let mut w = World::generate(WorldConfig::tiny());
        let cf = w.universe.provider_by_name("Cloudflare").unwrap();
        w.universe.providers[cf as usize].name = "NotCloudflare".to_string();
        assert!(w.universe.provider_by_name("Cloudflare").is_none());
        let (e, delta) = EvolutionPlan::paper().evolve_epoch(&w, 0);
        assert!(
            delta.warnings.iter().any(|m| m.contains("Cloudflare")),
            "warnings: {:?}",
            delta.warnings
        );
        delta.certify_unchanged(&w, &e).unwrap();
        assert!(e.sites.len() > w.sites.len(), "churn still applies");
    }
}
