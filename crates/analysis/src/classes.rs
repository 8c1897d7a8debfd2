//! Provider classification (§5.2, Tables 1–3, Figure 6): usage +
//! endemicity features, min-max scaling, affinity propagation, and class
//! labels.
//!
//! Exactly as in the paper, classes are *derived from the measured data*:
//! the generator's ground-truth tiers are never consulted. The clustering
//! runs on the providers with non-negligible usage; the deep one-country
//! tail is labelled XS-RP directly (clustering 12k near-identical points
//! adds nothing but O(n²) memory — the paper, too, leaves XS-RP out of its
//! Figure 6 visualization).

use crate::ctx::AnalysisCtx;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use webdep_core::regionalization::UsageCurve;
use webdep_stats::affinity::{affinity_propagation, AffinityConfig};
use webdep_stats::scale::min_max_scale_columns;
use webdep_webgen::Layer;

/// The paper's provider classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProviderClass {
    /// Extra-large global.
    XlGp,
    /// Large global.
    LGp,
    /// Large global with regional concentration (OVH/Hetzner pattern).
    LGpR,
    /// Medium global.
    MGp,
    /// Small global.
    SGp,
    /// Large regional.
    LRp,
    /// Small regional.
    SRp,
    /// Extra-small regional.
    XsRp,
}

impl ProviderClass {
    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            ProviderClass::XlGp => "XL-GP",
            ProviderClass::LGp => "L-GP",
            ProviderClass::LGpR => "L-GP (R)",
            ProviderClass::MGp => "M-GP",
            ProviderClass::SGp => "S-GP",
            ProviderClass::LRp => "L-RP",
            ProviderClass::SRp => "S-RP",
            ProviderClass::XsRp => "XS-RP",
        }
    }

    /// Global classes (vs regional).
    pub fn is_global(self) -> bool {
        matches!(
            self,
            ProviderClass::XlGp
                | ProviderClass::LGp
                | ProviderClass::LGpR
                | ProviderClass::MGp
                | ProviderClass::SGp
        )
    }
}

/// Per-owner classification features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OwnerFeatures {
    /// Owner id.
    pub owner: u32,
    /// Usage `U` (sum of per-country usage percentages).
    pub usage: f64,
    /// Endemicity ratio `E_R` in `[0, 1]`.
    pub endemicity_ratio: f64,
    /// Peak usage percentage in any single country.
    pub peak: f64,
    /// Number of countries with non-zero usage.
    pub countries: usize,
}

/// The classification result for one layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Classification {
    /// Features per clustered owner (the Figure 6 scatter).
    pub features: Vec<OwnerFeatures>,
    /// Class per owner id (covers every observed owner, including the
    /// directly-labelled XS tail).
    pub class_of: HashMap<u32, ProviderClass>,
    /// Number of affinity-propagation clusters found.
    pub num_clusters: usize,
    /// Affinity-propagation sweeps run, copied from the clustering (`0`
    /// when no owner reached the clustering floor).
    pub iterations: usize,
    /// Whether the exemplar set converged before the sweep cap, copied
    /// from the clustering (`true` when there was nothing to cluster).
    pub converged: bool,
    /// Owners assigned per class.
    pub class_counts: HashMap<String, usize>,
}

/// Minimum usage (percentage-point-sum) for an owner to join clustering;
/// everything below is directly XS-RP (or S-RP if visibly multi-country).
const CLUSTER_USAGE_FLOOR: f64 = 1.0;

/// Classifies a layer's owners.
pub fn classify(ctx: &AnalysisCtx<'_>, layer: Layer) -> Classification {
    // `usage_rows` is ordered by owner id, so the feature list (and with
    // it the clustering input and every tie-broken sort below) is
    // deterministic across runs — HashMap iteration order was not.
    let usage = ctx.usage_rows(layer);
    let mut features: Vec<OwnerFeatures> = Vec::new();
    let mut tail: Vec<OwnerFeatures> = Vec::new();
    for (owner, per_country) in usage {
        let countries = per_country.iter().filter(|&&v| v > 0.0).count();
        let curve = UsageCurve::new(per_country);
        let f = OwnerFeatures {
            owner,
            usage: curve.usage(),
            endemicity_ratio: curve.endemicity_ratio(),
            peak: curve.peak(),
            countries,
        };
        if f.usage >= CLUSTER_USAGE_FLOOR {
            features.push(f);
        } else {
            tail.push(f);
        }
    }
    features.sort_by(|a, b| {
        b.usage
            .partial_cmp(&a.usage)
            .expect("finite")
            .then(a.owner.cmp(&b.owner))
    });

    // Min-max scale (usage, endemicity ratio) and cluster.
    let raw: Vec<Vec<f64>> = features
        .iter()
        .map(|f| vec![f.usage, f.endemicity_ratio])
        .collect();
    let scaled = min_max_scale_columns(&raw);
    let clustering = affinity_propagation(&scaled, &AffinityConfig::default());
    let (num_clusters, iterations, converged) = clustering.as_ref().map_or((0, 0, true), |c| {
        (c.num_clusters(), c.iterations, c.converged)
    });

    // Label by features (the paper labels its clusters manually; these
    // thresholds encode the same judgement).
    let max_usage = features.first().map(|f| f.usage).unwrap_or(1.0).max(1.0);
    let mut class_of: HashMap<u32, ProviderClass> = HashMap::new();
    for f in &features {
        class_of.insert(f.owner, label_features(f, max_usage));
    }
    for f in &tail {
        let class = if f.countries > 2 && f.endemicity_ratio < 0.75 {
            ProviderClass::SGp
        } else if f.peak >= 0.3 {
            ProviderClass::SRp
        } else {
            ProviderClass::XsRp
        };
        class_of.insert(f.owner, class);
    }

    let mut class_counts: HashMap<String, usize> = HashMap::new();
    for class in class_of.values() {
        *class_counts.entry(class.label().to_string()).or_insert(0) += 1;
    }

    Classification {
        features,
        class_of,
        num_clusters,
        iterations,
        converged,
        class_counts,
    }
}

/// Feature-space labelling rules.
fn label_features(f: &OwnerFeatures, max_usage: f64) -> ProviderClass {
    let rel = f.usage / max_usage;
    if f.endemicity_ratio < 0.60 {
        // Global reach.
        if rel >= 0.45 {
            ProviderClass::XlGp
        } else if rel >= 0.055 {
            ProviderClass::LGp
        } else if rel >= 0.012 {
            ProviderClass::MGp
        } else {
            ProviderClass::SGp
        }
    } else if f.endemicity_ratio < 0.85 && rel >= 0.012 {
        // Sizeable but regionally concentrated: the OVH/Hetzner pattern.
        ProviderClass::LGpR
    } else if f.peak >= 2.0 {
        ProviderClass::LRp
    } else if f.peak >= 0.3 {
        ProviderClass::SRp
    } else {
        ProviderClass::XsRp
    }
}

impl Classification {
    /// The clustering's outcome as the report states it: the cluster count
    /// and whether the exemplar set converged, with the sweeps run.
    pub fn clustering_summary(&self) -> String {
        let outcome = if self.converged {
            "converged"
        } else {
            "did not converge"
        };
        format!(
            "{} clusters, {outcome} in {} sweeps",
            self.num_clusters, self.iterations
        )
    }

    /// Class of an owner (`XS-RP` for owners never observed).
    pub fn class(&self, owner: u32) -> ProviderClass {
        self.class_of
            .get(&owner)
            .copied()
            .unwrap_or(ProviderClass::XsRp)
    }

    /// Owners in a class, sorted by descending usage where known.
    pub fn members(&self, class: ProviderClass) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .class_of
            .iter()
            .filter(|&(_, c)| *c == class)
            .map(|(&o, _)| o)
            .collect();
        let usage_of: HashMap<u32, f64> =
            self.features.iter().map(|f| (f.owner, f.usage)).collect();
        ids.sort_by(|a, b| {
            usage_of
                .get(b)
                .unwrap_or(&0.0)
                .partial_cmp(usage_of.get(a).unwrap_or(&0.0))
                .expect("finite")
                .then(a.cmp(b))
        });
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::ctx;

    #[test]
    fn hosting_classes_identify_the_hyperscalers() {
        let c = ctx();
        let cls = classify(&c, Layer::Hosting);
        let cf = c.world.universe.provider_by_name("Cloudflare").unwrap();
        let amazon = c.world.universe.provider_by_name("Amazon").unwrap();
        assert_eq!(cls.class(cf), ProviderClass::XlGp, "Cloudflare is XL");
        assert_eq!(cls.class(amazon), ProviderClass::XlGp, "Amazon is XL");
        // Exactly the two hyperscalers.
        assert_eq!(cls.members(ProviderClass::XlGp).len(), 2);
        // Google and Akamai are large global.
        let google = c.world.universe.provider_by_name("Google").unwrap();
        assert!(matches!(
            cls.class(google),
            ProviderClass::LGp | ProviderClass::XlGp
        ));
    }

    #[test]
    fn hosting_clustering_convergence_is_reported() {
        // The fixture world's hosting clustering settles after 44 sweeps;
        // the classification reports the clustering's own figures.
        let cls = classify(&ctx(), Layer::Hosting);
        assert_eq!((cls.iterations, cls.converged), (44, true));
    }

    #[test]
    fn dns_clustering_convergence_is_reported() {
        // The fixture world's DNS clustering settles after 36 sweeps.
        let cls = classify(&ctx(), Layer::Dns);
        assert_eq!((cls.iterations, cls.converged), (36, true));
    }

    #[test]
    fn regional_providers_classified_regional() {
        let c = ctx();
        let cls = classify(&c, Layer::Hosting);
        let beget = c.world.universe.provider_by_name("Beget").unwrap();
        assert!(
            !cls.class(beget).is_global(),
            "Beget is regional, got {:?}",
            cls.class(beget)
        );
        let shb = c
            .world
            .universe
            .provider_by_name("SuperHosting.BG")
            .unwrap();
        assert!(!cls.class(shb).is_global());
    }

    #[test]
    fn ovh_hetzner_are_global_regional_or_global() {
        let c = ctx();
        let cls = classify(&c, Layer::Hosting);
        for name in ["OVH", "Hetzner"] {
            let id = c.world.universe.provider_by_name(name).unwrap();
            let class = cls.class(id);
            assert!(
                class.is_global(),
                "{name} should be a global class, got {:?}",
                class
            );
        }
    }

    #[test]
    fn clustering_found_structure() {
        let c = ctx();
        let cls = classify(&c, Layer::Hosting);
        assert!(
            cls.num_clusters >= 3,
            "expected several clusters, got {}",
            cls.num_clusters
        );
        assert!(!cls.features.is_empty());
        // Every observed hosting owner has a class.
        let usage = c.usage_matrix(Layer::Hosting);
        for owner in usage.keys() {
            assert!(cls.class_of.contains_key(owner));
        }
    }

    #[test]
    fn ca_classes_have_seven_large_globals() {
        let c = ctx();
        let cls = classify(&c, Layer::Ca);
        let globals: Vec<u32> = cls
            .class_of
            .iter()
            .filter(|&(_, cl)| cl.is_global())
            .map(|(&o, _)| o)
            .collect();
        // The big CAs must be recognized as global; exact tier split can
        // wobble at tiny scale.
        for name in ["Let's Encrypt", "DigiCert", "Sectigo"] {
            let id = c.world.universe.ca_by_name(name).unwrap();
            assert!(globals.contains(&id), "{name} should be global");
        }
        // Asseco shows regional concentration.
        let asseco = c.world.universe.ca_by_name("Asseco").unwrap();
        assert!(!cls.class(asseco).is_global());
    }

    #[test]
    fn dns_managed_providers_are_global() {
        let c = ctx();
        let cls = classify(&c, Layer::Dns);
        for name in ["NSONE", "Neustar UltraDNS"] {
            let id = c.world.universe.provider_by_name(name).unwrap();
            assert!(cls.class(id).is_global(), "{name}: {:?}", cls.class(id));
        }
    }
}
