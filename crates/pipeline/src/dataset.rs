//! The measured dataset: one enriched observation per site.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use webdep_webgen::World;

/// Why a measurement layer failed, normalized across DNS and TLS.
///
/// The variants deliberately mirror the fault-injection kinds plus the
/// failure modes real measurement reports bucket by: a timeout and a
/// SERVFAIL are different operational stories even when both leave the
/// same field unobserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FailureCause {
    /// No answer within the retry budget.
    Timeout,
    /// The network refused the send (no listener / route).
    Unreachable,
    /// The server answered but refused to serve (SERVFAIL, fatal alert).
    Refused,
    /// The name does not exist according to the authority.
    NxDomain,
    /// The answer existed but was empty or missing the needed records.
    NoRecords,
    /// The answer (or the queried name) failed to parse.
    Malformed,
    /// The certificate's issuer is not in the CCADB-style owner map.
    UnknownIssuer,
    /// An upstream layer failed, so this layer was never attempted.
    Skipped,
    /// The measurement infrastructure itself failed — a panic while
    /// measuring the site, or a site abandoned after repeatedly killing
    /// workers. Nothing about the *target* is implied.
    Internal,
}

impl FailureCause {
    /// Every cause, in taxonomy-table order.
    pub const ALL: [FailureCause; 9] = [
        FailureCause::Timeout,
        FailureCause::Unreachable,
        FailureCause::Refused,
        FailureCause::NxDomain,
        FailureCause::NoRecords,
        FailureCause::Malformed,
        FailureCause::UnknownIssuer,
        FailureCause::Skipped,
        FailureCause::Internal,
    ];

    /// Stable snake_case name (taxonomy keys, report rows).
    pub fn name(self) -> &'static str {
        match self {
            FailureCause::Timeout => "timeout",
            FailureCause::Unreachable => "unreachable",
            FailureCause::Refused => "refused",
            FailureCause::NxDomain => "nxdomain",
            FailureCause::NoRecords => "no_records",
            FailureCause::Malformed => "malformed",
            FailureCause::UnknownIssuer => "unknown_issuer",
            FailureCause::Skipped => "skipped",
            FailureCause::Internal => "internal",
        }
    }
}

/// One layer's failure: a normalized cause plus the human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerError {
    /// Normalized failure class (taxonomy bucket).
    pub cause: FailureCause,
    /// Free-form detail, e.g. the underlying resolver error.
    pub detail: String,
}

impl LayerError {
    /// Builds a layer error.
    pub fn new(cause: FailureCause, detail: impl Into<String>) -> Self {
        LayerError {
            cause,
            detail: detail.into(),
        }
    }
}

/// Everything the pipeline learned about one website.
///
/// Organization / owner ids refer to the world's universe (the analysis
/// resolves names through it); `None` fields record measurement failures,
/// which the analysis reports rather than hiding. Each measured layer
/// carries its own error slot — a DNS timeout no longer masks a TLS
/// refusal — and `error` is a derived summary kept for display.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteObservation {
    /// The measured domain.
    pub domain: String,
    /// TLD label extracted from the domain.
    pub tld: String,
    /// Content language (LangDetect stand-in).
    pub language: String,

    /// Serving IP from the A lookup.
    pub hosting_ip: Option<Ipv4Addr>,
    /// Origin ASN of the serving IP (pfx2as).
    pub hosting_asn: Option<u32>,
    /// Owning organization id (AS-to-Org).
    pub hosting_org: Option<u32>,
    /// Organization HQ country.
    pub hosting_org_country: Option<String>,
    /// Country the serving IP geolocates to.
    pub hosting_ip_country: Option<String>,
    /// Whether the serving IP is in an anycast prefix.
    pub hosting_anycast: bool,

    /// Nameserver host names from the NS lookup.
    pub ns_names: Vec<String>,
    /// Address of the first resolvable nameserver.
    pub dns_ip: Option<Ipv4Addr>,
    /// Origin ASN of the nameserver IP.
    pub dns_asn: Option<u32>,
    /// DNS provider organization id.
    pub dns_org: Option<u32>,
    /// DNS organization HQ country.
    pub dns_org_country: Option<String>,
    /// Country the nameserver IP geolocates to.
    pub dns_ip_country: Option<String>,
    /// Whether the nameserver IP is anycast.
    pub dns_anycast: bool,

    /// CA owner id from the TLS leaf certificate (CCADB join).
    pub ca_owner: Option<u32>,
    /// CA owner HQ country.
    pub ca_owner_country: Option<String>,

    /// Hosting-layer (A lookup + enrichment) failure, if any.
    pub hosting_error: Option<LayerError>,
    /// DNS-layer (NS lookup + nameserver address) failure, if any.
    pub dns_error: Option<LayerError>,
    /// CA-layer (TLS scan + issuer join) failure, if any.
    pub ca_error: Option<LayerError>,

    /// Derived summary: the first per-layer failure in pipeline order
    /// (hosting, DNS, CA), skipping `Skipped` entries. Kept for display
    /// and backward compatibility; the per-layer fields are authoritative.
    pub error: Option<String>,
}

impl SiteObservation {
    /// A blank observation for a domain (pre-measurement).
    ///
    /// The TLD is the last label of the *normalized* name: trailing root
    /// dots are stripped first (`"example.com."` → `"com"`, not `""`),
    /// the label is lowercased, and a name without a dot-separated TLD —
    /// label-less (`"."`, `""`) or single-label (`"localhost"`) — yields
    /// an empty TLD rather than becoming its own.
    pub fn blank(domain: &str, language: &str) -> Self {
        let normalized = domain.trim_end_matches('.');
        let tld = match normalized.rsplit_once('.') {
            Some((_, last)) => last.to_ascii_lowercase(),
            None => String::new(),
        };
        SiteObservation {
            domain: domain.to_string(),
            tld,
            language: language.to_string(),
            hosting_ip: None,
            hosting_asn: None,
            hosting_org: None,
            hosting_org_country: None,
            hosting_ip_country: None,
            hosting_anycast: false,
            ns_names: Vec::new(),
            dns_ip: None,
            dns_asn: None,
            dns_org: None,
            dns_org_country: None,
            dns_ip_country: None,
            dns_anycast: false,
            ca_owner: None,
            ca_owner_country: None,
            hosting_error: None,
            dns_error: None,
            ca_error: None,
            error: None,
        }
    }

    /// An observation for a site whose measurement was lost to the
    /// measurement infrastructure itself — a panic in the measuring code,
    /// or a site abandoned after repeatedly killing workers. Every layer
    /// is marked [`FailureCause::Internal`] with the given detail.
    pub fn internal_failure(domain: &str, language: &str, detail: &str) -> Self {
        let mut o = Self::blank(domain, language);
        o.hosting_error = Some(LayerError::new(FailureCause::Internal, detail));
        o.dns_error = Some(LayerError::new(FailureCause::Internal, detail));
        o.ca_error = Some(LayerError::new(FailureCause::Internal, detail));
        o.derive_error_summary();
        o
    }

    /// True when every layer was measured successfully.
    pub fn complete(&self) -> bool {
        self.hosting_org.is_some() && self.dns_org.is_some() && self.ca_owner.is_some()
    }

    /// Per-layer failure causes `(hosting, dns, ca)`, the input of
    /// [`FailureTaxonomy::record_site`].
    pub fn failure_causes(&self) -> [Option<FailureCause>; 3] {
        [&self.hosting_error, &self.dns_error, &self.ca_error].map(|e| e.as_ref().map(|e| e.cause))
    }

    /// Recomputes the derived `error` summary from the per-layer slots:
    /// first failure in pipeline order, ignoring `Skipped` layers.
    pub fn derive_error_summary(&mut self) {
        self.error = [&self.hosting_error, &self.dns_error, &self.ca_error]
            .into_iter()
            .flatten()
            .find(|e| e.cause != FailureCause::Skipped)
            .map(|e| e.detail.clone());
    }
}

/// Failure counts by measurement layer and normalized cause.
///
/// Layers are keyed by name (`hosting`, `dns`, `ca`) and causes by
/// [`FailureCause::name`]; `BTreeMap`s keep iteration — and the serialized
/// form — deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureTaxonomy {
    /// layer name → cause name → observation count.
    pub counts: BTreeMap<String, BTreeMap<String, u64>>,
    /// Observations with no failure at any layer.
    pub clean: u64,
    /// Observations examined.
    pub total: u64,
}

impl FailureTaxonomy {
    /// Layer names, in [`SiteObservation::failure_causes`] order.
    pub const LAYERS: [&'static str; 3] = ["hosting", "dns", "ca"];

    /// Folds one site's per-layer failure causes (in [`Self::LAYERS`]
    /// order) into the counts: every present cause is recorded, and a
    /// site with none counts as clean. `total` is the caller's to set.
    pub fn record_site(&mut self, causes: [Option<FailureCause>; 3]) {
        self.fold_site(causes, false);
    }

    /// Reverses one [`FailureTaxonomy::record_site`] with the same causes.
    pub fn unrecord_site(&mut self, causes: [Option<FailureCause>; 3]) {
        self.fold_site(causes, true);
    }

    /// The one "any cause, else clean" rule, applied forwards or (with
    /// `retract`) backwards.
    fn fold_site(&mut self, causes: [Option<FailureCause>; 3], retract: bool) {
        let mut clean = true;
        for (layer, cause) in Self::LAYERS.into_iter().zip(causes) {
            if let Some(cause) = cause {
                if retract {
                    self.unrecord(layer, cause);
                } else {
                    self.record(layer, cause);
                }
                clean = false;
            }
        }
        if clean {
            if retract {
                self.clean -= 1;
            } else {
                self.clean += 1;
            }
        }
    }

    /// Records one layer failure.
    pub fn record(&mut self, layer: &str, cause: FailureCause) {
        *self
            .counts
            .entry(layer.to_string())
            .or_default()
            .entry(cause.name().to_string())
            .or_insert(0) += 1;
    }

    /// Reverses one [`FailureTaxonomy::record`]. Zeroed cells (and then
    /// empty layers) are removed, so a taxonomy adjusted incrementally
    /// across epochs stays structurally identical to a fresh tally —
    /// `PartialEq` and the serialized form cannot tell them apart.
    ///
    /// Panics if the cell was never recorded: an unrecord/record mismatch
    /// means the caller's per-site cause bookkeeping is corrupt.
    pub fn unrecord(&mut self, layer: &str, cause: FailureCause) {
        let causes = self
            .counts
            .get_mut(layer)
            .unwrap_or_else(|| panic!("unrecord: no counts for layer {layer:?}"));
        let n = causes
            .get_mut(cause.name())
            .unwrap_or_else(|| panic!("unrecord: {layer}/{} never recorded", cause.name()));
        *n -= 1;
        if *n == 0 {
            causes.remove(cause.name());
            if self.counts.get(layer).is_some_and(|m| m.is_empty()) {
                self.counts.remove(layer);
            }
        }
    }

    /// Total failures recorded for a layer.
    pub fn layer_total(&self, layer: &str) -> u64 {
        self.counts
            .get(layer)
            .map(|m| m.values().sum())
            .unwrap_or(0)
    }

    /// Count for one (layer, cause) cell.
    pub fn count(&self, layer: &str, cause: FailureCause) -> u64 {
        self.counts
            .get(layer)
            .and_then(|m| m.get(cause.name()))
            .copied()
            .unwrap_or(0)
    }

    /// Renders the taxonomy as a compact Markdown table (one row per
    /// layer × cause with a non-zero count).
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("| layer | cause | sites |\n|---|---|---:|\n");
        for (layer, causes) in &self.counts {
            for (cause, n) in causes {
                out.push_str(&format!("| {layer} | {cause} | {n} |\n"));
            }
        }
        out.push_str(&format!(
            "| _clean_ | — | {} |\n| _total_ | — | {} |\n",
            self.clean, self.total
        ));
        out
    }
}

/// The full measured dataset, aligned with the generating world. Toplist
/// membership is not copied here: the [`World`] that generated the sites
/// is its only owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredDataset {
    /// One observation per world site (same indexing as `World::sites`).
    pub observations: Vec<SiteObservation>,
    /// Snapshot label copied from the world.
    pub label: String,
}

impl MeasuredDataset {
    /// Fraction of `world`'s toplist-referenced sites that measured
    /// cleanly.
    pub fn success_rate(&self, world: &World) -> f64 {
        let mut referenced = std::collections::HashSet::new();
        for t in &world.toplists {
            referenced.extend(t.iter().copied());
        }
        if referenced.is_empty() {
            return 0.0;
        }
        let ok = referenced
            .iter()
            .filter(|&&i| self.observations[i as usize].complete())
            .count();
        ok as f64 / referenced.len() as f64
    }

    /// Tallies every observation's per-layer failures into a
    /// [`FailureTaxonomy`]. Derived on demand so it can never drift from
    /// the observations themselves.
    pub fn failure_taxonomy(&self) -> FailureTaxonomy {
        let mut tax = FailureTaxonomy {
            total: self.observations.len() as u64,
            ..FailureTaxonomy::default()
        };
        for obs in &self.observations {
            tax.record_site(obs.failure_causes());
        }
        tax
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_extracts_tld() {
        let o = SiteObservation::blank("kalomi7.co", "en");
        assert_eq!(o.tld, "co");
        assert!(!o.complete());
        assert!(o.error.is_none());
    }

    /// Regression: a fully-qualified name with a trailing root dot used to
    /// yield an empty TLD (`rsplit('.')` sees the empty final label).
    #[test]
    fn blank_normalizes_trailing_dot() {
        assert_eq!(SiteObservation::blank("example.com.", "en").tld, "com");
        assert_eq!(SiteObservation::blank("example.COM.", "en").tld, "com");
    }

    /// Regression: label-less names must yield an empty TLD, not panic or
    /// produce a garbage label.
    #[test]
    fn blank_rejects_label_less_names() {
        assert_eq!(SiteObservation::blank(".", "en").tld, "");
        assert_eq!(SiteObservation::blank("", "en").tld, "");
        assert_eq!(SiteObservation::blank("...", "en").tld, "");
    }

    /// Regression: a single-label name (`"localhost"`) used to become its
    /// own TLD.
    #[test]
    fn blank_rejects_single_label_names() {
        assert_eq!(SiteObservation::blank("localhost", "en").tld, "");
        assert_eq!(SiteObservation::blank("localhost.", "en").tld, "");
    }

    #[test]
    fn success_rate_counts_referenced_only() {
        let world = World::generate(webdep_webgen::WorldConfig {
            seed: 7,
            sites_per_country: 12,
            global_pool_size: 60,
            tail_scale: 0.04,
            pool_target: 24,
        });
        let first: std::collections::HashSet<u32> = world.toplists[0].iter().copied().collect();
        let referenced: std::collections::HashSet<u32> =
            world.toplists.iter().flatten().copied().collect();
        // Clean exactly the first country's sites, plus every site no
        // toplist references (which must not count either way).
        let observations = world
            .sites
            .iter()
            .enumerate()
            .map(|(i, site)| {
                let mut o = SiteObservation::blank(&site.domain, &site.language);
                let i = i as u32;
                if first.contains(&i) || !referenced.contains(&i) {
                    o.hosting_org = Some(1);
                    o.dns_org = Some(1);
                    o.ca_owner = Some(1);
                }
                o
            })
            .collect();
        let ds = MeasuredDataset {
            observations,
            label: world.label.clone(),
        };
        let want = first.len() as f64 / referenced.len() as f64;
        assert!(want > 0.0 && want < 1.0, "{want}");
        assert!((ds.success_rate(&world) - want).abs() < 1e-12);
    }

    #[test]
    fn derived_summary_skips_skipped_layers() {
        let mut o = SiteObservation::blank("a.com", "en");
        o.hosting_error = Some(LayerError::new(FailureCause::Timeout, "A: query timed out"));
        o.ca_error = Some(LayerError::new(FailureCause::Skipped, "hosting failed"));
        o.derive_error_summary();
        assert_eq!(o.error.as_deref(), Some("A: query timed out"));

        o.hosting_error = None;
        o.derive_error_summary();
        assert_eq!(o.error, None, "skipped-only failures have no summary");
    }

    #[test]
    fn taxonomy_counts_by_layer_and_cause() {
        let mut a = SiteObservation::blank("a.com", "en");
        a.hosting_error = Some(LayerError::new(FailureCause::Timeout, "A: timeout"));
        a.ca_error = Some(LayerError::new(FailureCause::Skipped, "hosting failed"));
        let mut b = SiteObservation::blank("b.com", "en");
        b.dns_error = Some(LayerError::new(FailureCause::Refused, "NS: servfail"));
        let clean = SiteObservation::blank("c.com", "en");
        let ds = MeasuredDataset {
            observations: vec![a, b, clean],
            label: "t".into(),
        };
        let tax = ds.failure_taxonomy();
        assert_eq!(tax.total, 3);
        assert_eq!(tax.clean, 1);
        assert_eq!(tax.count("hosting", FailureCause::Timeout), 1);
        assert_eq!(tax.count("ca", FailureCause::Skipped), 1);
        assert_eq!(tax.count("dns", FailureCause::Refused), 1);
        assert_eq!(tax.layer_total("hosting"), 1);
        assert_eq!(tax.count("dns", FailureCause::Timeout), 0);
        let md = tax.to_markdown();
        assert!(md.contains("| hosting | timeout | 1 |"), "{md}");
        assert!(md.contains("| _total_ | — | 3 |"), "{md}");

        // Retracting every site leaves an empty tally, structurally.
        let mut emptied = tax.clone();
        for obs in &ds.observations {
            emptied.unrecord_site(obs.failure_causes());
        }
        let empty = FailureTaxonomy {
            total: 3,
            ..FailureTaxonomy::default()
        };
        assert_eq!(emptied, empty);
    }
}
