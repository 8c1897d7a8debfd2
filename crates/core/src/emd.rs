//! The paper's EMD instantiation (§3.2, Appendix A).
//!
//! Centralization is the Earth Mover's Distance between the observed
//! provider distribution `A = (a_1, ..., a_n)` and a fully decentralized
//! reference `R` with `C = sum a_i` buckets of size 1 (every website has its
//! own provider), under the ground distance
//!
//! ```text
//! d_ij = (a_i - r_j) / C = (a_i - 1) / C
//! ```
//!
//! Because `d_ij` does not depend on `j`, *any* feasible flow is optimal and
//! the work reduces to the closed form `S = sum (a_i/C)^2 - 1/C`. This
//! module exposes the instantiation explicitly — reference construction,
//! ground distance, and an evaluation path through the generic
//! [`crate::transport`] solver — so the closed form is independently
//! checkable and the framework remains customizable as §3.2 suggests
//! (alternative references, pairwise country comparisons, weighted sites).

use crate::dist::CountDist;
use crate::error::MetricError;
use crate::transport::{min_cost_transport_with, TransportWorkspace};

/// The fully decentralized reference distribution for a dataset of `C`
/// websites: `C` providers with one website each.
///
/// This is a *reference*, not an attainable or ideal state (§3.1): it anchors
/// zero centralization so all observed distributions can be compared against
/// the same origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecentralizedReference {
    total: u64,
}

impl DecentralizedReference {
    /// Reference for `total` websites. Panics if `total == 0`.
    pub fn new(total: u64) -> Self {
        assert!(total > 0, "reference requires at least one website");
        DecentralizedReference { total }
    }

    /// Reference matched to an observed distribution (same total mass).
    pub fn matching(dist: &CountDist) -> Self {
        DecentralizedReference {
            total: dist.total(),
        }
    }

    /// Number of reference buckets (`m = C`).
    pub fn num_buckets(&self) -> u64 {
        self.total
    }

    /// The reference mass vector `(1, 1, ..., 1)`; only sensible for small
    /// `C` (validation use).
    pub fn mass_vector(&self) -> Vec<f64> {
        vec![1.0; self.total as usize]
    }
}

/// The paper's ground distance `d_ij = (a_i - 1) / C` between observed
/// bucket `i` and any reference bucket.
pub fn ground_distance(a_i: u64, total: u64) -> f64 {
    debug_assert!(total > 0);
    (a_i as f64 - 1.0) / total as f64
}

/// EMD from `dist` to the matched fully decentralized reference, evaluated
/// with the closed form. Identical to
/// [`crate::centralization::centralization_score`]; exposed here under the
/// EMD vocabulary.
pub fn emd_to_decentralized(dist: &CountDist) -> f64 {
    crate::centralization::centralization_score(dist)
}

/// The closed-form EMD over a raw count row, fused into a single pass in
/// the style of
/// [`crate::centralization::centralization_score_counts_ref`]: no
/// [`CountDist`] construction, no sort (the closed form is
/// order-independent), no allocation. Zero counts are skipped; returns
/// `None` when nothing is positive.
///
/// This is the kernel the batched per-country analysis loop calls against
/// dense cube rows at scale.
pub fn emd_to_decentralized_counts_ref(counts: &[u64]) -> Option<f64> {
    crate::centralization::centralization_score_counts_ref(counts)
}

/// Reusable scratch for the transport-evaluated EMD paths: share/mass
/// vectors plus the solver's graph buffers. One workspace serves any
/// mix of [`emd_to_decentralized_via_transport_with`] and
/// [`emd_between_with`] calls; buffers are cleared, never shrunk.
#[derive(Debug, Default)]
pub struct EmdWorkspace {
    supply: Vec<f64>,
    reference: Vec<f64>,
    shares_b: Vec<f64>,
    transport: TransportWorkspace,
}

impl EmdWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

/// EMD from `dist` to the matched reference, evaluated through the generic
/// transportation solver instead of the closed form.
///
/// This materializes the full `C`-bucket reference, so it is only suitable
/// for small `C` (validation and property tests). The closed form and this
/// function agree to within float tolerance — asserted by tests.
pub fn emd_to_decentralized_via_transport(dist: &CountDist) -> Result<f64, MetricError> {
    emd_to_decentralized_via_transport_with(dist, &mut EmdWorkspace::new())
}

/// [`emd_to_decentralized_via_transport`] with caller-provided scratch:
/// per-country-per-layer loops reuse `ws` instead of building three fresh
/// `Vec`s and a solver graph per call. Results are identical.
pub fn emd_to_decentralized_via_transport_with(
    dist: &CountDist,
    ws: &mut EmdWorkspace,
) -> Result<f64, MetricError> {
    let total = dist.total();
    let counts = dist.counts();
    ws.supply.clear();
    ws.supply.extend(counts.iter().map(|&a| a as f64));
    ws.reference.clear();
    ws.reference.resize(total as usize, 1.0);
    let work = min_cost_transport_with(
        &ws.supply,
        &ws.reference,
        |i, _j| ground_distance(counts[i], total),
        &mut ws.transport,
    )?;
    // Normalize by total flow (== C), per Appendix A.
    Ok(work / total as f64)
}

/// EMD between two observed distributions under a caller-supplied ground
/// distance over *shares*. This supports the §3.2 extension of comparing
/// countries pairwise rather than against the reference.
///
/// Both distributions are converted to market shares (mass 1 each) so that
/// datasets of different sizes are comparable; `ground(i, j)` receives
/// bucket indices into the two share vectors.
pub fn emd_between<F>(a: &CountDist, b: &CountDist, ground: F) -> Result<f64, MetricError>
where
    F: Fn(usize, usize) -> f64,
{
    emd_between_with(a, b, ground, &mut EmdWorkspace::new())
}

/// [`emd_between`] with caller-provided scratch: the share vectors and the
/// solver graph live in `ws` and are reused across calls. Results are
/// identical to the allocating entry point.
pub fn emd_between_with<F>(
    a: &CountDist,
    b: &CountDist,
    ground: F,
    ws: &mut EmdWorkspace,
) -> Result<f64, MetricError>
where
    F: Fn(usize, usize) -> f64,
{
    a.shares_into(&mut ws.supply);
    b.shares_into(&mut ws.shares_b);
    min_cost_transport_with(&ws.supply, &ws.shares_b, ground, &mut ws.transport)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(counts: &[u64]) -> CountDist {
        CountDist::from_counts(counts.to_vec()).unwrap()
    }

    #[test]
    fn closed_form_matches_transport_solver() {
        for counts in [
            vec![5u64],
            vec![1, 1, 1, 1],
            vec![10, 5, 3, 1, 1],
            vec![7, 7, 7],
            vec![20, 1, 1, 1, 1, 1],
        ] {
            let dist = d(&counts);
            let closed = emd_to_decentralized(&dist);
            let solved = emd_to_decentralized_via_transport(&dist).unwrap();
            assert!(
                (closed - solved).abs() < 1e-9,
                "counts {counts:?}: closed {closed} vs solved {solved}"
            );
        }
    }

    #[test]
    fn reference_shape() {
        let r = DecentralizedReference::new(5);
        assert_eq!(r.num_buckets(), 5);
        assert_eq!(r.mass_vector(), vec![1.0; 5]);
    }

    #[test]
    #[should_panic(expected = "at least one website")]
    fn reference_rejects_zero() {
        let _ = DecentralizedReference::new(0);
    }

    #[test]
    fn ground_distance_is_zero_for_singleton_bucket() {
        // A provider with exactly one website is already "decentralized";
        // moving its site costs nothing.
        assert_eq!(ground_distance(1, 100), 0.0);
        assert!(ground_distance(50, 100) > 0.0);
    }

    #[test]
    fn pairwise_emd_is_symmetric_under_symmetric_ground() {
        let a = d(&[6, 3, 1]);
        let b = d(&[4, 4, 2]);
        // Symmetric ground distance over share-vector vertical difference.
        let sa = a.shares();
        let sb = b.shares();
        let g_ab = {
            let (sa, sb) = (sa.clone(), sb.clone());
            move |i: usize, j: usize| (sa[i] - sb[j]).abs()
        };
        let g_ba = move |i: usize, j: usize| (sb[i] - sa[j]).abs();
        let ab = emd_between(&a, &b, g_ab).unwrap();
        let ba = emd_between(&b, &a, g_ba).unwrap();
        assert!((ab - ba).abs() < 1e-9, "{ab} vs {ba}");
    }

    #[test]
    fn counts_ref_kernel_matches_closed_form() {
        for counts in [
            vec![5u64],
            vec![1, 1, 1, 1],
            vec![10, 5, 3, 1, 1],
            vec![0, 7, 0, 7, 7],
            vec![20, 1, 1, 1, 1, 1],
        ] {
            let via_dist = CountDist::from_counts(counts.clone())
                .map(|d| emd_to_decentralized(&d))
                .unwrap();
            let kernel = emd_to_decentralized_counts_ref(&counts).unwrap();
            // Same closed form; only f64 summation order differs (the
            // kernel skips the sort).
            assert!(
                (kernel - via_dist).abs() < 1e-12,
                "counts {counts:?}: {kernel} vs {via_dist}"
            );
        }
        assert_eq!(emd_to_decentralized_counts_ref(&[]), None);
        assert_eq!(emd_to_decentralized_counts_ref(&[0, 0]), None);
    }

    #[test]
    fn workspace_variants_match_allocating_paths() {
        let mut ws = EmdWorkspace::new();
        for counts in [vec![5u64], vec![10, 5, 3, 1, 1], vec![7, 7, 7]] {
            let dist = d(&counts);
            assert_eq!(
                emd_to_decentralized_via_transport(&dist).unwrap(),
                emd_to_decentralized_via_transport_with(&dist, &mut ws).unwrap(),
                "counts {counts:?}"
            );
        }
        let a = d(&[6, 3, 1]);
        let b = d(&[4, 4, 2]);
        let ground = |i: usize, j: usize| (i as f64 - j as f64).abs() * 0.1;
        assert_eq!(
            emd_between(&a, &b, ground).unwrap(),
            emd_between_with(&a, &b, ground, &mut ws).unwrap()
        );
    }

    #[test]
    fn figure2_worked_example_ordering() {
        // Figure 2: Country B is more centralized than Country A
        // (EMD 0.32 vs 0.28). Reconstruct comparable head-heavy
        // distributions: B has a steeper head than A over the same total.
        let a = d(&[10, 6, 4, 3, 2]); // flatter
        let b = d(&[14, 5, 3, 2, 1]); // steeper
        assert!(emd_to_decentralized(&b) > emd_to_decentralized(&a));
    }
}
