//! Property tests for the statistics substrate.

use proptest::prelude::*;
use webdep_stats::affinity::{affinity_propagation, AffinityConfig};
use webdep_stats::bootstrap::{
    bootstrap_ci, label_score_ci_scratch, BootstrapCi, BootstrapScratch,
};
use webdep_stats::corr::{average_ranks, pearson, spearman};
use webdep_stats::describe::{mean, median, quantile, variance};
use webdep_stats::hist::{ecdf, Histogram};
use webdep_stats::kmeans::kmeans;
use webdep_stats::scale::min_max_scale_columns;

proptest! {
    /// Pearson is symmetric, bounded, and invariant to affine transforms.
    #[test]
    fn pearson_invariants(
        xs in prop::collection::vec(-100.0f64..100.0, 4..40),
        a in 0.1f64..10.0,
        b in -50.0f64..50.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x * 1.5 - 3.0).collect();
        if let Some(c) = pearson(&xs, &ys) {
            prop_assert!((c.rho - 1.0).abs() < 1e-9, "perfect line: {}", c.rho);
        }
        let zs: Vec<f64> = xs.iter().enumerate().map(|(i, x)| x + ((i * 37) % 11) as f64).collect();
        if let (Some(f), Some(r)) = (pearson(&xs, &zs), pearson(&zs, &xs)) {
            prop_assert!((f.rho - r.rho).abs() < 1e-12, "symmetry");
            prop_assert!((-1.0..=1.0).contains(&f.rho));
            // Affine transform of one side leaves |rho| fixed.
            let ws: Vec<f64> = zs.iter().map(|z| a * z + b).collect();
            if let Some(t) = pearson(&xs, &ws) {
                prop_assert!((t.rho - f.rho).abs() < 1e-9, "affine invariance");
            }
        }
    }

    /// Spearman equals Pearson on ranks and is monotone-invariant.
    #[test]
    fn spearman_monotone_invariance(xs in prop::collection::vec(-50.0f64..50.0, 4..30)) {
        let cubes: Vec<f64> = xs.iter().map(|x| x.powi(3)).collect();
        if let (Some(s1), Some(s2)) = (spearman(&xs, &cubes), spearman(&xs, &xs)) {
            prop_assert!((s1.rho - s2.rho).abs() < 1e-9);
        }
    }

    /// Average ranks are a permutation-invariant relabeling summing to
    /// n(n+1)/2.
    #[test]
    fn ranks_sum(xs in prop::collection::vec(-100.0f64..100.0, 1..60)) {
        let ranks = average_ranks(&xs);
        let n = xs.len() as f64;
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn quantile_monotone(xs in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let q25 = quantile(&xs, 0.25).unwrap();
        let q50 = quantile(&xs, 0.50).unwrap();
        let q75 = quantile(&xs, 0.75).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q75);
        prop_assert_eq!(median(&xs).unwrap(), q50);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo <= q25 && q75 <= hi);
        prop_assert!(variance(&xs).unwrap() >= 0.0);
        let _ = mean(&xs);
    }

    /// Histograms conserve mass; the ECDF ends at 1.
    #[test]
    fn histogram_mass(xs in prop::collection::vec(0.0f64..1.0, 0..200), bins in 1usize..20) {
        let h = Histogram::new(0.0, 1.0, bins, &xs);
        prop_assert_eq!(h.total() + h.out_of_range, xs.len() as u64);
        let curve = ecdf(&xs);
        if let Some(&(_, last)) = curve.last() {
            prop_assert!((last - 1.0).abs() < 1e-12);
        }
    }

    /// Min-max scaling maps into [0,1] and preserves column order.
    #[test]
    fn minmax_preserves_order(col in prop::collection::vec(-100.0f64..100.0, 2..40)) {
        let rows: Vec<Vec<f64>> = col.iter().map(|&v| vec![v]).collect();
        let scaled = min_max_scale_columns(&rows);
        for w in scaled.windows(2).zip(rows.windows(2)) {
            let (s, r) = w;
            prop_assert_eq!(s[0][0] < s[1][0], r[0][0] < r[1][0]);
            prop_assert!((0.0..=1.0).contains(&s[0][0]));
        }
    }

    /// k-means labels are a partition with k' <= k non-empty clusters, and
    /// inertia never increases with more clusters (same seed family).
    #[test]
    fn kmeans_partition(pts_raw in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 6..40)) {
        let pts: Vec<Vec<f64>> = pts_raw.iter().map(|&(a, b)| vec![a, b]).collect();
        let k2 = kmeans(&pts, 2, 9, 50).unwrap();
        prop_assert_eq!(k2.labels.len(), pts.len());
        prop_assert!(k2.labels.iter().all(|&l| l < 2));
        let k5 = kmeans(&pts, 5.min(pts.len()), 9, 50).unwrap();
        // More clusters cannot be dramatically worse.
        prop_assert!(k5.inertia <= k2.inertia * 1.5 + 1e-9);
    }

    /// Affinity propagation always returns a valid clustering on
    /// well-formed inputs, repeated points included: equal points share an
    /// exemplar, and appended copies leave the clustering of the points
    /// they copy as it was.
    #[test]
    fn affinity_valid(
        pts_raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..25),
        repeats in prop::collection::vec(0usize..1000, 0..20),
    ) {
        let mut pts: Vec<Vec<f64>> = pts_raw.iter().map(|&(a, b)| vec![a, b]).collect();
        let original = affinity_propagation(&pts, &AffinityConfig::default()).unwrap();
        let copies: Vec<Vec<f64>> = repeats.iter().map(|&i| pts[i % pts.len()].clone()).collect();
        pts.extend(copies);
        let c = affinity_propagation(&pts, &AffinityConfig::default()).unwrap();
        prop_assert_eq!(&c.exemplars, &original.exemplars);
        prop_assert_eq!(&c.exemplar_of[..pts_raw.len()], &original.exemplar_of[..]);
        prop_assert!(!c.exemplars.is_empty());
        prop_assert_eq!(c.exemplar_of.len(), pts.len());
        for &e in &c.exemplar_of {
            prop_assert!(c.exemplars.contains(&e));
        }
        // Exemplars map to themselves.
        for &e in &c.exemplars {
            prop_assert_eq!(c.exemplar_of[e], e);
        }
        for (i, p) in pts.iter().enumerate() {
            for (j, q) in pts.iter().enumerate() {
                if p == q {
                    prop_assert_eq!(c.exemplar_of[i], c.exemplar_of[j], "points {} and {}", i, j);
                }
            }
        }
    }

    /// The fused label-score kernel is bit-identical to the generic
    /// bootstrap with a first-seen tally statistic, on four shapes of
    /// label array: one site, one owner, all distinct, skewed.
    #[test]
    fn label_kernel_matches_first_seen_reference(
        shape in 0u32..4,
        xs in prop::collection::vec(0u32..1000, 1..200),
        reps in 1usize..120,
        level in 0.5f64..0.99,
        seed in any::<u64>(),
    ) {
        let (labels, owners): (Vec<u32>, usize) = match shape {
            0 => (vec![xs[0] % 5], 5),
            1 => (vec![3; xs.len()], 4),
            2 => ((0..xs.len() as u32).rev().collect(), xs.len()),
            _ => (xs.iter().map(|&x| 1000 / (x + 1)).collect(), 1001),
        };
        let want = bootstrap_ci(&labels, first_seen_score, reps, level, seed).unwrap();
        let serial = label_score_ci_scratch(
            &labels, owners, reps, level, seed, &mut BootstrapScratch::new(), &mut || false,
        ).unwrap().unwrap();
        prop_assert_eq!(bits(&serial), bits(&want), "{:?} vs {:?}", serial, want);
    }

    /// Bootstrap intervals contain the point estimate for the mean.
    #[test]
    fn bootstrap_contains_point(xs in prop::collection::vec(-10.0f64..10.0, 2..60)) {
        let stat = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        let ci = bootstrap_ci(&xs, stat, 100, 0.99, 3).unwrap();
        prop_assert!(ci.lo <= ci.hi);
        // 99% percentile interval over the resampling distribution should
        // cover the full-sample mean except in pathological tiny samples.
        prop_assert!(ci.lo - 1e-9 <= ci.point + (ci.width() + 1.0) && ci.hi + 1e-9 >= ci.point - (ci.width() + 1.0));
    }
}

/// The centralization score `Σ(a/C)² − 1/C` of a label sample, squared
/// shares summed in the order each owner is first seen.
fn first_seen_score(sample: &[u32]) -> f64 {
    let mut counts: std::collections::HashMap<u32, u64> = Default::default();
    let mut order = Vec::new();
    for &l in sample {
        let a = counts.entry(l).or_insert(0);
        if *a == 0 {
            order.push(l);
        }
        *a += 1;
    }
    let c = sample.len() as f64;
    let hhi: f64 = order
        .iter()
        .map(|l| counts[l] as f64 / c)
        .fold(0.0, |hhi, share| hhi + share * share);
    hhi - 1.0 / c
}

fn bits(ci: &BootstrapCi) -> [u64; 3] {
    [ci.point.to_bits(), ci.lo.to_bits(), ci.hi.to_bits()]
}
