//! k-means++ baseline clustering.
//!
//! The paper uses affinity propagation; k-means is included as the obvious
//! baseline so the choice can be ablated.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster centroid per cluster.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster label per input point.
    pub labels: Vec<usize>,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Runs k-means++ with Lloyd iterations until assignment is stable or
/// `max_iter` sweeps pass. Deterministic for a given `seed`.
///
/// Returns `None` if `k == 0` or there are fewer points than `k`.
pub fn kmeans(points: &[Vec<f64>], k: usize, seed: u64, max_iter: usize) -> Option<KMeansResult> {
    if k == 0 || points.len() < k {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = points[0].len();
    assert!(points.iter().all(|p| p.len() == dim), "ragged points");

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())].clone());
    while centroids.len() < k {
        let dists: Vec<f64> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| sq_dist(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = dists.iter().sum();
        if total == 0.0 {
            // All remaining points coincide with existing centroids.
            centroids.push(points[rng.random_range(0..points.len())].clone());
            continue;
        }
        let mut target = rng.random_range(0.0..total);
        let mut chosen = points.len() - 1;
        for (i, &d) in dists.iter().enumerate() {
            if target < d {
                chosen = i;
                break;
            }
            target -= d;
        }
        centroids.push(points[chosen].clone());
    }

    let mut labels = vec![0usize; points.len()];
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        // Assign.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..k)
                .min_by(|&a, &b| {
                    sq_dist(p, &centroids[a])
                        .partial_cmp(&sq_dist(p, &centroids[b]))
                        .expect("finite distances")
                })
                .expect("k > 0");
            if labels[i] != best {
                labels[i] = best;
                changed = true;
            }
        }
        // Update.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &l) in points.iter().zip(&labels) {
            counts[l] += 1;
            for (s, &v) in sums[l].iter_mut().zip(p) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for s in &mut sums[c] {
                    *s /= counts[c] as f64;
                }
                centroids[c] = sums[c].clone();
            }
            // An empty cluster keeps its old centroid.
        }
        if !changed && it > 0 {
            break;
        }
    }

    let inertia = points
        .iter()
        .zip(&labels)
        .map(|(p, &l)| sq_dist(p, &centroids[l]))
        .sum();
    Some(KMeansResult {
        centroids,
        labels,
        inertia,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_two_blobs() {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            pts.push(vec![5.0 + 0.01 * i as f64, 5.0]);
        }
        let r = kmeans(&pts, 2, 42, 100).unwrap();
        // Points at even indices share a label; odd another.
        let l0 = r.labels[0];
        let l1 = r.labels[1];
        assert_ne!(l0, l1);
        for (i, &l) in r.labels.iter().enumerate() {
            assert_eq!(l, if i % 2 == 0 { l0 } else { l1 });
        }
        assert!(r.inertia < 0.1);
    }

    #[test]
    fn deterministic_per_seed() {
        let pts: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64])
            .collect();
        let a = kmeans(&pts, 3, 7, 50).unwrap();
        let b = kmeans(&pts, 3, 7, 50).unwrap();
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(kmeans(&[], 1, 0, 10).is_none());
        assert!(kmeans(&[vec![1.0]], 2, 0, 10).is_none());
        assert!(kmeans(&[vec![1.0]], 0, 0, 10).is_none());
        // k equal to n: every point its own cluster is permissible.
        let pts = vec![vec![0.0], vec![10.0]];
        let r = kmeans(&pts, 2, 0, 10).unwrap();
        assert_ne!(r.labels[0], r.labels[1]);
    }

    #[test]
    fn identical_points() {
        let pts = vec![vec![1.0, 1.0]; 5];
        let r = kmeans(&pts, 2, 3, 10).unwrap();
        assert_eq!(r.labels.len(), 5);
        assert!(r.inertia < 1e-12);
    }
}
