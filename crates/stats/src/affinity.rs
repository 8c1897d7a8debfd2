//! Affinity propagation clustering (Frey & Dueck, *Science* 2007).
//!
//! The paper clusters providers by (min-max scaled) usage and endemicity
//! ratio using affinity propagation (§5.2), which selects exemplars by
//! passing "responsibility" and "availability" messages between points. It
//! does not require choosing the number of clusters up front — the
//! *preference* (self-similarity) controls cluster granularity.
//!
//! This implementation uses the standard negative squared Euclidean
//! similarity, median preference by default, damped message updates, and
//! stops when the exemplar set is stable for `convergence_iter` sweeps.
//! Identical points are clustered once: message passing runs over the
//! distinct points only, and every duplicate joins its representative's
//! cluster (see [`affinity_propagation`]). The sweeps run on the calling
//! thread and reproduce the textbook loops bit for bit.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration for [`affinity_propagation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AffinityConfig {
    /// Damping factor in `[0.5, 1.0)`; larger is more stable but slower.
    pub damping: f64,
    /// Maximum message-passing sweeps.
    pub max_iter: usize,
    /// Stop after the exemplar set is unchanged for this many sweeps.
    pub convergence_iter: usize,
    /// Self-similarity (preference). `None` uses the median similarity
    /// over pairs of distinct points, the classic default that yields a
    /// moderate number of clusters.
    pub preference: Option<f64>,
}

impl Default for AffinityConfig {
    fn default() -> Self {
        AffinityConfig {
            damping: 0.7,
            max_iter: 400,
            convergence_iter: 20,
            preference: None,
        }
    }
}

/// Top-2 of `a(i,k) + s(i,k)` over a row, by the textbook scan: strict
/// `>`, so the first index wins a tie.
#[derive(Debug, Clone, Copy)]
struct Top2 {
    best: f64,
    second: f64,
    best_k: usize,
}

impl Top2 {
    const EMPTY: Top2 = Top2 {
        best: f64::NEG_INFINITY,
        second: f64::NEG_INFINITY,
        best_k: usize::MAX,
    };

    fn push(&mut self, v: f64, k: usize) {
        if v > self.best {
            self.second = self.best;
            self.best = v;
            self.best_k = k;
        } else if v > self.second {
            self.second = v;
        }
    }
}

/// Result of a clustering run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clustering {
    /// For each input point, the index of its exemplar point.
    pub exemplar_of: Vec<usize>,
    /// The distinct exemplar indices (cluster centers), ascending.
    pub exemplars: Vec<usize>,
    /// Sweeps executed before convergence (or `max_iter`).
    pub iterations: usize,
    /// Whether the exemplar set converged before `max_iter`.
    pub converged: bool,
}

impl Clustering {
    /// Number of clusters found.
    pub fn num_clusters(&self) -> usize {
        self.exemplars.len()
    }

    /// Cluster label (0-based, dense) per point.
    pub fn labels(&self) -> Vec<usize> {
        self.exemplar_of
            .iter()
            .map(|e| {
                self.exemplars
                    .binary_search(e)
                    .expect("exemplar_of entries are exemplars")
            })
            .collect()
    }

    /// Members of each cluster, indexed like [`Clustering::exemplars`].
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.exemplars.len()];
        for (i, label) in self.labels().into_iter().enumerate() {
            out[label].push(i);
        }
        out
    }
}

/// Negative squared Euclidean distance, the standard AP similarity.
fn similarity(a: &[f64], b: &[f64]) -> f64 {
    -a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
}

/// Clusters `points` (row-major feature vectors) with affinity propagation.
///
/// Returns `None` for empty input. Memory is `O(d^2)` in the number `d`
/// of distinct points; intended for up to a few thousand of them (cluster
/// the provider universe, not the website universe).
///
/// Identical points all tie with each other, the textbook degeneracy of
/// message passing, so only the distinct points are clustered: each group
/// of equal points is represented by its first occurrence in input order,
/// and every duplicate gets its representative's exemplar. The default
/// preference is therefore the median over pairs of distinct points. A
/// single distinct point is trivially one cluster.
pub fn affinity_propagation(points: &[Vec<f64>], config: &AffinityConfig) -> Option<Clustering> {
    if points.is_empty() {
        return None;
    }
    assert!(
        (0.5..1.0).contains(&config.damping),
        "damping must be in [0.5, 1.0)"
    );
    let (reps, group_of) = distinct(points);
    let distinct: Vec<Vec<f64>> = reps.iter().map(|&i| points[i].clone()).collect();
    let c = if distinct.len() == 1 {
        Clustering {
            exemplar_of: vec![0],
            exemplars: vec![0],
            iterations: 0,
            converged: true,
        }
    } else {
        cluster(&distinct, config)
    };
    // Distinct point `j` is input point `reps[j]`; `reps` ascends, so the
    // exemplars stay sorted.
    Some(Clustering {
        exemplar_of: group_of.iter().map(|&g| reps[c.exemplar_of[g]]).collect(),
        exemplars: c.exemplars.iter().map(|&e| reps[e]).collect(),
        iterations: c.iterations,
        converged: c.converged,
    })
}

/// Groups equal points: the first occurrence of each distinct point, in
/// input order, and per point the index of its group in that list.
fn distinct(points: &[Vec<f64>]) -> (Vec<usize>, Vec<usize>) {
    let mut group_by_key: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut reps = Vec::new();
    let group_of = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            // `+ 0.0` folds -0.0 into 0.0, so equal values share a key.
            let key = p.iter().map(|v| (v + 0.0).to_bits()).collect();
            *group_by_key.entry(key).or_insert_with(|| {
                reps.push(i);
                reps.len() - 1
            })
        })
        .collect();
    (reps, group_of)
}

/// Affinity propagation proper on at least two points, not all identical.
fn cluster(points: &[Vec<f64>], config: &AffinityConfig) -> Clustering {
    let n = points.len();
    let m = propagate(points, config);
    let evidence = |k: usize| m.r[k * n + k] + m.a[k * n + k];
    let mut exemplars: Vec<usize> = (0..n).filter(|&k| evidence(k) > 0.0).collect();
    if exemplars.is_empty() {
        // Degenerate run (e.g. max_iter too small): fall back to the point
        // with the best self-evidence so every caller gets a valid result.
        let best = (0..n)
            .max_by(|&x, &y| {
                evidence(x)
                    .partial_cmp(&evidence(y))
                    .expect("messages are finite")
            })
            .expect("n > 0");
        exemplars.push(best);
    }
    // Assign each point to the most similar exemplar; exemplars to themselves.
    let exemplar_of: Vec<usize> = (0..n)
        .map(|i| {
            if exemplars.binary_search(&i).is_ok() {
                return i;
            }
            let s_row = &m.s[i * n..(i + 1) * n];
            *exemplars
                .iter()
                .max_by(|&&x, &&y| {
                    s_row[x]
                        .partial_cmp(&s_row[y])
                        .expect("similarities are finite")
                })
                .expect("at least one exemplar")
        })
        .collect();

    Clustering {
        exemplar_of,
        exemplars,
        iterations: m.iterations,
        converged: m.converged,
    }
}

/// The state after the last sweep: the similarities, responsibilities and
/// availabilities, each a row-major `n × n` matrix, and the stop state.
struct Messages {
    s: Vec<f64>,
    r: Vec<f64>,
    a: Vec<f64>,
    iterations: usize,
    converged: bool,
}

/// Builds the similarity matrix and runs every sweep on `points` (at
/// least two, not all identical).
///
/// Each sweep scans the rows in ascending order. Per row it takes the
/// top-2 of `a + s`, updates the responsibilities and folds each
/// `max(r(i,k), 0)` into its column sum in that same row order — the
/// textbook left fold — then updates the availabilities row by row. Every
/// float is computed by the same operations, in the same order, as the
/// textbook column loops, so the result equals them bit for bit.
fn propagate(points: &[Vec<f64>], config: &AffinityConfig) -> Messages {
    let n = points.len();
    let mut s = vec![0.0f64; n * n];
    for (i, row) in s.chunks_exact_mut(n).enumerate() {
        for (k, v) in row.iter_mut().enumerate() {
            if i != k {
                *v = similarity(&points[i], &points[k]);
            }
        }
    }
    let preference = config
        .preference
        .unwrap_or_else(|| median_off_diagonal(&s, n));
    for k in 0..n {
        s[k * n + k] = preference;
    }
    // Tiny deterministic jitter to break symmetric ties (standard trick),
    // keyed by the row-major index `i*n + k`.
    for (idx, v) in s.iter_mut().enumerate() {
        let noise = ((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64;
        *v += noise * 1e-12;
    }

    let lam = config.damping;
    let mut r = vec![0.0f64; n * n];
    let mut a = vec![0.0f64; n * n];
    let mut pos = vec![0.0f64; n];
    let mut rkk = vec![0.0f64; n];
    let mut stable_sweeps = 0;
    let mut last_exemplars: Vec<usize> = Vec::new();
    let mut exemplars: Vec<usize> = Vec::new();
    let (mut iterations, mut converged) = (config.max_iter, false);
    for it in 0..config.max_iter {
        // Responsibilities: r(i,k) = s(i,k) - max_{k' != k} (a(i,k') + s(i,k')).
        pos.fill(0.0);
        for (i, ((r_row, s_row), a_row)) in r
            .chunks_exact_mut(n)
            .zip(s.chunks_exact(n))
            .zip(a.chunks_exact(n))
            .enumerate()
        {
            let mut top = Top2::EMPTY;
            for (k, (&av, &sv)) in a_row.iter().zip(s_row).enumerate() {
                top.push(av + sv, k);
            }
            // Only the best_k slot subtracts `second`: run the whole row
            // against `best`, then redo that slot from its saved old value.
            let kb = top.best_k;
            let old = r_row[kb];
            for (rv, &sv) in r_row.iter_mut().zip(s_row) {
                *rv = lam * *rv + (1.0 - lam) * (sv - top.best);
            }
            r_row[kb] = lam * old + (1.0 - lam) * (s_row[kb] - top.second);
            // Column sums of the positive parts skip each column's own
            // diagonal row, split out of the run rather than branched on.
            for (p, &rv) in pos[..i].iter_mut().zip(&r_row[..i]) {
                *p += rv.max(0.0);
            }
            for (p, &rv) in pos[i + 1..].iter_mut().zip(&r_row[i + 1..]) {
                *p += rv.max(0.0);
            }
        }
        for (k, v) in rkk.iter_mut().enumerate() {
            *v = r[k * n + k];
        }
        // Availabilities: a(i,k) = min(0, r(k,k) + sum_{i' != i,k} max(0, r(i',k)))
        // off the diagonal, and a(k,k) = sum_{i' != k} max(0, r(i',k)).
        for (i, (a_row, r_row)) in a.chunks_exact_mut(n).zip(r.chunks_exact(n)).enumerate() {
            let old = a_row[i];
            for (((av, &rv), &rk), &p) in a_row.iter_mut().zip(r_row).zip(&rkk).zip(&pos) {
                let new_a = (rk + (p - rv.max(0.0))).min(0.0);
                *av = lam * *av + (1.0 - lam) * new_a;
            }
            a_row[i] = lam * old + (1.0 - lam) * pos[i];
        }

        exemplars.clear();
        exemplars.extend((0..n).filter(|&k| r[k * n + k] + a[k * n + k] > 0.0));
        if !exemplars.is_empty() && exemplars == last_exemplars {
            stable_sweeps += 1;
            if stable_sweeps >= config.convergence_iter {
                (iterations, converged) = (it + 1, true);
                break;
            }
        } else {
            stable_sweeps = 0;
            std::mem::swap(&mut last_exemplars, &mut exemplars);
        }
    }
    Messages {
        s,
        r,
        a,
        iterations,
        converged,
    }
}

/// The median off-diagonal similarity (the default preference), by
/// selection rather than a full sort: order statistics are exact values,
/// so it equals the sorted median. The copy is dropped before the sweeps.
fn median_off_diagonal(s: &[f64], n: usize) -> f64 {
    let mut off_diag: Vec<f64> = Vec::with_capacity(n * (n - 1));
    for (i, row) in s.chunks_exact(n).enumerate() {
        off_diag.extend_from_slice(&row[..i]);
        off_diag.extend_from_slice(&row[i + 1..]);
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("similarities are finite");
    // `n(n-1)` entries, an even count: the median averages the order
    // statistics at `m/2 - 1` (the largest value below) and `m/2`.
    let m = off_diag.len();
    let (below, &mut upper, _) = off_diag.select_nth_unstable_by(m / 2, cmp);
    let lower = *below.iter().max_by(|a, b| cmp(a, b)).expect("n >= 2");
    (lower + upper) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook affinity propagation on one row-major `n × n`
    /// similarity matrix, with a sorted median and column-by-column
    /// updates: the reference the row-scan sweep must reproduce bit for
    /// bit. Returns the clustering and the final `r` and `a` bit patterns.
    fn textbook_reference(
        points: &[Vec<f64>],
        config: &AffinityConfig,
    ) -> (Clustering, Vec<u64>, Vec<u64>) {
        let n = points.len();
        assert!(n >= 2 && points.iter().any(|p| p != &points[0]));
        let mut s = vec![0.0f64; n * n];
        let mut off_diag = Vec::new();
        for i in 0..n {
            for k in 0..n {
                if i != k {
                    s[i * n + k] = similarity(&points[i], &points[k]);
                    off_diag.push(s[i * n + k]);
                }
            }
        }
        off_diag.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let m = off_diag.len();
        let preference = config
            .preference
            .unwrap_or((off_diag[(m - 1) / 2] + off_diag[m / 2]) / 2.0);
        for k in 0..n {
            s[k * n + k] = preference;
        }
        for (idx, v) in s.iter_mut().enumerate() {
            let noise = ((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64;
            *v += noise * 1e-12;
        }

        let lam = config.damping;
        let mut r = vec![0.0f64; n * n];
        let mut a = vec![0.0f64; n * n];
        let evidence = |r: &[f64], a: &[f64]| -> Vec<usize> {
            (0..n)
                .filter(|&k| r[k * n + k] + a[k * n + k] > 0.0)
                .collect()
        };
        let (mut stable_sweeps, mut last_exemplars) = (0, Vec::new());
        let (mut iterations, mut converged) = (0, false);
        for it in 0..config.max_iter {
            iterations = it + 1;
            for i in 0..n {
                let (mut best, mut second, mut best_k) =
                    (f64::NEG_INFINITY, f64::NEG_INFINITY, usize::MAX);
                for k in 0..n {
                    let v = a[i * n + k] + s[i * n + k];
                    if v > best {
                        second = best;
                        best = v;
                        best_k = k;
                    } else if v > second {
                        second = v;
                    }
                }
                for k in 0..n {
                    let max_other = if k == best_k { second } else { best };
                    let new_r = s[i * n + k] - max_other;
                    r[i * n + k] = lam * r[i * n + k] + (1.0 - lam) * new_r;
                }
            }
            for k in 0..n {
                let mut pos_sum = 0.0;
                for i in 0..n {
                    if i != k {
                        pos_sum += r[i * n + k].max(0.0);
                    }
                }
                let rkk = r[k * n + k];
                for i in 0..n {
                    let new_a = if i == k {
                        pos_sum
                    } else {
                        (rkk + (pos_sum - r[i * n + k].max(0.0))).min(0.0)
                    };
                    a[i * n + k] = lam * a[i * n + k] + (1.0 - lam) * new_a;
                }
            }
            let exemplars = evidence(&r, &a);
            if !exemplars.is_empty() && exemplars == last_exemplars {
                stable_sweeps += 1;
                if stable_sweeps >= config.convergence_iter {
                    converged = true;
                    break;
                }
            } else {
                stable_sweeps = 0;
                last_exemplars = exemplars;
            }
        }

        let mut exemplars = evidence(&r, &a);
        if exemplars.is_empty() {
            let d = |k: usize| r[k * n + k] + a[k * n + k];
            exemplars.push(
                (0..n)
                    .max_by(|&x, &y| d(x).partial_cmp(&d(y)).unwrap())
                    .unwrap(),
            );
        }
        let exemplar_of = (0..n)
            .map(|i| {
                if exemplars.contains(&i) {
                    return i;
                }
                *exemplars
                    .iter()
                    .max_by(|&&x, &&y| s[i * n + x].partial_cmp(&s[i * n + y]).unwrap())
                    .unwrap()
            })
            .collect();
        let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect();
        let clustering = Clustering {
            exemplar_of,
            exemplars,
            iterations,
            converged,
        };
        (clustering, bits(&r), bits(&a))
    }

    fn two_blob_points() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..8 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0 + 0.013 * i as f64]);
        }
        for i in 0..8 {
            pts.push(vec![1.0 + 0.01 * i as f64, 1.0 - 0.008 * i as f64]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blob_points();
        let c = affinity_propagation(&pts, &AffinityConfig::default()).unwrap();
        assert!(c.converged, "should converge on well-separated blobs");
        assert_eq!(c.num_clusters(), 2, "exemplars: {:?}", c.exemplars);
        let labels = c.labels();
        // All of the first blob shares a label; all of the second shares the
        // other.
        assert!(labels[..8].iter().all(|&l| l == labels[0]));
        assert!(labels[8..].iter().all(|&l| l == labels[8]));
        assert_ne!(labels[0], labels[8]);
    }

    #[test]
    fn duplicates_cluster_like_their_distinct_points() {
        // Point `i` appears `1 + i % 3` times, in interleaved rounds: the
        // first round is the distinct points in order, so the multiset's
        // representatives keep their indices.
        let pts = two_blob_points();
        let mut multiset = Vec::new();
        let mut origin = Vec::new();
        for round in 0..3 {
            for (i, p) in pts.iter().enumerate() {
                if round <= i % 3 {
                    multiset.push(p.clone());
                    origin.push(i);
                }
            }
        }
        let config = AffinityConfig::default();
        let once = affinity_propagation(&pts, &config).unwrap();
        let many = affinity_propagation(&multiset, &config).unwrap();
        assert_eq!(many.exemplars, once.exemplars);
        assert_eq!(
            (many.iterations, many.converged),
            (once.iterations, once.converged)
        );
        for (j, &i) in origin.iter().enumerate() {
            assert_eq!(many.exemplar_of[j], once.exemplar_of[i], "point {j}");
            assert_eq!(many.exemplar_of[j], many.exemplar_of[i], "point {j}");
        }
    }

    #[test]
    fn single_point() {
        let c = affinity_propagation(&[vec![1.0, 2.0]], &AffinityConfig::default()).unwrap();
        assert_eq!(c.exemplars, vec![0]);
        assert_eq!(c.exemplar_of, vec![0]);
        assert!(c.converged);
    }

    #[test]
    fn empty_input() {
        assert!(affinity_propagation(&[], &AffinityConfig::default()).is_none());
    }

    #[test]
    fn identical_points_form_one_cluster() {
        let pts = vec![vec![0.5, 0.5]; 6];
        let c = affinity_propagation(&pts, &AffinityConfig::default()).unwrap();
        assert_eq!(c.exemplars, vec![0]);
        assert_eq!(c.exemplar_of, vec![0; 6]);
        assert_eq!((c.iterations, c.converged), (0, true));
    }

    #[test]
    fn low_preference_fewer_clusters() {
        let pts = two_blob_points();
        let tight = affinity_propagation(
            &pts,
            &AffinityConfig {
                preference: Some(-100.0),
                ..AffinityConfig::default()
            },
        )
        .unwrap();
        let loose = affinity_propagation(
            &pts,
            &AffinityConfig {
                preference: Some(-0.0001),
                ..AffinityConfig::default()
            },
        )
        .unwrap();
        assert!(tight.num_clusters() <= loose.num_clusters());
        assert!(loose.num_clusters() >= 2);
    }

    #[test]
    fn members_partition_points() {
        let pts = two_blob_points();
        let c = affinity_propagation(&pts, &AffinityConfig::default()).unwrap();
        let members = c.members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, pts.len());
        // Each exemplar belongs to its own cluster.
        for (label, &ex) in c.exemplars.iter().enumerate() {
            assert!(members[label].contains(&ex));
        }
    }

    /// Deterministic pseudo-random points (no RNG dependency in tests):
    /// xorshift over the index, mapped into [0, 1)³.
    fn synthetic_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut next = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 11) as f64 / (1u64 << 53) as f64
                };
                vec![next(), next(), next()]
            })
            .collect()
    }

    /// Points on a coarse grid: most points repeat, so many pairwise
    /// similarities tie exactly (the provider features are like this too).
    fn duplicate_heavy_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![((i * 7) % 5) as f64 / 4.0, ((i * 3) % 4) as f64 / 3.0])
            .collect()
    }

    #[test]
    fn one_block_sweep_matches_textbook_reference() {
        // The whole Clustering, and every final message bit, must equal the
        // textbook reference at every point count, on random and
        // duplicate-heavy inputs (the sweep itself does not deduplicate).
        let sizes = [2usize, 3, 17, 29, 30, 31, 63, 64, 65, 97, 98, 99, 150, 400];
        let config = AffinityConfig::default();
        for n in sizes {
            for pts in [synthetic_points(n), duplicate_heavy_points(n)] {
                if pts.iter().all(|p| p == &pts[0]) {
                    continue;
                }
                let (reference, r, a) = textbook_reference(&pts, &config);
                assert_eq!(reference, cluster(&pts, &config), "n={n}");
                let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let messages = propagate(&pts, &config);
                assert!(bits(&messages.r) == r, "r: n={n}");
                assert!(bits(&messages.a) == a, "a: n={n}");
            }
            // All-distinct input goes to the sweep as it is.
            let pts = synthetic_points(n);
            assert_eq!(
                textbook_reference(&pts, &config).0,
                affinity_propagation(&pts, &config).unwrap(),
                "n={n}"
            );
        }
    }

    #[test]
    fn one_block_sweep_matches_reference_off_the_defaults() {
        // An explicit preference, a sweep cap that stops before
        // convergence, and no sweeps at all (the fallback exemplar).
        let pts = synthetic_points(65);
        for config in [
            AffinityConfig {
                preference: Some(-0.05),
                ..AffinityConfig::default()
            },
            AffinityConfig {
                max_iter: 7,
                ..AffinityConfig::default()
            },
            AffinityConfig {
                max_iter: 0,
                ..AffinityConfig::default()
            },
        ] {
            let (reference, ..) = textbook_reference(&pts, &config);
            let clustering = affinity_propagation(&pts, &config).unwrap();
            assert_eq!(reference, clustering, "{config:?}");
        }
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn damping_validated() {
        let _ = affinity_propagation(
            &[vec![0.0], vec![1.0]],
            &AffinityConfig {
                damping: 1.5,
                ..AffinityConfig::default()
            },
        );
    }
}
