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
//! The sweeps run over column bands, one per thread, and reproduce the
//! textbook serial loops bit for bit (see [`affinity_propagation`]).

use serde::{Deserialize, Serialize};
use std::sync::{Barrier, RwLock};

/// Configuration for [`affinity_propagation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AffinityConfig {
    /// Damping factor in `[0.5, 1.0)`; larger is more stable but slower.
    pub damping: f64,
    /// Maximum message-passing sweeps.
    pub max_iter: usize,
    /// Stop after the exemplar set is unchanged for this many sweeps.
    pub convergence_iter: usize,
    /// Self-similarity (preference). `None` uses the median pairwise
    /// similarity, the classic default that yields a moderate number of
    /// clusters.
    pub preference: Option<f64>,
    /// Threads for the message-passing sweeps. This is the number of
    /// column bands the matrices are split into, one band per thread — not
    /// a count of rows or columns per thread — capped at one column per
    /// band. `0` picks [`crate::par::default_threads`] from 384 points up
    /// and one band below. Results are byte-identical at any thread count.
    pub threads: usize,
}

impl Default for AffinityConfig {
    fn default() -> Self {
        AffinityConfig {
            damping: 0.7,
            max_iter: 400,
            convergence_iter: 20,
            preference: None,
            threads: 0,
        }
    }
}

/// Below this point count a sweep is cheaper than keeping threads in step
/// (two barrier waits per sweep), so the sweeps run on the calling thread.
/// Serial and parallel runs are byte-identical either way.
const PAR_MIN_POINTS: usize = 384;

/// Top-2 of `a(i,k) + s(i,k)` over a run of `k`, by the textbook scan:
/// strict `>`, so the first index wins a tie.
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

    /// Folds in the top-2 of a run that comes after this one, leaving the
    /// state one scan over both runs would: the best is the max with ties
    /// going left, the second is the larger of the loser's best and the
    /// winner's second. The merge is associative, so bands merged in order
    /// give every row the untiled scan's `(best, second, best_k)`.
    fn merge(&mut self, later: Top2) {
        self.push(later.best, later.best_k);
        // Now `later.second <= later.best <= self.best`: it can only
        // become the second.
        if later.second > self.second {
            self.second = later.second;
        }
    }
}

/// One thread's share of the messages: columns `k0..k0 + w` of the
/// similarities `s`, responsibilities `r` and availabilities `a`, each
/// stored row-major as an `n × w` block.
struct Band {
    k0: usize,
    w: usize,
    s: Vec<f64>,
    r: Vec<f64>,
    a: Vec<f64>,
}

/// What the bands publish to each other once per phase: per band, the
/// row-wise top-2 over its columns and its diagonal evidence
/// `r(k,k) + a(k,k)`. Each slot is written by its own band only, between
/// barriers, so no lock is ever contended by a writer.
struct Exchange {
    barrier: Barrier,
    top2: Vec<RwLock<Vec<Top2>>>,
    diag: Vec<RwLock<Vec<f64>>>,
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
/// Returns `None` for empty input. A single point trivially clusters with
/// itself. Memory is `O(n^2)`; intended for up to a few thousand points
/// (cluster the provider universe, not the website universe).
///
/// The matrices are split into [`AffinityConfig::threads`] column bands,
/// each swept by its own thread (see `sweep_band`). The `Clustering` is
/// byte-identical to the textbook serial loops at any band count.
pub fn affinity_propagation(points: &[Vec<f64>], config: &AffinityConfig) -> Option<Clustering> {
    let n = points.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(Clustering {
            exemplar_of: vec![0],
            exemplars: vec![0],
            iterations: 0,
            converged: true,
        });
    }
    assert!(
        (0.5..1.0).contains(&config.damping),
        "damping must be in [0.5, 1.0)"
    );
    // All-identical input is degenerate for message passing (every pairwise
    // similarity ties); it is trivially one cluster.
    if points.iter().all(|p| p == &points[0]) {
        return Some(Clustering {
            exemplar_of: vec![0; n],
            exemplars: vec![0],
            iterations: 0,
            converged: true,
        });
    }

    let Messages {
        bands,
        diag,
        iterations,
        converged,
    } = propagate(points, config);
    let mut exemplars: Vec<usize> = (0..n).filter(|&k| diag[k] > 0.0).collect();
    if exemplars.is_empty() {
        // Degenerate run (e.g. max_iter too small): fall back to the point
        // with the best self-evidence so every caller gets a valid result.
        let best = (0..n)
            .max_by(|&x, &y| diag[x].partial_cmp(&diag[y]).expect("messages are finite"))
            .expect("n > 0");
        exemplars.push(best);
    }
    // Assign each point to the most similar exemplar; exemplars to themselves.
    let s_at = |i: usize, k: usize| {
        let band = &bands[bands.partition_point(|b| b.k0 + b.w <= k)];
        band.s[i * band.w + k - band.k0]
    };
    let exemplar_of: Vec<usize> = (0..n)
        .map(|i| {
            if exemplars.binary_search(&i).is_ok() {
                return i;
            }
            *exemplars
                .iter()
                .max_by(|&&x, &&y| {
                    s_at(i, x)
                        .partial_cmp(&s_at(i, y))
                        .expect("similarities are finite")
                })
                .expect("at least one exemplar")
        })
        .collect();

    Some(Clustering {
        exemplar_of,
        exemplars,
        iterations,
        converged,
    })
}

/// The state after the last sweep: the bands' messages, the diagonal
/// evidence `r(k,k) + a(k,k)` in point order, and the stop state.
struct Messages {
    bands: Vec<Band>,
    diag: Vec<f64>,
    iterations: usize,
    converged: bool,
}

/// Builds the bands and runs every sweep on `points` (at least two, not
/// all identical).
fn propagate(points: &[Vec<f64>], config: &AffinityConfig) -> Messages {
    let n = points.len();
    // `threads == 0` (auto) stays serial below the threshold; an explicit
    // thread count is always honored, up to one column per band.
    let threads = match config.threads {
        0 if n < PAR_MIN_POINTS => 1,
        0 => crate::par::default_threads(),
        t => t,
    }
    .min(n);
    let mut bands: Vec<Band> = (0..threads)
        .map(|t| {
            let k0 = t * n / threads;
            let w = (t + 1) * n / threads - k0;
            let mut s = vec![0.0f64; n * w];
            for (i, row) in s.chunks_exact_mut(w).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    if i != k0 + j {
                        *v = similarity(&points[i], &points[k0 + j]);
                    }
                }
            }
            Band {
                k0,
                w,
                s,
                r: vec![0.0; n * w],
                a: vec![0.0; n * w],
            }
        })
        .collect();
    let preference = config
        .preference
        .unwrap_or_else(|| median_off_diagonal(&bands));
    for band in &mut bands {
        let (k0, w) = (band.k0, band.w);
        for j in 0..w {
            band.s[(k0 + j) * w + j] = preference;
        }
        // Tiny deterministic jitter to break symmetric ties (standard
        // trick; keeps e.g. two identical points from oscillating), keyed
        // by the row-major index `i*n + k`.
        for (i, row) in band.s.chunks_exact_mut(w).enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                let idx = (i * n + k0 + j) as u64;
                let noise = (idx.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64;
                *v += noise * 1e-12;
            }
        }
    }

    let exchange = Exchange {
        barrier: Barrier::new(threads),
        top2: bands
            .iter()
            .map(|_| RwLock::new(vec![Top2::EMPTY; n]))
            .collect(),
        diag: bands.iter().map(|b| RwLock::new(vec![0.0; b.w])).collect(),
    };
    // One scope per call: band 0 runs on the calling thread, every other
    // band on its own thread for all sweeps. Every band reaches the same
    // stop decision from the same published diagonal, so all return the
    // same `(iterations, converged)`.
    let (iterations, converged) = std::thread::scope(|scope| {
        let (first, rest) = bands.split_first_mut().expect("n >= 2 gives a band");
        for (t, band) in rest.iter_mut().enumerate() {
            let exchange = &exchange;
            scope.spawn(move || sweep_band(t + 1, band, n, config, exchange));
        }
        sweep_band(0, first, n, config, &exchange)
    });

    let diag = exchange
        .diag
        .into_iter()
        .flat_map(|d| d.into_inner().expect("no band panicked"))
        .collect();
    Messages {
        bands,
        diag,
        iterations,
        converged,
    }
}

/// The median off-diagonal similarity (the default preference), by
/// selection rather than a full sort: order statistics are exact values,
/// so it equals the sorted median. The copy is dropped before the sweeps.
fn median_off_diagonal(bands: &[Band]) -> f64 {
    let n = bands.iter().map(|b| b.w).sum::<usize>();
    let mut off_diag: Vec<f64> = Vec::with_capacity(n * (n - 1));
    for band in bands {
        for (i, row) in band.s.chunks_exact(band.w).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if i != band.k0 + j {
                    off_diag.push(v);
                }
            }
        }
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("similarities are finite");
    // `n(n-1)` entries, an even count: the median averages the order
    // statistics at `m/2 - 1` (the largest value below) and `m/2`.
    let m = off_diag.len();
    let (below, &mut upper, _) = off_diag.select_nth_unstable_by(m / 2, cmp);
    let lower = *below.iter().max_by(|a, b| cmp(a, b)).expect("n >= 2");
    (lower + upper) / 2.0
}

/// All message-passing sweeps for band `t`, in step with the other bands.
///
/// Each sweep has two phases, separated by barriers:
///
/// 1. **Partial top-2.** Per row, the top-2 of `a + s` over this band's
///    columns, published for the other bands.
/// 2. **Updates.** Per row, merge the bands' partials in band order (see
///    [`Top2::merge`]), then update this band's responsibilities in
///    ascending row order, folding each `max(r(i,k), 0)` into its column
///    sum in that same order — the textbook left fold — then the
///    availabilities, then publish the diagonal evidence.
///
/// Every float is computed by the same operations, in the same order, as
/// the untiled textbook sweep, so the result does not depend on the band
/// count. After the second barrier every band derives the exemplar set
/// from the published diagonal and makes the same stop decision.
fn sweep_band(
    t: usize,
    band: &mut Band,
    n: usize,
    config: &AffinityConfig,
    exchange: &Exchange,
) -> (usize, bool) {
    let Band { k0, w, s, r, a } = band;
    let (k0, w) = (*k0, *w);
    let lam = config.damping;
    let mut merged = vec![Top2::EMPTY; n];
    let mut pos = vec![0.0f64; w];
    let mut rkk = vec![0.0f64; w];
    let mut stable_sweeps = 0;
    let mut last_exemplars: Vec<usize> = Vec::new();
    let mut exemplars: Vec<usize> = Vec::new();
    for it in 0..config.max_iter {
        {
            let mut out = exchange.top2[t].write().expect("no band panicked");
            for ((top, s_row), a_row) in
                out.iter_mut().zip(s.chunks_exact(w)).zip(a.chunks_exact(w))
            {
                let mut acc = Top2::EMPTY;
                for (j, (&av, &sv)) in a_row.iter().zip(s_row).enumerate() {
                    acc.push(av + sv, k0 + j);
                }
                *top = acc;
            }
        }
        exchange.barrier.wait();

        {
            let parts: Vec<_> = exchange
                .top2
                .iter()
                .map(|p| p.read().expect("no band panicked"))
                .collect();
            for (i, m) in merged.iter_mut().enumerate() {
                let mut acc = parts[0][i];
                for p in &parts[1..] {
                    acc.merge(p[i]);
                }
                *m = acc;
            }
        }
        // Responsibilities: r(i,k) = s(i,k) - max_{k' != k} (a(i,k') + s(i,k')).
        pos.fill(0.0);
        for (i, (r_row, s_row)) in r.chunks_exact_mut(w).zip(s.chunks_exact(w)).enumerate() {
            let Top2 {
                best,
                second,
                best_k,
            } = merged[i];
            // Only the best_k slot subtracts `second`: run the whole row
            // against `best`, then redo that slot from its saved old value.
            let jb = best_k.wrapping_sub(k0);
            let old = r_row.get(jb).copied();
            for (rv, &sv) in r_row.iter_mut().zip(s_row) {
                *rv = lam * *rv + (1.0 - lam) * (sv - best);
            }
            if let Some(old) = old {
                r_row[jb] = lam * old + (1.0 - lam) * (s_row[jb] - second);
            }
            // Column sums of the positive parts skip each column's own
            // diagonal row, split out of the run rather than branched on.
            let d = i.wrapping_sub(k0).min(w);
            for (p, &rv) in pos[..d].iter_mut().zip(&r_row[..d]) {
                *p += rv.max(0.0);
            }
            if d < w {
                for (p, &rv) in pos[d + 1..].iter_mut().zip(&r_row[d + 1..]) {
                    *p += rv.max(0.0);
                }
            }
        }
        for (j, v) in rkk.iter_mut().enumerate() {
            *v = r[(k0 + j) * w + j];
        }
        // Availabilities: a(i,k) = min(0, r(k,k) + sum_{i' != i,k} max(0, r(i',k)))
        // off the diagonal, and a(k,k) = sum_{i' != k} max(0, r(i',k)).
        for (i, (a_row, r_row)) in a.chunks_exact_mut(w).zip(r.chunks_exact(w)).enumerate() {
            let d = i.wrapping_sub(k0);
            let old = a_row.get(d).copied();
            for (((av, &rv), &rk), &p) in a_row.iter_mut().zip(r_row).zip(&rkk).zip(&pos) {
                let new_a = (rk + (p - rv.max(0.0))).min(0.0);
                *av = lam * *av + (1.0 - lam) * new_a;
            }
            if let Some(old) = old {
                a_row[d] = lam * old + (1.0 - lam) * pos[d];
            }
        }
        {
            let mut out = exchange.diag[t].write().expect("no band panicked");
            for (j, v) in out.iter_mut().enumerate() {
                *v = r[(k0 + j) * w + j] + a[(k0 + j) * w + j];
            }
        }
        exchange.barrier.wait();

        exemplars.clear();
        let mut k = 0;
        for d in &exchange.diag {
            for &v in d.read().expect("no band panicked").iter() {
                if v > 0.0 {
                    exemplars.push(k);
                }
                k += 1;
            }
        }
        if !exemplars.is_empty() && exemplars == last_exemplars {
            stable_sweeps += 1;
            if stable_sweeps >= config.convergence_iter {
                return (it + 1, true);
            }
        } else {
            stable_sweeps = 0;
            std::mem::swap(&mut last_exemplars, &mut exemplars);
        }
    }
    (config.max_iter, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook untiled affinity propagation on one row-major `n × n`
    /// similarity matrix, with a sorted median and one serial sweep per
    /// iteration: the reference the band sweep must reproduce bit for bit.
    /// Returns the clustering and the final `r` and `a` bit patterns.
    fn untiled_reference(
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

    /// One message matrix as row-major `n × n` bit patterns, gathered from
    /// the bands.
    fn dense_bits(m: &Messages, pick: fn(&Band) -> &[f64]) -> Vec<u64> {
        let n = m.diag.len();
        let mut out = vec![0; n * n];
        for band in &m.bands {
            for (i, row) in pick(band).chunks_exact(band.w).enumerate() {
                for (j, v) in row.iter().enumerate() {
                    out[i * n + band.k0 + j] = v.to_bits();
                }
            }
        }
        out
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
        assert_eq!(c.num_clusters(), 1, "{:?}", c.exemplars);
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
    fn band_sweep_matches_untiled_reference() {
        // The whole Clustering, and every final message bit, must equal the
        // textbook reference at every point count — including sizes
        // straddling band boundaries for three bands — serially and across
        // band counts, on random and duplicate-heavy inputs. `threads: 0`
        // is the auto rule, which goes parallel at n = 400.
        let sizes = [2usize, 3, 17, 29, 30, 31, 63, 64, 65, 97, 98, 99, 150, 400];
        for n in sizes {
            for pts in [synthetic_points(n), duplicate_heavy_points(n)] {
                if pts.iter().all(|p| p == &pts[0]) {
                    continue;
                }
                let (reference, r, a) = untiled_reference(&pts, &AffinityConfig::default());
                for threads in [0usize, 1, 2, 3, 8] {
                    let config = AffinityConfig {
                        threads,
                        ..AffinityConfig::default()
                    };
                    let band = affinity_propagation(&pts, &config).unwrap();
                    assert_eq!(reference, band, "n={n} threads={threads}");
                    let messages = propagate(&pts, &config);
                    assert!(
                        dense_bits(&messages, |b| &b.r) == r,
                        "r: n={n} threads={threads}"
                    );
                    assert!(
                        dense_bits(&messages, |b| &b.a) == a,
                        "a: n={n} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn band_sweep_matches_reference_off_the_defaults() {
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
            let (reference, ..) = untiled_reference(&pts, &config);
            for threads in [1usize, 3] {
                let band = affinity_propagation(
                    &pts,
                    &AffinityConfig {
                        threads,
                        ..config.clone()
                    },
                )
                .unwrap();
                assert_eq!(reference, band, "{config:?} threads={threads}");
            }
        }
    }

    #[test]
    fn top2_merge_equals_one_scan() {
        // Exact ties, a tie for best across the split, and signed zeros.
        let runs: [&[f64]; 4] = [
            &[1.0, 3.0, 3.0, 2.0, 3.0, 0.5],
            &[0.0, -0.0, -1.0, 0.0, -0.0],
            &[5.0, 1.0, 1.0, 5.0, 1.0, 5.0],
            &[-2.0, -3.0, -2.0, -3.0],
        ];
        for run in runs {
            let mut whole = Top2::EMPTY;
            for (k, &v) in run.iter().enumerate() {
                whole.push(v, k);
            }
            for split in 0..=run.len() {
                let mut left = Top2::EMPTY;
                let mut right = Top2::EMPTY;
                for (k, &v) in run.iter().enumerate() {
                    if k < split { &mut left } else { &mut right }.push(v, k);
                }
                left.merge(right);
                assert_eq!(
                    left.best.to_bits(),
                    whole.best.to_bits(),
                    "{run:?} @{split}"
                );
                assert_eq!(
                    left.second.to_bits(),
                    whole.second.to_bits(),
                    "{run:?} @{split}"
                );
                assert_eq!(left.best_k, whole.best_k, "{run:?} @{split}");
            }
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
