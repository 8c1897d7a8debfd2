//! Seeded bootstrap confidence intervals.
//!
//! The paper reports point estimates; a toolkit release should also say
//! how stable they are under toplist resampling. [`bootstrap_ci`]
//! resamples observations with replacement and returns a percentile
//! interval for any statistic. The per-country centralization score has
//! its own fused kernel, [`label_score_ci_scratch`]: each replicate draws
//! an index, reads the site's dense owner label and bumps that owner's
//! count in one pass, with no resample buffer at all, serially on the
//! calling thread and abortable. The analysis context's `score_ci` family,
//! the report's Tab 5 and the served `/v1/ci` and `/v1/badge` run on it;
//! callers that need throughput run many intervals in parallel.
//!
//! Replicates are independent by construction: replicate `r` draws from its
//! own index stream seeded by `mix(seed, r)`, so the interval is identical
//! whether replicates run sequentially or spread across threads, and the
//! kernel draws exactly the indices [`bootstrap_ci`] draws.
//!
//! Index draws come from a SplitMix64 stream, not a cryptographic RNG:
//! resampling needs seeded reproducibility and throughput (a suite run
//! draws tens of millions of indices), and SplitMix64 passes the
//! statistical bar for percentile intervals by a wide margin.

use crate::par::par_map_indices;
use serde::{Deserialize, Serialize};

/// A percentile bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BootstrapCi {
    /// The statistic on the original sample.
    pub point: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Bootstrap replicates used.
    pub replicates: usize,
}

impl BootstrapCi {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a value falls inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }
}

/// Decorrelates per-replicate seeds (SplitMix64 finalizer).
fn replicate_seed(seed: u64, r: u64) -> u64 {
    let mut x = seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One replicate's index stream: SplitMix64 outputs mapped to `0..n` by
/// the multiply-shift bound. The mapping's bias is under `n / 2^64` per
/// draw — unmeasurable at bootstrap sample sizes — and it avoids the
/// rejection loop a modulo-free uniform range needs.
struct IndexStream {
    state: u64,
}

impl IndexStream {
    fn new(seed: u64) -> Self {
        IndexStream { state: seed }
    }

    fn next_below(&mut self, n: usize) -> u32 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        ((x as u128 * n as u128) >> 64) as u32
    }
}

fn valid(n_items: usize, replicates: usize, level: f64) -> bool {
    n_items > 0 && replicates > 0 && level > 0.0 && level < 1.0
}

/// Number of replicates to hand each parallel worker of [`bootstrap_ci`]
/// at a time, and the abort-poll interval of [`label_score_ci_scratch`].
/// Large enough to amortize scheduling, small enough to balance uneven
/// statistic costs.
const REPLICATE_CHUNK: usize = 32;

/// Percentile bootstrap for `statistic` over `items`.
///
/// * `level` — confidence level in `(0, 1)`, e.g. `0.95`.
/// * `replicates` — number of resamples (hundreds suffice for reporting).
///
/// Deterministic for a given `seed`, independent of thread count. Returns
/// `None` for an empty sample, a degenerate level, or zero replicates.
pub fn bootstrap_ci<T: Clone + Sync, F: Fn(&[T]) -> f64 + Sync>(
    items: &[T],
    statistic: F,
    replicates: usize,
    level: f64,
    seed: u64,
) -> Option<BootstrapCi> {
    if !valid(items.len(), replicates, level) {
        return None;
    }
    let point = statistic(items);
    let n = items.len();
    let chunks = replicates.div_ceil(REPLICATE_CHUNK);
    let threads = crate::par::default_threads().min(chunks);
    let mut stats: Vec<f64> = par_map_indices(chunks, threads, |c| {
        // One resample buffer per chunk, reused across its replicates.
        let mut resample: Vec<T> = Vec::with_capacity(n);
        let lo = c * REPLICATE_CHUNK;
        let hi = (lo + REPLICATE_CHUNK).min(replicates);
        (lo..hi)
            .map(|r| {
                let mut stream = IndexStream::new(replicate_seed(seed, r as u64));
                resample.clear();
                resample.extend((0..n).map(|_| items[stream.next_below(n) as usize].clone()));
                statistic(&resample)
            })
            .collect::<Vec<f64>>()
    })
    .into_iter()
    .flatten()
    .collect();
    Some(percentile_interval(point, &mut stats, level))
}

/// Reusable scratch for the label-score bootstrap: a dense count per
/// owner, the first-seen owner list of one replicate, and the replicate
/// statistics. A CI loop that reuses one scratch allocates nothing after
/// its first call.
#[derive(Debug, Default)]
pub struct BootstrapScratch {
    counts: Vec<u32>,
    first: Vec<u32>,
    stats: Vec<f64>,
}

impl BootstrapScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the buffers for `n` draws over `n_owners` labels. `counts`
    /// is all zeros between calls of [`BootstrapScratch::label_score`].
    fn fit(&mut self, n: usize, n_owners: usize) {
        if self.counts.len() < n_owners {
            self.counts.resize(n_owners, 0);
        }
        if self.first.len() < n {
            self.first.resize(n, 0);
        }
    }

    /// The label-tally kernel: the centralization score `Σ(a/C)² − 1/C`
    /// of the `n` labels `label(0), …, label(n − 1)`, in one pass.
    ///
    /// Each label bumps its dense count; its slot in the first-seen list
    /// is written unconditionally and kept by advancing the list only when
    /// the count was zero, so the loop has no data-dependent branch. The
    /// squared shares are then summed in first-seen order, zeroing each
    /// count on the way out so the row is clean for the next call without
    /// a memset. The summation order is the statistic's definition: the
    /// served and reported intervals are pinned to its bits.
    fn label_score(&mut self, n: usize, mut label: impl FnMut(usize) -> u32) -> f64 {
        let (counts, first) = (&mut self.counts, &mut self.first);
        let mut seen = 0;
        for i in 0..n {
            let l = label(i);
            let a = counts[l as usize];
            first[seen] = l;
            seen += (a == 0) as usize;
            counts[l as usize] = a + 1;
        }
        let c = n as f64;
        let mut hhi = 0.0;
        for &l in &first[..seen] {
            let share = counts[l as usize] as f64 / c;
            hhi += share * share;
            counts[l as usize] = 0;
        }
        hhi - 1.0 / c
    }

    /// Runs replicates `reps` of the label-score bootstrap into `stats`,
    /// polling `should_abort` before every [`REPLICATE_CHUNK`]-th
    /// replicate after the first of the range.
    fn replicates(
        &mut self,
        labels: &[u32],
        seed: u64,
        reps: std::ops::Range<usize>,
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<(), BootstrapAborted> {
        let n = labels.len();
        for r in reps.clone() {
            if r > reps.start && (r - reps.start).is_multiple_of(REPLICATE_CHUNK) && should_abort()
            {
                return Err(BootstrapAborted);
            }
            let mut stream = IndexStream::new(replicate_seed(seed, r as u64));
            let score = self.label_score(n, |_| labels[stream.next_below(n) as usize]);
            self.stats.push(score);
        }
        Ok(())
    }
}

/// The bootstrap ran out of budget before finishing its replicates.
///
/// Carries no partial interval on purpose: a truncated replicate set is a
/// *different* (narrower-tailed) estimator, so callers either get the
/// exact seeded interval or nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapAborted;

/// Percentile bootstrap of the centralization score `Σ(a/C)² − 1/C` over a
/// dense label array: `labels[i]` is the owner of site `i`, below
/// `n_owners`. Runs serially on the calling thread with caller-provided
/// scratch, polling `should_abort` once before the first replicate and
/// then every `REPLICATE_CHUNK` replicates; it bails with
/// [`BootstrapAborted`] instead of running to completion.
///
/// Replicate `r` draws the same index stream as [`bootstrap_ci`]'s, and
/// the score sums squared shares in first-seen order, so the interval is
/// bit-identical to [`bootstrap_ci`] over `labels` with a first-seen tally
/// statistic: a request under deadline pressure never serves different
/// numbers, it either serves the canonical ones or sheds. Pass
/// `&mut || false` to run to completion. Returns `Ok(None)` for an empty
/// array, a degenerate level, or zero replicates.
pub fn label_score_ci_scratch(
    labels: &[u32],
    n_owners: usize,
    replicates: usize,
    level: f64,
    seed: u64,
    scratch: &mut BootstrapScratch,
    should_abort: &mut dyn FnMut() -> bool,
) -> Result<Option<BootstrapCi>, BootstrapAborted> {
    if !valid(labels.len(), replicates, level) {
        return Ok(None);
    }
    if should_abort() {
        return Err(BootstrapAborted);
    }
    let n = labels.len();
    scratch.fit(n, n_owners);
    let point = scratch.label_score(n, |i| labels[i]);
    scratch.stats.clear();
    scratch.replicates(labels, seed, 0..replicates, should_abort)?;
    Ok(Some(percentile_interval(point, &mut scratch.stats, level)))
}

fn percentile_interval(point: f64, stats: &mut [f64], level: f64) -> BootstrapCi {
    let replicates = stats.len();
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite statistics"));
    let alpha = (1.0 - level) / 2.0;
    let idx =
        |q: f64| -> usize { ((q * (replicates - 1) as f64).round() as usize).min(replicates - 1) };
    BootstrapCi {
        point,
        lo: stats[idx(alpha)],
        hi: stats[idx(1.0 - alpha)],
        replicates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn interval_brackets_the_mean() {
        let data: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let ci = bootstrap_ci(&data, mean, 500, 0.95, 42).unwrap();
        assert!(ci.contains(ci.point));
        assert!(ci.contains(4.5), "{ci:?}");
        assert!(ci.width() < 1.0, "{ci:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let a = bootstrap_ci(&data, mean, 200, 0.9, 7).unwrap();
        let b = bootstrap_ci(&data, mean, 200, 0.9, 7).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_ci(&data, mean, 200, 0.9, 8).unwrap();
        assert!(a.lo != c.lo || a.hi != c.hi);
    }

    /// A skewed label array over `owners` owners, every owner present.
    fn labels(n: usize, owners: u32) -> Vec<u32> {
        (0..n as u32).map(|i| (i * i + 3 * i) % owners).collect()
    }

    /// The kernel on `labels` with a fresh scratch, run to completion.
    fn fresh(data: &[u32], owners: usize, replicates: usize, seed: u64) -> Option<BootstrapCi> {
        let mut scratch = BootstrapScratch::new();
        label_score_ci_scratch(
            data,
            owners,
            replicates,
            0.95,
            seed,
            &mut scratch,
            &mut || false,
        )
        .expect("never polled to abort")
    }

    /// The kernel's scratch is reusable across array lengths and owner
    /// counts: a reused scratch gives what a fresh one gives.
    #[test]
    fn reused_scratch_is_identical_to_a_fresh_one() {
        let mut scratch = BootstrapScratch::new();
        for (n, owners, seed) in [(90, 7, 1u64), (3, 40, 7), (250, 250, 42), (1, 1, 3)] {
            let data = labels(n, owners);
            let owners = owners as usize;
            let reused =
                label_score_ci_scratch(&data, owners, 250, 0.95, seed, &mut scratch, &mut || false);
            assert_eq!(
                reused,
                Ok(fresh(&data, owners, 250, seed)),
                "n {n} seed {seed}"
            );
        }
    }

    /// The abortable kernel polls once up front and then before every
    /// 32nd replicate, aborts promptly when the budget is already spent,
    /// and honors a mid-run abort without returning a truncated interval.
    #[test]
    fn kernel_polls_and_aborts_without_a_partial_interval() {
        let data = labels(80, 9);
        let mut scratch = BootstrapScratch::new();
        let mut polls = 0u32;
        let completed = label_score_ci_scratch(&data, 9, 300, 0.95, 9, &mut scratch, &mut || {
            polls += 1;
            false
        });
        assert_eq!(completed, Ok(fresh(&data, 9, 300, 9)));
        assert_eq!(polls, 1 + 299 / 32, "one poll up front, then one per 32");

        assert_eq!(
            label_score_ci_scratch(&data, 9, 300, 0.95, 9, &mut scratch, &mut || true),
            Err(BootstrapAborted)
        );

        // Abort after the first poll window: never a partial interval.
        let mut polls = 0u32;
        let aborted = label_score_ci_scratch(&data, 9, 10_000, 0.95, 9, &mut scratch, &mut || {
            polls += 1;
            polls > 1
        });
        assert_eq!(aborted, Err(BootstrapAborted));
        assert_eq!(polls, 2);

        // Degenerate inputs still report "no interval", not an abort, and
        // an aborted run leaves the scratch fit for the next one.
        assert_eq!(
            label_score_ci_scratch(&data, 9, 0, 0.95, 9, &mut scratch, &mut || true),
            Ok(None)
        );
        assert_eq!(
            label_score_ci_scratch(&data, 9, 300, 0.95, 9, &mut scratch, &mut || false),
            completed
        );
    }

    #[test]
    fn degenerate_sample_gives_zero_width() {
        let data = vec![3.0; 30];
        let ci = bootstrap_ci(&data, mean, 100, 0.95, 1).unwrap();
        assert_eq!(ci.lo, 3.0);
        assert_eq!(ci.hi, 3.0);
        assert_eq!(ci.width(), 0.0);
    }

    #[test]
    fn wider_level_wider_interval() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let narrow = bootstrap_ci(&data, mean, 400, 0.80, 5).unwrap();
        let wide = bootstrap_ci(&data, mean, 400, 0.99, 5).unwrap();
        assert!(wide.width() >= narrow.width());
    }

    #[test]
    fn invalid_inputs() {
        let data = vec![1.0];
        assert!(bootstrap_ci::<f64, _>(&[], mean, 100, 0.95, 0).is_none());
        assert!(bootstrap_ci(&data, mean, 0, 0.95, 0).is_none());
        assert!(bootstrap_ci(&data, mean, 100, 1.0, 0).is_none());
        assert!(bootstrap_ci(&data, mean, 100, 0.0, 0).is_none());
        assert!(fresh(&[], 1, 100, 0).is_none());
        assert!(fresh(&[0], 1, 0, 0).is_none());
        let mut scratch = BootstrapScratch::new();
        let at_level_one =
            label_score_ci_scratch(&[0], 1, 100, 1.0, 0, &mut scratch, &mut || false);
        assert_eq!(at_level_one, Ok(None));
    }
}
