//! Seeded bootstrap confidence intervals.
//!
//! The paper reports point estimates; a toolkit release should also say
//! how stable they are under toplist resampling. [`bootstrap_ci`]
//! resamples observations with replacement and returns a percentile
//! interval for any statistic — used by `examples/uncertainty.rs` to
//! attach intervals to per-country centralization scores.
//!
//! Replicates are independent by construction: replicate `r` draws from its
//! own index stream seeded by `mix(seed, r)`, so the interval is identical
//! whether replicates run sequentially or spread across threads. The
//! resampling itself is by *index* — [`bootstrap_ci_indexed`] hands the
//! statistic a borrowing [`Resample`] view and never clones an item;
//! [`bootstrap_ci`] keeps the slice-based signature by gathering into one
//! scratch buffer per thread, reused across that thread's replicates.
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

/// One bootstrap resample, viewed through its index vector: item `i` of the
/// resample is `items[idx[i]]`. No items are cloned.
pub struct Resample<'a, T> {
    items: &'a [T],
    idx: &'a [u32],
}

impl<'a, T> Resample<'a, T> {
    /// Number of drawn items (equals the original sample size).
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the resample is empty.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// The `i`-th drawn item.
    pub fn get(&self, i: usize) -> &'a T {
        &self.items[self.idx[i] as usize]
    }

    /// Iterates over the drawn items, repeats included.
    pub fn iter(&self) -> impl Iterator<Item = &'a T> + '_ {
        self.idx.iter().map(move |&i| &self.items[i as usize])
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

fn draw_indices(stream: &mut IndexStream, n: usize, idx: &mut Vec<u32>) {
    idx.clear();
    for _ in 0..n {
        idx.push(stream.next_below(n));
    }
}

fn percentile_interval(point: f64, mut stats: Vec<f64>, level: f64) -> BootstrapCi {
    percentile_interval_slice(point, &mut stats, level)
}

fn valid(n_items: usize, replicates: usize, level: f64) -> bool {
    n_items > 0 && replicates > 0 && level > 0.0 && level < 1.0
}

/// Number of replicates to hand each parallel worker at a time. Large
/// enough to amortize scheduling, small enough to balance uneven statistic
/// costs.
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
    let stats: Vec<f64> = par_map_indices(chunks, threads, |c| {
        // Per-chunk scratch buffers, reused across the chunk's replicates.
        let mut idx: Vec<u32> = Vec::with_capacity(n);
        let mut resample: Vec<T> = Vec::with_capacity(n);
        let lo = c * REPLICATE_CHUNK;
        let hi = (lo + REPLICATE_CHUNK).min(replicates);
        (lo..hi)
            .map(|r| {
                let mut stream = IndexStream::new(replicate_seed(seed, r as u64));
                draw_indices(&mut stream, n, &mut idx);
                resample.clear();
                resample.extend(idx.iter().map(|&i| items[i as usize].clone()));
                statistic(&resample)
            })
            .collect::<Vec<f64>>()
    })
    .into_iter()
    .flatten()
    .collect();
    Some(percentile_interval(point, stats, level))
}

/// Clone-free percentile bootstrap: the statistic reads each resample
/// through a borrowing [`Resample`] view instead of a gathered slice.
///
/// Draws the *same* index streams as [`bootstrap_ci`] for a given `seed`,
/// so the two agree exactly when the statistics agree.
pub fn bootstrap_ci_indexed<T: Sync, F: Fn(&Resample<'_, T>) -> f64 + Sync>(
    items: &[T],
    statistic: F,
    replicates: usize,
    level: f64,
    seed: u64,
) -> Option<BootstrapCi> {
    if !valid(items.len(), replicates, level) {
        return None;
    }
    let n = items.len();
    let identity: Vec<u32> = (0..n as u32).collect();
    let point = statistic(&Resample {
        items,
        idx: &identity,
    });
    let chunks = replicates.div_ceil(REPLICATE_CHUNK);
    let threads = crate::par::default_threads().min(chunks);
    let stats: Vec<f64> = par_map_indices(chunks, threads, |c| {
        let mut idx: Vec<u32> = Vec::with_capacity(n);
        let lo = c * REPLICATE_CHUNK;
        let hi = (lo + REPLICATE_CHUNK).min(replicates);
        (lo..hi)
            .map(|r| {
                let mut stream = IndexStream::new(replicate_seed(seed, r as u64));
                draw_indices(&mut stream, n, &mut idx);
                statistic(&Resample { items, idx: &idx })
            })
            .collect::<Vec<f64>>()
    })
    .into_iter()
    .flatten()
    .collect();
    Some(percentile_interval(point, stats, level))
}

/// Reusable scratch for [`bootstrap_ci_indexed_scratch`]: the index
/// buffer, the replicate statistics, and the identity permutation all live
/// here, so a per-country CI loop allocates nothing after its first call.
#[derive(Debug, Default)]
pub struct BootstrapScratch {
    idx: Vec<u32>,
    stats: Vec<f64>,
    identity: Vec<u32>,
}

impl BootstrapScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`bootstrap_ci_indexed`] with caller-provided scratch, run serially on
/// the calling thread.
///
/// Draws the same per-replicate index streams as the parallel entry points
/// (replicate `r` is always seeded by `mix(seed, r)`), and the percentile
/// sort is order-independent, so for a given statistic the interval is
/// **identical** to [`bootstrap_ci_indexed`]'s. Use this inside loops that
/// are already parallel at a coarser grain, as the experiment suite does
/// with one CI per country task and one scratch per task: the coarse loop
/// keeps the cores busy. A serial loop that reuses one scratch allocates
/// nothing after its first call.
pub fn bootstrap_ci_indexed_scratch<T, F: Fn(&Resample<'_, T>) -> f64>(
    items: &[T],
    statistic: F,
    replicates: usize,
    level: f64,
    seed: u64,
    scratch: &mut BootstrapScratch,
) -> Option<BootstrapCi> {
    if !valid(items.len(), replicates, level) {
        return None;
    }
    let n = items.len();
    scratch.identity.clear();
    scratch.identity.extend(0..n as u32);
    let point = statistic(&Resample {
        items,
        idx: &scratch.identity,
    });
    scratch.stats.clear();
    for r in 0..replicates {
        let mut stream = IndexStream::new(replicate_seed(seed, r as u64));
        draw_indices(&mut stream, n, &mut scratch.idx);
        scratch.stats.push(statistic(&Resample {
            items,
            idx: &scratch.idx,
        }));
    }
    Some(percentile_interval_slice(point, &mut scratch.stats, level))
}

/// The bootstrap ran out of budget before finishing its replicates.
///
/// Carries no partial interval on purpose: a truncated replicate set is a
/// *different* (narrower-tailed) estimator, so callers either get the
/// exact seeded interval or nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapAborted;

/// [`bootstrap_ci_indexed_scratch`] that polls `should_abort` every
/// [`REPLICATE_CHUNK`] replicates and bails with [`BootstrapAborted`]
/// instead of running to completion.
///
/// Replicate `r` is seeded by `mix(seed, r)` regardless of who runs it, so
/// when this variant *does* complete its interval is bit-identical to
/// [`bootstrap_ci_indexed`]'s — a request under deadline pressure never
/// serves different numbers, it either serves the canonical ones or sheds.
pub fn bootstrap_ci_indexed_abortable<T, F: Fn(&Resample<'_, T>) -> f64>(
    items: &[T],
    statistic: F,
    replicates: usize,
    level: f64,
    seed: u64,
    scratch: &mut BootstrapScratch,
    should_abort: &mut dyn FnMut() -> bool,
) -> Result<Option<BootstrapCi>, BootstrapAborted> {
    if !valid(items.len(), replicates, level) {
        return Ok(None);
    }
    if should_abort() {
        return Err(BootstrapAborted);
    }
    let n = items.len();
    scratch.identity.clear();
    scratch.identity.extend(0..n as u32);
    let point = statistic(&Resample {
        items,
        idx: &scratch.identity,
    });
    scratch.stats.clear();
    for r in 0..replicates {
        if r % REPLICATE_CHUNK == 0 && r > 0 && should_abort() {
            return Err(BootstrapAborted);
        }
        let mut stream = IndexStream::new(replicate_seed(seed, r as u64));
        draw_indices(&mut stream, n, &mut scratch.idx);
        scratch.stats.push(statistic(&Resample {
            items,
            idx: &scratch.idx,
        }));
    }
    Ok(Some(percentile_interval_slice(
        point,
        &mut scratch.stats,
        level,
    )))
}

fn percentile_interval_slice(point: f64, stats: &mut [f64], level: f64) -> BootstrapCi {
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

    #[test]
    fn indexed_agrees_with_cloning() {
        let data: Vec<f64> = (0..120).map(|i| ((i * 17) % 31) as f64).collect();
        let cloned = bootstrap_ci(&data, mean, 300, 0.95, 11).unwrap();
        let indexed = bootstrap_ci_indexed(
            &data,
            |rs| rs.iter().sum::<f64>() / rs.len() as f64,
            300,
            0.95,
            11,
        )
        .unwrap();
        assert_eq!(cloned, indexed);
    }

    /// The abortable variant is bit-identical to the parallel path when it
    /// completes, aborts promptly when the budget is already spent, and
    /// honors a mid-run abort without returning a truncated interval.
    #[test]
    fn abortable_variant_identical_or_aborted() {
        let data: Vec<f64> = (0..80).map(|i| ((i * 19) % 29) as f64).collect();
        let stat = |rs: &Resample<'_, f64>| rs.iter().sum::<f64>() / rs.len() as f64;
        let mut scratch = BootstrapScratch::new();
        let parallel = bootstrap_ci_indexed(&data, stat, 300, 0.95, 9).unwrap();
        let completed =
            bootstrap_ci_indexed_abortable(&data, stat, 300, 0.95, 9, &mut scratch, &mut || false)
                .unwrap();
        assert_eq!(completed, Some(parallel));

        assert_eq!(
            bootstrap_ci_indexed_abortable(&data, stat, 300, 0.95, 9, &mut scratch, &mut || true),
            Err(BootstrapAborted)
        );

        // Abort after the first poll window: never a partial interval.
        let mut polls = 0u32;
        let aborted =
            bootstrap_ci_indexed_abortable(&data, stat, 10_000, 0.95, 9, &mut scratch, &mut || {
                polls += 1;
                polls > 1
            });
        assert_eq!(aborted, Err(BootstrapAborted));

        // Degenerate inputs still report "no interval", not an abort.
        assert_eq!(
            bootstrap_ci_indexed_abortable(&data, stat, 0, 0.95, 9, &mut scratch, &mut || true),
            Ok(None)
        );
    }

    /// The scratch variant must be bit-identical to the parallel indexed
    /// path: same index streams per replicate, order-independent sort.
    #[test]
    fn scratch_variant_is_identical_to_indexed() {
        let data: Vec<f64> = (0..90).map(|i| ((i * 13) % 23) as f64).collect();
        let stat = |rs: &Resample<'_, f64>| rs.iter().sum::<f64>() / rs.len() as f64;
        let mut scratch = BootstrapScratch::new();
        for seed in [1u64, 7, 42] {
            let parallel = bootstrap_ci_indexed(&data, stat, 250, 0.95, seed).unwrap();
            let serial =
                bootstrap_ci_indexed_scratch(&data, stat, 250, 0.95, seed, &mut scratch).unwrap();
            assert_eq!(parallel, serial, "seed {seed}");
        }
        assert!(
            bootstrap_ci_indexed_scratch(&data, stat, 0, 0.95, 0, &mut scratch).is_none(),
            "degenerate inputs still rejected"
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
        assert!(bootstrap_ci_indexed(&data, |rs| rs.get(0) * 1.0, 0, 0.95, 0).is_none());
    }
}
