//! Host-speed calibration.
//!
//! On a shared virtual machine the speed of a core drifts by up to 1.5×
//! between states that last minutes, and the process's CPU time drifts
//! alike (the core is slower; no time is stolen from it). No estimator
//! within a run removes a state that lasts the whole run, so the timed
//! figures are given in reference units: a run probes the host between its
//! timed sections, while the program is idle, each probe timing a fixed
//! kernel — table probes over a few MiB, sorting, string building and
//! hashing, as the program's own code does — on `nproc` threads at once,
//! and every time the run reports is its raw time over the median of the
//! run's probes (the host's slowness, 1.0 at the reference speed). The
//! kernel is part of the benchmark, not of the program, so a change to the
//! program moves the reported time exactly as it moves the raw time.

use crate::median;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference host speed, seconds: about its time
/// on a 2-vCPU virtual machine of 2.0 GHz Xeon cores, so that reference
/// seconds read close to wall seconds there.
const REF_KERNEL_S: f64 = 1.0e-3;
/// Kernel runs per thread in one probe; the probe is their median.
const REPS: usize = 5;
/// Table slots of the kernel (4 MiB of `u64`, past the private caches).
const SLOTS: usize = 1 << 19;
/// Keys inserted, keys looked up, values sorted, strings built.
const KEYS: usize = 12_000;
const LOOKUPS: usize = 24_000;
const SORTED: usize = 12_000;
const STRINGS: usize = 1_000;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn slot(k: u64) -> usize {
    (k.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 45) as usize
}

/// The fixed piece of work a probe times, over a table the caller owns (so
/// it is paged in once). Deterministic and independent of the program.
fn kernel(table: &mut [u64]) -> u64 {
    table.fill(0);
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..KEYS {
        let k = xorshift(&mut s) | 1;
        let mut i = slot(k);
        while table[i] != 0 {
            i = (i + 1) & (SLOTS - 1);
        }
        table[i] = k;
    }
    let mut found = 0u64;
    for _ in 0..LOOKUPS {
        let k = xorshift(&mut s) | 1;
        let mut i = slot(k);
        while table[i] != 0 && table[i] != k {
            i = (i + 1) & (SLOTS - 1);
        }
        found += (table[i] == k) as u64;
    }
    let mut v: Vec<u64> = (0..SORTED).map(|_| xorshift(&mut s) % 1_000_000).collect();
    v.sort_unstable();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for k in 0..STRINGS {
        let name = format!("www.site-{}.example-{k}.com", v[k * 7 % SORTED]);
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }
    found ^ h ^ v[SORTED / 2]
}

/// The host's slowness now: the median kernel time over `REPS` runs on each
/// of `threads` threads at once, over the reference kernel time.
fn probe(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut table = vec![0u64; SLOTS];
                    (0..REPS)
                        .map(|_| {
                            let t = Instant::now();
                            black_box(kernel(&mut table));
                            t.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    median(&times) / REF_KERNEL_S
}

/// The probes of one run.
pub struct Host {
    threads: usize,
    probes: Vec<f64>,
}

impl Host {
    pub fn new(threads: usize) -> Host {
        Host {
            threads,
            probes: Vec::new(),
        }
    }

    /// Probes the host now. Call it between timed sections, never inside
    /// one.
    pub fn probe(&mut self) {
        self.probes.push(probe(self.threads));
    }

    /// The run's host slowness: the median of its probes (1.0 when there
    /// were none).
    pub fn slowness(&self) -> f64 {
        if self.probes.is_empty() {
            1.0
        } else {
            median(&self.probes)
        }
    }

    /// Raw seconds (or ms) in reference seconds (or ms).
    pub fn to_ref(&self, raw: f64) -> f64 {
        raw / self.slowness()
    }
}
