//! The query mix and the load generators that send it.
//!
//! The mix is Zipf-skewed over a key space about twice the response
//! cache's default 4,096 entries, so both hits and misses happen in steady
//! state. About 70% of requests go to cheap routes and about 30% to
//! CI-bearing routes (bootstrap confidence intervals), which leave the
//! replicate count to the server's default. Each class has a fixed share
//! and a Zipf ranking of its own, so the seed reorders keys within a class
//! but never moves load between classes.
//!
//! The open loop sends on a seeded Poisson schedule whatever the server
//! does. Each request is timed from when it was due, so waiting behind a
//! slow response counts; the generator's own lateness — how long after its
//! due time a request left although a connection was free — is not the
//! server's doing, so it is left out of the latency and recorded
//! separately.

use crate::http::Client;
use crate::trace;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use webdep_webgen::COUNTRIES;

/// Shares of requests that go to `ci` and to `badge`, the CI-bearing
/// routes. A badge runs four bootstraps, the costliest request of the mix;
/// at 2% its misses stay well under 1% of requests, so the reference-rate
/// p99 falls inside the `ci` misses rather than on the step between the
/// two, where it would jump with the ranking of the keys.
const CI_SHARE: f64 = 0.28;
const BADGE_SHARE: f64 = 0.02;
const LAYERS: [&str; 4] = ["hosting", "dns", "ca", "tld"];

/// SplitMix64: a small seeded generator for schedules and samples.
pub struct Rng(u64);

impl Rng {
    /// The generator for one named use of the run's seed, so that no two
    /// uses (key ranking, request draws, arrivals, samples) share a stream.
    pub fn new(seed: u64, stream: &str) -> Rng {
        // FNV-1a of the stream name, mixed into the seed.
        let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(seed ^ tag)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf(1) over `n` ranks as a cumulative table.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64;
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn draw(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// One class of the mix: keys ranked by a seeded shuffle, drawn by Zipf.
struct Class {
    keys: Vec<String>,
    cdf: Vec<f64>,
}

impl Class {
    fn new(mut keys: Vec<String>, rng: &mut Rng) -> Class {
        rng.shuffle(&mut keys);
        Class {
            cdf: zipf_cdf(keys.len()),
            keys,
        }
    }

    fn draw(&self, rng: &mut Rng) -> String {
        self.keys[draw(&self.cdf, rng.next_f64())].clone()
    }
}

/// The query mix's key space.
pub struct Mix {
    cheap: Class,
    ci: Class,
    badge: Class,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        let mut cheap = Vec::new();
        let mut ci = Vec::new();
        let mut badge = Vec::new();
        for c in COUNTRIES.iter() {
            let cc = c.code;
            for layer in LAYERS {
                cheap.push(format!("/v1/score/{cc}?layer={layer}&replicates=0"));
                cheap.push(format!("/v1/insularity/{cc}?layer={layer}"));
                for top in [3, 5, 10, 20] {
                    cheap.push(format!("/v1/shares/{cc}?layer={layer}&top={top}"));
                }
                for s in 1..=6 {
                    ci.push(format!("/v1/ci/{cc}?layer={layer}&seed={s}"));
                }
            }
            for s in 1..=6 {
                badge.push(format!("/v1/badge/{cc}?seed={s}"));
            }
        }
        for layer in LAYERS {
            for n in 1..=25 {
                cheap.push(format!("/v1/top?layer={layer}&n={n}"));
            }
        }
        cheap.push("/v1/meta".to_string());
        let mut rng = Rng::new(seed, "mix.rank");
        Mix {
            cheap: Class::new(cheap, &mut rng),
            ci: Class::new(ci, &mut rng),
            badge: Class::new(badge, &mut rng),
        }
    }

    /// `n` requests drawn from the mix.
    pub fn sequence(&self, rng: &mut Rng, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let u = rng.next_f64();
                if u < BADGE_SHARE {
                    self.badge.draw(rng)
                } else if u < BADGE_SHARE + CI_SHARE {
                    self.ci.draw(rng)
                } else {
                    self.cheap.draw(rng)
                }
            })
            .collect()
    }
}

/// What one load phase saw.
#[derive(Default)]
pub struct Outcome {
    /// Latency of every attempted request in ms, from its due time (open
    /// loop) or send time (closed loop); failures read as infinite.
    pub latency_ms: Vec<f64>,
    /// Generator lateness per request in ms.
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    /// Non-200 responses, refused or broken connections, bad epochs.
    pub failed: u64,
    /// 200s whose header epoch disagreed with their body epoch.
    pub mixed_epoch: u64,
    /// Responses older than an earlier response on the same connection.
    pub regressions: u64,
    /// First send to last completion.
    pub elapsed: Duration,
}

impl Outcome {
    /// Ascending copy of the latencies.
    pub fn sorted_latency(&self) -> Vec<f64> {
        let mut v = self.latency_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Ascending copy of the generator lateness.
    pub fn sorted_late(&self) -> Vec<f64> {
        let mut v = self.late_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Adds another phase's requests to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mixed_epoch += other.mixed_epoch;
        self.regressions += other.regressions;
    }
}

/// Per-connection response checks: status, header epoch equal to body
/// epoch, and no epoch older than one this connection already saw.
struct Checker {
    last_epoch: u64,
}

impl Checker {
    /// Returns whether the request succeeded.
    fn record(&mut self, out: &mut Outcome, resp: std::io::Result<crate::http::Response>) -> bool {
        out.attempted += 1;
        let Ok(resp) = resp else {
            out.failed += 1;
            return false;
        };
        if resp.status != 200 {
            out.failed += 1;
            return false;
        }
        let (Some(head), Some(body)) = (resp.epoch, resp.body_epoch()) else {
            out.failed += 1;
            out.mixed_epoch += 1;
            return false;
        };
        if head != body {
            out.failed += 1;
            out.mixed_epoch += 1;
            return false;
        }
        if head < self.last_epoch {
            out.failed += 1;
            out.regressions += 1;
            return false;
        }
        self.last_epoch = head;
        true
    }
}

/// Sends every target once, as fast as `conns` closed-loop keep-alive
/// connections allow. Latency is timed from send.
pub fn closed_loop(addr: SocketAddr, targets: &[String], conns: usize) -> Outcome {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut total = Outcome::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns.max(1))
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Outcome::default();
                    let mut checker = Checker { last_epoch: 0 };
                    let mut client = Client::connect(addr);
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= targets.len() {
                            break;
                        }
                        let sent = Instant::now();
                        let _g = trace::span("load.request", 0, k as u64);
                        let resp = match client.as_mut() {
                            Ok(c) => c.get(&targets[k]),
                            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
                        };
                        let ok = checker.record(&mut out, resp);
                        out.latency_ms.push(if ok {
                            sent.elapsed().as_secs_f64() * 1e3
                        } else {
                            f64::INFINITY
                        });
                        if !ok {
                            client = Client::connect(addr);
                        }
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            total.absorb(w.join().expect("closed-loop client panicked"));
        }
    });
    total.elapsed = t0.elapsed();
    total
}

/// The open-loop schedule: Poisson arrivals at `rate` per second.
struct Schedule {
    rng: Rng,
    offset_s: f64,
    index: usize,
}

/// Sends `targets` (cycled) on a Poisson schedule at `rate` requests per
/// second over `conns` keep-alive connections, until `duration` has passed
/// or `stop` is raised. Each request is timed from its due time.
pub fn open_loop(
    addr: SocketAddr,
    targets: &[String],
    rate: f64,
    duration: Duration,
    conns: usize,
    seed: u64,
    stop: &AtomicBool,
) -> Outcome {
    let schedule = Mutex::new(Schedule {
        rng: Rng::new(seed, "load.arrivals"),
        offset_s: 0.0,
        index: 0,
    });
    let t0 = Instant::now();
    let end = duration.as_secs_f64();
    let mut total = Outcome::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns.max(1))
            .map(|_| {
                let schedule = &schedule;
                s.spawn(move || {
                    let mut out = Outcome::default();
                    let mut checker = Checker { last_epoch: 0 };
                    let mut client = Client::connect(addr);
                    loop {
                        let (k, due_s) = {
                            let mut sch = schedule.lock().expect("schedule lock poisoned");
                            sch.offset_s += -(1.0 - sch.rng.next_f64()).ln() / rate;
                            sch.index += 1;
                            (sch.index - 1, sch.offset_s)
                        };
                        if due_s >= end || stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let ready = Instant::now();
                        let due = t0 + Duration::from_secs_f64(due_s);
                        if let Some(wait) = due.checked_duration_since(ready) {
                            std::thread::sleep(wait);
                        }
                        // The generator's own lateness: how long the request
                        // sat ready while its connection was free.
                        let late = Instant::now().saturating_duration_since(due.max(ready));
                        out.late_ms.push(late.as_secs_f64() * 1e3);
                        let _g = trace::span("load.request", 0, k as u64);
                        let resp = match client.as_mut() {
                            Ok(c) => c.get(&targets[k % targets.len()]),
                            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
                        };
                        let ok = checker.record(&mut out, resp);
                        out.latency_ms.push(if ok {
                            due.elapsed().saturating_sub(late).as_secs_f64() * 1e3
                        } else {
                            f64::INFINITY
                        });
                        if !ok {
                            client = Client::connect(addr);
                        }
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            total.absorb(w.join().expect("open-loop client panicked"));
        }
    });
    total.elapsed = t0.elapsed();
    total
}
