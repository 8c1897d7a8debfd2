//! Deterministic fault injection: server outages and flaky-server schedules.
//!
//! Real measurement campaigns run over an unreliable substrate — ZDNS sees
//! timeouts and SERVFAILs, ZGrab2 sees dead listeners and garbage flights.
//! A [`FaultPlan`] reproduces that weather deterministically: every decision
//! is a pure function of `(plan seed, server IP, query key)`, never of the
//! sender's address, transaction id, or attempt number. Two consequences:
//!
//! * **Byte-reproducibility.** Re-asking the same question of the same
//!   server always yields the same outcome, so the measured dataset does not
//!   depend on worker count, scheduling, or cache warm-up order (retrying a
//!   faulty `(server, name)` pair never "gets lucky" — recovery happens by
//!   rotating to a *different* server, which is itself deterministic).
//! * **Tier discipline.** Per-query flaky faults are only applied at the
//!   authoritative (rack) tier by the deployment layer; shared referral
//!   caches would otherwise make *whether* a root/registry query happens —
//!   and thus whether its fault fires — scheduling-dependent. Infrastructure
//!   above the racks degrades via whole-server [outages](FaultPlan::server_out),
//!   which hold for the entire run and are visible to every client equally.
//!
//! The plan is enforced in two places: an exchange black-holes every query
//! addressed to an out server (covering DNS, TLS and registry traffic
//! uniformly; replies travel to clients, never to a server, so they are
//! never checked), and protocol servers consult [`FaultPlan::query_fault`]
//! to corrupt, refuse, delay, or drop individual answers on flaky servers.
//! A delay is simulated time, never a wait: a responder returns it with
//! the reply it wrote ([`crate::ResponderFn`]), and the client's window in
//! [`crate::Endpoint::exchange`] decides whether the reply came in time.

use std::net::Ipv4Addr;
use std::time::Duration;

/// What a flaky server does to one unlucky query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow the query; the client sees a timeout.
    Drop,
    /// Answer with a protocol-level refusal (DNS SERVFAIL / TLS fatal alert).
    ServFail,
    /// Send only a prefix of the real answer (fails to decode).
    Truncate,
    /// Flip bytes in the answer header (decodes, but mismatched id).
    Garble,
    /// Answer correctly, but [`FaultPlan::delay`] late: a client whose
    /// receive window is shorter than the delay sees a timeout, one whose
    /// window covers it sees the answer.
    Delay,
}

impl FaultKind {
    /// All kinds, for "throw everything at it" plans.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Drop,
        FaultKind::ServFail,
        FaultKind::Truncate,
        FaultKind::Garble,
        FaultKind::Delay,
    ];

    /// Stable lowercase name (used in snapshots and taxonomy keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::ServFail => "servfail",
            FaultKind::Truncate => "truncate",
            FaultKind::Garble => "garble",
            FaultKind::Delay => "delay",
        }
    }
}

/// A seeded, deterministic schedule of server outages and flaky behaviour.
///
/// An inactive plan (all fractions zero — see [`FaultPlan::none`]) injects
/// nothing; a pipeline run under it is byte-identical to a run with no plan
/// at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision. Independent of the network loss seed.
    pub seed: u64,
    /// Fraction of servers that are down for the whole run (transport-level
    /// black hole; applies to any tier).
    pub outage_fraction: f64,
    /// Fraction of the remaining servers that are flaky (per-query faults).
    pub flaky_fraction: f64,
    /// Probability that a flaky server faults any given query key.
    pub fail_rate: f64,
    /// The fault repertoire flaky servers draw from. Must be non-empty for
    /// `flaky_fraction > 0` to have any effect.
    pub kinds: Vec<FaultKind>,
    /// Latency spike applied by [`FaultKind::Delay`].
    pub delay: Duration,
    /// Addresses exempt from all faults (e.g. the root nameserver, standing
    /// in for the real root's redundancy).
    pub protected: Vec<Ipv4Addr>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

const OUTAGE_SALT: u64 = 0x5143_9af2_27b0_cd11;
const FLAKY_SALT: u64 = 0x9d3c_41e7_66aa_0b57;
const QUERY_SALT: u64 = 0x2f8e_d1b4_0c5a_7393;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a over the query key, finalized through SplitMix64.
fn key_hash(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(h)
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            outage_fraction: 0.0,
            flaky_fraction: 0.0,
            fail_rate: 0.0,
            kinds: Vec::new(),
            delay: Duration::from_millis(20),
            protected: Vec::new(),
        }
    }

    /// Outage-only plan: `fraction` of unprotected servers are down.
    pub fn outages(seed: u64, fraction: f64) -> Self {
        FaultPlan {
            seed,
            outage_fraction: fraction,
            ..FaultPlan::none()
        }
    }

    /// Flaky-only plan: `fraction` of servers fault `fail_rate` of their
    /// queries, drawing from `kinds`.
    pub fn flaky(seed: u64, fraction: f64, fail_rate: f64, kinds: Vec<FaultKind>) -> Self {
        FaultPlan {
            seed,
            flaky_fraction: fraction,
            fail_rate,
            kinds,
            ..FaultPlan::none()
        }
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.outage_fraction > 0.0
            || (self.flaky_fraction > 0.0 && self.fail_rate > 0.0 && !self.kinds.is_empty())
    }

    fn ip_stream(&self, salt: u64, ip: Ipv4Addr) -> u64 {
        splitmix64(self.seed ^ salt ^ u64::from(u32::from(ip)))
    }

    /// Whether `ip` is down for the whole run. Pure in `(seed, ip)`.
    pub fn server_out(&self, ip: Ipv4Addr) -> bool {
        self.outage_fraction > 0.0
            && !self.protected.contains(&ip)
            && unit_f64(self.ip_stream(OUTAGE_SALT, ip)) < self.outage_fraction
    }

    /// Whether `ip` is flaky (faults a fraction of its queries). Out servers
    /// are not additionally flaky.
    pub fn server_flaky(&self, ip: Ipv4Addr) -> bool {
        self.flaky_fraction > 0.0
            && !self.kinds.is_empty()
            && !self.protected.contains(&ip)
            && !self.server_out(ip)
            && unit_f64(self.ip_stream(FLAKY_SALT, ip)) < self.flaky_fraction
    }

    /// The fault (if any) server `ip` applies to the query identified by
    /// `key` — the qname for DNS, the SNI for TLS. Pure in
    /// `(seed, ip, key)`: every retry of the same question meets the same
    /// fate, so recovery must come from a different server.
    pub fn query_fault(&self, ip: Ipv4Addr, key: &[u8]) -> Option<FaultKind> {
        if self.server_out(ip) {
            return Some(FaultKind::Drop);
        }
        if !self.server_flaky(ip) {
            return None;
        }
        let h = key_hash(self.ip_stream(QUERY_SALT, ip), key);
        if unit_f64(h) >= self.fail_rate {
            return None;
        }
        Some(self.kinds[(splitmix64(h) % self.kinds.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(n: u32) -> Ipv4Addr {
        Ipv4Addr::from(0x0a00_0000 | n)
    }

    #[test]
    fn inactive_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for i in 0..256 {
            assert!(!plan.server_out(ip(i)));
            assert!(!plan.server_flaky(ip(i)));
            assert_eq!(plan.query_fault(ip(i), b"example.com"), None);
        }
    }

    #[test]
    fn outage_fraction_is_respected_and_deterministic() {
        let plan = FaultPlan::outages(7, 0.3);
        let out: Vec<bool> = (0..2000).map(|i| plan.server_out(ip(i))).collect();
        let frac = out.iter().filter(|&&x| x).count() as f64 / out.len() as f64;
        assert!((frac - 0.3).abs() < 0.05, "outage fraction {frac}");
        // Same seed, same verdicts.
        let again: Vec<bool> = (0..2000).map(|i| plan.server_out(ip(i))).collect();
        assert_eq!(out, again);
        // Different seed, different draw.
        let other = FaultPlan::outages(8, 0.3);
        assert_ne!(
            out,
            (0..2000)
                .map(|i| other.server_out(ip(i)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn protected_addresses_never_fault() {
        let mut plan = FaultPlan::outages(1, 1.0);
        plan.flaky_fraction = 1.0;
        plan.fail_rate = 1.0;
        plan.kinds = FaultKind::ALL.to_vec();
        plan.protected = vec![ip(5)];
        assert!(!plan.server_out(ip(5)));
        assert_eq!(plan.query_fault(ip(5), b"q"), None);
        assert!(plan.server_out(ip(6)));
    }

    #[test]
    fn query_faults_are_pure_in_ip_and_key() {
        let plan = FaultPlan::flaky(3, 1.0, 0.5, FaultKind::ALL.to_vec());
        let mut hit = 0;
        for i in 0..500 {
            let key = format!("site{i}.example");
            let a = plan.query_fault(ip(1), key.as_bytes());
            // The verdict never changes across retries.
            for _ in 0..3 {
                assert_eq!(a, plan.query_fault(ip(1), key.as_bytes()));
            }
            if a.is_some() {
                hit += 1;
            }
            // A different server rolls independently.
            let _ = plan.query_fault(ip(2), key.as_bytes());
        }
        let rate = hit as f64 / 500.0;
        assert!((rate - 0.5).abs() < 0.08, "fail rate {rate}");
    }

    #[test]
    fn out_servers_drop_every_query() {
        let plan = FaultPlan::outages(1, 1.0);
        for i in 0..64 {
            assert_eq!(plan.query_fault(ip(i), b"any"), Some(FaultKind::Drop));
        }
    }
}
