//! Applying a [`FaultPlan`] to TLS handshake flights.
//!
//! [`crate::server::serve_hello`] calls [`apply_tls_fault`] on every ready
//! server flight. Decisions are keyed on `(server ip, sni)` — deterministic
//! across retries, like the DNS side.

use crate::handshake::encode_alert;
use std::net::Ipv4Addr;
use std::time::Duration;
use webdep_netsim::{FaultKind, FaultPlan};

/// Alert code fault-injected refusals answer with (mirrors TLS's
/// `internal_error`, 80).
pub const ALERT_INTERNAL_ERROR: u8 = 80;

/// Runs the clean server `flight` for `sni` through `plan` as server `ip`,
/// reshaping it in place.
///
/// Returns how late the flight arrives ([`FaultKind::Delay`] only, zero
/// otherwise), or `None` when the fault swallows it. The flight may have
/// become a fatal alert, its first half, or a garbled flight. The delay is
/// simulated time: the scanner's window decides whether it came in time.
pub fn apply_tls_fault(
    plan: &FaultPlan,
    ip: Ipv4Addr,
    sni: &str,
    flight: &mut Vec<u8>,
) -> Option<Duration> {
    match plan.query_fault(ip, sni.as_bytes()) {
        None => {}
        Some(FaultKind::Drop) => return None,
        Some(FaultKind::ServFail) => {
            flight.clear();
            encode_alert(flight, ALERT_INTERNAL_ERROR);
        }
        Some(FaultKind::Truncate) => flight.truncate(flight.len() / 2),
        Some(FaultKind::Garble) => {
            // Flip the leading frame type: the flight no longer parses.
            if let Some(b) = flight.first_mut() {
                *b ^= 0xFF;
            }
        }
        Some(FaultKind::Delay) => return Some(plan.delay),
    }
    Some(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::{decode_flight, encode_flight, HandshakeMessage};

    fn flight() -> Vec<u8> {
        encode_flight(&[HandshakeMessage::ServerHello {
            random: 7,
            cipher: 1,
        }])
    }

    fn plan_with(kind: FaultKind) -> FaultPlan {
        FaultPlan::flaky(1, 1.0, 1.0, vec![kind])
    }

    /// The flight after `plan`, with its delay; `None` when swallowed.
    fn faulted(plan: &FaultPlan) -> Option<(Vec<u8>, Duration)> {
        let mut out = flight();
        let delay = apply_tls_fault(plan, "1.2.3.4".parse().unwrap(), "a.example", &mut out)?;
        Some((out, delay))
    }

    #[test]
    fn passthrough_and_drop() {
        assert_eq!(
            faulted(&FaultPlan::none()),
            Some((flight(), Duration::ZERO))
        );
        assert_eq!(faulted(&plan_with(FaultKind::Drop)), None);
    }

    #[test]
    fn refusal_is_a_fatal_alert() {
        let (out, _) = faulted(&plan_with(FaultKind::ServFail)).unwrap();
        let frames = decode_flight(&out).unwrap();
        assert_eq!(frames, vec![HandshakeMessage::Alert(ALERT_INTERNAL_ERROR)]);
    }

    #[test]
    fn truncated_and_garbled_flights_do_not_parse() {
        let clean = flight();
        let (truncated, _) = faulted(&plan_with(FaultKind::Truncate)).unwrap();
        assert_eq!(truncated, clean[..clean.len() / 2]);
        let (garbled, _) = faulted(&plan_with(FaultKind::Garble)).unwrap();
        assert_eq!((garbled[0], &garbled[1..]), (clean[0] ^ 0xFF, &clean[1..]));
        for out in [truncated, garbled] {
            assert!(decode_flight(&out).is_err(), "{out:?} should not parse");
        }
    }

    #[test]
    fn delay_returns_the_wait_instead_of_sleeping() {
        let plan = plan_with(FaultKind::Delay);
        let start = std::time::Instant::now();
        let out = faulted(&plan);
        assert!(start.elapsed() < plan.delay, "must not sleep inline");
        assert_eq!(out, Some((flight(), plan.delay)));
    }
}
