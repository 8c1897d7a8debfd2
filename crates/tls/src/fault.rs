//! Applying a [`FaultPlan`] to TLS handshake flights.
//!
//! [`crate::server::serve_hello`] calls [`apply_tls_fault`] on every ready
//! server flight. Decisions are keyed on `(server ip, sni)` — deterministic
//! across retries, like the DNS side.

use crate::handshake::{encode_flight, HandshakeMessage};
use bytes::Bytes;
use std::net::Ipv4Addr;
use webdep_netsim::{FaultKind, FaultPlan, FaultedReply};

/// Alert code fault-injected refusals answer with (mirrors TLS's
/// `internal_error`, 80).
pub const ALERT_INTERNAL_ERROR: u8 = 80;

/// Runs the clean server `flight` for `sni` through `plan` as server `ip`.
///
/// The returned [`FaultedReply`] carries the payload to send (`None` when
/// the fault swallows the flight) — possibly a fatal alert, a truncated
/// prefix, or a garbled flight — and, for [`FaultKind::Delay`], how late
/// it arrives. The delay is simulated time: the network stamps it on the
/// reply datagram and the scanner's window decides whether it came in
/// time.
pub fn apply_tls_fault(plan: &FaultPlan, ip: Ipv4Addr, sni: &str, flight: Bytes) -> FaultedReply {
    match plan.query_fault(ip, sni.as_bytes()) {
        None => FaultedReply::clean(flight),
        Some(FaultKind::Drop) => FaultedReply::swallowed(),
        Some(FaultKind::ServFail) => {
            FaultedReply::clean(encode_flight(&[HandshakeMessage::Alert(
                ALERT_INTERNAL_ERROR,
            )]))
        }
        Some(FaultKind::Truncate) => {
            FaultedReply::clean(Bytes::from(flight[..flight.len() / 2].to_vec()))
        }
        Some(FaultKind::Garble) => {
            // Flip the leading frame type: the flight no longer parses.
            let mut v = flight.to_vec();
            if let Some(b) = v.first_mut() {
                *b ^= 0xFF;
            }
            FaultedReply::clean(Bytes::from(v))
        }
        Some(FaultKind::Delay) => FaultedReply {
            payload: Some(flight),
            delay: plan.delay,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::decode_flight;

    fn flight() -> Bytes {
        encode_flight(&[HandshakeMessage::ServerHello {
            random: 7,
            cipher: 1,
        }])
    }

    fn plan_with(kind: FaultKind) -> FaultPlan {
        FaultPlan::flaky(1, 1.0, 1.0, vec![kind])
    }

    #[test]
    fn passthrough_and_drop() {
        let ip = "1.2.3.4".parse().unwrap();
        assert_eq!(
            apply_tls_fault(&FaultPlan::none(), ip, "a.example", flight()),
            FaultedReply::clean(flight())
        );
        assert_eq!(
            apply_tls_fault(&plan_with(FaultKind::Drop), ip, "a.example", flight()),
            FaultedReply::swallowed()
        );
    }

    #[test]
    fn refusal_is_a_fatal_alert() {
        let ip = "1.2.3.4".parse().unwrap();
        let out = apply_tls_fault(&plan_with(FaultKind::ServFail), ip, "a.example", flight());
        let frames = decode_flight(&out.payload.unwrap()).unwrap();
        assert_eq!(frames, vec![HandshakeMessage::Alert(ALERT_INTERNAL_ERROR)]);
    }

    #[test]
    fn truncated_and_garbled_flights_do_not_parse() {
        let ip = "1.2.3.4".parse().unwrap();
        for kind in [FaultKind::Truncate, FaultKind::Garble] {
            let out = apply_tls_fault(&plan_with(kind), ip, "a.example", flight())
                .payload
                .unwrap();
            assert!(decode_flight(&out).is_err(), "{kind:?} should not parse");
        }
    }

    #[test]
    fn delay_returns_the_wait_instead_of_sleeping() {
        let ip = "1.2.3.4".parse().unwrap();
        let plan = plan_with(FaultKind::Delay);
        let start = std::time::Instant::now();
        let out = apply_tls_fault(&plan, ip, "a.example", flight());
        assert!(start.elapsed() < plan.delay, "must not sleep inline");
        assert_eq!(out.delay, plan.delay);
        assert_eq!(out.payload, Some(flight()));
    }
}
