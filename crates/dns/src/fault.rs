//! Applying a [`FaultPlan`] to authoritative DNS answers.
//!
//! [`crate::server::serve_query`] calls [`apply_dns_fault`] on every
//! query it answers. The decision is keyed on `(server ip, qname)` only —
//! see the determinism notes on [`FaultPlan`] — so a retried query meets
//! exactly the same fate and recovery requires asking a different server.

use std::net::Ipv4Addr;
use std::time::Duration;
use webdep_netsim::{FaultKind, FaultPlan};

/// Which reply a server writes for a query its fault plan lets through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyShape {
    /// The clean answer.
    Answer,
    /// A bare SERVFAIL: the header and the echoed questions.
    ServFail,
    /// The clean answer with its transaction id flipped: it decodes
    /// cleanly but matches no outstanding query, like a stale or spoofed
    /// datagram.
    GarbledId,
}

/// Runs the query for `qname` to server `ip` through `plan`; `write` writes
/// the reply into `reply` in the shape the fault asks for, once.
///
/// Returns how late the reply arrives ([`FaultKind::Delay`] only, zero
/// otherwise), or `None` when the fault swallows it. The reply is
/// reshaped in place: possibly a SERVFAIL, the clean reply truncated to
/// half its length, or a garbled header. The delay is simulated time: the
/// exchange compares it with the resolver's window.
pub fn apply_dns_fault(
    plan: &FaultPlan,
    ip: Ipv4Addr,
    qname: &str,
    reply: &mut Vec<u8>,
    write: impl FnOnce(ReplyShape, &mut Vec<u8>),
) -> Option<Duration> {
    match plan.query_fault(ip, qname.as_bytes()) {
        None => write(ReplyShape::Answer, reply),
        Some(FaultKind::Drop) => return None,
        Some(FaultKind::ServFail) => write(ReplyShape::ServFail, reply),
        Some(FaultKind::Truncate) => {
            // Half a message never survives the record parser.
            write(ReplyShape::Answer, reply);
            reply.truncate(reply.len() / 2);
        }
        Some(FaultKind::Garble) => write(ReplyShape::GarbledId, reply),
        Some(FaultKind::Delay) => {
            write(ReplyShape::Answer, reply);
            return Some(plan.delay);
        }
    }
    Some(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape `apply_dns_fault` asked for, as the reply's first byte,
    /// and the delay; `None` when swallowed.
    fn shaped(plan: &FaultPlan) -> Option<(Vec<u8>, Duration)> {
        let mut reply = Vec::new();
        let delay = apply_dns_fault(
            plan,
            "1.2.3.4".parse().unwrap(),
            "a.example",
            &mut reply,
            |shape, buf| buf.extend_from_slice(&[shape as u8, 0xAA]),
        )?;
        Some((reply, delay))
    }

    fn plan_with(kind: FaultKind) -> FaultPlan {
        FaultPlan::flaky(1, 1.0, 1.0, vec![kind])
    }

    #[test]
    fn each_fault_asks_for_its_shape() {
        let clean = |shape: ReplyShape| Some((vec![shape as u8, 0xAA], Duration::ZERO));
        assert_eq!(shaped(&FaultPlan::none()), clean(ReplyShape::Answer));
        assert_eq!(shaped(&plan_with(FaultKind::Drop)), None);
        assert_eq!(
            shaped(&plan_with(FaultKind::ServFail)),
            clean(ReplyShape::ServFail)
        );
        assert_eq!(
            shaped(&plan_with(FaultKind::Garble)),
            clean(ReplyShape::GarbledId)
        );
        assert_eq!(
            shaped(&plan_with(FaultKind::Truncate)),
            Some((vec![ReplyShape::Answer as u8], Duration::ZERO))
        );
    }

    #[test]
    fn delay_returns_the_wait_instead_of_sleeping() {
        let plan = plan_with(FaultKind::Delay);
        let start = std::time::Instant::now();
        let out = shaped(&plan);
        assert!(start.elapsed() < plan.delay, "must not sleep inline");
        assert_eq!(
            out,
            Some((vec![ReplyShape::Answer as u8, 0xAA], plan.delay))
        );
    }
}
