//! Applying a [`FaultPlan`] to authoritative DNS answers.
//!
//! [`crate::server::serve_query`] calls [`apply_dns_fault`] on every
//! query it answers. The decision is keyed on `(server ip, qname)` only —
//! see the determinism notes on [`FaultPlan`] — so a retried query meets
//! exactly the same fate and recovery requires asking a different server.

use bytes::Bytes;
use std::net::Ipv4Addr;
use webdep_netsim::{FaultKind, FaultPlan, FaultedReply};

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
/// the reply in the shape the fault asks for, once.
///
/// The returned [`FaultedReply`] carries the payload to send (`None` when
/// the fault swallows the reply) — possibly a SERVFAIL, a truncated prefix
/// of the clean reply (sharing its bytes), or a garbled header — and, for
/// [`FaultKind::Delay`], how late it arrives. The delay is simulated time:
/// the network stamps it on the reply datagram and the resolver's window
/// decides whether it came in time.
pub fn apply_dns_fault(
    plan: &FaultPlan,
    ip: Ipv4Addr,
    qname: &str,
    write: impl FnOnce(ReplyShape) -> Bytes,
) -> FaultedReply {
    match plan.query_fault(ip, qname.as_bytes()) {
        None => FaultedReply::clean(write(ReplyShape::Answer)),
        Some(FaultKind::Drop) => FaultedReply::swallowed(),
        Some(FaultKind::ServFail) => FaultedReply::clean(write(ReplyShape::ServFail)),
        Some(FaultKind::Truncate) => {
            // Half a message never survives the record parser.
            let full = write(ReplyShape::Answer);
            FaultedReply::clean(full.slice(..full.len() / 2))
        }
        Some(FaultKind::Garble) => FaultedReply::clean(write(ReplyShape::GarbledId)),
        Some(FaultKind::Delay) => FaultedReply {
            payload: Some(write(ReplyShape::Answer)),
            delay: plan.delay,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape `apply_dns_fault` asked for, as the payload's one byte.
    fn shaped(plan: &FaultPlan) -> FaultedReply {
        apply_dns_fault(plan, "1.2.3.4".parse().unwrap(), "a.example", |shape| {
            Bytes::from(vec![shape as u8, 0xAA])
        })
    }

    fn plan_with(kind: FaultKind) -> FaultPlan {
        FaultPlan::flaky(1, 1.0, 1.0, vec![kind])
    }

    #[test]
    fn each_fault_asks_for_its_shape() {
        let payload = |shape: ReplyShape| Some(Bytes::from(vec![shape as u8, 0xAA]));
        assert_eq!(
            shaped(&FaultPlan::none()).payload,
            payload(ReplyShape::Answer)
        );
        assert_eq!(
            shaped(&plan_with(FaultKind::Drop)),
            FaultedReply::swallowed()
        );
        assert_eq!(
            shaped(&plan_with(FaultKind::ServFail)).payload,
            payload(ReplyShape::ServFail)
        );
        assert_eq!(
            shaped(&plan_with(FaultKind::Garble)).payload,
            payload(ReplyShape::GarbledId)
        );
        assert_eq!(
            shaped(&plan_with(FaultKind::Truncate)).payload,
            Some(Bytes::from(vec![ReplyShape::Answer as u8]))
        );
    }

    #[test]
    fn delay_returns_the_wait_instead_of_sleeping() {
        let plan = plan_with(FaultKind::Delay);
        let start = std::time::Instant::now();
        let out = shaped(&plan);
        assert!(start.elapsed() < plan.delay, "must not sleep inline");
        assert_eq!(out.delay, plan.delay);
        assert_eq!(
            out.payload,
            Some(Bytes::from(vec![ReplyShape::Answer as u8, 0xAA]))
        );
    }
}
