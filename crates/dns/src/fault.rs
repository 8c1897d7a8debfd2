//! Applying a [`FaultPlan`] to authoritative DNS answers.
//!
//! [`crate::server::serve_query`] calls [`apply_dns_fault`] on every ready
//! response. The decision is keyed on `(server ip, qname)` only — see the
//! determinism notes on [`FaultPlan`] — so a retried query meets exactly
//! the same fate and recovery requires asking a different server.

use crate::wire::{encode, Message, Rcode};
use bytes::Bytes;
use std::net::Ipv4Addr;
use webdep_netsim::{FaultKind, FaultPlan, FaultedReply};

/// Runs the clean `response` to `query` through `plan` as server `ip`.
///
/// The returned [`FaultedReply`] carries the payload to send (`None` when
/// the fault swallows the reply) — possibly a SERVFAIL, a truncated
/// prefix, or a garbled header — and, for [`FaultKind::Delay`], how long
/// delivery must wait. The delay is never slept here: the inline responder
/// sleeps it on the querier's thread ([`FaultedReply::deliver`]).
pub fn apply_dns_fault(
    plan: &FaultPlan,
    ip: Ipv4Addr,
    query: &Message,
    response: &Message,
) -> FaultedReply {
    let key = query
        .questions
        .first()
        .map(|q| q.name.as_str())
        .unwrap_or("");
    match plan.query_fault(ip, key.as_bytes()) {
        None => FaultedReply::clean(encode(response)),
        Some(FaultKind::Drop) => FaultedReply::swallowed(),
        Some(FaultKind::ServFail) => {
            let mut r = Message::response_to(query);
            r.rcode = Rcode::ServFail;
            FaultedReply::clean(encode(&r))
        }
        Some(FaultKind::Truncate) => {
            // Half a message never survives the record parser.
            let full = encode(response);
            FaultedReply::clean(Bytes::from(full[..full.len() / 2].to_vec()))
        }
        Some(FaultKind::Garble) => {
            // Flip the transaction id: the reply decodes cleanly but matches
            // no outstanding query, like a stale or spoofed datagram.
            let mut v = encode(response).to_vec();
            v[0] ^= 0xFF;
            v[1] ^= 0xFF;
            FaultedReply::clean(Bytes::from(v))
        }
        Some(FaultKind::Delay) => FaultedReply {
            payload: Some(encode(response)),
            delay: Some(plan.delay),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::DomainName;
    use crate::wire::{decode, RecordType};

    fn msgs() -> (Message, Message) {
        let q = Message::query(9, DomainName::parse("a.example").unwrap(), RecordType::A);
        let r = Message::response_to(&q);
        (q, r)
    }

    fn plan_with(kind: FaultKind) -> FaultPlan {
        FaultPlan::flaky(1, 1.0, 1.0, vec![kind])
    }

    #[test]
    fn inactive_plan_passes_through() {
        let (q, r) = msgs();
        let out = apply_dns_fault(&FaultPlan::none(), "1.2.3.4".parse().unwrap(), &q, &r);
        assert_eq!(out, webdep_netsim::FaultedReply::clean(encode(&r)));
    }

    #[test]
    fn drop_swallows_the_reply() {
        let (q, r) = msgs();
        let out = apply_dns_fault(
            &plan_with(FaultKind::Drop),
            "1.2.3.4".parse().unwrap(),
            &q,
            &r,
        );
        assert_eq!(out, webdep_netsim::FaultedReply::swallowed());
    }

    #[test]
    fn servfail_answers_with_failure_rcode() {
        let (q, r) = msgs();
        let out = apply_dns_fault(
            &plan_with(FaultKind::ServFail),
            "1.2.3.4".parse().unwrap(),
            &q,
            &r,
        )
        .payload
        .unwrap();
        let decoded = decode(&out).unwrap();
        assert_eq!(decoded.rcode, Rcode::ServFail);
        assert_eq!(decoded.id, q.id);
    }

    #[test]
    fn truncated_reply_fails_to_decode() {
        let (q, r) = msgs();
        let out = apply_dns_fault(
            &plan_with(FaultKind::Truncate),
            "1.2.3.4".parse().unwrap(),
            &q,
            &r,
        )
        .payload
        .unwrap();
        assert!(decode(&out).is_err());
    }

    #[test]
    fn garbled_reply_decodes_with_wrong_id() {
        let (q, r) = msgs();
        let out = apply_dns_fault(
            &plan_with(FaultKind::Garble),
            "1.2.3.4".parse().unwrap(),
            &q,
            &r,
        )
        .payload
        .unwrap();
        let decoded = decode(&out).unwrap();
        assert_ne!(decoded.id, q.id);
    }

    #[test]
    fn delay_returns_the_wait_instead_of_sleeping() {
        let (q, r) = msgs();
        let plan = plan_with(FaultKind::Delay);
        let start = std::time::Instant::now();
        let out = apply_dns_fault(&plan, "1.2.3.4".parse().unwrap(), &q, &r);
        assert!(start.elapsed() < plan.delay, "must not sleep inline");
        assert_eq!(out.delay, Some(plan.delay));
        assert_eq!(out.payload, Some(encode(&r)));
    }
}
