//! Authoritative serving: one pure function from a query datagram to the
//! reply, run inline by whichever responder the query reached.

use crate::fault::apply_dns_fault;
use crate::wire::{decode, encode, Message, Rcode};
use crate::zone::{Zone, ZoneLookup};
use std::net::Ipv4Addr;
use webdep_netsim::{FaultPlan, FaultedReply};

/// Serves one query datagram addressed to `server_ip`.
///
/// An undecodable datagram or one flagged as a response is swallowed, like
/// a real server drops it. A query without a question is answered FormErr;
/// any other query is answered by `answer` (which sees the first question
/// of a multi-question query, and may reuse the question section through
/// [`Message::into_response`]). The reply then runs through `faults`,
/// keyed on `(server_ip, qname)` (see [`apply_dns_fault`]); a returned
/// delay is the caller's to sleep ([`FaultedReply::deliver`]).
pub fn serve_query(
    payload: &[u8],
    server_ip: Ipv4Addr,
    faults: Option<&FaultPlan>,
    answer: impl FnOnce(Message) -> Message,
) -> FaultedReply {
    let query = match decode(payload) {
        Ok(q) if !q.is_response => q,
        _ => return FaultedReply::swallowed(),
    };
    let respond = |query: Message| {
        if query.questions.is_empty() {
            let mut resp = query.into_response();
            resp.rcode = Rcode::FormErr;
            resp
        } else {
            answer(query)
        }
    };
    match faults {
        Some(plan) => apply_dns_fault(plan, server_ip, &query, &respond(query.clone())),
        None => FaultedReply::clean(encode(&respond(query))),
    }
}

/// Answers a query's first question from the zone list, most specific
/// zone first when several could hold the name (e.g. a host serving both
/// a TLD zone and a child zone). The reference authoritative semantics
/// that the high-volume tables in [`crate::bigzone`] reproduce.
pub fn answer(zones: &[Zone], query: &Message) -> Message {
    let mut resp = Message::response_to(query);
    let Some(q) = query.questions.first() else {
        resp.rcode = Rcode::FormErr;
        return resp;
    };
    let mut zones: Vec<&Zone> = zones.iter().collect();
    zones.sort_by_key(|z| std::cmp::Reverse(z.origin().num_labels()));
    for zone in zones {
        match zone.lookup(&q.name, q.qtype) {
            ZoneLookup::NotInZone => continue,
            ZoneLookup::Answer(records) => {
                resp.authoritative = true;
                resp.answers = records;
                return resp;
            }
            ZoneLookup::Referral {
                ns_records, glue, ..
            } => {
                resp.authoritative = false;
                resp.authorities = ns_records;
                resp.additionals = glue;
                return resp;
            }
            ZoneLookup::NoData => {
                resp.authoritative = true;
                return resp;
            }
            ZoneLookup::NxDomain => {
                resp.authoritative = true;
                resp.rcode = Rcode::NxDomain;
                return resp;
            }
        }
    }
    resp.rcode = Rcode::ServFail; // not authoritative for anything queried
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::DomainName;
    use crate::wire::{Message, RecordData, RecordType};
    use webdep_netsim::FaultKind;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn zone() -> Zone {
        let mut z = Zone::new(n("example.com"));
        z.add_a(n("www.example.com"), Ipv4Addr::new(192, 0, 2, 2));
        z
    }

    const SERVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);

    /// Serves `query` from [`zone`] with no fault plan; `None` when the
    /// datagram is swallowed.
    fn serve(query: &[u8]) -> Option<Message> {
        let zones = [zone()];
        let reply = serve_query(query, SERVER, None, |q| answer(&zones, &q));
        reply.payload.map(|p| decode(&p).unwrap())
    }

    #[test]
    fn answers_a_query() {
        let resp = serve(&encode(&Message::query(
            99,
            n("www.example.com"),
            RecordType::A,
        )))
        .unwrap();
        assert_eq!(resp.id, 99);
        assert!(resp.is_response && resp.authoritative);
        assert_eq!(
            resp.answers[0].data,
            RecordData::A(Ipv4Addr::new(192, 0, 2, 2))
        );
    }

    #[test]
    fn garbage_and_responses_are_swallowed() {
        assert_eq!(serve(b"\x01\x02garbage"), None);
        let mut fake_resp = Message::query(1, n("www.example.com"), RecordType::A);
        fake_resp.is_response = true;
        assert_eq!(serve(&encode(&fake_resp)), None);
    }

    #[test]
    fn malformed_queries_have_one_policy() {
        // No question: FormErr.
        let mut empty = Message::query(5, n("www.example.com"), RecordType::A);
        empty.questions.clear();
        let resp = serve(&encode(&empty)).unwrap();
        assert_eq!((resp.id, resp.rcode), (5, Rcode::FormErr));
        // Several questions: the first one is answered.
        let mut multi = Message::query(6, n("www.example.com"), RecordType::A);
        multi.questions.push(multi.questions[0].clone());
        multi.questions[1].name = n("other.org");
        let resp = serve(&encode(&multi)).unwrap();
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn fault_plan_applies_to_the_answer() {
        let query = encode(&Message::query(3, n("www.example.com"), RecordType::A));
        let zones = [zone()];
        let serve_with = |kind| {
            let plan = FaultPlan::flaky(1, 1.0, 1.0, vec![kind]);
            serve_query(&query, SERVER, Some(&plan), |q| answer(&zones, &q))
        };
        assert_eq!(serve_with(FaultKind::Drop), FaultedReply::swallowed());
        let refused = decode(&serve_with(FaultKind::ServFail).payload.unwrap()).unwrap();
        assert_eq!((refused.id, refused.rcode), (3, Rcode::ServFail));
        // A delay is returned with the clean answer, never slept here.
        let delayed = serve_with(FaultKind::Delay);
        assert!(delayed.delay.is_some());
        assert_eq!(
            delayed.payload,
            serve_query(&query, SERVER, None, |q| answer(&zones, &q)).payload
        );
    }

    #[test]
    fn servfail_outside_all_zones() {
        let q = Message::query(1, n("other.org"), RecordType::A);
        let resp = answer(&[zone()], &q);
        assert_eq!(resp.rcode, Rcode::ServFail);
    }

    #[test]
    fn most_specific_zone_wins() {
        // Host serves both `com` (delegating example.com away) and
        // `example.com` itself; the child zone must answer whatever the
        // order the zones are given in.
        let mut com = Zone::new(n("com"));
        com.delegate(
            n("example.com"),
            &[n("ns1.example.com")],
            &[(n("ns1.example.com"), Ipv4Addr::new(192, 0, 2, 53))],
        );
        let q = Message::query(1, n("www.example.com"), RecordType::A);
        let resp = answer(&[com, zone()], &q);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(!resp.answers.is_empty(), "child zone should answer");
    }
}
