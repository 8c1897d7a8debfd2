//! Authoritative serving: one pure function from a query datagram to the
//! reply, run inline by whichever responder the query reached.

use crate::fault::{apply_dns_fault, ReplyShape};
use crate::name::DomainName;
use crate::wire::{Message, MessageView, NameBuf, Rcode, RecordType, Reply};
use crate::zone::{Zone, ZoneLookup};
use std::net::Ipv4Addr;
use std::time::Duration;
use webdep_netsim::FaultPlan;

/// The question a responder answers: the query's first, its name in
/// presentation form (lowercase, as [`DomainName::as_str`] gives it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuestionRef<'a> {
    /// Queried name.
    pub name: &'a str,
    /// Queried type.
    pub qtype: RecordType,
}

/// Serves one query datagram addressed to `server_ip`, writing the reply
/// into the empty buffer `out`: a responder's body
/// ([`webdep_netsim::ResponderFn`]).
///
/// An undecodable datagram or one flagged as a response is swallowed
/// (`None`), like a real server drops it. A query without a question is
/// answered FormErr; any other query is answered by `answer`, which sees
/// the first question of a multi-question query and writes its records
/// into the [`Reply`] (the header and the echoed questions are already
/// written). The query is read in place ([`MessageView`]) and the reply is
/// written once, straight into `out`. It runs through `faults` keyed on
/// `(server_ip, qname)` (see [`apply_dns_fault`]); the returned delay is
/// compared with the client's window, never slept.
pub fn serve_query(
    payload: &[u8],
    server_ip: Ipv4Addr,
    faults: Option<&FaultPlan>,
    out: &mut Vec<u8>,
    answer: impl FnOnce(QuestionRef<'_>, &mut Reply<'_>),
) -> Option<Duration> {
    let mut text = NameBuf::new();
    let query = match MessageView::parse_in(payload, &mut text) {
        Ok(q) if !q.is_response() => q,
        _ => return None,
    };
    let question = query.questions().next().map(|q| QuestionRef {
        name: q.name.expand(&mut text),
        qtype: q.qtype,
    });
    let write = |shape: ReplyShape, buf: &mut Vec<u8>| {
        let mut reply = Reply::new(buf, &query, question.map_or("", |q| q.name));
        match (shape, question) {
            (ReplyShape::ServFail, _) => reply.set_rcode(Rcode::ServFail),
            (_, None) => reply.set_rcode(Rcode::FormErr),
            (_, Some(q)) => answer(q, &mut reply),
        }
        reply.finish();
        if shape == ReplyShape::GarbledId {
            buf[0] ^= 0xFF;
            buf[1] ^= 0xFF;
        }
    };
    match faults {
        Some(plan) => apply_dns_fault(plan, server_ip, question.map_or("", |q| q.name), out, write),
        None => {
            write(ReplyShape::Answer, out);
            Some(Duration::ZERO)
        }
    }
}

/// Answers `question` from the zone list through the reference [`answer`]:
/// how a responder over [`Zone`]s (tests, tools) serves through
/// [`serve_query`].
pub fn answer_from_zones(zones: &[Zone], question: QuestionRef<'_>, reply: &mut Reply<'_>) {
    let name = DomainName::from_validated(question.name.to_owned());
    reply.write_message(&answer(zones, &Message::query(0, name, question.qtype)));
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
    use crate::wire::{decode, encode, RecordData};
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

    /// Serves `query` from `zones` under `plan`: the reply's bytes and
    /// delay, `None` when the datagram is swallowed.
    fn serve_with(
        query: &[u8],
        zones: &[Zone],
        plan: Option<&FaultPlan>,
    ) -> Option<(Vec<u8>, Duration)> {
        let mut out = Vec::new();
        let delay = serve_query(query, SERVER, plan, &mut out, |q, r| {
            answer_from_zones(zones, q, r)
        })?;
        Some((out, delay))
    }

    /// Serves `query` from [`zone`] with no fault plan; `None` when the
    /// datagram is swallowed.
    fn serve(query: &[u8]) -> Option<Message> {
        let (reply, _) = serve_with(query, &[zone()], None)?;
        Some(decode(&reply).unwrap())
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
        let faulted = |kind| {
            let plan = FaultPlan::flaky(1, 1.0, 1.0, vec![kind]);
            serve_with(&query, &zones, Some(&plan))
        };
        assert_eq!(faulted(FaultKind::Drop), None);
        let refused = decode(&faulted(FaultKind::ServFail).unwrap().0).unwrap();
        assert_eq!((refused.id, refused.rcode), (3, Rcode::ServFail));
        // A delay is returned with the clean answer, never slept here.
        let (delayed, delay) = faulted(FaultKind::Delay).unwrap();
        assert!(!delay.is_zero());
        assert_eq!(
            Some((delayed, Duration::ZERO)),
            serve_with(&query, &zones, None)
        );
    }

    /// Every fault reshapes the one clean reply: a prefix of it, the same
    /// bytes with the id flipped, or the bare ServFail the query's own
    /// view yields.
    #[test]
    fn faults_reshape_the_one_encoded_reply() {
        let query = Message::query(3, n("www.example.com"), RecordType::A);
        let wire = encode(&query);
        let zones = [zone()];
        let (clean, _) = serve_with(&wire, &zones, None).unwrap();
        let faulted = |kind| {
            let plan = FaultPlan::flaky(1, 1.0, 1.0, vec![kind]);
            serve_with(&wire, &zones, Some(&plan)).unwrap().0
        };
        let truncated = faulted(FaultKind::Truncate);
        assert_eq!(truncated, clean[..clean.len() / 2]);
        assert!(decode(&truncated).is_err());
        let garbled = faulted(FaultKind::Garble);
        assert_eq!(garbled[2..], clean[2..]);
        assert_eq!([garbled[0], garbled[1]], [clean[0] ^ 0xFF, clean[1] ^ 0xFF]);
        let mut refusal = Message::response_to(&query);
        refusal.rcode = Rcode::ServFail;
        assert_eq!(faulted(FaultKind::ServFail), encode(&refusal));
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
