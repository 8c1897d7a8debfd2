//! Property tests for the DNS wire codec: roundtrip over arbitrary valid
//! messages and no-panic over arbitrary bytes (a network-facing decoder
//! must never trust its input).

use crate::bigzone::{Delegation, DelegationTable};
use crate::name::{DomainName, MAX_LABEL_LEN, MAX_NAME_LEN};
use crate::server::serve_query;
use crate::wire::{
    decode, encode, Message, MessageView, Question, RData, Rcode, Record, RecordData, RecordType,
    RecordView,
};
use crate::zone::{answer_from_zones, Zone};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;
use webdep_netsim::{FaultKind, FaultPlan};

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9_-]{1,12}").expect("valid regex")
}

fn arb_name() -> impl Strategy<Value = DomainName> {
    prop::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| DomainName::parse(&labels.join(".")).expect("labels are valid"))
}

fn arb_rdata() -> impl Strategy<Value = RecordData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RecordData::A(o.into())),
        arb_name().prop_map(RecordData::Ns),
        arb_name().prop_map(RecordData::Cname),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(name, ttl, data)| Record { name, ttl, data })
}

fn arb_qtype() -> impl Strategy<Value = RecordType> {
    prop_oneof![
        Just(RecordType::A),
        Just(RecordType::Ns),
        Just(RecordType::Cname),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        arb_name(),
        arb_qtype(),
        prop::collection::vec(arb_record(), 0..6),
        prop::collection::vec(arb_record(), 0..4),
        prop::collection::vec(arb_record(), 0..4),
        0u16..4,
    )
        .prop_map(
            |(id, is_response, authoritative, rd, qname, qtype, answers, auth, add, rcode)| {
                let mut m = Message::query(id, qname, qtype);
                m.is_response = is_response;
                m.authoritative = authoritative;
                m.recursion_desired = rd;
                m.rcode = Rcode::from_code(rcode);
                m.answers = answers;
                m.authorities = auth;
                m.additionals = add;
                m
            },
        )
}

/// One raw wire label: a valid one (mixed case), one with an embedded
/// `.`, an empty one, one of 64 or more bytes (with and without a `.`
/// that splits it into valid labels), one with a character outside
/// `[A-Za-z0-9_-]`, or arbitrary bytes (usually not UTF-8).
fn arb_raw_label() -> impl Strategy<Value = Vec<u8>> {
    let re = |p: &str| proptest::string::string_regex(p).expect("valid regex");
    prop_oneof![
        re("[a-zA-Z0-9_-]{1,12}").prop_map(String::into_bytes),
        re("[a-z]{0,3}\\.[a-zA-Z]{0,3}").prop_map(String::into_bytes),
        Just(Vec::new()),
        re("[a-z]{64,70}").prop_map(String::into_bytes),
        re("[a-z]{30,60}\\.[a-z]{30,60}").prop_map(String::into_bytes),
        re("[a-z]{0,3}[ *.~]{1,2}").prop_map(String::into_bytes),
        prop::collection::vec(any::<u8>(), 1..6),
    ]
}

/// A question-only message whose name is `labels` written raw. A label's
/// length byte of 0 is the name terminator, so the name ends at the first
/// empty label; the returned labels are the ones the wire name carries.
fn raw_question(labels: &[Vec<u8>]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let carried: Vec<Vec<u8>> = labels
        .iter()
        .take_while(|l| !l.is_empty())
        .cloned()
        .collect();
    let mut bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
    for l in &carried {
        bytes.push(l.len() as u8);
        bytes.extend_from_slice(l);
    }
    bytes.extend_from_slice(&[0, 0, 1, 0, 1]);
    (bytes, carried)
}

/// How a generated name ends: at the root's terminator, or with a pointer
/// to a label start written before (this name's own included, which
/// loops), to any offset up to one past the pointer (inside a label, in
/// the header, at itself or forward), or to itself.
#[derive(Debug, Clone)]
enum Tail {
    Root,
    LabelStart(usize),
    Anywhere(usize),
    Itself,
}

fn arb_tail() -> impl Strategy<Value = Tail> {
    prop_oneof![
        Just(Tail::Root),
        any::<usize>().prop_map(Tail::LabelStart),
        any::<usize>().prop_map(Tail::Anywhere),
        Just(Tail::Itself),
    ]
}

/// Labels of 59 to 64 bytes, so that four of them (63 + 63 + 63 + 61
/// bytes joined by dots make the longest name, 253) land on either side
/// of the label and name limits; one may end in a dot.
fn arb_limit_label() -> impl Strategy<Value = Vec<u8>> {
    let re = |p: &str| proptest::string::string_regex(p).expect("valid regex");
    prop_oneof![
        re("[a-z]{59,64}").prop_map(String::into_bytes),
        re("[a-z]{58,63}\\.").prop_map(String::into_bytes),
    ]
}

/// One name: a few raw labels (valid, mixed case, dotted, empty, over-long,
/// at the limits, arbitrary bytes) and how it ends.
fn arb_name_spec() -> impl Strategy<Value = (Vec<Vec<u8>>, Tail)> {
    let label = prop_oneof![arb_raw_label(), arb_limit_label(), arb_limit_label()];
    (prop::collection::vec(label, 0..5), arb_tail())
}

/// A message of the names `specs`, written raw: the first as the question
/// (type A), each later one as the target of an NS answer owned by the
/// root. Label starts are remembered as they are written, so a pointer can
/// aim at any of them.
fn compressed_message(specs: &[(Vec<Vec<u8>>, Tail)]) -> Vec<u8> {
    let answers = specs.len().saturating_sub(1) as u8;
    let mut bytes = vec![0, 9, 0, 0, 0, 1, 0, answers, 0, 0, 0, 0];
    let mut starts: Vec<usize> = Vec::new();
    for (i, (labels, tail)) in specs.iter().enumerate() {
        let mut rdlen_at = None;
        if i > 0 {
            // Root owner, NS, IN, TTL, then the length patched below.
            bytes.extend_from_slice(&[0, 0, 2, 0, 1, 0, 0, 0, 60, 0, 0]);
            rdlen_at = Some(bytes.len() - 2);
        }
        let name_at = bytes.len();
        // A label's length byte of 0 ends the name there.
        for label in labels.iter().take_while(|l| !l.is_empty()) {
            starts.push(bytes.len());
            bytes.push(label.len() as u8);
            bytes.extend_from_slice(label);
        }
        let here = bytes.len();
        let target = match *tail {
            Tail::Root => None,
            Tail::LabelStart(k) => starts.get(k % starts.len().max(1)).copied(),
            Tail::Anywhere(k) => Some(k % (here + 2)),
            Tail::Itself => Some(here),
        };
        match target {
            Some(at) => bytes.extend_from_slice(&(0xC000 | (at as u16 & 0x3FFF)).to_be_bytes()),
            None => bytes.push(0),
        }
        match rdlen_at {
            Some(at) => {
                let rdlen = (bytes.len() - name_at) as u16;
                let [hi, lo] = rdlen.to_be_bytes();
                (bytes[at], bytes[at + 1]) = (hi, lo);
            }
            None => bytes.extend_from_slice(&[0, 1, 0, 1]),
        }
    }
    bytes
}

proptest! {
    /// The view's name check accepts and refuses exactly what the
    /// reference's byte-by-byte check (`decode`) does, and reads the same
    /// names, on messages built to probe it: compression pointers to label
    /// starts written before (so a suffix already checked is joined by its
    /// length), into labels, into the header, forward, to themselves and
    /// around loops; dots and uppercase inside labels; labels and names at
    /// the 63-byte label and 253-byte name limits. The serving path
    /// answers or swallows each like the reference.
    #[test]
    fn the_name_check_matches_the_reference_on_compressed_names(
        specs in prop::collection::vec(arb_name_spec(), 1..6),
    ) {
        let bytes = compressed_message(&specs);
        view_agrees_with_decode(&bytes);
        check_served(&bytes);
        // Each single bit flipped, too.
        for at in (0..bytes.len()).step_by(7) {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (at % 8);
            view_agrees_with_decode(&flipped);
        }
    }

    /// The same at the limits a joined suffix must keep: a name of one
    /// label and a pointer into a long name checked before, its text one
    /// or two bytes either side of 253; and a chain of names, each a label
    /// and a pointer to the one before, either side of 32 pointer hops.
    #[test]
    fn joined_suffixes_keep_the_name_and_pointer_limits(
        lens in prop::collection::vec(55usize..64, 4..5),
        into in 0usize..4,
        slack in 0usize..5,
        upper in any::<bool>(),
        chain in 28usize..38,
    ) {
        let label = |n: usize| vec![if upper { b'A' } else { b'a' }; n];
        let long: Vec<Vec<u8>> = lens.iter().map(|&n| label(n)).collect();
        // The text of the long name from label `into` on.
        let suffix: usize = lens[into..].iter().sum::<usize>() + lens.len() - into - 1;
        let mut specs = vec![(long, Tail::Root)];
        if let Some(first) = (MAX_NAME_LEN + slack).checked_sub(suffix + 3).filter(|&n| n > 0) {
            if first <= MAX_LABEL_LEN {
                specs.push((vec![label(first)], Tail::LabelStart(into)));
            }
        }
        view_agrees_with_decode(&compressed_message(&specs));
        // Each link of the chain points at the label of the one before.
        let mut links = vec![(vec![label(1)], Tail::Root)];
        links.extend((1..chain).map(|i| (vec![label(1)], Tail::LabelStart(i - 1))));
        view_agrees_with_decode(&compressed_message(&links));
    }

    /// The decoder accepts a wire name iff `DomainName::parse` accepts its
    /// dot-joined labels, and yields the same name.
    #[test]
    fn decoded_names_match_parse(labels in prop::collection::vec(arb_raw_label(), 0..6)) {
        let (bytes, carried) = raw_question(&labels);
        let joined = carried.join(&b'.');
        let parsed = std::str::from_utf8(&joined).ok().and_then(|s| DomainName::parse(s).ok());
        match (decode(&bytes), parsed) {
            (Ok(msg), Some(want)) => prop_assert_eq!(&msg.questions[0].name, &want),
            (Err(_), None) => {}
            (got, want) => prop_assert!(false, "{:?}: decode {:?}, parse {:?}", joined, got, want),
        }
    }

    /// encode → decode is the identity on arbitrary valid messages,
    /// including heavy name repetition (compression pointers).
    #[test]
    fn roundtrip(msg in arb_message()) {
        let bytes = encode(&msg);
        let back = decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(back, msg);
    }

    /// Arbitrary bytes never panic the decoder (Err or Ok, never abort),
    /// nor the serving path.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode(&bytes);
        check_served(&bytes);
    }

    /// A valid query with a few bits flipped never panics the serving path,
    /// which swallows or answers it by the one malformed-query policy.
    #[test]
    fn bitflipped_queries_are_served_safely(
        qname in arb_name(),
        qtype in arb_qtype(),
        id in any::<u16>(),
        flips in prop::collection::vec((any::<u64>(), 0u8..8), 1..4),
    ) {
        let mut bytes = encode(&Message::query(id, qname, qtype)).to_vec();
        for (pos_seed, bit) in flips {
            let pos = (pos_seed as usize) % bytes.len();
            bytes[pos] ^= 1 << bit;
        }
        check_served(&bytes);
    }

    /// Truncating a valid message at any point yields an error or a valid
    /// (shorter) parse — never a panic.
    #[test]
    fn truncation_is_safe(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let bytes = encode(&msg);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let _ = decode(&bytes[..cut]);
    }

    /// The borrowed view accepts exactly what `decode` accepts and yields
    /// the same fields: on arbitrary bytes, on raw (often invalid) wire
    /// names, and on truncated or mutated encodings of valid messages.
    #[test]
    fn view_matches_decode_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        view_agrees_with_decode(&bytes);
    }

    #[test]
    fn view_matches_decode_on_raw_names(labels in prop::collection::vec(arb_raw_label(), 0..6)) {
        view_agrees_with_decode(&raw_question(&labels).0);
    }

    #[test]
    fn view_matches_decode_on_mangled_encodings(
        msg in arb_message(),
        cut_frac in 0.0f64..1.0,
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let bytes = encode(&msg).to_vec();
        view_agrees_with_decode(&bytes);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        view_agrees_with_decode(&bytes[..cut]);
        let mut flipped = bytes.clone();
        flipped[(pos_seed as usize) % bytes.len()] ^= 1 << bit;
        view_agrees_with_decode(&flipped);
    }

    /// A reply written through the borrowed encoder is the bytes `encode`
    /// writes for the owned response: the query's header bits and
    /// questions, the responder's flags and records, the same pointers.
    #[test]
    fn reply_writes_what_encode_writes(query in arb_message(), resp in arb_message()) {
        let mut query = query;
        query.is_response = false;
        let mut reply = Vec::new();
        let delay = serve_query(&encode(&query), Ipv4Addr::new(192, 0, 2, 1), None, &mut reply, |_, r| {
            r.write_message(&resp)
        });
        let want = Message {
            id: query.id,
            is_response: true,
            authoritative: resp.authoritative,
            recursion_desired: query.recursion_desired,
            rcode: resp.rcode,
            questions: query.questions.clone(),
            answers: resp.answers.clone(),
            authorities: resp.authorities.clone(),
            additionals: resp.additionals.clone(),
        };
        prop_assert_eq!(delay, Some(Duration::ZERO));
        prop_assert_eq!(reply, encode(&want));
    }

    /// Bit flips never panic and, if they decode, yield a well-formed
    /// message (exercises the pointer-loop and bounds guards).
    #[test]
    fn bitflips_are_safe(msg in arb_message(), pos_seed in any::<u64>(), bit in 0u8..8) {
        let bytes = encode(&msg).to_vec();
        let mut mutated = bytes.clone();
        if !mutated.is_empty() {
            let pos = (pos_seed as usize) % mutated.len();
            mutated[pos] ^= 1 << bit;
            let _ = decode(&mutated);
        }
    }
}

/// The owned message a view's accessors yield, built field by field.
fn viewed(view: MessageView<'_>) -> Message {
    let record = |r: RecordView<'_>| Record {
        name: r.owner.to_name(),
        ttl: r.ttl,
        data: match r.data {
            RData::A(ip) => RecordData::A(ip),
            RData::Ns(n) => RecordData::Ns(n.to_name()),
            RData::Cname(n) => RecordData::Cname(n.to_name()),
        },
    };
    Message {
        id: view.id(),
        is_response: view.is_response(),
        authoritative: view.authoritative(),
        recursion_desired: view.recursion_desired(),
        rcode: view.rcode(),
        questions: (view.questions())
            .map(|q| Question {
                name: q.name.to_name(),
                qtype: q.qtype,
            })
            .collect(),
        answers: view.answers().map(record).collect(),
        authorities: view.authorities().map(record).collect(),
        additionals: view.additionals().map(record).collect(),
    }
}

/// The view accepts `bytes` exactly when `decode` does, and then yields
/// the same fields. Names compared on the wire agree with the names
/// `decode` built: a question or record owner equals, in place, exactly
/// the names equal to its decoded name.
fn view_agrees_with_decode(bytes: &[u8]) {
    match (MessageView::parse(bytes), decode(bytes)) {
        (Ok(view), Ok(msg)) => {
            assert_eq!(viewed(view), msg);
            let wire: Vec<_> = (view.questions().map(|q| q.name))
                .chain(view.answers().map(|r| r.owner))
                .chain(view.additionals().map(|r| r.owner))
                .collect();
            let decoded: Vec<&DomainName> = (msg.questions.iter().map(|q| &q.name))
                .chain(msg.answers.iter().map(|r| &r.name))
                .chain(msg.additionals.iter().map(|r| &r.name))
                .collect();
            for (a, name_a) in wire.iter().zip(&decoded) {
                assert!(!a.eq_str(&format!("x{name_a}")));
                for (b, name_b) in wire.iter().zip(&decoded) {
                    assert_eq!(
                        a.eq_str(name_b.as_str()),
                        name_a == name_b,
                        "{name_a} {name_b}"
                    );
                    assert_eq!(a.same_as(*b), name_a == name_b, "{name_a} {name_b}");
                }
            }
        }
        (Err(_), Err(_)) => {}
        (view, msg) => panic!("view {:?}, decode {msg:?}", view.map(viewed)),
    }
}

fn name(s: &str) -> DomainName {
    DomainName::parse(s).expect("valid test name")
}

/// Serves `bytes` once over a [`Zone`] answerer and once over a
/// [`DelegationTable`] answerer (and once more under a fault plan, for
/// panics only): an undecodable or response-flagged datagram is
/// swallowed, a query without a question gets FormErr, and any other
/// query gets a response with its id.
fn check_served(bytes: &[u8]) {
    let server = Ipv4Addr::new(192, 0, 2, 53);
    let mut zone = Zone::new(name("example"));
    zone.add_a(name("www.example"), server);
    zone.add_cname(name("alias.example"), name("www.example"));
    zone.delegate(
        name("sub.example"),
        &[name("ns.sub.example")],
        &[(name("ns.sub.example"), server)],
    );
    let zones = [zone];
    let mut table = DelegationTable::new(name("example"));
    table.register(
        name("sub.example"),
        Delegation::new(
            &[name("ns.sub.example")],
            &[(name("ns.sub.example"), server)],
        ),
    );
    let faults = FaultPlan::flaky(1, 1.0, 0.5, FaultKind::ALL.to_vec());
    let _ = serve_query(bytes, server, Some(&faults), &mut Vec::new(), |q, r| {
        answer_from_zones(&zones, q, r)
    });
    let (mut by_zones, mut by_table) = (Vec::new(), Vec::new());
    let replies = [
        (
            serve_query(bytes, server, None, &mut by_zones, |q, r| {
                answer_from_zones(&zones, q, r)
            }),
            by_zones,
        ),
        (
            serve_query(bytes, server, None, &mut by_table, |q, r| {
                table.respond(q, r)
            }),
            by_table,
        ),
    ];
    for (delay, payload) in replies {
        match decode(bytes) {
            Err(_) => assert_eq!(delay, None),
            Ok(q) if q.is_response => assert_eq!(delay, None),
            Ok(q) => {
                assert_eq!(delay, Some(Duration::ZERO), "a query is answered");
                let resp = decode(&payload).expect("a reply decodes");
                assert!(resp.is_response);
                assert_eq!(resp.id, q.id);
                if q.questions.is_empty() {
                    assert_eq!(resp.rcode, Rcode::FormErr);
                }
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A query for `www.example.com A`.
fn vector_query() -> Message {
    Message::query(0x1234, name("www.example.com"), RecordType::A)
}

/// A registry referral with two nameservers and their glue.
fn vector_referral() -> Message {
    let mut r = Message::response_to(&Message::query(7, name("www.example.com"), RecordType::A));
    for ns in ["ns1.prov.net", "ns2.prov.net"] {
        r.authorities.push(Record {
            name: name("example.com"),
            ttl: 3600,
            data: RecordData::Ns(name(ns)),
        });
    }
    for (ns, ip) in [
        ("ns1.prov.net", [60, 0, 0, 2]),
        ("ns2.prov.net", [60, 0, 0, 3]),
    ] {
        r.additionals.push(Record {
            name: name(ns),
            ttl: 3600,
            data: RecordData::A(ip.into()),
        });
    }
    r
}

/// An authoritative CNAME to a CDN edge plus the edge's address.
fn vector_cname_answer() -> Message {
    let mut r = Message::response_to(&Message::query(9, name("Shop.Example.com"), RecordType::A));
    r.authoritative = true;
    r.answers.push(Record {
        name: name("shop.example.com"),
        ttl: 300,
        data: RecordData::Cname(name("e12.cdn-prov.net")),
    });
    r.answers.push(Record {
        name: name("e12.cdn-prov.net"),
        ttl: 300,
        data: RecordData::A([203, 0, 113, 7].into()),
    });
    r
}

/// The encoder's bytes are pinned: compression picks the same pointer
/// targets, so every datagram of a measurement run keeps its length.
#[test]
fn encoder_reproduces_pinned_vectors() {
    for (msg, want) in [
        (
            vector_query(),
            "12340000000100000000000003777777076578616d706c6503636f6d0000010001",
        ),
        (
            vector_referral(),
            "00078000000100000002000203777777076578616d706c6503636f6d0000010001\
             c0100002000100000e10000e036e73310470726f76036e657400c0100002000100000e10\
             0006036e7332c031c02d0001000100000e1000043c000002c0470001000100000e100004\
             3c000003",
        ),
        (
            vector_cname_answer(),
            "0009840000010002000000000473686f70076578616d706c6503636f6d0000010001\
             c00c000500010000012c0012036531320863646e2d70726f76036e657400c02e000100\
             010000012c0004cb007107",
        ),
    ] {
        let got = encode(&msg);
        assert_eq!(hex(&got), want, "{msg:?}");
        assert_eq!(decode(&got).expect("pinned vector decodes"), msg);
    }
}
