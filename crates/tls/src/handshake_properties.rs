//! Property tests for the TLS handshake framing and certificate codec.

use crate::cert::{CertRef, Certificate, CertificateChain, ChainView};
use crate::handshake::{decode_client_hello, decode_flight, encode_flight, HandshakeMessage};
use crate::serve_hello;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;
use webdep_netsim::{FaultKind, FaultPlan};

fn arb_cert() -> impl Strategy<Value = Certificate> {
    (
        any::<u64>(),
        "[a-z0-9.-]{1,40}",
        prop::collection::vec("[a-z0-9.*-]{1,30}", 0..4),
        any::<u32>(),
        "[ -~]{0,40}",
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(serial, subject, san, issuer_id, issuer_name, nb, na, is_ca)| Certificate {
                serial,
                subject,
                san,
                issuer_id,
                issuer_name,
                not_before: nb.min(na),
                not_after: nb.max(na),
                is_ca,
            },
        )
}

fn arb_message() -> impl Strategy<Value = HandshakeMessage> {
    prop_oneof![
        (any::<u64>(), "[a-z0-9.-]{1,50}")
            .prop_map(|(random, sni)| { HandshakeMessage::ClientHello { random, sni } }),
        (any::<u64>(), any::<u16>())
            .prop_map(|(random, cipher)| { HandshakeMessage::ServerHello { random, cipher } }),
        prop::collection::vec(arb_cert(), 0..4)
            .prop_map(|certs| HandshakeMessage::Certificate(CertificateChain { certs })),
        any::<u8>().prop_map(HandshakeMessage::Alert),
    ]
}

/// A flight's opening message: a ClientHello three times in four,
/// otherwise any message.
fn arb_opening() -> impl Strategy<Value = HandshakeMessage> {
    (0u8..4, any::<u64>(), "[a-z0-9.-]{0,30}", arb_message()).prop_map(
        |(pick, random, sni, other)| match pick {
            0 => other,
            _ => HandshakeMessage::ClientHello { random, sni },
        },
    )
}

/// One `[type][len][body]` frame.
fn frame(ftype: u8, body: &[u8]) -> Vec<u8> {
    let mut f = vec![ftype];
    f.extend_from_slice(&(body.len() as u32).to_be_bytes());
    f.extend_from_slice(body);
    f
}

/// What ends a flight: nothing, one message's frame mangled (a bit
/// flipped, cut short, or its body padded by a byte with the length to
/// match), or a frame of a type no message has.
fn arb_trailer() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..5,
        arb_message(),
        any::<u64>(),
        0u8..8,
        prop::collection::vec(any::<u8>(), 0..12),
    )
        .prop_map(|(pick, message, seed, bit, junk)| {
            let whole = encode_flight(&[message]);
            match pick {
                0 => Vec::new(),
                1 => {
                    let mut flipped = whole;
                    let at = seed as usize % flipped.len();
                    flipped[at] ^= 1 << bit;
                    flipped
                }
                2 => whole[..seed as usize % whole.len()].to_vec(),
                3 => {
                    let mut body = whole[5..].to_vec();
                    body.push(bit);
                    frame(whole[0], &body)
                }
                _ => frame([0, 3, 12, 99, 255][seed as usize % 5], &junk),
            }
        })
}

proptest! {
    /// The hello reader takes a flight exactly when the reference decoder
    /// accepts the whole flight and it opens with a ClientHello, and then
    /// reads that hello: over flights of arbitrary messages, most opening
    /// with a hello, ended by a mangled or unknown-type frame or by none.
    #[test]
    fn hello_reader_accepts_what_decode_flight_accepts(
        first in arb_opening(),
        rest in prop::collection::vec(arb_message(), 0..3),
        trailer in arb_trailer(),
    ) {
        let mut bytes = encode_flight(&[first]);
        bytes.extend(encode_flight(&rest));
        bytes.extend(trailer);
        let want = match decode_flight(&bytes).as_deref() {
            Ok([HandshakeMessage::ClientHello { random, sni }, ..]) => Some((*random, sni.clone())),
            _ => None,
        };
        let got = decode_client_hello(&bytes).map(|(random, sni)| (random, sni.to_owned()));
        prop_assert_eq!(got, want);
    }

    /// Flights of arbitrary messages roundtrip exactly.
    #[test]
    fn flight_roundtrip(msgs in prop::collection::vec(arb_message(), 0..5)) {
        let bytes = encode_flight(&msgs);
        let back = decode_flight(&bytes).expect("own encoding must decode");
        prop_assert_eq!(back, msgs);
    }

    /// Arbitrary bytes never panic the flight decoder, nor the serving
    /// path.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = decode_flight(&bytes);
        check_served(&bytes);
    }

    /// A valid ClientHello with a few bits flipped never panics the serving
    /// path, which swallows it or answers it.
    #[test]
    fn bitflipped_hellos_are_served_safely(
        random in any::<u64>(),
        sni in "[a-z0-9.-]{1,30}",
        flips in prop::collection::vec((any::<u64>(), 0u8..8), 1..4),
    ) {
        let mut bytes = encode_flight(&[HandshakeMessage::ClientHello { random, sni }]).to_vec();
        for (pos_seed, bit) in flips {
            let pos = (pos_seed as usize) % bytes.len();
            bytes[pos] ^= 1 << bit;
        }
        check_served(&bytes);
    }

    /// Certificate decode over arbitrary bytes never panics and never
    /// reads out of bounds.
    #[test]
    fn cert_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut pos = 0;
        let _ = Certificate::decode_from(&bytes, &mut pos);
        prop_assert!(pos <= bytes.len());
        let mut pos = 0;
        let chain = CertificateChain::decode_from(&bytes, &mut pos);
        prop_assert!(pos <= bytes.len());
        // The in-place view takes exactly the chains that fill the bytes.
        let whole = chain.is_some() && pos == bytes.len();
        prop_assert_eq!(ChainView::parse(&bytes).is_some(), whole);
    }

    /// Wildcard matching never matches across label boundaries.
    #[test]
    fn wildcard_single_label(host_label in "[a-z]{1,8}", suffix in "[a-z]{1,8}\\.[a-z]{2,3}") {
        let cert = Certificate {
            serial: 1,
            subject: format!("*.{}", suffix),
            san: vec![],
            issuer_id: 0,
            issuer_name: String::new(),
            not_before: 0,
            not_after: u64::MAX,
            is_ca: false,
        };
        let direct = format!("{}.{}", host_label, suffix);
        let nested = format!("a.{}.{}", host_label, suffix);
        let matches_direct = cert.matches_hostname(&direct);
        let matches_nested = cert.matches_hostname(&nested);
        let matches_bare = cert.matches_hostname(&suffix);
        prop_assert!(matches_direct);
        prop_assert!(!matches_nested);
        prop_assert!(!matches_bare);
    }
}

/// Serves `bytes` from a one-name store (and once more under a fault plan,
/// for panics only): a datagram that is not a flight opening with a
/// ClientHello is swallowed, and a hello gets the chain or an alert.
fn check_served(bytes: &[u8]) {
    let server = Ipv4Addr::new(203, 0, 113, 1);
    let leaf = Certificate {
        serial: 2,
        subject: "site.example".into(),
        san: vec![],
        issuer_id: 1,
        issuer_name: "Root".into(),
        not_before: 0,
        not_after: u64::MAX,
        is_ca: false,
    };
    let lookup = |sni: &str| (sni == "site.example").then_some([CertRef::Whole(&leaf)]);
    let faults = FaultPlan::flaky(1, 1.0, 0.5, FaultKind::ALL.to_vec());
    let _ = serve_hello(bytes, server, Some(&faults), &mut Vec::new(), lookup);
    let mut reply = Vec::new();
    let delay = serve_hello(bytes, server, None, &mut reply, lookup);
    let opens_with_hello = matches!(
        decode_flight(bytes).as_deref(),
        Ok([HandshakeMessage::ClientHello { .. }, ..])
    );
    if !opens_with_hello {
        assert_eq!(delay, None);
        return;
    }
    assert_eq!(delay, Some(Duration::ZERO), "a hello is answered");
    let flight = decode_flight(&reply).expect("the server flight decodes");
    assert!(
        matches!(
            flight.as_slice(),
            [HandshakeMessage::Alert(_)]
                | [
                    HandshakeMessage::ServerHello { .. },
                    HandshakeMessage::Certificate(_)
                ]
        ),
        "{flight:?}"
    );
}
