//! Handshake messages and framing.
//!
//! Each datagram carries one or more frames: `[type: u8][len: u32][body]`.
//! The client's flight is a single `ClientHello`; the server's flight is
//! `ServerHello` followed by `Certificate` (or a single `Alert`).
//!
//! On the scan path nothing is owned: the scanner and the servers write
//! their flights into buffers they are lent ([`encode_server_flight`]),
//! and the scanner reads the served chain in place
//! ([`crate::ChainView`]). The owned [`HandshakeMessage`] with
//! [`encode_flight`] and [`decode_flight`] is the reference form for tests
//! and tools.

use crate::cert::{encode_certs_into, CertRef, CertificateChain, ChainView};
use bytes::BufMut;

const TYPE_CLIENT_HELLO: u8 = 1;
const TYPE_SERVER_HELLO: u8 = 2;
const TYPE_CERTIFICATE: u8 = 11;
const TYPE_ALERT: u8 = 21;

/// Maximum frame body we accept (defensive bound).
const MAX_FRAME: usize = 1 << 20;

/// Handshake protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeMessage {
    /// Client's opening flight, carrying the server name indication.
    ClientHello {
        /// Client nonce.
        random: u64,
        /// Requested server name.
        sni: String,
    },
    /// Server acceptance.
    ServerHello {
        /// Server nonce.
        random: u64,
        /// Negotiated cipher suite id (cosmetic in the simulation).
        cipher: u16,
    },
    /// The server's certificate chain.
    Certificate(CertificateChain),
    /// Fatal alert with a code (e.g. unrecognized name).
    Alert(u8),
}

/// Alert code for "unrecognized_name" (mirrors TLS's 112).
pub const ALERT_UNRECOGNIZED_NAME: u8 = 112;

/// Errors from parsing handshake bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// Frame header or body incomplete.
    Truncated,
    /// Unknown frame type.
    UnknownType(u8),
    /// Frame body failed to parse.
    Malformed,
    /// Frame length exceeds the defensive bound.
    Oversized(usize),
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::Truncated => write!(f, "truncated handshake data"),
            TlsError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            TlsError::Malformed => write!(f, "malformed frame body"),
            TlsError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for TlsError {}

impl HandshakeMessage {
    fn frame_type(&self) -> u8 {
        match self {
            HandshakeMessage::ClientHello { .. } => TYPE_CLIENT_HELLO,
            HandshakeMessage::ServerHello { .. } => TYPE_SERVER_HELLO,
            HandshakeMessage::Certificate(_) => TYPE_CERTIFICATE,
            HandshakeMessage::Alert(_) => TYPE_ALERT,
        }
    }
}

/// Encodes a sequence of messages into one datagram payload.
pub fn encode_flight(messages: &[HandshakeMessage]) -> Vec<u8> {
    let mut buf = Vec::new();
    for m in messages {
        put_frame(&mut buf, m.frame_type(), |body| match m {
            HandshakeMessage::ClientHello { random, sni } => put_client_hello(body, *random, sni),
            HandshakeMessage::ServerHello { random, cipher } => {
                body.put_u64(*random);
                body.put_u16(*cipher);
            }
            HandshakeMessage::Certificate(chain) => {
                encode_certs_into(chain.certs.iter().map(CertRef::Whole), body)
            }
            HandshakeMessage::Alert(code) => body.put_u8(*code),
        });
    }
    buf
}

/// Encodes the client's flight, a lone `ClientHello`, from a borrowed
/// name into `buf`, replacing what it held: the bytes [`encode_flight`]
/// writes for the same message.
pub(crate) fn encode_client_hello(buf: &mut Vec<u8>, random: u64, sni: &str) {
    buf.clear();
    put_frame(buf, TYPE_CLIENT_HELLO, |body| {
        put_client_hello(body, random, sni)
    });
}

/// Appends a lone fatal `Alert` with `code` to `buf`: the bytes
/// [`encode_flight`] writes for it.
pub(crate) fn encode_alert(buf: &mut Vec<u8>, code: u8) {
    put_frame(buf, TYPE_ALERT, |body| body.put_u8(code));
}

fn put_client_hello(body: &mut Vec<u8>, random: u64, sni: &str) {
    body.put_u64(random);
    body.put_u16(sni.len() as u16);
    body.put_slice(sni.as_bytes());
}

/// Appends the accepting server flight — `ServerHello`, then
/// `Certificate` carrying `certs` leaf first — from borrowed certificates
/// to `buf`: the bytes [`encode_flight`] writes for the same two messages.
pub fn encode_server_flight<'a, I>(buf: &mut Vec<u8>, random: u64, cipher: u16, certs: I)
where
    I: IntoIterator<Item = CertRef<'a>>,
    I::IntoIter: ExactSizeIterator,
{
    put_frame(buf, TYPE_SERVER_HELLO, |body| {
        body.put_u64(random);
        body.put_u16(cipher);
    });
    put_frame(buf, TYPE_CERTIFICATE, |body| encode_certs_into(certs, body));
}

/// Writes one `[type][len][body]` frame, the body straight into `buf`
/// with its length patched in afterwards.
fn put_frame(buf: &mut Vec<u8>, ftype: u8, body: impl FnOnce(&mut Vec<u8>)) {
    buf.put_u8(ftype);
    let len_pos = buf.len();
    buf.put_u32(0);
    body(buf);
    let len = (buf.len() - len_pos - 4) as u32;
    for (slot, byte) in buf[len_pos..].iter_mut().zip(len.to_be_bytes()) {
        *slot = byte;
    }
}

/// Decodes all frames in a datagram payload.
pub fn decode_flight(bytes: &[u8]) -> Result<Vec<HandshakeMessage>, TlsError> {
    frames(bytes)
        .map(|frame| frame.and_then(|(ftype, body)| decode_body(ftype, body)))
        .collect()
}

/// The `ClientHello` a flight opens with, its name borrowed from `bytes`:
/// `Some` exactly when [`decode_flight`] accepts the flight and its first
/// message is a `ClientHello`.
pub fn decode_client_hello(bytes: &[u8]) -> Option<(u64, &str)> {
    let mut frames = frames(bytes);
    let hello = match frames.next()? {
        Ok((TYPE_CLIENT_HELLO, body)) => client_hello(body).ok()?,
        _ => return None,
    };
    frames
        .all(|frame| {
            frame
                .and_then(|(ftype, body)| decode_body(ftype, body))
                .is_ok()
        })
        .then_some(hello)
}

/// What a scanner takes from a server's flight.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ServerFlight<'a> {
    /// The served chain, leaf first, read in place.
    Chain(ChainView<'a>),
    /// A fatal alert's code.
    Alert(u8),
}

/// Reads a server flight in place, frame by frame, collecting nothing:
/// `Some` exactly when [`decode_flight`] accepts the flight and it is a
/// lone `Alert` or a `ServerHello` followed by a `Certificate`. The
/// `ServerHello` is checked and skipped; the `Certificate` body is checked
/// whole and viewed.
pub(crate) fn decode_server_flight(bytes: &[u8]) -> Option<ServerFlight<'_>> {
    let mut frames = frames(bytes);
    match (frames.next(), frames.next(), frames.next()) {
        (Some(Ok((TYPE_ALERT, &[code]))), None, None) => Some(ServerFlight::Alert(code)),
        (Some(Ok((TYPE_SERVER_HELLO, hello))), Some(Ok((TYPE_CERTIFICATE, body))), None)
            if hello.len() == 10 =>
        {
            ChainView::parse(body).map(ServerFlight::Chain)
        }
        _ => None,
    }
}

/// The `(type, body)` frames of a payload, in order; a framing error is
/// the last item.
fn frames(bytes: &[u8]) -> impl Iterator<Item = Result<(u8, &[u8]), TlsError>> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        if pos >= bytes.len() {
            return None;
        }
        let frame = frame_at(bytes, pos);
        pos = match &frame {
            Ok((_, body)) => pos + 5 + body.len(),
            Err(_) => bytes.len(),
        };
        Some(frame)
    })
}

/// The frame starting at `pos`.
fn frame_at(bytes: &[u8], pos: usize) -> Result<(u8, &[u8]), TlsError> {
    let ftype = bytes[pos];
    let len_bytes = bytes.get(pos + 1..pos + 5).ok_or(TlsError::Truncated)?;
    let len = u32::from_be_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(TlsError::Oversized(len));
    }
    let body = bytes
        .get(pos + 5..pos + 5 + len)
        .ok_or(TlsError::Truncated)?;
    Ok((ftype, body))
}

fn client_hello(body: &[u8]) -> Result<(u64, &str), TlsError> {
    if body.len() < 10 {
        return Err(TlsError::Malformed);
    }
    let random = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
    let sni_len = u16::from_be_bytes([body[8], body[9]]) as usize;
    let sni = body.get(10..10 + sni_len).ok_or(TlsError::Malformed)?;
    let sni = std::str::from_utf8(sni).map_err(|_| TlsError::Malformed)?;
    Ok((random, sni))
}

/// A `Certificate` body: the chain, filling the body exactly.
fn certificate(body: &[u8]) -> Result<CertificateChain, TlsError> {
    let mut pos = 0;
    let chain = CertificateChain::decode_from(body, &mut pos).ok_or(TlsError::Malformed)?;
    if pos != body.len() {
        return Err(TlsError::Malformed);
    }
    Ok(chain)
}

fn decode_body(ftype: u8, body: &[u8]) -> Result<HandshakeMessage, TlsError> {
    match ftype {
        TYPE_CLIENT_HELLO => {
            let (random, sni) = client_hello(body)?;
            Ok(HandshakeMessage::ClientHello {
                random,
                sni: sni.to_string(),
            })
        }
        TYPE_SERVER_HELLO => {
            if body.len() != 10 {
                return Err(TlsError::Malformed);
            }
            let random = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
            let cipher = u16::from_be_bytes([body[8], body[9]]);
            Ok(HandshakeMessage::ServerHello { random, cipher })
        }
        TYPE_CERTIFICATE => certificate(body).map(HandshakeMessage::Certificate),
        TYPE_ALERT => {
            if body.len() != 1 {
                return Err(TlsError::Malformed);
            }
            Ok(HandshakeMessage::Alert(body[0]))
        }
        other => Err(TlsError::UnknownType(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Certificate;

    fn chain() -> CertificateChain {
        CertificateChain {
            certs: vec![Certificate {
                serial: 5,
                subject: "example.com".into(),
                san: vec!["*.example.com".into()],
                issuer_id: 1,
                issuer_name: "R11".into(),
                not_before: 0,
                not_after: 100,
                is_ca: false,
            }],
        }
    }

    /// A three-certificate chain whose leaf carries two SANs.
    fn long_chain() -> CertificateChain {
        let root = Certificate {
            serial: 1,
            subject: "Root CA".into(),
            san: vec![],
            issuer_id: 1,
            issuer_name: "Root CA".into(),
            not_before: 0,
            not_after: u64::MAX,
            is_ca: true,
        };
        let inter = Certificate {
            serial: 2,
            subject: "R11".into(),
            issuer_id: 1,
            issuer_name: "Root CA".into(),
            ..root.clone()
        };
        let mut leaf = chain().certs.remove(0);
        leaf.san.push("shop.example.com".into());
        leaf.issuer_id = 2;
        CertificateChain {
            certs: vec![leaf, inter, root],
        }
    }

    /// A view made owned, field by field: what it read of every
    /// certificate, leaf first.
    fn owned(view: ChainView<'_>) -> CertificateChain {
        let certs: Vec<Certificate> = view
            .certs()
            .map(|c| Certificate {
                serial: c.serial,
                subject: c.subject.to_owned(),
                san: c.san().map(str::to_owned).collect(),
                issuer_id: c.issuer_id,
                issuer_name: c.issuer_name.to_owned(),
                not_before: c.not_before,
                not_after: c.not_after,
                is_ca: c.is_ca,
            })
            .collect();
        assert_eq!(view.leaf(), view.certs().next());
        CertificateChain { certs }
    }

    /// A server flight as the scanner reads it, in place, the chain made
    /// owned: the chain or the alert code.
    fn read_shape(bytes: &[u8]) -> Option<Result<CertificateChain, u8>> {
        match decode_server_flight(bytes)? {
            ServerFlight::Chain(view) => Some(Ok(owned(view))),
            ServerFlight::Alert(code) => Some(Err(code)),
        }
    }

    /// The same through [`decode_flight`], which collects owned messages.
    fn collected_shape(bytes: &[u8]) -> Option<Result<CertificateChain, u8>> {
        match decode_flight(bytes).ok()?.as_slice() {
            [HandshakeMessage::Alert(code)] => Some(Err(*code)),
            [HandshakeMessage::ServerHello { .. }, HandshakeMessage::Certificate(chain)] => {
                Some(Ok(chain.clone()))
            }
            _ => None,
        }
    }

    /// Every prefix and every single-bit flip of `bytes`.
    fn mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let cuts = (0..=bytes.len()).map(|cut| bytes[..cut].to_vec());
        let flips = (0..bytes.len() * 8).map(|i| {
            let mut flipped = bytes.to_vec();
            flipped[i / 8] ^= 1 << (i % 8);
            flipped
        });
        cuts.chain(flips)
    }

    /// Reading a server flight in place takes what collecting it took, on
    /// every prefix and every single-bit flip of well-formed and wrongly
    /// shaped flights: the same flights accepted and refused, the same
    /// alert, and a chain view that agrees with the owned decode on every
    /// field of every certificate.
    #[test]
    fn server_flights_read_as_collected() {
        let hello = HandshakeMessage::ServerHello {
            random: 9,
            cipher: 0x1301,
        };
        let cert = HandshakeMessage::Certificate(chain());
        let long = HandshakeMessage::Certificate(long_chain());
        let flights = [
            encode_flight(&[hello.clone(), cert.clone()]),
            encode_flight(&[hello.clone(), long]),
            encode_flight(&[HandshakeMessage::Alert(ALERT_UNRECOGNIZED_NAME)]),
            encode_flight(&[hello.clone(), cert.clone(), HandshakeMessage::Alert(1)]),
            encode_flight(&[cert, hello]),
        ];
        for flight in flights {
            for bytes in mutations(&flight) {
                assert_eq!(read_shape(&bytes), collected_shape(&bytes), "{bytes:?}");
            }
        }
    }

    /// The chain view accepts exactly the bytes
    /// [`CertificateChain::decode_from`] decodes to their end, and reads
    /// the same certificates from them.
    #[test]
    fn chain_views_read_what_the_owned_decode_reads() {
        for chain in [chain(), long_chain(), CertificateChain { certs: vec![] }] {
            for bytes in mutations(&chain.encode()) {
                let mut pos = 0;
                let decoded = CertificateChain::decode_from(&bytes, &mut pos);
                let whole = decoded.filter(|_| pos == bytes.len());
                assert_eq!(ChainView::parse(&bytes).map(owned), whole, "{bytes:?}");
            }
        }
    }

    #[test]
    fn client_hello_roundtrip() {
        let m = HandshakeMessage::ClientHello {
            random: 0xDEAD_BEEF,
            sni: "www.example.com".into(),
        };
        let enc = encode_flight(std::slice::from_ref(&m));
        assert_eq!(decode_flight(&enc).unwrap(), vec![m]);
    }

    #[test]
    fn server_flight_roundtrip() {
        let flight = vec![
            HandshakeMessage::ServerHello {
                random: 42,
                cipher: 0x1301,
            },
            HandshakeMessage::Certificate(chain()),
        ];
        let enc = encode_flight(&flight);
        assert_eq!(decode_flight(&enc).unwrap(), flight);
    }

    #[test]
    fn server_flight_from_borrowed_certs_matches_encode_flight() {
        let c = chain();
        let leaf = &c.certs[0];
        let flight = vec![
            HandshakeMessage::ServerHello {
                random: 42,
                cipher: 0x1301,
            },
            HandshakeMessage::Certificate(CertificateChain {
                certs: vec![leaf.clone(), leaf.clone()],
            }),
        ];
        let mut buf = Vec::new();
        encode_server_flight(&mut buf, 42, 0x1301, [CertRef::Whole(leaf); 2]);
        assert_eq!(buf, encode_flight(&flight));
    }

    #[test]
    fn client_hello_without_an_owned_name() {
        let m = HandshakeMessage::ClientHello {
            random: 7,
            sni: "www.example.com".into(),
        };
        // Over a buffer holding an earlier flight: replaced, not extended.
        let mut enc = encode_flight(&[HandshakeMessage::Alert(1)]);
        encode_client_hello(&mut enc, 7, "www.example.com");
        assert_eq!(enc, encode_flight(std::slice::from_ref(&m)));
        assert_eq!(decode_client_hello(&enc), Some((7, "www.example.com")));
        let alert = encode_flight(&[HandshakeMessage::Alert(1)]);
        assert_eq!(decode_client_hello(&alert), None);
        // A trailing frame that does not decode spoils the whole flight.
        let mut bad = enc.clone();
        bad.extend_from_slice(&[99, 0, 0, 0, 0]);
        assert!(decode_flight(&bad).is_err());
        assert_eq!(decode_client_hello(&bad), None);
        assert_eq!(decode_client_hello(&enc[..enc.len() - 1]), None);
    }

    #[test]
    fn alert_roundtrip() {
        let m = HandshakeMessage::Alert(ALERT_UNRECOGNIZED_NAME);
        let enc = encode_flight(std::slice::from_ref(&m));
        assert_eq!(decode_flight(&enc).unwrap(), vec![m]);
        let mut alert = Vec::new();
        encode_alert(&mut alert, ALERT_UNRECOGNIZED_NAME);
        assert_eq!(alert, enc);
    }

    #[test]
    fn truncated_rejected() {
        let enc = encode_flight(&[HandshakeMessage::Alert(1)]);
        for cut in [1, 3, enc.len() - 1] {
            assert!(decode_flight(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let raw = [99u8, 0, 0, 0, 0];
        assert_eq!(decode_flight(&raw), Err(TlsError::UnknownType(99)));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut raw = vec![TYPE_ALERT];
        raw.extend_from_slice(&(2_000_000u32).to_be_bytes());
        assert!(matches!(decode_flight(&raw), Err(TlsError::Oversized(_))));
    }
}
