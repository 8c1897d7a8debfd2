//! The owned handshake messages: the reference form the in-place flight
//! readers are tested against. [`decode_flight`] decodes every frame of a
//! flight into an owned message, so a flight the hello and server-flight
//! readers accept must decode whole here, and [`encode_flight`] writes the
//! bytes the borrowed encoders write for the same messages. Nothing
//! outside the tests builds one.

use super::{
    client_hello, frames, put_client_hello, put_frame, TlsError, TYPE_ALERT, TYPE_CERTIFICATE,
    TYPE_CLIENT_HELLO, TYPE_SERVER_HELLO,
};
use crate::cert::{encode_certs_into, CertRef, CertificateChain};
use bytes::BufMut;

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

/// Decodes all frames in a datagram payload.
pub fn decode_flight(bytes: &[u8]) -> Result<Vec<HandshakeMessage>, TlsError> {
    frames(bytes)
        .map(|frame| frame.and_then(|(ftype, body)| decode_body(ftype, body)))
        .collect()
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
