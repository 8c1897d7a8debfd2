//! Serving handshakes: one pure function from a ClientHello datagram to the
//! server flight, run inline by whichever responder the hello reached.

use crate::cert::Certificate;
use crate::fault::apply_tls_fault;
use crate::handshake::{
    decode_client_hello, encode_flight, encode_server_flight, HandshakeMessage,
    ALERT_UNRECOGNIZED_NAME,
};
use std::net::Ipv4Addr;
use webdep_netsim::{FaultPlan, FaultedReply};

/// Mixes the client's random into the server's: keeps runs deterministic
/// without a clock or RNG in the hot path.
const SERVER_RANDOM_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The cipher every ServerHello names (TLS_AES_128_GCM_SHA256,
/// cosmetically).
const CIPHER: u16 = 0x1301;

/// Serves one ClientHello datagram addressed to `server_ip`.
///
/// A datagram that is not a well-formed flight opening with a ClientHello
/// is swallowed. Otherwise `lookup` maps the SNI to the chain to present,
/// leaf first, borrowed: `ServerHello` + `Certificate` when it finds one,
/// the `unrecognized_name` alert when it does not. The flight then runs
/// through `faults`, keyed on `(server_ip, sni)` (see [`apply_tls_fault`]);
/// a returned delay is the caller's to sleep ([`FaultedReply::deliver`]).
pub fn serve_hello<'c, C>(
    payload: &[u8],
    server_ip: Ipv4Addr,
    faults: Option<&FaultPlan>,
    lookup: impl FnOnce(&str) -> Option<C>,
) -> FaultedReply
where
    C: IntoIterator<Item = &'c Certificate>,
    C::IntoIter: ExactSizeIterator,
{
    let Some((random, sni)) = decode_client_hello(payload) else {
        return FaultedReply::swallowed();
    };
    let flight = match lookup(sni) {
        Some(chain) => encode_server_flight(random.wrapping_mul(SERVER_RANDOM_MIX), CIPHER, chain),
        None => encode_flight(&[HandshakeMessage::Alert(ALERT_UNRECOGNIZED_NAME)]),
    };
    match faults {
        Some(plan) => apply_tls_fault(plan, server_ip, sni, flight),
        None => FaultedReply::clean(flight),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::decode_flight;
    use crate::ALERT_INTERNAL_ERROR;
    use webdep_netsim::FaultKind;

    fn chain() -> Vec<Certificate> {
        let root = Certificate {
            serial: 1,
            subject: "Root".into(),
            san: vec![],
            issuer_id: 1,
            issuer_name: "Root".into(),
            not_before: 0,
            not_after: u64::MAX,
            is_ca: true,
        };
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
        vec![leaf, root]
    }

    const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

    /// Serves `hello` from a one-site store, under `faults`.
    fn serve(hello: &[u8], faults: Option<&FaultPlan>) -> FaultedReply {
        let chain = chain();
        serve_hello(hello, SERVER, faults, |sni| {
            (sni == "site.example").then_some(&chain)
        })
    }

    fn hello(sni: &str) -> bytes::Bytes {
        encode_flight(&[HandshakeMessage::ClientHello {
            random: 7,
            sni: sni.into(),
        }])
    }

    #[test]
    fn answers_hello_with_chain() {
        let reply = serve(&hello("site.example"), None);
        let frames = decode_flight(&reply.payload.unwrap()).unwrap();
        assert_eq!(
            frames,
            vec![
                HandshakeMessage::ServerHello {
                    random: 7u64.wrapping_mul(SERVER_RANDOM_MIX),
                    cipher: CIPHER,
                },
                HandshakeMessage::Certificate(crate::cert::CertificateChain { certs: chain() }),
            ]
        );
    }

    #[test]
    fn unknown_sni_gets_alert() {
        let reply = serve(&hello("other.example"), None);
        assert_eq!(
            decode_flight(&reply.payload.unwrap()).unwrap(),
            vec![HandshakeMessage::Alert(ALERT_UNRECOGNIZED_NAME)]
        );
    }

    #[test]
    fn garbage_and_non_hellos_are_swallowed() {
        assert_eq!(serve(b"\xFF\xFF", None), FaultedReply::swallowed());
        let alert = encode_flight(&[HandshakeMessage::Alert(1)]);
        assert_eq!(serve(&alert, None), FaultedReply::swallowed());
    }

    #[test]
    fn fault_plan_applies_to_the_flight() {
        let plan = FaultPlan::flaky(1, 1.0, 1.0, vec![FaultKind::ServFail]);
        let reply = serve(&hello("site.example"), Some(&plan));
        assert_eq!(
            decode_flight(&reply.payload.unwrap()).unwrap(),
            vec![HandshakeMessage::Alert(ALERT_INTERNAL_ERROR)]
        );
    }
}
