//! Serving handshakes: one pure function from a ClientHello datagram to the
//! server flight, run inline by whichever responder the hello reached.

use crate::cert::CertRef;
use crate::fault::apply_tls_fault;
use crate::handshake::{
    decode_client_hello, encode_alert, encode_server_flight, ALERT_UNRECOGNIZED_NAME,
};
use std::net::Ipv4Addr;
use std::time::Duration;
use webdep_netsim::FaultPlan;

/// Mixes the client's random into the server's: keeps runs deterministic
/// without a clock or RNG in the hot path.
const SERVER_RANDOM_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The cipher every ServerHello names (TLS_AES_128_GCM_SHA256,
/// cosmetically).
const CIPHER: u16 = 0x1301;

/// Serves one ClientHello datagram addressed to `server_ip`, writing the
/// server flight into the empty buffer `out`: a responder's body
/// ([`webdep_netsim::ResponderFn`]).
///
/// A datagram that is not a well-formed flight opening with a ClientHello
/// is swallowed (`None`). Otherwise `lookup` maps the SNI to the chain to
/// present, leaf first, borrowed: `ServerHello` + `Certificate` when it
/// finds one, the `unrecognized_name` alert when it does not. The flight
/// then runs through `faults`, keyed on `(server_ip, sni)` (see
/// [`apply_tls_fault`]); the returned delay is compared with the client's
/// window, never slept.
pub fn serve_hello<'c, C>(
    payload: &[u8],
    server_ip: Ipv4Addr,
    faults: Option<&FaultPlan>,
    out: &mut Vec<u8>,
    lookup: impl FnOnce(&str) -> Option<C>,
) -> Option<Duration>
where
    C: IntoIterator<Item = CertRef<'c>>,
    C::IntoIter: ExactSizeIterator,
{
    let (random, sni) = decode_client_hello(payload)?;
    match lookup(sni) {
        Some(chain) => {
            encode_server_flight(out, random.wrapping_mul(SERVER_RANDOM_MIX), CIPHER, chain)
        }
        None => encode_alert(out, ALERT_UNRECOGNIZED_NAME),
    }
    match faults {
        Some(plan) => apply_tls_fault(plan, server_ip, sni, out),
        None => Some(Duration::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Certificate;
    use crate::handshake::{decode_flight, encode_flight, HandshakeMessage};
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

    /// Serves `hello` from a one-site store, under `faults`: the decoded
    /// flight, `None` when swallowed.
    fn serve(hello: &[u8], faults: Option<&FaultPlan>) -> Option<Vec<HandshakeMessage>> {
        let chain = chain();
        let mut out = Vec::new();
        serve_hello(hello, SERVER, faults, &mut out, |sni| {
            (sni == "site.example").then(|| chain.iter().map(CertRef::Whole))
        })?;
        Some(decode_flight(&out).unwrap())
    }

    fn hello(sni: &str) -> Vec<u8> {
        encode_flight(&[HandshakeMessage::ClientHello {
            random: 7,
            sni: sni.into(),
        }])
    }

    #[test]
    fn answers_hello_with_chain() {
        assert_eq!(
            serve(&hello("site.example"), None).unwrap(),
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
        assert_eq!(
            serve(&hello("other.example"), None).unwrap(),
            vec![HandshakeMessage::Alert(ALERT_UNRECOGNIZED_NAME)]
        );
    }

    #[test]
    fn garbage_and_non_hellos_are_swallowed() {
        assert_eq!(serve(b"\xFF\xFF", None), None);
        let alert = encode_flight(&[HandshakeMessage::Alert(1)]);
        assert_eq!(serve(&alert, None), None);
    }

    #[test]
    fn fault_plan_applies_to_the_flight() {
        let plan = FaultPlan::flaky(1, 1.0, 1.0, vec![FaultKind::ServFail]);
        assert_eq!(
            serve(&hello("site.example"), Some(&plan)).unwrap(),
            vec![HandshakeMessage::Alert(ALERT_INTERNAL_ERROR)]
        );
    }
}
