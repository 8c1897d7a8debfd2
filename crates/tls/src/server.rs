//! Threaded TLS server answering handshakes from a certificate store.

use crate::cert::CertStore;
use crate::handshake::{
    decode_flight, encode_flight, encode_server_flight, HandshakeMessage, ALERT_UNRECOGNIZED_NAME,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use webdep_netsim::Endpoint;

/// A TLS responder: one thread per endpoint, answering each `ClientHello`
/// with `ServerHello` + the chain the store selects for its SNI.
pub struct TlsServer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl TlsServer {
    /// Spawns the server thread.
    pub fn spawn(endpoint: Endpoint, store: Arc<CertStore>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || serve_loop(endpoint, store, stop2));
        TlsServer {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread and returns the number of handshakes served.
    pub fn shutdown(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .map(|h| h.join().unwrap_or(0))
            .unwrap_or(0)
    }
}

impl Drop for TlsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_loop(endpoint: Endpoint, store: Arc<CertStore>, stop: Arc<AtomicBool>) -> u64 {
    let mut served = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let dgram = match endpoint.recv_timeout(Duration::from_millis(50)) {
            Ok(d) => d,
            Err(webdep_netsim::NetError::Timeout) => continue,
            Err(_) => break,
        };
        let Ok(frames) = decode_flight(&dgram.payload) else {
            continue; // garbage: drop silently
        };
        let Some(HandshakeMessage::ClientHello { random, sni }) = frames.first() else {
            continue;
        };
        let reply = match store.find(sni) {
            Some(chain) => encode_server_flight(
                // Derive the server random from the client's: keeps runs
                // deterministic without a clock or RNG in the hot path.
                random.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                0x1301, // TLS_AES_128_GCM_SHA256, cosmetically
                &chain.certs,
            ),
            None => encode_flight(&[HandshakeMessage::Alert(ALERT_UNRECOGNIZED_NAME)]),
        };
        let _ = endpoint.send(dgram.src, reply);
        served += 1;
    }
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{Certificate, CertificateChain};
    use bytes::Bytes;
    use webdep_netsim::{NetConfig, Network, Region, SockAddr};

    fn store() -> Arc<CertStore> {
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
        let mut s = CertStore::new();
        s.install(CertificateChain {
            certs: vec![leaf, root],
        });
        Arc::new(s)
    }

    #[test]
    fn answers_hello_with_chain() {
        let net = Network::new(NetConfig::default());
        let ep = net
            .bind("203.0.113.1".parse().unwrap(), 443, Region::EUROPE)
            .unwrap();
        let server_addr: SockAddr = ep.addr();
        let server = TlsServer::spawn(ep, store());

        let client = net
            .bind("10.0.0.5".parse().unwrap(), 5000, Region::EUROPE)
            .unwrap();
        let hello = encode_flight(&[HandshakeMessage::ClientHello {
            random: 7,
            sni: "site.example".into(),
        }]);
        client.send(server_addr, hello).unwrap();
        let d = client.recv_timeout(Duration::from_secs(2)).unwrap();
        let frames = decode_flight(&d.payload).unwrap();
        assert_eq!(frames.len(), 2);
        assert!(matches!(frames[0], HandshakeMessage::ServerHello { .. }));
        let HandshakeMessage::Certificate(chain) = &frames[1] else {
            panic!("expected certificate");
        };
        assert_eq!(chain.leaf().unwrap().subject, "site.example");
        assert!(server.shutdown() >= 1);
    }

    #[test]
    fn unknown_sni_gets_alert() {
        let net = Network::new(NetConfig::default());
        let ep = net
            .bind("203.0.113.1".parse().unwrap(), 443, Region::EUROPE)
            .unwrap();
        let server_addr = ep.addr();
        let _server = TlsServer::spawn(ep, store());

        let client = net
            .bind("10.0.0.5".parse().unwrap(), 5000, Region::EUROPE)
            .unwrap();
        let hello = encode_flight(&[HandshakeMessage::ClientHello {
            random: 7,
            sni: "other.example".into(),
        }]);
        client.send(server_addr, hello).unwrap();
        let d = client.recv_timeout(Duration::from_secs(2)).unwrap();
        let frames = decode_flight(&d.payload).unwrap();
        assert_eq!(
            frames,
            vec![HandshakeMessage::Alert(ALERT_UNRECOGNIZED_NAME)]
        );
    }

    #[test]
    fn garbage_ignored() {
        let net = Network::new(NetConfig::default());
        let ep = net
            .bind("203.0.113.1".parse().unwrap(), 443, Region::EUROPE)
            .unwrap();
        let server_addr = ep.addr();
        let _server = TlsServer::spawn(ep, store());
        let client = net
            .bind("10.0.0.5".parse().unwrap(), 5000, Region::EUROPE)
            .unwrap();
        client
            .send(server_addr, Bytes::from_static(b"\xFF\xFF"))
            .unwrap();
        // Still alive for a real handshake.
        let hello = encode_flight(&[HandshakeMessage::ClientHello {
            random: 1,
            sni: "site.example".into(),
        }]);
        client.send(server_addr, hello).unwrap();
        assert!(client.recv_timeout(Duration::from_secs(2)).is_ok());
    }
}
