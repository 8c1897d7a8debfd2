//! The scanning client: performs one handshake per (IP, SNI) target and
//! returns the served chain, with retries — the ZGrab2 role.

use crate::cert::CertificateChain;
use crate::handshake::{decode_flight, encode_client_hello, HandshakeMessage};
use std::net::Ipv4Addr;
use std::time::Duration;
use webdep_netsim::{Endpoint, NetError, SockAddr};

/// Scanner tuning knobs.
#[derive(Debug, Clone)]
pub struct ScannerConfig {
    /// Per-handshake receive timeout.
    pub timeout: Duration,
    /// Retries before reporting a timeout.
    pub retries: u32,
    /// Total wall-clock cap for one scan across all retries — the TLS
    /// counterpart of the resolver's `site_deadline`. `None` (default)
    /// keeps the uncapped retry schedule; expiry surfaces as
    /// [`ScanError::Timeout`].
    pub site_deadline: Option<Duration>,
}

impl Default for ScannerConfig {
    fn default() -> Self {
        ScannerConfig {
            timeout: Duration::from_millis(250),
            retries: 2,
            site_deadline: None,
        }
    }
}

/// Scan failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanError {
    /// Nothing answered within the retry budget.
    Timeout,
    /// The network rejected the send (no listener at the address).
    Network(NetError),
    /// The server sent a fatal alert (e.g. unrecognized name).
    Alert(u8),
    /// The server's flight was malformed or missing the certificate.
    BadResponse,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Timeout => write!(f, "handshake timed out"),
            ScanError::Network(e) => write!(f, "network error: {e}"),
            ScanError::Alert(c) => write!(f, "fatal alert {c}"),
            ScanError::BadResponse => write!(f, "malformed server flight"),
        }
    }
}

impl std::error::Error for ScanError {}

/// A TLS scanner bound to one client endpoint.
pub struct Scanner {
    endpoint: Endpoint,
    config: ScannerConfig,
    next_random: u64,
    /// Handshakes attempted (including retries).
    pub handshakes_sent: u64,
    /// Server flights discarded because they failed to parse or had an
    /// unexpected shape (truncated or garbled responses).
    pub malformed_flights: u64,
}

impl Scanner {
    /// Wraps a bound endpoint.
    pub fn new(endpoint: Endpoint, config: ScannerConfig) -> Self {
        Scanner {
            endpoint,
            config,
            next_random: 0x5EED,
            handshakes_sent: 0,
            malformed_flights: 0,
        }
    }

    /// Handshakes with `ip:443` asking for `sni`; returns the served chain.
    pub fn scan(&mut self, ip: Ipv4Addr, sni: &str) -> Result<CertificateChain, ScanError> {
        self.scan_port(ip, crate::TLS_PORT, sni)
    }

    /// Handshakes with an explicit port.
    pub fn scan_port(
        &mut self,
        ip: Ipv4Addr,
        port: u16,
        sni: &str,
    ) -> Result<CertificateChain, ScanError> {
        let dst = SockAddr::new(ip, port);
        let scan_deadline = self
            .config
            .site_deadline
            .map(|d| std::time::Instant::now() + d);
        for _ in 0..=self.config.retries {
            if let Some(overall) = scan_deadline {
                if overall
                    .saturating_duration_since(std::time::Instant::now())
                    .is_zero()
                {
                    return Err(ScanError::Timeout);
                }
            }
            self.next_random = self
                .next_random
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1);
            let random = self.next_random;
            let hello = encode_client_hello(random, sni);
            self.handshakes_sent += 1;
            match self.endpoint.send(dst, hello) {
                Ok(()) => {}
                Err(e) => return Err(ScanError::Network(e)),
            }
            // Each attempt waits for its per-handshake timeout, clamped to
            // whatever remains of the whole-scan budget.
            let mut deadline = std::time::Instant::now() + self.config.timeout;
            if let Some(overall) = scan_deadline {
                deadline = deadline.min(overall);
            }
            loop {
                let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let dgram = match self.endpoint.recv_timeout(remaining) {
                    Ok(d) => d,
                    Err(NetError::Timeout) => break,
                    Err(e) => return Err(ScanError::Network(e)),
                };
                if dgram.src != dst {
                    continue; // stale reply from an earlier target
                }
                let Ok(frames) = decode_flight(&dgram.payload) else {
                    self.malformed_flights += 1;
                    return Err(ScanError::BadResponse);
                };
                // The decoded chain is ours: move it out, don't clone it.
                let mut frames = frames.into_iter();
                match (frames.next(), frames.next(), frames.next()) {
                    (Some(HandshakeMessage::Alert(code)), None, None) => {
                        return Err(ScanError::Alert(code))
                    }
                    (
                        Some(HandshakeMessage::ServerHello { .. }),
                        Some(HandshakeMessage::Certificate(chain)),
                        None,
                    ) => return Ok(chain),
                    _ => {
                        self.malformed_flights += 1;
                        return Err(ScanError::BadResponse);
                    }
                }
            }
        }
        Err(ScanError::Timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CertStore, Certificate, CertificateChain};
    use crate::server::TlsServer;
    use std::sync::Arc;
    use webdep_netsim::{NetConfig, Network, Region};

    fn world(net: &Network) -> (TlsServer, Ipv4Addr) {
        let server_ip: Ipv4Addr = "203.0.113.1".parse().unwrap();
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
        let ep = net.bind(server_ip, 443, Region::EUROPE).unwrap();
        (TlsServer::spawn(ep, Arc::new(s)), server_ip)
    }

    fn scanner(net: &Network, config: ScannerConfig) -> Scanner {
        let ep = net
            .bind("10.0.0.5".parse().unwrap(), 5001, Region::EUROPE)
            .unwrap();
        Scanner::new(ep, config)
    }

    #[test]
    fn successful_scan() {
        let net = Network::new(NetConfig::default());
        let (_server, ip) = world(&net);
        let mut sc = scanner(&net, ScannerConfig::default());
        let chain = sc.scan(ip, "site.example").unwrap();
        assert_eq!(chain.leaf().unwrap().subject, "site.example");
        assert_eq!(chain.validate("site.example", 100), Ok(()));
    }

    #[test]
    fn alert_surfaces() {
        let net = Network::new(NetConfig::default());
        let (_server, ip) = world(&net);
        let mut sc = scanner(&net, ScannerConfig::default());
        assert!(matches!(
            sc.scan(ip, "missing.example"),
            Err(ScanError::Alert(_))
        ));
    }

    #[test]
    fn no_listener_is_network_error() {
        let net = Network::new(NetConfig::default());
        let mut sc = scanner(&net, ScannerConfig::default());
        assert!(matches!(
            sc.scan("198.51.100.1".parse().unwrap(), "x"),
            Err(ScanError::Network(_))
        ));
    }

    #[test]
    fn site_deadline_bounds_a_silent_server() {
        // A bound-but-never-serving endpoint swallows every ClientHello;
        // without the cap the retry schedule costs (retries+1) x timeout.
        let net = Network::new(NetConfig::default());
        let silent_ip: Ipv4Addr = "203.0.113.9".parse().unwrap();
        let _silent = net.bind(silent_ip, 443, Region::EUROPE).unwrap();
        let mut sc = scanner(
            &net,
            ScannerConfig {
                timeout: Duration::from_millis(200),
                retries: 20,
                site_deadline: Some(Duration::from_millis(250)),
            },
        );
        let start = std::time::Instant::now();
        assert_eq!(sc.scan(silent_ip, "x").unwrap_err(), ScanError::Timeout);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(1000),
            "silent server took {elapsed:?} despite a 250ms scan deadline"
        );
    }

    #[test]
    fn retries_through_loss() {
        let net = Network::new(NetConfig {
            loss_rate: 0.4,
            seed: 3,
            ..Default::default()
        });
        let (_server, ip) = world(&net);
        let mut sc = scanner(
            &net,
            ScannerConfig {
                timeout: Duration::from_millis(60),
                retries: 10,
                site_deadline: None,
            },
        );
        let chain = sc.scan(ip, "site.example").unwrap();
        assert_eq!(chain.leaf().unwrap().subject, "site.example");
        assert!(sc.handshakes_sent >= 1);
    }
}
