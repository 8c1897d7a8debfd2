//! The scanning client: performs one handshake per (IP, SNI) target and
//! returns the served chain, with retries — the ZGrab2 role.
//!
//! Timeouts are simulated: every server is an inline responder, so an
//! attempt is one exchange, which returns the flight with the hello when it
//! arrives within the attempt's window; a later flight is a timeout.

use crate::cert::CertificateChain;
use crate::handshake::{decode_server_flight, encode_client_hello, ServerFlight};
use std::net::Ipv4Addr;
use std::time::Duration;
use webdep_netsim::{Endpoint, NetError, SockAddr};

/// Scanner tuning knobs.
#[derive(Debug, Clone)]
pub struct ScannerConfig {
    /// Per-handshake receive window in simulated time: a flight later
    /// than it (a [`FaultKind::Delay`](webdep_netsim::FaultKind::Delay)
    /// longer than the window) is a timeout.
    pub timeout: Duration,
    /// Retries before reporting a timeout.
    pub retries: u32,
}

impl Default for ScannerConfig {
    fn default() -> Self {
        ScannerConfig {
            timeout: Duration::from_millis(250),
            retries: 2,
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
        for _ in 0..=self.config.retries {
            self.next_random = self
                .next_random
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1);
            let hello = encode_client_hello(self.next_random, sni);
            self.handshakes_sent += 1;
            let reply = self
                .endpoint
                .exchange(dst, hello, self.config.timeout)
                .map_err(ScanError::Network)?;
            if let Some(flight) = reply {
                return match decode_server_flight(&flight) {
                    Some(ServerFlight::Chain(chain)) => Ok(chain),
                    Some(ServerFlight::Alert(code)) => Err(ScanError::Alert(code)),
                    // Unparseable, or not the shape of a server flight.
                    None => {
                        self.malformed_flights += 1;
                        Err(ScanError::BadResponse)
                    }
                };
            }
        }
        Err(ScanError::Timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CertRef, Certificate};
    use crate::server::serve_hello;
    use webdep_netsim::{Datagram, FaultKind, FaultPlan, NetConfig, Network, Region, ResponderSet};

    /// One server at 203.0.113.1 holding the chain for `site.example`,
    /// serving under `faults`.
    fn world(net: &Network, faults: Option<FaultPlan>) -> (ResponderSet, Ipv4Addr) {
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
        let chain = [leaf, root];
        let server = ResponderSet::new(net, move |d: &Datagram| {
            serve_hello(&d.payload, d.dst.ip, faults.as_ref(), |sni| {
                (sni == "site.example").then(|| chain.iter().map(CertRef::Whole))
            })
        });
        server
            .attach(server_ip, crate::TLS_PORT, Region::EUROPE)
            .unwrap();
        (server, server_ip)
    }

    fn scanner(net: &Network, config: ScannerConfig) -> Scanner {
        let ep = net.bind("10.0.0.5".parse().unwrap(), 5001, Region::EUROPE);
        Scanner::new(ep, config)
    }

    #[test]
    fn successful_scan() {
        let net = Network::new(NetConfig::default());
        let (_server, ip) = world(&net, None);
        let mut sc = scanner(&net, ScannerConfig::default());
        let chain = sc.scan(ip, "site.example").unwrap();
        assert_eq!(chain.leaf().unwrap().subject, "site.example");
        assert_eq!(chain.validate("site.example", 100), Ok(()));
    }

    #[test]
    fn alert_surfaces() {
        let net = Network::new(NetConfig::default());
        let (_server, ip) = world(&net, None);
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
    fn retries_through_loss() {
        let net = Network::new(NetConfig {
            loss_rate: 0.4,
            seed: 3,
            ..Default::default()
        });
        let (_server, ip) = world(&net, None);
        let mut sc = scanner(
            &net,
            ScannerConfig {
                timeout: Duration::from_millis(60),
                retries: 10,
            },
        );
        let chain = sc.scan(ip, "site.example").unwrap();
        assert_eq!(chain.leaf().unwrap().subject, "site.example");
        assert!(sc.handshakes_sent >= 1);
    }

    #[test]
    fn a_delay_times_out_only_past_the_window() {
        // The server answers every hello 20 ms late.
        let plan = FaultPlan::flaky(1, 1.0, 1.0, vec![FaultKind::Delay]);
        assert_eq!(plan.delay, Duration::from_millis(20));
        let net = Network::new(NetConfig::default());
        let (_server, ip) = world(&net, Some(plan));
        let scan = |timeout_ms: u64| {
            let config = ScannerConfig {
                timeout: Duration::from_millis(timeout_ms),
                retries: 0,
            };
            scanner(&net, config).scan(ip, "site.example")
        };
        // Within the window (the delay exactly fills it): answered.
        let chain = scan(20).unwrap();
        assert_eq!(chain.leaf().unwrap().subject, "site.example");
        // Past it: a timeout, though the flight was sent.
        assert_eq!(scan(10).unwrap_err(), ScanError::Timeout);
    }
}
