//! # webdep-tls
//!
//! TLS-like scan substrate: the stand-in for ZGrab2 in the paper's
//! methodology (§3.4). The pipeline needs exactly one thing from TLS — the
//! leaf certificate served for a hostname, whose issuer maps to a CA owner —
//! so this crate implements a minimal handshake protocol over the simulated
//! network:
//!
//! 1. client sends `ClientHello { sni }`;
//! 2. server answers `ServerHello` + `Certificate { chain }` (or an
//!    `Alert` when it has no certificate for the name) — every simulated
//!    server runs the one serving function [`server::serve_hello`] inline
//!    on the querier's thread, behind a `webdep_netsim::ResponderSet`;
//! 3. the scanner reads the served chain in place ([`ChainView`]): every
//!    certificate is checked, none is decoded into owned strings, and the
//!    view borrows the scanner's flight buffer until its next scan.
//!
//! Certificates are a compact binary encoding (not DER) carrying the fields
//! the analysis consumes: subject, SANs (with wildcard support), issuer
//! identity, and validity window.
//!
//! Every flight is written into a lent buffer and read in place, so the
//! crate runs one encoder and one reader per message. The owned chain and
//! handshake messages with their flight encoder and decoder are the
//! reference those are tested against; they are compiled into the crate's
//! tests only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod fault;
pub mod handshake;
pub mod scanner;
pub mod server;

pub use cert::{CertRef, CertView, Certificate, ChainView};
pub use fault::{apply_tls_fault, ALERT_INTERNAL_ERROR};
pub use scanner::{ScanError, Scanner, ScannerConfig};
pub use server::serve_hello;

/// The well-known HTTPS port used throughout the simulation.
pub const TLS_PORT: u16 = 443;

#[cfg(test)]
mod handshake_properties;
