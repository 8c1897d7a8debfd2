//! # webdep-netsim
//!
//! A simulated internet fabric for the `webdep` measurement pipeline.
//!
//! The paper's measurements (ZDNS resolution, ZGrab2 TLS scans) run against
//! the real internet; this crate provides the stand-in: an in-process
//! datagram network with IPv4 addressing, unicast and anycast delivery,
//! a continent-pair latency model, and optional packet loss. Clients bind
//! [`Endpoint`]s, send datagrams and wait with timeouts, exactly as a UDP
//! scanner would. Servers are [`ResponderSet`]s: a pure service function
//! attached at many addresses and run inline on the sender's thread, so
//! the fabric runs no server thread at all.
//!
//! The design is event-driven and synchronous (no async runtime): simple
//! and robust over clever.
//!
//! ```
//! use webdep_netsim::{Datagram, Network, Region, ResponderSet, SockAddr};
//! use bytes::Bytes;
//!
//! let net = Network::new(Default::default());
//! let echo = ResponderSet::new(&net, |d: &Datagram| Some(d.payload.clone()));
//! let server = SockAddr::new("10.0.0.1".parse().unwrap(), 7);
//! echo.attach(server.ip, server.port, Region::EUROPE).unwrap();
//! let client = net.bind("10.9.9.9".parse().unwrap(), 4000, Region::ASIA).unwrap();
//!
//! client.send(server, Bytes::from_static(b"ping")).unwrap();
//! // The reply is queued before `send` returns: no thread hop.
//! assert_eq!(&client.try_recv().unwrap().payload[..], b"ping");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod error;
pub mod fault;
pub mod latency;
pub mod network;
pub mod packet;
pub mod shared;

pub use addr::{Prefix, SockAddr};
pub use error::NetError;
pub use fault::{FaultKind, FaultPlan, FaultedReply};
pub use latency::LatencyModel;
pub use network::{Endpoint, NetConfig, NetStats, Network, Region, ResponderFn};
pub use packet::{build_payload, Datagram};
pub use shared::ResponderSet;
