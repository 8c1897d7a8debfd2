//! # webdep-netsim
//!
//! A simulated internet fabric for the `webdep` measurement pipeline.
//!
//! The paper's measurements (ZDNS resolution, ZGrab2 TLS scans) run against
//! the real internet; this crate provides the stand-in: an in-process
//! request/response fabric with IPv4 addressing, unicast and anycast
//! routing, a continent-pair latency model, and optional packet loss.
//! Servers are [`ResponderSet`]s: a pure service function attached at many
//! addresses and run inline on the client's thread, so the fabric runs no
//! server thread at all. A client is an [`Endpoint`] that makes one
//! exchange at a time: [`Endpoint::exchange`] routes the query to the right
//! site, runs its responder and returns the reply, or `None` when the query
//! or the reply was lost, black-holed, swallowed or late.
//!
//! An exchange allocates nothing. The client encodes its query into a
//! buffer of its own and lends it for the exchange ([`Datagram::payload`]
//! is a borrow); the responder writes its reply straight into a second
//! buffer the client passes in, and the reply the client gets back is a
//! view of that buffer, valid until the client reuses it.
//!
//! An exchange shares nothing either: it takes no lock, and it makes no
//! read-modify-write that another thread's exchanges make too. Each
//! endpoint routes through an immutable routing table it holds an `Arc`
//! of, built once per generation of the network's bindings and shared by
//! every endpoint; binding or unbinding a responder starts a new
//! generation, which the next exchange picks up (see [`network`]). The
//! table, like every map the measurement crates probe per site, hashes
//! with [`hash::KeyedHasher`], keyed once per process ([`KeyedMap`],
//! [`KeyedSet`]).
//!
//! Time on the network is simulated, never waited for. A responder returns
//! how late its reply arrives (set by a [`FaultKind::Delay`] fault), and an
//! exchange compares it with the client's window: a reply later than the
//! window is a timeout. So whether an answer came in time is
//! a pure function of the fault plan and the client's timeout, never of how
//! the host scheduled its threads.
//!
//! The design is synchronous (no async runtime): simple and robust over
//! clever.
//!
//! ```
//! use webdep_netsim::{Datagram, Network, Region, ResponderSet, SockAddr};
//! use std::time::Duration;
//!
//! let net = Network::new(Default::default());
//! // A responder writes its reply into the client's buffer and says how
//! // late it arrives (`None` would swallow the query).
//! let echo = ResponderSet::new(&net, |d: &Datagram, reply: &mut Vec<u8>| {
//!     reply.extend_from_slice(d.payload);
//!     Some(Duration::ZERO)
//! });
//! let server = SockAddr::new("10.0.0.1".parse().unwrap(), 7);
//! echo.attach(server.ip, server.port, Region::EUROPE).unwrap();
//! let mut client = net.bind("10.9.9.9".parse().unwrap(), 4000, Region::ASIA);
//!
//! // The client owns the reply buffer and reuses it from exchange to
//! // exchange. The reply comes back undelayed: even a window of zero
//! // takes it.
//! let mut reply = Vec::new();
//! let got = client.exchange(server, b"ping", Duration::ZERO, &mut reply);
//! assert_eq!(got, Ok(Some(&b"ping"[..])));
//! assert_eq!(net.stats().delivered, 2); // the query and its reply
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod error;
pub mod fault;
pub mod hash;
pub mod latency;
pub mod network;
pub mod packet;
pub mod shared;

pub use addr::{Prefix, SockAddr};
pub use error::NetError;
pub use fault::{FaultKind, FaultPlan};
pub use hash::{KeyedMap, KeyedSet, KeyedState};
pub use latency::LatencyModel;
pub use network::{Endpoint, NetConfig, NetStats, Network, Region, ResponderFn};
pub use packet::Datagram;
pub use shared::ResponderSet;
