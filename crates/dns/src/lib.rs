//! # webdep-dns
//!
//! DNS substrate for the `webdep` measurement pipeline: the stand-in for
//! ZDNS in the paper's methodology (§3.4).
//!
//! Implements an RFC 1035 subset: the binary wire format with name
//! compression, read and written in place ([`wire`]: one reader, one
//! writer), registry tables answering referrals with glue ([`bigzone`]),
//! the one serving function every simulated nameserver runs inline on the
//! querier's thread ([`server::serve_query`], behind a
//! `webdep_netsim::ResponderSet`), and an iterative resolver with retries
//! against simulated timeouts, referral chasing, CNAME following, and a
//! positive cache ([`resolver`]) — all over the simulated network from
//! `webdep-netsim`.
//!
//! The owned message with its encoder and decoder, and a general zone
//! server answering from it, are the reference the borrowed codec and the
//! registry tables are tested against; they are compiled into the crate's
//! tests only, so the crate runs exactly one codec.
//!
//! Record types supported: `A`, `NS`, `CNAME` — exactly what the pipeline
//! needs to map a website to (a) the IP serving its content and (b) the IP
//! of its authoritative nameserver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigzone;
pub mod fault;
pub mod name;
pub mod resolver;
pub mod server;
pub mod shared_cache;
pub mod wire;

pub use bigzone::{ChildLookup, Delegation, DelegationTable};
pub use fault::apply_dns_fault;
pub use name::DomainName;
pub use resolver::{IterativeResolver, ResolveError, ResolverConfig, ResolverStats};
pub use server::serve_query;
pub use shared_cache::{SharedCacheStats, SharedDnsCache};
pub use wire::{Rcode, RecordType};

/// The well-known DNS port used throughout the simulation.
pub const DNS_PORT: u16 = 53;

#[cfg(test)]
mod wire_properties;

#[cfg(test)]
mod zone;
