//! High-volume authoritative data structures.
//!
//! [`crate::zone::Zone`] favors generality (arbitrary CNAME chains, nested
//! delegations) at `O(records)` cost on some paths, which is fine for unit
//! tests and small zones but not for a synthetic `.com` holding hundreds of
//! thousands of delegations. This module provides two `O(1)`-per-query
//! responders used by the world deployment:
//!
//! * [`DelegationTable`] — a TLD registry: every query for `x.<tld>` (or
//!   deeper) is answered with a referral to the registered domain's
//!   nameservers plus glue.
//! * [`HostTable`] — a hosting provider's authoritative data: A records for
//!   sites and nameserver hosts, NS sets per domain.
//!
//! Both produce wire [`Message`]s directly so rack servers can serve
//! thousands of zones from one thread.

use crate::name::DomainName;
use crate::wire::{Message, Rcode, Record, RecordData, RecordType};
use crate::zone::DEFAULT_TTL;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// A registry delegation: nameserver names plus glue addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegation {
    /// Nameserver host names.
    pub ns: Vec<DomainName>,
    /// Glue: `(ns_name, address)` pairs.
    pub glue: Vec<(DomainName, Ipv4Addr)>,
}

/// A TLD registry with `O(1)` referral lookup.
#[derive(Debug, Clone)]
pub struct DelegationTable {
    origin: DomainName,
    children: HashMap<DomainName, Delegation>,
}

impl DelegationTable {
    /// Creates a registry for `origin` (e.g. `com`).
    pub fn new(origin: DomainName) -> Self {
        DelegationTable {
            origin,
            children: HashMap::new(),
        }
    }

    /// The registry's zone apex.
    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    /// Registers `domain` (a direct child of the origin) with a delegation.
    pub fn register(&mut self, domain: DomainName, delegation: Delegation) {
        debug_assert!(
            domain.is_within(&self.origin) && domain.num_labels() == self.origin.num_labels() + 1,
            "{domain} must be a direct child of {}",
            self.origin
        );
        self.children.insert(domain, delegation);
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when no domain is registered.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Answers a query: a referral for names at or below a registered
    /// domain, NXDOMAIN for unregistered names in-zone, ServFail otherwise.
    /// The response reuses the query's question section.
    pub fn respond(&self, query: Message) -> Message {
        let Some(q) = query.questions.first() else {
            let mut resp = query.into_response();
            resp.rcode = Rcode::FormErr;
            return resp;
        };
        if !q.name.is_within(&self.origin) {
            let mut resp = query.into_response();
            resp.rcode = Rcode::ServFail;
            return resp;
        }
        if q.name == self.origin {
            // Queries for the TLD apex itself: NoData (we keep apex NS out
            // of scope; the root's glue is what matters).
            let mut resp = query.into_response();
            resp.authoritative = true;
            return resp;
        }
        // The registered domain is the child truncated to origin + 1 labels:
        // a suffix of the queried name, looked up borrowed.
        let extra = q.name.num_labels() - self.origin.num_labels();
        let registered = q
            .name
            .suffixes()
            .nth(extra - 1)
            .expect("in zone, below the apex");
        let found = self.children.get_key_value(registered);
        let mut resp = query.into_response();
        match found {
            Some((registered, d)) => {
                resp.authorities =
                    d.ns.iter()
                        .map(|ns| Record {
                            name: registered.clone(),
                            ttl: DEFAULT_TTL,
                            data: RecordData::Ns(ns.clone()),
                        })
                        .collect();
                resp.additionals = d
                    .glue
                    .iter()
                    .map(|(name, ip)| Record {
                        name: name.clone(),
                        ttl: DEFAULT_TTL,
                        data: RecordData::A(*ip),
                    })
                    .collect();
                resp
            }
            None => {
                resp.authoritative = true;
                resp.rcode = Rcode::NxDomain;
                resp
            }
        }
    }
}

/// A hosting provider's authoritative answers with `O(1)` lookup.
#[derive(Debug, Clone, Default)]
pub struct HostTable {
    a: HashMap<DomainName, Vec<Ipv4Addr>>,
    ns: HashMap<DomainName, Vec<DomainName>>,
}

impl HostTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an A record.
    pub fn add_a(&mut self, name: DomainName, ip: Ipv4Addr) {
        let set = self.a.entry(name).or_default();
        if !set.contains(&ip) {
            set.push(ip);
        }
    }

    /// Sets the NS set for a domain.
    pub fn set_ns(&mut self, name: DomainName, ns: Vec<DomainName>) {
        self.ns.insert(name, ns);
    }

    /// Number of names with A records.
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// True when no A record is stored.
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// Registered A addresses for `name` (exact match).
    pub fn lookup_a(&self, name: &DomainName) -> Option<&[Ipv4Addr]> {
        self.a.get(name).map(Vec::as_slice)
    }

    /// Answers a query authoritatively: A and NS supported, everything the
    /// table does not know is NXDOMAIN.
    pub fn respond(&self, query: &Message) -> Message {
        let mut resp = Message::response_to(query);
        resp.authoritative = true;
        let Some(q) = query.questions.first() else {
            resp.rcode = Rcode::FormErr;
            return resp;
        };
        match q.qtype {
            RecordType::A => {
                if let Some(addrs) = self.a.get(&q.name) {
                    resp.answers = addrs
                        .iter()
                        .map(|&ip| Record {
                            name: q.name.clone(),
                            ttl: DEFAULT_TTL,
                            data: RecordData::A(ip),
                        })
                        .collect();
                    return resp;
                }
            }
            RecordType::Ns => {
                if let Some(ns) = self.ns.get(&q.name) {
                    resp.answers = ns
                        .iter()
                        .map(|n| Record {
                            name: q.name.clone(),
                            ttl: DEFAULT_TTL,
                            data: RecordData::Ns(n.clone()),
                        })
                        .collect();
                    return resp;
                }
            }
            RecordType::Cname => {}
        }
        if self.a.contains_key(&q.name) || self.ns.contains_key(&q.name) {
            // NoData: exists with another type.
            return resp;
        }
        resp.rcode = Rcode::NxDomain;
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Message;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn registry() -> DelegationTable {
        let mut t = DelegationTable::new(n("com"));
        t.register(
            n("example.com"),
            Delegation {
                ns: vec![n("ns1.prov.net")],
                glue: vec![(n("ns1.prov.net"), ip("203.0.113.53"))],
            },
        );
        t
    }

    #[test]
    fn referral_for_registered_domain() {
        let t = registry();
        let q = Message::query(1, n("example.com"), RecordType::A);
        let r = t.respond(q);
        assert_eq!(r.rcode, Rcode::NoError);
        assert_eq!(r.authorities.len(), 1);
        assert_eq!(r.additionals.len(), 1);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn deep_names_refer_to_registered_parent() {
        let t = registry();
        let q = Message::query(1, n("a.b.example.com"), RecordType::A);
        let r = t.respond(q);
        assert_eq!(r.authorities[0].name, n("example.com"));
    }

    #[test]
    fn unregistered_is_nxdomain() {
        let t = registry();
        let q = Message::query(1, n("missing.com"), RecordType::A);
        assert_eq!(t.respond(q).rcode, Rcode::NxDomain);
    }

    #[test]
    fn out_of_zone_is_servfail() {
        let t = registry();
        let q = Message::query(1, n("example.org"), RecordType::A);
        assert_eq!(t.respond(q).rcode, Rcode::ServFail);
    }

    #[test]
    fn host_table_answers() {
        let mut h = HostTable::new();
        h.add_a(n("example.com"), ip("203.0.113.10"));
        h.set_ns(n("example.com"), vec![n("ns1.prov.net")]);
        h.add_a(n("ns1.prov.net"), ip("203.0.113.53"));

        let a = h.respond(&Message::query(1, n("example.com"), RecordType::A));
        assert_eq!(a.answers.len(), 1);
        assert!(a.authoritative);

        let ns = h.respond(&Message::query(2, n("example.com"), RecordType::Ns));
        assert_eq!(ns.answers[0].data, RecordData::Ns(n("ns1.prov.net")));

        let miss = h.respond(&Message::query(3, n("nope.com"), RecordType::A));
        assert_eq!(miss.rcode, Rcode::NxDomain);

        // NoData: name exists, type missing.
        let nodata = h.respond(&Message::query(4, n("ns1.prov.net"), RecordType::Ns));
        assert_eq!(nodata.rcode, Rcode::NoError);
        assert!(nodata.answers.is_empty());
    }

    #[test]
    fn duplicate_a_deduped() {
        let mut h = HostTable::new();
        h.add_a(n("x.com"), ip("1.1.1.1"));
        h.add_a(n("x.com"), ip("1.1.1.1"));
        assert_eq!(h.lookup_a(&n("x.com")).unwrap().len(), 1);
    }
}
