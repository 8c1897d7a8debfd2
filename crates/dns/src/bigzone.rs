//! High-volume authoritative data: the registry table.
//!
//! A general zone (arbitrary CNAME chains, nested delegations) costs
//! `O(records)` on some paths; the crate's tests keep one as the reference
//! semantics this table is checked against, but a synthetic `.com`
//! holding hundreds of thousands of delegations needs `O(1)` per query.
//!
//! [`DelegationTable`] is a registry: every query for `x.<origin>` (or
//! deeper) is answered with a referral to the registered domain's
//! nameservers plus glue. A TLD registry has the TLD as its origin; the
//! root is the table with origin `.`, registering every TLD. A
//! [`ChildLookup`] hook lets a registry refer children it does not hold,
//! from a table shared with other servers. The table writes its referrals
//! straight into the reply datagram ([`Reply`]). A responder serves them
//! through [`crate::server::serve_query`], inline on each querier's
//! thread, so one table answers every thread at once.

use crate::name::{is_within, label_count, suffixes, DomainName};
use crate::server::QuestionRef;
use crate::wire::{RData, Rcode, Reply};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// TTL of every referral and glue record a registry writes.
pub const DEFAULT_TTL: u32 = 3600;

/// A registry delegation: nameserver names plus glue addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegation {
    /// Nameserver host names.
    pub ns: Vec<DomainName>,
    /// Glue: `(ns_name, address)` pairs.
    pub glue: Vec<(DomainName, Ipv4Addr)>,
}

/// Children a [`DelegationTable`] refers beyond the ones it holds: a
/// registry over a large shared table answers through this hook instead of
/// copying a delegation per child. Consulted only for names the table does
/// not hold, so a registered child wins over one the hook knows.
pub trait ChildLookup: Send + Sync {
    /// The delegation of `domain`, a direct child of the table's origin in
    /// presentation form, or `None` when it is not registered.
    fn delegation(&self, domain: &str) -> Option<&Delegation>;
}

/// A TLD registry with `O(1)` referral lookup.
#[derive(Clone)]
pub struct DelegationTable {
    origin: DomainName,
    children: HashMap<DomainName, Delegation>,
    lookup: Option<Arc<dyn ChildLookup>>,
}

impl DelegationTable {
    /// Creates a registry for `origin` (e.g. `com`, or `.` for the root).
    pub fn new(origin: DomainName) -> Self {
        DelegationTable {
            origin,
            children: HashMap::new(),
            lookup: None,
        }
    }

    /// The registry, also referring every child `lookup` knows.
    pub fn with_lookup(self, lookup: Arc<dyn ChildLookup>) -> Self {
        DelegationTable {
            lookup: Some(lookup),
            ..self
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

    /// Answers `q` into `reply`: a referral for names at or below a
    /// registered domain, NXDOMAIN for unregistered names in-zone,
    /// ServFail otherwise. The records are written straight from the
    /// table's delegations, the registered domain as a suffix of the
    /// question's name.
    pub fn respond(&self, q: QuestionRef<'_>, reply: &mut Reply<'_>) {
        let origin = self.origin.as_str();
        if !is_within(q.name, origin) {
            reply.set_rcode(Rcode::ServFail);
            return;
        }
        if q.name == origin {
            // Queries for the apex itself: NoData (apex NS is out of scope;
            // the parent's glue is what matters).
            reply.set_authoritative();
            return;
        }
        // The registered domain is the child truncated to origin + 1 labels.
        let extra = label_count(q.name) - self.origin.num_labels();
        let registered = suffixes(q.name)
            .nth(extra - 1)
            .expect("in zone, below the apex");
        let found = match self.children.get(registered) {
            Some(held) => Some(held),
            None => self.lookup.as_ref().and_then(|l| l.delegation(registered)),
        };
        let Some(d) = found else {
            reply.set_authoritative();
            reply.set_rcode(Rcode::NxDomain);
            return;
        };
        for ns in &d.ns {
            reply.authority(registered, DEFAULT_TTL, RData::Ns(ns.as_str()));
        }
        for (name, ip) in &d.glue {
            reply.additional(name.as_str(), DEFAULT_TTL, RData::A(*ip));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::serve_query;
    use crate::wire::{decode, encode, Message, RecordType};

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// `t`'s reply to `q`, served and decoded.
    fn served(t: &DelegationTable, q: &Message) -> Message {
        let mut reply = Vec::new();
        let answered = serve_query(&encode(q), ip("192.5.6.30"), None, &mut reply, |q, r| {
            t.respond(q, r)
        });
        assert!(answered.is_some(), "a query is answered");
        decode(&reply).unwrap()
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
        let r = served(&t, &q);
        assert_eq!(r.rcode, Rcode::NoError);
        assert_eq!(r.authorities.len(), 1);
        assert_eq!(r.additionals.len(), 1);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn deep_names_refer_to_registered_parent() {
        let t = registry();
        let q = Message::query(1, n("a.b.example.com"), RecordType::A);
        let r = served(&t, &q);
        assert_eq!(r.authorities[0].name, n("example.com"));
    }

    #[test]
    fn unregistered_is_nxdomain() {
        let t = registry();
        let q = Message::query(1, n("missing.com"), RecordType::A);
        assert_eq!(served(&t, &q).rcode, Rcode::NxDomain);
    }

    #[test]
    fn out_of_zone_is_servfail() {
        let t = registry();
        let q = Message::query(1, n("example.org"), RecordType::A);
        assert_eq!(served(&t, &q).rcode, Rcode::ServFail);
    }

    /// A hook answering for the listed children.
    struct Children(Vec<(&'static str, Delegation)>);

    impl ChildLookup for Children {
        fn delegation(&self, domain: &str) -> Option<&Delegation> {
            self.0
                .iter()
                .find(|(name, _)| *name == domain)
                .map(|(_, d)| d)
        }
    }

    #[test]
    fn hooked_children_refer_like_held_ones_and_held_ones_win() {
        let hooked = Delegation {
            ns: vec![n("ns1.other.net"), n("ns2.other.net")],
            glue: vec![
                (n("ns1.other.net"), ip("198.51.100.1")),
                (n("ns2.other.net"), ip("198.51.100.2")),
            ],
        };
        let mut held = registry();
        held.register(n("hooked.com"), hooked.clone());
        let with_hook = registry().with_lookup(Arc::new(Children(vec![
            ("hooked.com", hooked.clone()),
            ("example.com", hooked),
        ])));
        for name in [
            "hooked.com",
            "a.b.hooked.com",
            "example.com",
            "missing.com",
            "com",
        ] {
            for qtype in [RecordType::A, RecordType::Ns] {
                let q = Message::query(9, n(name), qtype);
                assert_eq!(served(&with_hook, &q), served(&held, &q), "{name}");
            }
        }
    }

    /// The root as a delegation table answers every query with the bytes
    /// the reference [`Zone`] does when it holds the same delegations and
    /// glue. As in the deployment, the glue hosts live under a delegated
    /// TLD: the zone would answer NoData for an undelegated ancestor of a
    /// glue name, where the table answers NxDomain.
    #[test]
    fn root_table_answers_like_a_root_zone() {
        use crate::zone::{answer_from_zones, Zone};
        let mut zone = Zone::new(DomainName::root());
        let mut table = DelegationTable::new(DomainName::root());
        for (i, tld) in ["com", "net", "org"].into_iter().enumerate() {
            let host = n(&format!("ns.{tld}-registry.net"));
            let addr = Ipv4Addr::new(192, 5, 0, i as u8 + 1);
            zone.delegate(n(tld), std::slice::from_ref(&host), &[(host.clone(), addr)]);
            table.register(
                n(tld),
                Delegation {
                    ns: vec![host.clone()],
                    glue: vec![(host, addr)],
                },
            );
        }
        let zones = [zone];
        let server = ip("198.41.0.4");
        let names = [
            DomainName::root(),
            n("com"),
            n("example.com"),
            n("www.example.com"),
            n("ns.com-registry.net"),
            n("nosuch"),
            n("a.nosuch"),
        ];
        for (id, name) in names.iter().enumerate() {
            for qtype in [RecordType::A, RecordType::Ns] {
                let query = crate::wire::encode(&Message::query(id as u16, name.clone(), qtype));
                let (mut want, mut got) = (Vec::new(), Vec::new());
                let answered = serve_query(&query, server, None, &mut want, |q, r| {
                    answer_from_zones(&zones, q, r)
                });
                assert!(answered.is_some());
                let by_table =
                    serve_query(&query, server, None, &mut got, |q, r| table.respond(q, r));
                assert_eq!((by_table, got), (answered, want), "{name} {qtype:?}");
            }
        }
    }
}
