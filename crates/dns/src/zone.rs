//! The reference authoritative server: zone data (records, delegations,
//! lookup semantics) answered as owned messages. The registry tables of
//! [`crate::bigzone`] and the resolver are tested against it; it is
//! compiled into the crate's tests only.

use crate::bigzone::DEFAULT_TTL;
use crate::name::DomainName;
use crate::server::QuestionRef;
use crate::wire::{Message, Rcode, Record, RecordData, RecordType, Reply};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// One authoritative zone: an origin (apex), a record store, and the set of
/// delegated child zones.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: DomainName,
    records: HashMap<(DomainName, RecordType), Vec<RecordData>>,
    delegations: HashSet<DomainName>,
}

/// Outcome of a zone lookup, mirroring what the authoritative server puts on
/// the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneLookup {
    /// Authoritative answer records (possibly via CNAME, included).
    Answer(Vec<Record>),
    /// The name lives in a delegated child zone: NS records plus glue.
    Referral {
        /// The delegated zone apex.
        zone: DomainName,
        /// NS records for the delegation.
        ns_records: Vec<Record>,
        /// Glue A records for the nameservers (when in-zone data exists).
        glue: Vec<Record>,
    },
    /// The name exists but has no records of the requested type.
    NoData,
    /// The name does not exist in this zone.
    NxDomain,
    /// The queried name is not within this zone at all.
    NotInZone,
}

impl Zone {
    /// Creates an empty zone rooted at `origin`.
    pub fn new(origin: DomainName) -> Self {
        Zone {
            origin,
            records: HashMap::new(),
            delegations: HashSet::new(),
        }
    }

    /// The zone apex.
    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    /// Adds an A record.
    pub fn add_a(&mut self, name: DomainName, ip: Ipv4Addr) {
        self.push(name, RecordData::A(ip));
    }

    /// Adds a CNAME record.
    pub fn add_cname(&mut self, name: DomainName, target: DomainName) {
        self.push(name, RecordData::Cname(target));
    }

    /// Adds an in-zone (apex or intermediate) NS record *without* marking a
    /// delegation — used for the zone's own NS set.
    pub fn add_ns(&mut self, name: DomainName, target: DomainName) {
        self.push(name, RecordData::Ns(target));
    }

    /// Delegates `child` to the given nameservers, with optional glue
    /// addresses `(ns_name, ip)`.
    pub fn delegate(
        &mut self,
        child: DomainName,
        nameservers: &[DomainName],
        glue: &[(DomainName, Ipv4Addr)],
    ) {
        assert!(
            child.is_within(&self.origin) && child != self.origin,
            "delegation target {child} must be a proper child of {}",
            self.origin
        );
        for ns in nameservers {
            self.push(child.clone(), RecordData::Ns(ns.clone()));
        }
        for (ns_name, ip) in glue {
            self.push(ns_name.clone(), RecordData::A(*ip));
        }
        self.delegations.insert(child);
    }

    fn push(&mut self, name: DomainName, data: RecordData) {
        let key = (name, data.record_type());
        let set = self.records.entry(key).or_default();
        if !set.contains(&data) {
            set.push(data);
        }
    }

    fn get(&self, name: &DomainName, rtype: RecordType) -> Option<&Vec<RecordData>> {
        self.records.get(&(name.clone(), rtype))
    }

    fn name_exists(&self, name: &DomainName) -> bool {
        self.records
            .keys()
            .any(|(n, _)| n == name || n.is_within(name))
    }

    /// Finds the closest enclosing delegation of `name`, if any.
    fn covering_delegation(&self, name: &DomainName) -> Option<&DomainName> {
        self.delegations
            .iter()
            .filter(|d| name.is_within(d))
            .max_by_key(|d| d.num_labels())
    }

    /// Resolves `name`/`rtype` within this zone, following in-zone CNAMEs.
    pub fn lookup(&self, name: &DomainName, rtype: RecordType) -> ZoneLookup {
        if !name.is_within(&self.origin) {
            return ZoneLookup::NotInZone;
        }
        // Delegated below us? Answer with a referral — unless the query is
        // for the delegation's NS set itself, which we do serve.
        if let Some(deleg) = self.covering_delegation(name) {
            let ns_data = self.get(deleg, RecordType::Ns).cloned().unwrap_or_default();
            let ns_records: Vec<Record> = ns_data
                .iter()
                .map(|d| Record {
                    name: deleg.clone(),
                    ttl: DEFAULT_TTL,
                    data: d.clone(),
                })
                .collect();
            let glue = ns_data
                .iter()
                .filter_map(|d| match d {
                    RecordData::Ns(ns_name) => self.get(ns_name, RecordType::A).map(|addrs| {
                        addrs.iter().map(|a| Record {
                            name: ns_name.clone(),
                            ttl: DEFAULT_TTL,
                            data: a.clone(),
                        })
                    }),
                    _ => None,
                })
                .flatten()
                .collect();
            return ZoneLookup::Referral {
                zone: deleg.clone(),
                ns_records,
                glue,
            };
        }
        // Exact data?
        let mut answers: Vec<Record> = Vec::new();
        let mut current = name.clone();
        for _ in 0..8 {
            if let Some(set) = self.get(&current, rtype) {
                answers.extend(set.iter().map(|d| Record {
                    name: current.clone(),
                    ttl: DEFAULT_TTL,
                    data: d.clone(),
                }));
                return ZoneLookup::Answer(answers);
            }
            // CNAME chase (only when the query itself is not for CNAME).
            if rtype != RecordType::Cname {
                if let Some(cnames) = self.get(&current, RecordType::Cname) {
                    let RecordData::Cname(target) = &cnames[0] else {
                        unreachable!("cname set holds cname data")
                    };
                    answers.push(Record {
                        name: current.clone(),
                        ttl: DEFAULT_TTL,
                        data: cnames[0].clone(),
                    });
                    if !target.is_within(&self.origin) {
                        // Out-of-zone target: hand back what we have.
                        return ZoneLookup::Answer(answers);
                    }
                    current = target.clone();
                    continue;
                }
            }
            break;
        }
        if !answers.is_empty() {
            return ZoneLookup::Answer(answers);
        }
        if self.name_exists(name) {
            ZoneLookup::NoData
        } else {
            ZoneLookup::NxDomain
        }
    }
}

/// Answers `question` from the zone list through [`answer`]: how a
/// responder over [`Zone`]s serves through
/// [`serve_query`](crate::server::serve_query).
pub fn answer_from_zones(zones: &[Zone], question: QuestionRef<'_>, reply: &mut Reply<'_>) {
    let name = DomainName::from_validated(question.name.to_owned());
    reply.write_message(&answer(zones, &Message::query(0, name, question.qtype)));
}

/// Answers a query's first question from the zone list, most specific
/// zone first when several could hold the name (e.g. a host serving both
/// a TLD zone and a child zone). The reference authoritative semantics
/// that the high-volume tables in [`crate::bigzone`] reproduce.
pub fn answer(zones: &[Zone], query: &Message) -> Message {
    let mut resp = Message::response_to(query);
    let Some(q) = query.questions.first() else {
        resp.rcode = Rcode::FormErr;
        return resp;
    };
    let mut zones: Vec<&Zone> = zones.iter().collect();
    zones.sort_by_key(|z| std::cmp::Reverse(z.origin().num_labels()));
    for zone in zones {
        match zone.lookup(&q.name, q.qtype) {
            ZoneLookup::NotInZone => continue,
            ZoneLookup::Answer(records) => {
                resp.authoritative = true;
                resp.answers = records;
                return resp;
            }
            ZoneLookup::Referral {
                ns_records, glue, ..
            } => {
                resp.authoritative = false;
                resp.authorities = ns_records;
                resp.additionals = glue;
                return resp;
            }
            ZoneLookup::NoData => {
                resp.authoritative = true;
                return resp;
            }
            ZoneLookup::NxDomain => {
                resp.authoritative = true;
                resp.rcode = Rcode::NxDomain;
                return resp;
            }
        }
    }
    resp.rcode = Rcode::ServFail; // not authoritative for anything queried
    resp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn example_zone() -> Zone {
        let mut z = Zone::new(n("example.com"));
        z.add_a(n("example.com"), ip("192.0.2.1"));
        z.add_a(n("www.example.com"), ip("192.0.2.2"));
        z.add_cname(n("blog.example.com"), n("www.example.com"));
        z.add_cname(n("cdn.example.com"), n("edge.provider.net"));
        z.delegate(
            n("sub.example.com"),
            &[n("ns1.sub.example.com")],
            &[(n("ns1.sub.example.com"), ip("192.0.2.53"))],
        );
        z
    }

    #[test]
    fn direct_answer() {
        let z = example_zone();
        let ZoneLookup::Answer(recs) = z.lookup(&n("www.example.com"), RecordType::A) else {
            panic!("expected answer");
        };
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].data, RecordData::A(ip("192.0.2.2")));
    }

    #[test]
    fn cname_chased_in_zone() {
        let z = example_zone();
        let ZoneLookup::Answer(recs) = z.lookup(&n("blog.example.com"), RecordType::A) else {
            panic!("expected answer");
        };
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].data, RecordData::Cname(n("www.example.com")));
        assert_eq!(recs[1].data, RecordData::A(ip("192.0.2.2")));
    }

    #[test]
    fn cname_out_of_zone_returned_alone() {
        let z = example_zone();
        let ZoneLookup::Answer(recs) = z.lookup(&n("cdn.example.com"), RecordType::A) else {
            panic!("expected answer");
        };
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].data, RecordData::Cname(n("edge.provider.net")));
    }

    #[test]
    fn referral_with_glue() {
        let z = example_zone();
        let ZoneLookup::Referral {
            zone,
            ns_records,
            glue,
        } = z.lookup(&n("deep.sub.example.com"), RecordType::A)
        else {
            panic!("expected referral");
        };
        assert_eq!(zone, n("sub.example.com"));
        assert_eq!(ns_records.len(), 1);
        assert_eq!(glue.len(), 1);
        assert_eq!(glue[0].data, RecordData::A(ip("192.0.2.53")));
    }

    #[test]
    fn nxdomain_vs_nodata() {
        let z = example_zone();
        assert_eq!(
            z.lookup(&n("missing.example.com"), RecordType::A),
            ZoneLookup::NxDomain
        );
        // www exists but has no NS records.
        assert_eq!(
            z.lookup(&n("www.example.com"), RecordType::Ns),
            ZoneLookup::NoData
        );
    }

    #[test]
    fn out_of_zone() {
        let z = example_zone();
        assert_eq!(
            z.lookup(&n("other.org"), RecordType::A),
            ZoneLookup::NotInZone
        );
    }

    #[test]
    fn cname_query_not_chased() {
        let z = example_zone();
        let ZoneLookup::Answer(recs) = z.lookup(&n("blog.example.com"), RecordType::Cname) else {
            panic!("expected answer");
        };
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].data, RecordData::Cname(n("www.example.com")));
    }

    #[test]
    fn duplicate_records_deduped() {
        let mut z = Zone::new(n("example.com"));
        z.add_a(n("example.com"), ip("1.1.1.1"));
        z.add_a(n("example.com"), ip("1.1.1.1"));
        let ZoneLookup::Answer(recs) = z.lookup(&n("example.com"), RecordType::A) else {
            panic!()
        };
        assert_eq!(recs.len(), 1);
    }

    #[test]
    #[should_panic(expected = "proper child")]
    fn delegation_must_be_child() {
        let mut z = Zone::new(n("example.com"));
        z.delegate(n("other.org"), &[n("ns.other.org")], &[]);
    }
}
