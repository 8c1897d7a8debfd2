//! AS → organization database (the CAIDA AS-to-Org stand-in).
//!
//! The paper attributes each serving IP to an *organization*, not an AS:
//! several ASNs can belong to one provider (e.g. Amazon's many ASNs), and
//! the org record carries the provider's home country used by insularity.

use serde::{Deserialize, Serialize};
use webdep_netsim::KeyedMap;

/// An owning organization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrgRecord {
    /// Stable organization id.
    pub org_id: u32,
    /// Display name, e.g. `Cloudflare, Inc.`.
    pub name: String,
    /// ISO 3166-1 alpha-2 home country, e.g. `US`.
    pub country: String,
}

/// ASN → organization mapping.
#[derive(Debug, Clone, Default)]
pub struct AsOrgDb {
    by_asn: KeyedMap<u32, u32>,
    orgs: KeyedMap<u32, OrgRecord>,
}

impl AsOrgDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an organization; replaces any previous record with the
    /// same id.
    pub fn add_org(&mut self, org: OrgRecord) {
        self.orgs.insert(org.org_id, org);
    }

    /// Maps an ASN to an organization id. The org need not be registered
    /// yet, mirroring how the real datasets are joined after the fact.
    pub fn map_asn(&mut self, asn: u32, org_id: u32) {
        self.by_asn.insert(asn, org_id);
    }

    /// The organization owning `asn`, if known and registered.
    pub fn org_of_asn(&self, asn: u32) -> Option<&OrgRecord> {
        self.orgs.get(self.by_asn.get(&asn)?)
    }

    /// Organization record by id.
    pub fn org(&self, org_id: u32) -> Option<&OrgRecord> {
        self.orgs.get(&org_id)
    }

    /// Number of registered organizations.
    pub fn num_orgs(&self) -> usize {
        self.orgs.len()
    }

    /// Number of mapped ASNs.
    pub fn num_asns(&self) -> usize {
        self.by_asn.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org(id: u32, name: &str, cc: &str) -> OrgRecord {
        OrgRecord {
            org_id: id,
            name: name.into(),
            country: cc.into(),
        }
    }

    #[test]
    fn multiple_asns_one_org() {
        let mut db = AsOrgDb::new();
        db.add_org(org(1, "Amazon.com, Inc.", "US"));
        db.map_asn(16509, 1);
        db.map_asn(14618, 1);
        assert_eq!(db.org_of_asn(16509).unwrap().name, "Amazon.com, Inc.");
        assert_eq!(db.org_of_asn(14618).unwrap().country, "US");
        assert_eq!(db.num_orgs(), 1);
        assert_eq!(db.num_asns(), 2);
    }

    #[test]
    fn unknown_asn() {
        let db = AsOrgDb::new();
        assert!(db.org_of_asn(64512).is_none());
    }

    #[test]
    fn asn_mapped_before_org_registered() {
        let mut db = AsOrgDb::new();
        db.map_asn(100, 9);
        assert!(db.org_of_asn(100).is_none());
        db.add_org(org(9, "Late Org", "DE"));
        assert_eq!(db.org_of_asn(100).unwrap().name, "Late Org");
    }

    #[test]
    fn org_replacement() {
        let mut db = AsOrgDb::new();
        db.add_org(org(1, "Old", "US"));
        db.add_org(org(1, "New", "FR"));
        assert_eq!(db.org(1).unwrap().name, "New");
    }
}
