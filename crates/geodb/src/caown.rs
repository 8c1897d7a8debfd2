//! Certificate issuer → CA owner (the CCADB join per Ma et al.).
//!
//! The paper labels each leaf certificate with the *owner* of its issuing
//! CA: many issuing intermediates (e.g. Let's Encrypt's `R10`/`R11`) roll
//! up to one owner, which is the unit of the CA-layer analysis.

use serde::{Deserialize, Serialize};
use webdep_netsim::KeyedMap;

/// A CA owner organization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaOwner {
    /// Stable owner id.
    pub owner_id: u32,
    /// Display name, e.g. `Let's Encrypt`.
    pub name: String,
    /// ISO 3166-1 alpha-2 home country.
    pub country: String,
}

/// Issuer-id → owner database.
#[derive(Debug, Clone, Default)]
pub struct CaOwnerDb {
    owners: KeyedMap<u32, CaOwner>,
    by_issuer: KeyedMap<u32, u32>,
}

impl CaOwnerDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an owner.
    pub fn add_owner(&mut self, owner: CaOwner) {
        self.owners.insert(owner.owner_id, owner);
    }

    /// Maps an issuing certificate id to an owner.
    pub fn map_issuer(&mut self, issuer_id: u32, owner_id: u32) {
        self.by_issuer.insert(issuer_id, owner_id);
    }

    /// Owner of a leaf certificate's issuer.
    pub fn owner_of_issuer(&self, issuer_id: u32) -> Option<&CaOwner> {
        self.owners.get(self.by_issuer.get(&issuer_id)?)
    }

    /// Owner by id.
    pub fn owner(&self, owner_id: u32) -> Option<&CaOwner> {
        self.owners.get(&owner_id)
    }

    /// Number of registered owners.
    pub fn num_owners(&self) -> usize {
        self.owners.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intermediates_roll_up() {
        let mut db = CaOwnerDb::new();
        db.add_owner(CaOwner {
            owner_id: 1,
            name: "Let's Encrypt".into(),
            country: "US".into(),
        });
        db.map_issuer(10, 1); // R10
        db.map_issuer(11, 1); // R11
        assert_eq!(db.owner_of_issuer(10).unwrap().name, "Let's Encrypt");
        assert_eq!(db.owner_of_issuer(11).unwrap().name, "Let's Encrypt");
        assert_eq!(db.num_owners(), 1);
    }

    #[test]
    fn unknown_issuer() {
        let db = CaOwnerDb::new();
        assert!(db.owner_of_issuer(404).is_none());
        assert!(db.owner(404).is_none());
    }
}
