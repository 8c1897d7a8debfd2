//! The owned certificate chain: the reference form the in-place reader is
//! tested against. [`CertificateChain::decode_from`] decodes every field
//! of every certificate into owned strings; a [`ChainView`](super::ChainView) must accept
//! exactly the bytes it decodes to their end and read the same fields.
//! Nothing outside the tests builds one.

use super::{
    encode_certs_into, get_str_ref, get_u16, get_u32, get_u64, names_match, validate_chain,
    CertRef, Certificate, ChainError, MAX_CHAIN, MAX_SANS,
};

impl Certificate {
    /// Whether `hostname` matches the subject or a SAN entry, with
    /// single-label wildcard semantics (`*.example.com` matches
    /// `www.example.com` but not `a.b.example.com` or `example.com`).
    pub fn matches_hostname(&self, hostname: &str) -> bool {
        let san = self.san.iter().map(String::as_str);
        names_match(std::iter::once(self.subject.as_str()).chain(san), hostname)
    }

    /// Whether the certificate is valid at `now` (unix seconds).
    pub fn valid_at(&self, now: u64) -> bool {
        self.not_before <= now && now <= self.not_after
    }

    /// Decodes from `bytes` at `*pos`, advancing it.
    pub fn decode_from(bytes: &[u8], pos: &mut usize) -> Option<Certificate> {
        let serial = get_u64(bytes, pos)?;
        let subject = get_str(bytes, pos)?;
        let n_san = get_u16(bytes, pos)? as usize;
        if n_san > MAX_SANS {
            return None; // defensively bound attacker-controlled lengths
        }
        let mut san = Vec::with_capacity(n_san);
        for _ in 0..n_san {
            san.push(get_str(bytes, pos)?);
        }
        let issuer_id = get_u32(bytes, pos)?;
        let issuer_name = get_str(bytes, pos)?;
        let not_before = get_u64(bytes, pos)?;
        let not_after = get_u64(bytes, pos)?;
        let is_ca = *bytes.get(*pos)? != 0;
        *pos += 1;
        Some(Certificate {
            serial,
            subject,
            san,
            issuer_id,
            issuer_name,
            not_before,
            not_after,
            is_ca,
        })
    }
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    get_str_ref(bytes, pos).map(str::to_owned)
}

/// A certificate chain, leaf first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateChain {
    /// Certificates, leaf at index 0.
    pub certs: Vec<Certificate>,
}

impl CertificateChain {
    /// The leaf certificate; `None` for an empty chain.
    pub fn leaf(&self) -> Option<&Certificate> {
        self.certs.first()
    }

    /// Validates chain shape for `hostname` at `now`, by the rules
    /// [`ChainView::validate`](super::ChainView::validate) applies in place.
    pub fn validate(&self, hostname: &str, now: u64) -> Result<(), ChainError> {
        validate_chain(
            self.leaf().map(|leaf| leaf.matches_hostname(hostname)),
            (self.certs.iter()).map(|c| (c.serial, c.issuer_id, c.is_ca, c.valid_at(now))),
        )
    }

    /// Encodes the chain (count-prefixed).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_certs_into(self.certs.iter().map(CertRef::Whole), &mut buf);
        buf
    }

    /// Decodes a chain from `bytes` at `*pos`.
    pub fn decode_from(bytes: &[u8], pos: &mut usize) -> Option<CertificateChain> {
        let n = get_u16(bytes, pos)? as usize;
        if n > MAX_CHAIN {
            return None; // defensive bound
        }
        let mut certs = Vec::with_capacity(n);
        for _ in 0..n {
            certs.push(Certificate::decode_from(bytes, pos)?);
        }
        Some(CertificateChain { certs })
    }
}
