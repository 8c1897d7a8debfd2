//! Certificate model: leaf/issuer structure, SAN matching, chain checks,
//! and the compact binary codec.

use bytes::{BufMut, Bytes, BytesMut};

/// A certificate: just the fields the measurement consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Serial number (unique per issuer in a well-formed world).
    pub serial: u64,
    /// Subject common name, e.g. `example.com` or a CA's name.
    pub subject: String,
    /// Subject alternative names; entries may be wildcards (`*.example.com`).
    pub san: Vec<String>,
    /// Issuer identity: an opaque CA certificate id the enrichment database
    /// maps to an owning organization (the CCADB join).
    pub issuer_id: u32,
    /// Issuer display name, e.g. `R11` or `DigiCert TLS RSA SHA256 2020 CA1`.
    pub issuer_name: String,
    /// Validity start (unix seconds).
    pub not_before: u64,
    /// Validity end (unix seconds).
    pub not_after: u64,
    /// True for CA certificates (intermediates/roots).
    pub is_ca: bool,
}

impl Certificate {
    /// Whether `hostname` matches the subject or a SAN entry, with
    /// single-label wildcard semantics (`*.example.com` matches
    /// `www.example.com` but not `a.b.example.com` or `example.com`).
    pub fn matches_hostname(&self, hostname: &str) -> bool {
        let host = hostname.to_ascii_lowercase();
        std::iter::once(self.subject.as_str())
            .chain(self.san.iter().map(String::as_str))
            .any(|pattern| Self::pattern_matches(&pattern.to_ascii_lowercase(), &host))
    }

    fn pattern_matches(pattern: &str, host: &str) -> bool {
        if let Some(suffix) = pattern.strip_prefix("*.") {
            match host.split_once('.') {
                Some((first_label, rest)) => !first_label.is_empty() && rest == suffix,
                None => false,
            }
        } else {
            pattern == host
        }
    }

    /// Whether the certificate is valid at `now` (unix seconds).
    pub fn valid_at(&self, now: u64) -> bool {
        self.not_before <= now && now <= self.not_after
    }

    /// Encodes into `buf`.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u64(self.serial);
        put_str(buf, &self.subject);
        buf.put_u16(self.san.len() as u16);
        for s in &self.san {
            put_str(buf, s);
        }
        buf.put_u32(self.issuer_id);
        put_str(buf, &self.issuer_name);
        buf.put_u64(self.not_before);
        buf.put_u64(self.not_after);
        buf.put_u8(self.is_ca as u8);
    }

    /// Decodes from `bytes` at `*pos`, advancing it.
    pub fn decode_from(bytes: &[u8], pos: &mut usize) -> Option<Certificate> {
        let serial = get_u64(bytes, pos)?;
        let subject = get_str(bytes, pos)?;
        let n_san = get_u16(bytes, pos)? as usize;
        if n_san > 256 {
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

fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_u16(bytes: &[u8], pos: &mut usize) -> Option<u16> {
    let s = bytes.get(*pos..*pos + 2)?;
    *pos += 2;
    Some(u16::from_be_bytes([s[0], s[1]]))
}

fn get_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let s = bytes.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let s = bytes.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_be_bytes(s.try_into().ok()?))
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let len = get_u16(bytes, pos)? as usize;
    let s = bytes.get(*pos..*pos + len)?;
    *pos += len;
    String::from_utf8(s.to_vec()).ok()
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

    /// Validates chain shape for `hostname` at `now`: non-empty, leaf
    /// matches the name and is in validity, each cert's issuer id equals
    /// the next cert's own id (`serial` doubles as the CA cert id for CA
    /// certificates), and every non-leaf is a CA certificate.
    pub fn validate(&self, hostname: &str, now: u64) -> Result<(), ChainError> {
        let leaf = self.leaf().ok_or(ChainError::Empty)?;
        if !leaf.matches_hostname(hostname) {
            return Err(ChainError::HostnameMismatch);
        }
        for (i, cert) in self.certs.iter().enumerate() {
            if !cert.valid_at(now) {
                return Err(ChainError::Expired(i));
            }
            if i > 0 && !cert.is_ca {
                return Err(ChainError::NonCaIssuer(i));
            }
            if i + 1 < self.certs.len() {
                let issuer = &self.certs[i + 1];
                if cert.issuer_id as u64 != issuer.serial {
                    return Err(ChainError::BrokenLink(i));
                }
            }
        }
        Ok(())
    }

    /// Encodes the chain (count-prefixed).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        encode_certs_into(&self.certs, &mut buf);
        buf.freeze()
    }

    /// Decodes a chain from `bytes` at `*pos`.
    pub fn decode_from(bytes: &[u8], pos: &mut usize) -> Option<CertificateChain> {
        let n = get_u16(bytes, pos)? as usize;
        if n > 16 {
            return None; // defensive bound
        }
        let mut certs = Vec::with_capacity(n);
        for _ in 0..n {
            certs.push(Certificate::decode_from(bytes, pos)?);
        }
        Some(CertificateChain { certs })
    }
}

/// Encodes certificates, leaf first, as the chain [`CertificateChain::encode`]
/// writes for them — without the certificates having to be gathered into
/// an owned chain first.
pub(crate) fn encode_certs_into<'a, I>(certs: I, buf: &mut impl BufMut)
where
    I: IntoIterator<Item = &'a Certificate>,
    I::IntoIter: ExactSizeIterator,
{
    let certs = certs.into_iter();
    buf.put_u16(certs.len() as u16);
    for c in certs {
        c.encode_into(buf);
    }
}

/// Chain validation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// The chain carries no certificates.
    Empty,
    /// The leaf does not cover the requested hostname.
    HostnameMismatch,
    /// Certificate at this index is outside its validity window.
    Expired(usize),
    /// Certificate at this index does not link to its issuer.
    BrokenLink(usize),
    /// A non-leaf certificate is not a CA certificate.
    NonCaIssuer(usize),
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Empty => write!(f, "empty chain"),
            ChainError::HostnameMismatch => write!(f, "leaf does not match hostname"),
            ChainError::Expired(i) => write!(f, "certificate {i} expired or not yet valid"),
            ChainError::BrokenLink(i) => write!(f, "certificate {i} does not link to issuer"),
            ChainError::NonCaIssuer(i) => write!(f, "certificate {i} is not a CA"),
        }
    }
}

impl std::error::Error for ChainError {}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn ca(serial: u64, name: &str) -> Certificate {
        Certificate {
            serial,
            subject: name.to_string(),
            san: vec![],
            issuer_id: serial as u32, // self-signed root
            issuer_name: name.to_string(),
            not_before: 0,
            not_after: u64::MAX,
            is_ca: true,
        }
    }

    pub(crate) fn leaf(subject: &str, san: &[&str], issuer: &Certificate) -> Certificate {
        Certificate {
            serial: 1000,
            subject: subject.to_string(),
            san: san.iter().map(|s| s.to_string()).collect(),
            issuer_id: issuer.serial as u32,
            issuer_name: issuer.subject.clone(),
            not_before: 100,
            not_after: 200,
            is_ca: false,
        }
    }

    #[test]
    fn hostname_matching() {
        let root = ca(1, "Test Root");
        let c = leaf("example.com", &["*.example.com", "example.net"], &root);
        assert!(c.matches_hostname("example.com"));
        assert!(c.matches_hostname("EXAMPLE.COM"));
        assert!(c.matches_hostname("www.example.com"));
        assert!(c.matches_hostname("example.net"));
        assert!(!c.matches_hostname("a.b.example.com"));
        assert!(!c.matches_hostname("badexample.com"));
        assert!(!c.matches_hostname("example.org"));
    }

    #[test]
    fn chain_roundtrip() {
        let root = ca(1, "Test Root");
        let chain = CertificateChain {
            certs: vec![leaf("example.com", &["*.example.com"], &root), root.clone()],
        };
        let enc = chain.encode();
        let mut pos = 0;
        let dec = CertificateChain::decode_from(&enc, &mut pos).unwrap();
        assert_eq!(dec, chain);
        assert_eq!(pos, enc.len());
    }

    #[test]
    fn chain_validation() {
        let root = ca(1, "Test Root");
        let good = CertificateChain {
            certs: vec![leaf("example.com", &[], &root), root.clone()],
        };
        assert_eq!(good.validate("example.com", 150), Ok(()));
        assert_eq!(
            good.validate("other.com", 150),
            Err(ChainError::HostnameMismatch)
        );
        assert_eq!(
            good.validate("example.com", 50),
            Err(ChainError::Expired(0))
        );

        let other_root = ca(2, "Other Root");
        let broken = CertificateChain {
            certs: vec![leaf("example.com", &[], &root), other_root],
        };
        assert_eq!(
            broken.validate("example.com", 150),
            Err(ChainError::BrokenLink(0))
        );
        let empty = CertificateChain { certs: vec![] };
        assert_eq!(empty.validate("x", 0), Err(ChainError::Empty));
    }

    #[test]
    fn non_ca_issuer_rejected() {
        let root = ca(1, "Test Root");
        let mut fake_intermediate = leaf("not-a-ca.com", &[], &root);
        fake_intermediate.serial = 77;
        let mut l = leaf("example.com", &[], &root);
        l.issuer_id = 77;
        let chain = CertificateChain {
            certs: vec![l, fake_intermediate, root],
        };
        assert_eq!(
            chain.validate("example.com", 150),
            Err(ChainError::NonCaIssuer(1))
        );
    }

    #[test]
    fn truncated_decode_fails() {
        let root = ca(1, "Test Root");
        let chain = CertificateChain {
            certs: vec![leaf("example.com", &[], &root)],
        };
        let enc = chain.encode();
        for cut in [0, 1, 5, enc.len() - 1] {
            let mut pos = 0;
            assert!(
                CertificateChain::decode_from(&enc[..cut], &mut pos).is_none(),
                "cut {cut}"
            );
        }
    }
}
