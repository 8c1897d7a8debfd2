//! Certificate model: leaf/issuer structure, SAN matching, chain checks,
//! and the compact binary codec.
//!
//! One writer and one reader. A server owns its [`Certificate`]s (or names
//! a leaf it never holds, [`CertRef`]) and writes them into its flight;
//! the scanner reads a served chain in place: a [`ChainView`] over the
//! flight's bytes, whose [`CertView`]s borrow their strings, so a scan
//! decodes no owned certificate. The owned chain these are tested against
//! is compiled into the crate's tests only.

use bytes::BufMut;

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
}

/// Whether `hostname` matches one of `patterns`, ignoring ASCII case, with
/// single-label wildcard semantics.
fn names_match<'p>(mut patterns: impl Iterator<Item = &'p str>, hostname: &str) -> bool {
    patterns.any(|pattern| match pattern.strip_prefix("*.") {
        Some(suffix) => match hostname.split_once('.') {
            Some((first_label, rest)) => {
                !first_label.is_empty() && rest.eq_ignore_ascii_case(suffix)
            }
            None => false,
        },
        None => pattern.eq_ignore_ascii_case(hostname),
    })
}

/// Most SAN entries a certificate may carry (a defensive bound).
const MAX_SANS: usize = 256;

/// Most certificates a chain may carry (a defensive bound).
const MAX_CHAIN: usize = 16;

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

/// A length-prefixed string, borrowed; checked to be UTF-8.
fn get_str_ref<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let len = get_u16(bytes, pos)? as usize;
    let s = bytes.get(*pos..*pos + len)?;
    *pos += len;
    std::str::from_utf8(s).ok()
}

/// A certificate read in place: the fields of a [`Certificate`], its
/// strings borrowed from the bytes it was read from, every one checked to
/// be UTF-8 when it was read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertView<'a> {
    /// Serial number.
    pub serial: u64,
    /// Subject common name.
    pub subject: &'a str,
    /// The SAN entries as encoded, one length-prefixed string after
    /// another ([`CertView::san`] reads them).
    san: &'a [u8],
    san_count: u16,
    /// Issuer identity (see [`Certificate::issuer_id`]).
    pub issuer_id: u32,
    /// Issuer display name.
    pub issuer_name: &'a str,
    /// Validity start (unix seconds).
    pub not_before: u64,
    /// Validity end (unix seconds).
    pub not_after: u64,
    /// True for CA certificates.
    pub is_ca: bool,
}

impl<'a> CertView<'a> {
    /// Reads the certificate at `*pos`, advancing it: the fields in
    /// [`Certificate::encode_into`]'s order, each string's length in
    /// bounds and its bytes UTF-8, at most 256 SANs; `None` otherwise.
    fn read(bytes: &'a [u8], pos: &mut usize) -> Option<Self> {
        let serial = get_u64(bytes, pos)?;
        let subject = get_str_ref(bytes, pos)?;
        let san_count = get_u16(bytes, pos)?;
        if usize::from(san_count) > MAX_SANS {
            return None;
        }
        let san_start = *pos;
        for _ in 0..san_count {
            get_str_ref(bytes, pos)?;
        }
        let san = &bytes[san_start..*pos];
        let issuer_id = get_u32(bytes, pos)?;
        let issuer_name = get_str_ref(bytes, pos)?;
        let not_before = get_u64(bytes, pos)?;
        let not_after = get_u64(bytes, pos)?;
        let is_ca = *bytes.get(*pos)? != 0;
        *pos += 1;
        Some(CertView {
            serial,
            subject,
            san,
            san_count,
            issuer_id,
            issuer_name,
            not_before,
            not_after,
            is_ca,
        })
    }

    /// The subject alternative names, in order.
    pub fn san(&self) -> impl Iterator<Item = &'a str> {
        let (bytes, mut pos) = (self.san, 0);
        (0..self.san_count).map_while(move |_| get_str_ref(bytes, &mut pos))
    }

    /// Whether `hostname` matches the subject or a SAN entry, ignoring
    /// ASCII case, with single-label wildcard semantics (`*.example.com`
    /// matches `www.example.com` but not `a.b.example.com` or
    /// `example.com`).
    pub fn matches_hostname(&self, hostname: &str) -> bool {
        names_match(std::iter::once(self.subject).chain(self.san()), hostname)
    }

    /// Whether the certificate is valid at `now` (unix seconds).
    pub fn valid_at(&self, now: u64) -> bool {
        self.not_before <= now && now <= self.not_after
    }
}

/// A certificate chain read in place, leaf first: what a scan returns.
/// It borrows the flight it was read from and allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainView<'a> {
    /// The encoded certificates, after the count.
    certs: &'a [u8],
    len: usize,
    leaf: Option<CertView<'a>>,
}

impl<'a> ChainView<'a> {
    /// Reads the chain that fills `bytes` exactly: a count of at most 16,
    /// then that many certificates ([`CertView`]) and nothing after them.
    /// Every certificate is read and checked (bounds, UTF-8 strings), not
    /// only the leaf.
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        let mut pos = 0;
        let len = get_u16(bytes, &mut pos)? as usize;
        if len > MAX_CHAIN {
            return None;
        }
        let certs = &bytes[pos..];
        let mut leaf = None;
        for _ in 0..len {
            let cert = CertView::read(bytes, &mut pos)?;
            leaf.get_or_insert(cert);
        }
        (pos == bytes.len()).then_some(ChainView { certs, len, leaf })
    }

    /// The leaf certificate; `None` for an empty chain.
    pub fn leaf(&self) -> Option<CertView<'a>> {
        self.leaf
    }

    /// The certificates, leaf first.
    pub fn certs(&self) -> impl Iterator<Item = CertView<'a>> {
        let (bytes, mut pos) = (self.certs, 0);
        (0..self.len).map_while(move |_| CertView::read(bytes, &mut pos))
    }

    /// Validates chain shape for `hostname` at `now`: non-empty, leaf
    /// matches the name, every certificate is in validity, each
    /// certificate's issuer id equals the next one's own id (`serial`
    /// doubles as the CA cert id for CA certificates), and every non-leaf
    /// is a CA certificate.
    pub fn validate(&self, hostname: &str, now: u64) -> Result<(), ChainError> {
        validate_chain(
            self.leaf.map(|leaf| leaf.matches_hostname(hostname)),
            (self.certs()).map(|c| (c.serial, c.issuer_id, c.is_ca, c.valid_at(now))),
        )
    }
}

/// Validates chain shape (see [`ChainView::validate`]) from
/// whether the leaf matches the hostname (`None`: the chain is empty) and
/// each certificate's `(serial, issuer_id, is_ca, valid now)`, leaf first.
fn validate_chain(
    leaf_matches: Option<bool>,
    certs: impl Iterator<Item = (u64, u32, bool, bool)>,
) -> Result<(), ChainError> {
    if !leaf_matches.ok_or(ChainError::Empty)? {
        return Err(ChainError::HostnameMismatch);
    }
    let mut certs = certs.enumerate().peekable();
    while let Some((i, (_, issuer_id, is_ca, valid))) = certs.next() {
        if !valid {
            return Err(ChainError::Expired(i));
        }
        if i > 0 && !is_ca {
            return Err(ChainError::NonCaIssuer(i));
        }
        if let Some(&(_, (issuer_serial, ..))) = certs.peek() {
            if u64::from(issuer_id) != issuer_serial {
                return Err(ChainError::BrokenLink(i));
            }
        }
    }
    Ok(())
}

/// A certificate to encode, borrowed: a whole [`Certificate`], or a leaf
/// for one name that a server presents without ever holding it.
#[derive(Debug, Clone, Copy)]
pub enum CertRef<'a> {
    /// A stored certificate.
    Whole(&'a Certificate),
    /// The leaf with this serial, `name` as subject and sole SAN, issued
    /// by `issuer` (its id and name are the issuer's serial and subject),
    /// valid forever.
    Leaf {
        /// Serial number.
        serial: u64,
        /// The one name: subject and sole SAN.
        name: &'a str,
        /// The issuing CA certificate.
        issuer: &'a Certificate,
    },
}

impl CertRef<'_> {
    /// Encodes the bytes [`Certificate::encode_into`] writes for the
    /// certificate this names.
    pub(crate) fn encode_into(self, buf: &mut impl BufMut) {
        match self {
            CertRef::Whole(cert) => cert.encode_into(buf),
            CertRef::Leaf {
                serial,
                name,
                issuer,
            } => {
                buf.put_u64(serial);
                put_str(buf, name);
                buf.put_u16(1);
                put_str(buf, name);
                buf.put_u32(issuer.serial as u32);
                put_str(buf, &issuer.subject);
                buf.put_u64(0);
                buf.put_u64(u64::MAX);
                buf.put_u8(0);
            }
        }
    }
}

/// Encodes a chain: the count, then each certificate leaf first, borrowed
/// where it is stored, so nothing is gathered into an owned chain.
pub(crate) fn encode_certs_into<'a, I>(certs: I, buf: &mut impl BufMut)
where
    I: IntoIterator<Item = CertRef<'a>>,
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

    /// `chain` validated for `hostname` at `now`, owned and read in place
    /// from its encoding: the two agree.
    fn validate(chain: &CertificateChain, hostname: &str, now: u64) -> Result<(), ChainError> {
        let enc = chain.encode();
        let view = ChainView::parse(&enc).expect("an encoded chain reads");
        let owned = chain.validate(hostname, now);
        assert_eq!(view.validate(hostname, now), owned, "{hostname} at {now}");
        owned
    }

    #[test]
    fn hostname_matching() {
        let root = ca(1, "Test Root");
        let mut c = leaf("example.com", &["*.example.com", "example.net"], &root);
        c.subject = "Example.COM".into();
        let enc = CertificateChain {
            certs: vec![c.clone()],
        }
        .encode();
        let view = ChainView::parse(&enc).unwrap().leaf().unwrap();
        assert_eq!(view.san().collect::<Vec<_>>(), c.san);
        for (host, matches) in [
            ("example.com", true),
            ("EXAMPLE.COM", true),
            ("www.example.com", true),
            ("WWW.Example.Com", true),
            ("example.net", true),
            ("a.b.example.com", false),
            ("badexample.com", false),
            (".example.com", false),
            ("example.org", false),
        ] {
            assert_eq!(c.matches_hostname(host), matches, "{host}");
            assert_eq!(
                view.matches_hostname(host),
                matches,
                "{host}, read in place"
            );
        }
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
        assert_eq!(validate(&good, "example.com", 150), Ok(()));
        assert_eq!(
            validate(&good, "other.com", 150),
            Err(ChainError::HostnameMismatch)
        );
        assert_eq!(
            validate(&good, "example.com", 50),
            Err(ChainError::Expired(0))
        );

        let other_root = ca(2, "Other Root");
        let broken = CertificateChain {
            certs: vec![leaf("example.com", &[], &root), other_root],
        };
        assert_eq!(
            validate(&broken, "example.com", 150),
            Err(ChainError::BrokenLink(0))
        );
        let empty = CertificateChain { certs: vec![] };
        assert_eq!(validate(&empty, "x", 0), Err(ChainError::Empty));
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
            validate(&chain, "example.com", 150),
            Err(ChainError::NonCaIssuer(1))
        );
    }

    #[test]
    fn leaf_ref_encodes_like_the_leaf_it_names() {
        let root = ca(1, "Test Root");
        let leaf = Certificate {
            serial: 1_000_007,
            subject: "example.com".into(),
            san: vec!["example.com".into()],
            issuer_id: 1,
            issuer_name: "Test Root".into(),
            not_before: 0,
            not_after: u64::MAX,
            is_ca: false,
        };
        let whole = CertificateChain {
            certs: vec![leaf, root.clone()],
        }
        .encode();
        let mut borrowed = Vec::new();
        let leaf_ref = CertRef::Leaf {
            serial: 1_000_007,
            name: "example.com",
            issuer: &root,
        };
        encode_certs_into([leaf_ref, CertRef::Whole(&root)], &mut borrowed);
        assert_eq!(borrowed, whole);
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

#[cfg(test)]
pub(crate) use reference::CertificateChain;

#[cfg(test)]
mod reference;
