//! Domain names: validated label sequences.
//!
//! Stored as one lowercase dot-separated `String` rather than a
//! `Vec<String>` of labels: names are cloned and hashed constantly on the
//! resolver and wire-codec hot paths, and the compact form makes a clone
//! one allocation and a hash one pass.

use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;

/// Maximum length of a single label, per RFC 1035.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum total name length (presentation form), per RFC 1035.
pub const MAX_NAME_LEN: usize = 253;

/// Whether `b` may appear in a label: `[A-Za-z0-9_-]`.
pub(crate) const fn is_label_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_'
}

/// The number of labels of the name whose presentation form is `name`.
pub(crate) fn label_count(name: &str) -> usize {
    if name.is_empty() {
        0
    } else {
        name.bytes().filter(|&b| b == b'.').count() + 1
    }
}

/// The presentation forms of `name` and each of its ancestors, most
/// specific first, ending with the root's `""`.
pub(crate) fn suffixes(name: &str) -> impl Iterator<Item = &str> {
    std::iter::once(0)
        .chain(name.match_indices('.').map(|(i, _)| i + 1))
        .map(move |i| &name[i..])
        .chain((!name.is_empty()).then_some(""))
}

/// Whether the name `name` equals `zone` or is underneath it, both in
/// presentation form.
pub(crate) fn is_within(name: &str, zone: &str) -> bool {
    if zone.is_empty() {
        return true;
    }
    if name.len() == zone.len() {
        return name == zone;
    }
    // Strictly longer: the suffix must start at a label boundary.
    name.len() > zone.len()
        && name.ends_with(zone)
        && name.as_bytes()[name.len() - zone.len() - 1] == b'.'
}

/// A fully qualified domain name, stored lowercase without the trailing
/// root dot. The root itself is the empty string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainName {
    name: String,
}

/// Errors from parsing a domain name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty or longer than [`MAX_LABEL_LEN`].
    BadLabel(String),
    /// The full name exceeds [`MAX_NAME_LEN`] characters.
    TooLong(usize),
    /// A label contains a character outside `[a-z0-9_-]`.
    BadCharacter(char),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::BadLabel(l) => write!(f, "bad label {l:?}"),
            NameError::TooLong(n) => write!(f, "name too long ({n} chars)"),
            NameError::BadCharacter(c) => write!(f, "bad character {c:?}"),
        }
    }
}

impl std::error::Error for NameError {}

impl DomainName {
    /// The DNS root (empty name).
    pub fn root() -> Self {
        DomainName {
            name: String::new(),
        }
    }

    /// Parses a name; accepts an optional trailing dot; lowercases.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Self::root());
        }
        if s.len() > MAX_NAME_LEN {
            return Err(NameError::TooLong(s.len()));
        }
        for raw in s.split('.') {
            if raw.is_empty() || raw.len() > MAX_LABEL_LEN {
                return Err(NameError::BadLabel(raw.to_string()));
            }
            for c in raw.chars() {
                if !(c.is_ascii() && is_label_byte(c as u8)) {
                    return Err(NameError::BadCharacter(c));
                }
            }
        }
        Ok(DomainName {
            name: s.to_ascii_lowercase(),
        })
    }

    /// Wraps a presentation form that already passed [`DomainName::parse`]'s
    /// checks: lowercase, no trailing dot. The wire decoder checks each
    /// byte as it copies it, so it builds its names through this.
    pub(crate) fn from_validated(name: String) -> Self {
        DomainName { name }
    }

    /// Builds a name from pre-validated labels (panics on invalid input;
    /// used by generators that construct names programmatically).
    pub fn from_labels<I: IntoIterator<Item = S>, S: Into<String>>(labels: I) -> Self {
        let joined = labels
            .into_iter()
            .map(Into::into)
            .collect::<Vec<String>>()
            .join(".");
        Self::parse(&joined).unwrap_or_else(|e| panic!("invalid labels {joined:?}: {e}"))
    }

    /// The presentation form without the trailing dot; empty for the root.
    pub fn as_str(&self) -> &str {
        &self.name
    }

    /// The labels, leftmost (most specific) first.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.name.split('.').filter(|l| !l.is_empty())
    }

    /// Number of labels; 0 for the root.
    pub fn num_labels(&self) -> usize {
        label_count(&self.name)
    }

    /// True for the DNS root.
    pub fn is_root(&self) -> bool {
        self.name.is_empty()
    }

    /// The presentation forms of the name and each of its ancestors,
    /// most specific first, ending with the root's `""` — borrowed, so a
    /// walk up the tree allocates nothing.
    pub(crate) fn suffixes(&self) -> impl Iterator<Item = &str> {
        suffixes(&self.name)
    }

    /// The name's parent (one label removed from the left); `None` at root.
    pub fn parent(&self) -> Option<DomainName> {
        if self.name.is_empty() {
            None
        } else {
            Some(match self.name.split_once('.') {
                Some((_, rest)) => DomainName {
                    name: rest.to_string(),
                },
                None => Self::root(),
            })
        }
    }

    /// Whether `self` equals `other` or is underneath it
    /// (`www.example.com` is within `example.com` and within the root).
    pub fn is_within(&self, other: &DomainName) -> bool {
        is_within(&self.name, &other.name)
    }

    /// Prepends a label, producing a child name.
    pub fn child(&self, label: &str) -> Result<DomainName, NameError> {
        let mut s = String::with_capacity(label.len() + 1 + self.name.len());
        s.push_str(label);
        if !self.name.is_empty() {
            s.push('.');
            s.push_str(&self.name);
        }
        Self::parse(&s)
    }

    /// The top-level domain label, if any (`com` for `www.example.com`).
    pub fn tld(&self) -> Option<&str> {
        if self.name.is_empty() {
            None
        } else {
            self.name.rsplit('.').next()
        }
    }
}

/// Maps keyed by name can be probed with a borrowed suffix of another
/// name (`&name.as_str()[i..]`), so walking up a name's ancestors
/// allocates nothing. Sound because the derived `Hash`, `Eq` and `Ord`
/// see only the one `String` field, exactly as `str` does.
impl Borrow<str> for DomainName {
    fn borrow(&self) -> &str {
        &self.name
    }
}

/// The presentation form, without copying it.
impl From<DomainName> for String {
    fn from(name: DomainName) -> String {
        name.name
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.name.is_empty() {
            write!(f, ".")
        } else {
            write!(f, "{}", self.name)
        }
    }
}

impl FromStr for DomainName {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = DomainName::parse("WWW.Example.COM.").unwrap();
        assert_eq!(n.to_string(), "www.example.com");
        assert_eq!(n.num_labels(), 3);
        assert_eq!(n.tld(), Some("com"));
    }

    #[test]
    fn root_name() {
        let r = DomainName::parse(".").unwrap();
        assert!(r.is_root());
        assert_eq!(r.to_string(), ".");
        assert_eq!(r, DomainName::root());
        assert_eq!(r.parent(), None);
        assert_eq!(r.tld(), None);
        assert_eq!(r.labels().count(), 0);
    }

    #[test]
    fn hierarchy() {
        let site = DomainName::parse("www.example.com").unwrap();
        let zone = DomainName::parse("example.com").unwrap();
        let tld = DomainName::parse("com").unwrap();
        assert!(site.is_within(&zone));
        assert!(site.is_within(&tld));
        assert!(site.is_within(&DomainName::root()));
        assert!(site.is_within(&site));
        assert!(!zone.is_within(&site));
        assert!(!DomainName::parse("example.org").unwrap().is_within(&tld));
        assert_eq!(site.parent(), Some(zone.clone()));
        assert_eq!(zone.child("www").unwrap(), site);
    }

    #[test]
    fn rejects_bad_names() {
        assert!(DomainName::parse("exa mple.com").is_err());
        assert!(DomainName::parse("a..b").is_err());
        assert!(DomainName::parse(&"x".repeat(64)).is_err());
        let long = format!("{}.com", "a.".repeat(130));
        assert!(DomainName::parse(&long).is_err());
    }

    #[test]
    fn suffix_alignment_not_fooled() {
        // "ample.com" is not a parent of "example.com".
        let a = DomainName::parse("example.com").unwrap();
        let b = DomainName::parse("ample.com").unwrap();
        assert!(!a.is_within(&b));
    }

    #[test]
    fn suffixes_walk_up_to_the_root() {
        let n = DomainName::parse("a.b.c").unwrap();
        assert_eq!(n.suffixes().collect::<Vec<_>>(), ["a.b.c", "b.c", "c", ""]);
        assert_eq!(DomainName::root().suffixes().collect::<Vec<_>>(), [""]);
    }

    #[test]
    fn labels_iterate_left_to_right() {
        let n = DomainName::parse("a.b.c").unwrap();
        assert_eq!(n.labels().collect::<Vec<_>>(), ["a", "b", "c"]);
    }

    #[test]
    fn from_labels_builder() {
        let n = DomainName::from_labels(["ns1", "provider", "net"]);
        assert_eq!(n.to_string(), "ns1.provider.net");
    }
}
