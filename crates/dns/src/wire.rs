//! DNS wire format: an RFC 1035 subset with name compression.
//!
//! Messages are the standard header / question / answer / authority /
//! additional layout. Encoding compresses repeated names with pointers;
//! decoding follows pointers with a hop limit to reject loops.

use crate::name::{is_label_byte, DomainName, MAX_LABEL_LEN, MAX_NAME_LEN};
use bytes::{BufMut, Bytes};
use std::fmt;
use std::net::Ipv4Addr;
use webdep_netsim::build_payload;

/// Record types supported by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 host address.
    A,
    /// Authoritative nameserver.
    Ns,
    /// Canonical name (alias).
    Cname,
}

impl RecordType {
    /// RFC 1035 TYPE value.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
        }
    }

    /// Parses a TYPE value.
    pub fn from_code(code: u16) -> Option<Self> {
        match code {
            1 => Some(RecordType::A),
            2 => Some(RecordType::Ns),
            5 => Some(RecordType::Cname),
            _ => None,
        }
    }
}

/// Response codes used by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Malformed query.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
}

impl Rcode {
    /// Wire value (low 4 bits of the flags word).
    pub fn code(self) -> u16 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
        }
    }

    /// Parses a wire value (unknown codes map to `ServFail`).
    pub fn from_code(code: u16) -> Self {
        match code & 0xF {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            3 => Rcode::NxDomain,
            _ => Rcode::ServFail,
        }
    }
}

/// Record data for the supported types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RecordData {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// A nameserver host name.
    Ns(DomainName),
    /// A canonical name.
    Cname(DomainName),
}

impl RecordData {
    /// The record type of this data.
    pub fn record_type(&self) -> RecordType {
        match self {
            RecordData::A(_) => RecordType::A,
            RecordData::Ns(_) => RecordType::Ns,
            RecordData::Cname(_) => RecordType::Cname,
        }
    }
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: DomainName,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed record data.
    pub data: RecordData,
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub name: DomainName,
    /// Queried type.
    pub qtype: RecordType,
}

/// A DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id, echoed by responders.
    pub id: u16,
    /// True for responses (QR bit).
    pub is_response: bool,
    /// True when the responder is authoritative for the name (AA bit).
    pub authoritative: bool,
    /// Recursion desired (RD bit) — carried but the simulation's
    /// authoritative servers never recurse.
    pub recursion_desired: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Question section (the simulation always uses exactly one).
    pub questions: Vec<Question>,
    /// Answer records.
    pub answers: Vec<Record>,
    /// Authority (referral) records.
    pub authorities: Vec<Record>,
    /// Additional (glue) records.
    pub additionals: Vec<Record>,
}

impl Message {
    /// Builds a query for `name`/`qtype` with the given transaction id.
    pub fn query(id: u16, name: DomainName, qtype: RecordType) -> Self {
        Message {
            id,
            is_response: false,
            authoritative: false,
            recursion_desired: false,
            rcode: Rcode::NoError,
            questions: vec![Question { name, qtype }],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// The skeleton [`Message::response_to`] builds, taking this query's
    /// question section instead of cloning it.
    pub fn into_response(self) -> Self {
        Message {
            id: self.id,
            is_response: true,
            authoritative: false,
            recursion_desired: self.recursion_desired,
            rcode: Rcode::NoError,
            questions: self.questions,
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Builds an empty response skeleton echoing `query`'s id and question.
    pub fn response_to(query: &Message) -> Self {
        Message {
            id: query.id,
            is_response: true,
            authoritative: false,
            recursion_desired: query.recursion_desired,
            rcode: Rcode::NoError,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }
}

/// Errors from decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes.
    Truncated,
    /// A compression pointer loop or excessive indirection.
    PointerLoop,
    /// An unsupported record type appeared where one must be understood.
    UnsupportedType(u16),
    /// A label failed validation.
    BadName,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::PointerLoop => write!(f, "compression pointer loop"),
            WireError::UnsupportedType(t) => write!(f, "unsupported record type {t}"),
            WireError::BadName => write!(f, "malformed name"),
        }
    }
}

impl std::error::Error for WireError {}

// Flag word bits.
const FLAG_QR: u16 = 0x8000;
const FLAG_AA: u16 = 0x0400;
const FLAG_RD: u16 = 0x0100;
const CLASS_IN: u16 = 1;

/// Encodes a message to wire bytes (with name compression).
pub fn encode(msg: &Message) -> Bytes {
    build_payload(|buf| encode_into(buf, msg))
}

fn encode_into(buf: &mut Vec<u8>, msg: &Message) {
    let mut offsets = Suffixes::new();
    let mut flags = 0u16;
    if msg.is_response {
        flags |= FLAG_QR;
    }
    if msg.authoritative {
        flags |= FLAG_AA;
    }
    if msg.recursion_desired {
        flags |= FLAG_RD;
    }
    flags |= msg.rcode.code();
    let counts = [
        msg.questions.len(),
        msg.answers.len(),
        msg.authorities.len(),
        msg.additionals.len(),
    ];
    put_header(buf, msg.id, flags, counts);
    for q in &msg.questions {
        encode_name(buf, &q.name, &mut offsets);
        buf.put_u16(q.qtype.code());
        buf.put_u16(CLASS_IN);
    }
    for section in [&msg.answers, &msg.authorities, &msg.additionals] {
        for r in section {
            encode_record(buf, r, &mut offsets);
        }
    }
}

/// Encodes the one-question query [`Message::query`] builds, without
/// building the message: the same bytes, no name clone and no section
/// vectors.
pub(crate) fn encode_query(id: u16, name: &DomainName, qtype: RecordType) -> Bytes {
    build_payload(|buf| {
        put_header(buf, id, 0, [1, 0, 0, 0]);
        // A lone name has no earlier suffix to point at.
        encode_name(buf, name, &mut Suffixes::new());
        buf.put_u16(qtype.code());
        buf.put_u16(CLASS_IN);
    })
}

fn put_header(buf: &mut Vec<u8>, id: u16, flags: u16, counts: [usize; 4]) {
    buf.put_u16(id);
    buf.put_u16(flags);
    for c in counts {
        buf.put_u16(c as u16);
    }
}

/// Suffixes already written and their offsets, the compression pointer
/// targets. A message carries a handful of names, so a linear scan over
/// borrowed suffixes beats hashing them; the first [`INLINE_SUFFIXES`]
/// entries live on the stack and only a larger message spills to the heap.
struct Suffixes<'a> {
    inline: [(&'a str, u16); INLINE_SUFFIXES],
    len: usize,
    spill: Vec<(&'a str, u16)>,
}

const INLINE_SUFFIXES: usize = 24;

impl<'a> Suffixes<'a> {
    fn new() -> Self {
        Suffixes {
            inline: [("", 0); INLINE_SUFFIXES],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn get(&self, suffix: &str) -> Option<u16> {
        self.inline[..self.len]
            .iter()
            .chain(&self.spill)
            .find(|(s, _)| *s == suffix)
            .map(|&(_, off)| off)
    }

    /// Records a suffix [`Suffixes::get`] did not find.
    fn push(&mut self, suffix: &'a str, offset: u16) {
        if self.len < INLINE_SUFFIXES {
            self.inline[self.len] = (suffix, offset);
            self.len += 1;
        } else {
            self.spill.push((suffix, offset));
        }
    }
}

fn encode_record<'a>(buf: &mut Vec<u8>, r: &'a Record, offsets: &mut Suffixes<'a>) {
    encode_name(buf, &r.name, offsets);
    buf.put_u16(r.data.record_type().code());
    buf.put_u16(CLASS_IN);
    buf.put_u32(r.ttl);
    match &r.data {
        RecordData::A(ip) => {
            buf.put_u16(4);
            buf.put_slice(&ip.octets());
        }
        RecordData::Ns(n) | RecordData::Cname(n) => {
            // Two-pass: rdata length depends on compression, so reserve the
            // length slot, write the name, then patch.
            let len_pos = buf.len();
            buf.put_u16(0);
            let start = buf.len();
            encode_name(buf, n, offsets);
            let rdlen = (buf.len() - start) as u16;
            buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
        }
    }
}

/// Encodes `name`, emitting a compression pointer at the first suffix that
/// was already written.
fn encode_name<'a>(buf: &mut Vec<u8>, name: &'a DomainName, offsets: &mut Suffixes<'a>) {
    let mut rest = name.as_str();
    loop {
        if rest.is_empty() {
            buf.put_u8(0);
            return;
        }
        if let Some(off) = offsets.get(rest) {
            buf.put_u16(0xC000 | off);
            return;
        }
        // Record this suffix's offset if it is still pointer-addressable.
        if buf.len() < 0x3FFF {
            offsets.push(rest, buf.len() as u16);
        }
        let (label, tail) = rest.split_once('.').unwrap_or((rest, ""));
        buf.put_u8(label.len() as u8);
        buf.put_slice(label.as_bytes());
        rest = tail;
    }
}

/// Decodes a wire message.
pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let id = cur.u16()?;
    let flags = cur.u16()?;
    let qd = cur.u16()? as usize;
    let an = cur.u16()? as usize;
    let ns = cur.u16()? as usize;
    let ar = cur.u16()? as usize;

    // Counts come off the wire: size each section by what the remaining
    // bytes could hold (a question is at least 5 bytes, a record 11).
    let cap = |count: usize, min_len: usize, cur: &Cursor<'_>| count.min(cur.remaining() / min_len);
    let mut questions = Vec::with_capacity(cap(qd, 5, &cur));
    for _ in 0..qd {
        let name = decode_name(&mut cur)?;
        let qtype_raw = cur.u16()?;
        let qtype =
            RecordType::from_code(qtype_raw).ok_or(WireError::UnsupportedType(qtype_raw))?;
        let _class = cur.u16()?;
        questions.push(Question { name, qtype });
    }
    let mut sections = [
        Vec::with_capacity(cap(an, 11, &cur)),
        Vec::with_capacity(cap(ns, 11, &cur)),
        Vec::with_capacity(cap(ar, 11, &cur)),
    ];
    for (idx, count) in [(0, an), (1, ns), (2, ar)] {
        for _ in 0..count {
            if let Some(r) = decode_record(&mut cur)? {
                sections[idx].push(r);
            }
        }
    }
    let [answers, authorities, additionals] = sections;
    Ok(Message {
        id,
        is_response: flags & FLAG_QR != 0,
        authoritative: flags & FLAG_AA != 0,
        recursion_desired: flags & FLAG_RD != 0,
        rcode: Rcode::from_code(flags),
        questions,
        answers,
        authorities,
        additionals,
    })
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let hi = self.u8()? as u16;
        let lo = self.u8()? as u16;
        Ok(hi << 8 | lo)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let hi = self.u16()? as u32;
        let lo = self.u16()? as u32;
        Ok(hi << 16 | lo)
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn slice(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(len).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

/// A name being decoded: the dot-joined wire labels, lowercased and
/// checked byte by byte against [`DomainName::parse`]'s rules as they are
/// copied, so the name is never parsed again.
struct NameBuf {
    /// Room for the longest name plus the one trailing dot `parse` strips;
    /// a longer joined name can never parse.
    bytes: [u8; MAX_NAME_LEN + 1],
    len: usize,
    /// Length of the label being copied. A wire label may carry dots of
    /// its own, which split it as they would split the joined text.
    label: usize,
}

impl NameBuf {
    fn push(&mut self, b: u8) -> Result<(), WireError> {
        if b == b'.' {
            // An empty label: only a leading dot may end one, and `finish`
            // accepts that only as the whole name ".".
            if self.label == 0 && self.len > 0 {
                return Err(WireError::BadName);
            }
            self.label = 0;
        } else if is_label_byte(b) && self.label < MAX_LABEL_LEN {
            self.label += 1;
        } else {
            return Err(WireError::BadName);
        }
        *self.bytes.get_mut(self.len).ok_or(WireError::BadName)? = b.to_ascii_lowercase();
        self.len += 1;
        Ok(())
    }

    /// Appends one wire label, after a separating dot unless it is first.
    fn push_label(&mut self, raw: &[u8]) -> Result<(), WireError> {
        if self.len > 0 {
            self.push(b'.')?;
        }
        raw.iter().try_for_each(|&b| self.push(b))
    }

    fn finish(&self) -> Result<DomainName, WireError> {
        let mut text = &self.bytes[..self.len];
        // As `parse`, strip one trailing dot: "a." is "a", "." the root.
        if let [rest @ .., b'.'] = text {
            text = rest;
        }
        if text.len() > MAX_NAME_LEN || text.first() == Some(&b'.') {
            return Err(WireError::BadName);
        }
        // The one conversion to text: every byte was checked to be ASCII,
        // so this cannot fail, and it runs word by word where pushing each
        // byte as a char would not.
        let text = std::str::from_utf8(text).map_err(|_| WireError::BadName)?;
        Ok(DomainName::from_validated(text.to_owned()))
    }
}

/// Decodes a possibly compressed name starting at the cursor.
///
/// The labels are checked and lowercased as they are copied ([`NameBuf`]),
/// so the decoder accepts exactly the names [`DomainName::parse`] accepts
/// on the dot-joined labels, and a name costs one allocation of its own
/// length. An invalid label byte fails the name at once.
fn decode_name(cur: &mut Cursor<'_>) -> Result<DomainName, WireError> {
    let mut name = NameBuf {
        bytes: [0; MAX_NAME_LEN + 1],
        len: 0,
        label: 0,
    };
    let mut pos = cur.pos;
    let mut jumped = false;
    let mut hops = 0;
    loop {
        let label_len = *cur.bytes.get(pos).ok_or(WireError::Truncated)? as usize;
        if label_len & 0xC0 == 0xC0 {
            // Compression pointer.
            let lo = *cur.bytes.get(pos + 1).ok_or(WireError::Truncated)? as usize;
            let target = ((label_len & 0x3F) << 8) | lo;
            if !jumped {
                cur.pos = pos + 2;
                jumped = true;
            }
            hops += 1;
            if hops > 32 {
                return Err(WireError::PointerLoop);
            }
            if target >= pos {
                // Forward pointers are invalid and could loop.
                return Err(WireError::PointerLoop);
            }
            pos = target;
            continue;
        }
        if label_len == 0 {
            if !jumped {
                cur.pos = pos + 1;
            }
            break;
        }
        let start = pos + 1;
        let end = start + label_len;
        let raw = cur.bytes.get(start..end).ok_or(WireError::Truncated)?;
        name.push_label(raw)?;
        pos = end;
    }
    name.finish()
}

/// Decodes one record; returns `None` for unknown types (skipped), matching
/// how a measurement client tolerates records it does not understand.
fn decode_record(cur: &mut Cursor<'_>) -> Result<Option<Record>, WireError> {
    let name = decode_name(cur)?;
    let rtype = cur.u16()?;
    let _class = cur.u16()?;
    let ttl = cur.u32()?;
    let rdlen = cur.u16()? as usize;
    match RecordType::from_code(rtype) {
        Some(RecordType::A) => {
            let raw = cur.slice(rdlen)?;
            if raw.len() != 4 {
                return Err(WireError::Truncated);
            }
            let ip = Ipv4Addr::new(raw[0], raw[1], raw[2], raw[3]);
            Ok(Some(Record {
                name,
                ttl,
                data: RecordData::A(ip),
            }))
        }
        Some(RecordType::Ns) | Some(RecordType::Cname) => {
            let end = cur.pos + rdlen;
            let target = decode_name(cur)?;
            if cur.pos > end {
                return Err(WireError::Truncated);
            }
            cur.pos = end;
            let data = if rtype == RecordType::Ns.code() {
                RecordData::Ns(target)
            } else {
                RecordData::Cname(target)
            };
            Ok(Some(Record { name, ttl, data }))
        }
        None => {
            cur.slice(rdlen)?;
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn roundtrip(msg: &Message) -> Message {
        decode(&encode(msg)).unwrap()
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x1234, name("www.example.com"), RecordType::A);
        assert_eq!(roundtrip(&q), q);
    }

    #[test]
    fn response_with_all_sections() {
        let q = Message::query(7, name("example.com"), RecordType::A);
        let mut r = Message::response_to(&q);
        r.authoritative = true;
        r.answers.push(Record {
            name: name("example.com"),
            ttl: 300,
            data: RecordData::A("192.0.2.1".parse().unwrap()),
        });
        r.authorities.push(Record {
            name: name("example.com"),
            ttl: 3600,
            data: RecordData::Ns(name("ns1.example.com")),
        });
        r.additionals.push(Record {
            name: name("ns1.example.com"),
            ttl: 3600,
            data: RecordData::A("192.0.2.53".parse().unwrap()),
        });
        let decoded = roundtrip(&r);
        assert_eq!(decoded, r);
        assert!(decoded.authoritative);
        assert!(decoded.is_response);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let q = Message::query(1, name("a.example.com"), RecordType::A);
        let mut r = Message::response_to(&q);
        for i in 0..5 {
            r.answers.push(Record {
                name: name("a.example.com"),
                ttl: 60,
                data: RecordData::A(Ipv4Addr::new(10, 0, 0, i)),
            });
        }
        let encoded = encode(&r);
        // Without compression each repeat costs 15 name bytes; with pointers
        // each subsequent record's name costs 2.
        assert!(encoded.len() < 120, "len = {}", encoded.len());
        assert_eq!(decode(&encoded).unwrap(), r);
    }

    #[test]
    fn cname_rdata_roundtrip() {
        let q = Message::query(2, name("alias.example.com"), RecordType::A);
        let mut r = Message::response_to(&q);
        r.answers.push(Record {
            name: name("alias.example.com"),
            ttl: 60,
            data: RecordData::Cname(name("canonical.example.com")),
        });
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn encode_query_writes_what_encode_writes() {
        for (n, t) in [
            (name("www.Example.com"), RecordType::A),
            (name("example.com"), RecordType::Ns),
            (DomainName::root(), RecordType::Ns),
        ] {
            assert_eq!(
                encode_query(77, &n, t),
                encode(&Message::query(77, n.clone(), t))
            );
        }
    }

    #[test]
    fn decoded_edge_names_match_parse() {
        let long = |n: usize| "a".repeat(n);
        // Wire labels are split at `|`. 63 + 63 + 63 + 61 bytes joined by
        // dots make 253, the longest name.
        let cases = [
            String::new(),
            ".".into(),
            "a.".into(),
            ".a".into(),
            "a|.".into(),
            ".|a".into(),
            "a.|b".into(),
            "a.b|C".into(),
            "-|_".into(),
            "a b".into(),
            "é".into(),
            long(63),
            long(64),
            format!("{}.|aa", long(62)),
            format!("{0}|{0}|{0}|{1}", long(63), long(61)),
            format!("{0}|{0}|{0}|{1}", long(63), long(62)),
            format!("{0}|{0}|{0}|{1}.", long(63), long(61)),
        ];
        for case in cases {
            let labels: Vec<&str> = case.split('|').filter(|l| !l.is_empty()).collect();
            let mut raw = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
            for l in &labels {
                raw.push(l.len() as u8);
                raw.extend_from_slice(l.as_bytes());
            }
            raw.extend_from_slice(&[0, 0, 1, 0, 1]);
            let decoded = decode(&raw).ok().map(|m| m.questions[0].name.clone());
            let parsed = DomainName::parse(&labels.join(".")).ok();
            assert_eq!(decoded, parsed, "{case:?}");
        }
    }

    #[test]
    fn root_name_roundtrip() {
        let q = Message::query(3, DomainName::root(), RecordType::Ns);
        assert_eq!(roundtrip(&q), q);
    }

    #[test]
    fn rcode_roundtrip() {
        let q = Message::query(4, name("missing.example"), RecordType::A);
        let mut r = Message::response_to(&q);
        r.rcode = Rcode::NxDomain;
        assert_eq!(roundtrip(&r).rcode, Rcode::NxDomain);
    }

    #[test]
    fn truncated_input_rejected() {
        let q = Message::query(5, name("example.com"), RecordType::A);
        let enc = encode(&q);
        for cut in [0, 5, 11, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn pointer_loop_rejected() {
        // Hand-crafted message whose question name points at itself.
        let mut raw = vec![
            0x00, 0x01, // id
            0x00, 0x00, // flags
            0x00, 0x01, // qdcount
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // other counts
        ];
        raw.extend_from_slice(&[0xC0, 0x0C]); // pointer to offset 12 (itself)
        raw.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]); // qtype/qclass
        assert!(matches!(decode(&raw), Err(WireError::PointerLoop)));
    }

    #[test]
    fn unknown_record_types_are_skipped() {
        // Build a response with a TXT-ish record (type 16) by hand after a
        // valid A record; the TXT must be skipped, the A kept.
        let q = Message::query(9, name("x.y"), RecordType::A);
        let mut r = Message::response_to(&q);
        r.answers.push(Record {
            name: name("x.y"),
            ttl: 1,
            data: RecordData::A("1.2.3.4".parse().unwrap()),
        });
        let mut enc = BytesMut::from(&encode(&r)[..]);
        // Patch ancount to 2 and append a type-16 record.
        enc[6..8].copy_from_slice(&2u16.to_be_bytes());
        enc.put_u8(0); // root owner name
        enc.put_u16(16); // TXT
        enc.put_u16(1); // IN
        enc.put_u32(0); // ttl
        enc.put_u16(3); // rdlength
        enc.put_slice(b"abc");
        let decoded = decode(&enc).unwrap();
        assert_eq!(decoded.answers.len(), 1);
        assert_eq!(
            decoded.answers[0].data,
            RecordData::A("1.2.3.4".parse().unwrap())
        );
    }
}
