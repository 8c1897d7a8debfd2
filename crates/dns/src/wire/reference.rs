//! The owned DNS message: the reference form the borrowed codec is tested
//! against. [`decode`] builds a [`Message`] through the reader the
//! [`MessageView`](super::MessageView) runs, with the name check the view
//! ran before it checked each label once ([`TextCheck`]), so the view must
//! accept the same datagrams; [`encode`] writes one through the compressor
//! a [`Reply`] writes with, so a reply carrying the same records is the
//! same bytes. Nothing outside the tests builds one.

use super::{
    put_header, put_question, put_record, read_question, read_record, Cursor, NameRef, RData,
    Rcode, RecordType, Reply, Suffixes, Wire, WireError, WireName, FLAG_AA, FLAG_QR, FLAG_RD,
    MAX_POINTER_HOPS, TEXT_ROOM,
};
use crate::name::{is_label_byte, DomainName, MAX_LABEL_LEN, MAX_NAME_LEN};
use std::net::Ipv4Addr;

/// Walks the possibly compressed name starting at `start`, handing each
/// raw label to `label`; returns the offset just past the name where it is
/// stored (past its terminator, or past its first pointer). Pointers must
/// point back, at most [`MAX_POINTER_HOPS`] of them.
fn walk_name(
    bytes: &[u8],
    start: usize,
    mut label: impl FnMut(&[u8]) -> Result<(), WireError>,
) -> Result<usize, WireError> {
    let mut pos = start;
    let mut end = None;
    let mut hops = 0;
    loop {
        let label_len = *bytes.get(pos).ok_or(WireError::Truncated)? as usize;
        if label_len & 0xC0 == 0xC0 {
            // Compression pointer.
            let lo = *bytes.get(pos + 1).ok_or(WireError::Truncated)? as usize;
            let target = ((label_len & 0x3F) << 8) | lo;
            end.get_or_insert(pos + 2);
            hops += 1;
            // Forward pointers are invalid and could loop.
            if hops > MAX_POINTER_HOPS || target >= pos {
                return Err(WireError::PointerLoop);
            }
            pos = target;
            continue;
        }
        if label_len == 0 {
            return Ok(end.unwrap_or(pos + 1));
        }
        let start = pos + 1;
        let raw = bytes
            .get(start..start + label_len)
            .ok_or(WireError::Truncated)?;
        label(raw)?;
        pos = start + label_len;
    }
}

/// A name's presentation text assembled byte by byte: the dot-joined wire
/// labels, lowercased and checked against [`DomainName::parse`]'s rules as
/// they are copied, every label of every name walked and copied again.
/// The reference the production check is held to.
pub(crate) struct TextCheck {
    bytes: [u8; TEXT_ROOM],
    len: usize,
    /// Length of the label being copied. A wire label may carry dots of
    /// its own, which split it as they would split the joined text.
    label: usize,
}

impl TextCheck {
    pub(crate) fn new() -> Self {
        TextCheck {
            bytes: [0; TEXT_ROOM],
            len: 0,
            label: 0,
        }
    }

    fn push(&mut self, b: u8) -> Result<(), WireError> {
        if b == b'.' {
            // An empty label: only a leading dot may end one, and `text`
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

    /// The presentation text of the labels pushed, if they make a name.
    fn text(&self) -> Result<&str, WireError> {
        let mut text = &self.bytes[..self.len];
        // As `parse`, strip one trailing dot: "a." is "a", "." the root.
        if let [rest @ .., b'.'] = text {
            text = rest;
        }
        if text.len() > MAX_NAME_LEN || text.first() == Some(&b'.') {
            return Err(WireError::BadName);
        }
        std::str::from_utf8(text).map_err(|_| WireError::BadName)
    }

    /// Reads and checks the name at `start`; returns the offset past it.
    pub(crate) fn read(&mut self, bytes: &[u8], start: usize) -> Result<usize, WireError> {
        self.len = 0;
        self.label = 0;
        let end = walk_name(bytes, start, |raw| {
            if self.len > 0 {
                self.push(b'.')?;
            }
            raw.iter().try_for_each(|&b| self.push(b))
        })?;
        self.text()?;
        Ok(end)
    }
}

/// Checks the name at the cursor with [`TextCheck`]; returns it in place
/// and owned.
fn check_name<'a>(
    check: &mut TextCheck,
    cur: &mut Cursor<'a>,
) -> Result<(NameRef<'a>, DomainName), WireError> {
    let name = NameRef {
        bytes: cur.bytes,
        pos: cur.pos,
    };
    cur.pos = check.read(cur.bytes, cur.pos)?;
    let owned = DomainName::parse(check.text()?).map_err(|_| WireError::BadName)?;
    Ok((name, owned))
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
        self.as_rdata().record_type()
    }

    /// The data with its name in wire form, as [`Reply`] writes it.
    pub fn as_rdata(&self) -> RData<WireName> {
        match self {
            RecordData::A(ip) => RData::A(*ip),
            RecordData::Ns(n) => RData::Ns(n.into()),
            RecordData::Cname(n) => RData::Cname(n.into()),
        }
    }
}

impl RData<WireName> {
    /// The data with its name borrowed.
    pub fn as_wire(&self) -> RData<Wire<'_>> {
        match self {
            RData::A(ip) => RData::A(*ip),
            RData::Ns(n) => RData::Ns(n.as_wire()),
            RData::Cname(n) => RData::Cname(n.as_wire()),
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

/// Encodes a message to wire bytes (with name compression).
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
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
    put_header(&mut buf, msg.id, flags, counts);
    for q in &msg.questions {
        let name = WireName::from(&q.name);
        put_question(&mut buf, name.as_wire(), q.qtype, &mut offsets);
    }
    for section in [&msg.answers, &msg.authorities, &msg.additionals] {
        for r in section {
            let owner = WireName::from(&r.name);
            let data = r.data.as_rdata();
            put_record(
                &mut buf,
                owner.as_wire(),
                r.ttl,
                data.as_wire(),
                &mut offsets,
            );
        }
    }
    buf
}

/// Decodes a wire message. [`MessageView::parse`](super::MessageView::parse)
/// must accept exactly what it accepts: every name is checked in a
/// [`TextCheck`], then made owned from the text it checked.
pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let header = cur.array::<12>()?;
    let word = |i: usize| u16::from_be_bytes([header[2 * i], header[2 * i + 1]]);
    let (id, flags) = (word(0), word(1));
    let [qd, an, ns, ar] = [2, 3, 4, 5].map(|i| word(i) as usize);

    // Every name checked, owned, in the order read.
    let mut text = TextCheck::new();
    let mut names = Vec::new();
    let mut check = |cur: &mut Cursor<'_>| -> Result<(), WireError> {
        let (name, owned) = check_name(&mut text, cur)?;
        names.push((name.pos, owned));
        Ok(())
    };
    // Counts come off the wire: size each section by what the remaining
    // bytes could hold (a question is at least 5 bytes, a record 11).
    let cap = |count: usize, min_len: usize, cur: &Cursor<'_>| {
        count.min(bytes.len().saturating_sub(cur.pos) / min_len)
    };
    let mut questions = Vec::with_capacity(cap(qd, 5, &cur));
    for _ in 0..qd {
        let (name, qtype) = read_question(&mut cur, |cur| {
            let at = cur.pos;
            check(cur)?;
            Ok(NameRef { bytes, pos: at })
        })?;
        questions.push((name, qtype));
    }
    let mut sections = [
        Vec::with_capacity(cap(an, 11, &cur)),
        Vec::with_capacity(cap(ns, 11, &cur)),
        Vec::with_capacity(cap(ar, 11, &cur)),
    ];
    for (idx, count) in [(0, an), (1, ns), (2, ar)] {
        for _ in 0..count {
            // Records of a type the simulation does not know are skipped,
            // as a measurement client tolerates them.
            let read = read_record(&mut cur, |cur| {
                let at = cur.pos;
                check(cur)?;
                Ok(NameRef { bytes, pos: at })
            })?;
            sections[idx].push(read);
        }
    }
    // Each name read, owned, by where it is stored.
    let owned = |name: NameRef<'_>| -> DomainName {
        names
            .iter()
            .find(|&&(at, _)| at == name.pos)
            .map(|(_, owned)| owned.clone())
            .expect("every name read was checked")
    };
    let records = |section: Vec<(NameRef<'_>, u32, Option<RData<NameRef<'_>>>)>| {
        (section.into_iter())
            .filter_map(|(owner, ttl, data)| {
                Some(Record {
                    name: owned(owner),
                    ttl,
                    data: match data? {
                        RData::A(ip) => RecordData::A(ip),
                        RData::Ns(n) => RecordData::Ns(owned(n)),
                        RData::Cname(n) => RecordData::Cname(owned(n)),
                    },
                })
            })
            .collect::<Vec<_>>()
    };
    let [answers, authorities, additionals] = sections.map(records);
    Ok(Message {
        id,
        is_response: flags & FLAG_QR != 0,
        authoritative: flags & FLAG_AA != 0,
        recursion_desired: flags & FLAG_RD != 0,
        rcode: Rcode::from_code(flags),
        questions: (questions.into_iter())
            .map(|(name, qtype)| Question {
                name: owned(name),
                qtype,
            })
            .collect(),
        answers,
        authorities,
        additionals,
    })
}

impl Reply<'_> {
    /// Writes an owned response's AA bit, rcode and records: how an
    /// answerer that builds a [`Message`] (the reference
    /// [`crate::zone::answer`]) replies through the borrowed encoder. The
    /// response's own questions are not written; the query's are.
    pub fn write_message(&mut self, msg: &Message) {
        if msg.authoritative {
            self.set_authoritative();
        }
        self.set_rcode(msg.rcode);
        for (section, records) in [
            (1, &msg.answers),
            (2, &msg.authorities),
            (3, &msg.additionals),
        ] {
            for r in records {
                let owner = WireName::from(&r.name);
                let data = r.data.as_rdata();
                self.push(section, owner.as_wire(), r.ttl, data.as_wire());
            }
        }
    }
}
