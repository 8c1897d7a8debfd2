//! DNS wire format: an RFC 1035 subset with name compression.
//!
//! Messages are the standard header / question / answer / authority /
//! additional layout. Encoding compresses repeated names with pointers;
//! decoding follows pointers with a hop limit to reject loops.
//!
//! One reader and one writer, both borrowing the datagram: a server reads
//! the query through a [`MessageView`] and writes its reply straight into
//! the reply datagram through a [`Reply`]; the resolver reads that reply
//! through a view too, and writes its queries with [`encode_query`]. No
//! message is ever built as an owned value. The owned message these are
//! tested against is compiled into the crate's tests only.

use crate::name::{is_label_byte, DomainName, MAX_LABEL_LEN, MAX_NAME_LEN};
use std::fmt;
use std::net::Ipv4Addr;

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

/// Encodes a query into `buf`, replacing what it held: the header with
/// transaction id `id` and no flag set, then the one question `name`/
/// `qtype` (class IN).
pub fn encode_query(buf: &mut Vec<u8>, id: u16, name: &DomainName, qtype: RecordType) {
    buf.clear();
    put_header(buf, id, 0, [1, 0, 0, 0]);
    // A lone name has no earlier suffix to point at.
    put_question(buf, name.as_str(), qtype, &mut Suffixes::new());
}

// Fixed-size fields are assembled on the stack and appended in one go.

fn put_header(buf: &mut Vec<u8>, id: u16, flags: u16, counts: [usize; 4]) {
    let mut header = [0; 12];
    for (i, word) in [id, flags]
        .into_iter()
        .chain(counts.map(|c| c as u16))
        .enumerate()
    {
        set_u16(&mut header, 2 * i, word);
    }
    buf.extend_from_slice(&header);
}

/// Overwrites the big-endian word at `at`, a length or count patched in
/// once what it counts is written.
fn set_u16(buf: &mut [u8], at: usize, word: u16) {
    let [hi, lo] = word.to_be_bytes();
    buf[at] = hi;
    buf[at + 1] = lo;
}

fn put_question(buf: &mut Vec<u8>, name: &str, qtype: RecordType, offsets: &mut Suffixes) {
    encode_name(buf, name, offsets);
    let [t0, t1] = qtype.code().to_be_bytes();
    let [c0, c1] = CLASS_IN.to_be_bytes();
    buf.extend_from_slice(&[t0, t1, c0, c1]);
}

/// Suffixes already written, the compression pointer targets: where each
/// one's first label starts in the message, and the length of its
/// presentation text. A probe compares the lengths first and only then the
/// labels written there, so the table borrows no name and a reply can
/// write names from anywhere. A message carries a handful of names, so a
/// linear scan beats hashing them; the first [`INLINE_SUFFIXES`] entries
/// live on the stack and only a larger message spills to the heap.
struct Suffixes {
    inline: [(u16, u16); INLINE_SUFFIXES],
    len: usize,
    spill: Vec<(u16, u16)>,
}

const INLINE_SUFFIXES: usize = 24;

impl Suffixes {
    fn new() -> Self {
        Suffixes {
            inline: [(0, 0); INLINE_SUFFIXES],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// The offset at which `suffix` was written into `buf`, if it was.
    fn get(&self, buf: &[u8], suffix: &str) -> Option<u16> {
        self.inline[..self.len]
            .iter()
            .chain(&self.spill)
            .find(|&&(off, len)| len as usize == suffix.len() && written_as(buf, off, suffix))
            .map(|&(off, _)| off)
    }

    /// Records a suffix [`Suffixes::get`] did not find.
    fn push(&mut self, offset: u16, text_len: u16) {
        if self.len < INLINE_SUFFIXES {
            self.inline[self.len] = (offset, text_len);
            self.len += 1;
        } else {
            self.spill.push((offset, text_len));
        }
    }
}

/// Whether the labels the encoder wrote at `pos` of `buf` (following its
/// pointers, which only ever point back) spell the presentation text
/// `text`.
fn written_as(buf: &[u8], pos: u16, text: &str) -> bool {
    let mut pos = pos as usize;
    let mut rest = text.as_bytes();
    loop {
        let Some(&len) = buf.get(pos) else {
            return false;
        };
        let len = len as usize;
        if len & 0xC0 == 0xC0 {
            let Some(&lo) = buf.get(pos + 1) else {
                return false;
            };
            pos = ((len & 0x3F) << 8) | lo as usize;
            continue;
        }
        if len == 0 {
            return rest.is_empty();
        }
        let Some(tail) = buf
            .get(pos + 1..pos + 1 + len)
            .and_then(|label| rest.strip_prefix(label))
        else {
            return false;
        };
        rest = match tail {
            [b'.', more @ ..] => more,
            _ => tail,
        };
        pos += 1 + len;
    }
}

fn put_record(buf: &mut Vec<u8>, owner: &str, ttl: u32, data: RData<&str>, offsets: &mut Suffixes) {
    encode_name(buf, owner, offsets);
    let [t0, t1] = data.record_type().code().to_be_bytes();
    let [c0, c1] = CLASS_IN.to_be_bytes();
    let [l0, l1, l2, l3] = ttl.to_be_bytes();
    let fixed = [t0, t1, c0, c1, l0, l1, l2, l3];
    match data {
        RData::A(ip) => {
            let [a, b, c, d] = ip.octets();
            buf.extend_from_slice(&fixed);
            buf.extend_from_slice(&[0, 4, a, b, c, d]);
        }
        RData::Ns(n) | RData::Cname(n) => {
            // Two-pass: rdata length depends on compression, so reserve the
            // length slot, write the name, then patch.
            buf.extend_from_slice(&fixed);
            let len_pos = buf.len();
            buf.extend_from_slice(&[0, 0]);
            let start = buf.len();
            encode_name(buf, n, offsets);
            let rdlen = (buf.len() - start) as u16;
            set_u16(buf, len_pos, rdlen);
        }
    }
}

/// Encodes the name whose presentation text is `name`, emitting a
/// compression pointer at the first suffix that was already written.
fn encode_name(buf: &mut Vec<u8>, name: &str, offsets: &mut Suffixes) {
    let mut rest = name;
    loop {
        if rest.is_empty() {
            buf.push(0);
            return;
        }
        if let Some(off) = offsets.get(buf, rest) {
            buf.extend_from_slice(&(0xC000 | off).to_be_bytes());
            return;
        }
        // Record this suffix's offset if it is still pointer-addressable.
        if buf.len() < 0x3FFF {
            offsets.push(buf.len() as u16, rest.len() as u16);
        }
        let (label, tail) = rest.split_once('.').unwrap_or((rest, ""));
        buf.push(label.len() as u8);
        buf.extend_from_slice(label.as_bytes());
        rest = tail;
    }
}

/// A reply written straight into its datagram: the header, the query's
/// questions echoed as a [`MessageView`] expands them (lowercase, split at
/// every dot), then records section by section, each name compressed
/// against the first suffix already written. [`crate::server::serve_query`]
/// starts one for each query it answers and hands it to the responder, so
/// a reply costs no owned message, no record vector and no name clone.
///
/// Names are given in presentation form ([`DomainName::as_str`]).
pub struct Reply<'b> {
    buf: &'b mut Vec<u8>,
    offsets: Suffixes,
    flags: u16,
    /// Questions, answers, authorities and additionals written so far.
    counts: [u16; 4],
}

impl<'b> Reply<'b> {
    /// Starts the reply to `query` in the empty buffer `buf`: the header
    /// (the query's id and RD bit, QR set) and every question of the query,
    /// the first one's name given already expanded as `first`.
    pub(crate) fn new(buf: &'b mut Vec<u8>, query: &MessageView<'_>, first: &str) -> Self {
        debug_assert!(
            buf.is_empty(),
            "compression offsets count from the message start"
        );
        put_header(buf, query.id(), 0, [0; 4]);
        let mut reply = Reply {
            buf,
            offsets: Suffixes::new(),
            flags: FLAG_QR | (query.layout.flags & FLAG_RD),
            counts: [0; 4],
        };
        let mut text = None;
        for (i, q) in query.questions().enumerate() {
            let name = match i {
                0 => first,
                _ => q.name.expand(text.get_or_insert_with(NameBuf::new)),
            };
            put_question(reply.buf, name, q.qtype, &mut reply.offsets);
            reply.counts[0] = reply.counts[0].wrapping_add(1);
        }
        reply
    }

    /// Sets the AA bit: the server is authoritative for the name.
    pub fn set_authoritative(&mut self) {
        self.flags |= FLAG_AA;
    }

    /// Sets the response code (`NoError` until set).
    pub fn set_rcode(&mut self, rcode: Rcode) {
        self.flags = self.flags & !0xF | rcode.code();
    }

    /// Writes an answer record.
    pub fn answer(&mut self, owner: &str, ttl: u32, data: RData<&str>) {
        self.push(1, owner, ttl, data);
    }

    /// Writes an authority (referral) record, after every answer.
    pub fn authority(&mut self, owner: &str, ttl: u32, data: RData<&str>) {
        self.push(2, owner, ttl, data);
    }

    /// Writes an additional (glue) record, after every authority.
    pub fn additional(&mut self, owner: &str, ttl: u32, data: RData<&str>) {
        self.push(3, owner, ttl, data);
    }

    fn push(&mut self, section: usize, owner: &str, ttl: u32, data: RData<&str>) {
        assert!(
            self.counts[section + 1..].iter().all(|&c| c == 0),
            "records are written section by section"
        );
        put_record(self.buf, owner, ttl, data, &mut self.offsets);
        self.counts[section] = self.counts[section].wrapping_add(1);
    }

    /// Patches the flags and section counts into the header.
    pub(crate) fn finish(self) {
        set_u16(self.buf, 2, self.flags);
        for (i, &count) in self.counts.iter().enumerate() {
            set_u16(self.buf, 4 + 2 * i, count);
        }
    }
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

/// One question at the cursor, its name read by `name`.
fn read_question<'a>(
    cur: &mut Cursor<'a>,
    name: impl FnOnce(&mut Cursor<'a>) -> Result<NameRef<'a>, WireError>,
) -> Result<(NameRef<'a>, RecordType), WireError> {
    let name = name(cur)?;
    let qtype_raw = cur.u16()?;
    let qtype = RecordType::from_code(qtype_raw).ok_or(WireError::UnsupportedType(qtype_raw))?;
    let _class = cur.u16()?;
    Ok((name, qtype))
}

/// One record at the cursor, its names read by `name`: the owner, the TTL
/// and the data, `None` for a type the simulation does not know.
fn read_record<'a>(
    cur: &mut Cursor<'a>,
    mut name: impl FnMut(&mut Cursor<'a>) -> Result<NameRef<'a>, WireError>,
) -> Result<(NameRef<'a>, u32, Option<RData<NameRef<'a>>>), WireError> {
    let owner = name(cur)?;
    let rtype = cur.u16()?;
    let _class = cur.u16()?;
    let ttl = cur.u32()?;
    let rdlen = cur.u16()? as usize;
    let data = match RecordType::from_code(rtype) {
        Some(RecordType::A) => {
            let &[a, b, c, d] = cur.slice(rdlen)? else {
                return Err(WireError::Truncated);
            };
            Some(RData::A(Ipv4Addr::new(a, b, c, d)))
        }
        Some(rtype) => {
            let end = cur.pos + rdlen;
            let target = name(cur)?;
            if cur.pos > end {
                return Err(WireError::Truncated);
            }
            cur.pos = end;
            Some(if rtype == RecordType::Ns {
                RData::Ns(target)
            } else {
                RData::Cname(target)
            })
        }
        None => {
            cur.slice(rdlen)?;
            None
        }
    };
    Ok((owner, ttl, data))
}

/// Compression pointers one name may follow before it counts as a loop.
const MAX_POINTER_HOPS: usize = 32;

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

/// Each byte's lowercase form where it may appear in a label, else 0.
const LOWER_LABEL_BYTES: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 256 {
        if is_label_byte(b as u8) {
            table[b] = (b as u8).to_ascii_lowercase();
        }
        b += 1;
    }
    table
};

/// A name's presentation text assembled on the stack: the dot-joined wire
/// labels, lowercased and checked byte by byte against
/// [`DomainName::parse`]'s rules as they are copied, so a name read off
/// the wire is never parsed again. [`NameRef::expand`] fills one.
pub struct NameBuf {
    /// Room for the longest name plus the one trailing dot `parse` strips;
    /// a longer joined name can never parse.
    bytes: [u8; MAX_NAME_LEN + 1],
    len: usize,
    /// Length of the label being copied. A wire label may carry dots of
    /// its own, which split it as they would split the joined text.
    label: usize,
}

impl Default for NameBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl NameBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        NameBuf {
            bytes: [0; MAX_NAME_LEN + 1],
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

    /// Appends one wire label, after a separating dot unless it is first.
    fn push_label(&mut self, raw: &[u8]) -> Result<(), WireError> {
        if self.len > 0 {
            self.push(b'.')?;
        }
        // A label of label bytes that fits is copied in one pass; any other
        // is pushed byte by byte, which finds its first bad byte.
        let end = self.len + raw.len();
        if self.label + raw.len() <= MAX_LABEL_LEN && end <= self.bytes.len() {
            let mut all_label_bytes = true;
            for (to, &b) in self.bytes[self.len..end].iter_mut().zip(raw) {
                *to = LOWER_LABEL_BYTES[b as usize];
                all_label_bytes &= *to != 0;
            }
            if all_label_bytes {
                self.len = end;
                self.label += raw.len();
                return Ok(());
            }
        }
        raw.iter().try_for_each(|&b| self.push(b))
    }

    /// The presentation bytes of the labels pushed, if they make a name.
    fn checked(&self) -> Result<&[u8], WireError> {
        let mut text = &self.bytes[..self.len];
        // As `parse`, strip one trailing dot: "a." is "a", "." the root.
        if let [rest @ .., b'.'] = text {
            text = rest;
        }
        if text.len() > MAX_NAME_LEN || text.first() == Some(&b'.') {
            return Err(WireError::BadName);
        }
        Ok(text)
    }

    /// The presentation text of the labels pushed, if they make a name.
    fn text(&self) -> Result<&str, WireError> {
        // Every byte was checked to be ASCII, so this cannot fail, and it
        // runs word by word where pushing each byte as a char would not.
        std::str::from_utf8(self.checked()?).map_err(|_| WireError::BadName)
    }

    /// Reads and checks the name at `start`; returns the offset past it.
    fn read(&mut self, bytes: &[u8], start: usize) -> Result<usize, WireError> {
        self.len = 0;
        self.label = 0;
        let end = walk_name(bytes, start, |raw| self.push_label(raw))?;
        self.checked()?;
        Ok(end)
    }
}

/// Checks the name at the cursor in `buf` ([`NameBuf`]'s rules), keeping
/// it in place.
fn check_name<'a>(buf: &mut NameBuf, cur: &mut Cursor<'a>) -> Result<NameRef<'a>, WireError> {
    let name = NameRef {
        bytes: cur.bytes,
        pos: cur.pos,
    };
    cur.pos = buf.read(cur.bytes, cur.pos)?;
    Ok(name)
}

/// Steps over a name [`MessageView::parse`] has checked, keeping it in
/// place: the labels stored here up to the terminator or first pointer.
fn name_in_place<'a>(cur: &mut Cursor<'a>) -> Result<NameRef<'a>, WireError> {
    let name = NameRef {
        bytes: cur.bytes,
        pos: cur.pos,
    };
    loop {
        let len = cur.u8()? as usize;
        match len {
            0 => return Ok(name),
            _ if len & 0xC0 == 0xC0 => {
                cur.u8()?;
                return Ok(name);
            }
            _ => {
                cur.slice(len)?;
            }
        }
    }
}

/// Record data with its name borrowed: presentation text (`&str`) where a
/// [`Reply`] writes a record, a [`NameRef`] where a [`MessageView`] reads
/// one in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RData<N> {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// A nameserver host name.
    Ns(N),
    /// A canonical name.
    Cname(N),
}

impl<N> RData<N> {
    /// The record type of this data.
    pub fn record_type(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
        }
    }
}

/// Where a checked message's parts are: its header fields and the offset
/// each section starts at.
#[derive(Debug, Clone, Copy)]
struct Layout {
    id: u16,
    flags: u16,
    /// Questions, answers, authorities, additionals.
    counts: [u16; 4],
    starts: [usize; 4],
}

/// A DNS message read in place. [`MessageView::parse`] checks the whole
/// datagram: the 12-byte header, then every question and record its
/// counts announce. A question needs a known type (A, NS, CNAME); a
/// record's data must fit its length (an A record exactly 4 bytes, an NS
/// or CNAME target a name ending within it), and one of an unknown type is
/// skipped over. Every name is checked label by label against
/// [`DomainName::parse`]'s rules ([`NameBuf`]), compression pointers
/// pointing back only, at most 32 of them per name. Bytes after the last
/// counted record are ignored. The view keeps only the header and where
/// each section starts: questions and records are read off the bytes as a
/// section is walked, skipping the unknown types, and names stay on the
/// wire ([`NameRef`]) until a caller compares or expands one. Nothing is
/// allocated.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    bytes: &'a [u8],
    layout: Layout,
}

/// A question read in place.
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'a> {
    /// Queried name.
    pub name: NameRef<'a>,
    /// Queried type.
    pub qtype: RecordType,
}

/// A resource record read in place.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// Owner name.
    pub owner: NameRef<'a>,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed record data.
    pub data: RData<NameRef<'a>>,
}

impl<'a> MessageView<'a> {
    /// Checks `bytes` (see [`MessageView`]), building nothing.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        Self::parse_in(bytes, &mut NameBuf::new())
    }

    /// [`MessageView::parse`], checking names in the caller's `buf`.
    pub(crate) fn parse_in(bytes: &'a [u8], buf: &mut NameBuf) -> Result<Self, WireError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let id = cur.u16()?;
        let flags = cur.u16()?;
        let counts = [cur.u16()?, cur.u16()?, cur.u16()?, cur.u16()?];
        let mut starts = [0; 4];
        starts[0] = cur.pos;
        for _ in 0..counts[0] {
            read_question(&mut cur, |cur| check_name(buf, cur))?;
        }
        for section in 1..4 {
            starts[section] = cur.pos;
            for _ in 0..counts[section] {
                read_record(&mut cur, |cur| check_name(buf, cur))?;
            }
        }
        let layout = Layout {
            id,
            flags,
            counts,
            starts,
        };
        Ok(MessageView { bytes, layout })
    }

    /// Transaction id.
    pub fn id(&self) -> u16 {
        self.layout.id
    }

    /// True for responses (QR bit).
    pub fn is_response(&self) -> bool {
        self.layout.flags & FLAG_QR != 0
    }

    /// True when the responder is authoritative for the name (AA bit).
    pub fn authoritative(&self) -> bool {
        self.layout.flags & FLAG_AA != 0
    }

    /// Recursion desired (RD bit).
    pub fn recursion_desired(&self) -> bool {
        self.layout.flags & FLAG_RD != 0
    }

    /// Response code.
    pub fn rcode(&self) -> Rcode {
        Rcode::from_code(self.layout.flags)
    }

    /// The question section.
    pub fn questions(self) -> impl Iterator<Item = QuestionView<'a>> {
        let mut cur = self.cursor(0);
        (0..self.layout.counts[0])
            .map_while(move |_| read_question(&mut cur, name_in_place).ok())
            .map(|(name, qtype)| QuestionView { name, qtype })
    }

    /// The answer records.
    pub fn answers(self) -> impl Iterator<Item = RecordView<'a>> {
        self.section(1)
    }

    /// The authority (referral) records.
    pub fn authorities(self) -> impl Iterator<Item = RecordView<'a>> {
        self.section(2)
    }

    /// The additional (glue) records.
    pub fn additionals(self) -> impl Iterator<Item = RecordView<'a>> {
        self.section(3)
    }

    /// The name stored at `offset` ([`NameRef::offset`] of a name read
    /// from this message).
    pub(crate) fn name_at(self, offset: usize) -> NameRef<'a> {
        NameRef {
            bytes: self.bytes,
            pos: offset,
        }
    }

    fn cursor(&self, section: usize) -> Cursor<'a> {
        Cursor {
            bytes: self.bytes,
            pos: self.layout.starts[section],
        }
    }

    fn section(self, section: usize) -> impl Iterator<Item = RecordView<'a>> {
        let mut cur = self.cursor(section);
        (0..self.layout.counts[section])
            .map_while(move |_| read_record(&mut cur, name_in_place).ok())
            .filter_map(|(owner, ttl, data)| {
                Some(RecordView {
                    owner,
                    ttl,
                    data: data?,
                })
            })
    }
}

/// A datagram [`MessageView::parse`] accepted, kept whole with its layout:
/// a reply the resolver holds past the exchange that took it is viewed
/// again without a second parse. It owns the buffer the reply was written
/// into, which [`ParsedDatagram::into_buffer`] hands back for reuse.
pub(crate) struct ParsedDatagram {
    payload: Vec<u8>,
    layout: Layout,
}

impl ParsedDatagram {
    /// Parses the datagram in `payload`; on failure the buffer comes back
    /// with the error.
    pub(crate) fn parse(payload: Vec<u8>) -> Result<Self, (WireError, Vec<u8>)> {
        match MessageView::parse(&payload) {
            Ok(view) => Ok(ParsedDatagram {
                layout: view.layout,
                payload,
            }),
            Err(e) => Err((e, payload)),
        }
    }

    /// The buffer, to be written over by a later exchange.
    pub(crate) fn into_buffer(self) -> Vec<u8> {
        self.payload
    }

    pub(crate) fn view(&self) -> MessageView<'_> {
        MessageView {
            bytes: &self.payload,
            layout: self.layout,
        }
    }
}

/// A name read in place: where a checked, possibly compressed name starts
/// in its message. Compared on the wire ([`NameRef::eq_str`],
/// [`NameRef::same_as`]) or expanded into a caller's [`NameBuf`], it costs
/// no allocation; [`NameRef::to_name`] makes the owned name.
#[derive(Clone, Copy)]
pub struct NameRef<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> NameRef<'a> {
    /// Where the name is stored in its message.
    pub(crate) fn offset(self) -> usize {
        self.pos
    }

    /// The raw wire labels, pointers followed.
    fn labels(self) -> impl Iterator<Item = &'a [u8]> {
        let (bytes, mut pos, mut hops) = (self.bytes, self.pos, 0);
        std::iter::from_fn(move || loop {
            let len = *bytes.get(pos)? as usize;
            if len & 0xC0 == 0xC0 {
                hops += 1;
                if hops > MAX_POINTER_HOPS {
                    return None;
                }
                pos = ((len & 0x3F) << 8) | *bytes.get(pos + 1)? as usize;
            } else if len == 0 {
                return None;
            } else {
                let label = bytes.get(pos + 1..pos + 1 + len)?;
                pos += 1 + len;
                return Some(label);
            }
        })
    }

    /// Whether this is the name whose presentation form is `name`
    /// ([`DomainName::as_str`]), compared label by label.
    pub fn eq_str(self, name: &str) -> bool {
        let mut rest = name.as_bytes();
        let mut labels = self.labels();
        let mut first = true;
        while let Some(label) = labels.next() {
            if !std::mem::take(&mut first) {
                match rest {
                    [b'.', more @ ..] => rest = more,
                    _ => return false,
                }
            }
            match rest.split_at_checked(label.len()) {
                Some((head, tail)) if label.eq_ignore_ascii_case(head) => rest = tail,
                // Only the one trailing dot `DomainName::parse` strips may
                // be left over, at the end of the last label.
                _ => {
                    return label.len() == rest.len() + 1
                        && label.ends_with(b".")
                        && label[..rest.len()].eq_ignore_ascii_case(rest)
                        && labels.next().is_none();
                }
            }
        }
        rest.is_empty()
    }

    /// Whether `other`, in this message or another, is the same name.
    /// Names this crate's encoder compressed into one message share their
    /// first label, so that is checked first; labels without dots of their
    /// own compare label by label; a name with such a label is expanded.
    pub fn same_as(self, other: NameRef<'_>) -> bool {
        if self.bytes.as_ptr() == other.bytes.as_ptr() && self.start() == other.start() {
            return true;
        }
        let (mut a, mut b) = (self.labels(), other.labels());
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some(x), Some(y)) if !x.contains(&b'.') && !y.contains(&b'.') => {
                    if !x.eq_ignore_ascii_case(y) {
                        return false;
                    }
                }
                _ => return other.eq_str(self.expand(&mut NameBuf::new())),
            }
        }
    }

    /// Where the name's first label (or terminator) is, pointers at its
    /// start followed.
    fn start(self) -> usize {
        let mut pos = self.pos;
        for _ in 0..MAX_POINTER_HOPS {
            match self.bytes.get(pos..pos + 2) {
                Some(&[hi, lo]) if hi & 0xC0 == 0xC0 => {
                    pos = usize::from(hi & 0x3F) << 8 | usize::from(lo)
                }
                _ => break,
            }
        }
        pos
    }

    /// Expands the name into `buf`; returns its presentation form.
    pub fn expand(self, buf: &mut NameBuf) -> &str {
        // The name was checked when its message was parsed, so it reads
        // again without error.
        match buf.read(self.bytes, self.pos) {
            Ok(_) => buf.text().unwrap_or(""),
            Err(_) => "",
        }
    }

    /// The owned name.
    pub fn to_name(self) -> DomainName {
        DomainName::from_validated(self.expand(&mut NameBuf::new()).to_owned())
    }
}

impl fmt::Debug for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("NameRef")
            .field(&self.expand(&mut NameBuf::new()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

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
            // Over a buffer holding an earlier query: replaced, not extended.
            let mut buf = encode(&Message::query(1, name("stale.example"), RecordType::A));
            encode_query(&mut buf, 77, &n, t);
            assert_eq!(buf, encode(&Message::query(77, n.clone(), t)));
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

#[cfg(test)]
pub(crate) use reference::{decode, encode, Message, Question, Record, RecordData};

#[cfg(test)]
mod reference;
