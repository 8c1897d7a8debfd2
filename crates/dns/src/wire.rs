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
//!
//! The writer takes names in canonical wire form ([`Wire`]): a responder
//! builds the names it writes for every site once ([`WireName`]) and
//! echoes a query's own name from the query's bytes, so no name is split
//! at its dots per reply. The reader checks each wire label once, and a
//! compression pointer to a suffix it has already checked reuses that
//! check.

use crate::name::{is_label_byte, DomainName, Name, MAX_LABEL_LEN, MAX_NAME_LEN};
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
pub fn encode_query<'n>(buf: &mut Vec<u8>, id: u16, name: impl Into<Name<'n>>, qtype: RecordType) {
    buf.clear();
    put_header(buf, id, 0, [1, 0, 0, 0]);
    // A lone name has no earlier suffix to point at: it is written whole.
    put_wire(buf, name.into().as_str());
    put_type_class(buf, qtype);
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

fn put_type_class(buf: &mut Vec<u8>, rtype: RecordType) {
    let [t0, t1] = rtype.code().to_be_bytes();
    let [c0, c1] = CLASS_IN.to_be_bytes();
    buf.extend_from_slice(&[t0, t1, c0, c1]);
}

fn put_question(buf: &mut Vec<u8>, name: Wire<'_>, qtype: RecordType, offsets: &mut Suffixes) {
    encode_name(buf, name, offsets);
    put_type_class(buf, qtype);
}

/// Appends the canonical wire form of `name`, the presentation text of a
/// checked name: each dot-separated label behind its length byte, then the
/// root's zero byte.
fn put_wire(buf: &mut Vec<u8>, name: &str) {
    if !name.is_empty() {
        // The text behind a length byte, each dot then made the length
        // byte of the label after it, in one pass.
        let mut len_at = buf.len();
        buf.push(0);
        buf.extend_from_slice(name.as_bytes());
        for at in len_at + 1..buf.len() {
            if buf[at] == b'.' {
                buf[len_at] = (at - len_at - 1) as u8;
                len_at = at;
            }
        }
        buf[len_at] = (buf.len() - len_at - 1) as u8;
    }
    buf.push(0);
}

/// A domain name in canonical wire form, borrowed: each label behind its
/// length byte, lowercase, no dot inside a label and no compression
/// pointer, ending with the root's zero byte — the bytes an uncompressed
/// name takes on the wire. [`Reply`] writes every name from this form: a
/// [`WireName`] built once, or a query's own question where the query
/// stores it so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire<'a>(&'a [u8]);

impl<'a> Wire<'a> {
    /// The canonical wire form of `name`, the presentation text of a
    /// checked name, written into `buf` over what it held.
    pub(crate) fn of(name: &str, buf: &'a mut Vec<u8>) -> Self {
        buf.clear();
        put_wire(buf, name);
        Wire(buf)
    }

    /// Number of labels; 0 for the root.
    pub fn label_count(self) -> usize {
        self.label_starts().count()
    }

    /// The name with its first `skip` labels removed (the root once every
    /// label is), and where that suffix starts in these bytes. A suffix
    /// other than the root starts at the same offset in the name's
    /// presentation text.
    pub fn suffix(self, skip: usize) -> (Wire<'a>, usize) {
        let at = (self.label_starts().nth(skip)).unwrap_or(self.0.len() - 1);
        (Wire(&self.0[at..]), at)
    }

    /// Where each label's length byte is.
    fn label_starts(self) -> impl Iterator<Item = usize> + 'a {
        let bytes = self.0;
        let mut at = 0;
        std::iter::from_fn(move || {
            let len = *bytes.get(at).filter(|&&len| len != 0)?;
            let start = at;
            at += 1 + len as usize;
            Some(start)
        })
    }
}

/// A [`Wire`] name owning its bytes: built once from a [`DomainName`] for
/// a name a responder writes into reply after reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireName(Box<[u8]>);

impl WireName {
    /// The name in the form [`Reply`] writes.
    pub fn as_wire(&self) -> Wire<'_> {
        Wire(&self.0)
    }
}

impl From<&DomainName> for WireName {
    fn from(name: &DomainName) -> Self {
        let mut bytes = Vec::with_capacity(name.as_str().len() + 2);
        put_wire(&mut bytes, name.as_str());
        WireName(bytes.into_boxed_slice())
    }
}

/// Suffixes already written, the compression pointer targets: where each
/// one's first label starts in the message, and the length of its wire
/// form. A probe compares the lengths first and only then the labels
/// written there, so the table borrows no name and a reply can write
/// names from anywhere. A message carries a handful of names, so a linear
/// scan beats hashing them; the first [`INLINE_SUFFIXES`] entries live on
/// the stack and only a larger message spills to the heap.
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

    /// The offset at which the wire name `suffix` was written into `buf`,
    /// if it was.
    fn get(&self, buf: &[u8], suffix: &[u8]) -> Option<u16> {
        self.inline[..self.len]
            .iter()
            .chain(&self.spill)
            .find(|&&(off, len)| len as usize == suffix.len() && written_as(buf, off, suffix))
            .map(|&(off, _)| off)
    }

    /// Records a suffix [`Suffixes::get`] did not find.
    fn push(&mut self, offset: u16, wire_len: u16) {
        if self.len < INLINE_SUFFIXES {
            self.inline[self.len] = (offset, wire_len);
            self.len += 1;
        } else {
            self.spill.push((offset, wire_len));
        }
    }
}

/// Whether the labels the encoder wrote at `pos` of `buf` (following its
/// pointers, which only ever point back) are the wire name `wire`.
fn written_as(buf: &[u8], pos: u16, wire: &[u8]) -> bool {
    let mut pos = pos as usize;
    // Written out in full, the name is its bytes there.
    if buf.get(pos..pos + wire.len()) == Some(wire) {
        return true;
    }
    let mut rest = wire;
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
        // The label with its length byte, or the terminator.
        match (buf.get(pos..=pos + len), rest.get(..=len)) {
            (Some(label), Some(want)) if label == want => {}
            _ => return false,
        }
        if len == 0 {
            return true;
        }
        rest = &rest[len + 1..];
        pos += 1 + len;
    }
}

fn put_record(
    buf: &mut Vec<u8>,
    owner: Wire<'_>,
    ttl: u32,
    data: RData<Wire<'_>>,
    offsets: &mut Suffixes,
) {
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

/// Writes the wire name `name`, ending it with a compression pointer at
/// its first suffix already written. Each suffix written out in full is
/// recorded as a pointer target while its offset is still addressable;
/// the labels before the pointer go out in one copy.
fn encode_name(buf: &mut Vec<u8>, name: Wire<'_>, offsets: &mut Suffixes) {
    let wire = name.0;
    let start = buf.len();
    let mut at = 0;
    while wire[at] != 0 {
        // The suffixes of this name recorded so far are longer than this
        // one, so the probe never reads the labels not yet written.
        let suffix = &wire[at..];
        if let Some(off) = offsets.get(buf, suffix) {
            buf.extend_from_slice(&wire[..at]);
            buf.extend_from_slice(&(0xC000 | off).to_be_bytes());
            return;
        }
        if start + at < 0x3FFF {
            offsets.push((start + at) as u16, suffix.len() as u16);
        }
        at += 1 + wire[at] as usize;
    }
    buf.extend_from_slice(wire);
}

/// A reply written straight into its datagram: the header, the query's
/// questions echoed in canonical form (lowercase, split at every dot),
/// then records section by section, each name compressed against the
/// first suffix already written. [`crate::server::serve_query`] starts one
/// for each query it answers and hands it to the responder, so a reply
/// costs no owned message, no record vector and no name clone.
///
/// Names are given in canonical wire form ([`Wire`]).
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
    /// the first one's name given in wire form as `first`. As the reply's
    /// first name it has nothing to point at: it is copied whole, each of
    /// its labels recorded as a pointer target. A later question's name is
    /// expanded and written like any other.
    pub(crate) fn new(
        buf: &'b mut Vec<u8>,
        query: &MessageView<'_>,
        first: Option<Wire<'_>>,
    ) -> Self {
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
        let (mut text, mut wire) = (None, Vec::new());
        for (i, q) in query.questions().enumerate() {
            let name = match (i, first) {
                (0, Some(first)) => first,
                _ => Wire::of(
                    q.name.expand(text.get_or_insert_with(NameBuf::new)),
                    &mut wire,
                ),
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
    pub fn answer(&mut self, owner: Wire<'_>, ttl: u32, data: RData<Wire<'_>>) {
        self.push(1, owner, ttl, data);
    }

    /// Writes an authority (referral) record, after every answer.
    pub fn authority(&mut self, owner: Wire<'_>, ttl: u32, data: RData<Wire<'_>>) {
        self.push(2, owner, ttl, data);
    }

    /// Writes an additional (glue) record, after every authority.
    pub fn additional(&mut self, owner: Wire<'_>, ttl: u32, data: RData<Wire<'_>>) {
        self.push(3, owner, ttl, data);
    }

    fn push(&mut self, section: usize, owner: Wire<'_>, ttl: u32, data: RData<Wire<'_>>) {
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

    /// The next `N` bytes, as fixed fields are read: in one bounds check.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.slice(N)?.try_into().map_err(|_| WireError::Truncated)
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
    let [t0, t1, _class @ ..] = cur.array::<4>()?;
    let qtype_raw = u16::from_be_bytes([t0, t1]);
    let qtype = RecordType::from_code(qtype_raw).ok_or(WireError::UnsupportedType(qtype_raw))?;
    Ok((name, qtype))
}

/// One record at the cursor, its names read by `name`: the owner, the TTL
/// and the data, `None` for a type the simulation does not know.
fn read_record<'a>(
    cur: &mut Cursor<'a>,
    mut name: impl FnMut(&mut Cursor<'a>) -> Result<NameRef<'a>, WireError>,
) -> Result<(NameRef<'a>, u32, Option<RData<NameRef<'a>>>), WireError> {
    let owner = name(cur)?;
    let [t0, t1, _c0, _c1, l0, l1, l2, l3, r0, r1] = cur.array::<10>()?;
    let rtype = u16::from_be_bytes([t0, t1]);
    let ttl = u32::from_be_bytes([l0, l1, l2, l3]);
    let rdlen = u16::from_be_bytes([r0, r1]) as usize;
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

/// Room for a name's joined text: the longest name plus the one trailing
/// dot `parse` strips. A longer joined text can never parse.
const TEXT_ROOM: usize = MAX_NAME_LEN + 1;

// Byte classes of a wire label, OR-ed over its bytes by the name check.
/// A byte [`DomainName::parse`] keeps as it is: `[a-z0-9_-]`.
const LOWER: u8 = 1;
/// An uppercase letter, which `parse` lowercases.
const UPPER: u8 = 2;
/// A dot, which splits the label it is in.
const DOT: u8 = 4;
/// A byte no name holds.
const BAD: u8 = 8;

/// Each byte's class.
const BYTE_CLASS: [u8; 256] = {
    let mut table = [BAD; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        table[b] = if byte == b'.' {
            DOT
        } else if byte.is_ascii_uppercase() {
            UPPER
        } else if is_label_byte(byte) {
            LOWER
        } else {
            BAD
        };
        b += 1;
    }
    table
};

/// A suffix of a name the check accepted on its fast path, as a later
/// pointer to it needs it: where its first label is, the length of the
/// text its labels join to, and the pointers followed from there to its
/// end. Its labels hold label bytes only, so it joins any text behind a
/// dot.
#[derive(Debug, Clone, Copy, Default)]
struct Checked {
    pos: u16,
    text: u8,
    hops: u8,
}

/// Suffixes of names one message's check accepted. A pointer to one joins
/// its checked text by length instead of walking it again. The first
/// [`CHECKED_SUFFIXES`] label starts are kept; a pointer past them walks.
struct Seen {
    suffixes: [Checked; CHECKED_SUFFIXES],
    len: usize,
}

const CHECKED_SUFFIXES: usize = 16;

impl Seen {
    fn new() -> Self {
        Seen {
            suffixes: [Checked::default(); CHECKED_SUFFIXES],
            len: 0,
        }
    }

    fn get(&self, pos: usize) -> Option<Checked> {
        (self.suffixes[..self.len].iter())
            .find(|s| s.pos as usize == pos)
            .copied()
    }
}

/// Checks the possibly compressed name at `start` of `bytes` by
/// [`DomainName::parse`]'s rules, read as the text its labels join to
/// with dots: every byte a label byte or a dot, no empty label and none
/// over [`MAX_LABEL_LEN`], at most [`MAX_NAME_LEN`] bytes once one
/// trailing dot is stripped, no leading dot but in the root's `"."`.
/// Pointers must point back, at most [`MAX_POINTER_HOPS`] of them per
/// name. Returns the offset just past the name where it is stored (past
/// its terminator, or past its first pointer) and whether it is stored in
/// canonical wire form ([`Wire`]). With `copy`, the text is written there,
/// lowercase, as it is checked.
///
/// Each label is checked once, where it is stored: a name of labels
/// without dots (every name a server writes) is checked label by label,
/// its text's length summed, and a pointer to a suffix of a name checked
/// so before (`seen`) joins that suffix's length instead of walking it.
/// A wire label may carry dots of its own, which split it as they would
/// split the text; a name with one, or with a byte no name holds, is
/// walked again byte by byte ([`check_text`]), which finds its first fault.
fn check_name(
    bytes: &[u8],
    start: usize,
    seen: &mut Seen,
    mut copy: Option<&mut NameBuf>,
) -> Result<(usize, bool), WireError> {
    // The labels so far, each counted with the dot after it, every byte
    // class met, and where the first pointer ends.
    let (mut joined, mut class, mut end, mut hops, mut pos) = (0, 0, None, 0, start);
    // This name's suffixes go after the accepted ones: until the name is
    // accepted, each holds the length joined and the hops before its label.
    let mut recorded = seen.len;
    loop {
        let len = *bytes.get(pos).ok_or(WireError::Truncated)? as usize;
        if len & 0xC0 == 0xC0 {
            // Compression pointer.
            let lo = *bytes.get(pos + 1).ok_or(WireError::Truncated)? as usize;
            let target = ((len & 0x3F) << 8) | lo;
            end.get_or_insert(pos + 2);
            hops += 1;
            // Forward pointers are invalid and could loop.
            if hops > MAX_POINTER_HOPS || target >= pos {
                return Err(WireError::PointerLoop);
            }
            match seen.get(target).filter(|_| copy.is_none()) {
                Some(suffix) => {
                    joined += suffix.text as usize + 1;
                    hops += suffix.hops as usize;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::PointerLoop);
                    }
                    break;
                }
                None => {
                    pos = target;
                    continue;
                }
            }
        }
        if len == 0 {
            break;
        }
        let raw = bytes
            .get(pos + 1..pos + 1 + len)
            .ok_or(WireError::Truncated)?;
        let raw_class = raw.iter().fold(0, |c, &b| c | BYTE_CLASS[b as usize]);
        if raw_class & (DOT | BAD) != 0 || len > MAX_LABEL_LEN {
            return check_text(bytes, start, copy);
        }
        class |= raw_class;
        if let Some(text) = copy.as_deref_mut() {
            // In room: the text ends up within it, or the name is refused.
            if let Some(to) = text.bytes.get_mut(joined..joined + len + 1) {
                for (to, &b) in to.iter_mut().zip(raw) {
                    *to = b.to_ascii_lowercase();
                }
                to[len] = b'.';
            }
        }
        if recorded < CHECKED_SUFFIXES && pos < 0x4000 && joined <= MAX_NAME_LEN {
            seen.suffixes[recorded] = Checked {
                pos: pos as u16,
                text: joined as u8,
                hops: hops as u8,
            };
            recorded += 1;
        }
        joined += len + 1;
        pos += 1 + len;
    }
    let text_len = joined.saturating_sub(1);
    if text_len > MAX_NAME_LEN {
        return Err(WireError::BadName);
    }
    for suffix in &mut seen.suffixes[seen.len..recorded] {
        suffix.text = (text_len - suffix.text as usize) as u8;
        suffix.hops = (hops - suffix.hops as usize) as u8;
    }
    seen.len = recorded;
    if let Some(text) = copy {
        text.len = text_len;
    }
    let canonical = end.is_none() && class & !LOWER == 0;
    Ok((end.unwrap_or(pos + 1), canonical))
}

/// [`check_name`] byte by byte, for a name with a dot inside a label or a
/// byte no name holds: its first fault refuses it, and a name it accepts
/// is stored otherwise than canonically.
fn check_text(
    bytes: &[u8],
    start: usize,
    mut copy: Option<&mut NameBuf>,
) -> Result<(usize, bool), WireError> {
    // The joined text so far: its length, its last label's, and whether
    // it starts with a dot.
    let (mut len, mut label, mut lead_dot) = (0, 0, false);
    let (mut pos, mut end, mut hops) = (start, None, 0);
    loop {
        let label_len = *bytes.get(pos).ok_or(WireError::Truncated)? as usize;
        if label_len & 0xC0 == 0xC0 {
            let lo = *bytes.get(pos + 1).ok_or(WireError::Truncated)? as usize;
            let target = ((label_len & 0x3F) << 8) | lo;
            end.get_or_insert(pos + 2);
            hops += 1;
            if hops > MAX_POINTER_HOPS || target >= pos {
                return Err(WireError::PointerLoop);
            }
            pos = target;
            continue;
        }
        if label_len == 0 {
            break;
        }
        let raw = bytes
            .get(pos + 1..pos + 1 + label_len)
            .ok_or(WireError::Truncated)?;
        // A dot joins each label after the first on.
        let joint = (len > 0).then_some(b'.');
        for &b in joint.iter().chain(raw) {
            if b == b'.' {
                // An empty label: only a leading dot may end one, and only
                // as the whole name ".".
                if label == 0 && len > 0 {
                    return Err(WireError::BadName);
                }
                lead_dot |= len == 0;
                label = 0;
            } else if BYTE_CLASS[b as usize] & (LOWER | UPPER) != 0 && label < MAX_LABEL_LEN {
                label += 1;
            } else {
                return Err(WireError::BadName);
            }
            if len == TEXT_ROOM {
                return Err(WireError::BadName);
            }
            if let Some(text) = copy.as_deref_mut() {
                text.bytes[len] = b.to_ascii_lowercase();
            }
            len += 1;
        }
        pos += 1 + label_len;
    }
    // As `parse`, strip one trailing dot: "a." is "a", "." the root.
    let text_len = len - usize::from(len > 0 && label == 0);
    if text_len > MAX_NAME_LEN || (lead_dot && text_len > 0) {
        return Err(WireError::BadName);
    }
    if let Some(text) = copy {
        text.len = text_len;
    }
    Ok((end.unwrap_or(pos + 1), false))
}

/// A name's presentation text on the stack: its labels joined by dots,
/// lowercase. [`crate::server::serve_query`] has the check of a query's
/// first question write it here; [`NameRef::expand`] fills one.
pub struct NameBuf {
    bytes: [u8; TEXT_ROOM],
    len: usize,
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
            bytes: [0; TEXT_ROOM],
            len: 0,
        }
    }

    /// The text held, the root's `""` when empty.
    pub fn as_str(&self) -> &str {
        // Only ASCII is ever written, so this cannot fail.
        std::str::from_utf8(&self.bytes[..self.len]).unwrap_or("")
    }

    /// Copies the text of `name`, a name its message's check accepted, so
    /// its labels are copied without a second check.
    fn fill(&mut self, name: NameRef<'_>) -> &str {
        self.len = 0;
        for label in name.labels() {
            let dot = usize::from(self.len > 0);
            let Some(to) = self.bytes.get_mut(self.len..self.len + dot + label.len()) else {
                break;
            };
            let (sep, text) = to.split_at_mut(dot);
            sep.fill(b'.');
            for (to, &b) in text.iter_mut().zip(label) {
                *to = b.to_ascii_lowercase();
            }
            self.len += dot + label.len();
        }
        // As `parse`, strip one trailing dot.
        if self.bytes[..self.len].ends_with(b".") {
            self.len -= 1;
        }
        self.as_str()
    }
}

/// Checks the name at the cursor ([`check_name`]), keeping it in place;
/// also returns whether it is stored in canonical wire form.
fn checked<'a>(
    cur: &mut Cursor<'a>,
    seen: &mut Seen,
    copy: Option<&mut NameBuf>,
) -> Result<(NameRef<'a>, bool), WireError> {
    let name = NameRef {
        bytes: cur.bytes,
        pos: cur.pos,
    };
    let (end, canonical) = check_name(cur.bytes, cur.pos, seen, copy)?;
    cur.pos = end;
    Ok((name, canonical))
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

/// Record data with its name borrowed: canonical wire form ([`Wire`])
/// where a [`Reply`] writes a record, a [`NameRef`] where a
/// [`MessageView`] reads one in place.
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

/// Where a checked message's parts are: its header fields, the offset
/// each section starts at, and the length of the first question's name
/// where it is stored in canonical wire form (0 otherwise).
#[derive(Debug, Clone, Copy)]
struct Layout {
    id: u16,
    flags: u16,
    /// Questions, answers, authorities, additionals.
    counts: [u16; 4],
    starts: [usize; 4],
    first_wire: usize,
}

/// A DNS message read in place. [`MessageView::parse`] checks the whole
/// datagram: the 12-byte header, then every question and record its
/// counts announce. A question needs a known type (A, NS, CNAME); a
/// record's data must fit its length (an A record exactly 4 bytes, an NS
/// or CNAME target a name ending within it), and one of an unknown type is
/// skipped over. Every name is checked label by label against
/// [`DomainName::parse`]'s rules, compression pointers pointing back only,
/// at most 32 of them per name; a pointer to a suffix already checked in
/// the message is not walked again. Bytes after the last counted record
/// are ignored. The view keeps only the header and where each section
/// starts: questions and records are read off the bytes as a section is
/// walked, skipping the unknown types, and names stay on the wire
/// ([`NameRef`]) until a caller compares or expands one. Nothing is
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
        Self::check(bytes, None)
    }

    /// [`MessageView::parse`], leaving the first question's name in
    /// `first` as presentation text, copied as it is checked (the root's
    /// `""` when there is no question).
    pub(crate) fn parse_in(bytes: &'a [u8], first: &mut NameBuf) -> Result<Self, WireError> {
        first.len = 0;
        Self::check(bytes, Some(first))
    }

    fn check(bytes: &'a [u8], mut first: Option<&mut NameBuf>) -> Result<Self, WireError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let header = cur.array::<12>()?;
        let word = |i: usize| u16::from_be_bytes([header[2 * i], header[2 * i + 1]]);
        let (id, flags) = (word(0), word(1));
        let counts = [word(2), word(3), word(4), word(5)];
        let mut seen = Seen::new();
        let mut starts = [0; 4];
        let mut first_wire = 0;
        starts[0] = cur.pos;
        for i in 0..counts[0] {
            read_question(&mut cur, |cur| {
                let copy = if i == 0 { first.take() } else { None };
                let (name, canonical) = checked(cur, &mut seen, copy)?;
                if i == 0 && canonical {
                    first_wire = cur.pos - name.pos;
                }
                Ok(name)
            })?;
        }
        for section in 1..4 {
            starts[section] = cur.pos;
            for _ in 0..counts[section] {
                read_record(&mut cur, |cur| Ok(checked(cur, &mut seen, None)?.0))?;
            }
        }
        let layout = Layout {
            id,
            flags,
            counts,
            starts,
            first_wire,
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

    /// The first question's name as the message stores it, when that is
    /// its canonical wire form.
    pub(crate) fn first_wire(&self) -> Option<Wire<'a>> {
        let start = self.layout.starts[0];
        (self.layout.first_wire > 0)
            .then(|| Wire(&self.bytes[start..start + self.layout.first_wire]))
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
/// no allocation; [`NameRef::to_name`]
/// makes the owned name.
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

    /// Whether the name is stored here as exactly `wire`, the bytes of an
    /// uncompressed name in canonical form: then it is that name, without
    /// a label compared. Another spelling of the same name is not.
    pub(crate) fn is_stored_as(self, wire: &[u8]) -> bool {
        self.bytes.get(self.pos..self.pos + wire.len()) == Some(wire)
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
                Some((head, tail)) if label == head || label.eq_ignore_ascii_case(head) => {
                    rest = tail
                }
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
        buf.fill(self)
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
