//! The owned DNS message: the reference form the borrowed codec is tested
//! against. [`decode`] builds a [`Message`] through the reader the
//! [`MessageView`](super::MessageView) runs, so the two accept the same datagrams; [`encode`]
//! writes one through the compressor a [`Reply`] writes with, so a reply
//! carrying the same records is the same bytes. Nothing outside the tests
//! builds one.

use super::{
    check_name, put_header, put_question, put_record, read_question, read_record, Cursor, NameBuf,
    RData, Rcode, RecordType, Reply, Suffixes, WireError, FLAG_AA, FLAG_QR, FLAG_RD,
};
use crate::name::DomainName;
use std::net::Ipv4Addr;

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

    /// The data with its name borrowed, as [`Reply`] writes it.
    pub fn as_rdata(&self) -> RData<&str> {
        match self {
            RecordData::A(ip) => RData::A(*ip),
            RecordData::Ns(n) => RData::Ns(n.as_str()),
            RecordData::Cname(n) => RData::Cname(n.as_str()),
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
        put_question(&mut buf, q.name.as_str(), q.qtype, &mut offsets);
    }
    for section in [&msg.answers, &msg.authorities, &msg.additionals] {
        for r in section {
            put_record(
                &mut buf,
                r.name.as_str(),
                r.ttl,
                r.data.as_rdata(),
                &mut offsets,
            );
        }
    }
    buf
}

/// Decodes a wire message. It accepts exactly what [`MessageView::parse`](super::MessageView::parse)
/// accepts: every name is checked in a [`NameBuf`] as the view checks it,
/// then made owned.
pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
    let mut cur = Cursor { bytes, pos: 0 };
    let mut text = NameBuf::new();
    let id = cur.u16()?;
    let flags = cur.u16()?;
    let qd = cur.u16()? as usize;
    let an = cur.u16()? as usize;
    let ns = cur.u16()? as usize;
    let ar = cur.u16()? as usize;

    // Counts come off the wire: size each section by what the remaining
    // bytes could hold (a question is at least 5 bytes, a record 11).
    let cap = |count: usize, min_len: usize, cur: &Cursor<'_>| {
        count.min(bytes.len().saturating_sub(cur.pos) / min_len)
    };
    let mut questions = Vec::with_capacity(cap(qd, 5, &cur));
    for _ in 0..qd {
        let (name, qtype) = read_question(&mut cur, |cur| check_name(&mut text, cur))?;
        questions.push(Question {
            name: name.to_name(),
            qtype,
        });
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
            if let (owner, ttl, Some(data)) =
                read_record(&mut cur, |cur| check_name(&mut text, cur))?
            {
                sections[idx].push(Record {
                    name: owner.to_name(),
                    ttl,
                    data: match data {
                        RData::A(ip) => RecordData::A(ip),
                        RData::Ns(n) => RecordData::Ns(n.to_name()),
                        RData::Cname(n) => RecordData::Cname(n.to_name()),
                    },
                });
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
                self.push(section, r.name.as_str(), r.ttl, r.data.as_rdata());
            }
        }
    }
}
