//! The chunked, columnar on-disk dataset: `MeasuredDataset` without the
//! resident `Vec<SiteObservation>`.
//!
//! A store is a directory:
//!
//! ```text
//! store/
//!   manifest.json        {"magic":"webdep-chunk-store","version":1,
//!                         "label":…,"sites":N,"chunk_sites":K}
//!   chunk-000000.col     sites [0, K)
//!   chunk-000001.col     sites [K, 2K)
//!   …                    (final chunk holds the remainder)
//! ```
//!
//! Each chunk file is self-contained and columnar (little-endian):
//!
//! ```text
//! magic "WDCHUNK1" · chunk_index u32 · lo u32 · rows u32
//! string table: count u32, then len u32 + UTF-8 bytes per string
//! columns, each over all rows of the chunk:
//!   domain/tld/language        rows × u32 string id
//!   hosting_ip                 presence bitmap + u32 per present row
//!   hosting_asn/org            presence bitmap + u32 per present row
//!   hosting_{org,ip}_country   presence bitmap + string id per present row
//!   hosting_anycast            bitmap
//!   ns_names                   rows × u16 count, then the string ids
//!   dns_* columns              same shapes as hosting
//!   ca_owner / ca_owner_country  presence bitmap + values
//!   hosting/dns/ca_error       presence bitmap + (cause u8, detail id u32)
//!   error summary              presence bitmap + string id per present row
//! checksum u64 (FNV-1a over everything above)
//! ```
//!
//! Strings are interned **per chunk**, in row order — site order, not
//! commit order — so the encoded bytes are a pure function of the chunk's
//! observations. Combined with the pipeline's determinism contract, the
//! whole store is byte-identical across worker counts and crash-resume
//! (tested in `crates/pipeline/tests/determinism.rs` and
//! `crates/pipeline/tests/supervision.rs`).
//!
//! A chunk file is written and fsynced once, after its last site commits:
//! that commit *claims* the chunk (`ChunkStoreWriter::insert` hands back
//! a `ClaimedChunk`), the claimant encodes and writes it — outside any
//! lock the writer sits behind — and `ChunkStoreWriter::record` marks it
//! durable. A late duplicate commit to a claimed chunk is refused, and
//! [`ChunkStoreWriter::finish`] fails on a claim that was never recorded.
//! The checksum turns a torn write into [`ChunkState::Corrupt`], which
//! resume heals by re-encoding the chunk from the run journal — itself a
//! sequence of one-row chunks in this same codec ([`crate::journal`]).
//! The writer holds only *partial* chunks in memory (bounded by the
//! scheduler's batch spread), which is what makes million-site runs
//! memory-bounded end to end.

use crate::dataset::{FailureCause, LayerError, MeasuredDataset, SiteObservation};
use serde_json::Value;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// Manifest magic string.
pub const STORE_MAGIC: &str = "webdep-chunk-store";
/// Store format version.
pub const STORE_VERSION: u64 = 1;
/// Sites per chunk unless the caller chooses otherwise: small enough that
/// partial chunks stay cheap, large enough that a million-site store is a
/// few hundred files.
pub const DEFAULT_CHUNK_SITES: usize = 4096;
/// Chunk file magic.
const CHUNK_MAGIC: [u8; 8] = *b"WDCHUNK1";

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// Writes the manifest atomically: temp file, data fsync, rename over the
/// live name, directory fsync. A crash at any point leaves either the old
/// complete manifest or the new one — never a torn file that takes the
/// whole store down with it.
fn write_manifest(dir: &Path, label: &str, sites: usize, chunk_sites: usize) -> io::Result<()> {
    let manifest = Value::Object(vec![
        ("magic".into(), Value::String(STORE_MAGIC.into())),
        ("version".into(), Value::U64(STORE_VERSION)),
        ("label".into(), Value::String(label.into())),
        ("sites".into(), Value::U64(sites as u64)),
        ("chunk_sites".into(), Value::U64(chunk_sites as u64)),
    ]);
    let tmp = dir.join("manifest.json.tmp");
    let mut f = File::create(&tmp)?;
    writeln!(f, "{manifest}")?;
    f.sync_data()?;
    std::fs::rename(&tmp, manifest_path(dir))?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Whether the on-disk manifest is unparseable (torn write or external
/// damage) as opposed to merely describing a different store.
fn manifest_is_torn(dir: &Path) -> io::Result<bool> {
    let bytes = std::fs::read(manifest_path(dir))?;
    let text = String::from_utf8_lossy(&bytes);
    Ok(serde_json::from_str::<Value>(text.trim()).is_err())
}

fn chunk_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("chunk-{index:06}.col"))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// FNV-1a 64 over a byte slice — the chunk integrity checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn cause_index(c: FailureCause) -> u8 {
    FailureCause::ALL
        .iter()
        .position(|&x| x == c)
        .expect("cause in ALL") as u8
}

fn cause_from_index(i: u8) -> Result<FailureCause, String> {
    FailureCause::ALL
        .get(i as usize)
        .copied()
        .ok_or_else(|| format!("unknown failure cause index {i}"))
}

// ---------------------------------------------------------------------------
// Encoding

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// LSB-first presence bitmap, one bit per row.
    fn bitmap(&mut self, present: impl Iterator<Item = bool>) {
        let mut byte = 0u8;
        let mut r = 0;
        for p in present {
            if p {
                byte |= 1 << (r % 8);
            }
            if r % 8 == 7 {
                self.u8(byte);
                byte = 0;
            }
            r += 1;
        }
        if r % 8 != 0 {
            self.u8(byte);
        }
    }
}

// A row's string fields, in the order a chunk interns them (`ns_names`
// sit between `HOSTING_IP_COUNTRY` and `DNS_ORG_COUNTRY`).
const DOMAIN: usize = 0;
const TLD: usize = 1;
const LANGUAGE: usize = 2;
const HOSTING_ORG_COUNTRY: usize = 3;
const HOSTING_IP_COUNTRY: usize = 4;
const DNS_ORG_COUNTRY: usize = 5;
const DNS_IP_COUNTRY: usize = 6;
const CA_OWNER_COUNTRY: usize = 7;
const HOSTING_ERROR: usize = 8;
const DNS_ERROR: usize = 9;
const CA_ERROR: usize = 10;
const ERROR: usize = 11;
const STR_FIELDS: usize = 12;
/// The id of an absent optional string.
const ABSENT: u32 = u32::MAX;

/// A chunk's string table: ids in first-intern order, keys borrowed from
/// the rows being encoded.
#[derive(Default)]
struct Strings<'a> {
    ids: HashMap<&'a str, u32>,
    table: Vec<&'a str>,
}

impl<'a> Strings<'a> {
    fn intern(&mut self, s: &'a str) -> u32 {
        let table = &mut self.table;
        *self.ids.entry(s).or_insert_with(|| {
            table.push(s);
            (table.len() - 1) as u32
        })
    }

    fn intern_opt(&mut self, s: Option<&'a str>) -> u32 {
        s.map_or(ABSENT, |s| self.intern(s))
    }
}

/// Encodes one complete chunk (rows in site order) to its file bytes.
pub(crate) fn encode_chunk(chunk_index: usize, lo: usize, rows: &[SiteObservation]) -> Vec<u8> {
    // Intern every string in row order, so ids are independent of the
    // order in which sites committed, and note each field's id on the way.
    let mut strings = Strings::default();
    let mut ids = vec![ABSENT; rows.len() * STR_FIELDS];
    let mut ns_ids = Vec::new();
    fn detail(e: &Option<LayerError>) -> Option<&str> {
        e.as_ref().map(|e| e.detail.as_str())
    }
    for (obs, row) in rows.iter().zip(ids.chunks_exact_mut(STR_FIELDS)) {
        row[DOMAIN] = strings.intern(&obs.domain);
        row[TLD] = strings.intern(&obs.tld);
        row[LANGUAGE] = strings.intern(&obs.language);
        row[HOSTING_ORG_COUNTRY] = strings.intern_opt(obs.hosting_org_country.as_deref());
        row[HOSTING_IP_COUNTRY] = strings.intern_opt(obs.hosting_ip_country.as_deref());
        ns_ids.extend(obs.ns_names.iter().map(|n| strings.intern(n)));
        row[DNS_ORG_COUNTRY] = strings.intern_opt(obs.dns_org_country.as_deref());
        row[DNS_IP_COUNTRY] = strings.intern_opt(obs.dns_ip_country.as_deref());
        row[CA_OWNER_COUNTRY] = strings.intern_opt(obs.ca_owner_country.as_deref());
        row[HOSTING_ERROR] = strings.intern_opt(detail(&obs.hosting_error));
        row[DNS_ERROR] = strings.intern_opt(detail(&obs.dns_error));
        row[CA_ERROR] = strings.intern_opt(detail(&obs.ca_error));
        row[ERROR] = strings.intern_opt(obs.error.as_deref());
    }
    let column = |field: usize| ids.iter().skip(field).step_by(STR_FIELDS).copied();

    let mut e = Enc { buf: Vec::new() };
    e.buf.extend_from_slice(&CHUNK_MAGIC);
    e.u32(chunk_index as u32);
    e.u32(lo as u32);
    e.u32(rows.len() as u32);
    e.u32(strings.table.len() as u32);
    for s in &strings.table {
        e.u32(s.len() as u32);
        e.buf.extend_from_slice(s.as_bytes());
    }

    for field in [DOMAIN, TLD, LANGUAGE] {
        for id in column(field) {
            e.u32(id);
        }
    }

    // Option<T> columns: presence bitmap, then one value per present row.
    macro_rules! opt_col {
        ($field:ident, $emit:expr) => {{
            e.bitmap(rows.iter().map(|o| o.$field.is_some()));
            for obs in rows {
                if let Some(v) = &obs.$field {
                    #[allow(clippy::redundant_closure_call)]
                    ($emit)(&mut e, v);
                }
            }
        }};
    }
    let emit_ip = |e: &mut Enc, ip: &Ipv4Addr| e.u32(u32::from(*ip));
    let emit_u32 = |e: &mut Enc, v: &u32| e.u32(*v);
    let str_col = |e: &mut Enc, field: usize| {
        e.bitmap(column(field).map(|id| id != ABSENT));
        for id in column(field).filter(|&id| id != ABSENT) {
            e.u32(id);
        }
    };
    let err_col = |e: &mut Enc, field: usize, err: fn(&SiteObservation) -> &Option<LayerError>| {
        e.bitmap(rows.iter().map(|o| err(o).is_some()));
        for (obs, id) in rows.iter().zip(column(field)) {
            if let Some(err) = err(obs) {
                e.u8(cause_index(err.cause));
                e.u32(id);
            }
        }
    };

    opt_col!(hosting_ip, emit_ip);
    opt_col!(hosting_asn, emit_u32);
    opt_col!(hosting_org, emit_u32);
    str_col(&mut e, HOSTING_ORG_COUNTRY);
    str_col(&mut e, HOSTING_IP_COUNTRY);
    e.bitmap(rows.iter().map(|o| o.hosting_anycast));

    for obs in rows {
        e.u16(obs.ns_names.len() as u16);
    }
    for &id in &ns_ids {
        e.u32(id);
    }

    opt_col!(dns_ip, emit_ip);
    opt_col!(dns_asn, emit_u32);
    opt_col!(dns_org, emit_u32);
    str_col(&mut e, DNS_ORG_COUNTRY);
    str_col(&mut e, DNS_IP_COUNTRY);
    e.bitmap(rows.iter().map(|o| o.dns_anycast));

    opt_col!(ca_owner, emit_u32);
    str_col(&mut e, CA_OWNER_COUNTRY);

    err_col(&mut e, HOSTING_ERROR, |o| &o.hosting_error);
    err_col(&mut e, DNS_ERROR, |o| &o.dns_error);
    err_col(&mut e, CA_ERROR, |o| &o.ca_error);
    str_col(&mut e, ERROR);

    let sum = fnv1a(&e.buf);
    e.u64(sum);
    e.buf
}

// ---------------------------------------------------------------------------
// Decoding

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or("chunk truncated")?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn bitmap(&mut self, rows: usize) -> Result<Vec<bool>, String> {
        let bytes = self.take(rows.div_ceil(8))?;
        Ok((0..rows)
            .map(|r| bytes[r / 8] & (1 << (r % 8)) != 0)
            .collect())
    }
}

/// One decoded chunk: columnar access plus per-row observation
/// reconstruction. String-valued columns hold ids into [`DecodedChunk::str_of`].
pub struct DecodedChunk {
    /// First site index the chunk covers.
    pub lo: usize,
    /// Rows in the chunk (`lo..lo + rows` in site order).
    pub rows: usize,
    strings: Vec<String>,
    domain: Vec<u32>,
    /// TLD string id per row.
    pub tld: Vec<u32>,
    language: Vec<u32>,
    hosting_ip: Vec<Option<Ipv4Addr>>,
    hosting_asn: Vec<Option<u32>>,
    /// Hosting org world id per row (`None` = layer failed).
    pub hosting_org: Vec<Option<u32>>,
    hosting_org_country: Vec<Option<u32>>,
    hosting_ip_country: Vec<Option<u32>>,
    hosting_anycast: Vec<bool>,
    ns_off: Vec<u32>,
    ns_ids: Vec<u32>,
    dns_ip: Vec<Option<Ipv4Addr>>,
    dns_asn: Vec<Option<u32>>,
    /// DNS org world id per row.
    pub dns_org: Vec<Option<u32>>,
    dns_org_country: Vec<Option<u32>>,
    dns_ip_country: Vec<Option<u32>>,
    dns_anycast: Vec<bool>,
    /// CA owner world id per row.
    pub ca_owner: Vec<Option<u32>>,
    ca_owner_country: Vec<Option<u32>>,
    hosting_error: Vec<Option<(FailureCause, u32)>>,
    dns_error: Vec<Option<(FailureCause, u32)>>,
    ca_error: Vec<Option<(FailureCause, u32)>>,
    error: Vec<Option<u32>>,
}

impl DecodedChunk {
    /// The string behind a chunk-local id.
    pub fn str_of(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Per-row layer failure causes `(hosting, dns, ca)` without
    /// materializing a full observation — the streaming taxonomy fold
    /// (`webdep serve --store`) reads only these columns.
    pub fn failure_causes(&self, r: usize) -> [Option<FailureCause>; 3] {
        [
            self.hosting_error[r].map(|(c, _)| c),
            self.dns_error[r].map(|(c, _)| c),
            self.ca_error[r].map(|(c, _)| c),
        ]
    }

    /// Reconstructs row `r` as a full [`SiteObservation`] — the exact
    /// observation that was committed (round-trip tested).
    pub fn observation(&self, r: usize) -> SiteObservation {
        let s = |id: u32| self.strings[id as usize].clone();
        let os = |v: &Option<u32>| v.map(s);
        let err = |v: &Option<(FailureCause, u32)>| {
            v.map(|(cause, detail)| LayerError::new(cause, s(detail)))
        };
        SiteObservation {
            domain: s(self.domain[r]),
            tld: s(self.tld[r]),
            language: s(self.language[r]),
            hosting_ip: self.hosting_ip[r],
            hosting_asn: self.hosting_asn[r],
            hosting_org: self.hosting_org[r],
            hosting_org_country: os(&self.hosting_org_country[r]),
            hosting_ip_country: os(&self.hosting_ip_country[r]),
            hosting_anycast: self.hosting_anycast[r],
            ns_names: self.ns_ids[self.ns_off[r] as usize..self.ns_off[r + 1] as usize]
                .iter()
                .map(|&i| s(i))
                .collect(),
            dns_ip: self.dns_ip[r],
            dns_asn: self.dns_asn[r],
            dns_org: self.dns_org[r],
            dns_org_country: os(&self.dns_org_country[r]),
            dns_ip_country: os(&self.dns_ip_country[r]),
            dns_anycast: self.dns_anycast[r],
            ca_owner: self.ca_owner[r],
            ca_owner_country: os(&self.ca_owner_country[r]),
            hosting_error: err(&self.hosting_error[r]),
            dns_error: err(&self.dns_error[r]),
            ca_error: err(&self.ca_error[r]),
            error: os(&self.error[r]),
        }
    }
}

/// Decodes and verifies one chunk's bytes (checksum, header against the
/// expected geometry, every column). Total on any input: corruption is an
/// `Err`, never a panic or a count-sized allocation.
pub(crate) fn decode_chunk(
    bytes: &[u8],
    expect_index: usize,
    expect_lo: usize,
    expect_rows: usize,
) -> Result<DecodedChunk, String> {
    if bytes.len() < CHUNK_MAGIC.len() + 8 {
        return Err("chunk too short".into());
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    if fnv1a(body) != sum {
        return Err("chunk checksum mismatch".into());
    }
    let mut d = Dec { buf: body, pos: 0 };
    if d.take(8)? != CHUNK_MAGIC {
        return Err("bad chunk magic".into());
    }
    let index = d.u32()? as usize;
    let lo = d.u32()? as usize;
    let rows = d.u32()? as usize;
    if index != expect_index || lo != expect_lo || rows != expect_rows {
        return Err(format!(
            "chunk header (index {index}, lo {lo}, rows {rows}) does not match \
             manifest (index {expect_index}, lo {expect_lo}, rows {expect_rows})"
        ));
    }
    let n_strings = d.u32()? as usize;
    // Counts come from file bytes, so no capacity may exceed what the rest
    // of the buffer can encode: every string carries a 4-byte length.
    let mut strings = Vec::with_capacity(n_strings.min(d.remaining() / 4));
    for _ in 0..n_strings {
        let len = d.u32()? as usize;
        let s = std::str::from_utf8(d.take(len)?).map_err(|e| e.to_string())?;
        strings.push(s.to_string());
    }
    let sid = |id: u32| -> Result<u32, String> {
        if (id as usize) < n_strings {
            Ok(id)
        } else {
            Err(format!("string id {id} out of range (< {n_strings})"))
        }
    };

    let str_col =
        |d: &mut Dec| -> Result<Vec<u32>, String> { (0..rows).map(|_| sid(d.u32()?)).collect() };
    let domain = str_col(&mut d)?;
    let tld = str_col(&mut d)?;
    let language = str_col(&mut d)?;

    fn opt_col<T, F: FnMut(&mut Dec) -> Result<T, String>>(
        d: &mut Dec,
        rows: usize,
        mut read: F,
    ) -> Result<Vec<Option<T>>, String> {
        let present = d.bitmap(rows)?;
        present
            .into_iter()
            .map(|p| if p { read(d).map(Some) } else { Ok(None) })
            .collect()
    }
    let read_ip = |d: &mut Dec| Ok(Ipv4Addr::from(d.u32()?));
    let read_u32 = |d: &mut Dec| d.u32();
    let read_sid = |d: &mut Dec| sid(d.u32()?);
    let read_err = |d: &mut Dec| -> Result<(FailureCause, u32), String> {
        let cause = cause_from_index(d.u8()?)?;
        Ok((cause, sid(d.u32()?)?))
    };

    let hosting_ip = opt_col(&mut d, rows, read_ip)?;
    let hosting_asn = opt_col(&mut d, rows, read_u32)?;
    let hosting_org = opt_col(&mut d, rows, read_u32)?;
    let hosting_org_country = opt_col(&mut d, rows, read_sid)?;
    let hosting_ip_country = opt_col(&mut d, rows, read_sid)?;
    let hosting_anycast = d.bitmap(rows)?;

    // Every row carries a 2-byte nameserver count.
    let mut ns_off = Vec::with_capacity(rows.min(d.remaining() / 2) + 1);
    ns_off.push(0u32);
    let mut total_ns = 0u32;
    for _ in 0..rows {
        total_ns = total_ns
            .checked_add(d.u16()? as u32)
            .ok_or("nameserver count overflows")?;
        ns_off.push(total_ns);
    }
    let ns_ids: Vec<u32> = (0..total_ns)
        .map(|_| sid(d.u32()?))
        .collect::<Result<_, _>>()?;

    let dns_ip = opt_col(&mut d, rows, read_ip)?;
    let dns_asn = opt_col(&mut d, rows, read_u32)?;
    let dns_org = opt_col(&mut d, rows, read_u32)?;
    let dns_org_country = opt_col(&mut d, rows, read_sid)?;
    let dns_ip_country = opt_col(&mut d, rows, read_sid)?;
    let dns_anycast = d.bitmap(rows)?;

    let ca_owner = opt_col(&mut d, rows, read_u32)?;
    let ca_owner_country = opt_col(&mut d, rows, read_sid)?;

    let hosting_error = opt_col(&mut d, rows, read_err)?;
    let dns_error = opt_col(&mut d, rows, read_err)?;
    let ca_error = opt_col(&mut d, rows, read_err)?;
    let error = opt_col(&mut d, rows, read_sid)?;

    if d.pos != body.len() {
        return Err(format!(
            "trailing bytes in chunk: {} of {}",
            body.len() - d.pos,
            body.len()
        ));
    }
    Ok(DecodedChunk {
        lo,
        rows,
        strings,
        domain,
        tld,
        language,
        hosting_ip,
        hosting_asn,
        hosting_org,
        hosting_org_country,
        hosting_ip_country,
        hosting_anycast,
        ns_off,
        ns_ids,
        dns_ip,
        dns_asn,
        dns_org,
        dns_org_country,
        dns_ip_country,
        dns_anycast,
        ca_owner,
        ca_owner_country,
        hosting_error,
        dns_error,
        ca_error,
        error,
    })
}

// ---------------------------------------------------------------------------
// Writer

/// Where one chunk of a [`ChunkStoreWriter`] stands.
enum Progress {
    /// Sites are still arriving; `rows` holds the committed ones.
    Filling {
        filled: usize,
        rows: Vec<Option<SiteObservation>>,
    },
    /// Its last site committed and a [`ClaimedChunk`] left with the rows;
    /// the file is not durable until [`ChunkStoreWriter::record`] says so.
    Claimed,
    /// On disk and fsynced (or adopted and verified).
    Written,
}

/// A complete chunk claimed by the commit of its last site. Encoding,
/// writing and fsyncing it needs no access to the writer, so a caller
/// that shares the writer behind a lock does it outside that lock and
/// hands the outcome back to [`ChunkStoreWriter::record`].
#[must_use = "a claimed chunk is durable only once written and recorded"]
pub(crate) struct ClaimedChunk {
    path: PathBuf,
    index: usize,
    lo: usize,
    rows: Vec<SiteObservation>,
}

/// A chunk file [`ClaimedChunk::write`] made durable.
pub(crate) struct WrittenChunk {
    index: usize,
    bytes: u64,
}

impl ClaimedChunk {
    /// Encodes the chunk, writes its file and fsyncs it.
    pub(crate) fn write(self) -> io::Result<WrittenChunk> {
        let bytes = encode_chunk(self.index, self.lo, &self.rows);
        let mut f = File::create(&self.path)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
        Ok(WrittenChunk {
            index: self.index,
            bytes: bytes.len() as u64,
        })
    }
}

/// Streaming chunk-store writer: sites commit in any order; the commit of
/// a chunk's last site claims the chunk, which is then encoded, written
/// and fsynced.
pub struct ChunkStoreWriter {
    dir: PathBuf,
    sites: usize,
    chunk_sites: usize,
    chunks: Vec<Progress>,
    bytes_written: u64,
}

impl ChunkStoreWriter {
    /// Creates (or resets) a store directory for a run over `sites` sites,
    /// writing and syncing the manifest and deleting any stale chunk files.
    pub fn create(dir: &Path, label: &str, sites: usize, chunk_sites: usize) -> io::Result<Self> {
        assert!(chunk_sites > 0, "chunk_sites must be positive");
        std::fs::create_dir_all(dir)?;
        let chunks = sites.div_ceil(chunk_sites);
        // Stale chunks from a previous run must not masquerade as data.
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("chunk-") && name.ends_with(".col") {
                std::fs::remove_file(entry.path())?;
            }
        }
        write_manifest(dir, label, sites, chunk_sites)?;
        Ok(Self::with_written(
            dir,
            sites,
            chunk_sites,
            vec![false; chunks],
        ))
    }

    /// A writer whose chunks are on disk where `written` says so; the
    /// others start empty (their rows are allocated by the first commit).
    fn with_written(dir: &Path, sites: usize, chunk_sites: usize, written: Vec<bool>) -> Self {
        let chunks = written
            .into_iter()
            .map(|done| match done {
                true => Progress::Written,
                false => Progress::Filling {
                    filled: 0,
                    rows: Vec::new(),
                },
            })
            .collect();
        ChunkStoreWriter {
            dir: dir.to_path_buf(),
            sites,
            chunk_sites,
            chunks,
            bytes_written: 0,
        }
    }

    /// Reopens an existing store for resume: the manifest must match, valid
    /// chunk files are kept (their sites need no re-measurement), and
    /// corrupt ones — the torn-write crash artifact — are deleted so they
    /// can be healed from the journal. Falls back to [`Self::create`] when
    /// no manifest exists (a crash before the store was set up), and
    /// rewrites an unparseable manifest in place from the caller's run
    /// metadata — crucially *not* via [`Self::create`], which would wipe
    /// the surviving chunk files the resume is here to keep.
    pub fn resume(dir: &Path, label: &str, sites: usize, chunk_sites: usize) -> io::Result<Self> {
        if !manifest_path(dir).exists() {
            return Self::create(dir, label, sites, chunk_sites);
        }
        let store = match ChunkStore::open(dir) {
            Ok(store) => store,
            Err(e) => {
                if manifest_is_torn(dir)? {
                    write_manifest(dir, label, sites, chunk_sites)?;
                    ChunkStore::open(dir)?
                } else {
                    return Err(e);
                }
            }
        };
        if store.label != label || store.sites != sites || store.chunk_sites != chunk_sites {
            return Err(bad(format!(
                "store is for '{}' ({} sites, chunk {}), not '{}' ({} sites, chunk {})",
                store.label, store.sites, store.chunk_sites, label, sites, chunk_sites
            )));
        }
        let chunks = store.num_chunks();
        let mut written = vec![false; chunks];
        for (c, w) in written.iter_mut().enumerate() {
            match store.chunk_state(c) {
                ChunkState::Valid => *w = true,
                ChunkState::Missing => {}
                ChunkState::Corrupt(_) => std::fs::remove_file(chunk_path(dir, c))?,
            }
        }
        Ok(Self::with_written(dir, sites, chunk_sites, written))
    }

    fn chunk_of(&self, site: usize) -> usize {
        site / self.chunk_sites
    }

    fn chunk_lo(&self, chunk: usize) -> usize {
        chunk * self.chunk_sites
    }

    fn chunk_rows(&self, chunk: usize) -> usize {
        (self.sites - self.chunk_lo(chunk)).min(self.chunk_sites)
    }

    /// Whether a chunk has been durably written.
    pub fn chunk_written(&self, chunk: usize) -> bool {
        matches!(self.chunks[chunk], Progress::Written)
    }

    /// Whether a site's chunk has been durably written.
    pub fn site_durable(&self, site: usize) -> bool {
        self.chunk_written(self.chunk_of(site))
    }

    /// Total chunk-file bytes written by this writer.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Commits one observation. Returns `Ok(false)` when the site was
    /// already committed (or its chunk already claimed or on disk) —
    /// idempotent, like the collector's first-write-wins rule. Flushes the
    /// chunk when it completes.
    pub fn commit(&mut self, site: usize, obs: &SiteObservation) -> io::Result<bool> {
        self.commit_owned(site, obs.clone())
    }

    /// [`ChunkStoreWriter::commit`] for an observation the caller owns.
    pub fn commit_owned(&mut self, site: usize, obs: SiteObservation) -> io::Result<bool> {
        let (committed, claimed) = self.insert(site, obs);
        if let Some(chunk) = claimed {
            self.record(chunk.write())?;
        }
        Ok(committed)
    }

    /// Stores one observation without writing anything. Returns whether it
    /// was stored — `false` for a site already committed or a chunk already
    /// claimed or on disk — and, when it completed its chunk, the claim on
    /// that chunk, which the caller writes and [`ChunkStoreWriter::record`]s.
    pub(crate) fn insert(
        &mut self,
        site: usize,
        obs: SiteObservation,
    ) -> (bool, Option<ClaimedChunk>) {
        assert!(site < self.sites, "site {site} out of range");
        let c = self.chunk_of(site);
        let (lo, n_rows) = (self.chunk_lo(c), self.chunk_rows(c));
        let Progress::Filling { filled, rows } = &mut self.chunks[c] else {
            return (false, None);
        };
        if rows.is_empty() {
            rows.resize_with(n_rows, || None);
        }
        let slot = &mut rows[site - lo];
        if slot.is_some() {
            return (false, None);
        }
        *slot = Some(obs);
        *filled += 1;
        if *filled < n_rows {
            return (true, None);
        }
        let rows = std::mem::take(rows);
        self.chunks[c] = Progress::Claimed;
        let claimed = ClaimedChunk {
            path: chunk_path(&self.dir, c),
            index: c,
            lo,
            rows: rows
                .into_iter()
                .map(|r| r.expect("chunk complete"))
                .collect(),
        };
        (true, Some(claimed))
    }

    /// Records the outcome of writing a claimed chunk. A failed write
    /// leaves the chunk claimed, so [`ChunkStoreWriter::finish`] refuses
    /// the store.
    pub(crate) fn record(&mut self, written: io::Result<WrittenChunk>) -> io::Result<()> {
        let written = written?;
        let chunk = &mut self.chunks[written.index];
        assert!(
            matches!(chunk, Progress::Claimed),
            "chunk {} recorded without a claim",
            written.index
        );
        *chunk = Progress::Written;
        self.bytes_written += written.bytes;
        Ok(())
    }

    /// Adopts chunk `c` wholesale from a previous epoch's store: the file
    /// is hard-linked (copy fallback) into this store and verified through
    /// the normal decode path — header and checksum — before the chunk is
    /// marked durable. Valid only when the source chunk covers the same
    /// site range with the same row count; this is the delta path's
    /// clean-chunk fast lane, and the reason unchanged chunks cost zero
    /// re-encoding. Adopted files share their inode with the source store,
    /// so a chunk is never rewritten in place: [`ChunkStore::fsck`] heals
    /// through a temp file and an atomic rename.
    pub fn adopt_chunk(&mut self, src: &ChunkStore, c: usize) -> io::Result<()> {
        assert!(c < self.chunks.len(), "chunk {c} out of range");
        match &self.chunks[c] {
            Progress::Filling { filled: 0, .. } => {}
            Progress::Filling { .. } => {
                return Err(bad(format!("chunk {c} already has committed sites")))
            }
            Progress::Claimed | Progress::Written => {
                return Err(bad(format!("chunk {c} already written")))
            }
        }
        if src.chunk_sites != self.chunk_sites || src.chunk_rows(c) != self.chunk_rows(c) {
            return Err(bad(format!(
                "chunk {c} geometry mismatch: source {}-site chunks ({} rows) vs \
                 target {}-site chunks ({} rows)",
                src.chunk_sites,
                src.chunk_rows(c),
                self.chunk_sites,
                self.chunk_rows(c)
            )));
        }
        let from = chunk_path(&src.dir, c);
        let to = chunk_path(&self.dir, c);
        // `create` wiped the directory, but an interrupted earlier adoption
        // retried on the same writer may have left the file behind.
        if to.exists() {
            std::fs::remove_file(&to)?;
        }
        if std::fs::hard_link(&from, &to).is_err() {
            std::fs::copy(&from, &to)?;
        }
        let mut bytes = Vec::new();
        File::open(&to)?.read_to_end(&mut bytes)?;
        decode_chunk(&bytes, c, self.chunk_lo(c), self.chunk_rows(c))
            .map_err(|e| bad(format!("adopted chunk {c}: {e}")))?;
        self.bytes_written += bytes.len() as u64;
        self.chunks[c] = Progress::Written;
        Ok(())
    }

    /// Finalizes the store: every chunk must be on disk (an incomplete
    /// chunk means sites went unmeasured, and a claimed one that its
    /// write never reached or failed — errors, not shrugs), then the
    /// directory entry list is fsynced.
    pub fn finish(self) -> io::Result<()> {
        for (c, chunk) in self.chunks.iter().enumerate() {
            match chunk {
                Progress::Written => {}
                Progress::Claimed => {
                    return Err(bad(format!(
                        "store incomplete: chunk {c} claimed but never written"
                    )))
                }
                Progress::Filling { filled, .. } => {
                    return Err(bad(format!(
                        "store incomplete: chunk {c} never finished ({} of {} sites committed)",
                        filled,
                        self.chunk_rows(c)
                    )))
                }
            }
        }
        // Make the directory entries themselves durable.
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader

/// Validation result for one chunk file.
#[derive(Debug)]
pub enum ChunkState {
    /// Present and checksum-clean.
    Valid,
    /// File absent.
    Missing,
    /// Present but unreadable/torn; the message says why.
    Corrupt(String),
}

/// Machine-readable outcome of [`ChunkStore::fsck`]: what was found, and
/// (under `repair`) what was done about it.
#[derive(Debug)]
pub struct FsckReport {
    /// World label from the manifest.
    pub label: String,
    /// Site count from the manifest.
    pub sites: usize,
    /// Chunks the manifest implies.
    pub chunks: usize,
    /// Chunks present and checksum-clean.
    pub valid: usize,
    /// Chunk indices whose files were absent.
    pub missing: Vec<usize>,
    /// Corrupt chunk indices with the decode failure for each.
    pub corrupt: Vec<(usize, String)>,
    /// Corrupt chunk files moved aside to `quarantine/` (repair only).
    pub quarantined: usize,
    /// Chunks re-encoded byte-identically from journal records (repair
    /// only).
    pub healed: usize,
    /// Chunks that needed healing but the journal could not cover.
    pub unhealed: Vec<usize>,
}

impl FsckReport {
    /// Whether the store needed nothing: every chunk present and clean.
    pub fn clean(&self) -> bool {
        self.valid == self.chunks
    }

    /// Whether the store is fully intact *after* this pass (either it was
    /// clean, or repair healed every damaged chunk).
    pub fn intact(&self) -> bool {
        self.valid + self.healed == self.chunks
    }

    /// JSON rendering for the CLI and the chaos harness.
    pub fn to_value(&self) -> Value {
        let idxs = |v: &[usize]| Value::Array(v.iter().map(|&i| Value::U64(i as u64)).collect());
        Value::Object(vec![
            ("label".into(), Value::String(self.label.clone())),
            ("sites".into(), Value::U64(self.sites as u64)),
            ("chunks".into(), Value::U64(self.chunks as u64)),
            ("valid".into(), Value::U64(self.valid as u64)),
            ("missing".into(), idxs(&self.missing)),
            (
                "corrupt".into(),
                Value::Array(
                    self.corrupt
                        .iter()
                        .map(|(i, why)| {
                            Value::Object(vec![
                                ("chunk".into(), Value::U64(*i as u64)),
                                ("error".into(), Value::String(why.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("quarantined".into(), Value::U64(self.quarantined as u64)),
            ("healed".into(), Value::U64(self.healed as u64)),
            ("unhealed".into(), idxs(&self.unhealed)),
            ("intact".into(), Value::Bool(self.intact())),
        ])
    }
}

/// Read side of a chunk store.
pub struct ChunkStore {
    dir: PathBuf,
    /// World label from the manifest.
    pub label: String,
    /// Site count from the manifest.
    pub sites: usize,
    /// Chunk size from the manifest.
    pub chunk_sites: usize,
}

impl ChunkStore {
    /// Opens a store directory, validating the manifest.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let mut text = String::new();
        File::open(manifest_path(dir))?.read_to_string(&mut text)?;
        let m: Value = serde_json::from_str(text.trim())
            .map_err(|e| bad(format!("bad store manifest: {e}")))?;
        if m["magic"] != STORE_MAGIC {
            return Err(bad("not a chunk store (bad magic)"));
        }
        if m["version"].as_u64() != Some(STORE_VERSION) {
            return Err(bad(format!("unsupported store version {}", m["version"])));
        }
        let label = m["label"]
            .as_str()
            .ok_or_else(|| bad("manifest missing label"))?
            .to_string();
        let sites = m["sites"]
            .as_u64()
            .ok_or_else(|| bad("manifest missing sites"))?;
        // A chunk header records `lo` and `rows` as u32, so no larger
        // store can exist; refusing it here keeps a damaged digit from
        // sizing anything downstream.
        if sites > u64::from(u32::MAX) {
            return Err(bad(format!(
                "manifest claims {sites} sites, more than a chunk header can address"
            )));
        }
        let sites = sites as usize;
        let chunk_sites = m["chunk_sites"]
            .as_u64()
            .filter(|&k| k > 0)
            .ok_or_else(|| bad("manifest missing chunk_sites"))? as usize;
        Ok(ChunkStore {
            dir: dir.to_path_buf(),
            label,
            sites,
            chunk_sites,
        })
    }

    /// Number of chunks the manifest implies.
    pub fn num_chunks(&self) -> usize {
        self.sites.div_ceil(self.chunk_sites)
    }

    /// Rows in chunk `c`.
    pub fn chunk_rows(&self, c: usize) -> usize {
        (self.sites - c * self.chunk_sites).min(self.chunk_sites)
    }

    /// Validates chunk `c` without keeping its data.
    pub fn chunk_state(&self, c: usize) -> ChunkState {
        match self.read_chunk(c) {
            Ok(_) => ChunkState::Valid,
            Err(e) if e.kind() == io::ErrorKind::NotFound => ChunkState::Missing,
            Err(e) => ChunkState::Corrupt(e.to_string()),
        }
    }

    /// Reads and decodes chunk `c`.
    pub fn read_chunk(&self, c: usize) -> io::Result<DecodedChunk> {
        let mut bytes = Vec::new();
        File::open(chunk_path(&self.dir, c))?.read_to_end(&mut bytes)?;
        decode_chunk(&bytes, c, c * self.chunk_sites, self.chunk_rows(c))
            .map_err(|e| bad(format!("chunk {c}: {e}")))
    }

    /// Materializes the full [`MeasuredDataset`] — the dual-feasible-size
    /// path used to certify streaming/resident equivalence. The store must
    /// describe `world` (label and site count).
    pub fn load_dataset(&self, world: &webdep_webgen::World) -> io::Result<MeasuredDataset> {
        if world.label != self.label || world.sites.len() != self.sites {
            return Err(bad(format!(
                "store is for '{}' ({} sites), not '{}' ({} sites)",
                self.label,
                self.sites,
                world.label,
                world.sites.len()
            )));
        }
        let mut observations = Vec::with_capacity(self.sites);
        for c in 0..self.num_chunks() {
            let chunk = self.read_chunk(c)?;
            for r in 0..chunk.rows {
                observations.push(chunk.observation(r));
            }
        }
        Ok(MeasuredDataset {
            observations,
            label: world.label.clone(),
        })
    }

    /// Verifies every chunk of the store at `dir` — checksum, header, and
    /// full column decode — and reports what it finds. With `repair`,
    /// corrupt chunk files are moved aside to `quarantine/` (never
    /// deleted: the damaged bytes stay available for post-mortem) and
    /// missing or quarantined chunks are re-encoded from `journal`
    /// records where the journal covers all their rows. Chunk bytes are a
    /// pure function of the rows, so a healed chunk is byte-identical to
    /// the one the original run wrote; each is decode-verified before the
    /// atomic rename into place.
    pub fn fsck(dir: &Path, journal: Option<&Path>, repair: bool) -> io::Result<FsckReport> {
        let store = ChunkStore::open(dir)?;
        let mut report = FsckReport {
            label: store.label.clone(),
            sites: store.sites,
            chunks: store.num_chunks(),
            valid: 0,
            missing: Vec::new(),
            corrupt: Vec::new(),
            quarantined: 0,
            healed: 0,
            unhealed: Vec::new(),
        };
        let mut need_heal = Vec::new();
        for c in 0..store.num_chunks() {
            match store.chunk_state(c) {
                ChunkState::Valid => report.valid += 1,
                ChunkState::Missing => {
                    report.missing.push(c);
                    if repair {
                        need_heal.push(c);
                    }
                }
                ChunkState::Corrupt(why) => {
                    report.corrupt.push((c, why));
                    if repair {
                        let qdir = dir.join("quarantine");
                        std::fs::create_dir_all(&qdir)?;
                        let dst = qdir.join(format!("chunk-{c:06}.col"));
                        if dst.exists() {
                            std::fs::remove_file(&dst)?;
                        }
                        std::fs::rename(chunk_path(dir, c), dst)?;
                        report.quarantined += 1;
                        need_heal.push(c);
                    }
                }
            }
        }
        if !need_heal.is_empty() {
            let loaded = journal
                .map(|path| crate::journal::load_for(path, &store.label, store.sites))
                .transpose()?;
            // Indexed by site, so the heal costs what the journal holds —
            // never a slot per site the manifest claims.
            let by_site: HashMap<usize, &SiteObservation> = loaded
                .iter()
                .flat_map(|j| j.records.iter().map(|(i, obs)| (*i, obs)))
                .collect();
            for c in need_heal {
                let lo = c * store.chunk_sites;
                let rows = store.chunk_rows(c);
                let covered: Option<Vec<SiteObservation>> = (lo..lo + rows)
                    .map(|i| by_site.get(&i).map(|&obs| obs.clone()))
                    .collect();
                let Some(batch) = covered else {
                    report.unhealed.push(c);
                    continue;
                };
                let bytes = encode_chunk(c, lo, &batch);
                decode_chunk(&bytes, c, lo, rows)
                    .map_err(|e| bad(format!("healed chunk {c} failed verification: {e}")))?;
                let tmp = dir.join(format!("chunk-{c:06}.col.tmp"));
                let mut f = File::create(&tmp)?;
                f.write_all(&bytes)?;
                f.sync_data()?;
                std::fs::rename(&tmp, chunk_path(dir, c))?;
                report.healed += 1;
            }
            File::open(dir)?.sync_all()?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{FailureCause, LayerError};
    use proptest::prelude::*;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("webdep-store-{name}-{}", std::process::id()))
    }

    fn sample_obs(i: usize) -> SiteObservation {
        let mut o = SiteObservation::blank(&format!("site{i}.example.com"), "en");
        if !i.is_multiple_of(7) {
            o.hosting_ip = Some(Ipv4Addr::new(10, 1, (i / 256) as u8, (i % 256) as u8));
            o.hosting_asn = Some(64512 + (i % 37) as u32);
            o.hosting_org = Some((i % 11) as u32);
            o.hosting_org_country = Some(if i.is_multiple_of(2) { "US" } else { "DE" }.into());
            o.hosting_ip_country = Some("NL".into());
            o.hosting_anycast = i.is_multiple_of(3);
            o.ns_names = vec![
                format!("ns1.prov{}.net", i % 5),
                format!("ns2.prov{}.net", i % 5),
            ];
            o.dns_ip = Some(Ipv4Addr::new(192, 0, 2, (i % 256) as u8));
            o.dns_org = Some((i % 9) as u32);
            o.ca_owner = Some((i % 4) as u32);
            o.ca_owner_country = Some("US".into());
        } else {
            o.hosting_error = Some(LayerError::new(FailureCause::Timeout, "A: query timed out"));
            o.ca_error = Some(LayerError::new(
                FailureCause::Skipped,
                "no serving IP to scan",
            ));
        }
        o.derive_error_summary();
        o
    }

    fn write_store(dir: &Path, n: usize, chunk: usize) -> Vec<SiteObservation> {
        let all: Vec<SiteObservation> = (0..n).map(sample_obs).collect();
        let mut w = ChunkStoreWriter::create(dir, "t-v1", n, chunk).unwrap();
        // Commit in a scrambled order to prove site-order encoding.
        let mut order: Vec<usize> = (0..n).collect();
        order.reverse();
        order.swap(0, n / 2);
        for &i in &order {
            assert!(w.commit(i, &all[i]).unwrap());
        }
        assert!(
            !w.commit(0, &all[0]).unwrap(),
            "duplicate commit is a no-op"
        );
        w.finish().unwrap();
        all
    }

    #[test]
    fn roundtrip_is_exact_and_commit_order_free() {
        let dir = tmp("roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let n = 100;
        let all = write_store(&dir, n, 16);

        let store = ChunkStore::open(&dir).unwrap();
        assert_eq!(store.sites, n);
        assert_eq!(store.num_chunks(), 7);
        assert_eq!(store.chunk_rows(6), 4);
        let mut seen = 0;
        for c in 0..store.num_chunks() {
            let chunk = store.read_chunk(c).unwrap();
            for r in 0..chunk.rows {
                let obs = chunk.observation(r);
                assert_eq!(obs, all[chunk.lo + r], "site {}", chunk.lo + r);
                // Byte-level: same serialized form as the original.
                assert_eq!(
                    serde_json::to_string(&obs).unwrap(),
                    serde_json::to_string(&all[chunk.lo + r]).unwrap()
                );
                seen += 1;
            }
        }
        assert_eq!(seen, n);

        // Chunk bytes are a pure function of the rows: commit in site
        // order into a second store and compare files.
        let dir2 = tmp("roundtrip2");
        let _ = fs::remove_dir_all(&dir2);
        let mut w = ChunkStoreWriter::create(&dir2, "t-v1", n, 16).unwrap();
        for (i, obs) in all.iter().enumerate() {
            w.commit(i, obs).unwrap();
        }
        w.finish().unwrap();
        for c in 0..7 {
            assert_eq!(
                fs::read(dir.join(format!("chunk-{c:06}.col"))).unwrap(),
                fs::read(dir2.join(format!("chunk-{c:06}.col"))).unwrap(),
                "chunk {c} bytes differ by commit order"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn torn_chunk_detected_and_resume_heals() {
        let dir = tmp("torn");
        let _ = fs::remove_dir_all(&dir);
        let n = 40;
        let all = write_store(&dir, n, 16);

        // Tear the final chunk mid-write.
        let victim = dir.join("chunk-000002.col");
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 11]).unwrap();
        let store = ChunkStore::open(&dir).unwrap();
        assert!(matches!(store.chunk_state(0), ChunkState::Valid));
        assert!(matches!(store.chunk_state(2), ChunkState::Corrupt(_)));

        // Resume keeps the valid chunks and deletes the torn one…
        let mut w = ChunkStoreWriter::resume(&dir, "t-v1", n, 16).unwrap();
        assert!(w.chunk_written(0) && w.chunk_written(1) && !w.chunk_written(2));
        assert!(!victim.exists(), "torn chunk deleted for healing");
        assert!(w.site_durable(0) && !w.site_durable(33));
        // …and re-committing the tail heals it to identical bytes.
        for (i, obs) in all.iter().enumerate().skip(32) {
            w.commit(i, obs).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(
            fs::read(&victim).unwrap(),
            bytes,
            "healed chunk is byte-identical"
        );

        // A mismatched manifest refuses to resume.
        assert!(ChunkStoreWriter::resume(&dir, "other", n, 16).is_err());
        assert!(ChunkStoreWriter::resume(&dir, "t-v1", n + 1, 16).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    fn read_all(store: &ChunkStore) -> Vec<SiteObservation> {
        let mut out = Vec::new();
        for c in 0..store.num_chunks() {
            let chunk = store.read_chunk(c).unwrap();
            for r in 0..chunk.rows {
                out.push(chunk.observation(r));
            }
        }
        out
    }

    #[test]
    fn adopt_chunk_links_verified_bytes() {
        let dir = tmp("adopt-src");
        let dir2 = tmp("adopt-dst");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
        let n = 100;
        write_store(&dir, n, 16);
        let src = ChunkStore::open(&dir).unwrap();

        let mut w = ChunkStoreWriter::create(&dir2, "t-v1", n, 16).unwrap();
        for c in 0..src.num_chunks() {
            w.adopt_chunk(&src, c).unwrap();
            assert!(w.chunk_written(c));
            // Double adoption is an error, not silent corruption.
            assert!(w.adopt_chunk(&src, c).is_err());
        }
        w.finish().unwrap();
        for c in 0..src.num_chunks() {
            assert_eq!(
                fs::read(dir.join(format!("chunk-{c:06}.col"))).unwrap(),
                fs::read(dir2.join(format!("chunk-{c:06}.col"))).unwrap(),
                "adopted chunk {c} differs"
            );
        }

        // A geometry mismatch is refused before any bytes move.
        let dir3 = tmp("adopt-badgeo");
        let _ = fs::remove_dir_all(&dir3);
        let mut w = ChunkStoreWriter::create(&dir3, "t-v1", n, 32).unwrap();
        assert!(w.adopt_chunk(&src, 0).is_err());
        // A corrupt source chunk is caught by the read-back verification.
        let victim = dir.join("chunk-000001.col");
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();
        let mut w = ChunkStoreWriter::create(&dir3, "t-v1", n, 16).unwrap();
        assert!(w.adopt_chunk(&src, 1).is_err());
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
        fs::remove_dir_all(&dir3).unwrap();
    }

    /// A chunk header addresses sites with u32 `lo`/`rows`, so a manifest
    /// claiming one site more is damage, refused before anything is sized
    /// by it.
    #[test]
    fn manifest_over_u32_sites_is_refused() {
        let dir = tmp("huge-manifest");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        write_manifest(&dir, "t-v1", u32::MAX as usize, 4096).unwrap();
        assert_eq!(ChunkStore::open(&dir).unwrap().sites, u32::MAX as usize);
        write_manifest(&dir, "t-v1", u32::MAX as usize + 1, 4096).unwrap();
        let err = ChunkStore::open(&dir).err().expect("must be refused");
        assert!(
            err.to_string().contains("more than a chunk header"),
            "{err}"
        );
        assert!(ChunkStore::fsck(&dir, None, true).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A header claiming more strings than the file could hold, behind a
    /// valid checksum, must be refused without sizing an allocation by it.
    #[test]
    fn huge_string_count_is_rejected_without_allocating() {
        let mut body = CHUNK_MAGIC.to_vec();
        for v in [0u32, 0, 4, u32::MAX] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        let err = decode_chunk(&body, 0, 0, 4)
            .err()
            .expect("must be rejected");
        assert!(err.contains("truncated"), "{err}");
    }

    /// Per-row nameserver counts whose total overflows `u32` (possible
    /// once a chunk claims more than 65,537 rows) must be refused, not
    /// wrapped into offsets that run backwards.
    #[test]
    fn nameserver_total_overflow_is_rejected() {
        let rows = 65_538usize;
        let mut body = CHUNK_MAGIC.to_vec();
        for v in [0u32, 0, rows as u32, 1, 1] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        body.push(b'x'); // the one string
        body.resize(body.len() + 3 * rows * 4, 0); // domain, tld, language ids
        body.resize(body.len() + 6 * rows.div_ceil(8), 0); // empty hosting columns
        for _ in 0..rows {
            body.extend_from_slice(&u16::MAX.to_le_bytes());
        }
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        let err = decode_chunk(&body, 0, 0, rows)
            .err()
            .expect("must be rejected");
        assert!(err.contains("nameserver count overflows"), "{err}");
    }

    /// One corruption of a chunk body, applied before the checksum is
    /// recomputed so it reaches the parser. Offsets wrap modulo the body
    /// length.
    #[derive(Debug, Clone)]
    enum Mutation {
        Flip { at: usize, bit: u8 },
        Truncate { keep: usize },
        Count32 { at: usize, value: u32 },
        Count16 { at: usize, value: u16 },
    }

    impl Mutation {
        fn apply(&self, body: &mut Vec<u8>) {
            let len = body.len().max(1);
            let mut put = |at: usize, bytes: &[u8]| {
                for (i, &b) in bytes.iter().enumerate() {
                    if let Some(slot) = body.get_mut(at % len + i) {
                        *slot = b;
                    }
                }
            };
            match *self {
                Mutation::Flip { at, bit } => {
                    if let Some(b) = body.get_mut(at % len) {
                        *b ^= 1 << bit;
                    }
                }
                Mutation::Truncate { keep } => body.truncate(keep % len),
                Mutation::Count32 { at, value } => put(at, &value.to_le_bytes()),
                Mutation::Count16 { at, value } => put(at, &value.to_le_bytes()),
            }
        }
    }

    fn mutation() -> impl Strategy<Value = Mutation> {
        // Byte 20 is the string count and byte 24 the first string's
        // length; other count fields (per-row nameserver counts) are hit
        // at random offsets.
        let at = prop_oneof![Just(20usize), Just(24usize), any::<usize>()];
        let big = prop_oneof![Just(u32::MAX), Just(1u32 << 28), any::<u32>()];
        prop_oneof![
            (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip { at, bit }),
            any::<usize>().prop_map(|keep| Mutation::Truncate { keep }),
            (at, big).prop_map(|(at, value)| Mutation::Count32 { at, value }),
            (any::<usize>(), any::<u16>()).prop_map(|(at, value)| Mutation::Count16 { at, value }),
        ]
    }

    /// One damage to `manifest.json`. Offsets wrap modulo the length;
    /// digit edits pick the `nth` ASCII digit (modulo the digit count).
    #[derive(Debug, Clone)]
    enum ManifestEdit {
        Flip { at: usize, bit: u8 },
        Truncate { keep: usize },
        Digit { nth: usize, to: u8 },
        Grow { nth: usize, digit: u8 },
    }

    impl ManifestEdit {
        fn apply(&self, text: &mut Vec<u8>) {
            let digits: Vec<usize> = (0..text.len())
                .filter(|&i| text[i].is_ascii_digit())
                .collect();
            let pick = |nth: usize| digits.get(nth % digits.len().max(1)).copied();
            match *self {
                ManifestEdit::Flip { at, bit } => {
                    let len = text.len().max(1);
                    if let Some(b) = text.get_mut(at % len) {
                        *b ^= 1 << bit;
                    }
                }
                ManifestEdit::Truncate { keep } => text.truncate(keep % text.len().max(1)),
                ManifestEdit::Digit { nth, to } => {
                    if let Some(i) = pick(nth) {
                        text[i] = b'0' + to;
                    }
                }
                ManifestEdit::Grow { nth, digit } => {
                    if let Some(i) = pick(nth) {
                        text.insert(i, b'0' + digit);
                    }
                }
            }
        }
    }

    fn manifest_edit() -> impl Strategy<Value = ManifestEdit> {
        prop_oneof![
            (any::<usize>(), 0u8..8).prop_map(|(at, bit)| ManifestEdit::Flip { at, bit }),
            any::<usize>().prop_map(|keep| ManifestEdit::Truncate { keep }),
            (any::<usize>(), 0u8..10).prop_map(|(nth, to)| ManifestEdit::Digit { nth, to }),
            (any::<usize>(), 0u8..10).prop_map(|(nth, digit)| ManifestEdit::Grow { nth, digit }),
        ]
    }

    proptest! {
        /// `ChunkStore::open` is total on a damaged manifest: every
        /// truncation, byte flip and digit edit returns `Ok` or `Err`, and
        /// an accepted manifest describes chunks a header can address.
        #[test]
        fn open_never_panics(edits in prop::collection::vec(manifest_edit(), 1..6)) {
            let dir = tmp("open-edits");
            fs::create_dir_all(&dir).unwrap();
            write_manifest(&dir, "t-v1", 28_620, 4096).unwrap();
            let mut text = fs::read(manifest_path(&dir)).unwrap();
            for e in &edits {
                e.apply(&mut text);
            }
            fs::write(manifest_path(&dir), &text).unwrap();
            let opened = ChunkStore::open(&dir);
            fs::remove_dir_all(&dir).unwrap();
            if let Ok(store) = opened {
                prop_assert!(store.sites <= u32::MAX as usize);
                prop_assert!(store.chunk_sites > 0);
                if store.num_chunks() > 0 {
                    let _ = store.chunk_rows(store.num_chunks() - 1);
                }
            }
        }

        /// `decode_chunk` is total on corrupted chunks behind a valid
        /// checksum: every case returns `Ok` or `Err` without panicking,
        /// and no count read from the bytes sizes an allocation (a
        /// capacity of `u32::MAX` rows or strings would abort the test).
        /// A chunk that still decodes reconstructs every row.
        #[test]
        fn decode_chunk_never_panics(mutations in prop::collection::vec(mutation(), 1..4)) {
            let rows: Vec<SiteObservation> = (0..20).map(sample_obs).collect();
            let encoded = encode_chunk(0, 0, &rows);
            let mut body = encoded[..encoded.len() - 8].to_vec();
            for m in &mutations {
                m.apply(&mut body);
            }
            let sum = fnv1a(&body);
            body.extend_from_slice(&sum.to_le_bytes());
            if let Ok(chunk) = decode_chunk(&body, 0, 0, rows.len()) {
                for r in 0..chunk.rows {
                    let _ = chunk.observation(r);
                }
            }
        }
    }

    #[test]
    fn a_claimed_chunk_is_written_off_the_writer_and_refuses_late_commits() {
        let dir = tmp("claim");
        let _ = fs::remove_dir_all(&dir);
        let mut w = ChunkStoreWriter::create(&dir, "t-v1", 8, 4).unwrap();
        for i in 0..3 {
            assert!(matches!(w.insert(i, sample_obs(i)), (true, None)));
        }
        let (stored, claim) = w.insert(3, sample_obs(3));
        let claim = claim.expect("the last site claims its chunk");
        assert!(stored);
        // Claimed but not yet written: a late duplicate is refused, and the
        // chunk is not durable.
        assert!(matches!(w.insert(1, sample_obs(1)), (false, None)));
        assert!(!w.commit(2, &sample_obs(2)).unwrap());
        assert!(!w.chunk_written(0));
        w.record(claim.write()).unwrap();
        assert!(w.chunk_written(0));

        // The second chunk's write fails: the error surfaces, the chunk
        // stays claimed and the store cannot finish.
        for i in 4..7 {
            w.commit_owned(i, sample_obs(i)).unwrap();
        }
        let (_, claim) = w.insert(7, sample_obs(7));
        let failed = io::Error::other("disk full");
        assert!(w.record(Err(failed)).is_err());
        drop(claim);
        assert!(!w.chunk_written(1));
        let err = w.finish().unwrap_err();
        assert!(
            err.to_string().contains("claimed but never written"),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_rejects_incomplete_store() {
        let dir = tmp("incomplete");
        let _ = fs::remove_dir_all(&dir);
        let mut w = ChunkStoreWriter::create(&dir, "t-v1", 10, 4).unwrap();
        w.commit(0, &sample_obs(0)).unwrap();
        assert!(w.finish().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_manifest_recovers_on_resume() {
        let dir = tmp("torn-manifest");
        let _ = fs::remove_dir_all(&dir);
        let n = 40;
        let all = write_store(&dir, n, 16);
        let mpath = dir.join("manifest.json");
        let mbytes = fs::read(&mpath).unwrap();

        // Truncate the manifest mid-byte — the torn-write artifact the
        // atomic replacement protects against, planted by hand.
        fs::write(&mpath, &mbytes[..mbytes.len() / 2]).unwrap();
        assert!(ChunkStore::open(&dir).is_err());

        // Resume rewrites the manifest in place from the run metadata and
        // keeps every surviving chunk — no re-measurement needed.
        let w = ChunkStoreWriter::resume(&dir, "t-v1", n, 16).unwrap();
        assert!((0..3).all(|c| w.chunk_written(c)), "valid chunks kept");
        w.finish().unwrap();
        assert_eq!(
            fs::read(&mpath).unwrap(),
            mbytes,
            "healed manifest is byte-identical"
        );
        assert_eq!(read_all(&ChunkStore::open(&dir).unwrap()), all);

        // With the manifest torn there is nothing trustworthy to compare
        // against, so the caller's run metadata is authoritative — the
        // same trust `create` extends. A *valid* manifest for a different
        // run still refuses (covered in torn_chunk_detected_and_resume_heals).
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_quarantines_and_heals_byte_identically() {
        let dir = tmp("fsck");
        let _ = fs::remove_dir_all(&dir);
        let n = 72;
        let all = write_store(&dir, n, 16);
        let jpath = dir.join("journal.ndjson");
        let mut jw = crate::journal::JournalWriter::create(&jpath, "t-v1", n).unwrap();
        for (i, obs) in all.iter().enumerate() {
            jw.append(i, obs).unwrap();
        }
        jw.sync().unwrap();
        let orig2 = fs::read(dir.join("chunk-000002.col")).unwrap();
        let orig4 = fs::read(dir.join("chunk-000004.col")).unwrap();

        // Garble one chunk mid-file, delete another outright.
        let mut garbled = orig2.clone();
        garbled[40] ^= 0xFF;
        fs::write(dir.join("chunk-000002.col"), &garbled).unwrap();
        fs::remove_file(dir.join("chunk-000004.col")).unwrap();

        // Report-only pass: finds both, changes nothing.
        let report = ChunkStore::fsck(&dir, None, false).unwrap();
        assert!(!report.clean() && !report.intact());
        assert_eq!(report.valid, 3);
        assert_eq!(report.missing, vec![4]);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].0, 2);
        assert_eq!((report.quarantined, report.healed), (0, 0));
        assert_eq!(
            fs::read(dir.join("chunk-000002.col")).unwrap(),
            garbled,
            "report-only fsck must not touch the store"
        );

        // Repair: the corrupt file moves to quarantine for post-mortem and
        // both chunks are re-encoded from the journal, byte-identically.
        let report = ChunkStore::fsck(&dir, Some(&jpath), true).unwrap();
        assert!(report.intact() && !report.clean());
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.healed, 2);
        assert!(report.unhealed.is_empty());
        assert_eq!(fs::read(dir.join("chunk-000002.col")).unwrap(), orig2);
        assert_eq!(fs::read(dir.join("chunk-000004.col")).unwrap(), orig4);
        assert_eq!(
            fs::read(dir.join("quarantine/chunk-000002.col")).unwrap(),
            garbled
        );
        assert_eq!(read_all(&ChunkStore::open(&dir).unwrap()), all);
        let clean = ChunkStore::fsck(&dir, None, false).unwrap();
        assert!(clean.clean());
        assert!(clean.to_value()["intact"] == Value::Bool(true));

        // Without a journal a missing chunk is reported unhealed — fsck
        // never invents data.
        fs::remove_file(dir.join("chunk-000000.col")).unwrap();
        let report = ChunkStore::fsck(&dir, None, true).unwrap();
        assert!(!report.intact());
        assert_eq!(report.unhealed, vec![0]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
