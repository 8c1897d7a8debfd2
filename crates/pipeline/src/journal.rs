//! The run journal: an append-only checkpoint of completed site
//! observations, and the loader that makes crash-resume possible.
//!
//! Binary and little-endian, with every record in the chunk store's own
//! codec ([`crate::store`]):
//!
//! ```text
//! header  magic "WDJOURNL" · version u32 (3) · sites u32 · label len u32 · label UTF-8
//! record  site u32 · len u32 · check u32 · one-row chunk (len bytes)
//! ```
//!
//! A record's body is `encode_chunk(0, site, &[obs])`: its XXH64 checksum
//! covers the observation and its header repeats the site index, so a
//! record is decoded and verified by the store's own total decoder.
//! `check` is the low 32 bits of XXH64 over `site · len`, so a damaged
//! length is told apart from a frame a crash cut short.
//! Records are appended in completion order (worker-interleaved, *not*
//! site order) — the loader scatters them back by index. The writer
//! buffers and fsyncs every [`FSYNC_BATCH`] records, so a crash loses at
//! most one batch of durability plus possibly a torn final record; the
//! loader tolerates exactly that (a short or checksum-failing *last* frame
//! is dropped; the same damage earlier in the file, or a frame prefix that
//! fails its check anywhere, is an error).
//!
//! A journal only ever sits next to a chunk store: because per-site
//! measurement is deterministic (see the determinism contract in
//! [`crate::run`]), its records re-encode torn or missing chunks to the
//! bytes the uninterrupted run wrote.

use crate::dataset::SiteObservation;
use crate::store::{decode_chunk, encode_chunk, xxh64};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Journal file magic.
pub const MAGIC: [u8; 8] = *b"WDJOURNL";
/// Journal format version. Version 1 was JSONL and version 2 sealed its
/// records with FNV-1a; neither is read.
pub const VERSION: u32 = 3;
/// Records between explicit flush+fsync batches.
pub const FSYNC_BATCH: usize = 64;

/// Bytes before the label: magic, version, sites, label length.
const HEADER_FIXED: usize = 20;
/// Bytes of a record's `site` + `len` + `check` prefix.
const FRAME_PREFIX: usize = 12;

/// Buffered, fsync-batched appender for the run journal.
///
/// Writes are buffered in userspace and pushed to stable storage every
/// [`FSYNC_BATCH`] records (and on [`JournalWriter::sync`] / drop),
/// trading at most one batch of durability for not paying an fsync per
/// site.
pub struct JournalWriter {
    out: BufWriter<File>,
    pending: usize,
}

fn write_header(out: &mut impl Write, label: &str, sites: usize) -> io::Result<()> {
    let sites = u32::try_from(sites).map_err(|_| bad(format!("{sites} sites overflow u32")))?;
    out.write_all(&MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&sites.to_le_bytes())?;
    out.write_all(&(label.len() as u32).to_le_bytes())?;
    out.write_all(label.as_bytes())
}

/// A record's prefix: `site`, `len` and the check sealing the two.
fn frame_prefix(site: u32, len: u32) -> [u8; FRAME_PREFIX] {
    let mut p = [0u8; FRAME_PREFIX];
    p[..4].copy_from_slice(&site.to_le_bytes());
    p[4..8].copy_from_slice(&len.to_le_bytes());
    let check = xxh64(&p[..8]) as u32;
    p[8..].copy_from_slice(&check.to_le_bytes());
    p
}

fn write_record(out: &mut impl Write, site: usize, obs: &SiteObservation) -> io::Result<()> {
    let chunk = encode_chunk(0, site, std::slice::from_ref(obs));
    out.write_all(&frame_prefix(site as u32, chunk.len() as u32))?;
    out.write_all(&chunk)
}

/// Where [`JournalWriter::append_loaded`] keeps a journal it rewrites:
/// the journal's path with `.torn` appended.
pub fn torn_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".torn");
    PathBuf::from(name)
}

impl JournalWriter {
    /// Creates (truncating) a journal for a run over `sites` sites of the
    /// world labeled `label`, writing and syncing the header immediately.
    pub fn create(path: &Path, label: &str, sites: usize) -> io::Result<Self> {
        let mut out = BufWriter::new(File::create(path)?);
        write_header(&mut out, label, sites)?;
        out.flush()?;
        out.get_ref().sync_data()?;
        Ok(JournalWriter { out, pending: 0 })
    }

    /// Opens a loaded journal for appending (resume). A torn final record
    /// (crash artifact) is healed first by rewriting the recovered
    /// records — appending directly after a torn frame would leave it in
    /// the middle of the file, where it is corruption. The torn original
    /// is kept at [`torn_path`] for post-mortem, never overwritten in place.
    pub fn append_loaded(path: &Path, loaded: &Journal) -> io::Result<Self> {
        if loaded.torn_tail {
            std::fs::rename(path, torn_path(path))?;
            let mut w = Self::create(path, &loaded.label, loaded.sites)?;
            for (i, obs) in &loaded.records {
                w.append(*i, obs)?;
            }
            w.sync()?;
            return Ok(w);
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter {
            out: BufWriter::new(file),
            pending: 0,
        })
    }

    /// Appends one completed record; flushes and fsyncs every
    /// [`FSYNC_BATCH`] records.
    pub fn append(&mut self, site: usize, obs: &SiteObservation) -> io::Result<()> {
        write_record(&mut self.out, site, obs)?;
        self.pending += 1;
        if self.pending >= FSYNC_BATCH {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes buffered records and fsyncs file data.
    pub fn sync(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        // Telemetry at batch granularity: one fsync event plus however
        // many records it made durable (never per-record atomics).
        let m = crate::metrics::metrics();
        m.journal_fsyncs.inc();
        m.journal_records.add(self.pending as u64);
        self.pending = 0;
        Ok(())
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        // Best-effort final durability; errors here have no channel.
        let _ = self.sync();
    }
}

/// A loaded journal: header metadata plus the recovered records.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// World snapshot label from the header.
    pub label: String,
    /// Site count from the header.
    pub sites: usize,
    /// Recovered `(site_index, observation)` records, deduplicated
    /// keep-first, in file order.
    pub records: Vec<(usize, SiteObservation)>,
    /// Whether the final record was torn (short or checksum-failing) and
    /// dropped.
    pub torn_tail: bool,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Loads and validates a journal.
///
/// Tolerates exactly the crash artifact the writer can produce: a torn
/// *final* record — cut short, or with a checksum-failing body — which is
/// dropped. The same damage earlier in the file, a frame prefix that fails
/// its check (wherever it sits), a bad header, or an out-of-bounds site
/// index is corruption and fails the load. Duplicate site records
/// (possible when a requeued batch re-measures a site a dead worker had
/// already journaled) keep the first occurrence. No length read from the
/// file sizes an allocation.
pub fn load(path: &Path) -> io::Result<Journal> {
    parse(&std::fs::read(path)?).map_err(bad)
}

/// [`load`], refusing a journal written for a different run than
/// `label` over `sites` sites.
pub fn load_for(path: &Path, label: &str, sites: usize) -> io::Result<Journal> {
    let j = load(path)?;
    if j.label != label || j.sites != sites {
        return Err(bad(format!(
            "journal is for '{}' ({} sites), not '{}' ({} sites)",
            j.label, j.sites, label, sites
        )));
    }
    Ok(j)
}

fn u32_le(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn u32_at(bytes: &[u8], at: usize) -> Option<usize> {
    Some(u32_le(bytes.get(at..at.checked_add(4)?)?) as usize)
}

fn parse(bytes: &[u8]) -> Result<Journal, String> {
    if bytes.get(..MAGIC.len()) != Some(&MAGIC[..]) {
        let hint = if bytes.first() == Some(&b'{') {
            " (a version 1 JSONL journal, which is no longer read)"
        } else {
            ""
        };
        return Err(format!("not a run journal{hint}"));
    }
    let field = |at| u32_at(bytes, at).ok_or("journal header truncated");
    let version = field(8)?;
    if version != VERSION as usize {
        return Err(format!(
            "unsupported journal version {version} (this build reads version {VERSION})"
        ));
    }
    let sites = field(12)?;
    let label_end = HEADER_FIXED + field(16)?;
    let label = bytes
        .get(HEADER_FIXED..label_end)
        .ok_or("journal header truncated")?;
    let label = std::str::from_utf8(label)
        .map_err(|e| format!("journal label is not UTF-8: {e}"))?
        .to_string();

    let mut records = Vec::new();
    let mut seen = HashSet::new();
    let mut torn_tail = false;
    let mut pos = label_end;
    while pos < bytes.len() {
        // A prefix cut short can only be the last frame's, cut by a crash
        // mid-append.
        let Some(prefix) = bytes.get(pos..pos + FRAME_PREFIX) else {
            torn_tail = true;
            break;
        };
        let (site, len) = (u32_le(&prefix[..4]), u32_le(&prefix[4..8]));
        if prefix != frame_prefix(site, len) {
            return Err(format!("corrupt journal frame prefix at byte {pos}"));
        }
        let (site, len) = (site as usize, len as usize);
        if site >= sites {
            return Err(format!(
                "journal record at byte {pos}: site index {site} out of bounds (< {sites})"
            ));
        }
        // A sealed length that runs past the end of the file is the last
        // frame, cut short.
        let body_at = pos + FRAME_PREFIX;
        let Some(body) = bytes.get(body_at..body_at.saturating_add(len)) else {
            torn_tail = true;
            break;
        };
        let next = body_at + len;
        match decode_chunk(body, 0, site, 1) {
            Ok(chunk) => {
                if seen.insert(site) {
                    records.push((site, chunk.observation(0)));
                }
            }
            Err(_) if next == bytes.len() => torn_tail = true,
            Err(e) => return Err(format!("corrupt journal record at byte {pos}: {e}")),
        }
        pos = next;
    }
    Ok(Journal {
        label,
        sites,
        records,
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{FailureCause, LayerError};
    use proptest::prelude::*;
    use std::fs;
    use std::net::Ipv4Addr;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("webdep-journal-{name}-{}", std::process::id()))
    }

    fn sample_obs(i: usize) -> SiteObservation {
        let mut o = SiteObservation::blank(&format!("site{i}.example.com"), "en");
        o.hosting_ip = Some(Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8));
        o.hosting_asn = Some(64512 + i as u32);
        o.hosting_org = Some(7);
        o.hosting_org_country = Some("US".into());
        o.hosting_anycast = i.is_multiple_of(2);
        o.ns_names = vec![format!("ns1.host{i}.net"), format!("ns2.host{i}.net")];
        if i.is_multiple_of(3) {
            o.dns_error = Some(LayerError::new(
                FailureCause::Timeout,
                "NS: query timed out",
            ));
        }
        o.derive_error_summary();
        o
    }

    /// A journal over `sites` sites holding `order`'s records, plus the
    /// byte offset of each record's frame.
    fn journal_bytes(sites: usize, order: &[usize]) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = Vec::new();
        write_header(&mut bytes, "t-v1", sites).unwrap();
        let mut frames = Vec::new();
        for &i in order {
            frames.push(bytes.len());
            write_record(&mut bytes, i, &sample_obs(i)).unwrap();
        }
        (bytes, frames)
    }

    #[test]
    fn roundtrip_is_exact() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path, "tiny-v1", 10).unwrap();
        let original: Vec<SiteObservation> = (0..10).map(sample_obs).collect();
        // Append out of site order, as workers do.
        for &i in &[3usize, 0, 7, 1, 9, 2] {
            w.append(i, &original[i]).unwrap();
        }
        drop(w);

        let j = load(&path).unwrap();
        assert_eq!(j.label, "tiny-v1");
        assert_eq!(j.sites, 10);
        assert!(!j.torn_tail);
        assert_eq!(j.records.len(), 6);
        for (i, obs) in &j.records {
            assert_eq!(obs, &original[*i], "site {i} must roundtrip exactly");
            // Byte-level: the record re-encodes to the original chunk bytes.
            assert_eq!(
                encode_chunk(0, *i, std::slice::from_ref(obs)),
                encode_chunk(0, *i, &original[*i..=*i])
            );
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_but_middle_corruption_fails() {
        let (bytes, frames) = journal_bytes(4, &[0, 1, 2]);

        // A crash mid-append: the final frame is cut short, in its body or
        // in its prefix.
        for cut in [bytes.len() - 40, frames[2] + 5] {
            let j = parse(&bytes[..cut]).unwrap();
            assert!(j.torn_tail);
            assert_eq!(j.records.len(), 2, "torn final record is dropped");
        }
        // A whole final frame whose checksum fails is torn too.
        let mut garbled = bytes.clone();
        *garbled.last_mut().unwrap() ^= 1;
        let j = parse(&garbled).unwrap();
        assert!(j.torn_tail);
        assert_eq!(j.records.len(), 2);

        // The same damage mid-file is corruption, not a torn tail.
        let mut garbled = bytes.clone();
        garbled[frames[2] - 1] ^= 1;
        let err = parse(&garbled).unwrap_err();
        assert!(err.contains("corrupt journal record"), "{err}");

        // A damaged length would make a middle frame look cut short and
        // drop every record after it; the prefix check refuses it instead,
        // in any frame.
        for frame in frames {
            let mut garbled = bytes.clone();
            garbled[frame + 4 + 3] ^= 0x40;
            let err = parse(&garbled).unwrap_err();
            assert_eq!(err, format!("corrupt journal frame prefix at byte {frame}"));
        }
    }

    #[test]
    fn header_validation() {
        let (bytes, _) = journal_bytes(5, &[]);
        let j = parse(&bytes).unwrap();
        assert_eq!((j.label.as_str(), j.sites), ("t-v1", 5));
        assert!(j.records.is_empty() && !j.torn_tail);

        // `load_for` refuses a journal written for another world or size.
        let path = tmp("header");
        drop(JournalWriter::create(&path, "world-a", 5).unwrap());
        assert!(load_for(&path, "world-a", 5).is_ok());
        for (label, sites) in [("world-b", 5), ("world-a", 6)] {
            let err = load_for(&path, label, sites).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("not '"), "{err}");
        }
        fs::remove_file(&path).unwrap();

        let v1 = b"{\"magic\":\"webdep-run-journal\",\"version\":1,\"label\":\"x\",\"sites\":1}\n";
        let err = parse(v1).unwrap_err();
        assert!(err.starts_with("not a run journal"), "{err}");
        assert!(parse(b"").unwrap_err().starts_with("not a run journal"));

        // The FNV-1a-sealed version 2 and an unknown version 4 alike.
        for version in [2u8, 4] {
            let mut other = bytes.clone();
            other[8] = version;
            assert_eq!(
                parse(&other).unwrap_err(),
                format!("unsupported journal version {version} (this build reads version 3)")
            );
        }
        assert!(parse(&bytes[..bytes.len() - 1]).is_err(), "torn header");
    }

    #[test]
    fn duplicates_keep_first_and_bounds_are_checked() {
        let path = tmp("dups");
        let mut w = JournalWriter::create(&path, "t", 3).unwrap();
        let first = sample_obs(1);
        let mut second = first.clone();
        second.hosting_asn = Some(99);
        w.append(1, &first).unwrap();
        w.append(1, &second).unwrap();
        drop(w);
        let j = load(&path).unwrap();
        assert_eq!(j.records.len(), 1);
        assert_eq!(j.records[0].1.hosting_asn, first.hosting_asn);
        assert_eq!(j.records[0].0, 1);

        // An out-of-bounds site index is corruption, wherever it sits.
        let (bytes, _) = journal_bytes(3, &[0, 7, 1]);
        let err = parse(&bytes).unwrap_err();
        assert!(err.contains("site index 7 out of bounds"), "{err}");
        fs::remove_file(&path).unwrap();
    }

    /// Overwrites frame `at`'s `site` and `len`, resealing the check.
    fn reseal(bytes: &mut [u8], at: usize, site: u32, len: u32) {
        bytes[at..at + FRAME_PREFIX].copy_from_slice(&frame_prefix(site, len));
    }

    /// A frame declaring `len = u32::MAX` is refused and sizes nothing:
    /// unsealed it is corruption; sealed it runs past the end of any file,
    /// which only a crash cut can produce, so it is a torn tail.
    #[test]
    fn huge_record_length_is_refused_without_allocating() {
        let (bytes, frames) = journal_bytes(4, &[0, 1, 2]);
        let mut raw = bytes.clone();
        raw[frames[0] + 4..frames[0] + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = parse(&raw).unwrap_err();
        assert!(err.starts_with("corrupt journal frame prefix"), "{err}");

        let mut sealed = bytes.clone();
        reseal(&mut sealed, frames[2], 2, u32::MAX);
        let j = parse(&sealed).unwrap();
        assert!(j.torn_tail);
        assert_eq!(j.records.len(), 2);
    }

    /// One corruption of a valid journal. Offsets wrap modulo the file
    /// length; frame indices modulo the frame count; `Sites` overwrites
    /// the header's site count.
    #[derive(Debug, Clone)]
    enum Mutation {
        Flip {
            at: usize,
            bit: u8,
        },
        Truncate {
            keep: usize,
        },
        Len {
            frame: usize,
            value: u32,
            seal: bool,
        },
        Site {
            frame: usize,
            value: u32,
            seal: bool,
        },
        Sites {
            value: u32,
        },
    }

    fn mutation() -> impl Strategy<Value = Mutation> {
        let big = prop_oneof![Just(u32::MAX), Just(1u32 << 28), 0u32..400, any::<u32>()];
        prop_oneof![
            (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip { at, bit }),
            any::<usize>().prop_map(|keep| Mutation::Truncate { keep }),
            (any::<usize>(), big, any::<bool>()).prop_map(|(frame, value, seal)| Mutation::Len {
                frame,
                value,
                seal
            }),
            (
                any::<usize>(),
                prop_oneof![0u32..24, any::<u32>()],
                any::<bool>()
            )
                .prop_map(|(frame, value, seal)| Mutation::Site { frame, value, seal }),
            (0u32..24).prop_map(|value| Mutation::Sites { value }),
        ]
    }

    proptest! {
        /// `load` is total: byte flips, truncations and overwritten
        /// `len`/`site` fields (resealed or not) all come back `Ok` or
        /// `Err` without a panic
        /// or a length-sized allocation, and whatever still loads holds
        /// only in-bounds records that round-trip exactly.
        #[test]
        fn journal_load_never_panics(mutations in prop::collection::vec(mutation(), 1..4)) {
            let sites = 20;
            let order = [5usize, 0, 19, 3, 3, 12, 7, 1];
            let (mut bytes, frames) = journal_bytes(sites, &order);
            for m in &mutations {
                let len = bytes.len().max(1);
                // Overwrites the u32 at `at`; with `seal`, `at` is a frame
                // and its check is recomputed over the new prefix.
                let mut put = |at: usize, field: usize, value: u32, seal: bool| {
                    let span = if seal { FRAME_PREFIX } else { field + 4 };
                    let Some(prefix) = bytes.get_mut(at..at + span) else {
                        return;
                    };
                    prefix[field..field + 4].copy_from_slice(&value.to_le_bytes());
                    if seal {
                        let (site, len) = (u32_le(&prefix[..4]), u32_le(&prefix[4..8]));
                        prefix.copy_from_slice(&frame_prefix(site, len));
                    }
                };
                match *m {
                    Mutation::Flip { at, bit } => {
                        if let Some(b) = bytes.get_mut(at % len) {
                            *b ^= 1 << bit;
                        }
                    }
                    Mutation::Truncate { keep } => bytes.truncate(keep % len),
                    Mutation::Len { frame, value, seal } => {
                        put(frames[frame % frames.len()], 4, value, seal)
                    }
                    Mutation::Site { frame, value, seal } => {
                        put(frames[frame % frames.len()], 0, value, seal)
                    }
                    Mutation::Sites { value } => put(12, 0, value, false),
                }
            }
            if let Ok(j) = parse(&bytes) {
                for (site, obs) in &j.records {
                    prop_assert!(*site < j.sites);
                    prop_assert_eq!(obs, &sample_obs(*site));
                }
            }
        }
    }
}
