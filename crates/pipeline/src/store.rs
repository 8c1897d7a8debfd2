//! The chunked, columnar on-disk dataset: `MeasuredDataset` without the
//! resident `Vec<SiteObservation>`.
//!
//! A store is a directory of layers — base chunks, then patches:
//!
//! ```text
//! store/
//!   manifest.json        {"magic":"webdep-chunk-store","version":3,
//!                         "label":…,"sites":N,"chunk_sites":K}
//!   chunk-000000.col     sites [0, K)
//!   chunk-000001.col     sites [K, 2K)
//!   …                    (final chunk holds the remainder)
//!   patch-000000.col     newer rows for some sites, oldest patch first
//!   …
//! ```
//!
//! The base chunks hold one row per site. A patch holds newer rows for
//! the sites it lists, and the newest layer holding a site wins: a
//! continuous epoch ([`crate::delta`]) carries the previous epoch's
//! chunks and patches by hard link, re-encodes only the short tail chunk
//! the appended sites grow, and writes the sites it migrated in place as
//! one new patch. A store without patches — every `measure_streamed`
//! store, and every store after [`ChunkStore::compact`] — has the
//! version-3 manifest above, byte for byte. A store with patches has
//! version 4 (so a reader that knows only version 3 refuses it) and lists
//! them in order, `"patches":[{"rows":R,"below":B},…]`: patch `p` is the
//! file `patch-{p:06}.col`, its `R` rows are sites strictly below `B`
//! (the site count of the store it patched). [`ChunkStore::layers`] is
//! the walk over that layout: base chunks in site order, then patches
//! oldest first, and the snapshot fold and `fsck` read through it.
//! [`ChunkStore::load_dataset`] reads the same layers with the base
//! chunks split into contiguous ranges decoded across cores, then the
//! patches applied in order on the calling thread, which gives the walk's
//! rows and the walk's first error. Only this module knows file names.
//!
//! Each layer file is self-contained and columnar (little-endian):
//!
//! ```text
//! magic "WDCHUNK2" · chunk_index u32 · lo u32 · rows u32
//!   (a patch: magic "WDPATCH2" · patch_index u32 · below u32 · rows u32,
//!    then its site column: rows × u32, strictly increasing, each < below)
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
//! checksum u64 (XXH64, seed 0, over everything above)
//! ```
//!
//! Versions 1 and 2 (magics `WDCHUNK1`/`WDPATCH1`) closed each layer
//! with a byte-at-a-time FNV-1a; [`ChunkStore::open`] refuses them by
//! version. XXH64 reads the layer a 64-bit word at a time in four
//! independent lanes, so verifying a layer — which every epoch does for
//! every layer it carries — costs about a fifteenth of what FNV-1a did.
//!
//! Strings are interned **per chunk**, in row order — site order, not
//! commit order — so the encoded bytes are a pure function of the chunk's
//! observations. Combined with the pipeline's determinism contract, the
//! whole store is byte-identical across worker counts and crash-resume
//! (tested in `crates/pipeline/tests/determinism.rs` and
//! `crates/pipeline/tests/supervision.rs`).
//!
//! The writer takes a site as a borrowed row (`SiteRow`): a worker's
//! strings borrow from the world's site, the resolver's shared NS set and
//! the geo and AS-to-org records, a re-committed row's from its decoded
//! layer, and [`ChunkStoreWriter::commit`] borrows an observation's. A
//! layer that is filling keeps one fixed row per slot, its strings copied
//! into the layer's one arena as (offset, length) spans and its TLD
//! lowercased on the way, so a committed site owns no allocation and no
//! per-site observation is built, buffered or dropped. The encoding
//! interns the arena's strings in slot order, which is the order and the
//! content the observation encoder interned, so the bytes did not change
//! (pinned by a test over the rows `SiteObservation::blank` normalizes).
//!
//! A chunk file is written and fsynced once, after its last site commits:
//! that commit *claims* the chunk (`ChunkStoreWriter::insert` hands back
//! a `ClaimedChunk`), the claimant encodes and writes it — outside any
//! lock the writer sits behind — and `ChunkStoreWriter::record` marks it
//! durable. A late duplicate commit to a claimed chunk is refused, and
//! [`ChunkStoreWriter::finish`] fails on a claim that was never recorded.
//! The checksum turns a torn write into [`ChunkState::Corrupt`]; resume
//! ([`ChunkStoreWriter::resume`]) moves such a chunk to `quarantine/`, as
//! `fsck --repair` does, and the run re-measures its sites into the same
//! bytes.
//! The writer holds only *partial* chunks in memory (bounded by the
//! scheduler's batch spread), which is what makes million-site runs
//! memory-bounded end to end. A partial chunk of 4,096 sites holds 196
//! bytes of fixed row per slot from its first commit (0.8 MB) and its
//! arena, about 73 bytes per committed site on the `small` world.

use crate::dataset::{tld_label, FailureCause, LayerError, MeasuredDataset, SiteObservation};
use serde_json::Value;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::Ipv4Addr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use webdep_dns::DomainName;
use webdep_netsim::{KeyedMap, KeyedState};

/// Manifest magic string.
pub const STORE_MAGIC: &str = "webdep-chunk-store";
/// Format version of a store without patches.
pub const STORE_VERSION: u64 = 3;
/// Format version of a store with patches.
pub const PATCHED_STORE_VERSION: u64 = 4;
/// Sites per chunk unless the caller chooses otherwise: small enough that
/// partial chunks stay cheap, large enough that a million-site store is a
/// few hundred files.
pub const DEFAULT_CHUNK_SITES: usize = 4096;
/// Upper bound on the threads [`ChunkStore::load_dataset`] decodes base
/// chunks on, as `stats::par::default_threads` caps the analysis.
const MAX_LOAD_THREADS: usize = 8;
/// Chunk file magic.
const CHUNK_MAGIC: [u8; 8] = *b"WDCHUNK2";
/// Patch file magic.
const PATCH_MAGIC: [u8; 8] = *b"WDPATCH2";

/// One patch as the manifest lists it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PatchMeta {
    /// Rows (sites) in the patch.
    rows: usize,
    /// Every site of the patch lies below this: the site count of the
    /// store the patch was written over.
    below: usize,
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// Writes the manifest atomically: temp file, data fsync, rename over the
/// live name, directory fsync. A crash at any point leaves either the old
/// complete manifest or the new one — never a torn file that takes the
/// whole store down with it. Without patches it is the version-3
/// manifest, byte for byte.
fn write_manifest(
    dir: &Path,
    label: &str,
    sites: usize,
    chunk_sites: usize,
    patches: &[PatchMeta],
) -> io::Result<()> {
    let version = match patches {
        [] => STORE_VERSION,
        _ => PATCHED_STORE_VERSION,
    };
    let mut fields = vec![
        ("magic".into(), Value::String(STORE_MAGIC.into())),
        ("version".into(), Value::U64(version)),
        ("label".into(), Value::String(label.into())),
        ("sites".into(), Value::U64(sites as u64)),
        ("chunk_sites".into(), Value::U64(chunk_sites as u64)),
    ];
    if !patches.is_empty() {
        let list = patches
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("rows".into(), Value::U64(p.rows as u64)),
                    ("below".into(), Value::U64(p.below as u64)),
                ])
            })
            .collect();
        fields.push(("patches".into(), Value::Array(list)));
    }
    write_atomically(
        &dir.join("manifest.json.tmp"),
        &manifest_path(dir),
        format!("{}\n", Value::Object(fields)).as_bytes(),
    )?;
    File::open(dir)?.sync_all()
}

/// Writes `bytes` to `tmp`, fsyncs it and renames it over `path`. Layer
/// files are hard-linked between epochs, so none is ever rewritten in
/// place: the rename gives `path` a new inode and leaves the old one to
/// the stores that share it.
fn write_atomically(tmp: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    std::fs::rename(tmp, path)
}

/// Whether the on-disk manifest is unparseable (torn write or external
/// damage) as opposed to merely describing a different store.
fn manifest_is_torn(dir: &Path) -> io::Result<bool> {
    let bytes = std::fs::read(manifest_path(dir))?;
    let text = String::from_utf8_lossy(&bytes);
    Ok(serde_json::from_str::<Value>(text.trim()).is_err())
}

/// A layer file of a store, by kind and index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LayerId {
    Chunk(usize),
    Patch(usize),
}

impl LayerId {
    fn file_name(self) -> String {
        match self {
            LayerId::Chunk(c) => format!("chunk-{c:06}.col"),
            LayerId::Patch(p) => format!("patch-{p:06}.col"),
        }
    }

    /// The layer a file name spells, if it is exactly the name
    /// [`LayerId::file_name`] gives that layer.
    fn of_file_name(name: &str) -> Option<Self> {
        let (kind, rest): (fn(usize) -> Self, _) = match name.strip_prefix("chunk-") {
            Some(rest) => (LayerId::Chunk, rest),
            None => (LayerId::Patch, name.strip_prefix("patch-")?),
        };
        let digits = rest.strip_suffix(".col")?;
        let i: usize = digits.parse().ok()?;
        (format!("{i:06}") == digits).then_some(kind(i))
    }

    fn path(self, dir: &Path) -> PathBuf {
        dir.join(self.file_name())
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// XXH64's five primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// XXH64 (seed 0) over a byte slice — the layer integrity
/// checksum. It consumes 32-byte stripes as four independent 64-bit
/// lanes, so it runs at word speed rather than a multiply per byte. Each
/// round rotates its lane before multiplying, so a word's top bit
/// reaches the whole lane; under a word-wise FNV multiplication carries
/// nothing downward, and two flips of bit 63 in one lane cancel.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le64(word));
            }
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            h = (h ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le64(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = rest;
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
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
struct Strings<'a> {
    ids: KeyedMap<&'a str, u32>,
    table: Vec<&'a str>,
}

impl<'a> Strings<'a> {
    /// A table sized once for `rows`, so the map does not rehash while a
    /// chunk is interned. A row's domain is its own; the other strings it
    /// names (TLD, language, NS names, countries, error details) are
    /// mostly shared with the chunk's other rows, so room for half as many
    /// again covers them: a 4,096-row chunk of the `small` world holds
    /// 4,540 to 4,826 distinct strings. Sizing for every string a row
    /// names (about ten) would hold an eight times larger map per chunk.
    fn for_rows(rows: usize) -> Self {
        let capacity = rows + rows / 2 + 64;
        Strings {
            ids: KeyedMap::with_capacity_and_hasher(capacity, KeyedState::default()),
            table: Vec::with_capacity(capacity),
        }
    }

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

/// What a layer file's header binds it to.
pub(crate) enum Frame {
    /// Base chunk `index`, whose rows are sites `lo..lo + rows`.
    Chunk { index: usize, lo: usize },
    /// Patch `index`, whose rows are `sites` (strictly increasing, each
    /// below `below`).
    Patch {
        index: usize,
        below: usize,
        sites: Vec<u32>,
    },
}

// ---------------------------------------------------------------------------
// Rows

/// What the address databases say about a measured address (the serving
/// IP or the first nameserver's): its AS, the AS's organization and that
/// organization's country, the address's own country, and whether it is
/// anycast. `S` is a string as a [`SiteRow`] borrows it or as a [`Row`]
/// spans it.
#[derive(Default)]
pub(crate) struct Located<S> {
    pub(crate) ip: Option<Ipv4Addr>,
    pub(crate) asn: Option<u32>,
    pub(crate) org: Option<u32>,
    pub(crate) org_country: Option<S>,
    pub(crate) ip_country: Option<S>,
    pub(crate) anycast: bool,
}

/// A failed layer of a [`SiteRow`]: its cause and detail. The detail is
/// borrowed, or owned where a failure formats it (rare).
pub(crate) type Failure<'a> = (FailureCause, Cow<'a, str>);

/// Where a [`SiteRow`]'s nameserver names are read from.
pub(crate) enum NsNames<'a> {
    /// The resolver's NS set, shared by the provider's sites.
    Shared(Arc<[DomainName]>),
    /// An observation's names.
    Listed(&'a [String]),
    /// A decoded layer's string ids.
    Decoded(&'a DecodedChunk, &'a [u32]),
}

impl NsNames<'_> {
    fn for_each(&self, mut f: impl FnMut(&str)) {
        match self {
            NsNames::Shared(names) => names.iter().for_each(|n| f(n.as_str())),
            NsNames::Listed(names) => names.iter().for_each(|n| f(n)),
            NsNames::Decoded(layer, ids) => ids.iter().for_each(|&id| f(layer.str_of(id))),
        }
    }
}

/// A [`SiteRow`]'s error summary.
pub(crate) enum Summary<'a> {
    /// The first failure in pipeline order that is not `Skipped`, as
    /// [`SiteObservation::derive_error_summary`] finds it.
    Derived,
    /// As recorded (an observation's or a decoded row's).
    Given(Option<&'a str>),
}

/// One site's row as it is committed, its strings borrowed from wherever
/// they already are: a worker's from the world's site, the resolver's NS
/// set and the geo and AS-to-org records; a re-committed row's from its
/// decoded layer; an observation's from the observation. Building one
/// allocates nothing but the detail of a failure that formats its own.
/// [`ChunkStoreWriter`] copies the strings into the row's layer.
pub(crate) struct SiteRow<'a> {
    pub(crate) domain: &'a str,
    /// The TLD label as written; the store keeps it lowercased.
    pub(crate) tld: &'a str,
    pub(crate) language: &'a str,
    pub(crate) hosting: Located<&'a str>,
    pub(crate) ns_names: NsNames<'a>,
    pub(crate) dns: Located<&'a str>,
    pub(crate) ca_owner: Option<u32>,
    pub(crate) ca_owner_country: Option<&'a str>,
    pub(crate) hosting_error: Option<Failure<'a>>,
    pub(crate) dns_error: Option<Failure<'a>>,
    pub(crate) ca_error: Option<Failure<'a>>,
    pub(crate) error: Summary<'a>,
}

impl<'a> SiteRow<'a> {
    /// The row of a site not yet measured, as [`SiteObservation::blank`].
    pub(crate) fn blank(domain: &'a str, language: &'a str) -> Self {
        SiteRow {
            domain,
            tld: tld_label(domain),
            language,
            hosting: Located::default(),
            ns_names: NsNames::Listed(&[]),
            dns: Located::default(),
            ca_owner: None,
            ca_owner_country: None,
            hosting_error: None,
            dns_error: None,
            ca_error: None,
            error: Summary::Derived,
        }
    }

    /// The row of a site lost to the measurement infrastructure, as
    /// [`SiteObservation::internal_failure`].
    pub(crate) fn internal_failure(domain: &'a str, language: &'a str, detail: &'a str) -> Self {
        let failed = || Some((FailureCause::Internal, Cow::Borrowed(detail)));
        SiteRow {
            hosting_error: failed(),
            dns_error: failed(),
            ca_error: failed(),
            ..Self::blank(domain, language)
        }
    }

    /// `obs` as a row, borrowing its strings.
    pub(crate) fn of(obs: &'a SiteObservation) -> Self {
        let failure = |e: &'a Option<LayerError>| {
            e.as_ref()
                .map(|e| (e.cause, Cow::Borrowed(e.detail.as_str())))
        };
        SiteRow {
            domain: &obs.domain,
            tld: &obs.tld,
            language: &obs.language,
            hosting: Located {
                ip: obs.hosting_ip,
                asn: obs.hosting_asn,
                org: obs.hosting_org,
                org_country: obs.hosting_org_country.as_deref(),
                ip_country: obs.hosting_ip_country.as_deref(),
                anycast: obs.hosting_anycast,
            },
            ns_names: NsNames::Listed(&obs.ns_names),
            dns: Located {
                ip: obs.dns_ip,
                asn: obs.dns_asn,
                org: obs.dns_org,
                org_country: obs.dns_org_country.as_deref(),
                ip_country: obs.dns_ip_country.as_deref(),
                anycast: obs.dns_anycast,
            },
            ca_owner: obs.ca_owner,
            ca_owner_country: obs.ca_owner_country.as_deref(),
            hosting_error: failure(&obs.hosting_error),
            dns_error: failure(&obs.dns_error),
            ca_error: failure(&obs.ca_error),
            error: Summary::Given(obs.error.as_deref()),
        }
    }
}

/// A string of a [`Row`]: where it lies in its layer's [`Arena`].
#[derive(Clone, Copy, Default)]
struct Span {
    off: u32,
    len: u32,
}

impl Span {
    /// The span in an arena its own arena was copied into at `base`.
    fn at(self, base: u32) -> Span {
        Span {
            off: self.off + base,
            ..self
        }
    }
}

/// A count or offset within one layer as a [`Row`] keeps it.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("a layer's strings fit in 4 GiB")
}

/// A layer's strings, back to back.
#[derive(Default)]
struct Arena(String);

impl Arena {
    fn copy(&mut self, s: &str) -> Span {
        let off = self.0.len();
        self.0.push_str(s);
        self.span_from(off)
    }

    /// Copies `s` with its ASCII letters lowercased.
    fn copy_lowercase(&mut self, s: &str) -> Span {
        let off = self.0.len();
        self.0.extend(s.chars().map(|c| c.to_ascii_lowercase()));
        self.span_from(off)
    }

    fn span_from(&self, off: usize) -> Span {
        Span {
            off: narrow(off),
            len: narrow(self.0.len() - off),
        }
    }

    fn copy_located(&mut self, l: &Located<&str>) -> Located<Span> {
        Located {
            ip: l.ip,
            asn: l.asn,
            org: l.org,
            org_country: l.org_country.map(|s| self.copy(s)),
            ip_country: l.ip_country.map(|s| self.copy(s)),
            anycast: l.anycast,
        }
    }

    fn copy_failure(&mut self, e: &Option<Failure>) -> Option<(FailureCause, Span)> {
        e.as_ref()
            .map(|(cause, detail)| (*cause, self.copy(detail)))
    }

    fn str(&self, s: Span) -> &str {
        &self.0[s.off as usize..(s.off + s.len) as usize]
    }
}

/// One committed row of a layer ([`Rows`]): the fixed fields, and every
/// string as a [`Span`] into the layer's arena.
#[derive(Default)]
struct Row {
    domain: Span,
    tld: Span,
    language: Span,
    hosting: Located<Span>,
    /// The row's nameserver names: `Rows::ns[ns.start..ns.end]`.
    ns: Range<u32>,
    dns: Located<Span>,
    ca_owner: Option<u32>,
    ca_owner_country: Option<Span>,
    hosting_error: Option<(FailureCause, Span)>,
    dns_error: Option<(FailureCause, Span)>,
    ca_error: Option<(FailureCause, Span)>,
    error: Option<Span>,
}

/// Arena bytes reserved per row when a layer's first site commits: a
/// `small` world's rows hold 73 on average (the domain, the nameserver
/// names and the country codes), so a chunk's arena rarely grows.
const ARENA_BYTES_PER_ROW: usize = 80;

/// A layer's rows while its sites commit, in any order: one fixed [`Row`]
/// per slot and all their strings in one arena, so a committed site holds
/// no allocation of its own. The encoding reads the rows in slot order, so
/// a layer's bytes do not depend on the order its sites committed in.
#[derive(Default)]
struct Rows {
    /// By slot; sized when the first site commits.
    rows: Vec<Option<Row>>,
    filled: usize,
    arena: Arena,
    /// The nameserver names of every committed row, each row's together.
    ns: Vec<Span>,
}

/// A row staged for a layer: its fixed fields, and its strings copied into
/// an arena of its own, lowercasing the TLD on the way. Staging happens
/// off the store's lock; committing a staged row into its layer
/// ([`Rows::put`]) is then one copy of those bytes and the slot's
/// bookkeeping. A worker keeps one and stages each site's row into it.
#[derive(Default)]
pub(crate) struct StagedRow {
    row: Row,
    arena: Arena,
    ns: Vec<Span>,
}

impl StagedRow {
    /// Stages `row`, replacing the row staged before.
    pub(crate) fn stage(&mut self, row: &SiteRow) -> &Self {
        self.arena.0.clear();
        self.ns.clear();
        let a = &mut self.arena;
        row.ns_names.for_each(|name| self.ns.push(a.copy(name)));
        let hosting_error = a.copy_failure(&row.hosting_error);
        let dns_error = a.copy_failure(&row.dns_error);
        let ca_error = a.copy_failure(&row.ca_error);
        let error = match row.error {
            // The summary is a detail already copied.
            Summary::Derived => [hosting_error, dns_error, ca_error]
                .into_iter()
                .flatten()
                .find(|&(cause, _)| cause != FailureCause::Skipped)
                .map(|(_, detail)| detail),
            Summary::Given(error) => error.map(|s| a.copy(s)),
        };
        self.row = Row {
            domain: a.copy(row.domain),
            tld: a.copy_lowercase(row.tld),
            language: a.copy(row.language),
            hosting: a.copy_located(&row.hosting),
            ns: 0..narrow(self.ns.len()),
            dns: a.copy_located(&row.dns),
            ca_owner: row.ca_owner,
            ca_owner_country: row.ca_owner_country.map(|s| a.copy(s)),
            hosting_error,
            dns_error,
            ca_error,
            error,
        };
        self
    }
}

impl Rows {
    /// Stores the staged row as slot `slot` of a layer of `len` rows,
    /// appending its strings to the layer's arena in one copy. Returns
    /// whether it did: `false` when the slot is taken.
    fn put(&mut self, slot: usize, len: usize, staged: &StagedRow) -> bool {
        if self.rows.is_empty() {
            self.rows.resize_with(len, || None);
            self.arena.0.reserve(len * ARENA_BYTES_PER_ROW);
        }
        if self.rows[slot].is_some() {
            return false;
        }
        let base = narrow(self.arena.0.len());
        self.arena.0.push_str(&staged.arena.0);
        let ns_start = narrow(self.ns.len());
        self.ns.extend(staged.ns.iter().map(|s| s.at(base)));
        let r = &staged.row;
        let located = |l: &Located<Span>| Located {
            ip: l.ip,
            asn: l.asn,
            org: l.org,
            org_country: l.org_country.map(|s| s.at(base)),
            ip_country: l.ip_country.map(|s| s.at(base)),
            anycast: l.anycast,
        };
        let failure = |e: Option<(FailureCause, Span)>| e.map(|(cause, s)| (cause, s.at(base)));
        self.rows[slot] = Some(Row {
            domain: r.domain.at(base),
            tld: r.tld.at(base),
            language: r.language.at(base),
            hosting: located(&r.hosting),
            ns: r.ns.start + ns_start..r.ns.end + ns_start,
            dns: located(&r.dns),
            ca_owner: r.ca_owner,
            ca_owner_country: r.ca_owner_country.map(|s| s.at(base)),
            hosting_error: failure(r.hosting_error),
            dns_error: failure(r.dns_error),
            ca_error: failure(r.ca_error),
            error: r.error.map(|s| s.at(base)),
        });
        self.filled += 1;
        true
    }

    /// Encodes the complete layer to the file bytes of `frame`.
    fn encode(&self, frame: &Frame) -> Vec<u8> {
        assert_eq!(self.filled, self.rows.len(), "an incomplete layer");
        let rows = || self.rows.iter().flatten();
        let text = |s: Span| self.arena.str(s);
        // Intern every string in row order, so ids are independent of the
        // order in which sites committed, and note each field's id on the way.
        let mut strings = Strings::for_rows(self.rows.len());
        let mut ids = vec![ABSENT; self.rows.len() * STR_FIELDS];
        let mut ns_ids = Vec::with_capacity(self.ns.len());
        let detail = |e: Option<(FailureCause, Span)>| e.map(|(_, d)| text(d));
        for (row, id) in rows().zip(ids.chunks_exact_mut(STR_FIELDS)) {
            id[DOMAIN] = strings.intern(text(row.domain));
            id[TLD] = strings.intern(text(row.tld));
            id[LANGUAGE] = strings.intern(text(row.language));
            id[HOSTING_ORG_COUNTRY] = strings.intern_opt(row.hosting.org_country.map(text));
            id[HOSTING_IP_COUNTRY] = strings.intern_opt(row.hosting.ip_country.map(text));
            let names = &self.ns[row.ns.start as usize..row.ns.end as usize];
            ns_ids.extend(names.iter().map(|&n| strings.intern(text(n))));
            id[DNS_ORG_COUNTRY] = strings.intern_opt(row.dns.org_country.map(text));
            id[DNS_IP_COUNTRY] = strings.intern_opt(row.dns.ip_country.map(text));
            id[CA_OWNER_COUNTRY] = strings.intern_opt(row.ca_owner_country.map(text));
            id[HOSTING_ERROR] = strings.intern_opt(detail(row.hosting_error));
            id[DNS_ERROR] = strings.intern_opt(detail(row.dns_error));
            id[CA_ERROR] = strings.intern_opt(detail(row.ca_error));
            id[ERROR] = strings.intern_opt(row.error.map(text));
        }
        let column = |field: usize| ids.iter().skip(field).step_by(STR_FIELDS).copied();

        let mut e = Enc { buf: Vec::new() };
        let (magic, index, at, sites) = match frame {
            Frame::Chunk { index, lo } => (CHUNK_MAGIC, index, lo, &[][..]),
            Frame::Patch {
                index,
                below,
                sites,
            } => (PATCH_MAGIC, index, below, &sites[..]),
        };
        e.buf.extend_from_slice(&magic);
        e.u32(*index as u32);
        e.u32(*at as u32);
        e.u32(self.rows.len() as u32);
        for &site in sites {
            e.u32(site);
        }
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

        // Option<u32> columns: presence bitmap, then one value per present
        // row.
        let u32_col = |e: &mut Enc, value: &dyn Fn(&Row) -> Option<u32>| {
            e.bitmap(rows().map(|r| value(r).is_some()));
            for v in rows().filter_map(value) {
                e.u32(v);
            }
        };
        let str_col = |e: &mut Enc, field: usize| {
            e.bitmap(column(field).map(|id| id != ABSENT));
            for id in column(field).filter(|&id| id != ABSENT) {
                e.u32(id);
            }
        };
        let located_cols = |e: &mut Enc, at: fn(&Row) -> &Located<Span>, countries: [usize; 2]| {
            u32_col(e, &|r| at(r).ip.map(u32::from));
            u32_col(e, &|r| at(r).asn);
            u32_col(e, &|r| at(r).org);
            str_col(e, countries[0]);
            str_col(e, countries[1]);
            e.bitmap(rows().map(|r| at(r).anycast));
        };
        let err_col = |e: &mut Enc, field: usize, err: fn(&Row) -> Option<(FailureCause, Span)>| {
            e.bitmap(rows().map(|r| err(r).is_some()));
            for (row, id) in rows().zip(column(field)) {
                if let Some((cause, _)) = err(row) {
                    e.u8(cause_index(cause));
                    e.u32(id);
                }
            }
        };

        located_cols(
            &mut e,
            |r| &r.hosting,
            [HOSTING_ORG_COUNTRY, HOSTING_IP_COUNTRY],
        );

        for row in rows() {
            e.u16((row.ns.end - row.ns.start) as u16);
        }
        for &id in &ns_ids {
            e.u32(id);
        }

        located_cols(&mut e, |r| &r.dns, [DNS_ORG_COUNTRY, DNS_IP_COUNTRY]);

        u32_col(&mut e, &|r| r.ca_owner);
        str_col(&mut e, CA_OWNER_COUNTRY);

        err_col(&mut e, HOSTING_ERROR, |r| r.hosting_error);
        err_col(&mut e, DNS_ERROR, |r| r.dns_error);
        err_col(&mut e, CA_ERROR, |r| r.ca_error);
        str_col(&mut e, ERROR);

        let sum = xxh64(&e.buf);
        e.u64(sum);
        e.buf
    }
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

/// One decoded layer — a base chunk or a patch: columnar access plus
/// per-row observation reconstruction. Row `r` is site
/// [`DecodedChunk::site`]`(r)`. String-valued columns hold ids into
/// [`DecodedChunk::str_of`].
pub struct DecodedChunk {
    /// First site a base chunk covers (its rows are `lo..lo + rows`).
    lo: usize,
    /// A patch's site column (empty for a base chunk).
    sites: Vec<u32>,
    /// Rows in the layer.
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
    /// The site row `r` holds.
    pub fn site(&self, r: usize) -> usize {
        match self.sites.get(r) {
            Some(&site) => site as usize,
            None => self.lo + r,
        }
    }

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

    /// Row `r` as a [`SiteRow`] borrowing this layer's strings, to be
    /// committed again without building an observation.
    pub(crate) fn row(&self, r: usize) -> SiteRow<'_> {
        let s = |id: u32| self.str_of(id);
        let failure =
            |e: Option<(FailureCause, u32)>| e.map(|(cause, d)| (cause, Cow::Borrowed(s(d))));
        SiteRow {
            domain: s(self.domain[r]),
            tld: s(self.tld[r]),
            language: s(self.language[r]),
            hosting: Located {
                ip: self.hosting_ip[r],
                asn: self.hosting_asn[r],
                org: self.hosting_org[r],
                org_country: self.hosting_org_country[r].map(s),
                ip_country: self.hosting_ip_country[r].map(s),
                anycast: self.hosting_anycast[r],
            },
            ns_names: NsNames::Decoded(
                self,
                &self.ns_ids[self.ns_off[r] as usize..self.ns_off[r + 1] as usize],
            ),
            dns: Located {
                ip: self.dns_ip[r],
                asn: self.dns_asn[r],
                org: self.dns_org[r],
                org_country: self.dns_org_country[r].map(s),
                ip_country: self.dns_ip_country[r].map(s),
                anycast: self.dns_anycast[r],
            },
            ca_owner: self.ca_owner[r],
            ca_owner_country: self.ca_owner_country[r].map(s),
            hosting_error: failure(self.hosting_error[r]),
            dns_error: failure(self.dns_error[r]),
            ca_error: failure(self.ca_error[r]),
            error: Summary::Given(self.error[r].map(s)),
        }
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

/// What a layer file's header must say: its magic, index, `lo` (a chunk)
/// or `below` (a patch), and row count.
#[derive(Clone, Copy)]
struct Expect {
    magic: [u8; 8],
    index: usize,
    at: usize,
    rows: usize,
}

impl Expect {
    fn chunk(index: usize, lo: usize, rows: usize) -> Self {
        Expect {
            magic: CHUNK_MAGIC,
            index,
            at: lo,
            rows,
        }
    }

    fn patch(index: usize, meta: PatchMeta) -> Self {
        Expect {
            magic: PATCH_MAGIC,
            index,
            at: meta.below,
            rows: meta.rows,
        }
    }

    fn is_patch(&self) -> bool {
        self.magic == PATCH_MAGIC
    }
}

/// Verifies a layer file's checksum and header — what carrying a file
/// into the next epoch checks, without decoding a column — and returns
/// the decoder positioned after the header.
fn verify_frame(bytes: &[u8], want: Expect) -> Result<Dec<'_>, String> {
    let kind = if want.is_patch() { "patch" } else { "chunk" };
    if bytes.len() < want.magic.len() + 8 {
        return Err(format!("{kind} too short"));
    }
    // The magic first, so a layer of another format version is named as
    // such rather than reported as a checksum mismatch.
    let magic = &bytes[..8];
    if magic != want.magic {
        return Err(match magic[7] {
            v @ b'0'..=b'9' if magic[..7] == want.magic[..7] => format!(
                "{kind} format version {} is not read (this build reads {})",
                v as char, want.magic[7] as char
            ),
            _ => format!("bad {kind} magic"),
        });
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    if xxh64(body) != sum {
        return Err(format!("{kind} checksum mismatch"));
    }
    let mut d = Dec { buf: body, pos: 8 };
    let index = d.u32()? as usize;
    let at = d.u32()? as usize;
    let rows = d.u32()? as usize;
    if (index, at, rows) != (want.index, want.at, want.rows) {
        let at_name = if want.is_patch() { "below" } else { "lo" };
        return Err(format!(
            "{kind} header (index {index}, {at_name} {at}, rows {rows}) does not match \
             manifest (index {}, {at_name} {}, rows {})",
            want.index, want.at, want.rows
        ));
    }
    Ok(d)
}

fn decode_layer(bytes: &[u8], want: Expect) -> Result<DecodedChunk, String> {
    let mut d = verify_frame(bytes, want)?;
    let body = d.buf;
    let rows = want.rows;
    let lo = if want.is_patch() { 0 } else { want.at };
    let mut sites = Vec::new();
    if want.is_patch() {
        // `rows` is the manifest's, so the column's 4 bytes a row bound it.
        sites.reserve(rows.min(d.remaining() / 4));
        for _ in 0..rows {
            let site = d.u32()?;
            if site as usize >= want.at || sites.last().is_some_and(|&last| last >= site) {
                return Err(format!(
                    "patch site {site} is out of order or not below {}",
                    want.at
                ));
            }
            sites.push(site);
        }
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
        sites,
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

/// Where one layer of a [`ChunkStoreWriter`] stands.
enum Progress {
    /// Sites are still arriving; the rows hold the committed ones.
    Filling(Rows),
    /// Its last site committed and a [`ClaimedChunk`] left with the rows;
    /// the file is not durable until [`ChunkStoreWriter::record`] says so.
    Claimed,
    /// On disk and fsynced (or carried and verified).
    Written,
}

impl Progress {
    fn empty() -> Self {
        Progress::Filling(Rows::default())
    }
}

/// The patch a [`ChunkStoreWriter::carry`] writer fills: the sites the
/// epoch migrated in place.
struct PatchSlot {
    index: usize,
    below: usize,
    sites: Vec<u32>,
    progress: Progress,
}

/// A complete layer claimed by the commit of its last site. Encoding,
/// writing and fsyncing it needs no access to the writer, so a caller
/// that shares the writer behind a lock does it outside that lock and
/// hands the outcome back to [`ChunkStoreWriter::record`].
#[must_use = "a claimed chunk is durable only once written and recorded"]
pub(crate) struct ClaimedChunk {
    path: PathBuf,
    frame: Frame,
    rows: Rows,
}

/// A layer file [`ClaimedChunk::write`] made durable.
pub(crate) struct WrittenChunk {
    layer: LayerId,
    bytes: u64,
}

impl ClaimedChunk {
    /// Encodes the layer, writes its file and fsyncs it.
    pub(crate) fn write(self) -> io::Result<WrittenChunk> {
        let bytes = self.rows.encode(&self.frame);
        let mut f = File::create(&self.path)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
        let layer = match self.frame {
            Frame::Chunk { index, .. } => LayerId::Chunk(index),
            Frame::Patch { index, .. } => LayerId::Patch(index),
        };
        Ok(WrittenChunk {
            layer,
            bytes: bytes.len() as u64,
        })
    }
}

/// Streaming chunk-store writer: sites commit in any order; the commit of
/// a layer's last site claims the layer, which is then encoded, written
/// and fsynced.
pub struct ChunkStoreWriter {
    dir: PathBuf,
    sites: usize,
    chunk_sites: usize,
    chunks: Vec<Progress>,
    patch: Option<PatchSlot>,
    bytes_written: u64,
    /// Where [`ChunkStoreWriter::commit_row`] stages a row.
    staged: StagedRow,
}

/// What [`ChunkStoreWriter::carry`] took over from the previous epoch.
pub(crate) struct Carried {
    /// Base chunks hard-linked unchanged.
    pub(crate) chunks: usize,
    /// Rows of the previous short tail chunk, decoded and committed again.
    pub(crate) tail_rows: usize,
}

impl ChunkStoreWriter {
    /// Creates (or resets) a store directory for a run over `sites` sites,
    /// writing and syncing the manifest and deleting any stale chunk and
    /// patch files.
    pub fn create(dir: &Path, label: &str, sites: usize, chunk_sites: usize) -> io::Result<Self> {
        Self::create_with(dir, label, sites, chunk_sites, &[])
    }

    /// [`ChunkStoreWriter::create`] with a manifest listing `patches`.
    fn create_with(
        dir: &Path,
        label: &str,
        sites: usize,
        chunk_sites: usize,
        patches: &[PatchMeta],
    ) -> io::Result<Self> {
        assert!(chunk_sites > 0, "chunk_sites must be positive");
        std::fs::create_dir_all(dir)?;
        // Stale layers from a previous run must not masquerade as data.
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if (name.starts_with("chunk-") || name.starts_with("patch-")) && name.ends_with(".col")
            {
                std::fs::remove_file(entry.path())?;
            }
        }
        write_manifest(dir, label, sites, chunk_sites, patches)?;
        Ok(Self::with_written(
            dir,
            sites,
            chunk_sites,
            vec![false; sites.div_ceil(chunk_sites)],
        ))
    }

    /// A writer whose chunks are on disk where `written` says so; the
    /// others start empty (their rows are allocated by the first commit).
    fn with_written(dir: &Path, sites: usize, chunk_sites: usize, written: Vec<bool>) -> Self {
        let chunks = written
            .into_iter()
            .map(|done| match done {
                true => Progress::Written,
                false => Progress::empty(),
            })
            .collect();
        ChunkStoreWriter {
            dir: dir.to_path_buf(),
            sites,
            chunk_sites,
            chunks,
            patch: None,
            bytes_written: 0,
            staged: StagedRow::default(),
        }
    }

    /// Opens the next epoch's store at `dir` over the previous epoch's
    /// store `prev`: a world of `sites` sites (site tables only grow)
    /// whose sites `migrated` (strictly increasing, each below
    /// `prev.sites`) changed in place.
    ///
    /// Every base chunk the growth leaves at its row count, and every
    /// patch, is hard-linked (copy fallback) and checked by header and
    /// checksum, not decoded. The previous short tail chunk, which the
    /// appended sites grow, has its rows decoded and committed again —
    /// including the old rows of migrated sites, which stay superseded.
    /// `migrated` become the store's newest patch, which commits fill
    /// like a chunk. What is left to commit is exactly the appended sites
    /// and `migrated`.
    pub(crate) fn carry(
        prev: &ChunkStore,
        dir: &Path,
        label: &str,
        sites: usize,
        migrated: &[u32],
    ) -> io::Result<(Self, Carried)> {
        if sites < prev.sites {
            return Err(bad(format!(
                "site tables never shrink ({} -> {sites} sites)",
                prev.sites
            )));
        }
        if migrated.windows(2).any(|w| w[0] >= w[1])
            || migrated.last().is_some_and(|&s| s as usize >= prev.sites)
        {
            return Err(bad(format!(
                "migrated sites must be strictly increasing and below {}",
                prev.sites
            )));
        }
        if std::fs::canonicalize(dir).ok() == Some(std::fs::canonicalize(&prev.dir)?) {
            return Err(bad("an epoch cannot be carried into its own store"));
        }
        let mut patches = prev.patches.clone();
        if !migrated.is_empty() {
            patches.push(PatchMeta {
                rows: migrated.len(),
                below: prev.sites,
            });
        }
        let k = prev.chunk_sites;
        let mut w = Self::create_with(dir, label, sites, k, &patches)?;
        let mut carried = Carried {
            chunks: 0,
            tail_rows: 0,
        };
        // Every carried layer is read back through this one buffer.
        let mut buf = Vec::new();
        for c in 0..prev.num_chunks() {
            let rows = prev.chunk_rows(c);
            if rows == w.chunk_rows(c) {
                w.link(prev, LayerId::Chunk(c), &mut buf)?;
                carried.chunks += 1;
                continue;
            }
            let chunk = prev.read_chunk(c)?;
            let mut staged = StagedRow::default();
            for r in 0..rows {
                let row = staged.stage(&chunk.row(r));
                if let (_, Some(claim)) = w.fill(LayerId::Chunk(c), r, row) {
                    w.record(claim.write())?;
                }
            }
            carried.tail_rows += rows;
        }
        for p in 0..prev.patches.len() {
            w.link(prev, LayerId::Patch(p), &mut buf)?;
        }
        if !migrated.is_empty() {
            w.patch = Some(PatchSlot {
                index: prev.patches.len(),
                below: prev.sites,
                sites: migrated.to_vec(),
                progress: Progress::empty(),
            });
        }
        Ok((w, carried))
    }

    /// Hard-links (copy fallback) one layer file of `prev` into this
    /// store and checks its header and checksum against `prev`'s
    /// manifest, reading it into `buf`. A corrupt or missing file fails
    /// the carry.
    fn link(&mut self, prev: &ChunkStore, layer: LayerId, buf: &mut Vec<u8>) -> io::Result<()> {
        let (from, to) = (layer.path(&prev.dir), layer.path(&self.dir));
        if std::fs::hard_link(&from, &to).is_err() {
            std::fs::copy(&from, &to)?;
        }
        buf.clear();
        File::open(&to)?.read_to_end(buf)?;
        verify_frame(buf, prev.expect(layer)?).map_err(|e| bad(format!("carried {layer}: {e}")))?;
        self.bytes_written += buf.len() as u64;
        if let LayerId::Chunk(c) = layer {
            self.chunks[c] = Progress::Written;
        }
        Ok(())
    }

    /// Reopens an existing store for resume: the manifest must match, valid
    /// chunk files are kept (their sites need no re-measurement), and
    /// corrupt ones — the torn-write crash artifact, or damage since — are
    /// moved to `quarantine/` as [`ChunkStore::fsck`] moves them under
    /// repair, so their sites are measured again. Falls back to
    /// [`Self::create`] when no manifest exists (a crash before the store
    /// was set up), and rewrites an unparseable manifest in place from the
    /// caller's run metadata — crucially *not* via [`Self::create`], which
    /// would wipe the surviving chunk files the resume is here to keep. A
    /// store with patches is an epoch's, not a run's, and is refused.
    pub fn resume(dir: &Path, label: &str, sites: usize, chunk_sites: usize) -> io::Result<Self> {
        if !manifest_path(dir).exists() {
            return Self::create(dir, label, sites, chunk_sites);
        }
        let store = match ChunkStore::open(dir) {
            Ok(store) => store,
            Err(e) => {
                if manifest_is_torn(dir)? {
                    write_manifest(dir, label, sites, chunk_sites, &[])?;
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
        if !store.patches.is_empty() {
            return Err(bad(
                "store carries patches: a run resumes only an unpatched store",
            ));
        }
        let chunks = store.num_chunks();
        let mut written = vec![false; chunks];
        for (c, w) in written.iter_mut().enumerate() {
            *w = matches!(store.check(LayerId::Chunk(c), true)?, ChunkState::Valid);
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

    /// The patch slot `site` commits to, if the epoch migrated it.
    fn patch_slot(&self, site: usize) -> Option<(LayerId, usize)> {
        let p = self.patch.as_ref()?;
        let slot = p.sites.binary_search(&u32::try_from(site).ok()?).ok()?;
        Some((LayerId::Patch(p.index), slot))
    }

    fn progress(&mut self, layer: LayerId) -> (&mut Progress, usize) {
        match layer {
            LayerId::Chunk(c) => {
                let rows = self.chunk_rows(c);
                (&mut self.chunks[c], rows)
            }
            LayerId::Patch(_) => {
                let p = self.patch.as_mut().expect("the writer has a patch");
                (&mut p.progress, p.sites.len())
            }
        }
    }

    /// Whether a chunk has been durably written.
    pub fn chunk_written(&self, chunk: usize) -> bool {
        matches!(self.chunks[chunk], Progress::Written)
    }

    /// Whether a site's row has been durably written.
    pub fn site_durable(&self, site: usize) -> bool {
        match (self.patch_slot(site), &self.patch) {
            (Some(_), Some(p)) => matches!(p.progress, Progress::Written),
            _ => self.chunk_written(self.chunk_of(site)),
        }
    }

    /// Total layer-file bytes written (or carried) by this writer.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Commits one observation. Returns `Ok(false)` when the site was
    /// already committed (or its chunk already claimed or on disk) —
    /// idempotent, like the collector's first-write-wins rule. Flushes the
    /// chunk when it completes.
    pub fn commit(&mut self, site: usize, obs: &SiteObservation) -> io::Result<bool> {
        self.commit_row(site, &SiteRow::of(obs))
    }

    /// [`ChunkStoreWriter::commit`] for a borrowed row.
    pub(crate) fn commit_row(&mut self, site: usize, row: &SiteRow) -> io::Result<bool> {
        let mut staged = std::mem::take(&mut self.staged);
        let (committed, claimed) = self.insert(site, staged.stage(row));
        self.staged = staged;
        if let Some(chunk) = claimed {
            self.record(chunk.write())?;
        }
        Ok(committed)
    }

    /// Stores one row without writing anything. Returns whether it was
    /// stored — `false` for a site already committed or a layer already
    /// claimed or on disk — and, when it completed its layer, the claim on
    /// that layer, which the caller writes and [`ChunkStoreWriter::record`]s.
    /// A site the epoch migrated goes to the patch; every other site to its
    /// base chunk.
    pub(crate) fn insert(&mut self, site: usize, row: &StagedRow) -> (bool, Option<ClaimedChunk>) {
        assert!(site < self.sites, "site {site} out of range");
        let (layer, slot) = self.patch_slot(site).unwrap_or_else(|| {
            let c = self.chunk_of(site);
            (LayerId::Chunk(c), site - self.chunk_lo(c))
        });
        self.fill(layer, slot, row)
    }

    /// Stores `row` as row `slot` of `layer` (see [`Self::insert`]).
    fn fill(
        &mut self,
        layer: LayerId,
        slot: usize,
        row: &StagedRow,
    ) -> (bool, Option<ClaimedChunk>) {
        let (progress, n_rows) = self.progress(layer);
        let Progress::Filling(rows) = progress else {
            return (false, None);
        };
        if !rows.put(slot, n_rows, row) {
            return (false, None);
        }
        if rows.filled < n_rows {
            return (true, None);
        }
        let rows = std::mem::take(rows);
        *progress = Progress::Claimed;
        let frame = match layer {
            LayerId::Chunk(index) => Frame::Chunk {
                index,
                lo: self.chunk_lo(index),
            },
            LayerId::Patch(index) => {
                let p = self.patch.as_ref().expect("the writer has a patch");
                Frame::Patch {
                    index,
                    below: p.below,
                    sites: p.sites.clone(),
                }
            }
        };
        let claimed = ClaimedChunk {
            path: layer.path(&self.dir),
            frame,
            rows,
        };
        (true, Some(claimed))
    }

    /// Records the outcome of writing a claimed layer. A failed write
    /// leaves the layer claimed, so [`ChunkStoreWriter::finish`] refuses
    /// the store.
    pub(crate) fn record(&mut self, written: io::Result<WrittenChunk>) -> io::Result<()> {
        let written = written?;
        let (progress, _) = self.progress(written.layer);
        assert!(
            matches!(progress, Progress::Claimed),
            "{} recorded without a claim",
            written.layer
        );
        *progress = Progress::Written;
        self.bytes_written += written.bytes;
        Ok(())
    }

    /// Finalizes the store: every layer must be on disk (an incomplete
    /// one means sites went unmeasured, and a claimed one that its write
    /// never reached or failed — errors, not shrugs), then the directory
    /// entry list is fsynced.
    pub fn finish(mut self) -> io::Result<()> {
        let patch = self.patch.as_ref().map(|p| LayerId::Patch(p.index));
        let layers = (0..self.chunks.len()).map(LayerId::Chunk).chain(patch);
        for layer in layers.collect::<Vec<_>>() {
            let why = match self.progress(layer) {
                (Progress::Written, _) => continue,
                (Progress::Claimed, _) => "claimed but never written".to_string(),
                (Progress::Filling(filling), rows) => {
                    let filled = filling.filled;
                    format!("never finished ({filled} of {rows} sites committed)")
                }
            };
            return Err(bad(format!("store incomplete: {layer} {why}")));
        }
        // Make the directory entries themselves durable.
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader

impl std::fmt::Display for LayerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayerId::Chunk(c) => write!(f, "chunk {c}"),
            LayerId::Patch(p) => write!(f, "patch {p}"),
        }
    }
}

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

/// What [`ChunkStore::fsck`] found of a store's patch layers (all zero and
/// empty for a store without patches).
#[derive(Debug, Default)]
pub struct PatchFsck {
    /// Patches the manifest lists.
    pub count: usize,
    /// Patches present and clean.
    pub valid: usize,
    /// Runs of patch indices whose files were absent, as ascending,
    /// maximal half-open ranges.
    pub missing: Vec<Range<usize>>,
    /// Corrupt patch indices with the decode failure for each.
    pub corrupt: Vec<(usize, String)>,
}

/// Machine-readable outcome of [`ChunkStore::fsck`]: what was found, and
/// how many corrupt files `repair` moved aside.
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
    /// Runs of chunk indices whose files were absent, as ascending,
    /// maximal half-open ranges — at most one more than the files listed.
    pub missing: Vec<Range<usize>>,
    /// Corrupt chunk indices with the decode failure for each.
    pub corrupt: Vec<(usize, String)>,
    /// Corrupt chunk and patch files moved aside to `quarantine/` (repair
    /// only).
    pub quarantined: usize,
    /// The patch layers.
    pub patches: PatchFsck,
}

impl FsckReport {
    /// Whether the store needed nothing: every chunk and patch present
    /// and clean.
    pub fn clean(&self) -> bool {
        self.valid == self.chunks && self.patches.valid == self.patches.count
    }

    /// JSON rendering for the CLI; a layer range renders as its
    /// half-open `[start, end]` pair.
    pub fn to_value(&self) -> Value {
        let idxs = |v: &[Range<usize>]| {
            Value::Array(
                v.iter()
                    .map(|r| {
                        Value::Array(vec![Value::U64(r.start as u64), Value::U64(r.end as u64)])
                    })
                    .collect(),
            )
        };
        let corrupt = |v: &[(usize, String)], kind: &str| {
            Value::Array(
                v.iter()
                    .map(|(i, why)| {
                        Value::Object(vec![
                            (kind.into(), Value::U64(*i as u64)),
                            ("error".into(), Value::String(why.clone())),
                        ])
                    })
                    .collect(),
            )
        };
        let p = &self.patches;
        Value::Object(vec![
            ("label".into(), Value::String(self.label.clone())),
            ("sites".into(), Value::U64(self.sites as u64)),
            ("chunks".into(), Value::U64(self.chunks as u64)),
            ("valid".into(), Value::U64(self.valid as u64)),
            ("missing".into(), idxs(&self.missing)),
            ("corrupt".into(), corrupt(&self.corrupt, "chunk")),
            ("quarantined".into(), Value::U64(self.quarantined as u64)),
            (
                "patches".into(),
                Value::Object(vec![
                    ("count".into(), Value::U64(p.count as u64)),
                    ("valid".into(), Value::U64(p.valid as u64)),
                    ("missing".into(), idxs(&p.missing)),
                    ("corrupt".into(), corrupt(&p.corrupt, "patch")),
                ]),
            ),
            ("clean".into(), Value::Bool(self.clean())),
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
    /// The patch layers, oldest first.
    patches: Vec<PatchMeta>,
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
        // Versions 1 and 2 sealed their layers with FNV-1a: refused here,
        // before any layer is read, rather than failing as corrupt.
        if let Some(v @ 1..=2) = m["version"].as_u64() {
            return Err(bad(format!(
                "store version {v} predates the XXH64 layer checksum; this build reads \
                 versions {STORE_VERSION} and {PATCHED_STORE_VERSION} (re-measure the store)"
            )));
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
        let patches = match (m["version"].as_u64(), m.get("patches")) {
            (Some(STORE_VERSION), None) => Vec::new(),
            (Some(PATCHED_STORE_VERSION), Some(list)) => parse_patches(list, sites)?,
            _ => {
                return Err(bad(format!(
                    "unsupported store version {} (with{} a patch list)",
                    m["version"],
                    if m.get("patches").is_some() {
                        ""
                    } else {
                        "out"
                    }
                )))
            }
        };
        Ok(ChunkStore {
            dir: dir.to_path_buf(),
            label,
            sites,
            chunk_sites,
            patches,
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

    /// Number of patch layers the manifest lists.
    pub fn num_patches(&self) -> usize {
        self.patches.len()
    }

    /// Rows over all patch layers: the superseded base rows a full walk
    /// decodes on top of one row per site.
    pub fn patch_rows(&self) -> usize {
        self.patches.iter().map(|p| p.rows).sum()
    }

    /// What `layer`'s header must say, if the manifest has that layer.
    fn expect(&self, layer: LayerId) -> io::Result<Expect> {
        match layer {
            LayerId::Chunk(c) if c < self.num_chunks() => {
                Ok(Expect::chunk(c, c * self.chunk_sites, self.chunk_rows(c)))
            }
            LayerId::Patch(p) if p < self.patches.len() => Ok(Expect::patch(p, self.patches[p])),
            _ => Err(bad(format!("{layer} is not in the manifest"))),
        }
    }

    fn read_layer(&self, layer: LayerId) -> io::Result<DecodedChunk> {
        let want = self.expect(layer)?;
        let bytes = std::fs::read(layer.path(&self.dir))?;
        decode_layer(&bytes, want).map_err(|e| bad(format!("{layer}: {e}")))
    }

    fn layer_state(&self, layer: LayerId) -> ChunkState {
        match self.read_layer(layer) {
            Ok(_) => ChunkState::Valid,
            Err(e) if e.kind() == io::ErrorKind::NotFound => ChunkState::Missing,
            Err(e) => ChunkState::Corrupt(e.to_string()),
        }
    }

    /// Validates chunk `c` without keeping its data.
    pub fn chunk_state(&self, c: usize) -> ChunkState {
        self.layer_state(LayerId::Chunk(c))
    }

    /// Reads and decodes base chunk `c` — its rows as written, some of
    /// which a patch may supersede (see [`ChunkStore::layers`]).
    pub fn read_chunk(&self, c: usize) -> io::Result<DecodedChunk> {
        self.read_layer(LayerId::Chunk(c))
    }

    /// The walk over the store: every base chunk in site order, then
    /// every patch, oldest first, each decoded and verified. A site's row
    /// is the one in the last layer that holds it, so a reader that
    /// overwrites per site in walk order reads the store
    /// ([`ChunkStore::load_dataset`] reads these layers, the base chunks
    /// across cores).
    pub fn layers(&self) -> impl Iterator<Item = io::Result<DecodedChunk>> + '_ {
        let chunks = (0..self.num_chunks()).map(LayerId::Chunk);
        let patches = (0..self.patches.len()).map(LayerId::Patch);
        chunks.chain(patches).map(|layer| self.read_layer(layer))
    }

    /// The part of the walk that holds the newest rows of one epoch's
    /// dirty sites, as [`crate::measure_delta`] wrote the store: the base
    /// chunks covering the appended sites `added`, then — when `migrated`
    /// is not empty — the newest patch, which must list exactly
    /// `migrated`. A store without patches (compacted, or measured from
    /// scratch) holds the migrated rows in its base chunks, and those
    /// chunks are read instead. These layers also hold rows of clean
    /// sites, possibly superseded ones: a reader takes only dirty rows.
    pub fn dirty_layers<'a>(
        &'a self,
        added: Range<usize>,
        migrated: &'a [u32],
    ) -> impl Iterator<Item = io::Result<DecodedChunk>> + 'a {
        let k = self.chunk_sites;
        let newest = match migrated {
            [] => None,
            _ => self.patches.len().checked_sub(1),
        };
        let mut chunks: Vec<usize> = match (migrated, newest) {
            ([_, ..], None) => migrated.iter().map(|&s| s as usize / k).collect(),
            _ => Vec::new(),
        };
        if !added.is_empty() {
            chunks.extend(added.start / k..=(added.end - 1) / k);
        }
        chunks.sort_unstable();
        chunks.dedup();
        let patch = newest.map(move |p| {
            let patch = self.read_layer(LayerId::Patch(p))?;
            if patch.sites != migrated {
                return Err(bad(format!(
                    "patch {p} does not hold exactly the {} migrated sites",
                    migrated.len()
                )));
            }
            Ok(patch)
        });
        chunks.into_iter().map(|c| self.read_chunk(c)).chain(patch)
    }

    /// Materializes the full [`MeasuredDataset`], for a caller that wants
    /// every observation in memory (the experiment suite, the CLI's
    /// reports, the tests). The store must describe `world` (label and
    /// site count).
    ///
    /// It reads the layers [`ChunkStore::layers`] walks, in two phases.
    /// The base chunks split into contiguous ranges, one per scoped thread
    /// (available parallelism, at most eight); each thread decodes its
    /// chunks in order straight into its own slice of the one observation
    /// vector, so the rows land in site order and are never held twice.
    /// The patches are then applied on the calling thread, oldest first,
    /// each row overwriting its site. The result is the serial walk's, and
    /// so is the error: the first failing layer in walk order, whichever
    /// thread met it first.
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
        let mut observations = vec![SiteObservation::blank("", ""); self.sites];
        let chunks = self.num_chunks();
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(MAX_LOAD_THREADS)
            .min(chunks)
            .max(1);
        std::thread::scope(|s| {
            let mut rest = observations.as_mut_slice();
            let ranges: Vec<_> = (0..threads)
                .map(|t| {
                    let range = t * chunks / threads..(t + 1) * chunks / threads;
                    let rows = (range.end * self.chunk_sites).min(self.sites)
                        - range.start * self.chunk_sites;
                    let (mine, tail) = std::mem::take(&mut rest).split_at_mut(rows);
                    rest = tail;
                    s.spawn(move || self.read_chunks_into(range, mine))
                })
                .collect();
            // Joined in range order, so the first error is the walk's.
            ranges
                .into_iter()
                .try_for_each(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
        })?;
        for p in 0..self.patches.len() {
            let patch = self.read_layer(LayerId::Patch(p))?;
            for r in 0..patch.rows {
                // A patch lists sites below its `below`, itself no more
                // than the store's site count (both checked on read).
                observations[patch.site(r)] = patch.observation(r);
            }
        }
        Ok(MeasuredDataset {
            observations,
            label: world.label.clone(),
        })
    }

    /// Decodes base chunks `range`, in order, into `out` (their rows,
    /// the first at `out[0]`); stops at the first layer that fails.
    fn read_chunks_into(&self, range: Range<usize>, out: &mut [SiteObservation]) -> io::Result<()> {
        let first = range.start * self.chunk_sites;
        for c in range {
            let chunk = self.read_chunk(c)?;
            for r in 0..chunk.rows {
                out[chunk.site(r) - first] = chunk.observation(r);
            }
        }
        Ok(())
    }

    /// Rewrites the store at `dir` into the layout a from-scratch
    /// measurement writes: every base chunk holding a patched site is
    /// re-encoded with the site's newest row (a temp file renamed over
    /// the old name, so a chunk hard-linked from an earlier epoch is
    /// left to that epoch), then the version-3 manifest replaces the
    /// patched one and the patch files are deleted. Chunk bytes are a
    /// pure function of their rows, so the result is byte-identical to a
    /// from-scratch `measure_streamed` of the same world. A crash at any
    /// point leaves a store that reads the same: until the manifest is
    /// replaced, the patches still win over the re-encoded chunks with
    /// the same rows, and a stale patch file past the manifest's list is
    /// never read. Returns the indices of the chunks rewritten (none for
    /// a store without patches).
    pub fn compact(dir: &Path) -> io::Result<Vec<usize>> {
        let store = ChunkStore::open(dir)?;
        let patches = (0..store.patches.len())
            .map(|p| store.read_layer(LayerId::Patch(p)))
            .collect::<io::Result<Vec<_>>>()?;
        // Each patched site's newest row, as (patch, row): later patches
        // overwrite earlier ones.
        let mut newest: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        for (p, patch) in patches.iter().enumerate() {
            for r in 0..patch.rows {
                newest.insert(patch.site(r), (p, r));
            }
        }
        let k = store.chunk_sites;
        let touched: BTreeSet<usize> = newest.keys().map(|&site| site / k).collect();
        for &c in &touched {
            let chunk = store.read_chunk(c)?;
            let mut rows = Rows::default();
            let mut staged = StagedRow::default();
            for r in 0..chunk.rows {
                let row = match newest.get(&chunk.site(r)) {
                    Some(&(p, pr)) => patches[p].row(pr),
                    None => chunk.row(r),
                };
                rows.put(r, chunk.rows, staged.stage(&row));
            }
            let path = LayerId::Chunk(c).path(dir);
            let frame = Frame::Chunk {
                index: c,
                lo: c * k,
            };
            write_atomically(&path.with_extension("col.tmp"), &path, &rows.encode(&frame))?;
        }
        if !store.patches.is_empty() {
            write_manifest(dir, &store.label, store.sites, k, &[])?;
            for p in 0..store.patches.len() {
                match std::fs::remove_file(LayerId::Patch(p).path(dir)) {
                    Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                    _ => {}
                }
            }
            File::open(dir)?.sync_all()?;
        }
        Ok(touched.into_iter().collect())
    }

    /// Verifies every layer file of the store at `dir` — checksum,
    /// header, and full column decode; a patch's site column too — and
    /// reports what it finds. With `repair`, corrupt files are moved
    /// aside to `quarantine/` (never deleted: the damaged bytes stay
    /// available for post-mortem). fsck never writes a layer: a missing
    /// or quarantined one comes back by measuring its sites again —
    /// [`crate::resume_streamed`] for a run's store, the epoch's
    /// [`crate::measure_delta`] again for an epoch's — and measurement
    /// is deterministic, so it comes back byte-identical.
    ///
    /// The manifest is disk input, so nothing is sized by the chunk count
    /// it implies: fsck decodes only the layer files the directory lists
    /// and reports the absent ones as ranges. `_retired` is always `None`,
    /// as in [`crate::measure_streamed`].
    pub fn fsck(dir: &Path, _retired: Option<Infallible>, repair: bool) -> io::Result<FsckReport> {
        let store = ChunkStore::open(dir)?;
        let (chunks, patches) = (store.num_chunks(), store.patches.len());
        let (mut listed_chunks, mut listed_patches) = (Vec::new(), Vec::new());
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            match name.to_str().and_then(LayerId::of_file_name) {
                Some(LayerId::Chunk(c)) if c < chunks => listed_chunks.push(c),
                Some(LayerId::Patch(p)) if p < patches => listed_patches.push(p),
                _ => {}
            }
        }
        let chunk_scan = store.scan(listed_chunks, LayerId::Chunk, repair)?;
        let patch_scan = store.scan(listed_patches, LayerId::Patch, repair)?;
        let quarantined = match repair {
            true => chunk_scan.corrupt.len() + patch_scan.corrupt.len(),
            false => 0,
        };
        if quarantined > 0 {
            File::open(dir)?.sync_all()?;
        }
        Ok(FsckReport {
            label: store.label,
            sites: store.sites,
            chunks,
            valid: chunk_scan.valid,
            missing: gaps(&chunk_scan.present, chunks),
            corrupt: chunk_scan.corrupt,
            quarantined,
            patches: PatchFsck {
                count: patches,
                valid: patch_scan.valid,
                missing: gaps(&patch_scan.present, patches),
                corrupt: patch_scan.corrupt,
            },
        })
    }

    /// Decodes each listed layer (ascending after the sort), sorting them
    /// into valid, present and corrupt; under `repair` a corrupt file
    /// moves to `quarantine/`.
    fn scan(
        &self,
        mut listed: Vec<usize>,
        id: fn(usize) -> LayerId,
        repair: bool,
    ) -> io::Result<Scan> {
        listed.sort_unstable();
        let mut scan = Scan {
            valid: 0,
            present: Vec::with_capacity(listed.len()),
            corrupt: Vec::new(),
        };
        for i in listed {
            match self.check(id(i), repair)? {
                ChunkState::Valid => scan.valid += 1,
                // Listed, then gone before the open: absent all the same.
                ChunkState::Missing => continue,
                ChunkState::Corrupt(why) => scan.corrupt.push((i, why)),
            }
            scan.present.push(i);
        }
        Ok(scan)
    }

    /// Checks one layer file and, with `quarantine`, moves it to
    /// `quarantine/` when it is corrupt, replacing an older quarantined
    /// copy of it. The one policy for a damaged layer, on both paths that
    /// meet one — `fsck --repair` and a resume: its bytes are kept for
    /// post-mortem, never deleted, and never read as data again.
    fn check(&self, layer: LayerId, quarantine: bool) -> io::Result<ChunkState> {
        let state = self.layer_state(layer);
        if quarantine && matches!(state, ChunkState::Corrupt(_)) {
            let qdir = self.dir.join("quarantine");
            std::fs::create_dir_all(&qdir)?;
            let dst = qdir.join(layer.file_name());
            if dst.exists() {
                std::fs::remove_file(&dst)?;
            }
            std::fs::rename(layer.path(&self.dir), dst)?;
        }
        Ok(state)
    }
}

/// One kind of layer as [`ChunkStore::fsck`] found it, by index.
struct Scan {
    valid: usize,
    present: Vec<usize>,
    corrupt: Vec<(usize, String)>,
}

/// The manifest's patch list: each entry `{"rows":R,"below":B}` with
/// `1 ≤ R ≤ B ≤ sites` (a patch's sites are distinct and below `B`), and
/// at least one entry — a store without patches is version 3.
fn parse_patches(list: &Value, sites: usize) -> io::Result<Vec<PatchMeta>> {
    let list = list
        .as_array()
        .filter(|l| !l.is_empty())
        .ok_or_else(|| bad("manifest patch list is not a non-empty array"))?;
    list.iter()
        .enumerate()
        .map(|(p, entry)| {
            let field = |name: &str| entry.get(name).and_then(Value::as_u64);
            match (field("rows"), field("below")) {
                (Some(rows), Some(below))
                    if 1 <= rows && rows <= below && below <= sites as u64 =>
                {
                    Ok(PatchMeta {
                        rows: rows as usize,
                        below: below as usize,
                    })
                }
                _ => Err(bad(format!(
                    "manifest patch {p} is not {{rows, below}} with 1 <= rows <= below <= {sites}"
                ))),
            }
        })
        .collect()
}

/// The runs of `0..n` not in `taken` (ascending, distinct, each below
/// `n`) as maximal half-open ranges: at most `taken.len() + 1` of them.
fn gaps(taken: &[usize], n: usize) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut next = 0;
    for &c in taken.iter().chain([&n]) {
        if next < c {
            runs.push(next..c);
        }
        next = c + 1;
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{FailureCause, LayerError};
    use proptest::prelude::*;
    use std::fs;

    /// Decodes and verifies one chunk's bytes (checksum, header against the
    /// expected geometry, every column). Total on any input: corruption is an
    /// `Err`, never a panic or a count-sized allocation. [`decode_layer`] is
    /// the same for either kind of layer; a patch's site column must also be
    /// strictly increasing and below the manifest's `below`.
    fn decode_chunk(
        bytes: &[u8],
        expect_index: usize,
        expect_lo: usize,
        expect_rows: usize,
    ) -> Result<DecodedChunk, String> {
        decode_layer(bytes, Expect::chunk(expect_index, expect_lo, expect_rows))
    }

    /// `obs` encoded as the layer `frame` (rows in site order).
    fn encode_layer(frame: &Frame, obs: &[SiteObservation]) -> Vec<u8> {
        let (mut rows, mut staged) = (Rows::default(), StagedRow::default());
        for (slot, o) in obs.iter().enumerate() {
            assert!(rows.put(slot, obs.len(), staged.stage(&SiteRow::of(o))));
        }
        rows.encode(frame)
    }

    /// `obs` encoded as base chunk `index`, whose first site is `lo`.
    fn encode_chunk(index: usize, lo: usize, obs: &[SiteObservation]) -> Vec<u8> {
        encode_layer(&Frame::Chunk { index, lo }, obs)
    }

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

        // Resume keeps the valid chunks and quarantines the torn one, as
        // fsck --repair would…
        let mut w = ChunkStoreWriter::resume(&dir, "t-v1", n, 16).unwrap();
        assert!(w.chunk_written(0) && w.chunk_written(1) && !w.chunk_written(2));
        assert!(!victim.exists(), "torn chunk moved aside for healing");
        assert_eq!(
            fs::read(dir.join("quarantine/chunk-000002.col")).unwrap(),
            &bytes[..bytes.len() - 11],
            "the torn bytes are kept"
        );
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

    /// Every site's newest row, read through the store's walk.
    fn read_all(store: &ChunkStore) -> Vec<SiteObservation> {
        let mut out: Vec<SiteObservation> = Vec::new();
        for layer in store.layers() {
            let layer = layer.unwrap();
            for r in 0..layer.rows {
                match out.get_mut(layer.site(r)) {
                    Some(slot) => *slot = layer.observation(r),
                    None => out.push(layer.observation(r)),
                }
            }
        }
        out
    }

    /// Site `i` after an in-place migration in some epoch.
    fn moved(i: usize, epoch: u32) -> SiteObservation {
        let mut o = sample_obs(i);
        o.hosting_org = Some(1000 * epoch + i as u32);
        o
    }

    /// Carries `prev_dir` into `dir` as an epoch of `sites` sites whose
    /// `migrated` sites moved, commits the new rows, and returns the
    /// carry accounting; `rows` goes from the previous epoch's newest rows
    /// to this one's.
    fn carry_epoch(
        prev_dir: &Path,
        dir: &Path,
        sites: usize,
        migrated: &[u32],
        epoch: u32,
        rows: &mut Vec<SiteObservation>,
    ) -> Carried {
        let prev = ChunkStore::open(prev_dir).unwrap();
        let (mut w, carried) =
            ChunkStoreWriter::carry(&prev, dir, "t-v1", sites, migrated).unwrap();
        for &i in migrated {
            rows[i as usize] = moved(i as usize, epoch);
        }
        rows.extend((rows.len()..sites).map(sample_obs));
        for i in migrated
            .iter()
            .map(|&i| i as usize)
            .chain(prev.sites..sites)
        {
            assert!(w.commit(i, &rows[i]).unwrap());
        }
        w.finish().unwrap();
        carried
    }

    fn layer_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| LayerId::of_file_name(n).is_some())
            .collect();
        names.sort();
        names
    }

    /// Two epochs over a three-chunk store: the full chunks and the
    /// earlier patch are carried byte for byte, the short tail is
    /// re-encoded with its old rows (one of them superseded), migrated
    /// sites land in a new patch — site 3 migrates twice — and the walk
    /// reads every site's newest row. Compaction then writes exactly the
    /// store a from-scratch run of those rows writes.
    #[test]
    fn carry_links_layers_and_patches_migrated_sites() {
        let (e0, e1, e2) = (tmp("carry-e0"), tmp("carry-e1"), tmp("carry-e2"));
        let (scratch, copy) = (tmp("carry-scratch"), tmp("carry-copy"));
        for d in [&e0, &e1, &e2, &scratch, &copy] {
            let _ = fs::remove_dir_all(d);
        }
        let mut rows = write_store(&e0, 40, 16);

        // Epoch 1 grows the short tail chunk 2 (sites 32..40, with
        // migrated site 35 in it) and adds chunk 3.
        let carried = carry_epoch(&e0, &e1, 50, &[3, 20, 35], 1, &mut rows);
        assert_eq!((carried.chunks, carried.tail_rows), (2, 8));
        for name in ["chunk-000000.col", "chunk-000001.col"] {
            assert_eq!(
                fs::read(e0.join(name)).unwrap(),
                fs::read(e1.join(name)).unwrap()
            );
        }
        let store = ChunkStore::open(&e1).unwrap();
        assert_eq!((store.num_patches(), store.patch_rows()), (1, 3));
        assert_eq!(read_all(&store), rows);
        // The re-encoded tail keeps site 35's superseded base row.
        assert_eq!(store.read_chunk(2).unwrap().observation(3), sample_obs(35));

        // Epoch 2 does not grow: every chunk and the patch are carried.
        let carried = carry_epoch(&e1, &e2, 50, &[3, 41], 2, &mut rows);
        assert_eq!((carried.chunks, carried.tail_rows), (4, 0));
        assert_eq!(
            fs::read(e1.join("patch-000000.col")).unwrap(),
            fs::read(e2.join("patch-000000.col")).unwrap()
        );
        let store = ChunkStore::open(&e2).unwrap();
        assert_eq!((store.num_patches(), store.patch_rows()), (2, 5));
        assert_eq!(read_all(&store), rows);

        let mut w = ChunkStoreWriter::create(&scratch, "t-v1", 50, 16).unwrap();
        for (i, obs) in rows.iter().enumerate() {
            w.commit(i, obs).unwrap();
        }
        w.finish().unwrap();
        fs::create_dir_all(&copy).unwrap();
        for entry in fs::read_dir(&e2).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        assert_eq!(ChunkStore::compact(&copy).unwrap(), vec![0, 1, 2]);
        assert_eq!(layer_files(&copy), layer_files(&scratch));
        for name in layer_files(&scratch)
            .iter()
            .map(String::as_str)
            .chain(["manifest.json"])
        {
            assert_eq!(
                fs::read(copy.join(name)).unwrap(),
                fs::read(scratch.join(name)).unwrap(),
                "{name} differs after compaction"
            );
        }
        assert_eq!(ChunkStore::compact(&copy).unwrap(), Vec::<usize>::new());

        // A corrupt carried layer fails the carry; so does a migrated
        // site out of order, and carrying a store into itself.
        let store = ChunkStore::open(&e2).unwrap();
        let victim = e2.join("patch-000001.col");
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();
        let err = ChunkStoreWriter::carry(&store, &copy, "t-v1", 50, &[])
            .err()
            .unwrap();
        assert!(err.to_string().contains("carried patch 1"), "{err}");
        assert!(ChunkStoreWriter::carry(&store, &copy, "t-v1", 50, &[5, 4]).is_err());
        assert!(ChunkStoreWriter::carry(&store, &copy, "t-v1", 50, &[50]).is_err());
        assert!(ChunkStoreWriter::carry(&store, &e2, "t-v1", 50, &[]).is_err());
        for d in [&e0, &e1, &e2, &scratch, &copy] {
            fs::remove_dir_all(d).unwrap();
        }
    }

    /// A full re-measure into an epoch directory that holds patches must
    /// leave none behind: the new manifest lists none, and a stale patch
    /// would otherwise sit there looking like data.
    #[test]
    fn create_over_a_patched_store_leaves_no_patch() {
        let (e0, e1) = (tmp("stale-e0"), tmp("stale-e1"));
        for d in [&e0, &e1] {
            let _ = fs::remove_dir_all(d);
        }
        let mut rows = write_store(&e0, 40, 16);
        carry_epoch(&e0, &e1, 44, &[1, 2], 1, &mut rows);
        assert_eq!(
            layer_files(&e1)
                .iter()
                .filter(|n| n.starts_with("patch-"))
                .count(),
            1
        );

        let mut w = ChunkStoreWriter::create(&e1, "t-v1", 44, 16).unwrap();
        for (i, obs) in rows.iter().enumerate() {
            w.commit(i, obs).unwrap();
        }
        w.finish().unwrap();
        assert!(layer_files(&e1).iter().all(|n| n.starts_with("chunk-")));
        let report = ChunkStore::fsck(&e1, None, false).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.patches.count, 0);
        assert_eq!(read_all(&ChunkStore::open(&e1).unwrap()), rows);
        for d in [&e0, &e1] {
            fs::remove_dir_all(d).unwrap();
        }
    }

    /// fsck decodes every patch: a corrupt one and a missing one make the
    /// store unclean, and repair quarantines the corrupt newest patch and
    /// leaves the missing one missing. Writing the epoch again over its
    /// previous store brings both back byte-identically.
    #[test]
    fn fsck_reports_and_quarantines_patches() {
        let (e0, e1, e2) = (tmp("fsckp-e0"), tmp("fsckp-e1"), tmp("fsckp-e2"));
        for d in [&e0, &e1, &e2] {
            let _ = fs::remove_dir_all(d);
        }
        let mut rows = write_store(&e0, 40, 16);
        carry_epoch(&e0, &e1, 44, &[1, 2, 17], 1, &mut rows);
        carry_epoch(&e1, &e2, 48, &[2, 30, 41], 2, &mut rows);
        let clean = ChunkStore::fsck(&e2, None, false).unwrap();
        assert!(clean.clean(), "{clean:?}");
        assert_eq!((clean.patches.count, clean.patches.valid), (2, 2));

        let newest = e2.join("patch-000001.col");
        let original = fs::read(&newest).unwrap();
        let mut garbled = original.clone();
        garbled[30] ^= 0x40;
        fs::write(&newest, &garbled).unwrap();
        // Unlinks only e2's name: e1 keeps patch 0.
        fs::remove_file(e2.join("patch-000000.col")).unwrap();

        let report = ChunkStore::fsck(&e2, None, false).unwrap();
        assert!(!report.clean());
        assert_eq!(report.valid, report.chunks);
        assert_eq!(report.patches.missing, vec![0..1]);
        assert_eq!(report.patches.corrupt.len(), 1);
        assert_eq!(report.patches.corrupt[0].0, 1);
        let rendered = report.to_value().to_string();
        assert!(rendered.contains(r#""patch":1"#), "{rendered}");
        assert!(rendered.contains(r#""clean":false"#), "{rendered}");

        let report = ChunkStore::fsck(&e2, None, true).unwrap();
        assert_eq!(report.quarantined, 1);
        assert!(!report.clean() && !newest.exists());
        assert_eq!(
            fs::read(e2.join("quarantine/patch-000001.col")).unwrap(),
            garbled
        );
        let report = ChunkStore::fsck(&e2, None, false).unwrap();
        assert_eq!(report.patches.missing, vec![0..2]);

        carry_epoch(&e1, &e2, 48, &[2, 30, 41], 2, &mut rows);
        assert_eq!(fs::read(&newest).unwrap(), original);
        let report = ChunkStore::fsck(&e2, None, false).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(read_all(&ChunkStore::open(&e2).unwrap()), rows);
        for d in [&e0, &e1, &e2] {
            fs::remove_dir_all(d).unwrap();
        }
    }

    /// A chunk header addresses sites with u32 `lo`/`rows`, so a manifest
    /// claiming one site more is damage, refused before anything is sized
    /// by it.
    #[test]
    fn manifest_over_u32_sites_is_refused() {
        let dir = tmp("huge-manifest");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        write_manifest(&dir, "t-v1", u32::MAX as usize, 4096, &[]).unwrap();
        assert_eq!(ChunkStore::open(&dir).unwrap().sites, u32::MAX as usize);
        write_manifest(&dir, "t-v1", u32::MAX as usize + 1, 4096, &[]).unwrap();
        let err = ChunkStore::open(&dir).err().expect("must be refused");
        assert!(
            err.to_string().contains("more than a chunk header"),
            "{err}"
        );
        assert!(ChunkStore::fsck(&dir, None, true).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A manifest claiming `u32::MAX` one-site chunks over an empty
    /// directory costs fsck a directory listing, not four billion opens:
    /// the absent chunks come back as one range, with or without repair.
    #[test]
    fn fsck_of_a_hollow_huge_manifest_is_bounded_by_the_listing() {
        let dir = tmp("hollow-manifest");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let sites = u32::MAX as usize;
        write_manifest(&dir, "t-v1", sites, 1, &[]).unwrap();

        for repair in [false, true] {
            let t0 = std::time::Instant::now();
            let report = ChunkStore::fsck(&dir, None, repair).unwrap();
            assert!(t0.elapsed() < std::time::Duration::from_secs(1));
            assert!(!report.clean());
            assert_eq!(report.chunks, sites);
            assert_eq!(report.missing, vec![0..sites]);
            assert_eq!(report.quarantined, 0);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The published XXH64 (seed 0) known answers: the empty input, the
    /// tail paths (1, 3 and 14 bytes), one stripe less than a multiple
    /// (26 bytes) and two full stripes plus a word and a half (80 bytes).
    #[test]
    fn xxh64_matches_the_published_values() {
        let ten = "1234567890".repeat(8);
        for (input, want) in [
            ("", 0xEF46_DB37_51D8_E999),
            ("a", 0xD24E_C4F1_A98C_6E5B),
            ("abc", 0x44BC_2CF5_AD77_0999),
            ("message digest", 0x066E_D728_FCEE_B3BE),
            ("abcdefghijklmnopqrstuvwxyz", 0xCFE1_F278_FA89_835C),
            (ten.as_str(), 0xE04A_477F_19EE_145D),
        ] {
            assert_eq!(xxh64(input.as_bytes()), want, "{input:?}");
        }
    }

    /// Every single-bit flip of an encoded chunk — header, columns and
    /// the checksum itself — fails the decode.
    #[test]
    fn every_single_bit_flip_fails_the_decode() {
        let rows: Vec<SiteObservation> = (0..12).map(sample_obs).collect();
        let encoded = encode_chunk(2, 24, &rows);
        assert!(decode_chunk(&encoded, 2, 24, rows.len()).is_ok());
        let mut bytes = encoded.clone();
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_chunk(&bytes, 2, 24, rows.len()).is_err(),
                "flipping bit {bit} of {} bytes went unnoticed",
                bytes.len()
            );
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Flipping the top bit of two words that land in the same lane of
    /// two stripes — the pair a word-wise FNV cannot tell from the
    /// original, since multiplication carries nothing down from bit 63 —
    /// fails the checksum.
    #[test]
    fn two_top_bit_flips_in_one_lane_fail_the_checksum() {
        let rows: Vec<SiteObservation> = (0..12).map(sample_obs).collect();
        let encoded = encode_chunk(0, 0, &rows);
        let body = encoded.len() - 8;
        for lane in 0..4 {
            for (s1, s2) in [(1, 2), (1, body / 32 - 1)] {
                let mut bytes = encoded.clone();
                for stripe in [s1, s2] {
                    bytes[stripe * 32 + lane * 8 + 7] ^= 0x80;
                }
                assert_ne!(xxh64(&bytes[..body]), xxh64(&encoded[..body]));
                let err = decode_chunk(&bytes, 0, 0, rows.len()).err();
                assert_eq!(err.as_deref(), Some("chunk checksum mismatch"));
            }
        }
    }

    /// A header claiming more strings than the file could hold, behind a
    /// valid checksum, must be refused without sizing an allocation by it.
    #[test]
    fn huge_string_count_is_rejected_without_allocating() {
        let mut body = CHUNK_MAGIC.to_vec();
        for v in [0u32, 0, 4, u32::MAX] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        let sum = xxh64(&body);
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
        let sum = xxh64(&body);
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

    fn mutation_at(at: impl Strategy<Value = usize> + 'static) -> impl Strategy<Value = Mutation> {
        let big = prop_oneof![Just(u32::MAX), Just(1u32 << 28), any::<u32>()];
        prop_oneof![
            (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip { at, bit }),
            any::<usize>().prop_map(|keep| Mutation::Truncate { keep }),
            (at, big).prop_map(|(at, value)| Mutation::Count32 { at, value }),
            (any::<usize>(), any::<u16>()).prop_map(|(at, value)| Mutation::Count16 { at, value }),
        ]
    }

    fn mutation() -> impl Strategy<Value = Mutation> {
        // Byte 20 is the string count and byte 24 the first string's
        // length; other count fields (per-row nameserver counts) are hit
        // at random offsets.
        mutation_at(prop_oneof![Just(20usize), Just(24usize), any::<usize>()])
    }

    /// The rows of the patch `decode_patch_never_panics` damages.
    const PATCH_ROWS: usize = 20;

    fn patch_mutation() -> impl Strategy<Value = Mutation> {
        // A patch's site column starts at byte 20, and its string count
        // and first string length follow the column's 20 sites.
        let hot = (0..PATCH_ROWS + 2).prop_map(|k| 20 + 4 * k);
        mutation_at(prop_oneof![hot, any::<usize>()])
    }

    /// One damage to `manifest.json`. Offsets wrap modulo the length;
    /// digit edits pick the `nth` ASCII digit (modulo the digit count).
    /// `Patches` rewrites a parseable manifest's patch list: it keeps
    /// `keep` entries (modulo one more than their count) and appends
    /// `extra` entries of `rows` rows below `below`.
    #[derive(Debug, Clone)]
    enum ManifestEdit {
        Flip {
            at: usize,
            bit: u8,
        },
        Truncate {
            keep: usize,
        },
        Digit {
            nth: usize,
            to: u8,
        },
        Grow {
            nth: usize,
            digit: u8,
        },
        Patches {
            keep: usize,
            extra: usize,
            rows: u64,
            below: u64,
        },
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
                ManifestEdit::Patches {
                    keep,
                    extra,
                    rows,
                    below,
                } => {
                    let parsed =
                        serde_json::from_str::<Value>(String::from_utf8_lossy(text).trim());
                    let Ok(Value::Object(mut fields)) = parsed else {
                        return;
                    };
                    let at = match fields.iter().position(|(k, _)| k == "patches") {
                        Some(at) => at,
                        None => {
                            fields.push(("patches".into(), Value::Array(Vec::new())));
                            fields.len() - 1
                        }
                    };
                    let mut list = fields[at].1.as_array().cloned().unwrap_or_default();
                    list.truncate(keep % (list.len() + 1));
                    let entry = Value::Object(vec![
                        ("rows".into(), Value::U64(rows)),
                        ("below".into(), Value::U64(below)),
                    ]);
                    list.extend(std::iter::repeat_n(entry, extra));
                    fields[at].1 = Value::Array(list);
                    *text = format!("{}\n", Value::Object(fields)).into_bytes();
                }
            }
        }
    }

    fn manifest_edit() -> impl Strategy<Value = ManifestEdit> {
        let count = || {
            prop_oneof![
                Just(0u64),
                Just(1u64),
                Just(48u64),
                Just(u64::MAX),
                any::<u64>()
            ]
        };
        prop_oneof![
            (any::<usize>(), 0u8..8).prop_map(|(at, bit)| ManifestEdit::Flip { at, bit }),
            any::<usize>().prop_map(|keep| ManifestEdit::Truncate { keep }),
            (any::<usize>(), 0u8..10).prop_map(|(nth, to)| ManifestEdit::Digit { nth, to }),
            (any::<usize>(), 0u8..10).prop_map(|(nth, digit)| ManifestEdit::Grow { nth, digit }),
            (any::<usize>(), 0usize..3, count(), count()).prop_map(|(keep, extra, rows, below)| {
                ManifestEdit::Patches {
                    keep,
                    extra,
                    rows,
                    below,
                }
            }),
        ]
    }

    /// Writes a 48-site store of 16-site chunks with two patches straight
    /// from the codec: the base rows are `sample_obs`, the patches move
    /// sites 1, 2, 17 (below 44) and 2, 30, 41 (below 48).
    fn plant_patched_store(dir: &Path) {
        fs::create_dir_all(dir).unwrap();
        let rows: Vec<SiteObservation> = (0..48).map(sample_obs).collect();
        for c in 0..3 {
            let bytes = encode_chunk(c, c * 16, &rows[c * 16..(c + 1) * 16]);
            fs::write(LayerId::Chunk(c).path(dir), bytes).unwrap();
        }
        let patches = [(44, vec![1u32, 2, 17]), (48, vec![2, 30, 41])];
        let mut metas = Vec::new();
        for (index, (below, sites)) in patches.into_iter().enumerate() {
            let moved: Vec<SiteObservation> = sites.iter().map(|&i| moved(i as usize, 1)).collect();
            metas.push(PatchMeta {
                rows: sites.len(),
                below,
            });
            let frame = Frame::Patch {
                index,
                below,
                sites,
            };
            fs::write(
                LayerId::Patch(index).path(dir),
                encode_layer(&frame, &moved),
            )
            .unwrap();
        }
        write_manifest(dir, "t-v1", 48, 16, &metas).unwrap();
    }

    proptest! {
        /// `ChunkStore::open` is total on a damaged manifest: every
        /// truncation, byte flip, digit edit (counts, sites, the version)
        /// and rewrite of the patch list — absurd row counts, more or
        /// fewer patches than there are files — returns `Ok` or `Err`, an
        /// accepted manifest describes layers a header can address, and
        /// walking or checking the store it opens returns errors, never a
        /// panic.
        #[test]
        fn open_never_panics(edits in prop::collection::vec(manifest_edit(), 1..6)) {
            let dir = tmp("open-edits");
            plant_patched_store(&dir);
            let mut text = fs::read(manifest_path(&dir)).unwrap();
            for e in &edits {
                e.apply(&mut text);
            }
            fs::write(manifest_path(&dir), &text).unwrap();
            if let Ok(store) = ChunkStore::open(&dir) {
                prop_assert!(store.sites <= u32::MAX as usize);
                prop_assert!(store.chunk_sites > 0);
                prop_assert!(store.patches.iter().all(|p| 1 <= p.rows && p.rows <= p.below && p.below <= store.sites));
                if store.num_chunks() > 0 {
                    let _ = store.chunk_rows(store.num_chunks() - 1);
                }
                // A manifest claiming more layers than the files fails at
                // the first absent one.
                for layer in store.layers() {
                    if layer.is_err() {
                        break;
                    }
                }
                let _ = ChunkStore::fsck(&dir, None, false);
            }
            fs::remove_dir_all(&dir).unwrap();
        }

        /// `decode_patch` — [`decode_layer`] against a manifest patch
        /// entry — is total on corrupted patches behind a valid checksum,
        /// and no count read from the bytes sizes an allocation. A patch
        /// that still decodes has a strictly increasing site column below
        /// the entry's `below`, which the manifest bounds by its site
        /// count, and reconstructs every row.
        #[test]
        fn decode_patch_never_panics(mutations in prop::collection::vec(patch_mutation(), 1..4)) {
            let sites: Vec<u32> = (0..PATCH_ROWS as u32).map(|i| 5 * i + 1).collect();
            let rows: Vec<SiteObservation> = sites.iter().map(|&i| sample_obs(i as usize)).collect();
            let meta = PatchMeta { rows: PATCH_ROWS, below: 100 };
            let encoded = encode_layer(&Frame::Patch { index: 3, below: 100, sites }, &rows);
            let mut body = encoded[..encoded.len() - 8].to_vec();
            for m in &mutations {
                m.apply(&mut body);
            }
            let sum = xxh64(&body);
            body.extend_from_slice(&sum.to_le_bytes());
            if let Ok(patch) = decode_layer(&body, Expect::patch(3, meta)) {
                prop_assert_eq!(patch.rows, PATCH_ROWS);
                for r in 0..patch.rows {
                    prop_assert!(patch.site(r) < meta.below);
                    prop_assert!(r == 0 || patch.site(r - 1) < patch.site(r));
                    let _ = patch.observation(r);
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
            let sum = xxh64(&body);
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
        let mut staged = StagedRow::default();
        let mut row = |i| {
            staged.stage(&SiteRow::of(&sample_obs(i)));
            std::mem::take(&mut staged)
        };
        for i in 0..3 {
            assert!(matches!(w.insert(i, &row(i)), (true, None)));
        }
        let (stored, claim) = w.insert(3, &row(3));
        let claim = claim.expect("the last site claims its chunk");
        assert!(stored);
        // Claimed but not yet written: a late duplicate is refused, and the
        // chunk is not durable.
        assert!(matches!(w.insert(1, &row(1)), (false, None)));
        assert!(!w.commit(2, &sample_obs(2)).unwrap());
        assert!(!w.chunk_written(0));
        w.record(claim.write()).unwrap();
        assert!(w.chunk_written(0));

        // The second chunk's write fails: the error surfaces, the chunk
        // stays claimed and the store cannot finish.
        for i in 4..7 {
            w.commit(i, &sample_obs(i)).unwrap();
        }
        let (_, claim) = w.insert(7, &row(7));
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
    fn fsck_quarantines_and_resume_heals_byte_identically() {
        let dir = tmp("fsck");
        let _ = fs::remove_dir_all(&dir);
        let n = 72;
        let all = write_store(&dir, n, 16);
        let orig2 = fs::read(dir.join("chunk-000002.col")).unwrap();
        let orig4 = fs::read(dir.join("chunk-000004.col")).unwrap();

        // Garble one chunk mid-file, delete another outright.
        let mut garbled = orig2.clone();
        garbled[40] ^= 0xFF;
        fs::write(dir.join("chunk-000002.col"), &garbled).unwrap();
        fs::remove_file(dir.join("chunk-000004.col")).unwrap();

        // Report-only pass: finds both, changes nothing.
        let report = ChunkStore::fsck(&dir, None, false).unwrap();
        assert!(!report.clean());
        assert_eq!(report.valid, 3);
        assert_eq!(report.missing, vec![4..5]);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].0, 2);
        assert_eq!(report.quarantined, 0);
        assert_eq!(
            fs::read(dir.join("chunk-000002.col")).unwrap(),
            garbled,
            "report-only fsck must not touch the store"
        );

        // Repair moves the corrupt file to quarantine for post-mortem and
        // writes nothing: fsck never invents data.
        let report = ChunkStore::fsck(&dir, None, true).unwrap();
        assert!(!report.clean());
        assert_eq!((report.quarantined, report.corrupt.len()), (1, 1));
        assert!(!dir.join("chunk-000002.col").exists());
        assert_eq!(
            fs::read(dir.join("quarantine/chunk-000002.col")).unwrap(),
            garbled
        );
        let report = ChunkStore::fsck(&dir, None, false).unwrap();
        assert_eq!(report.missing, vec![2..3, 4..5]);

        // Resume keeps the three valid chunks and takes the rows of the
        // other two again, which encode to the bytes the run wrote.
        let mut w = ChunkStoreWriter::resume(&dir, "t-v1", n, 16).unwrap();
        let durable = (0..n).filter(|&i| w.site_durable(i)).count();
        assert_eq!(durable, 3 * 16);
        for (i, obs) in all.iter().enumerate() {
            w.commit(i, obs).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(fs::read(dir.join("chunk-000002.col")).unwrap(), orig2);
        assert_eq!(fs::read(dir.join("chunk-000004.col")).unwrap(), orig4);
        assert_eq!(read_all(&ChunkStore::open(&dir).unwrap()), all);
        let clean = ChunkStore::fsck(&dir, None, false).unwrap();
        assert!(clean.clean());
        assert!(clean.to_value()["clean"] == Value::Bool(true));
        fs::remove_dir_all(&dir).unwrap();
    }
    /// The edge cases a row must carry through unchanged: the names
    /// `blank` normalizes, an unparseable domain, every layer failing,
    /// an internal failure, and none and thirteen nameservers.
    fn edge_rows() -> Vec<SiteObservation> {
        let mut rows = Vec::new();
        let mut full = SiteObservation::blank("example.COM.", "en");
        full.hosting_ip = Some(Ipv4Addr::new(203, 0, 113, 9));
        full.hosting_asn = Some(64_500);
        full.hosting_org = Some(3);
        full.hosting_org_country = Some("US".into());
        full.hosting_ip_country = Some("DE".into());
        full.hosting_anycast = true;
        full.ns_names = vec!["ns1.prov.net".into(), "ns2.prov.net".into()];
        full.dns_ip = Some(Ipv4Addr::new(198, 51, 100, 2));
        full.dns_asn = Some(64_501);
        full.dns_org = Some(4);
        full.dns_org_country = Some("US".into());
        full.dns_ip_country = Some("NL".into());
        full.ca_owner = Some(2);
        full.ca_owner_country = Some("BE".into());
        rows.push(full.clone());
        let mut root = full.clone();
        root.domain = ".".into();
        root.tld = SiteObservation::blank(".", "fr").tld;
        root.language = "fr".into();
        rows.push(root);
        let mut single = SiteObservation::blank("localhost", "de");
        single.ns_names = vec!["ns1.prov.net".into()];
        single.dns_error = Some(LayerError::new(
            FailureCause::NoRecords,
            "no nameserver address",
        ));
        single.derive_error_summary();
        rows.push(single);
        let mut unparseable = SiteObservation::blank("bad name..example", "en");
        unparseable.hosting_error = Some(LayerError::new(
            FailureCause::Malformed,
            "unparseable domain",
        ));
        unparseable.dns_error = Some(LayerError::new(FailureCause::Skipped, "domain unparseable"));
        unparseable.ca_error = Some(LayerError::new(FailureCause::Skipped, "domain unparseable"));
        unparseable.derive_error_summary();
        rows.push(unparseable);
        let mut failing = SiteObservation::blank("down.example.org", "es");
        failing.hosting_error = Some(LayerError::new(FailureCause::Timeout, "A: query timed out"));
        failing.dns_error = Some(LayerError::new(FailureCause::Refused, "NS: server failure"));
        failing.ca_error = Some(LayerError::new(
            FailureCause::Skipped,
            "no serving IP to scan",
        ));
        failing.derive_error_summary();
        rows.push(failing);
        let mut skipped_first = SiteObservation::blank("Mixed.Example.NET", "pt");
        skipped_first.hosting_ip = Some(Ipv4Addr::new(203, 0, 113, 10));
        skipped_first.hosting_error =
            Some(LayerError::new(FailureCause::Skipped, "hosting skipped"));
        skipped_first.dns_error = Some(LayerError::new(
            FailureCause::NxDomain,
            "NS: no such domain: mixed.example.net",
        ));
        skipped_first.ca_error = Some(LayerError::new(
            FailureCause::UnknownIssuer,
            "unknown issuer",
        ));
        skipped_first.derive_error_summary();
        rows.push(skipped_first);
        rows.push(SiteObservation::internal_failure(
            "lost.example.com",
            "en",
            "panic: chaos: injected panic for site 6",
        ));
        let mut no_ns = full.clone();
        no_ns.domain = "no-ns.example.com".into();
        no_ns.ns_names.clear();
        rows.push(no_ns);
        let mut many_ns = full.clone();
        many_ns.domain = "many-ns.example.com".into();
        many_ns.ns_names = (1..=13).map(|i| format!("ns{i}.big.net")).collect();
        rows.push(many_ns);
        rows
    }

    /// `obs` as a worker builds its row: the TLD as written in the domain,
    /// the NS names as the resolver's shared set, the failure details
    /// formatted (owned) and the summary derived.
    fn worker_row(obs: &SiteObservation) -> SiteRow<'_> {
        if obs.hosting_error.as_ref().map(|e| e.cause) == Some(FailureCause::Internal) {
            let detail = &obs.hosting_error.as_ref().unwrap().detail;
            return SiteRow::internal_failure(&obs.domain, &obs.language, detail);
        }
        let owned =
            |e: &Option<LayerError>| e.as_ref().map(|e| (e.cause, Cow::Owned(e.detail.clone())));
        let names = obs.ns_names.iter().map(|n| DomainName::parse(n).unwrap());
        SiteRow {
            tld: tld_label(&obs.domain),
            ns_names: NsNames::Shared(names.collect()),
            hosting_error: owned(&obs.hosting_error),
            dns_error: owned(&obs.dns_error),
            ca_error: owned(&obs.ca_error),
            error: Summary::Derived,
            ..SiteRow::of(obs)
        }
    }

    /// Rows committed out of order, as workers commit them, encode to the
    /// bytes the encoder over owned observations wrote before rows
    /// existed (pinned), read back as the observations `blank` and
    /// `derive_error_summary` build, and encode the same again when
    /// re-committed from their decoded layer, as the carry's tail does.
    #[test]
    fn edge_case_rows_round_trip_to_the_pinned_bytes() {
        let want = edge_rows();
        let n = want.len();
        let dir = tmp("edge-rows");
        let _ = fs::remove_dir_all(&dir);
        let mut w = ChunkStoreWriter::create(&dir, "t-v1", n, 16).unwrap();
        let odd_down = (0..n).rev().filter(|i| i % 2 == 1);
        for i in odd_down.chain((0..n).step_by(2)) {
            assert!(w.commit_row(i, &worker_row(&want[i])).unwrap());
        }
        assert!(!w.commit(0, &want[0]).unwrap(), "the chunk is written");
        w.finish().unwrap();

        let bytes = fs::read(LayerId::Chunk(0).path(&dir)).unwrap();
        assert_eq!((xxh64(&bytes), bytes.len()), (0x4fbc_2743_a12d_8f98, 1287));
        assert_eq!(bytes, encode_chunk(0, 0, &want));
        let chunk = ChunkStore::open(&dir).unwrap().read_chunk(0).unwrap();
        for (r, obs) in want.iter().enumerate() {
            assert_eq!(&chunk.observation(r), obs, "row {r}");
        }
        assert_eq!(chunk.observation(0).tld, "com");
        assert_eq!(chunk.observation(8).ns_names.len(), 13);

        let (mut again, mut staged) = (Rows::default(), StagedRow::default());
        for r in (0..n).rev() {
            assert!(again.put(r, n, staged.stage(&chunk.row(r))));
        }
        assert_eq!(again.encode(&Frame::Chunk { index: 0, lo: 0 }), bytes);
        fs::remove_dir_all(&dir).unwrap();
    }
}
