//! The iterative resolver over the simulated network.
//!
//! The measurement pipeline resolves every website's A records and its
//! nameservers' A records, as the paper does with ZDNS. The
//! [`IterativeResolver`] starts at root hints, chases referrals (using glue
//! when present, resolving nameserver names otherwise), follows CNAMEs, and
//! caches delegations so bulk resolution does not hammer the root.
//!
//! Its private tier is scoped by site: a caller that resolves many sites
//! ends each one with [`IterativeResolver::forget`], which drops the
//! entries keyed by the site's own name (its cut, the NS set and A answer
//! its referral and query brought). What stays is what sites share: TLD
//! cuts, nameserver hosts and their glue, CDN edge names. So the tier
//! holds O(providers + TLDs) entries however many sites pass through.
//!
//! Timeouts are simulated: every server is an inline responder, so an
//! attempt is one exchange, which returns the reply with the query when it
//! arrives within the attempt's window. Nothing waits on the wall clock.

use crate::name::{is_within, label_count, DomainName};
use crate::shared_cache::SharedDnsCache;
use crate::wire::{encode_query, MessageView, NameBuf, ParsedDatagram, RData, Rcode, RecordType};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;
use webdep_netsim::{Endpoint, NetError, SockAddr};

/// Resolver tuning knobs.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Per-query receive window in simulated time: a reply later than it
    /// (a [`FaultKind::Delay`](webdep_netsim::FaultKind::Delay) longer
    /// than the window) is a timeout. Doubles each rotation round.
    pub timeout: Duration,
    /// Retries per server before giving up on it.
    pub retries: u32,
    /// Maximum referral depth per resolution.
    pub max_depth: u32,
    /// Maximum CNAME chain length per resolution.
    pub max_cnames: u32,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            timeout: Duration::from_millis(250),
            retries: 2,
            max_depth: 16,
            max_cnames: 8,
        }
    }
}

/// Resolution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// All servers timed out.
    Timeout,
    /// The network rejected a send (destination unbound).
    Network(NetError),
    /// The authoritative server says the name does not exist.
    NxDomain(DomainName),
    /// The name exists but carries no records of the queried type.
    NoData(DomainName),
    /// Referral depth or CNAME chain limit exceeded.
    DepthExceeded,
    /// The server answered with a failure rcode.
    ServFail,
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::Timeout => write!(f, "query timed out"),
            ResolveError::Network(e) => write!(f, "network error: {e}"),
            ResolveError::NxDomain(n) => write!(f, "no such domain: {n}"),
            ResolveError::NoData(n) => write!(f, "no data for {n}"),
            ResolveError::DepthExceeded => write!(f, "referral/CNAME depth exceeded"),
            ResolveError::ServFail => write!(f, "server failure"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// Whether `msg` carries exactly the one question `name`/`qtype`, as the
/// query this resolver sent did.
fn asks(msg: MessageView<'_>, name: &DomainName, qtype: RecordType) -> bool {
    let mut questions = msg.questions();
    matches!(
        (questions.next(), questions.next()),
        (Some(q), None) if q.qtype == qtype && q.name.eq_str(name.as_str())
    )
}

/// A zone's nameserver addresses, shared between both cache tiers and the
/// resolutions that start from them.
type ZoneServers = Arc<[Ipv4Addr]>;

/// A delegation as the private tier keeps it: the NS host names it lists
/// and the addresses its glue gives them.
type Delegated = (Arc<[DomainName]>, ZoneServers);

/// The addresses of a cached A answer: up to two inline, as nearly every
/// answer and glue set has, more on the heap.
#[derive(Debug, Clone)]
enum Addrs {
    Inline(u8, [Ipv4Addr; 2]),
    Heap(Vec<Ipv4Addr>),
}

impl Addrs {
    fn as_slice(&self) -> &[Ipv4Addr] {
        match self {
            Addrs::Inline(len, ips) => &ips[..*len as usize],
            Addrs::Heap(ips) => ips,
        }
    }
}

impl FromIterator<Ipv4Addr> for Addrs {
    fn from_iter<I: IntoIterator<Item = Ipv4Addr>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut ips = [Ipv4Addr::UNSPECIFIED; 2];
        for len in 0..ips.len() {
            match iter.next() {
                Some(ip) => ips[len] = ip,
                None => return Addrs::Inline(len as u8, ips),
            }
        }
        match iter.next() {
            None => Addrs::Inline(2, ips),
            Some(more) => Addrs::Heap(ips.into_iter().chain([more]).chain(iter).collect()),
        }
    }
}

/// What the private tier knows under one name, in compact values: the
/// addresses of an A answer, the host names of an NS answer, never the
/// records they came in. One entry per name lets the hot lookups borrow
/// `name` instead of building a `(name, type)` probe key, and ends a
/// site's scope with one removal.
#[derive(Debug, Default)]
struct Entry {
    /// The servers of the zone cut at this name.
    cut: Option<ZoneServers>,
    /// The A answer.
    a: Option<Addrs>,
    /// The NS answer, shared with the delegation that listed the hosts.
    ns: Option<Arc<[DomainName]>>,
    /// For a nameserver host: the last delegation that listed it first.
    /// The next referral listing the same hosts and glue (another of the
    /// provider's customers) shares it instead of copying the names.
    delegation: Option<Delegated>,
}

/// Runs `update` on the entry for the name whose presentation form is
/// `name`, made empty if missing: only then is the name copied.
fn update(names: &mut HashMap<DomainName, Entry>, name: &str, update: impl FnOnce(&mut Entry)) {
    match names.get_mut(name) {
        Some(entry) => update(entry),
        None => {
            let mut entry = Entry::default();
            update(&mut entry);
            names.insert(DomainName::from_validated(name.to_owned()), entry);
        }
    }
}

/// A completed answer in its cached form.
#[derive(Debug, Clone)]
enum Answer {
    A(Vec<Ipv4Addr>),
    Ns(Arc<[DomainName]>),
}

/// Lookup accounting: where answers came from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries sent on the wire (including retries).
    pub wire_queries: u64,
    /// Answers served from this resolver's private cache.
    pub local_cache_hits: u64,
    /// Delegations served from the shared cache tier.
    pub shared_cache_hits: u64,
    /// Received datagrams discarded because they failed to decode.
    pub malformed_datagrams: u64,
    /// Decoded datagrams discarded for a wrong id or question.
    pub mismatched_ids: u64,
}

/// An iterative resolver with a per-instance delegation cache, optionally
/// layered over a process-wide [`SharedDnsCache`].
pub struct IterativeResolver {
    endpoint: Endpoint,
    config: ResolverConfig,
    /// Transaction id of the next query.
    next_id: u16,
    roots: ZoneServers,
    /// The private tier by owner name: zone cuts (the TLDs, the providers'
    /// zones, and the cut of each site whose scope is open) and answers
    /// (nameserver hosts with their glue and CDN edge names shared across
    /// sites, plus the NS set and A answer of each open site).
    names: HashMap<DomainName, Entry>,
    /// Shared tier of the root's delegations, consulted when the private
    /// cache holds no cut below the root for a name.
    shared: Option<Arc<SharedDnsCache>>,
    /// Consecutive fully-failed passes per server. A server at
    /// [`DEAD_AFTER_STRIKES`] is demoted: still probed (once, last, with
    /// the widest window) so outcomes stay schedule-independent, but no
    /// longer re-asked every round. Any successful answer clears its
    /// strikes.
    server_strikes: HashMap<Ipv4Addr, u32>,
    /// [`IterativeResolver::query_any`]'s per-server bookkeeping, kept
    /// between calls so a query allocates none.
    query_state: Vec<(Ipv4Addr, u8)>,
    /// `follow_referral`'s buffers, kept alike: where a referral's NS host
    /// names are in the reply, and its glue as (first host named, address).
    referral_hosts: Vec<usize>,
    referral_glue: Vec<(usize, Ipv4Addr)>,
    /// The query being sent, encoded in place for each attempt.
    query: Vec<u8>,
    /// Reply buffers not in use. A reply stays alive while the resolution
    /// it answered goes on (a refusal held while the next server is asked,
    /// a referral while a glueless host or a CNAME target is resolved), so
    /// each exchange takes a buffer of its own from here and the reply
    /// gives it back when read: the list grows to the deepest nesting once
    /// and an exchange allocates nothing after.
    spare: Vec<Vec<u8>>,
    stats: ResolverStats,
}

// Per-server flags of one `query_any` call.
/// Not demoted: re-asked every round of the backoff schedule.
const LIVE: u8 = 1;
const TRIED: u8 = 2;
const ANSWERED: u8 = 4;
/// Unbound: no point re-sending within this call.
const UNREACHABLE: u8 = 8;

/// Fully-failed `query_any` passes before a server is demoted to a single
/// trailing probe per query.
const DEAD_AFTER_STRIKES: u32 = 2;

/// Cap on the exponential backoff: the per-attempt timeout doubles each
/// rotation round up to `base << BACKOFF_CAP`.
const BACKOFF_CAP: u32 = 3;

fn backoff_timeout(base: Duration, round: u32) -> Duration {
    base * (1u32 << round.min(BACKOFF_CAP))
}

impl IterativeResolver {
    /// Creates a resolver bound to `endpoint` with the given root hints.
    pub fn new(endpoint: Endpoint, roots: Vec<Ipv4Addr>, config: ResolverConfig) -> Self {
        assert!(!roots.is_empty(), "need at least one root hint");
        IterativeResolver {
            endpoint,
            config,
            next_id: 1,
            roots: roots.into(),
            names: HashMap::new(),
            shared: None,
            server_strikes: HashMap::new(),
            query_state: Vec::new(),
            referral_hosts: Vec::new(),
            referral_glue: Vec::new(),
            query: Vec::new(),
            spare: Vec::new(),
            stats: ResolverStats::default(),
        }
    }

    /// Like [`IterativeResolver::new`], but shares the root's delegations
    /// through `shared`: this resolver publishes the cuts it learns from
    /// the root and starts from a cut another resolver published instead
    /// of asking the root again.
    pub fn with_shared_cache(
        endpoint: Endpoint,
        roots: Vec<Ipv4Addr>,
        config: ResolverConfig,
        shared: Arc<SharedDnsCache>,
    ) -> Self {
        let mut r = Self::new(endpoint, roots, config);
        r.shared = Some(shared);
        r
    }

    /// Total queries sent on the wire (cache hits cost nothing).
    pub fn queries_sent(&self) -> u64 {
        self.stats.wire_queries
    }

    /// Wire/cache accounting for this resolver.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// Ends `site`'s scope: drops the private-tier entry keyed by the
    /// site's own name, its zone cut and its answers (the NS set its
    /// referral carried, its A answer). Entries other sites share stay.
    ///
    /// A measurement asks for a site's name once, so without this the tier
    /// grows by an entry per site, and every probe and insert pays for the
    /// size. Answers cannot change: which answer a query gets never
    /// depends on this cache (see `query_any`). Only wire queries can,
    /// when a dropped name is asked for again, as a site name that is also
    /// a provider's domain is.
    pub fn forget(&mut self, site: &DomainName) {
        self.names.remove(site);
    }

    /// Resolves A records for `name`.
    pub fn resolve_a(&mut self, name: &DomainName) -> Result<Vec<Ipv4Addr>, ResolveError> {
        match self.resolve(name, RecordType::A, 0)? {
            Answer::A(addrs) => Ok(addrs),
            Answer::Ns(_) => Ok(Vec::new()),
        }
    }

    /// Resolves the NS set of `name` (the nameserver *names*).
    ///
    /// The set is the one the resolver caches, shared by every zone
    /// delegated to the same nameservers: handing it out costs a reference
    /// count, not a copy of each name. It is owned, so the caller can keep
    /// resolving (say, each nameserver's address) while it holds the set.
    pub fn resolve_ns(&mut self, name: &DomainName) -> Result<Arc<[DomainName]>, ResolveError> {
        match self.resolve(name, RecordType::Ns, 0)? {
            Answer::Ns(hosts) => Ok(hosts),
            Answer::A(_) => Ok(Arc::new([])),
        }
    }

    /// The private tier's answer for `name`/`qtype`, if any.
    fn cached(&self, name: &DomainName, qtype: RecordType) -> Option<Answer> {
        let entry = self.names.get(name)?;
        match qtype {
            RecordType::A => entry.a.as_ref().map(|a| Answer::A(a.as_slice().to_vec())),
            RecordType::Ns => entry.ns.clone().map(Answer::Ns),
            RecordType::Cname => None,
        }
    }

    /// Stores a completed answer in the private tier.
    fn cache_answer(&mut self, name: &DomainName, answer: &Answer) {
        update(&mut self.names, name.as_str(), |entry| match answer {
            Answer::A(addrs) => entry.a = Some(addrs.iter().copied().collect()),
            Answer::Ns(hosts) => entry.ns = Some(Arc::clone(hosts)),
        });
    }

    /// Full resolution with caching; returns the terminal answer.
    fn resolve(
        &mut self,
        name: &DomainName,
        qtype: RecordType,
        cname_depth: u32,
    ) -> Result<Answer, ResolveError> {
        if cname_depth > self.config.max_cnames {
            return Err(ResolveError::DepthExceeded);
        }
        if let Some(hit) = self.cached(name, qtype) {
            self.stats.local_cache_hits += 1;
            return Ok(hit);
        }

        // Start from the deepest cached zone enclosing `name`.
        let (mut servers, mut cut) = self.starting_servers(name);
        // Nameservers of the current zone whose addresses are not in
        // `servers` yet — the rotation reserve when every known address
        // fails.
        let mut pending_ns: Vec<DomainName> = Vec::new();
        let mut depth = 0;
        loop {
            depth += 1;
            if depth > self.config.max_depth {
                return Err(ResolveError::DepthExceeded);
            }
            // Only the root's referrals are worth sharing across resolvers.
            let from_root = Arc::ptr_eq(&servers, &self.roots);
            let reply = match self.query_any(&servers, name, qtype) {
                Ok(r) => r,
                Err(e) => {
                    // Every known address for this zone failed. Before
                    // giving up, resolve the zone's remaining NS names and
                    // rotate onto their addresses.
                    match self.next_alternative(&mut pending_ns, depth) {
                        Some(addrs) => {
                            servers = addrs.into();
                            continue;
                        }
                        None => return Err(e),
                    }
                }
            };
            let resp = reply.view();
            let step = match resp.rcode() {
                Rcode::NoError if resp.answers().next().is_some() => self
                    .take_answer(name, qtype, cname_depth, resp)
                    .map(ControlFlow::Break),
                Rcode::NoError => self
                    .follow_referral(name, resp, cut, depth, from_root)
                    .map(ControlFlow::Continue),
                Rcode::NxDomain => Err(ResolveError::NxDomain(name.clone())),
                _ => Err(ResolveError::ServFail),
            };
            self.recycle(reply);
            match step? {
                ControlFlow::Break(answer) => return Ok(answer),
                ControlFlow::Continue(next) => (servers, cut, pending_ns) = next,
            }
        }
    }

    /// Gives a reply's buffer back for a later exchange to write over.
    fn recycle(&mut self, reply: ParsedDatagram) {
        self.spare.push(reply.into_buffer());
    }

    /// The terminal answer `resp` carries for `name`, cached: its records
    /// of type `qtype`, or, when it holds only aliases, the resolution of
    /// the last CNAME's target.
    fn take_answer(
        &mut self,
        name: &DomainName,
        qtype: RecordType,
        cname_depth: u32,
        resp: MessageView<'_>,
    ) -> Result<Answer, ResolveError> {
        let mut addrs = Vec::new();
        let mut hosts = Vec::new();
        let mut last_cname = None;
        for r in resp.answers() {
            match r.data {
                RData::Cname(target) => last_cname = Some(target),
                RData::A(ip) if qtype == RecordType::A => addrs.push(ip),
                RData::Ns(host) if qtype == RecordType::Ns => hosts.push(host.to_name()),
                _ => {}
            }
        }
        let answer = if !addrs.is_empty() {
            Answer::A(addrs)
        } else if !hosts.is_empty() {
            Answer::Ns(hosts.into())
        } else if let Some(target) = last_cname {
            self.resolve(&target.to_name(), qtype, cname_depth + 1)?
        } else {
            return Err(ResolveError::NoData(name.clone()));
        };
        self.cache_answer(name, &answer);
        Ok(answer)
    }

    /// Follows the referral in `resp`, an answer from the servers of a cut
    /// `cut` labels deep, for `name`. Caches what the referral proves — the
    /// delegated zone's NS set, the glue addresses of the hosts it lists —
    /// and the new cut, and returns the cut's servers, its depth in labels
    /// and the listed hosts without glue (the rotation reserve).
    ///
    /// The authoritative server would answer the NS and glue queries with
    /// the same record sets (the deployed worlds publish delegation and
    /// apex data from one source), so caching them spares one wire round
    /// trip per `resolve_ns` and per glued NS address lookup. A referral
    /// is followed only when its zone encloses `name` and lies below
    /// `cut`: any other can only lead away or back up, and caching it would
    /// plant a cut and glue for names nobody asked about. It is refused
    /// with [`ResolveError::ServFail`], and nothing of it is cached.
    fn follow_referral(
        &mut self,
        name: &DomainName,
        resp: MessageView<'_>,
        cut: usize,
        depth: u32,
        from_root: bool,
    ) -> Result<(ZoneServers, usize, Vec<DomainName>), ResolveError> {
        // One pass over each section: where the listed hosts' names are,
        // and each glue record's address with the first host it names.
        // (An error drops the buffers; the next referral grows new ones.)
        let mut hosts = std::mem::take(&mut self.referral_hosts);
        let mut glue = std::mem::take(&mut self.referral_glue);
        hosts.clear();
        glue.clear();
        let mut zone = None;
        for r in resp.authorities() {
            // The zone is the first authority record's owner.
            zone.get_or_insert(r.owner);
            if let RData::Ns(host) = r.data {
                hosts.push(host.offset());
            }
        }
        let host = |i: usize| resp.name_at(hosts[i]);
        for r in resp.additionals() {
            if let RData::A(ip) = r.data {
                if let Some(i) = (0..hosts.len()).find(|&i| host(i).same_as(r.owner)) {
                    glue.push((i, ip));
                }
            }
        }
        let (Some(zone), false) = (zone, hosts.is_empty()) else {
            // Authoritative empty answer: NoData.
            return Err(if resp.authoritative() {
                ResolveError::NoData(name.clone())
            } else {
                ResolveError::ServFail
            });
        };
        let mut zone_text = NameBuf::new();
        let zone = zone.expand(&mut zone_text);
        let zone_labels = label_count(zone);
        if !is_within(name.as_str(), zone) || zone_labels <= cut {
            return Err(ResolveError::ServFail);
        }
        // Host `i`'s glue: the records naming the first host listed under
        // its name.
        let glue_of = |i: usize| {
            let first = (0..=i).find(|&j| host(j).same_as(host(i))).unwrap_or(i);
            (glue.iter())
                .filter(move |&&(j, _)| j == first)
                .map(|&(_, ip)| ip)
        };
        let listed = || (0..hosts.len()).map(|i| host(i).to_name()).collect();
        let addresses = || glue.iter().map(|&(_, ip)| ip);
        // Hosts the referral carried no glue for: the rotation reserve.
        let mut reserve: Vec<DomainName> = (0..hosts.len())
            .filter(|&i| glue_of(i).next().is_none())
            .map(|i| host(i).to_name())
            .collect();
        let (listed, servers): Delegated = if !glue.is_empty() {
            // Cache each glued host's addresses. The first host's entry
            // also keeps the delegation, for the next referral to it.
            let mut delegated = None;
            let mut text = NameBuf::new();
            for i in 0..hosts.len() {
                if glue_of(i).next().is_none() {
                    continue;
                }
                update(&mut self.names, host(i).expand(&mut text), |cached| {
                    let known = cached.a.as_ref().map(Addrs::as_slice);
                    if !known.is_some_and(|a| a.iter().copied().eq(glue_of(i))) {
                        cached.a = Some(glue_of(i).collect());
                    }
                    if i > 0 {
                        return;
                    }
                    let same = |(listed, servers): &&Delegated| {
                        listed.len() == hosts.len()
                            && (listed.iter().enumerate()).all(|(j, l)| host(j).eq_str(l.as_str()))
                            && servers.iter().copied().eq(addresses())
                    };
                    delegated = Some(match cached.delegation.as_ref().filter(same) {
                        Some(known) => known.clone(),
                        None => {
                            let fresh: Delegated = (listed(), addresses().collect());
                            cached.delegation = Some(fresh.clone());
                            fresh
                        }
                    });
                });
            }
            delegated.unwrap_or_else(|| (listed(), addresses().collect()))
        } else {
            // Glueless delegation: resolve NS names until one yields
            // addresses; the rest stay in reserve.
            let listed = listed();
            let mut addrs = Vec::new();
            while addrs.is_empty() && !reserve.is_empty() {
                let ns = reserve.remove(0);
                if let Ok(found) = self.resolve_a_guarded(&ns, depth) {
                    addrs.extend(found);
                }
            }
            if addrs.is_empty() {
                return Err(ResolveError::ServFail);
            }
            (listed, addrs.into())
        };
        if let (true, Some(shared)) = (from_root, &self.shared) {
            // A copy of its own (see `starting_servers`).
            let zone = DomainName::from_validated(zone.to_owned());
            shared.put_zone(zone, Arc::from(&*servers));
        }
        update(&mut self.names, zone, |zone| {
            zone.ns = Some(listed);
            zone.cut = Some(Arc::clone(&servers));
        });
        self.referral_hosts = hosts;
        self.referral_glue = glue;
        Ok((servers, zone_labels, reserve))
    }

    /// Resolving a glueless NS name must not recurse unboundedly.
    fn resolve_a_guarded(
        &mut self,
        name: &DomainName,
        depth: u32,
    ) -> Result<Vec<Ipv4Addr>, ResolveError> {
        if depth >= self.config.max_depth {
            return Err(ResolveError::DepthExceeded);
        }
        self.resolve_a(name)
    }

    /// Deepest known enclosing zone's servers and its depth in labels: the
    /// private cache over every suffix, then the shared tier of root
    /// delegations (promoting a hit), then the root hints. The shared tier
    /// holds only cuts the root hands out, so it is asked only when the
    /// private cache holds no cut at all for the name; a single resolver's
    /// shared cuts are all in its private cache too, so it never hits the
    /// shared tier.
    fn starting_servers(&mut self, name: &DomainName) -> (ZoneServers, usize) {
        let private = name
            .suffixes()
            .find_map(|zone| Some((zone, self.names.get(zone)?.cut.as_ref()?)));
        if let Some((zone, servers)) = private {
            return (Arc::clone(servers), label_count(zone));
        }
        if let Some(shared) = &self.shared {
            for zone in name.suffixes() {
                if let Some(addrs) = shared.get_zone(zone) {
                    self.stats.shared_cache_hits += 1;
                    // Promoted as a private copy: every resolution under
                    // the cut clones and drops it, and an `Arc` two workers
                    // share would bounce its count between their cores.
                    let addrs: ZoneServers = Arc::from(&*addrs);
                    update(&mut self.names, zone, |e| e.cut = Some(Arc::clone(&addrs)));
                    return (addrs, label_count(zone));
                }
            }
        }
        (Arc::clone(&self.roots), 0)
    }

    /// Resolves names from `pending` until one yields addresses; used to
    /// rotate onto a zone's remaining nameservers after every known
    /// address has failed.
    fn next_alternative(
        &mut self,
        pending: &mut Vec<DomainName>,
        depth: u32,
    ) -> Option<Vec<Ipv4Addr>> {
        while !pending.is_empty() {
            let ns = pending.remove(0);
            if let Ok(addrs) = self.resolve_a_guarded(&ns, depth) {
                if !addrs.is_empty() {
                    return Some(addrs);
                }
            }
        }
        None
    }

    /// Asks the zone's servers for `name`/`qtype`, rotating across all of
    /// them with exponential backoff: one attempt per server per round, the
    /// per-attempt timeout doubling each round (capped). Definitive answers
    /// (NOERROR/NXDOMAIN) return immediately; refusals are remembered and
    /// only surfaced once no server gives a real answer.
    ///
    /// Servers that repeatedly fail whole passes are demoted: they are
    /// probed once, last, with the schedule's widest window. A re-asked
    /// question meets the same fault and the same delay (faults are pure
    /// in server and question), so that one probe is answered exactly when
    /// some round of the full schedule would be. Which answers we obtain
    /// therefore never depends on what this resolver learned from earlier,
    /// unrelated queries; only the wire queries spent do. That keeps
    /// datasets byte-identical across worker counts while sparing dead
    /// infrastructure its re-sends.
    fn query_any(
        &mut self,
        servers: &[Ipv4Addr],
        name: &DomainName,
        qtype: RecordType,
    ) -> Result<ParsedDatagram, ResolveError> {
        // One entry per server, live ones first, then demoted ones, each in
        // the given order. A server listed twice has two entries; `mark`
        // keeps their flags equal.
        let mut state = std::mem::take(&mut self.query_state);
        state.clear();
        let strikes = &self.server_strikes;
        let live = |ip: &Ipv4Addr| strikes.get(ip).is_none_or(|&s| s < DEAD_AFTER_STRIKES);
        state.extend(servers.iter().filter(|ip| live(ip)).map(|&ip| (ip, LIVE)));
        state.extend(servers.iter().filter(|ip| !live(ip)).map(|&ip| (ip, 0)));
        let mark = |state: &mut [(Ipv4Addr, u8)], ip: Ipv4Addr, flag: u8| {
            for e in state.iter_mut().filter(|e| e.0 == ip) {
                e.1 |= flag;
            }
        };
        let rounds = self.config.retries + 1;
        let widest = backoff_timeout(self.config.timeout, rounds - 1);
        let mut refused: Option<ParsedDatagram> = None;
        let mut timed_out = false;
        let mut last_net: Option<ResolveError> = None;
        let mut verdict: Option<ParsedDatagram> = None;

        'rounds: for round in 0..rounds {
            let window = backoff_timeout(self.config.timeout, round);
            for k in 0..state.len() {
                let (ip, flags) = state[k];
                // Demoted servers get exactly one trailing probe, in round
                // 0, with the widest window.
                if flags & LIVE == 0 && round > 0 {
                    continue;
                }
                if flags & (UNREACHABLE | ANSWERED) != 0 {
                    continue;
                }
                let window = if flags & LIVE == 0 { widest } else { window };
                mark(&mut state, ip, TRIED);
                match self.query_once(SockAddr::new(ip, crate::DNS_PORT), name, qtype, window) {
                    Ok(resp) => {
                        mark(&mut state, ip, ANSWERED);
                        match resp.view().rcode() {
                            Rcode::NoError | Rcode::NxDomain => {
                                verdict = Some(resp);
                                break 'rounds;
                            }
                            // A refusal is an answer from a live server,
                            // but another server may do better: rotate on.
                            _ => {
                                if let Some(earlier) = refused.replace(resp) {
                                    self.recycle(earlier);
                                }
                            }
                        }
                    }
                    Err(ResolveError::Timeout) => timed_out = true,
                    Err(e) => {
                        mark(&mut state, ip, UNREACHABLE);
                        last_net = Some(e);
                    }
                }
            }
            // Later rounds only revisit servers that timed out; if none
            // did, there is nothing left worth re-asking.
            if state
                .iter()
                .filter(|e| e.1 & LIVE != 0)
                .all(|e| e.1 & (UNREACHABLE | ANSWERED) != 0)
            {
                break;
            }
        }

        // Strike accounting, once per distinct server: answering clears
        // its record; being tried without ever answering earns one strike.
        for (k, &(ip, flags)) in state.iter().enumerate() {
            if state[..k].iter().any(|e| e.0 == ip) {
                continue;
            }
            if flags & ANSWERED != 0 {
                self.server_strikes.remove(&ip);
            } else if flags & TRIED != 0 {
                let s = self.server_strikes.entry(ip).or_insert(0);
                *s = s.saturating_add(1);
            }
        }
        self.query_state = state;

        if let Some(resp) = verdict {
            if let Some(earlier) = refused {
                self.recycle(earlier);
            }
            return Ok(resp);
        }
        if let Some(resp) = refused {
            return Ok(resp);
        }
        if timed_out {
            return Err(ResolveError::Timeout);
        }
        Err(last_net.unwrap_or(ResolveError::Timeout))
    }

    /// One attempt against one server: one exchange, whose reply counts
    /// when it arrives within `window` (simulated time, see
    /// [`Endpoint::exchange`]) and answers this query. Fails with
    /// [`ResolveError::Network`] when nothing is bound at `server`, and
    /// with [`ResolveError::Timeout`] when no matching reply came in time.
    fn query_once(
        &mut self,
        server: SockAddr,
        name: &DomainName,
        qtype: RecordType,
        window: Duration,
    ) -> Result<ParsedDatagram, ResolveError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        self.stats.wire_queries += 1;
        encode_query(&mut self.query, id, name, qtype);
        let mut buf = self.spare.pop().unwrap_or_default();
        let answered = match self
            .endpoint
            .exchange(server, &self.query, window, &mut buf)
        {
            Ok(reply) => reply.is_some(),
            Err(e) => {
                self.spare.push(buf);
                return Err(ResolveError::Network(e));
            }
        };
        if !answered {
            self.spare.push(buf);
            return Err(ResolveError::Timeout);
        }
        match ParsedDatagram::parse(buf) {
            Ok(resp)
                if {
                    let view = resp.view();
                    view.is_response() && view.id() == id && asks(view, name, qtype)
                } =>
            {
                return Ok(resp);
            }
            // A reply to some other question.
            Ok(resp) => {
                self.stats.mismatched_ids += 1;
                self.recycle(resp);
            }
            Err((_, buf)) => {
                self.stats.malformed_datagrams += 1;
                self.spare.push(buf);
            }
        }
        Err(ResolveError::Timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::serve_query;
    use crate::zone::{answer_from_zones, Zone};
    use std::sync::Arc;
    use webdep_netsim::{Datagram, FaultPlan, NetConfig, Network, Region, ResponderSet};

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// An authoritative server at `addr` answering from `zones` through
    /// the one serving path, under `faults`.
    fn auth(
        net: &Network,
        addr: Ipv4Addr,
        region: Region,
        zones: Vec<Zone>,
        faults: Option<FaultPlan>,
    ) -> ResponderSet {
        let server = ResponderSet::new(net, move |d: &Datagram, out: &mut Vec<u8>| {
            serve_query(d.payload, d.dst.ip, faults.as_ref(), out, |q, r| {
                answer_from_zones(&zones, q, r)
            })
        });
        server.attach(addr, 53, region).unwrap();
        server
    }

    /// Builds a tiny internet: root -> com -> example.com, plus an out-of-
    /// zone CNAME target under net.
    fn build_world(net: &Network) -> (Vec<ResponderSet>, Vec<Ipv4Addr>) {
        let root_ip = ip("198.41.0.4");
        let com_ip = ip("192.5.6.30");
        let net_ip = ip("192.5.6.31");
        let example_ns_ip = ip("203.0.113.53");
        let provider_ns_ip = ip("203.0.113.54");

        let mut root = Zone::new(DomainName::root());
        root.delegate(
            n("com"),
            &[n("a.gtld-servers.net")],
            &[(n("a.gtld-servers.net"), com_ip)],
        );
        root.delegate(
            n("net"),
            &[n("b.gtld-servers.net")],
            &[(n("b.gtld-servers.net"), net_ip)],
        );

        let mut com = Zone::new(n("com"));
        com.delegate(
            n("example.com"),
            &[n("ns1.example.com")],
            &[(n("ns1.example.com"), example_ns_ip)],
        );

        let mut netz = Zone::new(n("net"));
        netz.delegate(
            n("provider.net"),
            &[n("ns1.provider.net")],
            &[(n("ns1.provider.net"), provider_ns_ip)],
        );

        let mut example = Zone::new(n("example.com"));
        example.add_a(n("example.com"), ip("203.0.113.10"));
        example.add_a(n("www.example.com"), ip("203.0.113.11"));
        example.add_cname(n("cdn.example.com"), n("edge.provider.net"));
        example.add_ns(n("example.com"), n("ns1.example.com"));
        example.add_a(n("ns1.example.com"), example_ns_ip);

        let mut provider = Zone::new(n("provider.net"));
        provider.add_a(n("edge.provider.net"), ip("203.0.113.99"));

        let servers = vec![
            auth(net, root_ip, Region::NORTH_AMERICA, vec![root], None),
            auth(net, com_ip, Region::NORTH_AMERICA, vec![com], None),
            auth(net, net_ip, Region::NORTH_AMERICA, vec![netz], None),
            auth(net, example_ns_ip, Region::EUROPE, vec![example], None),
            auth(net, provider_ns_ip, Region::EUROPE, vec![provider], None),
        ];
        (servers, vec![root_ip])
    }

    fn resolver(net: &Network, roots: Vec<Ipv4Addr>) -> IterativeResolver {
        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE);
        IterativeResolver::new(ep, roots, ResolverConfig::default())
    }

    #[test]
    fn full_iterative_resolution() {
        let net = Network::new(NetConfig::default());
        let (_servers, roots) = build_world(&net);
        let mut r = resolver(&net, roots);
        let addrs = r.resolve_a(&n("www.example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.11")]);
    }

    #[test]
    fn caching_cuts_queries() {
        let net = Network::new(NetConfig::default());
        let (_servers, roots) = build_world(&net);
        let mut r = resolver(&net, roots);
        r.resolve_a(&n("www.example.com")).unwrap();
        let first = r.queries_sent();
        // Second name in the same zone: should skip root and com.
        r.resolve_a(&n("example.com")).unwrap();
        let second = r.queries_sent() - first;
        assert!(second <= 1, "expected <=1 query after cache, got {second}");
        // Exact repeat: zero queries.
        r.resolve_a(&n("example.com")).unwrap();
        assert_eq!(r.queries_sent() - first, second);
    }

    #[test]
    fn cross_zone_cname_followed() {
        let net = Network::new(NetConfig::default());
        let (_servers, roots) = build_world(&net);
        let mut r = resolver(&net, roots);
        let addrs = r.resolve_a(&n("cdn.example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.99")]);
    }

    #[test]
    fn nxdomain_reported() {
        let net = Network::new(NetConfig::default());
        let (_servers, roots) = build_world(&net);
        let mut r = resolver(&net, roots);
        let err = r.resolve_a(&n("nope.example.com")).unwrap_err();
        assert_eq!(err, ResolveError::NxDomain(n("nope.example.com")));
    }

    #[test]
    fn ns_resolution() {
        let net = Network::new(NetConfig::default());
        let (_servers, roots) = build_world(&net);
        let mut r = resolver(&net, roots);
        let ns = r.resolve_ns(&n("example.com")).unwrap();
        assert_eq!(*ns, [n("ns1.example.com")]);
        // And the nameserver's address resolves too.
        let addrs = r.resolve_a(&n("ns1.example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.53")]);
    }

    #[test]
    fn retries_survive_packet_loss() {
        // 30% loss: retries should still pull the answer through.
        let net = Network::new(NetConfig {
            loss_rate: 0.3,
            seed: 7,
            ..Default::default()
        });
        let (_servers, roots) = build_world(&net);
        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE);
        let mut r = IterativeResolver::new(
            ep,
            roots,
            ResolverConfig {
                timeout: Duration::from_millis(60),
                retries: 8,
                ..Default::default()
            },
        );
        let addrs = r.resolve_a(&n("www.example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.11")]);
    }

    #[test]
    fn shared_cache_spares_the_wire() {
        let net = Network::new(NetConfig::default());
        let (_servers, roots) = build_world(&net);
        let shared = Arc::new(SharedDnsCache::new());

        // First resolver warms the shared cache from a cold start: root,
        // com, example.com.
        let ep1 = net.bind(ip("10.0.0.98"), 3553, Region::EUROPE);
        let mut r1 = IterativeResolver::with_shared_cache(
            ep1,
            roots,
            ResolverConfig::default(),
            Arc::clone(&shared),
        );
        r1.resolve_a(&n("www.example.com")).unwrap();
        assert_eq!(r1.queries_sent(), 3);
        assert_eq!(r1.stats().shared_cache_hits, 0);

        // The shared tier keeps the root's referral (the `com` cut) and
        // nothing below it: no `example.com` cut, no answers.
        assert_eq!(
            shared.get_zone("com").as_deref(),
            Some(&[ip("192.5.6.30")][..])
        );
        assert_eq!(shared.get_zone("example.com"), None);

        // A second resolver with an unreachable root hint still resolves
        // the same name: it starts at the shared `com` cut and sends
        // exactly the queries below the TLD (com, then example.com).
        let ep2 = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE);
        let mut r2 = IterativeResolver::with_shared_cache(
            ep2,
            vec![ip("9.9.9.9")],
            ResolverConfig::default(),
            Arc::clone(&shared),
        );
        let addrs = r2.resolve_a(&n("www.example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.11")]);
        assert_eq!(r2.queries_sent(), 2);
        assert_eq!(r2.stats().shared_cache_hits, 1);
        // Its own walk below the TLD published nothing new.
        assert_eq!(shared.get_zone("example.com"), None);

        // A sibling name needs the wire, but the shared *delegation* cache
        // lets it skip the root: give this resolver an unreachable root
        // hint and it still succeeds.
        let ep3 = net.bind(ip("10.0.0.97"), 3553, Region::EUROPE);
        let mut r3 = IterativeResolver::with_shared_cache(
            ep3,
            vec![ip("9.9.9.9")],
            ResolverConfig::default(),
            shared,
        );
        let addrs = r3.resolve_a(&n("example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.10")]);
    }

    /// root -> com -> `site{i}.com` for `i < sites`, every site delegated
    /// with glue to the one nameserver `ns1.provider.net`.
    fn hosted_sites_world(net: &Network, sites: usize) -> (Vec<ResponderSet>, Vec<DomainName>) {
        let root_ip = ip("198.41.0.4");
        let com_ip = ip("192.5.6.30");
        let provider_ns_ip = ip("203.0.113.54");
        let ns = n("ns1.provider.net");
        let mut root = Zone::new(DomainName::root());
        root.delegate(
            n("com"),
            &[n("a.gtld-servers.net")],
            &[(n("a.gtld-servers.net"), com_ip)],
        );
        let mut com = Zone::new(n("com"));
        let mut hosted = Vec::new();
        let names: Vec<DomainName> = (0..sites).map(|i| n(&format!("site{i}.com"))).collect();
        for (i, site) in names.iter().enumerate() {
            com.delegate(
                site.clone(),
                std::slice::from_ref(&ns),
                &[(ns.clone(), provider_ns_ip)],
            );
            let mut zone = Zone::new(site.clone());
            zone.add_a(site.clone(), Ipv4Addr::new(203, 0, 113, 100 + i as u8));
            zone.add_ns(site.clone(), ns.clone());
            hosted.push(zone);
        }
        let servers = vec![
            auth(net, root_ip, Region::NORTH_AMERICA, vec![root], None),
            auth(net, com_ip, Region::NORTH_AMERICA, vec![com], None),
            auth(net, provider_ns_ip, Region::EUROPE, hosted, None),
        ];
        (servers, names)
    }

    /// Entries in `r`'s private tier: zone cuts plus names with answers.
    fn private_entries(r: &IterativeResolver) -> usize {
        (r.names.values())
            .map(|e| usize::from(e.cut.is_some()) + usize::from(e.a.is_some() || e.ns.is_some()))
            .sum()
    }

    /// What the pipeline asks per site: its A records, its NS set, and the
    /// first nameserver's A records.
    type SiteAnswers = (
        Result<Vec<Ipv4Addr>, ResolveError>,
        Result<Arc<[DomainName]>, ResolveError>,
        Result<Vec<Ipv4Addr>, ResolveError>,
    );

    fn measure_site(r: &mut IterativeResolver, site: &DomainName) -> SiteAnswers {
        let a = r.resolve_a(site);
        let ns = r.resolve_ns(site);
        let ns_a = r.resolve_a(&ns.as_ref().unwrap()[0]);
        (a, ns, ns_a)
    }

    #[test]
    fn forgetting_sites_keeps_the_private_tier_flat() {
        let net = Network::new(NetConfig::default());
        let (_servers, sites) = hosted_sites_world(&net, 24);
        let mut r = resolver(&net, vec![ip("198.41.0.4")]);
        let mut sizes = Vec::new();
        for site in &sites {
            let (a, ns, ns_a) = measure_site(&mut r, site);
            assert!(a.is_ok() && ns.is_ok() && ns_a.is_ok());
            r.forget(site);
            sizes.push(private_entries(&r));
        }
        // The `com` cut, its NS set and its server's address, and the
        // site nameserver's address, whatever the count of sites measured.
        assert_eq!(sizes[0], 4);
        assert!(sizes.iter().all(|&s| s == sizes[0]), "{sizes:?}");
    }

    #[test]
    fn a_forgotten_site_resolves_again_alike() {
        let net = Network::new(NetConfig::default());
        let (_servers, sites) = hosted_sites_world(&net, 2);
        let mut r = resolver(&net, vec![ip("198.41.0.4")]);
        // Warm the shared names (the `com` cut, the nameserver's glue).
        assert!(measure_site(&mut r, &sites[1]).0.is_ok());
        r.forget(&sites[1]);
        let mut runs = Vec::new();
        for _ in 0..2 {
            let before = r.queries_sent();
            let answers = measure_site(&mut r, &sites[0]);
            runs.push((answers, r.queries_sent() - before));
            r.forget(&sites[0]);
        }
        assert_eq!(runs[0].0 .0, Ok(vec![ip("203.0.113.100")]));
        // The `com` referral and the site's A answer; the NS set and the
        // nameserver's address come from the referral.
        assert_eq!(runs[0].1, 2);
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn unreachable_root_is_an_error() {
        let net = Network::new(NetConfig::default());
        let mut r = resolver(&net, vec![ip("9.9.9.9")]);
        let err = r.resolve_a(&n("example.com")).unwrap_err();
        assert!(matches!(err, ResolveError::Network(_)), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "root hint")]
    fn requires_roots() {
        let net = Network::new(NetConfig::default());
        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE);
        let _ = IterativeResolver::new(ep, vec![], ResolverConfig::default());
    }

    fn fast_config() -> ResolverConfig {
        ResolverConfig {
            timeout: Duration::from_millis(40),
            retries: 1,
            ..Default::default()
        }
    }

    #[test]
    fn glueless_delegation_rotates_past_dead_first_ns() {
        // victim.com is delegated *gluelessly* to two nameservers; the
        // first NS name resolves to an unbound (dead) address, the second
        // to a live server. Resolution must rotate onto the second instead
        // of dying on the first.
        let net = Network::new(NetConfig::default());
        let root_ip = ip("198.41.0.4");
        let com_ip = ip("192.5.6.30");
        let net_ip = ip("192.5.6.31");
        let provider_ns_ip = ip("203.0.113.54");
        let dead_ip = ip("203.0.113.60"); // never bound
        let live_ip = ip("203.0.113.61");

        let mut root = Zone::new(DomainName::root());
        root.delegate(
            n("com"),
            &[n("a.gtld-servers.net")],
            &[(n("a.gtld-servers.net"), com_ip)],
        );
        root.delegate(
            n("net"),
            &[n("b.gtld-servers.net")],
            &[(n("b.gtld-servers.net"), net_ip)],
        );

        let mut com = Zone::new(n("com"));
        com.delegate(
            n("victim.com"),
            &[n("ns-dead.provider.net"), n("ns-live.provider.net")],
            &[], // no glue: the resolver must chase the NS names itself
        );

        let mut netz = Zone::new(n("net"));
        netz.delegate(
            n("provider.net"),
            &[n("ns1.provider.net")],
            &[(n("ns1.provider.net"), provider_ns_ip)],
        );

        let mut provider = Zone::new(n("provider.net"));
        provider.add_a(n("ns-dead.provider.net"), dead_ip);
        provider.add_a(n("ns-live.provider.net"), live_ip);

        let mut victim = Zone::new(n("victim.com"));
        victim.add_a(n("victim.com"), ip("203.0.113.70"));

        let _servers = [
            auth(&net, root_ip, Region::NORTH_AMERICA, vec![root], None),
            auth(&net, com_ip, Region::NORTH_AMERICA, vec![com], None),
            auth(&net, net_ip, Region::NORTH_AMERICA, vec![netz], None),
            auth(&net, provider_ns_ip, Region::EUROPE, vec![provider], None),
            auth(&net, live_ip, Region::EUROPE, vec![victim], None),
        ];

        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE);
        let mut r = IterativeResolver::new(ep, vec![root_ip], fast_config());
        let addrs = r.resolve_a(&n("victim.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.70")]);
    }

    #[test]
    fn servfail_from_first_server_rotates_to_sibling() {
        // example.com has two glued nameservers; the first is misconfigured
        // (authoritative for nothing, so it answers SERVFAIL), the second
        // is healthy. The refusal must not end the resolution.
        let net = Network::new(NetConfig::default());
        let root_ip = ip("198.41.0.4");
        let com_ip = ip("192.5.6.30");
        let bad_ip = ip("203.0.113.55");
        let good_ip = ip("203.0.113.53");

        let mut root = Zone::new(DomainName::root());
        root.delegate(
            n("com"),
            &[n("a.gtld-servers.net")],
            &[(n("a.gtld-servers.net"), com_ip)],
        );
        let mut com = Zone::new(n("com"));
        com.delegate(
            n("example.com"),
            &[n("ns-bad.example.com"), n("ns-good.example.com")],
            &[
                (n("ns-bad.example.com"), bad_ip),
                (n("ns-good.example.com"), good_ip),
            ],
        );
        let mut example = Zone::new(n("example.com"));
        example.add_a(n("example.com"), ip("203.0.113.10"));

        let _servers = [
            auth(&net, root_ip, Region::NORTH_AMERICA, vec![root], None),
            auth(&net, com_ip, Region::NORTH_AMERICA, vec![com], None),
            // Misconfigured: serves no zones at all, so every query gets
            // SERVFAIL.
            auth(&net, bad_ip, Region::EUROPE, vec![], None),
            auth(&net, good_ip, Region::EUROPE, vec![example], None),
        ];

        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE);
        let mut r = IterativeResolver::new(ep, vec![root_ip], fast_config());
        let addrs = r.resolve_a(&n("example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.10")]);
    }

    /// Replies alive at once, as a refusal held while the next server is
    /// asked, keep their own bytes: each owns the buffer its exchange
    /// wrote, and a buffer given back is written over only by a later
    /// exchange, never under a reply still held.
    #[test]
    fn replies_alive_at_once_keep_their_own_bytes() {
        let net = Network::new(NetConfig::default());
        let (bad_ip, good_ip) = (ip("203.0.113.55"), ip("203.0.113.53"));
        let mut example = Zone::new(n("example.com"));
        example.add_a(n("example.com"), ip("203.0.113.10"));
        let _servers = [
            auth(&net, bad_ip, Region::EUROPE, vec![], None),
            auth(&net, good_ip, Region::EUROPE, vec![example], None),
        ];
        let mut r = resolver(&net, vec![good_ip]);
        let name = n("example.com");
        let ask = |r: &mut IterativeResolver, server| {
            let server = SockAddr::new(server, crate::DNS_PORT);
            r.query_once(server, &name, RecordType::A, Duration::MAX)
                .expect("answered")
        };
        let read = |resp: &ParsedDatagram| {
            let view = resp.view();
            let addrs: Vec<Ipv4Addr> = (view.answers())
                .filter_map(|a| match a.data {
                    RData::A(ip) => Some(ip),
                    _ => None,
                })
                .collect();
            (view.id(), view.rcode(), addrs)
        };
        let refused = ask(&mut r, bad_ip);
        let answer = ask(&mut r, good_ip);
        assert_eq!(read(&refused), (1, Rcode::ServFail, vec![]));
        assert_eq!(read(&answer), (2, Rcode::NoError, vec![ip("203.0.113.10")]));
        // The answer's buffer goes back, and the next exchange writes its
        // shorter reply over it while the refusal is still held.
        r.recycle(answer);
        let again = ask(&mut r, bad_ip);
        assert!(r.spare.is_empty(), "the given-back buffer is reused");
        assert_eq!(read(&again), (3, Rcode::ServFail, vec![]));
        assert_eq!(read(&refused), (1, Rcode::ServFail, vec![]));
    }

    /// One faulty + one clean authoritative for example.com; the faulty one
    /// mangles every answer per `kind`.
    fn faulty_pair_world(
        net: &Network,
        kind: webdep_netsim::FaultKind,
    ) -> (Vec<ResponderSet>, Vec<Ipv4Addr>) {
        let root_ip = ip("198.41.0.4");
        let com_ip = ip("192.5.6.30");
        let faulty_ip = ip("203.0.113.55");
        let clean_ip = ip("203.0.113.53");

        let mut root = Zone::new(DomainName::root());
        root.delegate(
            n("com"),
            &[n("a.gtld-servers.net")],
            &[(n("a.gtld-servers.net"), com_ip)],
        );
        let mut com = Zone::new(n("com"));
        com.delegate(
            n("example.com"),
            &[n("ns-faulty.example.com"), n("ns-clean.example.com")],
            &[
                (n("ns-faulty.example.com"), faulty_ip),
                (n("ns-clean.example.com"), clean_ip),
            ],
        );
        let mut example = Zone::new(n("example.com"));
        example.add_a(n("example.com"), ip("203.0.113.10"));

        let plan = FaultPlan::flaky(1, 1.0, 1.0, vec![kind]);
        let servers = vec![
            auth(net, root_ip, Region::NORTH_AMERICA, vec![root], None),
            auth(net, com_ip, Region::NORTH_AMERICA, vec![com], None),
            auth(
                net,
                faulty_ip,
                Region::EUROPE,
                vec![example.clone()],
                Some(plan),
            ),
            auth(net, clean_ip, Region::EUROPE, vec![example], None),
        ];
        (servers, vec![root_ip])
    }

    #[test]
    fn truncating_server_is_counted_and_survived() {
        let net = Network::new(NetConfig::default());
        let (_servers, roots) = faulty_pair_world(&net, webdep_netsim::FaultKind::Truncate);
        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE);
        let mut r = IterativeResolver::new(ep, roots, fast_config());
        let addrs = r.resolve_a(&n("example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.10")]);
        assert!(
            r.stats().malformed_datagrams >= 1,
            "truncated answers should be counted: {:?}",
            r.stats()
        );
    }

    #[test]
    fn garbling_server_is_counted_and_survived() {
        let net = Network::new(NetConfig::default());
        let (_servers, roots) = faulty_pair_world(&net, webdep_netsim::FaultKind::Garble);
        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE);
        let mut r = IterativeResolver::new(ep, roots, fast_config());
        let addrs = r.resolve_a(&n("example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.10")]);
        assert!(
            r.stats().mismatched_ids >= 1,
            "garbled answers should be counted: {:?}",
            r.stats()
        );
    }

    /// root -> com -> example.com, whose one nameserver serves `hosts`
    /// (and the apex) under `plan`, at `SLOW_NS`.
    fn one_ns_world(net: &Network, hosts: &[&str], plan: FaultPlan) -> Vec<ResponderSet> {
        let com_ip = ip("192.5.6.30");
        let mut root = Zone::new(DomainName::root());
        root.delegate(
            n("com"),
            &[n("a.gtld-servers.net")],
            &[(n("a.gtld-servers.net"), com_ip)],
        );
        let mut com = Zone::new(n("com"));
        com.delegate(
            n("example.com"),
            &[n("ns1.example.com")],
            &[(n("ns1.example.com"), ip(SLOW_NS))],
        );
        let mut example = Zone::new(n("example.com"));
        example.add_a(n("example.com"), ip("203.0.113.10"));
        for host in hosts {
            example.add_a(n(host), ip("203.0.113.11"));
        }
        vec![
            auth(net, ip(ROOT), Region::NORTH_AMERICA, vec![root], None),
            auth(net, com_ip, Region::NORTH_AMERICA, vec![com], None),
            auth(net, ip(SLOW_NS), Region::EUROPE, vec![example], Some(plan)),
        ]
    }

    const ROOT: &str = "198.41.0.4";
    const SLOW_NS: &str = "203.0.113.53";

    fn windowed(timeout_ms: u64, retries: u32) -> ResolverConfig {
        ResolverConfig {
            timeout: Duration::from_millis(timeout_ms),
            retries,
            ..Default::default()
        }
    }

    #[test]
    fn a_delay_times_out_only_past_the_window() {
        // example.com's only nameserver answers every query 20 ms late.
        let plan = FaultPlan::flaky(1, 1.0, 1.0, vec![webdep_netsim::FaultKind::Delay]);
        assert_eq!(plan.delay, Duration::from_millis(20));
        let resolve = |config: ResolverConfig| {
            let net = Network::new(NetConfig::default());
            let _servers = one_ns_world(&net, &[], plan.clone());
            let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE);
            let mut r = IterativeResolver::new(ep, vec![ip(ROOT)], config);
            (r.resolve_a(&n("example.com")), r.queries_sent())
        };
        let answer = Ok(vec![ip("203.0.113.10")]);
        // Within the window (the delay exactly fills it): answered.
        assert_eq!(resolve(windowed(20, 0)), (answer.clone(), 3));
        // Past it, with no retry: a timeout, though the reply was sent.
        assert_eq!(resolve(windowed(10, 0)), (Err(ResolveError::Timeout), 3));
        // The retry round's doubled window (20 ms) takes the re-sent query.
        assert_eq!(resolve(windowed(10, 1)), (answer, 4));
    }

    #[test]
    fn a_demoted_server_is_answered_like_a_live_one() {
        // The nameserver drops some names and delays the others by 20 ms:
        // a live server is answered in the retry round (window 20 ms).
        use webdep_netsim::FaultKind;
        let plan = FaultPlan::flaky(5, 1.0, 1.0, vec![FaultKind::Drop, FaultKind::Delay]);
        let hosts: Vec<String> = (0..64).map(|i| format!("h{i}.example.com")).collect();
        let fault = |host: &&String| plan.query_fault(ip(SLOW_NS), host.as_bytes());
        let dropped: Vec<&String> = (hosts.iter())
            .filter(|h| fault(h) == Some(FaultKind::Drop))
            .take(DEAD_AFTER_STRIKES as usize)
            .collect();
        let delayed = (hosts.iter())
            .find(|h| fault(h) == Some(FaultKind::Delay))
            .map(|h| n(h))
            .expect("some name is delayed");
        let net = Network::new(NetConfig::default());
        let hosts: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let _servers = one_ns_world(&net, &hosts, plan.clone());
        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE);
        let mut r = IterativeResolver::new(ep, vec![ip(ROOT)], windowed(10, 1));
        // Every dropped name fails a whole pass: a strike each, until
        // the server is demoted.
        for host in dropped {
            assert_eq!(r.resolve_a(&n(host)), Err(ResolveError::Timeout));
        }
        // Demoted, it gets one probe instead of two, but with the widest
        // window, so the delayed answer still comes in.
        let before = r.queries_sent();
        assert_eq!(r.resolve_a(&delayed), Ok(vec![ip("203.0.113.11")]));
        assert_eq!(r.queries_sent() - before, 1);
    }

    /// A lame server for `example.com` refers every query to `victim.org`,
    /// with glue pointing back at itself. The referral does not enclose the
    /// name asked for, so it is refused at once: one query, ServFail, and
    /// neither a `victim.org` cut nor its glue cached.
    #[test]
    fn a_referral_away_from_the_name_is_refused_and_not_cached() {
        use crate::wire::RData;
        let net = Network::new(NetConfig::default());
        let lame = ip("203.0.113.66");
        let server = ResponderSet::new(&net, move |d: &Datagram, out: &mut Vec<u8>| {
            serve_query(d.payload, d.dst.ip, None, out, |_, reply| {
                reply.authority("victim.org", 3600, RData::Ns("ns.victim.org"));
                reply.additional("ns.victim.org", 3600, RData::A(lame));
            })
        });
        server.attach(lame, 53, Region::EUROPE).unwrap();
        let mut r = resolver(&net, vec![lame]);
        assert_eq!(r.resolve_a(&n("example.com")), Err(ResolveError::ServFail));
        assert_eq!(r.queries_sent(), 1);
        assert_eq!(private_entries(&r), 0);
        assert!(r.names.is_empty(), "{:?}", r.names);
    }

    /// A referral that does not lead below the cut the query went to (here
    /// the `com` registry referring `example.com` queries back to `com`)
    /// is refused too, instead of being chased to the depth limit.
    #[test]
    fn a_referral_back_up_is_refused() {
        use crate::wire::RData;
        let net = Network::new(NetConfig::default());
        let (_servers, roots) = build_world(&net);
        let loopy = ip("192.5.6.40");
        let server = ResponderSet::new(&net, move |d: &Datagram, out: &mut Vec<u8>| {
            serve_query(d.payload, d.dst.ip, None, out, |_, reply| {
                reply.authority("com", 3600, RData::Ns("a.gtld-servers.net"));
                reply.additional("a.gtld-servers.net", 3600, RData::A(loopy));
            })
        });
        server.attach(loopy, 53, Region::EUROPE).unwrap();
        let mut r = resolver(&net, roots);
        // Learn the `com` cut, then point it at the loopy server.
        r.resolve_a(&n("www.example.com")).unwrap();
        r.names.get_mut("com").unwrap().cut = Some(Arc::from(vec![loopy]));
        let before = r.queries_sent();
        assert_eq!(r.resolve_a(&n("other.com")), Err(ResolveError::ServFail));
        assert_eq!(r.queries_sent() - before, 1);
    }
}
