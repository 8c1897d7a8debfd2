//! Stub and iterative resolvers over the simulated network.
//!
//! The measurement pipeline resolves every website's A records and its
//! nameservers' A records, as the paper does with ZDNS. The
//! [`IterativeResolver`] starts at root hints, chases referrals (using glue
//! when present, resolving nameserver names otherwise), follows CNAMEs, and
//! caches delegations so bulk resolution does not hammer the root.

use crate::name::DomainName;
use crate::shared_cache::SharedDnsCache;
use crate::wire::{decode, encode_query, Message, Rcode, Record, RecordData, RecordType};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;
use webdep_netsim::{Endpoint, NetError, SockAddr};

/// Resolver tuning knobs.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Per-query receive timeout.
    pub timeout: Duration,
    /// Retries per server before giving up on it.
    pub retries: u32,
    /// Maximum referral depth per resolution.
    pub max_depth: u32,
    /// Maximum CNAME chain length per resolution.
    pub max_cnames: u32,
    /// Total wall-clock cap for one top-level resolution, spanning every
    /// rotation round, backoff, referral, and glueless-NS/CNAME recursion
    /// it triggers. Without it, rotation + exponential backoff bounds each
    /// *attempt* but not their sum, so one pathological (e.g. black-holed)
    /// zone with many nameservers can stall a pipeline worker for the full
    /// strike budget. `None` (the default) keeps the uncapped behaviour;
    /// expiry surfaces as [`ResolveError::Timeout`].
    pub site_deadline: Option<Duration>,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            timeout: Duration::from_millis(250),
            retries: 2,
            max_depth: 16,
            max_cnames: 8,
            site_deadline: None,
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

/// A stub resolver: sends single queries to a given server and matches
/// responses by transaction id, with retries.
pub struct StubResolver {
    endpoint: Endpoint,
    config: ResolverConfig,
    next_id: u16,
    /// Queries sent (including retries); exposed for measurement accounting.
    pub queries_sent: u64,
    /// Received datagrams discarded because they failed to decode
    /// (truncated or corrupted answers).
    pub malformed_datagrams: u64,
    /// Received datagrams that decoded but matched no outstanding query
    /// (wrong id or question — stale, garbled, or spoofed replies).
    pub mismatched_ids: u64,
}

impl StubResolver {
    /// Wraps a bound endpoint.
    pub fn new(endpoint: Endpoint, config: ResolverConfig) -> Self {
        StubResolver {
            endpoint,
            config,
            next_id: 1,
            queries_sent: 0,
            malformed_datagrams: 0,
            mismatched_ids: 0,
        }
    }

    /// Sends `name`/`qtype` to `server` and waits for the matching response.
    pub fn query(
        &mut self,
        server: SockAddr,
        name: &DomainName,
        qtype: RecordType,
    ) -> Result<Message, ResolveError> {
        for _attempt in 0..=self.config.retries {
            match self.query_once(server, name, qtype, self.config.timeout) {
                Err(ResolveError::Timeout) => continue,
                other => return other,
            }
        }
        Err(ResolveError::Timeout)
    }

    /// One send and one wait window against a single server — the building
    /// block the iterative resolver's rotation/backoff schedule is made of.
    pub fn query_once(
        &mut self,
        server: SockAddr,
        name: &DomainName,
        qtype: RecordType,
        timeout: Duration,
    ) -> Result<Message, ResolveError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        self.queries_sent += 1;
        match self.endpoint.send(server, encode_query(id, name, qtype)) {
            Ok(()) => {}
            Err(e) => return Err(ResolveError::Network(e)),
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(ResolveError::Timeout);
            }
            match self.endpoint.recv_timeout(remaining) {
                Ok(dgram) => match decode(&dgram.payload) {
                    Ok(resp) if resp.is_response && resp.id == id && asks(&resp, name, qtype) => {
                        return Ok(resp);
                    }
                    Ok(_) => {
                        // Stale or foreign datagram; keep waiting.
                        self.mismatched_ids += 1;
                        continue;
                    }
                    Err(_) => {
                        self.malformed_datagrams += 1;
                        continue;
                    }
                },
                Err(NetError::Timeout) => return Err(ResolveError::Timeout),
                Err(e) => return Err(ResolveError::Network(e)),
            }
        }
    }
}

/// Whether `msg` carries exactly the one question `name`/`qtype`, as the
/// query this resolver sent did.
fn asks(msg: &Message, name: &DomainName, qtype: RecordType) -> bool {
    matches!(msg.questions.as_slice(), [q] if q.name == *name && q.qtype == qtype)
}

/// A zone's nameserver addresses, shared between both cache tiers and the
/// resolutions that start from them.
type ZoneServers = Arc<[Ipv4Addr]>;

/// Answers for one name, one slot per record type. Nesting by name lets
/// lookups borrow the key instead of building `(name, type)` tuples, and
/// the fixed slots need no allocation of their own.
#[derive(Debug, Default)]
struct AnswerRows([Option<Vec<RecordData>>; 3]);

impl AnswerRows {
    fn slot(qtype: RecordType) -> usize {
        match qtype {
            RecordType::A => 0,
            RecordType::Ns => 1,
            RecordType::Cname => 2,
        }
    }

    /// The cached answer of type `qtype`, if any.
    fn get(&self, qtype: RecordType) -> Option<&[RecordData]> {
        self.0[Self::slot(qtype)].as_deref()
    }
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
    stub: StubResolver,
    roots: ZoneServers,
    /// zone apex -> authoritative server addresses.
    zone_cache: HashMap<DomainName, ZoneServers>,
    /// Completed answers by owner name, then record type. Nesting by name
    /// lets the hot lookup path borrow `name` instead of cloning it into a
    /// `(DomainName, RecordType)` probe key.
    answer_cache: HashMap<DomainName, AnswerRows>,
    /// Shared tier of the root's delegations, consulted when the private
    /// cache holds no cut below the root for a name.
    shared: Option<Arc<SharedDnsCache>>,
    /// Consecutive fully-failed passes per server. A server at
    /// [`DEAD_AFTER_STRIKES`] is demoted: still probed (once, last) so
    /// outcomes stay schedule-independent, but no longer granted the full
    /// backoff schedule. Any successful answer clears its strikes.
    server_strikes: HashMap<Ipv4Addr, u32>,
    /// Wall-clock budget for the in-progress top-level resolution,
    /// installed by the outermost [`IterativeResolver::resolve`] call
    /// (recursive re-entries for CNAMEs and glueless NS names share it).
    budget_deadline: Option<std::time::Instant>,
    /// [`IterativeResolver::query_any`]'s per-server bookkeeping, kept
    /// between calls so a query allocates none.
    query_state: Vec<(Ipv4Addr, u8)>,
    local_cache_hits: u64,
    shared_cache_hits: u64,
}

// Per-server flags of one `query_any` call.
/// Not demoted: granted the full backoff schedule.
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
            stub: StubResolver::new(endpoint, config),
            roots: roots.into(),
            zone_cache: HashMap::new(),
            answer_cache: HashMap::new(),
            shared: None,
            server_strikes: HashMap::new(),
            budget_deadline: None,
            query_state: Vec::new(),
            local_cache_hits: 0,
            shared_cache_hits: 0,
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
        self.stub.queries_sent
    }

    /// Wire/cache accounting for this resolver.
    pub fn stats(&self) -> ResolverStats {
        ResolverStats {
            wire_queries: self.stub.queries_sent,
            local_cache_hits: self.local_cache_hits,
            shared_cache_hits: self.shared_cache_hits,
            malformed_datagrams: self.stub.malformed_datagrams,
            mismatched_ids: self.stub.mismatched_ids,
        }
    }

    /// Resolves A records for `name`.
    pub fn resolve_a(&mut self, name: &DomainName) -> Result<Vec<Ipv4Addr>, ResolveError> {
        self.resolve_picking(name, RecordType::A, |d| match d {
            RecordData::A(ip) => Some(*ip),
            _ => None,
        })
    }

    /// Resolves the NS set of `name` (the nameserver *names*).
    pub fn resolve_ns(&mut self, name: &DomainName) -> Result<Vec<DomainName>, ResolveError> {
        self.resolve_picking(name, RecordType::Ns, |d| match d {
            RecordData::Ns(n) => Some(n.clone()),
            _ => None,
        })
    }

    /// [`IterativeResolver::resolve`], keeping what `pick` extracts. A
    /// private-cache hit is picked straight out of the cache rather than
    /// through a cloned record set.
    fn resolve_picking<T>(
        &mut self,
        name: &DomainName,
        qtype: RecordType,
        pick: impl Fn(&RecordData) -> Option<T>,
    ) -> Result<Vec<T>, ResolveError> {
        if let Some(hit) = self.lookup_local(name, qtype) {
            let picked = hit.iter().filter_map(pick).collect();
            self.local_cache_hits += 1;
            return Ok(picked);
        }
        Ok(self
            .resolve(name, qtype, 0)?
            .iter()
            .filter_map(pick)
            .collect())
    }

    /// Full resolution with caching; returns the terminal record set.
    ///
    /// The outermost call installs the [`ResolverConfig::site_deadline`]
    /// budget (if configured); recursive re-entries — CNAME chasing,
    /// glueless NS resolution, nameserver rotation — run under the same
    /// budget, so the cap bounds the whole resolution tree, not each hop.
    pub fn resolve(
        &mut self,
        name: &DomainName,
        qtype: RecordType,
        cname_depth: u32,
    ) -> Result<Vec<RecordData>, ResolveError> {
        let owns_budget = self.budget_deadline.is_none();
        if owns_budget {
            self.budget_deadline = self
                .stub
                .config
                .site_deadline
                .map(|d| std::time::Instant::now() + d);
        }
        let result = self.resolve_under_budget(name, qtype, cname_depth);
        if owns_budget {
            self.budget_deadline = None;
        }
        result
    }

    /// Remaining budget, if one is installed. `Some(ZERO)` means expired.
    fn budget_remaining(&self) -> Option<Duration> {
        self.budget_deadline
            .map(|d| d.saturating_duration_since(std::time::Instant::now()))
    }

    fn resolve_under_budget(
        &mut self,
        name: &DomainName,
        qtype: RecordType,
        cname_depth: u32,
    ) -> Result<Vec<RecordData>, ResolveError> {
        if cname_depth > self.stub.config.max_cnames {
            return Err(ResolveError::DepthExceeded);
        }
        // Private cache first: borrowed-key lookup.
        if let Some(hit) = self.lookup_local(name, qtype) {
            let hit = hit.to_vec();
            self.local_cache_hits += 1;
            return Ok(hit);
        }

        // Start from the deepest cached zone enclosing `name`.
        let mut servers = self.starting_servers(name);
        // Nameservers of the current zone whose addresses are not in
        // `servers` yet — the rotation reserve when every known address
        // fails.
        let mut pending_ns: Vec<DomainName> = Vec::new();
        let mut depth = 0;
        loop {
            depth += 1;
            if depth > self.stub.config.max_depth {
                return Err(ResolveError::DepthExceeded);
            }
            if self.budget_remaining().is_some_and(|r| r.is_zero()) {
                return Err(ResolveError::Timeout);
            }
            // Only the root's referrals are worth sharing across resolvers.
            let from_root = Arc::ptr_eq(&servers, &self.roots);
            let resp = match self.query_any(&servers, name, qtype) {
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
            match resp.rcode {
                Rcode::NoError => {}
                Rcode::NxDomain => return Err(ResolveError::NxDomain(name.clone())),
                _ => return Err(ResolveError::ServFail),
            }
            if !resp.answers.is_empty() {
                // Split CNAMEs from terminal data; the response is ours, so
                // its records move rather than clone.
                let mut terminal: Vec<RecordData> = Vec::new();
                let mut last_cname: Option<DomainName> = None;
                for r in resp.answers {
                    match r.data {
                        RecordData::Cname(t) => last_cname = Some(t),
                        d if d.record_type() == qtype => terminal.push(d),
                        _ => {}
                    }
                }
                if terminal.is_empty() {
                    if let Some(target) = last_cname {
                        let resolved = self.resolve(&target, qtype, cname_depth + 1)?;
                        self.cache_answer(name, qtype, resolved.clone());
                        return Ok(resolved);
                    }
                    return Err(ResolveError::NoData(name.clone()));
                }
                self.cache_answer(name, qtype, terminal.clone());
                return Ok(terminal);
            }
            // Referral? The zone is the first authority record's owner.
            let mut zone: Option<DomainName> = None;
            let mut ns_names: Vec<DomainName> = Vec::with_capacity(resp.authorities.len());
            for r in resp.authorities {
                if let RecordData::Ns(n) = r.data {
                    ns_names.push(n);
                }
                zone.get_or_insert(r.name);
            }
            if ns_names.is_empty() {
                if resp.authoritative {
                    // Authoritative empty answer: NoData.
                    return Err(ResolveError::NoData(name.clone()));
                }
                return Err(ResolveError::ServFail);
            }
            let zone = zone.expect("authorities non-empty");
            let mut glue: Vec<Ipv4Addr> = resp
                .additionals
                .iter()
                .filter_map(|r| match r.data {
                    RecordData::A(ip) if ns_names.contains(&r.name) => Some(ip),
                    _ => None,
                })
                .collect();
            // NS names the referral carried no glue for: keep them as the
            // rotation reserve rather than forgetting them.
            let mut reserve: Vec<DomainName> = ns_names
                .iter()
                .filter(|ns| {
                    !resp
                        .additionals
                        .iter()
                        .any(|r| r.name == **ns && matches!(r.data, RecordData::A(_)))
                })
                .cloned()
                .collect();
            if glue.is_empty() {
                // Glueless delegation: resolve NS names until one yields
                // addresses; the rest stay in reserve.
                while glue.is_empty() && !reserve.is_empty() {
                    let ns = reserve.remove(0);
                    if let Ok(addrs) = self.resolve_a_guarded(&ns, depth) {
                        glue.extend(addrs);
                    }
                }
            }
            if glue.is_empty() {
                return Err(ResolveError::ServFail);
            }
            pending_ns = reserve;
            self.cache_referral_data(&zone, &ns_names, &resp.additionals);
            let glue = ZoneServers::from(glue);
            if let (true, Some(shared)) = (from_root, &self.shared) {
                shared.put_zone(zone.clone(), Arc::clone(&glue));
            }
            self.zone_cache.insert(zone, Arc::clone(&glue));
            servers = glue;
        }
    }

    /// Caches what a referral already proves: the delegated zone's NS set
    /// and the glue addresses of its nameservers. The authoritative server
    /// would answer those queries with the same record sets (the deployed
    /// worlds publish delegation and apex data from one source), so this
    /// spares one wire round trip per `resolve_ns` and per glued NS
    /// address lookup.
    fn cache_referral_data(
        &mut self,
        zone: &DomainName,
        ns_names: &[DomainName],
        additionals: &[Record],
    ) {
        let ns_data: Vec<RecordData> = ns_names.iter().cloned().map(RecordData::Ns).collect();
        self.cache_answer(zone, RecordType::Ns, ns_data);
        for ns in ns_names {
            let addrs: Vec<RecordData> = additionals
                .iter()
                .filter(|r| &r.name == ns)
                .filter_map(|r| match r.data {
                    RecordData::A(ip) => Some(RecordData::A(ip)),
                    _ => None,
                })
                .collect();
            if !addrs.is_empty() {
                self.cache_answer(ns, RecordType::A, addrs);
            }
        }
    }

    /// Borrowed-key private-cache lookup.
    fn lookup_local(&self, name: &DomainName, qtype: RecordType) -> Option<&[RecordData]> {
        self.answer_cache.get(name)?.get(qtype)
    }

    /// Stores a completed answer in the private cache, cloning the name
    /// only when it has no answers yet.
    fn cache_answer(&mut self, name: &DomainName, qtype: RecordType, data: Vec<RecordData>) {
        let rows = match self.answer_cache.get_mut(name) {
            Some(rows) => rows,
            None => self.answer_cache.entry(name.clone()).or_default(),
        };
        rows.0[AnswerRows::slot(qtype)] = Some(data);
    }

    /// Resolving a glueless NS name must not recurse unboundedly.
    fn resolve_a_guarded(
        &mut self,
        name: &DomainName,
        depth: u32,
    ) -> Result<Vec<Ipv4Addr>, ResolveError> {
        if depth >= self.stub.config.max_depth {
            return Err(ResolveError::DepthExceeded);
        }
        self.resolve_a(name)
    }

    /// Deepest known enclosing zone's servers: the private cache over
    /// every suffix, then the shared tier of root delegations (promoting a
    /// hit), then the root hints. The shared tier holds only cuts the root
    /// hands out, so it is asked only when the private cache holds no cut
    /// at all for the name; a single resolver's shared cuts are all in its
    /// private cache too, so it never hits the shared tier.
    fn starting_servers(&mut self, name: &DomainName) -> ZoneServers {
        if let Some(addrs) = name.suffixes().find_map(|zone| self.zone_cache.get(zone)) {
            return Arc::clone(addrs);
        }
        if let Some(shared) = &self.shared {
            for zone in name.suffixes() {
                if let Some(addrs) = shared.get_zone(zone) {
                    self.shared_cache_hits += 1;
                    let zone = DomainName::parse(zone).expect("a name's suffixes are names");
                    self.zone_cache.insert(zone, Arc::clone(&addrs));
                    return addrs;
                }
            }
        }
        Arc::clone(&self.roots)
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
    /// probed once, last, with the base timeout — still always *tried*, so
    /// which answers we obtain never depends on what this resolver learned
    /// from earlier, unrelated queries; only the time spent does. That
    /// keeps datasets byte-identical across worker counts while letting
    /// runs against dead infrastructure terminate quickly.
    fn query_any(
        &mut self,
        servers: &[Ipv4Addr],
        name: &DomainName,
        qtype: RecordType,
    ) -> Result<Message, ResolveError> {
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
        let base = self.stub.config.timeout;
        let rounds = self.stub.config.retries + 1;
        let mut refused: Option<Message> = None;
        let mut timed_out = false;
        let mut last_net: Option<ResolveError> = None;
        let mut verdict: Option<Message> = None;

        'rounds: for round in 0..rounds {
            let timeout = backoff_timeout(base, round);
            for k in 0..state.len() {
                let (ip, flags) = state[k];
                // Demoted servers get exactly one trailing probe in round 0.
                if flags & LIVE == 0 && round > 0 {
                    continue;
                }
                if flags & (UNREACHABLE | ANSWERED) != 0 {
                    continue;
                }
                let mut attempt_timeout = if flags & LIVE == 0 { base } else { timeout };
                // The resolution-wide budget trumps the backoff schedule:
                // clamp this attempt to what's left, and stop cold once
                // it's spent (a bounded-out zone reports Timeout).
                if let Some(remaining) = self.budget_remaining() {
                    if remaining.is_zero() {
                        timed_out = true;
                        break 'rounds;
                    }
                    attempt_timeout = attempt_timeout.min(remaining);
                }
                mark(&mut state, ip, TRIED);
                match self.stub.query_once(
                    SockAddr::new(ip, crate::DNS_PORT),
                    name,
                    qtype,
                    attempt_timeout,
                ) {
                    Ok(resp) => {
                        mark(&mut state, ip, ANSWERED);
                        match resp.rcode {
                            Rcode::NoError | Rcode::NxDomain => {
                                verdict = Some(resp);
                                break 'rounds;
                            }
                            // A refusal is an answer from a live server,
                            // but another server may do better: rotate on.
                            _ => refused = Some(resp),
                        }
                    }
                    Err(ResolveError::Timeout) => timed_out = true,
                    Err(ResolveError::Network(NetError::Unreachable(a))) => {
                        mark(&mut state, ip, UNREACHABLE);
                        last_net = Some(ResolveError::Network(NetError::Unreachable(a)));
                    }
                    Err(e) => {
                        last_net = Some(e);
                        break 'rounds;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{answer, serve_query};
    use crate::zone::Zone;
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
        let server = ResponderSet::new(net, move |d: &Datagram| {
            serve_query(&d.payload, d.dst.ip, faults.as_ref(), |q| {
                answer(&zones, &q)
            })
            .deliver()
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
        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE).unwrap();
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
        assert_eq!(ns, vec![n("ns1.example.com")]);
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
        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE).unwrap();
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
        let ep1 = net.bind(ip("10.0.0.98"), 3553, Region::EUROPE).unwrap();
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
        let ep2 = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE).unwrap();
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
        let ep3 = net.bind(ip("10.0.0.97"), 3553, Region::EUROPE).unwrap();
        let mut r3 = IterativeResolver::with_shared_cache(
            ep3,
            vec![ip("9.9.9.9")],
            ResolverConfig::default(),
            shared,
        );
        let addrs = r3.resolve_a(&n("example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.10")]);
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
        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE).unwrap();
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

        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE).unwrap();
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

        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE).unwrap();
        let mut r = IterativeResolver::new(ep, vec![root_ip], fast_config());
        let addrs = r.resolve_a(&n("example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.10")]);
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
        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE).unwrap();
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
    fn site_deadline_bounds_a_black_holed_zone() {
        // victim.com is delegated to three nameservers whose addresses are
        // attached but never answer: sends succeed, replies never come, so
        // every attempt runs to its full timeout. Without a site deadline
        // the rotation/backoff schedule across three servers costs many
        // seconds; with one, the resolution must bound out quickly and
        // report Timeout.
        let net = Network::new(NetConfig::default());
        let root_ip = ip("198.41.0.4");
        let com_ip = ip("192.5.6.30");
        let bh = [ip("203.0.113.80"), ip("203.0.113.81"), ip("203.0.113.82")];

        let mut root = Zone::new(DomainName::root());
        root.delegate(
            n("com"),
            &[n("a.gtld-servers.net")],
            &[(n("a.gtld-servers.net"), com_ip)],
        );
        let mut com = Zone::new(n("com"));
        com.delegate(
            n("victim.com"),
            &[
                n("ns1.victim.com"),
                n("ns2.victim.com"),
                n("ns3.victim.com"),
            ],
            &[
                (n("ns1.victim.com"), bh[0]),
                (n("ns2.victim.com"), bh[1]),
                (n("ns3.victim.com"), bh[2]),
            ],
        );
        let _servers = [
            auth(&net, root_ip, Region::NORTH_AMERICA, vec![root], None),
            auth(&net, com_ip, Region::NORTH_AMERICA, vec![com], None),
        ];
        // Black holes: attached (so sends succeed) but never reply.
        let black_holes = ResponderSet::new(&net, |_: &Datagram| None);
        for &a in &bh {
            black_holes.attach(a, 53, Region::EUROPE).unwrap();
        }

        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE).unwrap();
        let mut r = IterativeResolver::new(
            ep,
            vec![root_ip],
            ResolverConfig {
                timeout: Duration::from_millis(100),
                retries: 4,
                site_deadline: Some(Duration::from_millis(250)),
                ..Default::default()
            },
        );
        let start = std::time::Instant::now();
        let err = r.resolve_a(&n("victim.com")).unwrap_err();
        let elapsed = start.elapsed();
        assert_eq!(err, ResolveError::Timeout);
        // Uncapped, three servers x five rounds of up-to-800ms attempts
        // would take > 5s; the budget must cut that to ~the deadline.
        assert!(
            elapsed < Duration::from_millis(1500),
            "black-holed zone took {elapsed:?} despite a 250ms site deadline"
        );
    }

    #[test]
    fn garbling_server_is_counted_and_survived() {
        let net = Network::new(NetConfig::default());
        let (_servers, roots) = faulty_pair_world(&net, webdep_netsim::FaultKind::Garble);
        let ep = net.bind(ip("10.0.0.99"), 3553, Region::EUROPE).unwrap();
        let mut r = IterativeResolver::new(ep, roots, fast_config());
        let addrs = r.resolve_a(&n("example.com")).unwrap();
        assert_eq!(addrs, vec![ip("203.0.113.10")]);
        assert!(
            r.stats().mismatched_ids >= 1,
            "garbled answers should be counted: {:?}",
            r.stats()
        );
    }
}
