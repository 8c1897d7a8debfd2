//! The datagram network: binding, unicast and anycast delivery, loss.
//!
//! The fabric is built for many concurrent senders: the endpoint tables are
//! lock-striped across [`NUM_SHARDS`] independent `RwLock`ed maps (the send
//! path only ever takes read locks), delivery counters are striped per
//! thread on their own cache lines and summed on read, and the loss process
//! derives each drop decision from a per-*sender* counter stream rather
//! than one global RNG behind a mutex — so loss decisions are deterministic
//! per sender regardless of how threads interleave.

use crate::addr::SockAddr;
use crate::error::NetError;
use crate::fault::{FaultPlan, FaultedReply};
use crate::latency::LatencyModel;
use crate::packet::Datagram;
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A coarse geographic region (continent) used for anycast routing and the
/// latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region(u8);

impl Region {
    /// North America.
    pub const NORTH_AMERICA: Region = Region(0);
    /// South America.
    pub const SOUTH_AMERICA: Region = Region(1);
    /// Europe.
    pub const EUROPE: Region = Region(2);
    /// Africa.
    pub const AFRICA: Region = Region(3);
    /// Asia.
    pub const ASIA: Region = Region(4);
    /// Oceania.
    pub const OCEANIA: Region = Region(5);
    /// Number of regions.
    pub const COUNT: usize = 6;
    /// All regions, in index order.
    pub const ALL: [Region; Region::COUNT] = [
        Region::NORTH_AMERICA,
        Region::SOUTH_AMERICA,
        Region::EUROPE,
        Region::AFRICA,
        Region::ASIA,
        Region::OCEANIA,
    ];

    /// Index into region-sized arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Network configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Probability in `[0, 1)` that a datagram is silently dropped.
    pub loss_rate: f64,
    /// Seed for the loss process (deterministic runs).
    pub seed: u64,
    /// Latency model used for anycast site selection and latency accounting.
    pub latency: LatencyModel,
    /// Optional fault-injection plan. Servers the plan declares out become
    /// transport-level black holes: every datagram addressed to one of
    /// their *service ports* is silently eaten (counted in
    /// [`NetStats::faulted`]), whatever the protocol on top. Replies to
    /// clients on ephemeral ports always get through — see
    /// [`FaultPlan::black_holes`].
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            loss_rate: 0.0,
            seed: 0,
            latency: LatencyModel::default(),
            faults: None,
        }
    }
}

/// Delivery counters, readable at any time via [`Network::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams handed to the network.
    pub sent: u64,
    /// Datagrams delivered to an endpoint.
    pub delivered: u64,
    /// Datagrams dropped by the loss process.
    pub dropped: u64,
    /// Sends that failed because nothing was bound at the destination.
    pub unreachable: u64,
    /// Datagrams black-holed because the fault plan has the destination
    /// server out.
    pub faulted: u64,
    /// Sum of simulated one-way latency over delivered datagrams (ms).
    pub total_latency_ms: u64,
}

/// A synchronous service function bound at an address. It is invoked
/// *inline on the sender's thread* with each delivered datagram; a reply
/// with a payload goes back to the datagram's source through the normal
/// send path (loss, latency accounting and all), stamped with the reply's
/// delay ([`Datagram::delay`]).
pub type ResponderFn = dyn Fn(&Datagram) -> FaultedReply + Send + Sync;

/// A client endpoint's queue of received datagrams.
type Queue = Arc<Mutex<VecDeque<Datagram>>>;

/// Where a delivered datagram goes.
#[derive(Clone)]
enum Sink {
    /// Into a client endpoint's queue.
    Queue(Queue),
    /// Into a stateless service function run on the sender's thread.
    Inline(Arc<ResponderFn>),
}

struct Bound {
    sink: Sink,
    region: Region,
}

/// Replies from inline responders re-enter the send path. Responders
/// answering responders is not a pattern the simulation uses, so chains
/// deeper than this count as unreachable rather than recursing away.
const MAX_INLINE_DEPTH: u8 = 4;

/// Number of lock stripes for the endpoint tables.
pub const NUM_SHARDS: usize = 16;

/// A datagram's shard: SplitMix64 over the address's 48 bits, which spreads
/// an address block evenly for a fraction of SipHash's cost per send.
fn shard_index(addr: &SockAddr) -> usize {
    let bits = (u64::from(u32::from(addr.ip)) << 16) | u64::from(addr.port);
    (splitmix64(bits) as usize) % NUM_SHARDS
}

/// The seed of a sender's loss stream. It decides which datagrams drop, so
/// it stays SipHash: changing it would change every store measured under
/// loss.
fn addr_hash(addr: &SockAddr) -> u64 {
    let mut h = DefaultHasher::new();
    addr.hash(&mut h);
    h.finish()
}

/// One lock stripe of the endpoint tables (plus the loss-stream counters of
/// senders hashing into it).
#[derive(Default)]
struct Shard {
    unicast: RwLock<HashMap<SockAddr, Bound>>,
    anycast: RwLock<HashMap<SockAddr, Vec<Bound>>>,
    loss_seq: Mutex<HashMap<SockAddr, u64>>,
}

/// Number of counter stripes. Threads take stripes round-robin; threads
/// beyond this count share one, which costs contention, never accuracy.
const STAT_STRIPES: usize = 32;

/// One thread's delivery counters, on cache lines of its own so the hot
/// send path neither locks nor bounces a line shared with other senders.
#[derive(Default)]
#[repr(align(128))]
struct StatStripe {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    unreachable: AtomicU64,
    faulted: AtomicU64,
    total_latency_ms: AtomicU64,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's stripe index, the same in every network.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STAT_STRIPES;
}

/// Delivery counters striped per thread; a read sums the stripes.
struct StripedStats([StatStripe; STAT_STRIPES]);

impl StripedStats {
    fn new() -> Self {
        StripedStats(std::array::from_fn(|_| StatStripe::default()))
    }

    /// The calling thread's stripe.
    fn local(&self) -> &StatStripe {
        &self.0[STRIPE.with(|s| *s)]
    }

    /// The exact sum over all stripes (of every send that has returned).
    fn snapshot(&self) -> NetStats {
        let sum = |field: fn(&StatStripe) -> &AtomicU64| {
            self.0
                .iter()
                .map(|s| field(s).load(Ordering::Relaxed))
                .sum()
        };
        NetStats {
            sent: sum(|s| &s.sent),
            delivered: sum(|s| &s.delivered),
            dropped: sum(|s| &s.dropped),
            unreachable: sum(|s| &s.unreachable),
            faulted: sum(|s| &s.faulted),
            total_latency_ms: sum(|s| &s.total_latency_ms),
        }
    }
}

/// SplitMix64: the drop decision for (sender, sequence number) is a pure
/// function of the seed, so loss is reproducible per sender no matter how
/// concurrent sends interleave.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

struct NetworkInner {
    shards: [Shard; NUM_SHARDS],
    config: NetConfig,
    stats: StripedStats,
}

/// Handle to a simulated network. Cloning shares the same fabric.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

impl Network {
    /// Creates a fresh, empty network.
    pub fn new(config: NetConfig) -> Self {
        Network {
            inner: Arc::new(NetworkInner {
                shards: std::array::from_fn(|_| Shard::default()),
                config,
                stats: StripedStats::new(),
            }),
        }
    }

    fn shard(&self, addr: &SockAddr) -> &Shard {
        &self.inner.shards[shard_index(addr)]
    }

    /// Binds a client endpoint at `ip:port` located in `region`: datagrams
    /// to it queue until [`Endpoint::recv_within`] takes them. Servers are
    /// inline responders ([`crate::ResponderSet`]) instead. Fails with
    /// [`NetError::AddrInUse`] when the address is bound or announced.
    pub fn bind(&self, ip: Ipv4Addr, port: u16, region: Region) -> Result<Endpoint, NetError> {
        let addr = SockAddr::new(ip, port);
        let queue = Queue::default();
        self.bind_sink(addr, region, Sink::Queue(Arc::clone(&queue)), false)?;
        Ok(Endpoint {
            addr,
            region,
            queue,
            net: self.clone(),
        })
    }

    /// Binds an address onto an inline service function (responder-set
    /// support): datagrams to it are answered on the sender's thread.
    pub(crate) fn bind_responder(
        &self,
        addr: SockAddr,
        region: Region,
        f: Arc<ResponderFn>,
        anycast: bool,
    ) -> Result<(), NetError> {
        self.bind_sink(addr, region, Sink::Inline(f), anycast)
    }

    /// Binds `sink` at `addr`: the one bind path, so neither kind of
    /// binding can shadow or join the other. Lock order within a shard is
    /// always unicast before anycast.
    fn bind_sink(
        &self,
        addr: SockAddr,
        region: Region,
        sink: Sink,
        anycast: bool,
    ) -> Result<(), NetError> {
        let shard = self.shard(&addr);
        let mut unicast = shard.unicast.write();
        let mut sites = shard.anycast.write();
        if unicast.contains_key(&addr) || (!anycast && sites.contains_key(&addr)) {
            return Err(NetError::AddrInUse(addr));
        }
        let bound = Bound { sink, region };
        if anycast {
            sites.entry(addr).or_default().push(bound);
        } else {
            unicast.insert(addr, bound);
        }
        Ok(())
    }

    /// Snapshot of delivery counters.
    pub fn stats(&self) -> NetStats {
        self.inner.stats.snapshot()
    }

    /// Whether the next datagram from `src` is eaten by the loss process.
    ///
    /// Each sender gets its own counter-indexed SplitMix64 stream, so the
    /// decisions a sender sees depend only on the seed and its own send
    /// count — never on other senders or thread scheduling.
    fn loss_roll(&self, src: SockAddr) -> bool {
        let seq = {
            let mut seqs = self.shard(&src).loss_seq.lock();
            let seq = seqs.entry(src).or_insert(0);
            let n = *seq;
            *seq += 1;
            n
        };
        let stream = splitmix64(self.inner.config.seed ^ addr_hash(&src));
        let roll = unit_f64(splitmix64(stream.wrapping_add(seq)));
        roll < self.inner.config.loss_rate
    }

    /// Sends `dgram` from `src_region`. `depth` counts the responder
    /// replies this send is nested in.
    fn send_from_depth(
        &self,
        dgram: Datagram,
        src_region: Region,
        depth: u8,
    ) -> Result<(), NetError> {
        let (src, dst) = (dgram.src, dgram.dst);
        let inner = &self.inner;
        let stats = inner.stats.local();
        add(&stats.sent, 1);

        if inner.config.loss_rate > 0.0 && self.loss_roll(src) {
            add(&stats.dropped, 1);
            return Ok(()); // silent loss, like the real thing
        }

        // An out server is a black hole, not an unbound address: the sender
        // cannot tell the difference between outage and loss, exactly like a
        // dead host behind a live route. Only datagrams addressed to the
        // server's service ports are eaten — a reply to a client's
        // ephemeral port is not traffic *to* the dead server.
        if let Some(plan) = &inner.config.faults {
            if plan.black_holes(dst.ip, dst.port) {
                add(&stats.faulted, 1);
                return Ok(());
            }
        }

        // Prefer a unicast binding; otherwise route to the best anycast
        // site. The sink is cloned out so no shard lock is held while
        // delivering (an inline responder's reply re-enters this path).
        let shard = self.shard(&dst);
        let (sink, dst_region) = {
            let unicast = shard.unicast.read();
            if let Some(b) = unicast.get(&dst) {
                (b.sink.clone(), b.region)
            } else {
                drop(unicast);
                let anycast = shard.anycast.read();
                let Some(sites) = anycast.get(&dst) else {
                    add(&stats.unreachable, 1);
                    return Err(NetError::Unreachable(dst));
                };
                let best = sites
                    .iter()
                    .min_by_key(|b| inner.config.latency.one_way(src_region, b.region))
                    .expect("anycast entries are never empty");
                (best.sink.clone(), best.region)
            }
        };

        if matches!(sink, Sink::Inline(_)) && depth >= MAX_INLINE_DEPTH {
            add(&stats.unreachable, 1);
            return Err(NetError::Unreachable(dst));
        }
        let latency = inner.config.latency.one_way(src_region, dst_region);
        add(&stats.delivered, 1);
        add(&stats.total_latency_ms, latency.as_millis() as u64);
        match sink {
            Sink::Queue(queue) => queue.lock().push_back(dgram),
            Sink::Inline(f) => {
                let reply = f(&dgram);
                if let Some(payload) = reply.payload {
                    // The responder answers from the address it was queried
                    // at, in the region anycast routing selected, as late
                    // as the query came plus its own delay.
                    let reply = Datagram {
                        src: dst,
                        dst: src,
                        payload,
                        delay: dgram.delay + reply.delay,
                    };
                    let _ = self.send_from_depth(reply, dst_region, depth + 1);
                }
            }
        }
        Ok(())
    }

    /// Removes a binding (one anycast site: the one in `region`).
    pub(crate) fn unbind(&self, addr: SockAddr, anycast: bool, region: Region) {
        let shard = self.shard(&addr);
        if anycast {
            let mut map = shard.anycast.write();
            if let Some(sites) = map.get_mut(&addr) {
                // Remove one site in this region (the responder's own).
                if let Some(pos) = sites.iter().position(|b| b.region == region) {
                    sites.remove(pos);
                }
                if sites.is_empty() {
                    map.remove(&addr);
                }
            }
        } else {
            shard.unicast.write().remove(&addr);
        }
    }
}

/// A client endpoint: sends datagrams and queues the ones addressed to it
/// (the replies of the responders it queried).
///
/// Dropping the endpoint unbinds the address.
pub struct Endpoint {
    addr: SockAddr,
    region: Region,
    queue: Queue,
    net: Network,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("addr", &self.addr)
            .field("region", &self.region)
            .finish_non_exhaustive()
    }
}

impl Endpoint {
    /// The bound socket address.
    pub fn addr(&self) -> SockAddr {
        self.addr
    }

    /// The endpoint's region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Sends a datagram to `dst`.
    ///
    /// Returns [`NetError::Unreachable`] when nothing is bound there.
    /// A datagram consumed by the loss process still returns `Ok` — the
    /// sender cannot tell, exactly like UDP.
    pub fn send(&self, dst: SockAddr, payload: Bytes) -> Result<(), NetError> {
        let dgram = Datagram {
            src: self.addr,
            dst,
            payload,
            delay: Duration::ZERO,
        };
        self.net.send_from_depth(dgram, self.region, 0)
    }

    /// Takes the next queued datagram that arrives within `window` of its
    /// send ([`Datagram::delay`] at most `window`); `None` when there is
    /// none. Never waits: every server is an inline responder, so a reply
    /// is queued before [`Endpoint::send`] returns or never comes. Queued
    /// datagrams that arrive later than the window are discarded on the
    /// way, as a reader that stopped listening never sees them.
    pub fn recv_within(&self, window: Duration) -> Option<Datagram> {
        let mut queue = self.queue.lock();
        std::iter::from_fn(|| queue.pop_front()).find(|d| d.delay <= window)
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.net.unbind(self.addr, false, self.region);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn unicast_roundtrip() {
        let net = Network::new(NetConfig::default());
        let a = net.bind(ip("10.0.0.1"), 53, Region::EUROPE).unwrap();
        let b = net.bind(ip("10.0.0.2"), 4000, Region::EUROPE).unwrap();
        b.send(a.addr(), Bytes::from_static(b"hello")).unwrap();
        let d = a.recv_within(Duration::ZERO).unwrap();
        assert_eq!(&d.payload[..], b"hello");
        assert_eq!(d.src, b.addr());
        // Reply path.
        a.send(d.src, Bytes::from_static(b"world")).unwrap();
        let r = b.recv_within(Duration::ZERO).unwrap();
        assert_eq!(&r.payload[..], b"world");
    }

    #[test]
    fn double_bind_rejected() {
        let net = Network::new(NetConfig::default());
        let _a = net.bind(ip("10.0.0.1"), 53, Region::ASIA).unwrap();
        let err = net.bind(ip("10.0.0.1"), 53, Region::ASIA).unwrap_err();
        assert!(matches!(err, NetError::AddrInUse(_)));
        // Different port is fine.
        assert!(net.bind(ip("10.0.0.1"), 54, Region::ASIA).is_ok());
    }

    #[test]
    fn unreachable_destination() {
        let net = Network::new(NetConfig::default());
        let a = net.bind(ip("10.0.0.1"), 53, Region::ASIA).unwrap();
        let err = a
            .send(SockAddr::new(ip("10.9.9.9"), 1), Bytes::new())
            .unwrap_err();
        assert!(matches!(err, NetError::Unreachable(_)));
        assert_eq!(net.stats().unreachable, 1);
    }

    #[test]
    fn drop_unbinds() {
        let net = Network::new(NetConfig::default());
        let a = net.bind(ip("10.0.0.1"), 53, Region::ASIA).unwrap();
        let addr = a.addr();
        drop(a);
        let b = net.bind(ip("10.0.0.2"), 1, Region::ASIA).unwrap();
        assert!(matches!(
            b.send(addr, Bytes::new()),
            Err(NetError::Unreachable(_))
        ));
        // Rebinding works.
        assert!(net.bind(ip("10.0.0.1"), 53, Region::EUROPE).is_ok());
    }

    #[test]
    fn a_reply_later_than_the_window_is_never_received() {
        use crate::shared::ResponderSet;
        // An hour: were the delay slept, this test would hang.
        const DELAY: Duration = Duration::from_secs(3600);
        let net = Network::new(NetConfig::default());
        let late = ResponderSet::new(&net, |d: &Datagram| FaultedReply {
            payload: Some(d.payload.clone()),
            delay: DELAY,
        });
        late.attach(ip("10.0.0.7"), 7, Region::ASIA).unwrap();
        let client = net.bind(ip("10.0.0.1"), 4000, Region::ASIA).unwrap();
        let server = SockAddr::new(ip("10.0.0.7"), 7);
        assert!(client.recv_within(Duration::MAX).is_none(), "empty queue");

        // Queued at once, but stamped an hour late: a half-hour window
        // misses it, and it is gone for any later window too.
        client.send(server, Bytes::from_static(b"a")).unwrap();
        assert!(client.recv_within(DELAY / 2).is_none());
        assert!(client.recv_within(Duration::MAX).is_none());

        // A window that covers the delay takes it.
        client.send(server, Bytes::from_static(b"b")).unwrap();
        let d = client.recv_within(DELAY).unwrap();
        assert_eq!((&d.payload[..], d.delay), (&b"b"[..], DELAY));
    }

    #[test]
    fn anycast_and_unicast_do_not_mix() {
        use crate::shared::ResponderSet;
        let net = Network::new(NetConfig::default());
        let set = ResponderSet::new(&net, |_: &Datagram| FaultedReply::swallowed());
        // A bound address cannot also be announced...
        let _u = net.bind(ip("2.2.2.2"), 53, Region::EUROPE).unwrap();
        assert!(set.attach_anycast(ip("2.2.2.2"), 53, Region::ASIA).is_err());
        // ...nor an announced one bound: the binding would shadow every
        // anycast site, since delivery prefers unicast.
        set.attach_anycast(ip("3.3.3.3"), 53, Region::ASIA).unwrap();
        assert!(matches!(
            net.bind(ip("3.3.3.3"), 53, Region::EUROPE),
            Err(NetError::AddrInUse(_))
        ));
    }

    #[test]
    fn loss_drops_packets_deterministically() {
        let net = Network::new(NetConfig {
            loss_rate: 1.0,
            ..Default::default()
        });
        let a = net.bind(ip("10.0.0.1"), 53, Region::ASIA).unwrap();
        let b = net.bind(ip("10.0.0.2"), 1, Region::ASIA).unwrap();
        // Loss is silent: send succeeds, nothing arrives.
        b.send(a.addr(), Bytes::from_static(b"x")).unwrap();
        assert!(a.recv_within(Duration::MAX).is_none());
        let stats = net.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn loss_is_deterministic_per_sender() {
        // The drop pattern a sender sees must depend only on (seed, sender),
        // not on what other senders do in between.
        let pattern = |interleave: bool| -> Vec<bool> {
            let net = Network::new(NetConfig {
                loss_rate: 0.5,
                seed: 42,
                ..Default::default()
            });
            let sink = net.bind(ip("10.0.0.1"), 53, Region::ASIA).unwrap();
            let a = net.bind(ip("10.0.0.2"), 1, Region::ASIA).unwrap();
            let b = net.bind(ip("10.0.0.3"), 1, Region::ASIA).unwrap();
            let mut got = Vec::new();
            for i in 0..32u8 {
                a.send(sink.addr(), Bytes::copy_from_slice(&[i])).unwrap();
                if interleave {
                    // Noise from another sender must not perturb a's stream.
                    b.send(sink.addr(), Bytes::from_static(b"noise")).unwrap();
                }
                let mut arrived = false;
                while let Some(d) = sink.recv_within(Duration::ZERO) {
                    if d.src == a.addr() {
                        arrived = true;
                    }
                }
                got.push(arrived);
            }
            got
        };
        let clean = pattern(false);
        assert!(clean.iter().any(|&x| x), "some datagrams should survive");
        assert!(!clean.iter().all(|&x| x), "some datagrams should drop");
        assert_eq!(clean, pattern(true));
    }

    #[test]
    fn fault_plan_black_holes_out_servers() {
        let net = Network::new(NetConfig {
            faults: Some(Arc::new(FaultPlan::outages(1, 1.0))),
            ..Default::default()
        });
        let a = net.bind(ip("10.0.0.1"), 53, Region::ASIA).unwrap();
        let b = net.bind(ip("10.0.0.2"), 1, Region::ASIA).unwrap();
        // Like loss, the outage is silent: send succeeds, nothing arrives.
        b.send(a.addr(), Bytes::from_static(b"x")).unwrap();
        assert!(a.recv_within(Duration::MAX).is_none());
        let stats = net.stats();
        assert_eq!(stats.faulted, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn outage_never_eats_replies_to_ephemeral_ports() {
        // Every address is "out", yet a reply to a client bound on an
        // ephemeral port must still arrive: outages kill servers (service
        // ports), not the clients that queried them.
        let net = Network::new(NetConfig {
            faults: Some(Arc::new(FaultPlan::outages(1, 1.0))),
            ..Default::default()
        });
        let server = net.bind(ip("10.0.0.1"), 53, Region::ASIA).unwrap();
        let client = net.bind(ip("10.0.0.2"), 33000, Region::ASIA).unwrap();
        server
            .send(client.addr(), Bytes::from_static(b"reply"))
            .unwrap();
        let d = client.recv_within(Duration::ZERO).unwrap();
        assert_eq!(&d.payload[..], b"reply");
        // The forward direction (to the server's service port) stays eaten.
        client
            .send(server.addr(), Bytes::from_static(b"q"))
            .unwrap();
        assert!(server.recv_within(Duration::MAX).is_none());
        assert_eq!(net.stats().faulted, 1);
    }

    #[test]
    fn stats_accumulate_latency() {
        let net = Network::new(NetConfig::default());
        let a = net.bind(ip("10.0.0.1"), 53, Region::EUROPE).unwrap();
        let b = net.bind(ip("10.0.0.2"), 1, Region::ASIA).unwrap();
        b.send(a.addr(), Bytes::from_static(b"x")).unwrap();
        let stats = net.stats();
        assert_eq!(stats.delivered, 1);
        assert!(stats.total_latency_ms >= 15);
    }

    #[test]
    fn striped_stats_sum_exactly_across_threads() {
        use crate::shared::ResponderSet;
        // More sending threads than stripes, so some threads share one.
        const THREADS: u8 = STAT_STRIPES as u8 + 4;
        const SENDS: u64 = 250;
        let net = Network::new(NetConfig::default());
        let seen = Arc::new(AtomicU64::new(0));
        let sink = ResponderSet::new(&net, {
            let seen = Arc::clone(&seen);
            move |_: &Datagram| {
                seen.fetch_add(1, Ordering::Relaxed);
                FaultedReply::swallowed()
            }
        });
        sink.attach(ip("10.0.0.7"), 7, Region::ASIA).unwrap();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let net = &net;
                s.spawn(move || {
                    let client = net
                        .bind(Ipv4Addr::new(10, 1, t, 1), 1, Region::EUROPE)
                        .unwrap();
                    for _ in 0..SENDS {
                        client
                            .send(SockAddr::new(ip("10.0.0.7"), 7), Bytes::new())
                            .unwrap();
                    }
                });
            }
        });
        let want = u64::from(THREADS) * SENDS;
        let stats = net.stats();
        assert_eq!(stats.sent, want);
        assert_eq!(stats.delivered, want);
        assert_eq!(seen.load(Ordering::Relaxed), want);
    }
}
