//! The datagram network: responders, unicast and anycast routing, loss.
//!
//! A client talks to the fabric in exchanges: [`Endpoint::exchange`] sends
//! one query and returns the responder's reply, if one comes in time, in
//! the same call. The responder tables are lock-striped across
//! [`NUM_SHARDS`] independent `RwLock`ed maps (an exchange only ever takes
//! read locks), delivery counters are striped per thread on their own
//! cache lines and summed on read, and each loss decision is a pure
//! function of the seed, the client and its exchange count, so what a
//! client receives never depends on other clients or on how threads
//! interleave.

use crate::addr::SockAddr;
use crate::error::NetError;
use crate::fault::{FaultPlan, FaultedReply};
use crate::latency::LatencyModel;
use crate::packet::Datagram;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
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
    /// Optional fault-injection plan. Servers the plan declares out
    /// ([`FaultPlan::server_out`]) become transport-level black holes:
    /// every query addressed to one is silently eaten (counted in
    /// [`NetStats::faulted`]), whatever the protocol on top. Only the
    /// query leg is checked, so a client never loses a reply to it.
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

/// Delivery counters, readable at any time via [`Network::stats`]. Each
/// exchange counts its query leg and, when the responder answers, its
/// reply leg.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams handed to the network: queries and replies.
    pub sent: u64,
    /// Datagrams that reached the other side: queries delivered to a
    /// responder and replies delivered to their client, whether or not the
    /// reply came within the client's window.
    pub delivered: u64,
    /// Datagrams dropped by the loss process.
    pub dropped: u64,
    /// Queries that failed because nothing was bound at the destination.
    pub unreachable: u64,
    /// Queries black-holed because the fault plan has the destination
    /// server out.
    pub faulted: u64,
    /// Sum of simulated one-way latency over delivered datagrams (ms).
    pub total_latency_ms: u64,
}

/// A synchronous service function bound at an address. It is invoked
/// *inline on the client's thread* with each delivered query; a reply with
/// a payload goes back to the client within the same
/// [`Endpoint::exchange`], through loss and latency accounting, and arrives
/// as late as the reply's delay.
pub type ResponderFn = dyn Fn(&Datagram) -> FaultedReply + Send + Sync;

/// One site of a responder: its function and where it stands.
struct Bound {
    respond: Arc<ResponderFn>,
    region: Region,
}

/// Number of lock stripes for the responder tables.
pub const NUM_SHARDS: usize = 16;

/// An address's 48 bits, the key of its shard and of its loss stream.
fn addr_bits(addr: &SockAddr) -> u64 {
    (u64::from(u32::from(addr.ip)) << 16) | u64::from(addr.port)
}

/// An address's shard: SplitMix64 over its bits, which spreads an address
/// block evenly for a fraction of SipHash's cost per exchange.
fn shard_index(addr: &SockAddr) -> usize {
    (splitmix64(addr_bits(addr)) as usize) % NUM_SHARDS
}

/// One lock stripe of the responder tables.
#[derive(Default)]
struct Shard {
    unicast: RwLock<HashMap<SockAddr, Bound>>,
    anycast: RwLock<HashMap<SockAddr, Vec<Bound>>>,
}

/// Number of counter stripes. Threads take stripes round-robin; threads
/// beyond this count share one, which costs contention, never accuracy.
const STAT_STRIPES: usize = 32;

/// One thread's delivery counters, on cache lines of its own so the hot
/// exchange neither locks nor bounces a line shared with other senders.
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

    /// The exact sum over all stripes (of every exchange that has returned).
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

/// SplitMix64: a drop decision is a pure function of the seed, so loss is
/// reproducible per client no matter how concurrent exchanges interleave.
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

    /// A client endpoint at `ip:port` located in `region`. A client takes
    /// no place in the tables: it only ever hears the replies to its own
    /// queries, so any number of clients may share an address, and one at
    /// a responder's address changes nothing about who answers. Servers
    /// are inline responders ([`crate::ResponderSet`]) instead.
    pub fn bind(&self, ip: Ipv4Addr, port: u16, region: Region) -> Endpoint {
        Endpoint {
            addr: SockAddr::new(ip, port),
            region,
            exchanges: 0,
            net: self.clone(),
        }
    }

    /// Binds an address onto an inline service function (responder-set
    /// support): queries to it are answered on the client's thread. Lock
    /// order within a shard is always unicast before anycast. Fails with
    /// [`NetError::AddrInUse`] when the address is bound, or announced and
    /// `anycast` is false: a unicast binding would shadow every site.
    pub(crate) fn bind_responder(
        &self,
        addr: SockAddr,
        region: Region,
        respond: Arc<ResponderFn>,
        anycast: bool,
    ) -> Result<(), NetError> {
        let shard = self.shard(&addr);
        let mut unicast = shard.unicast.write();
        let mut sites = shard.anycast.write();
        if unicast.contains_key(&addr) || (!anycast && sites.contains_key(&addr)) {
            return Err(NetError::AddrInUse(addr));
        }
        let bound = Bound { respond, region };
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

/// A client endpoint: asks responders and hears their replies, one
/// exchange at a time.
pub struct Endpoint {
    addr: SockAddr,
    region: Region,
    /// Exchanges made so far: the position in this client's loss stream.
    exchanges: u64,
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
    /// The client's socket address.
    pub fn addr(&self) -> SockAddr {
        self.addr
    }

    /// The endpoint's region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Sends `payload` to `dst` and returns the reply when one arrives
    /// within `window` of the send, in simulated time; never waits.
    ///
    /// The query is rolled for loss, black-holed when the fault plan has
    /// `dst`'s server out, and routed to the unicast binding at `dst` or
    /// else to the anycast site nearest this client, whose responder runs
    /// inline. A reply is rolled for loss in turn and arrives as late as
    /// the responder's delay: a reply later than `window` is a timeout.
    /// Lost, black-holed, swallowed and late replies all read `Ok(None)`,
    /// as a UDP client cannot tell them apart; only a destination with
    /// nothing bound is [`NetError::Unreachable`].
    pub fn exchange(
        &mut self,
        dst: SockAddr,
        payload: Bytes,
        window: Duration,
    ) -> Result<Option<Bytes>, NetError> {
        let inner = &*self.net.inner;
        let stats = inner.stats.local();
        let seq = 2 * self.exchanges;
        self.exchanges += 1;

        add(&stats.sent, 1);
        if self.lost(seq) {
            add(&stats.dropped, 1);
            return Ok(None);
        }
        if let Some(plan) = &inner.config.faults {
            if plan.server_out(dst.ip) {
                add(&stats.faulted, 1);
                return Ok(None);
            }
        }

        // Prefer a unicast binding; otherwise route to the nearest anycast
        // site. The read guard is held while the responder runs: nothing
        // it does touches the tables.
        let latency = &inner.config.latency;
        let shard = self.net.shard(&dst);
        let unicast = shard.unicast.read();
        let anycast;
        let site = match unicast.get(&dst) {
            Some(site) => site,
            None => {
                anycast = shard.anycast.read();
                let Some(sites) = anycast.get(&dst) else {
                    add(&stats.unreachable, 1);
                    return Err(NetError::Unreachable(dst));
                };
                sites
                    .iter()
                    .min_by_key(|b| latency.one_way(self.region, b.region))
                    .expect("anycast entries are never empty")
            }
        };
        let one_way = latency.one_way(self.region, site.region).as_millis() as u64;
        add(&stats.delivered, 1);
        add(&stats.total_latency_ms, one_way);
        let query = Datagram {
            src: self.addr,
            dst,
            payload,
        };
        let reply = (site.respond)(&query);

        let Some(payload) = reply.payload else {
            return Ok(None);
        };
        add(&stats.sent, 1);
        if self.lost(seq + 1) {
            add(&stats.dropped, 1);
            return Ok(None);
        }
        add(&stats.delivered, 1);
        add(&stats.total_latency_ms, one_way);
        Ok((reply.delay <= window).then_some(payload))
    }

    /// Whether the loss process eats this client's datagram number `seq`
    /// (a query at `2n`, its reply at `2n + 1` for exchange `n`).
    fn lost(&self, seq: u64) -> bool {
        let config = &self.net.inner.config;
        if config.loss_rate <= 0.0 {
            return false;
        }
        let stream = splitmix64(config.seed ^ addr_bits(&self.addr));
        unit_f64(splitmix64(stream.wrapping_add(seq))) < config.loss_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::ResponderSet;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn echo(d: &Datagram) -> FaultedReply {
        FaultedReply::clean(d.payload.clone())
    }

    /// An echo responder at `addr:7` in `region`.
    fn echo_at(net: &Network, addr: &str, region: Region) -> (ResponderSet, SockAddr) {
        let set = ResponderSet::new(net, echo);
        set.attach(ip(addr), 7, region).unwrap();
        (set, SockAddr::new(ip(addr), 7))
    }

    #[test]
    fn an_exchange_returns_the_reply() {
        let net = Network::new(NetConfig::default());
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let set = ResponderSet::new(&net, {
            let seen = Arc::clone(&seen);
            move |d: &Datagram| {
                seen.lock().push((d.src, d.dst));
                echo(d)
            }
        });
        set.attach(ip("10.0.0.1"), 53, Region::EUROPE).unwrap();
        let server = SockAddr::new(ip("10.0.0.1"), 53);
        let mut client = net.bind(ip("10.0.0.2"), 4000, Region::EUROPE);
        let reply = client.exchange(server, Bytes::from_static(b"hello"), Duration::ZERO);
        assert_eq!(reply, Ok(Some(Bytes::from_static(b"hello"))));
        // The responder saw the query from the client, addressed to it.
        assert_eq!(*seen.lock(), [(client.addr(), server)]);
    }

    #[test]
    fn unreachable_destination() {
        let net = Network::new(NetConfig::default());
        let mut client = net.bind(ip("10.0.0.1"), 4000, Region::ASIA);
        let nowhere = SockAddr::new(ip("10.9.9.9"), 1);
        let err = client.exchange(nowhere, Bytes::new(), Duration::MAX);
        assert_eq!(err, Err(NetError::Unreachable(nowhere)));
        assert_eq!(net.stats().unreachable, 1);
    }

    #[test]
    fn a_reply_later_than_the_window_is_never_received() {
        // An hour: were the delay slept, this test would hang.
        const DELAY: Duration = Duration::from_secs(3600);
        let net = Network::new(NetConfig::default());
        let late = ResponderSet::new(&net, |d: &Datagram| FaultedReply {
            payload: Some(d.payload.clone()),
            delay: DELAY,
        });
        late.attach(ip("10.0.0.7"), 7, Region::ASIA).unwrap();
        let mut client = net.bind(ip("10.0.0.1"), 4000, Region::ASIA);
        let server = SockAddr::new(ip("10.0.0.7"), 7);

        // Stamped an hour late: a half-hour window misses it...
        let missed = client.exchange(server, Bytes::from_static(b"a"), DELAY / 2);
        assert_eq!(missed, Ok(None));
        // ...and a window that covers the delay takes it.
        let got = client.exchange(server, Bytes::from_static(b"b"), DELAY);
        assert_eq!(got, Ok(Some(Bytes::from_static(b"b"))));
        // A late reply still reached the client: it counts as delivered.
        assert_eq!(net.stats().delivered, 4);
    }

    #[test]
    fn a_client_at_an_announced_address_does_not_change_which_site_answers() {
        let net = Network::new(NetConfig::default());
        let tagged =
            |tag: &'static [u8]| move |_: &Datagram| FaultedReply::clean(Bytes::from_static(tag));
        let eu = ResponderSet::new(&net, tagged(b"eu"));
        let asia = ResponderSet::new(&net, tagged(b"as"));
        eu.attach_anycast(ip("3.3.3.3"), 53, Region::EUROPE)
            .unwrap();
        asia.attach_anycast(ip("3.3.3.3"), 53, Region::ASIA)
            .unwrap();
        let site = SockAddr::new(ip("3.3.3.3"), 53);
        // A client in Europe at the announced address itself is still
        // answered by the European site, not by a binding of its own.
        let mut client = net.bind(site.ip, site.port, Region::EUROPE);
        let reply = client.exchange(site, Bytes::from_static(b"q"), Duration::ZERO);
        assert_eq!(reply, Ok(Some(Bytes::from_static(b"eu"))));
        // An announced address cannot also be bound unicast: the binding
        // would shadow every anycast site.
        assert_eq!(
            eu.attach(site.ip, site.port, Region::EUROPE),
            Err(NetError::AddrInUse(site))
        );
    }

    #[test]
    fn loss_drops_packets_deterministically() {
        let net = Network::new(NetConfig {
            loss_rate: 1.0,
            ..Default::default()
        });
        let (_set, server) = echo_at(&net, "10.0.0.1", Region::ASIA);
        let mut client = net.bind(ip("10.0.0.2"), 4000, Region::ASIA);
        // Loss is silent: the exchange succeeds, nothing comes back.
        let reply = client.exchange(server, Bytes::from_static(b"x"), Duration::MAX);
        assert_eq!(reply, Ok(None));
        let stats = net.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn a_clients_losses_do_not_depend_on_other_clients() {
        // Both legs of an exchange roll on the client's own stream, so the
        // replies client `a` receives depend only on the seed, its address
        // and its exchange count: not on `b` asking the same responder in
        // between.
        let pattern = |interleave: bool| -> (Vec<bool>, NetStats) {
            let net = Network::new(NetConfig {
                loss_rate: 0.5,
                seed: 42,
                ..Default::default()
            });
            let (_set, server) = echo_at(&net, "10.0.0.1", Region::ASIA);
            let mut a = net.bind(ip("10.0.0.2"), 4000, Region::ASIA);
            let mut b = net.bind(ip("10.0.0.3"), 4000, Region::ASIA);
            let answered = (0..64u8)
                .map(|i| {
                    let reply = a.exchange(server, Bytes::copy_from_slice(&[i]), Duration::ZERO);
                    if interleave {
                        b.exchange(server, Bytes::from_static(b"noise"), Duration::ZERO)
                            .unwrap();
                    }
                    reply.unwrap().is_some()
                })
                .collect();
            (answered, net.stats())
        };
        let (clean, stats) = pattern(false);
        let answered = clean.iter().filter(|&&x| x).count() as u64;
        assert!(answered > 0, "some exchanges should be answered");
        // Every datagram is dropped or delivered, and some replies are lost
        // after their query got through: 64 queries, then one reply for
        // each query delivered.
        assert_eq!(stats.sent, stats.dropped + stats.delivered);
        assert!(stats.sent - 64 > answered, "some replies should be lost");
        assert_eq!(clean, pattern(true).0);
    }

    #[test]
    fn fault_plan_black_holes_out_servers() {
        let net = Network::new(NetConfig {
            faults: Some(Arc::new(FaultPlan::outages(1, 1.0))),
            ..Default::default()
        });
        let called = Arc::new(AtomicU64::new(0));
        let set = ResponderSet::new(&net, {
            let called = Arc::clone(&called);
            move |d: &Datagram| {
                called.fetch_add(1, Ordering::Relaxed);
                echo(d)
            }
        });
        set.attach(ip("10.0.0.1"), 53, Region::ASIA).unwrap();
        let mut client = net.bind(ip("10.0.0.2"), 4000, Region::ASIA);
        // Like loss, the outage is silent: nothing comes back, and the
        // out server never runs.
        let reply = client.exchange(
            SockAddr::new(ip("10.0.0.1"), 53),
            Bytes::from_static(b"x"),
            Duration::MAX,
        );
        assert_eq!(reply, Ok(None));
        assert_eq!(called.load(Ordering::Relaxed), 0);
        let stats = net.stats();
        assert_eq!(stats.faulted, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn an_outage_eats_the_query_to_the_out_server_only() {
        // Every address is out but the protected live server's, the
        // client's own included: the exchange with the out server returns
        // nothing, and the same client's exchange with the live server is
        // answered, as an outage kills servers, never their clients.
        let net = Network::new(NetConfig {
            faults: Some(Arc::new(FaultPlan {
                protected: vec![ip("10.0.0.9")],
                ..FaultPlan::outages(1, 1.0)
            })),
            ..Default::default()
        });
        let (_out, out_addr) = echo_at(&net, "10.0.0.1", Region::ASIA);
        let (_live, live_addr) = echo_at(&net, "10.0.0.9", Region::ASIA);
        let mut client = net.bind(ip("10.0.0.2"), 4000, Region::ASIA);
        let q = Bytes::from_static(b"q");
        assert_eq!(
            client.exchange(out_addr, q.clone(), Duration::MAX),
            Ok(None)
        );
        assert_eq!(
            client.exchange(live_addr, q.clone(), Duration::MAX),
            Ok(Some(q))
        );
        assert_eq!(net.stats().faulted, 1);
    }

    #[test]
    fn a_cross_region_exchange_counts_the_latency_of_both_legs() {
        let net = Network::new(NetConfig::default());
        let (_set, server) = echo_at(&net, "10.0.0.1", Region::EUROPE);
        let mut client = net.bind(ip("10.0.0.2"), 4000, Region::ASIA);
        client
            .exchange(server, Bytes::from_static(b"x"), Duration::ZERO)
            .unwrap()
            .unwrap();
        let one_way = LatencyModel::default().one_way(Region::ASIA, Region::EUROPE);
        let stats = net.stats();
        assert_eq!(stats.delivered, 2);
        assert_eq!(
            stats.total_latency_ms,
            2 * one_way.as_millis() as u64,
            "query and reply"
        );
    }

    #[test]
    fn striped_stats_sum_exactly_across_threads() {
        // More threads than stripes, so some threads share one.
        const THREADS: u8 = STAT_STRIPES as u8 + 4;
        const EXCHANGES: u64 = 250;
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
                    let mut client = net.bind(Ipv4Addr::new(10, 1, t, 1), 4000, Region::EUROPE);
                    for _ in 0..EXCHANGES {
                        let dst = SockAddr::new(ip("10.0.0.7"), 7);
                        assert_eq!(client.exchange(dst, Bytes::new(), Duration::MAX), Ok(None));
                    }
                });
            }
        });
        let want = u64::from(THREADS) * EXCHANGES;
        let stats = net.stats();
        assert_eq!(stats.sent, want);
        assert_eq!(stats.delivered, want);
        assert_eq!(seen.load(Ordering::Relaxed), want);
    }
}
