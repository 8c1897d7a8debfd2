//! The datagram network: responders, unicast and anycast routing, loss.
//!
//! A client talks to the fabric in exchanges: [`Endpoint::exchange`] sends
//! one query and returns the responder's reply, if one comes in time, in
//! the same call. An exchange takes no lock, and it makes no
//! read-modify-write that another thread's exchanges make too:
//!
//! * **Routing.** One routing table (unicast and anycast) maps every bound
//!   address to its sites. Binding and unbinding edit it under one lock,
//!   copying it first if endpoints share it, and bump the network's
//!   generation. Every endpoint holds an `Arc` of the table and the
//!   generation it read it at; an exchange reads the generation once and
//!   re-reads the table only when it moved. So a deployed world binds
//!   everything into one table, in place, and then every endpoint routes
//!   through that one table with plain reads.
//! * **Counters** are striped per thread on their own cache lines and
//!   summed on read.
//! * **Loss** is a pure function of the seed, the client and its exchange
//!   count, so what a client receives never depends on other clients or on
//!   how threads interleave.

use crate::addr::SockAddr;
use crate::error::NetError;
use crate::fault::FaultPlan;
use crate::hash::KeyedMap;
use crate::latency::LatencyModel;
use crate::packet::Datagram;
use parking_lot::Mutex;
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
/// *inline on the client's thread* with each delivered query and the
/// client's reply buffer, emptied. It writes its reply into the buffer and
/// returns how late the reply arrives, or `None` to swallow the query
/// (whatever it wrote is then discarded). The reply goes back to the
/// client within the same [`Endpoint::exchange`], through loss and latency
/// accounting.
pub type ResponderFn = dyn Fn(&Datagram<'_>, &mut Vec<u8>) -> Option<Duration> + Send + Sync;

/// One site of a responder: its function and where it stands.
#[derive(Clone)]
struct Bound {
    respond: Arc<ResponderFn>,
    region: Region,
}

/// An address's 48 bits, the key of its route and of its loss stream.
fn addr_bits(addr: &SockAddr) -> u64 {
    (u64::from(u32::from(addr.ip)) << 16) | u64::from(addr.port)
}

/// Where an address routes: its one unicast site, or its anycast sites in
/// binding order, never none.
#[derive(Clone)]
enum Route {
    Unicast(Bound),
    Anycast(Vec<Bound>),
}

/// Every binding by address bits: the routing table.
type Routes = KeyedMap<u64, Route>;

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
    /// The current routing table, copied on write: binding and unbinding
    /// edit it in place while no endpoint holds it (as while a world is
    /// deployed, from one thread), and edit a copy of their own once
    /// endpoints share it, so a table an endpoint holds never changes.
    routes: Mutex<Arc<Routes>>,
    /// Bumped under the `routes` lock by every bind and unbind, with
    /// `Release`; an exchange reads it with `Acquire`, so one that begins
    /// after an unbind returned sees the new generation and re-reads the
    /// routes.
    generation: AtomicU64,
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
                routes: Mutex::default(),
                generation: AtomicU64::new(0),
                config,
                stats: StripedStats::new(),
            }),
        }
    }

    /// The current generation and its routing table.
    fn routes(&self) -> (u64, Arc<Routes>) {
        let routes = self.inner.routes.lock();
        // Every bump is made under this lock: the table is this
        // generation's.
        let generation = self.inner.generation.load(Ordering::Relaxed);
        (generation, Arc::clone(&routes))
    }

    /// Edits the routing table (a copy of it while endpoints share it)
    /// and starts a new generation.
    fn edit<T>(&self, edit: impl FnOnce(&mut Routes) -> T) -> T {
        let mut routes = self.inner.routes.lock();
        let done = edit(Arc::make_mut(&mut routes));
        self.inner.generation.fetch_add(1, Ordering::Release);
        done
    }

    /// A client endpoint at `ip:port` located in `region`. A client takes
    /// no place in the tables: it only ever hears the replies to its own
    /// queries, so any number of clients may share an address, and one at
    /// a responder's address changes nothing about who answers. Servers
    /// are inline responders ([`crate::ResponderSet`]) instead.
    pub fn bind(&self, ip: Ipv4Addr, port: u16, region: Region) -> Endpoint {
        let (generation, routes) = self.routes();
        Endpoint {
            addr: SockAddr::new(ip, port),
            region,
            exchanges: 0,
            generation,
            routes,
            net: self.clone(),
        }
    }

    /// Binds an address onto an inline service function (responder-set
    /// support): queries to it are answered on the client's thread. Fails
    /// with [`NetError::AddrInUse`] when the address is bound, or announced
    /// and `anycast` is false: a unicast binding would shadow every site.
    pub(crate) fn bind_responder(
        &self,
        addr: SockAddr,
        region: Region,
        respond: Arc<ResponderFn>,
        anycast: bool,
    ) -> Result<(), NetError> {
        let (key, bound) = (addr_bits(&addr), Bound { respond, region });
        self.edit(|routes| {
            match routes.get_mut(&key) {
                Some(Route::Anycast(sites)) if anycast => sites.push(bound),
                Some(_) => return Err(NetError::AddrInUse(addr)),
                None => {
                    let route = if anycast {
                        Route::Anycast(vec![bound])
                    } else {
                        Route::Unicast(bound)
                    };
                    routes.insert(key, route);
                }
            }
            Ok(())
        })
    }

    /// Snapshot of delivery counters.
    pub fn stats(&self) -> NetStats {
        self.inner.stats.snapshot()
    }

    /// Removes a binding (one anycast site: the one in `region`). Once it
    /// returns, no exchange that begins after reaches the removed site.
    pub(crate) fn unbind(&self, addr: SockAddr, anycast: bool, region: Region) {
        let key = addr_bits(&addr);
        self.edit(|routes| match routes.get_mut(&key) {
            Some(Route::Anycast(sites)) if anycast => {
                // Remove one site in this region (the responder's own).
                if let Some(pos) = sites.iter().position(|b| b.region == region) {
                    sites.remove(pos);
                }
                if sites.is_empty() {
                    routes.remove(&key);
                }
            }
            Some(Route::Unicast(_)) if !anycast => {
                routes.remove(&key);
            }
            _ => {}
        });
    }
}

/// A client endpoint: asks responders and hears their replies, one
/// exchange at a time.
pub struct Endpoint {
    addr: SockAddr,
    region: Region,
    /// Exchanges made so far: the position in this client's loss stream.
    exchanges: u64,
    /// The routing table this endpoint last read, and its generation.
    generation: u64,
    routes: Arc<Routes>,
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

    /// Sends `query` to `dst` and returns the reply when one arrives
    /// within `window` of the send, in simulated time; never waits.
    ///
    /// The query is rolled for loss, black-holed when the fault plan has
    /// `dst`'s server out, and routed to the unicast binding at `dst` or
    /// else to the anycast site nearest this client, whose responder runs
    /// inline and writes its reply into `reply`. A reply is rolled for loss
    /// in turn and arrives as late as the responder says: a reply later
    /// than `window` is a timeout. Lost, black-holed, swallowed and late
    /// replies all read `Ok(None)`, as a UDP client cannot tell them apart;
    /// only a destination with nothing bound is [`NetError::Unreachable`].
    ///
    /// The reply is written into the caller's buffer, so an exchange
    /// allocates nothing once the buffer has grown to the largest reply.
    /// `reply` is emptied first and holds the returned bytes and nothing
    /// else afterwards: it is left empty whenever no reply is returned, so
    /// a buffer reused from exchange to exchange never shows an earlier
    /// exchange's bytes.
    pub fn exchange<'r>(
        &mut self,
        dst: SockAddr,
        query: &[u8],
        window: Duration,
        reply: &'r mut Vec<u8>,
    ) -> Result<Option<&'r [u8]>, NetError> {
        reply.clear();
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

        // Route to the unicast binding at `dst`, or the nearest of its
        // anycast sites, through the current generation's table.
        let generation = inner.generation.load(Ordering::Acquire);
        if generation != self.generation {
            (self.generation, self.routes) = self.net.routes();
        }
        let latency = &inner.config.latency;
        let site = match self.routes.get(&addr_bits(&dst)) {
            Some(Route::Unicast(site)) => site,
            Some(Route::Anycast(sites)) => sites
                .iter()
                .min_by_key(|b| latency.one_way(self.region, b.region))
                .expect("an announced address has a site"),
            None => {
                add(&stats.unreachable, 1);
                return Err(NetError::Unreachable(dst));
            }
        };
        let one_way = latency.one_way(self.region, site.region).as_millis() as u64;
        add(&stats.delivered, 1);
        add(&stats.total_latency_ms, one_way);
        let datagram = Datagram {
            src: self.addr,
            dst,
            payload: query,
        };
        let delay = (site.respond)(&datagram, reply);

        let Some(delay) = delay else {
            reply.clear();
            return Ok(None);
        };
        add(&stats.sent, 1);
        if self.lost(seq + 1) {
            add(&stats.dropped, 1);
            reply.clear();
            return Ok(None);
        }
        add(&stats.delivered, 1);
        add(&stats.total_latency_ms, one_way);
        if delay > window {
            reply.clear();
            return Ok(None);
        }
        Ok(Some(reply))
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

    fn echo(d: &Datagram<'_>, reply: &mut Vec<u8>) -> Option<Duration> {
        reply.extend_from_slice(d.payload);
        Some(Duration::ZERO)
    }

    /// An echo responder at `addr:7` in `region`.
    fn echo_at(net: &Network, addr: &str, region: Region) -> (ResponderSet, SockAddr) {
        let set = ResponderSet::new(net, echo);
        set.attach(ip(addr), 7, region).unwrap();
        (set, SockAddr::new(ip(addr), 7))
    }

    /// One exchange into a fresh buffer, the reply copied out.
    fn ask(
        client: &mut Endpoint,
        dst: SockAddr,
        query: &[u8],
        window: Duration,
    ) -> Result<Option<Vec<u8>>, NetError> {
        let mut reply = Vec::new();
        Ok(client
            .exchange(dst, query, window, &mut reply)?
            .map(<[u8]>::to_vec))
    }

    #[test]
    fn an_exchange_returns_the_reply() {
        let net = Network::new(NetConfig::default());
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let set = ResponderSet::new(&net, {
            let seen = Arc::clone(&seen);
            move |d: &Datagram<'_>, reply: &mut Vec<u8>| {
                seen.lock().push((d.src, d.dst));
                echo(d, reply)
            }
        });
        set.attach(ip("10.0.0.1"), 53, Region::EUROPE).unwrap();
        let server = SockAddr::new(ip("10.0.0.1"), 53);
        let mut client = net.bind(ip("10.0.0.2"), 4000, Region::EUROPE);
        let reply = ask(&mut client, server, b"hello", Duration::ZERO);
        assert_eq!(reply, Ok(Some(b"hello".to_vec())));
        // The responder saw the query from the client, addressed to it.
        assert_eq!(*seen.lock(), [(client.addr(), server)]);
    }

    #[test]
    fn unreachable_destination() {
        let net = Network::new(NetConfig::default());
        let mut client = net.bind(ip("10.0.0.1"), 4000, Region::ASIA);
        let nowhere = SockAddr::new(ip("10.9.9.9"), 1);
        let err = ask(&mut client, nowhere, b"", Duration::MAX);
        assert_eq!(err, Err(NetError::Unreachable(nowhere)));
        assert_eq!(net.stats().unreachable, 1);
    }

    #[test]
    fn a_reply_later_than_the_window_is_never_received() {
        // An hour: were the delay slept, this test would hang.
        const DELAY: Duration = Duration::from_secs(3600);
        let net = Network::new(NetConfig::default());
        let late = ResponderSet::new(&net, |d: &Datagram<'_>, reply: &mut Vec<u8>| {
            reply.extend_from_slice(d.payload);
            Some(DELAY)
        });
        late.attach(ip("10.0.0.7"), 7, Region::ASIA).unwrap();
        let mut client = net.bind(ip("10.0.0.1"), 4000, Region::ASIA);
        let server = SockAddr::new(ip("10.0.0.7"), 7);

        // Stamped an hour late: a half-hour window misses it...
        let missed = ask(&mut client, server, b"a", DELAY / 2);
        assert_eq!(missed, Ok(None));
        // ...and a window that covers the delay takes it.
        let got = ask(&mut client, server, b"b", DELAY);
        assert_eq!(got, Ok(Some(b"b".to_vec())));
        // A late reply still reached the client: it counts as delivered.
        assert_eq!(net.stats().delivered, 4);
    }

    #[test]
    fn a_client_at_an_announced_address_does_not_change_which_site_answers() {
        let net = Network::new(NetConfig::default());
        let tagged = |tag: &'static [u8]| {
            move |_: &Datagram<'_>, reply: &mut Vec<u8>| {
                reply.extend_from_slice(tag);
                Some(Duration::ZERO)
            }
        };
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
        let reply = ask(&mut client, site, b"q", Duration::ZERO);
        assert_eq!(reply, Ok(Some(b"eu".to_vec())));
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
        let reply = ask(&mut client, server, b"x", Duration::MAX);
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
                    let reply = ask(&mut a, server, &[i], Duration::ZERO);
                    if interleave {
                        ask(&mut b, server, b"noise", Duration::ZERO).unwrap();
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
            move |d: &Datagram<'_>, reply: &mut Vec<u8>| {
                called.fetch_add(1, Ordering::Relaxed);
                echo(d, reply)
            }
        });
        set.attach(ip("10.0.0.1"), 53, Region::ASIA).unwrap();
        let mut client = net.bind(ip("10.0.0.2"), 4000, Region::ASIA);
        // Like loss, the outage is silent: nothing comes back, and the
        // out server never runs.
        let reply = ask(
            &mut client,
            SockAddr::new(ip("10.0.0.1"), 53),
            b"x",
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
        assert_eq!(ask(&mut client, out_addr, b"q", Duration::MAX), Ok(None));
        assert_eq!(
            ask(&mut client, live_addr, b"q", Duration::MAX),
            Ok(Some(b"q".to_vec()))
        );
        assert_eq!(net.stats().faulted, 1);
    }

    #[test]
    fn a_cross_region_exchange_counts_the_latency_of_both_legs() {
        let net = Network::new(NetConfig::default());
        let (_set, server) = echo_at(&net, "10.0.0.1", Region::EUROPE);
        let mut client = net.bind(ip("10.0.0.2"), 4000, Region::ASIA);
        ask(&mut client, server, b"x", Duration::ZERO)
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

    /// One buffer reused across exchanges: a short reply after a long one
    /// reads exactly its own bytes, and an exchange that returns no reply
    /// (lost, swallowed, black-holed or late) leaves the buffer empty
    /// rather than showing the previous exchange's bytes.
    #[test]
    fn a_reused_reply_buffer_holds_only_the_current_reply() {
        const DELAY: Duration = Duration::from_millis(50);
        // Replies with the query, after a payload-chosen fate: `s`
        // swallows (after writing), `l` arrives `DELAY` late.
        let respond = |d: &Datagram<'_>, reply: &mut Vec<u8>| {
            reply.extend_from_slice(d.payload);
            match d.payload.first() {
                Some(b's') => None,
                Some(b'l') => Some(DELAY),
                _ => Some(Duration::ZERO),
            }
        };
        let net = Network::new(NetConfig {
            faults: Some(Arc::new(FaultPlan {
                protected: vec![ip("10.0.0.1")],
                ..FaultPlan::outages(1, 1.0)
            })),
            ..Default::default()
        });
        let live = ResponderSet::new(&net, respond);
        live.attach(ip("10.0.0.1"), 7, Region::ASIA).unwrap();
        let out = ResponderSet::new(&net, respond);
        out.attach(ip("10.0.0.2"), 7, Region::ASIA).unwrap();
        let (live, out) = (
            SockAddr::new(ip("10.0.0.1"), 7),
            SockAddr::new(ip("10.0.0.2"), 7),
        );
        let mut client = net.bind(ip("10.0.0.3"), 4000, Region::ASIA);
        let mut buf = Vec::new();
        let long = [b'x'; 300];
        let mut exchange = |dst, query: &[u8], buf: &mut Vec<u8>| {
            let got = client
                .exchange(dst, query, DELAY / 2, buf)
                .unwrap()
                .map(<[u8]>::to_vec);
            (got, buf.clone())
        };
        assert_eq!(
            exchange(live, &long, &mut buf).0.as_deref(),
            Some(&long[..])
        );
        // Shorter than what the buffer held: exactly its own bytes.
        assert_eq!(
            exchange(live, b"ab", &mut buf),
            (Some(b"ab".to_vec()), b"ab".to_vec())
        );
        for (dst, query) in [
            (live, &b"swallowed"[..]), // written, then swallowed
            (live, b"late"),           // past the window
            (out, b"out"),             // black-holed
        ] {
            exchange(live, &long, &mut buf);
            assert_eq!(
                exchange(dst, query, &mut buf),
                (None, Vec::new()),
                "{dst:?}"
            );
        }

        // Lost: every datagram dropped.
        let lossy = Network::new(NetConfig {
            loss_rate: 1.0,
            ..Default::default()
        });
        let (_set, server) = echo_at(&lossy, "10.0.0.1", Region::ASIA);
        let mut client = lossy.bind(ip("10.0.0.3"), 4000, Region::ASIA);
        let mut buf = long.to_vec();
        assert_eq!(
            client.exchange(server, b"q", Duration::MAX, &mut buf),
            Ok(None)
        );
        assert!(buf.is_empty());
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
            move |_: &Datagram<'_>, _: &mut Vec<u8>| {
                seen.fetch_add(1, Ordering::Relaxed);
                None
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
                        assert_eq!(ask(&mut client, dst, b"", Duration::MAX), Ok(None));
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

    #[test]
    fn a_responder_attached_after_an_exchange_answers_the_next_one() {
        let net = Network::new(NetConfig::default());
        let (_first, first) = echo_at(&net, "10.0.0.1", Region::ASIA);
        let mut client = net.bind(ip("10.0.0.9"), 4000, Region::ASIA);
        assert_eq!(
            ask(&mut client, first, b"a", Duration::ZERO),
            Ok(Some(b"a".to_vec()))
        );
        // The client has read this generation's table; a binding at a new
        // address moves the generation, and the next exchange sees it.
        let (_second, second) = echo_at(&net, "10.0.0.2", Region::ASIA);
        assert_eq!(
            ask(&mut client, second, b"b", Duration::ZERO),
            Ok(Some(b"b".to_vec()))
        );
    }

    #[test]
    fn a_detached_responder_is_unreachable_and_never_runs_again() {
        let net = Network::new(NetConfig::default());
        let called = Arc::new(AtomicU64::new(0));
        let set = ResponderSet::new(&net, {
            let called = Arc::clone(&called);
            move |d: &Datagram<'_>, reply: &mut Vec<u8>| {
                called.fetch_add(1, Ordering::Relaxed);
                echo(d, reply)
            }
        });
        set.attach(ip("10.0.0.1"), 7, Region::ASIA).unwrap();
        let server = SockAddr::new(ip("10.0.0.1"), 7);
        let mut client = net.bind(ip("10.0.0.9"), 4000, Region::ASIA);
        assert_eq!(
            ask(&mut client, server, b"q", Duration::ZERO),
            Ok(Some(b"q".to_vec()))
        );
        drop(set);
        for _ in 0..3 {
            assert_eq!(
                ask(&mut client, server, b"q", Duration::MAX),
                Err(NetError::Unreachable(server))
            );
        }
        assert_eq!(called.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn exchanges_race_attach_and_detach_without_reaching_a_detached_responder() {
        const CYCLES: usize = 1_000;
        let net = Network::new(NetConfig::default());
        let server = SockAddr::new(ip("10.0.0.1"), 7);
        let start = std::sync::Barrier::new(3);
        let detached = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2u8 {
                let (net, start, detached) = (&net, &start, &detached);
                s.spawn(move || {
                    let mut client = net.bind(Ipv4Addr::new(10, 1, t, 1), 4000, Region::ASIA);
                    start.wait();
                    // Either the echo or nothing bound, while the third
                    // thread cycles the binding.
                    while !detached.load(Ordering::Acquire) {
                        match ask(&mut client, server, &[t], Duration::ZERO) {
                            Ok(reply) => assert_eq!(reply, Some(vec![t])),
                            Err(e) => assert_eq!(e, NetError::Unreachable(server)),
                        }
                    }
                    // The last detach returned before the flag was set.
                    for _ in 0..100 {
                        assert_eq!(
                            ask(&mut client, server, &[t], Duration::ZERO),
                            Err(NetError::Unreachable(server))
                        );
                    }
                });
            }
            start.wait();
            for _ in 0..CYCLES {
                let set = ResponderSet::new(&net, echo);
                set.attach(server.ip, server.port, Region::ASIA).unwrap();
                drop(set);
            }
            detached.store(true, Ordering::Release);
        });
    }
}
