//! Responder sets: many addresses, one inline service function.
//!
//! Deploying a synthetic internet with tens of thousands of provider IPs
//! cannot afford a thread per address. A [`ResponderSet`] attaches many
//! `ip:port` bindings (unicast or anycast) to one *stateless* service
//! function — the simulation analogue of shared hosting — and runs it
//! inline on the sender's thread, so a round trip is a function call
//! rather than two cross-thread channel hops. Replies are sent *from* the
//! address the query was addressed to, so clients still see a well-behaved
//! peer.

use crate::addr::SockAddr;
use crate::error::NetError;
use crate::network::{Network, Region, ResponderFn};
use crate::packet::Datagram;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Lock stripes for the attached-address table. The reply path only reads,
/// so with `RwLock` stripes concurrent repliers never contend at all.
const NUM_STRIPES: usize = 8;

fn stripe_index(addr: &SockAddr) -> usize {
    let mut h = DefaultHasher::new();
    addr.hash(&mut h);
    (h.finish() as usize) % NUM_STRIPES
}

/// Many addresses served by one inline function, zero threads.
///
/// The function must be stateless (or internally synchronized): it is
/// called concurrently from every sending thread. Replies it returns are
/// sent from the queried address through the normal network path, so loss,
/// latency accounting and anycast behave as for any bound endpoint.
pub struct ResponderSet {
    net: Network,
    f: Arc<ResponderFn>,
    /// Attached addresses and their regions (anycast flag kept for unbind),
    /// striped by address hash.
    attached: [RwLock<HashMap<SockAddr, (Region, bool)>>; NUM_STRIPES],
}

impl std::fmt::Debug for ResponderSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponderSet")
            .field("attached", &self.num_attached())
            .finish_non_exhaustive()
    }
}

impl ResponderSet {
    /// Creates a responder set on `net` serving with `f`.
    pub fn new(
        net: &Network,
        f: impl Fn(&Datagram) -> Option<Bytes> + Send + Sync + 'static,
    ) -> Self {
        ResponderSet {
            net: net.clone(),
            f: Arc::new(f),
            attached: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }

    fn stripe(&self, addr: &SockAddr) -> &RwLock<HashMap<SockAddr, (Region, bool)>> {
        &self.attached[stripe_index(addr)]
    }

    /// Attaches a unicast address; datagrams to it are answered inline.
    pub fn attach(&self, ip: Ipv4Addr, port: u16, region: Region) -> Result<(), NetError> {
        let addr = SockAddr::new(ip, port);
        self.net
            .bind_responder(addr, region, Arc::clone(&self.f), false)?;
        self.stripe(&addr).write().insert(addr, (region, false));
        Ok(())
    }

    /// Attaches one anycast site of an address.
    pub fn attach_anycast(&self, ip: Ipv4Addr, port: u16, region: Region) -> Result<(), NetError> {
        let addr = SockAddr::new(ip, port);
        self.net
            .bind_responder(addr, region, Arc::clone(&self.f), true)?;
        self.stripe(&addr).write().insert(addr, (region, true));
        Ok(())
    }

    /// Number of attached addresses.
    pub fn num_attached(&self) -> usize {
        self.attached.iter().map(|s| s.read().len()).sum()
    }
}

impl Drop for ResponderSet {
    fn drop(&mut self) {
        for stripe in &self.attached {
            for (addr, (region, anycast)) in stripe.write().drain() {
                self.net.unbind(addr, anycast, region);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetConfig;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn responder_answers_inline() {
        let net = Network::new(NetConfig::default());
        let echo = ResponderSet::new(&net, |d: &Datagram| Some(d.payload.clone()));
        echo.attach(ip("10.0.0.7"), 7, Region::ASIA).unwrap();
        echo.attach(ip("10.0.0.8"), 7, Region::ASIA).unwrap();
        assert_eq!(echo.num_attached(), 2);

        let client = net.bind(ip("10.9.9.9"), 1, Region::ASIA).unwrap();
        for last in [7u8, 8u8] {
            let dst = SockAddr::new(Ipv4Addr::new(10, 0, 0, last), 7);
            client.send(dst, Bytes::copy_from_slice(&[last])).unwrap();
            // The reply is already queued when send returns: no thread hop.
            let d = client.try_recv().expect("inline reply is synchronous");
            assert_eq!(d.src, dst);
            assert_eq!(&d.payload[..], &[last]);
        }
        let stats = net.stats();
        assert_eq!(stats.sent, 4); // two queries + two replies
        assert_eq!(stats.delivered, 4);
    }

    #[test]
    fn responder_anycast_routes_regionally() {
        let net = Network::new(NetConfig::default());
        let tagged = |tag: &'static [u8]| move |_: &Datagram| Some(Bytes::from_static(tag));
        let eu = ResponderSet::new(&net, tagged(b"eu"));
        let asia = ResponderSet::new(&net, tagged(b"as"));
        eu.attach_anycast(ip("1.1.1.1"), 53, Region::EUROPE)
            .unwrap();
        asia.attach_anycast(ip("1.1.1.1"), 53, Region::ASIA)
            .unwrap();

        let client = net.bind(ip("10.9.9.9"), 1, Region::ASIA).unwrap();
        client
            .send(SockAddr::new(ip("1.1.1.1"), 53), Bytes::from_static(b"q"))
            .unwrap();
        let d = client.try_recv().expect("inline reply is synchronous");
        assert_eq!(&d.payload[..], b"as");
    }

    #[test]
    fn responder_reply_passes_through_loss() {
        let net = Network::new(NetConfig {
            loss_rate: 1.0,
            ..Default::default()
        });
        let echo = ResponderSet::new(&net, |d: &Datagram| Some(d.payload.clone()));
        echo.attach(ip("10.0.0.7"), 7, Region::ASIA).unwrap();
        let client = net.bind(ip("10.9.9.9"), 1, Region::ASIA).unwrap();
        client
            .send(SockAddr::new(ip("10.0.0.7"), 7), Bytes::from_static(b"x"))
            .unwrap();
        // The query itself is eaten by the loss process before the
        // responder ever runs; nothing comes back.
        assert!(client.try_recv().is_none());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn delayed_reply_holds_back_only_its_own_query() {
        use crate::fault::FaultedReply;
        use std::sync::Barrier;
        use std::time::{Duration, Instant};
        const DELAY: Duration = Duration::from_millis(300);
        let net = Network::new(NetConfig::default());
        // The slow query meets the fast one here just before it sleeps.
        let asleep = Arc::new(Barrier::new(2));
        let set = ResponderSet::new(&net, {
            let asleep = Arc::clone(&asleep);
            move |d: &Datagram| {
                let slow = &d.payload[..] == b"slow";
                if slow {
                    asleep.wait();
                }
                FaultedReply {
                    payload: Some(d.payload.clone()),
                    delay: slow.then_some(DELAY),
                }
                .deliver()
            }
        });
        set.attach(ip("10.0.0.7"), 7, Region::ASIA).unwrap();
        let dst = SockAddr::new(ip("10.0.0.7"), 7);
        let query = |client: Ipv4Addr, payload: &'static [u8]| {
            let ep = net.bind(client, 1, Region::ASIA).unwrap();
            let start = Instant::now();
            ep.send(dst, Bytes::from_static(payload)).unwrap();
            let reply = ep.try_recv().expect("inline reply is synchronous");
            (reply.payload, start.elapsed())
        };
        std::thread::scope(|s| {
            let slow = s.spawn(|| query(ip("10.9.9.1"), b"slow"));
            // While the slow query sleeps on its own thread, a query from
            // another thread is answered at once.
            asleep.wait();
            let (fast, fast_took) = query(ip("10.9.9.2"), b"fast");
            assert_eq!(&fast[..], b"fast");
            assert!(fast_took < DELAY / 2, "fast query took {fast_took:?}");
            let (slow, slow_took) = slow.join().unwrap();
            assert_eq!(&slow[..], b"slow");
            assert!(slow_took >= DELAY, "slow query took {slow_took:?}");
        });
    }

    #[test]
    fn responder_conflicts_detected() {
        let net = Network::new(NetConfig::default());
        let set = ResponderSet::new(&net, |_: &Datagram| None);
        set.attach(ip("10.0.0.7"), 53, Region::ASIA).unwrap();
        assert!(set.attach(ip("10.0.0.7"), 53, Region::ASIA).is_err());
        // A unicast address cannot also be announced via anycast.
        assert!(set
            .attach_anycast(ip("10.0.0.7"), 53, Region::EUROPE)
            .is_err());
    }

    #[test]
    fn responder_detaches_on_drop() {
        let net = Network::new(NetConfig::default());
        {
            let set = ResponderSet::new(&net, |_: &Datagram| None);
            set.attach(ip("10.0.0.7"), 53, Region::ASIA).unwrap();
        }
        assert!(net.bind(ip("10.0.0.7"), 53, Region::ASIA).is_ok());
    }
}
