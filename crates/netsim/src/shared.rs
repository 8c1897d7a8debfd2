//! Responder sets: many addresses, one inline service function.
//!
//! Deploying a synthetic internet with tens of thousands of provider IPs
//! cannot afford a thread per address. A [`ResponderSet`] attaches many
//! `ip:port` bindings (unicast or anycast) to one *stateless* service
//! function — the simulation analogue of shared hosting — and runs it
//! inline on the client's thread, so an exchange is a function call rather
//! than two cross-thread channel hops.

use crate::addr::SockAddr;
use crate::error::NetError;
use crate::fault::FaultedReply;
use crate::network::{Network, Region, ResponderFn};
use crate::packet::Datagram;
use parking_lot::Mutex;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Many addresses served by one inline function, zero threads.
///
/// The function must be stateless (or internally synchronized): it is
/// called concurrently from every client's thread. The reply it returns
/// goes back to the client within the same [`crate::Endpoint::exchange`],
/// rolled for loss and counted in the network's latency, and its delay is
/// compared with the client's window, never slept.
pub struct ResponderSet {
    net: Network,
    f: Arc<ResponderFn>,
    /// Every binding made, `(address, region, anycast)`: one per unicast
    /// address and one per region an anycast address is announced in.
    /// Only attaching and dropping touch it; exchanges go through the
    /// network's own tables.
    attached: Mutex<Vec<(SockAddr, Region, bool)>>,
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
        f: impl Fn(&Datagram) -> FaultedReply + Send + Sync + 'static,
    ) -> Self {
        ResponderSet {
            net: net.clone(),
            f: Arc::new(f),
            attached: Mutex::new(Vec::new()),
        }
    }

    fn bind(&self, ip: Ipv4Addr, port: u16, region: Region, anycast: bool) -> Result<(), NetError> {
        let addr = SockAddr::new(ip, port);
        self.net
            .bind_responder(addr, region, Arc::clone(&self.f), anycast)?;
        self.attached.lock().push((addr, region, anycast));
        Ok(())
    }

    /// Attaches a unicast address; queries to it are answered inline.
    pub fn attach(&self, ip: Ipv4Addr, port: u16, region: Region) -> Result<(), NetError> {
        self.bind(ip, port, region, false)
    }

    /// Attaches one anycast site of an address.
    pub fn attach_anycast(&self, ip: Ipv4Addr, port: u16, region: Region) -> Result<(), NetError> {
        self.bind(ip, port, region, true)
    }

    /// Number of bindings: one per unicast address, one per region an
    /// anycast address is announced in.
    pub fn num_attached(&self) -> usize {
        self.attached.lock().len()
    }
}

impl Drop for ResponderSet {
    fn drop(&mut self) {
        for (addr, region, anycast) in self.attached.get_mut().drain(..) {
            self.net.unbind(addr, anycast, region);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetConfig;
    use bytes::Bytes;
    use std::time::Duration;

    fn echo(d: &Datagram) -> FaultedReply {
        FaultedReply::clean(d.payload.clone())
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn responder_answers_inline() {
        let net = Network::new(NetConfig::default());
        let set = ResponderSet::new(&net, echo);
        set.attach(ip("10.0.0.7"), 7, Region::ASIA).unwrap();
        set.attach(ip("10.0.0.8"), 7, Region::ASIA).unwrap();
        assert_eq!(set.num_attached(), 2);

        let mut client = net.bind(ip("10.9.9.9"), 1, Region::ASIA);
        for last in [7u8, 8u8] {
            let dst = SockAddr::new(Ipv4Addr::new(10, 0, 0, last), 7);
            let reply = client.exchange(dst, Bytes::copy_from_slice(&[last]), Duration::ZERO);
            assert_eq!(reply, Ok(Some(Bytes::copy_from_slice(&[last]))));
        }
        let stats = net.stats();
        assert_eq!(stats.sent, 4); // two queries + two replies
        assert_eq!(stats.delivered, 4);
    }

    #[test]
    fn responder_anycast_routes_regionally() {
        let net = Network::new(NetConfig::default());
        let tagged =
            |tag: &'static [u8]| move |_: &Datagram| FaultedReply::clean(Bytes::from_static(tag));
        let eu = ResponderSet::new(&net, tagged(b"eu"));
        let asia = ResponderSet::new(&net, tagged(b"as"));
        eu.attach_anycast(ip("1.1.1.1"), 53, Region::EUROPE)
            .unwrap();
        asia.attach_anycast(ip("1.1.1.1"), 53, Region::ASIA)
            .unwrap();

        let mut client = net.bind(ip("10.9.9.9"), 1, Region::ASIA);
        let reply = client.exchange(
            SockAddr::new(ip("1.1.1.1"), 53),
            Bytes::from_static(b"q"),
            Duration::ZERO,
        );
        assert_eq!(reply, Ok(Some(Bytes::from_static(b"as"))));
    }

    #[test]
    fn responder_conflicts_detected() {
        let net = Network::new(NetConfig::default());
        let set = ResponderSet::new(&net, |_: &Datagram| FaultedReply::swallowed());
        set.attach(ip("10.0.0.7"), 53, Region::ASIA).unwrap();
        assert!(set.attach(ip("10.0.0.7"), 53, Region::ASIA).is_err());
        // A unicast address cannot also be announced via anycast.
        assert!(set
            .attach_anycast(ip("10.0.0.7"), 53, Region::EUROPE)
            .is_err());
    }

    #[test]
    fn anycast_detaches_in_every_region() {
        let net = Network::new(NetConfig::default());
        let anycast = SockAddr::new(ip("1.1.1.1"), 53);
        let set = ResponderSet::new(&net, echo);
        set.attach_anycast(anycast.ip, 53, Region::EUROPE).unwrap();
        set.attach_anycast(anycast.ip, 53, Region::ASIA).unwrap();
        assert_eq!(set.num_attached(), 2);
        drop(set);

        let mut client = net.bind(ip("10.9.9.9"), 1, Region::EUROPE);
        assert_eq!(
            client.exchange(anycast, Bytes::from_static(b"q"), Duration::MAX),
            Err(NetError::Unreachable(anycast))
        );
        let set = ResponderSet::new(&net, echo);
        assert!(set.attach(anycast.ip, 53, Region::ASIA).is_ok());
    }

    #[test]
    fn responder_detaches_on_drop() {
        let net = Network::new(NetConfig::default());
        {
            let set = ResponderSet::new(&net, |_: &Datagram| FaultedReply::swallowed());
            set.attach(ip("10.0.0.7"), 53, Region::ASIA).unwrap();
        }
        let set = ResponderSet::new(&net, echo);
        assert!(set.attach(ip("10.0.0.7"), 53, Region::ASIA).is_ok());
    }
}
