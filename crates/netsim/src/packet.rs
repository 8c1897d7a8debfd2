//! Datagrams: the unit of delivery on the simulated network.

use crate::addr::SockAddr;

/// A query as a responder receives it: source, destination and opaque
/// payload.
///
/// The payload is borrowed from the buffer the client encoded the query
/// into, for the length of one [`crate::Endpoint::exchange`]: a responder
/// reads it in place and never keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Datagram<'a> {
    /// The querying client's socket address.
    pub src: SockAddr,
    /// Destination socket address as addressed by the sender.
    pub dst: SockAddr,
    /// Payload bytes.
    pub payload: &'a [u8],
}

impl Datagram<'_> {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let d = Datagram {
            src: SockAddr::new("1.1.1.1".parse().unwrap(), 1),
            dst: SockAddr::new("2.2.2.2".parse().unwrap(), 2),
            payload: b"abc",
        };
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }
}
