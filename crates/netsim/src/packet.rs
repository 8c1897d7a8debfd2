//! Datagrams: the unit of delivery on the simulated network.

use crate::addr::SockAddr;
use bytes::Bytes;
use std::cell::RefCell;
use std::time::Duration;

/// A delivered datagram: source, destination, opaque payload, and how late
/// it arrives.
///
/// `Bytes` keeps payloads reference-counted so fan-out delivery (anycast
/// diagnostics, stats capture) never copies packet bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sender's socket address (for replies).
    pub src: SockAddr,
    /// Destination socket address as addressed by the sender.
    pub dst: SockAddr,
    /// Payload bytes.
    pub payload: Bytes,
    /// How long after its send the datagram arrives, in simulated time: the
    /// delay a [`FaultKind::Delay`](crate::FaultKind::Delay) fault stamped
    /// on a reply, zero for every other datagram. Link latency is not in
    /// it; that is accounting only ([`NetStats`](crate::NetStats)).
    pub delay: Duration,
}

impl Datagram {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

thread_local! {
    /// The reused buffer [`build_payload`] assembles payloads in.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Builds a payload: runs `write` over an empty per-thread buffer that is
/// reused from payload to payload, and copies the result out once, so a
/// codec's encode costs one allocation — the returned `Bytes` — instead
/// of a growing buffer plus the copy `freeze` makes.
pub fn build_payload(write: impl FnOnce(&mut Vec<u8>)) -> Bytes {
    SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut buf) => {
            buf.clear();
            write(&mut buf);
            Bytes::copy_from_slice(&buf)
        }
        // Only a payload built while building another finds it taken.
        Err(_) => {
            let mut buf = Vec::new();
            write(&mut buf);
            Bytes::from(buf)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let d = Datagram {
            src: SockAddr::new("1.1.1.1".parse().unwrap(), 1),
            dst: SockAddr::new("2.2.2.2".parse().unwrap(), 2),
            payload: Bytes::from_static(b"abc"),
            delay: Duration::ZERO,
        };
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn payloads_build_in_a_reused_buffer() {
        assert_eq!(&build_payload(|b| b.extend_from_slice(b"abc"))[..], b"abc");
        assert_eq!(&build_payload(|b| b.push(7))[..], [7]);
        let nested = build_payload(|outer| {
            outer.extend_from_slice(&build_payload(|inner| inner.push(1)));
            outer.push(2);
        });
        assert_eq!(&nested[..], [1, 2]);
    }
}
