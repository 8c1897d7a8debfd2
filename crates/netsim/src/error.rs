//! Error type for the simulated network.

use crate::addr::SockAddr;
use std::fmt;

/// Errors from binding or sending on the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The socket address is already bound.
    AddrInUse(SockAddr),
    /// Nothing is bound at the destination (host unreachable).
    Unreachable(SockAddr),
    /// A malformed CIDR prefix.
    InvalidPrefix(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::AddrInUse(a) => write!(f, "address in use: {a}"),
            NetError::Unreachable(a) => write!(f, "destination unreachable: {a}"),
            NetError::InvalidPrefix(s) => write!(f, "invalid prefix: {s}"),
        }
    }
}

impl std::error::Error for NetError {}
