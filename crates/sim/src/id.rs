//! Node identifiers.

use std::fmt;

/// Identifies a node in the simulation.
///
/// In the paper each node is identified by its IP address; in the simulator a
/// dense index plays that role (it doubles as the index into kernel tables).
///
/// ```
/// use gocast_sim::NodeId;
///
/// let a = NodeId::new(3);
/// assert_eq!(a.index(), 3);
/// assert_eq!(a.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index backing this id.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.as_u32(), 42);
        assert_eq!(NodeId::from(42u32), id);
    }

    #[test]
    fn ordering_is_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }

    #[test]
    fn display() {
        assert_eq!(NodeId::new(7).to_string(), "n7");
    }
}
