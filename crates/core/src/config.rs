//! Protocol configuration.
//!
//! Defaults follow Section 3 of the paper: gossip period `t` = 0.1 s,
//! maintenance period `r` = 0.1 s, target degrees `C_rand` = 1 and
//! `C_near` = 5, GC wait `b` = 2 min, root heartbeat every 15 s.
//!
//! A field exists here only where some caller runs the protocol with a
//! value other than the default (DESIGN.md "Parameters" names each one);
//! a value every run shares is a constant of the module that reads it.

use std::time::Duration;

/// Acceptance slack: a node accepts a new link of a kind while its degree
/// of that kind is below `target + DEGREE_SLACK` (paper: 5).
const DEGREE_SLACK: usize = 5;

/// Configuration for a GoCast node.
///
/// Start from [`GoCastConfig::default`] and change fields with struct
/// update syntax; [`GoCastConfig::validate`] is the one check, and every
/// `GoCastNode` constructor runs it. The presets
/// [`GoCastConfig::proximity_overlay`] and [`GoCastConfig::random_overlay`]
/// reproduce the paper's simplified comparison protocols.
///
/// ```
/// use gocast::{ConfigError, GoCastConfig};
/// use std::time::Duration;
///
/// let cfg = GoCastConfig {
///     pull_delay: Duration::from_millis(300),
///     payload_size: 512,
///     ..GoCastConfig::default()
/// };
/// assert_eq!(cfg.c_rand + cfg.c_near, 6);
/// assert_eq!(cfg.validate(), Ok(()));
///
/// // Combinations the protocol cannot run with are rejected:
/// let bad = GoCastConfig {
///     c_rand: 0,
///     c_near: 0,
///     ..GoCastConfig::default()
/// };
/// assert_eq!(bad.validate(), Err(ConfigError::ZeroDegree));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GoCastConfig {
    /// Target number of random neighbors (`C_rand`, paper default 1).
    pub c_rand: usize,
    /// Target number of nearby neighbors (`C_near`, paper default 5).
    pub c_near: usize,
    /// Gossip period `t` (paper: 0.1 s).
    pub gossip_period: Duration,
    /// Overlay maintenance period `r` (paper: 0.1 s).
    pub maintenance_period: Duration,
    /// How long a node keeps a message after last gossiping its ID
    /// (`b`, paper: 2 min).
    pub gc_wait: Duration,
    /// Delay before pulling a message first heard via gossip (`f`).
    /// `Duration::ZERO` disables the optimization (paper evaluates both 0
    /// and 0.3 s).
    pub pull_delay: Duration,
    /// Root heartbeat / tree refresh period (paper: 15 s).
    pub heartbeat_period: Duration,
    /// Whether to build and use the embedded tree. Disabled for the
    /// paper's "proximity overlay" / "random overlay" comparison variants.
    pub tree_enabled: bool,
    /// Maximum interval between gossips to a neighbor even when there are
    /// no message IDs to report (keeps membership and liveness flowing).
    pub idle_gossip_interval: Duration,
    /// Number of landmark nodes used for latency estimation (the first
    /// `landmark_count` node ids act as landmarks). Effectively capped at
    /// `gocast_net::MAX_LANDMARKS`: coordinates are stored inline, and
    /// probing clamps to that many slots.
    pub landmark_count: usize,
    /// Wire size of a multicast payload in bytes (accounting only).
    pub payload_size: u32,
    /// Ablation: enforce condition C4 (`RTT(X,Q) <= RTT(X,U)/2`) when
    /// replacing nearby neighbors (paper: on).
    pub c4_enabled: bool,
    /// Ablation: C1 lower bound offset. A neighbor `U` may be replaced or
    /// dropped only if `D_near(U) >= C_near - c1_offset`. The paper uses 1
    /// and reports that 0 dramatically worsens link latency.
    pub c1_offset: usize,
    /// Ablation: drop surplus nearby links already at `C_near + 1` instead
    /// of the paper's `C_near + 2` (paper reports ~1/3 more link changes).
    pub aggressive_drop: bool,
    /// Future-work feature (§2.1): adapt the gossip period to the message
    /// rate — back off exponentially while there is nothing to summarize
    /// (up to [`GoCastConfig::idle_gossip_interval`]) and snap back to
    /// `gossip_period` the moment a message arrives.
    pub adaptive_gossip: bool,
    /// Future-work feature (§2.2.3): adapt the maintenance period to the
    /// stability of the overlay — back off exponentially while no link
    /// changes and no degree deficit are observed, up to 2 s.
    pub adaptive_maintenance: bool,
}

impl Default for GoCastConfig {
    fn default() -> Self {
        GoCastConfig {
            c_rand: 1,
            c_near: 5,
            gossip_period: Duration::from_millis(100),
            maintenance_period: Duration::from_millis(100),
            gc_wait: Duration::from_secs(120),
            pull_delay: Duration::ZERO,
            heartbeat_period: Duration::from_secs(15),
            tree_enabled: true,
            idle_gossip_interval: Duration::from_secs(1),
            landmark_count: 8,
            payload_size: 1024,
            c4_enabled: true,
            c1_offset: 1,
            aggressive_drop: false,
            adaptive_gossip: false,
            adaptive_maintenance: false,
        }
    }
}

impl GoCastConfig {
    /// The paper's "proximity overlay" comparison protocol: the GoCast
    /// overlay (1 random + 5 nearby) but dissemination through gossip only,
    /// no tree.
    pub fn proximity_overlay() -> Self {
        GoCastConfig {
            tree_enabled: false,
            ..GoCastConfig::default()
        }
    }

    /// The paper's "random overlay" comparison protocol: 6 random
    /// neighbors, gossip-only dissemination, no proximity adaptation,
    /// no tree.
    pub fn random_overlay() -> Self {
        GoCastConfig {
            c_rand: 6,
            c_near: 0,
            tree_enabled: false,
            ..GoCastConfig::default()
        }
    }

    /// Target total node degree (`C_degree = C_rand + C_near`).
    pub fn c_degree(&self) -> usize {
        self.c_rand + self.c_near
    }

    /// The accept rules' ceiling on links of one kind for a node whose
    /// target for that kind is `target`: it takes a new link only while
    /// below `target + 5` (paper §2.2), and the invariant oracle holds
    /// every node to the same bound.
    pub const fn degree_cap(target: usize) -> usize {
        target + DEGREE_SLACK
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a field combination cannot work (zero
    /// total degree or a zero period).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.c_degree() == 0 {
            return Err(ConfigError::ZeroDegree);
        }
        if self.gossip_period.is_zero()
            || self.maintenance_period.is_zero()
            || self.heartbeat_period.is_zero()
        {
            return Err(ConfigError::ZeroPeriod);
        }
        Ok(())
    }
}

/// An invalid [`GoCastConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `c_rand + c_near == 0`: the node could never have a neighbor.
    ZeroDegree,
    /// A protocol period (gossip, maintenance or heartbeat) is zero;
    /// timers would spin forever.
    ZeroPeriod,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroDegree => write!(f, "target node degree is zero"),
            ConfigError::ZeroPeriod => {
                write!(f, "gossip, maintenance or heartbeat period is zero")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GoCastConfig::default();
        assert_eq!(c.c_rand, 1);
        assert_eq!(c.c_near, 5);
        assert_eq!(c.c_degree(), 6);
        assert_eq!(GoCastConfig::degree_cap(c.c_near), 10);
        assert_eq!(c.gossip_period, Duration::from_millis(100));
        assert_eq!(c.maintenance_period, Duration::from_millis(100));
        assert_eq!(c.gc_wait, Duration::from_secs(120));
        assert_eq!(c.heartbeat_period, Duration::from_secs(15));
        assert!(c.tree_enabled);
        assert!(c.c4_enabled);
        assert_eq!(c.c1_offset, 1);
        assert!(!c.aggressive_drop);
        c.validate().unwrap();
    }

    #[test]
    fn presets_match_paper_variants() {
        let p = GoCastConfig::proximity_overlay();
        assert!(!p.tree_enabled);
        assert_eq!((p.c_rand, p.c_near), (1, 5));
        p.validate().unwrap();

        let r = GoCastConfig::random_overlay();
        assert!(!r.tree_enabled);
        assert_eq!((r.c_rand, r.c_near), (6, 0));
        r.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = GoCastConfig {
            c_rand: 0,
            c_near: 0,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroDegree));

        let c = GoCastConfig {
            gossip_period: Duration::ZERO,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroPeriod));

        let c = GoCastConfig {
            maintenance_period: Duration::ZERO,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroPeriod));
    }

    /// A tree-enabled node re-arms its heartbeat and root-check timers one
    /// heartbeat period ahead: at zero the run never leaves that instant.
    #[test]
    fn zero_heartbeat_period_is_rejected() {
        let c = GoCastConfig {
            heartbeat_period: Duration::ZERO,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroPeriod));
    }

    #[test]
    fn error_messages_are_lowercase_prose() {
        assert_eq!(
            ConfigError::ZeroDegree.to_string(),
            "target node degree is zero"
        );
    }
}
