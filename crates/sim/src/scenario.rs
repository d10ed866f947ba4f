//! Declarative, deterministic fault scenarios (the chaos engine).
//!
//! A [`Scenario`] is a *description* of faults: timed one-shot events
//! (crashes, link cuts, partitions, loss/jitter changes) plus stochastic
//! processes (Poisson churn, flash crowds, mass departures, correlated
//! site crashes). Compiling it against a [`ScenarioEnv`] expands every
//! stochastic process into a concrete, time-sorted [`ScenarioPlan`] of
//! [`Fault`]s — using a dedicated RNG stream derived from the scenario
//! seed, never the kernel's per-node streams — so:
//!
//! - the same `(scenario, env)` pair always compiles to the *same* plan,
//!   and replaying it through the same simulation reproduces results
//!   byte-for-byte;
//! - compiling a scenario cannot perturb protocol behaviour: nodes draw
//!   from their own streams exactly as they would without chaos.
//!
//! The plan is protocol-agnostic. Crashes are kernel controls, network
//! faults ([`Fault::Net`]) go to the kernel's [`FaultState`](crate::FaultState)
//! as they are; graceful *leave* and *join* are expressed as protocol
//! commands supplied by the caller when scheduling the plan (see
//! [`ScenarioPlan::schedule_into`]).
//!
//! ```
//! use gocast_sim::{Scenario, ScenarioEnv, Split};
//! use std::time::Duration;
//!
//! // 20 s of Poisson churn (≈0.5 leaves/s and joins/s), a half/half
//! // partition at t=5 s healing at t=10 s, and 1% message loss from t=0.
//! let scenario = Scenario::new()
//!     .churn(
//!         Duration::ZERO,
//!         Duration::from_secs(20),
//!         0.5,
//!         0.5,
//!     )
//!     .partition_at(Duration::from_secs(5), Duration::from_secs(10), Split::Halves)
//!     .loss_at(Duration::ZERO, 0.01);
//!
//! let env = ScenarioEnv::new(64, 7);
//! let plan = scenario.compile(&env);
//! assert_eq!(plan, scenario.compile(&env), "compilation is deterministic");
//! assert!(!plan.is_empty());
//! ```

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fault::NetFault;
use crate::id::NodeId;
use crate::kernel::{Engine, Mode};
use crate::protocol::Protocol;
use crate::recorder::Recorder;
use crate::time::SimTime;

/// How a partition divides the node population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Split {
    /// Node ids `0..n/2` on one side, the rest on the other.
    Halves,
    /// The given group (site/cluster id, see [`ScenarioEnv::with_groups`])
    /// isolated from everyone else.
    IsolateGroup(u32),
    /// An explicit side label per node (length must equal the node count).
    Custom(Vec<u32>),
}

/// One concrete fault action in a compiled [`ScenarioPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Crash a node permanently (kernel-level: it stops executing).
    Crash(NodeId),
    /// Gracefully leave the overlay (protocol command).
    Leave(NodeId),
    /// (Re)join the overlay through `contact` (protocol command).
    Join {
        /// The node joining.
        node: NodeId,
        /// A node expected to be in the overlay at that time.
        contact: NodeId,
    },
    /// Change the network's fault state: link cuts, partitions, loss,
    /// jitter.
    Net(NetFault),
}

/// A [`Fault`] with its absolute firing time.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedFault {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub fault: Fault,
}

/// One concrete subscription change in a compiled [`ScenarioPlan`].
///
/// Subscription churn is application-tier (it never touches the kernel or
/// the overlay protocol directly), so it compiles into a separate event
/// list rather than [`Fault`]s: harnesses that host a topic layer replay
/// these as subscribe/unsubscribe commands, and everything else ignores
/// them for free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedSub {
    /// When the subscription change fires.
    pub at: SimTime,
    /// The node whose subscription set changes.
    pub node: NodeId,
    /// The logical topic.
    pub topic: u32,
    /// `true` = subscribe, `false` = unsubscribe.
    pub subscribe: bool,
}

/// The population a scenario compiles against: node count, scenario seed,
/// optional group (site/cluster) assignment for correlated faults, and
/// the absolute time the scenario's `t = 0` maps to.
#[derive(Debug, Clone)]
pub struct ScenarioEnv<'a> {
    nodes: usize,
    seed: u64,
    groups: Option<&'a [u32]>,
    start: SimTime,
}

impl<'a> ScenarioEnv<'a> {
    /// An environment of `nodes` nodes compiled with `seed`. Scenario
    /// offsets are relative to simulation time zero; shift them with
    /// [`ScenarioEnv::starting_at`].
    pub fn new(nodes: usize, seed: u64) -> Self {
        ScenarioEnv {
            nodes,
            seed,
            groups: None,
            start: SimTime::ZERO,
        }
    }

    /// Supplies a group (site/cluster) id per node, enabling
    /// [`Scenario::crash_group_at`] and [`Split::IsolateGroup`].
    ///
    /// # Panics
    ///
    /// Panics if `groups.len()` differs from the node count.
    pub fn with_groups(mut self, groups: &'a [u32]) -> Self {
        assert_eq!(groups.len(), self.nodes, "one group id per node");
        self.groups = Some(groups);
        self
    }

    /// Maps the scenario's `t = 0` to the absolute time `start` (typically
    /// the end of an experiment's warm-up phase).
    pub fn starting_at(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// The node count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

/// A scenario step, before compilation. Stochastic steps (`Churn`,
/// `MassLeave`, `FlashCrowd`, group crashes) expand to concrete faults at
/// compile time.
#[derive(Debug, Clone)]
enum Step {
    Crash {
        at: Duration,
        node: u32,
    },
    CrashGroup {
        at: Duration,
        group: u32,
    },
    CrashGroupOf {
        at: Duration,
        node: u32,
    },
    CutLink {
        at: Duration,
        a: u32,
        b: u32,
    },
    HealLink {
        at: Duration,
        a: u32,
        b: u32,
    },
    Loss {
        at: Duration,
        p: f64,
    },
    Jitter {
        at: Duration,
        jitter: Duration,
    },
    Partition {
        at: Duration,
        heal_at: Duration,
        split: Split,
    },
    Churn {
        start: Duration,
        end: Duration,
        leave_rate: f64,
        join_rate: f64,
    },
    MassLeave {
        at: Duration,
        count: usize,
    },
    FlashCrowd {
        at: Duration,
        count: usize,
    },
    SubscribeFlood {
        at: Duration,
        count: usize,
        topics: u32,
    },
    TopicFlashcrowd {
        at: Duration,
        topic: u32,
        count: usize,
    },
}

/// A declarative fault schedule: build one with the chained methods, then
/// [`Scenario::compile`] it against a [`ScenarioEnv`] into a concrete
/// [`ScenarioPlan`].
///
/// All times are offsets from the environment's start time. See the
/// [module docs](crate::scenario) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Scenario {
    steps: Vec<Step>,
    protected: Vec<u32>,
    min_present: usize,
}

impl Default for Scenario {
    fn default() -> Self {
        Self::new()
    }
}

impl Scenario {
    /// An empty scenario (no faults).
    pub fn new() -> Self {
        Scenario {
            steps: Vec::new(),
            protected: Vec::new(),
            min_present: 2,
        }
    }

    /// Crashes `node` at `at` (permanent: crashed nodes never return).
    pub fn crash_at(mut self, at: Duration, node: NodeId) -> Self {
        self.steps.push(Step::Crash {
            at,
            node: node.as_u32(),
        });
        self
    }

    /// Crashes every present node of `group` at `at` — a correlated
    /// site/AS-level failure. Requires [`ScenarioEnv::with_groups`].
    pub fn crash_group_at(mut self, at: Duration, group: u32) -> Self {
        self.steps.push(Step::CrashGroup { at, group });
        self
    }

    /// Crashes every present node in the same group as `node` at `at`.
    /// Requires [`ScenarioEnv::with_groups`].
    pub fn crash_group_of_at(mut self, at: Duration, node: NodeId) -> Self {
        self.steps.push(Step::CrashGroupOf {
            at,
            node: node.as_u32(),
        });
        self
    }

    /// Cuts the network path between `a` and `b` at `at`.
    pub fn cut_link_at(mut self, at: Duration, a: NodeId, b: NodeId) -> Self {
        self.steps.push(Step::CutLink {
            at,
            a: a.as_u32(),
            b: b.as_u32(),
        });
        self
    }

    /// Restores the path between `a` and `b` at `at`.
    pub fn heal_link_at(mut self, at: Duration, a: NodeId, b: NodeId) -> Self {
        self.steps.push(Step::HealLink {
            at,
            a: a.as_u32(),
            b: b.as_u32(),
        });
        self
    }

    /// Sets the per-message loss probability to `p` from `at` onward.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn loss_at(mut self, at: Duration, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} not in 0..=1"
        );
        self.steps.push(Step::Loss { at, p });
        self
    }

    /// Sets the maximum per-message latency jitter from `at` onward.
    pub fn jitter_at(mut self, at: Duration, jitter: Duration) -> Self {
        self.steps.push(Step::Jitter { at, jitter });
        self
    }

    /// Partitions the network at `at` and heals it at `heal_at`.
    ///
    /// # Panics
    ///
    /// Panics if `heal_at < at`.
    pub fn partition_at(mut self, at: Duration, heal_at: Duration, split: Split) -> Self {
        assert!(heal_at >= at, "partition must heal after it forms");
        self.steps.push(Step::Partition { at, heal_at, split });
        self
    }

    /// Runs a Poisson churn process over `[start, end)`: graceful leaves
    /// arrive at `leave_rate` per second and rejoins of previously departed
    /// nodes at `join_rate` per second. Leave victims are drawn uniformly
    /// from present, unprotected nodes; joiners contact a uniformly drawn
    /// present node.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or either rate is negative or non-finite.
    pub fn churn(
        mut self,
        start: Duration,
        end: Duration,
        leave_rate: f64,
        join_rate: f64,
    ) -> Self {
        assert!(end >= start, "churn window must not be inverted");
        assert!(
            leave_rate >= 0.0 && leave_rate.is_finite(),
            "leave rate must be finite and non-negative"
        );
        assert!(
            join_rate >= 0.0 && join_rate.is_finite(),
            "join rate must be finite and non-negative"
        );
        self.steps.push(Step::Churn {
            start,
            end,
            leave_rate,
            join_rate,
        });
        self
    }

    /// `count` simultaneous graceful leaves at `at` (drawn uniformly from
    /// present, unprotected nodes).
    pub fn mass_leave_at(mut self, at: Duration, count: usize) -> Self {
        self.steps.push(Step::MassLeave { at, count });
        self
    }

    /// A flash crowd: `count` previously departed nodes rejoin
    /// simultaneously at `at` (each through a random present contact).
    /// Rejoins only ever revive *departed* nodes, so schedule departures
    /// first.
    pub fn flash_crowd_at(mut self, at: Duration, count: usize) -> Self {
        self.steps.push(Step::FlashCrowd { at, count });
        self
    }

    /// A subscription flood: at `at`, `count` uniformly drawn nodes each
    /// subscribe to a uniformly drawn topic in `0..topics`. Application
    /// harnesses replay the resulting [`ScenarioPlan::sub_events`];
    /// protocol-only runs ignore them.
    ///
    /// # Panics
    ///
    /// Panics if `topics` is zero.
    pub fn subscribe_flood(mut self, at: Duration, count: usize, topics: u32) -> Self {
        assert!(topics > 0, "subscribe flood needs at least one topic");
        self.steps.push(Step::SubscribeFlood { at, count, topics });
        self
    }

    /// A topic flash crowd: at `at`, `count` uniformly drawn nodes all
    /// subscribe to the single hot `topic`.
    pub fn topic_flashcrowd(mut self, at: Duration, topic: u32, count: usize) -> Self {
        self.steps.push(Step::TopicFlashcrowd { at, topic, count });
        self
    }

    /// Exempts `node` from stochastic leave/crash selection (timed
    /// [`Scenario::crash_at`] steps still apply). Useful to keep a
    /// designated root or measurement vantage alive.
    pub fn protect(mut self, node: NodeId) -> Self {
        self.protected.push(node.as_u32());
        self
    }

    /// Stochastic departures never shrink the present population below
    /// `floor` nodes (default 2).
    pub fn min_present(mut self, floor: usize) -> Self {
        self.min_present = floor;
        self
    }

    /// Number of steps described (stochastic steps count once, however
    /// many faults they expand to).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Expands every stochastic process into concrete faults and returns
    /// the time-sorted plan. Deterministic: the same scenario and
    /// environment always produce the same plan.
    ///
    /// # Panics
    ///
    /// Panics if a step requires group information the environment does
    /// not carry, references a node id outside `0..env.nodes()` (see
    /// [`Scenario::check_nodes`]), or a [`Split::Custom`] label vector has
    /// the wrong length.
    pub fn compile(&self, env: &ScenarioEnv<'_>) -> ScenarioPlan {
        self.check_nodes(env.nodes)
            .unwrap_or_else(|e| panic!("{e}"));
        Compiler::new(self, env).run()
    }

    /// Checks that every node a step names exists in a population of
    /// `nodes`: what [`Scenario::compile`] requires, as an error a caller
    /// holding user input can report.
    pub fn check_nodes(&self, nodes: usize) -> Result<(), String> {
        for step in &self.steps {
            // The largest id a step names is the one that can be out of range.
            let node = match *step {
                Step::Crash { node, .. } | Step::CrashGroupOf { node, .. } => node,
                Step::CutLink { a, b, .. } | Step::HealLink { a, b, .. } => a.max(b),
                _ => continue,
            };
            if node as usize >= nodes {
                return Err(format!(
                    "scenario references node {node} but the environment has {nodes} nodes"
                ));
            }
        }
        Ok(())
    }
}

/// Membership-affecting operation, resolved in time order at compile time.
#[derive(Debug)]
enum MemOp {
    ChurnLeave,
    ChurnJoin,
    MassLeave(usize),
    Flash(usize),
    Crash(u32),
    CrashGroup(u32),
    CrashGroupOf(u32),
}

struct Compiler<'s, 'e> {
    scenario: &'s Scenario,
    env: &'e ScenarioEnv<'e>,
    rng: SmallRng,
    present: Vec<bool>,
    /// Nodes that left gracefully and may rejoin.
    out_pool: Vec<u32>,
    events: Vec<PlannedFault>,
    bursts: Vec<(SimTime, String)>,
    sub_events: Vec<PlannedSub>,
}

impl<'s, 'e> Compiler<'s, 'e> {
    fn new(scenario: &'s Scenario, env: &'e ScenarioEnv<'e>) -> Self {
        Compiler {
            scenario,
            env,
            // A stream distinct from both the kernel's per-node streams
            // (seed * GOLDEN ^ node_index) and its chaos stream.
            rng: SmallRng::seed_from_u64(
                env.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5CE7_A110_CA05_0B5E,
            ),
            present: vec![true; env.nodes],
            out_pool: Vec::new(),
            events: Vec::new(),
            bursts: Vec::new(),
            sub_events: Vec::new(),
        }
    }

    fn at(&self, offset: Duration) -> SimTime {
        self.env.start + offset
    }

    fn groups(&self) -> &[u32] {
        self.env
            .groups
            .expect("scenario uses group-correlated faults but the environment has no groups")
    }

    fn run(mut self) -> ScenarioPlan {
        // Phase 1: collect membership-affecting operations with stable
        // ordering keys, expanding Poisson processes into arrivals.
        let mut ops: Vec<(Duration, u64, MemOp)> = Vec::new();
        let mut order = 0u64;
        let mut push = |ops: &mut Vec<(Duration, u64, MemOp)>, at: Duration, op: MemOp| {
            ops.push((at, order, op));
            order += 1;
        };
        for step in &self.scenario.steps {
            match step {
                Step::Churn {
                    start,
                    end,
                    leave_rate,
                    join_rate,
                } => {
                    for t in poisson_arrivals(&mut self.rng, *start, *end, *leave_rate) {
                        push(&mut ops, t, MemOp::ChurnLeave);
                    }
                    for t in poisson_arrivals(&mut self.rng, *start, *end, *join_rate) {
                        push(&mut ops, t, MemOp::ChurnJoin);
                    }
                }
                Step::MassLeave { at, count } => push(&mut ops, *at, MemOp::MassLeave(*count)),
                Step::FlashCrowd { at, count } => push(&mut ops, *at, MemOp::Flash(*count)),
                Step::Crash { at, node } => push(&mut ops, *at, MemOp::Crash(*node)),
                Step::CrashGroup { at, group } => push(&mut ops, *at, MemOp::CrashGroup(*group)),
                Step::CrashGroupOf { at, node } => {
                    push(&mut ops, *at, MemOp::CrashGroupOf(*node));
                }
                _ => {}
            }
        }
        ops.sort_by_key(|(at, order, _)| (*at, *order));

        // Phase 2: resolve them in time order against the evolving
        // membership bookkeeping.
        for (at, _, op) in ops {
            let at = self.at(at);
            match op {
                MemOp::ChurnLeave => self.resolve_leaves(at, 1, "churn-leave"),
                MemOp::ChurnJoin => self.resolve_joins(at, 1),
                MemOp::MassLeave(k) => {
                    self.bursts.push((at, format!("mass-leave({k})")));
                    self.resolve_leaves(at, k, "mass-leave");
                }
                MemOp::Flash(k) => {
                    self.bursts.push((at, format!("flash-crowd({k})")));
                    self.resolve_joins(at, k);
                }
                MemOp::Crash(node) => self.resolve_crash(at, node),
                MemOp::CrashGroup(g) => self.resolve_group_crash(at, g),
                MemOp::CrashGroupOf(node) => {
                    let g = self.groups()[node as usize];
                    self.resolve_group_crash(at, g);
                }
            }
        }

        // Phase 3: membership-independent steps map to faults directly.
        for step in &self.scenario.steps {
            match step {
                Step::CutLink { at, a, b } => {
                    let f = NetFault::CutLink(NodeId::new(*a), NodeId::new(*b));
                    self.emit_net(*at, f);
                }
                Step::HealLink { at, a, b } => {
                    let f = NetFault::HealLink(NodeId::new(*a), NodeId::new(*b));
                    self.emit_net(*at, f);
                }
                Step::Loss { at, p } => self.emit_net(*at, NetFault::SetLoss(*p)),
                Step::Jitter { at, jitter } => self.emit_net(*at, NetFault::SetJitter(*jitter)),
                Step::Partition { at, heal_at, split } => {
                    let sides = self.resolve_split(split);
                    self.bursts.push((self.at(*at), "partition".to_string()));
                    self.bursts
                        .push((self.at(*heal_at), "partition-heal".to_string()));
                    self.emit_net(*at, NetFault::partition(sides));
                    self.emit_net(*heal_at, NetFault::HealPartition);
                }
                _ => {}
            }
        }

        // Phase 4: subscription churn. Runs *after* every fault-side RNG
        // draw so adding subscription steps to a scenario never changes
        // the fault schedule it compiles to (and scenarios without them
        // draw nothing here, keeping chaos-only plans byte-identical).
        for step in &self.scenario.steps {
            match step {
                Step::SubscribeFlood { at, count, topics } => {
                    let at = self.at(*at);
                    self.bursts.push((at, format!("subscribe-flood({count})")));
                    for _ in 0..*count {
                        let node = self.rng.gen_range(0..self.env.nodes as u32);
                        let topic = self.rng.gen_range(0..*topics);
                        self.sub_events.push(PlannedSub {
                            at,
                            node: NodeId::new(node),
                            topic,
                            subscribe: true,
                        });
                    }
                }
                Step::TopicFlashcrowd { at, topic, count } => {
                    let at = self.at(*at);
                    self.bursts
                        .push((at, format!("topic-flashcrowd(t{topic}:{count})")));
                    for _ in 0..*count {
                        let node = self.rng.gen_range(0..self.env.nodes as u32);
                        self.sub_events.push(PlannedSub {
                            at,
                            node: NodeId::new(node),
                            topic: *topic,
                            subscribe: true,
                        });
                    }
                }
                _ => {}
            }
        }

        self.events.sort_by_key(|e| e.at);
        self.bursts.sort_by_key(|b| b.0);
        self.sub_events.sort_by_key(|s| s.at);
        ScenarioPlan {
            nodes: self.env.nodes,
            events: self.events,
            bursts: self.bursts,
            sub_events: self.sub_events,
        }
    }

    fn emit(&mut self, at: SimTime, fault: Fault) {
        self.events.push(PlannedFault { at, fault });
    }

    fn emit_net(&mut self, offset: Duration, fault: NetFault) {
        self.emit(self.at(offset), Fault::Net(fault));
    }

    fn present_count(&self) -> usize {
        self.present.iter().filter(|p| **p).count()
    }

    /// Picks the `k`-th present node satisfying `pred`, uniformly.
    fn pick_present(&mut self, exclude_protected: bool) -> Option<u32> {
        let protected = &self.scenario.protected;
        let eligible: Vec<u32> = self
            .present
            .iter()
            .enumerate()
            .filter(|(i, p)| **p && !(exclude_protected && protected.contains(&(*i as u32))))
            .map(|(i, _)| i as u32)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..eligible.len());
        Some(eligible[i])
    }

    fn resolve_leaves(&mut self, at: SimTime, count: usize, _label: &str) {
        for _ in 0..count {
            if self.present_count() <= self.scenario.min_present.max(2) {
                return;
            }
            let Some(victim) = self.pick_present(true) else {
                return;
            };
            self.present[victim as usize] = false;
            self.out_pool.push(victim);
            self.emit(at, Fault::Leave(NodeId::new(victim)));
        }
    }

    fn resolve_joins(&mut self, at: SimTime, count: usize) {
        for _ in 0..count {
            if self.out_pool.is_empty() {
                return;
            }
            let i = self.rng.gen_range(0..self.out_pool.len());
            let node = self.out_pool.swap_remove(i);
            let Some(contact) = self.pick_present(false) else {
                self.out_pool.push(node);
                return;
            };
            self.present[node as usize] = true;
            self.emit(
                at,
                Fault::Join {
                    node: NodeId::new(node),
                    contact: NodeId::new(contact),
                },
            );
        }
    }

    fn resolve_crash(&mut self, at: SimTime, node: u32) {
        if self.present[node as usize] {
            self.present[node as usize] = false;
            // Crashed nodes never rejoin: not added to the out-pool.
            self.emit(at, Fault::Crash(NodeId::new(node)));
        }
    }

    fn resolve_group_crash(&mut self, at: SimTime, group: u32) {
        let victims: Vec<u32> = self
            .groups()
            .iter()
            .enumerate()
            .filter(|(i, g)| **g == group && self.present[*i])
            .map(|(i, _)| i as u32)
            .collect();
        if victims.is_empty() {
            return;
        }
        self.bursts
            .push((at, format!("crash-group({group}):{}", victims.len())));
        for v in victims {
            self.resolve_crash(at, v);
        }
    }

    fn resolve_split(&self, split: &Split) -> Vec<u32> {
        let n = self.env.nodes;
        match split {
            Split::Halves => (0..n).map(|i| u32::from(i >= n / 2)).collect(),
            Split::IsolateGroup(g) => self.groups().iter().map(|x| u32::from(x == g)).collect(),
            Split::Custom(sides) => {
                assert_eq!(sides.len(), n, "custom split must label every node");
                sides.clone()
            }
        }
    }
}

/// Exponentially distributed Poisson arrival offsets within `[start, end)`.
fn poisson_arrivals(
    rng: &mut SmallRng,
    start: Duration,
    end: Duration,
    rate: f64,
) -> Vec<Duration> {
    let mut out = Vec::new();
    if rate <= 0.0 {
        return out;
    }
    let mut t = start.as_secs_f64();
    let end = end.as_secs_f64();
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// A compiled, time-sorted fault schedule. Obtained from
/// [`Scenario::compile`]; apply it with [`ScenarioPlan::schedule_into`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPlan {
    nodes: usize,
    events: Vec<PlannedFault>,
    /// Labelled fault *bursts* (mass events, group crashes, partitions)
    /// worth measuring recovery after.
    bursts: Vec<(SimTime, String)>,
    /// Application-tier subscription changes, sorted by firing time.
    sub_events: Vec<PlannedSub>,
}

impl ScenarioPlan {
    /// The concrete faults, sorted by firing time.
    pub fn events(&self) -> &[PlannedFault] {
        &self.events
    }

    /// Application-tier subscription changes, sorted by firing time.
    /// Empty unless the scenario used [`Scenario::subscribe_flood`] or
    /// [`Scenario::topic_flashcrowd`]; protocol-only harnesses may ignore
    /// them entirely.
    pub fn sub_events(&self) -> &[PlannedSub] {
        &self.sub_events
    }

    /// Labelled fault bursts (mass leaves, flash crowds, group crashes,
    /// partition form/heal instants) in time order — the instants a
    /// recovery analysis should measure repair time from.
    pub fn bursts(&self) -> &[(SimTime, String)] {
        &self.bursts
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The firing time of the last fault, if any.
    pub fn end(&self) -> Option<SimTime> {
        self.events.last().map(|e| e.at)
    }

    /// The node count the plan was compiled for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Per-node presence over time as implied by the plan (leaves and
    /// crashes make a node absent; joins make it present again).
    pub fn presence(&self) -> PresenceTimeline {
        let mut per_node: Vec<Vec<(SimTime, bool)>> = vec![Vec::new(); self.nodes];
        for ev in &self.events {
            match &ev.fault {
                Fault::Crash(n) | Fault::Leave(n) => per_node[n.index()].push((ev.at, false)),
                Fault::Join { node, .. } => per_node[node.index()].push((ev.at, true)),
                _ => {}
            }
        }
        PresenceTimeline { per_node }
    }

    /// Schedules every planned fault onto `sim` — a [`Sim`](crate::Sim) or
    /// a [`ShardedSim`](crate::ShardedSim) alike. Crashes and network
    /// faults are the kernel's own; [`Fault::Leave`] and [`Fault::Join`]
    /// become protocol commands built by `leave` / `join` (`join` receives
    /// the contact node).
    ///
    /// # Panics
    ///
    /// Panics if `sim` has a different node count than the plan was
    /// compiled for, or if any fault time is already in the past.
    pub fn schedule_into<P, R, M>(
        &self,
        sim: &mut Engine<P, R, M>,
        mut join: impl FnMut(NodeId) -> P::Command,
        mut leave: impl FnMut() -> P::Command,
    ) where
        P: Protocol,
        R: Recorder<P::Event>,
        M: Mode,
    {
        assert_eq!(
            sim.len(),
            self.nodes,
            "plan was compiled for a different node count"
        );
        for ev in &self.events {
            match &ev.fault {
                Fault::Crash(n) => sim.fail_node_at(ev.at, *n),
                Fault::Leave(n) => sim.schedule_command(ev.at, *n, leave()),
                Fault::Join { node, contact } => {
                    sim.schedule_command(ev.at, *node, join(*contact));
                }
                Fault::Net(fault) => sim.schedule_fault(ev.at, fault.clone()),
            }
        }
    }
}

/// Per-node presence over time, derived from a [`ScenarioPlan`]. Every
/// node starts present; graceful leaves and crashes make it absent, joins
/// make it present again.
#[derive(Debug, Clone)]
pub struct PresenceTimeline {
    /// Per node: `(time, present)` transitions in time order.
    per_node: Vec<Vec<(SimTime, bool)>>,
}

impl PresenceTimeline {
    /// Whether `node` is present at time `at` (transitions take effect at
    /// their own timestamp).
    pub fn present(&self, node: NodeId, at: SimTime) -> bool {
        let mut state = true;
        for &(t, p) in &self.per_node[node.index()] {
            if t > at {
                break;
            }
            state = p;
        }
        state
    }

    /// Whether `node` is present at `at` and never departs afterwards —
    /// the eligibility test for end-of-run delivery audits.
    pub fn present_from(&self, node: NodeId, at: SimTime) -> bool {
        if !self.present(node, at) {
            return false;
        }
        !self.per_node[node.index()]
            .iter()
            .any(|&(t, p)| t > at && !p)
    }

    /// Number of nodes present at `at`.
    pub fn count_present(&self, at: SimTime) -> usize {
        (0..self.per_node.len())
            .filter(|&i| self.present(NodeId::new(i as u32), at))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SimBuilder;
    use crate::latency::FixedLatency;
    use crate::protocol::{Ctx, Timer, Wire};
    use crate::stats::TrafficClass;

    /// A protocol that does nothing (scenario tests drive the kernel).
    struct Quiet;

    #[derive(Debug)]
    struct Never;

    impl Wire for Never {
        fn wire_size(&self) -> u32 {
            0
        }
        fn class(&self) -> TrafficClass {
            TrafficClass::Data
        }
    }

    impl Protocol for Quiet {
        type Msg = Never;
        type Command = QuietCmd;
        type Event = ();

        fn on_start(&mut self, _: &mut Ctx<'_, Self>) {}
        fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: Never) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, Self>, _: Timer) {}
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum QuietCmd {
        Join(NodeId),
        Leave,
    }

    fn env_with_seed(nodes: usize, seed: u64) -> ScenarioEnv<'static> {
        ScenarioEnv::new(nodes, seed)
    }

    #[test]
    fn compile_is_deterministic_and_seed_sensitive() {
        let s = Scenario::new().churn(Duration::ZERO, Duration::from_secs(60), 0.5, 0.5);
        let a = s.compile(&env_with_seed(64, 1));
        let b = s.compile(&env_with_seed(64, 1));
        assert_eq!(a, b);
        let c = s.compile(&env_with_seed(64, 2));
        assert_ne!(a, c, "different seed, different plan");
        assert!(!a.is_empty(), "expected ~30 leaves and ~30 joins");
    }

    #[test]
    fn churn_alternates_within_population_bounds() {
        let s = Scenario::new()
            .churn(Duration::ZERO, Duration::from_secs(200), 1.0, 1.0)
            .min_present(8);
        let plan = s.compile(&env_with_seed(16, 3));
        // Replay the membership bookkeeping and check the floor.
        let mut present = [true; 16];
        for ev in plan.events() {
            match &ev.fault {
                Fault::Leave(n) => {
                    assert!(present[n.index()], "leave of an absent node");
                    present[n.index()] = false;
                }
                Fault::Join { node, contact } => {
                    assert!(!present[node.index()], "join of a present node");
                    assert!(present[contact.index()], "contact must be present");
                    assert_ne!(node, contact);
                    present[node.index()] = true;
                }
                f => panic!("unexpected fault {f:?}"),
            }
            assert!(present.iter().filter(|p| **p).count() >= 8);
        }
    }

    #[test]
    fn protected_nodes_never_leave() {
        let s = Scenario::new()
            .churn(Duration::ZERO, Duration::from_secs(500), 2.0, 0.5)
            .protect(NodeId::new(0));
        let plan = s.compile(&env_with_seed(8, 5));
        for ev in plan.events() {
            if let Fault::Leave(n) = &ev.fault {
                assert_ne!(*n, NodeId::new(0), "protected node left");
            }
        }
    }

    #[test]
    fn group_crash_kills_whole_site_once() {
        let groups = [0u32, 0, 1, 1, 1, 2, 2, 2];
        let s = Scenario::new()
            .crash_group_at(Duration::from_secs(5), 1)
            .crash_group_of_at(Duration::from_secs(9), NodeId::new(0));
        let env = ScenarioEnv::new(8, 1).with_groups(&groups);
        let plan = s.compile(&env);
        let crashed: Vec<u32> = plan
            .events()
            .iter()
            .filter_map(|e| match &e.fault {
                Fault::Crash(n) => Some(n.as_u32()),
                _ => None,
            })
            .collect();
        assert_eq!(crashed, vec![2, 3, 4, 0, 1]);
        assert_eq!(plan.bursts().len(), 2);
    }

    #[test]
    fn flash_crowd_revives_departed_nodes() {
        let s = Scenario::new()
            .mass_leave_at(Duration::from_secs(1), 5)
            .flash_crowd_at(Duration::from_secs(10), 5)
            .min_present(2);
        let plan = s.compile(&env_with_seed(16, 7));
        let leaves: Vec<NodeId> = plan
            .events()
            .iter()
            .filter_map(|e| match &e.fault {
                Fault::Leave(n) => Some(*n),
                _ => None,
            })
            .collect();
        let joins: Vec<NodeId> = plan
            .events()
            .iter()
            .filter_map(|e| match &e.fault {
                Fault::Join { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(leaves.len(), 5);
        let mut l = leaves.clone();
        let mut j = joins.clone();
        l.sort();
        j.sort();
        assert_eq!(l, j, "exactly the departed nodes return");
        // Presence timeline agrees.
        let presence = plan.presence();
        for &n in &leaves {
            assert!(presence.present(n, SimTime::ZERO));
            assert!(!presence.present(n, SimTime::from_secs(5)));
            assert!(presence.present(n, SimTime::from_secs(11)));
            assert!(!presence.present_from(n, SimTime::ZERO));
            assert!(presence.present_from(n, SimTime::from_secs(10)));
        }
        assert_eq!(presence.count_present(SimTime::from_secs(5)), 11);
        assert_eq!(presence.count_present(SimTime::from_secs(10)), 16);
    }

    #[test]
    fn subscription_churn_compiles_deterministic_sorted_sub_events() {
        let s = Scenario::new()
            .topic_flashcrowd(Duration::from_secs(9), 3, 4)
            .subscribe_flood(Duration::from_secs(2), 6, 8);
        let env = env_with_seed(32, 13);
        let plan = s.compile(&env);
        assert_eq!(
            plan,
            s.compile(&env),
            "sub-event compilation is deterministic"
        );
        assert!(
            plan.events().is_empty(),
            "subscription churn is not a fault"
        );
        let subs = plan.sub_events();
        assert_eq!(subs.len(), 10);
        assert!(subs.windows(2).all(|w| w[0].at <= w[1].at), "time-sorted");
        for s in &subs[..6] {
            assert_eq!(s.at, SimTime::from_secs(2));
            assert!(s.topic < 8);
            assert!(s.node.as_u32() < 32);
            assert!(s.subscribe);
        }
        for s in &subs[6..] {
            assert_eq!(s.at, SimTime::from_secs(9));
            assert_eq!(s.topic, 3);
        }
        assert_eq!(plan.bursts().len(), 2);
    }

    #[test]
    fn subscription_steps_never_perturb_the_fault_schedule() {
        let faults_only = Scenario::new()
            .churn(Duration::ZERO, Duration::from_secs(30), 0.5, 0.5)
            .mass_leave_at(Duration::from_secs(10), 3);
        let with_subs = faults_only
            .clone()
            .subscribe_flood(Duration::from_secs(1), 16, 4)
            .topic_flashcrowd(Duration::from_secs(5), 0, 8);
        let env = env_with_seed(64, 21);
        let a = faults_only.compile(&env);
        let b = with_subs.compile(&env);
        assert_eq!(a.events(), b.events(), "fault schedule unchanged");
        assert!(a.sub_events().is_empty());
        assert_eq!(b.sub_events().len(), 24);
    }

    #[test]
    fn split_resolution() {
        let groups = [0u32, 1, 1, 0];
        let env = ScenarioEnv::new(4, 1).with_groups(&groups);
        let halves = Scenario::new()
            .partition_at(Duration::ZERO, Duration::from_secs(1), Split::Halves)
            .compile(&env);
        let isolate = Scenario::new()
            .partition_at(
                Duration::ZERO,
                Duration::from_secs(1),
                Split::IsolateGroup(1),
            )
            .compile(&env);
        let sides = |plan: &ScenarioPlan| match &plan.events()[0].fault {
            Fault::Net(NetFault::Partition(s)) => s.to_vec(),
            f => panic!("expected partition, got {f:?}"),
        };
        assert_eq!(sides(&halves), vec![0, 0, 1, 1]);
        assert_eq!(sides(&isolate), vec![0, 1, 1, 0]);
        assert!(matches!(
            halves.events()[1].fault,
            Fault::Net(NetFault::HealPartition)
        ));
    }

    #[test]
    fn starting_at_shifts_all_times() {
        let s = Scenario::new().crash_at(Duration::from_secs(3), NodeId::new(1));
        let base = SimTime::from_secs(100);
        let plan = s.compile(&ScenarioEnv::new(4, 1).starting_at(base));
        assert_eq!(plan.events()[0].at, SimTime::from_secs(103));
        assert_eq!(plan.end(), Some(SimTime::from_secs(103)));
    }

    #[test]
    fn schedule_into_applies_kernel_and_command_faults() {
        let s = Scenario::new()
            .crash_at(Duration::from_secs(1), NodeId::new(5))
            .mass_leave_at(Duration::from_secs(2), 2)
            .flash_crowd_at(Duration::from_secs(3), 2)
            .partition_at(
                Duration::from_secs(4),
                Duration::from_secs(6),
                Split::Halves,
            )
            .loss_at(Duration::from_secs(5), 0.25)
            .jitter_at(Duration::from_secs(5), Duration::from_millis(7))
            .cut_link_at(Duration::from_secs(1), NodeId::new(0), NodeId::new(1));
        let plan = s.compile(&env_with_seed(8, 11));
        let mut sim =
            SimBuilder::new(FixedLatency::new(8, Duration::from_millis(1))).build(|_| Quiet);
        plan.schedule_into(&mut sim, QuietCmd::Join, || QuietCmd::Leave);
        sim.run_until(SimTime::from_secs(5) + Duration::from_millis(1));
        assert!(!sim.is_alive(NodeId::new(5)));
        assert!(sim.faults().partition().is_some());
        assert!(sim.faults().is_cut(NodeId::new(0), NodeId::new(1)));
        assert_eq!(sim.faults().loss(), 0.25);
        assert_eq!(sim.faults().jitter(), Duration::from_millis(7));
        sim.run_until(SimTime::from_secs(7));
        assert!(
            sim.faults().partition().is_none(),
            "partition healed on schedule"
        );
        // 1 crash + 2 leaves + 2 joins + cut + partition + heal + loss + jitter.
        assert_eq!(plan.len(), 10);
        let k = sim.kernel_stats();
        assert_eq!(k.commands, 4, "two leaves and two joins dispatched");
    }
}
