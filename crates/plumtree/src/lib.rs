//! # gocast-plumtree — a rival protocol stack on the shared kernel
//!
//! An independent implementation of **Plumtree** (epidemic broadcast
//! trees; Leitão, Pereira, Rodrigues — SRDS 2007) running over
//! **HyParView** partial membership (same authors, DSN 2007), built as a
//! second [`gocast_sim::Stack`] so GoCast can be compared head-to-head
//! against the closest prior art on identical simulated networks, fault
//! scenarios, and seeds.
//!
//! ## How the two designs differ
//!
//! GoCast maintains an *explicit* low-latency overlay (random + nearby
//! links with degree balancing) and runs a DVMRP-style routing tree on
//! top; gossip is a *repair* channel. Plumtree inverts this: the "tree"
//! is implicit — the set of links on which full payloads travelled — and
//! is carved out of HyParView's random active view by demoting redundant
//! edges to lazy IHAVE announcements (PRUNE) and promoting them back when
//! a payload goes missing (GRAFT). There is no latency awareness and no
//! global root.
//!
//! ## Mapping onto the shared observability surface
//!
//! The node emits [`gocast::GoCastEvent`] with the same semantics the
//! analysis layer already understands:
//!
//! | Plumtree action              | Event                                   |
//! |------------------------------|-----------------------------------------|
//! | eager payload push           | `PushSent` / `Delivered{via: tree}`     |
//! | lazy IHAVE announcement      | `IHaveSent`                             |
//! | graft request                | `PullRequested`                         |
//! | graft served / recovery      | `PullServed` / `Delivered{via: pull}`   |
//! | active-view add/remove       | `LinkAdded` / `LinkDropped` (random)    |
//! | first link gained/lost       | `ParentChanged{Some/None}`              |
//!
//! See `DESIGN.md` ("Protocol stack interface") for the capability flags
//! this stack advertises and which oracle checks apply to it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod node;

pub use node::{PlumtreeMsg, PlumtreeNode};
