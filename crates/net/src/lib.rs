//! Sensor-field topology substrate for the SPMS reproduction.
//!
//! The paper evaluates on "a sensor field with uniform density of nodes"
//! whose area grows with the node count, with three dynamic processes layered
//! on top: zone formation (the set of nodes reachable at maximum power),
//! node mobility ("at some discrete times in the simulator clock, a
//! predefined fraction of nodes move"), and transient node failures
//! ("exponential inter-arrival time … stay failed for a time drawn from a
//! uniform distribution").
//!
//! This crate provides those pieces:
//!
//! * [`NodeId`] / [`Point`] — identity and 2-D geometry,
//! * [`placement`] — uniform-grid (the paper's uniform-density field) and
//!   uniform-random placement,
//! * [`Topology`] — positions plus range queries,
//! * [`SpatialGrid`] — a uniform spatial-hash index over the field (cell
//!   size = zone radius) bounding neighbor queries to O(k),
//! * [`ZoneTable`] — per-node zone neighbor lists with the minimum power
//!   level and link weight for each neighbor (the weighted graph DBF runs
//!   on), buildable all-pairs ([`ZoneTable::build`], the reference
//!   oracle), grid-indexed ([`ZoneTable::build_indexed`]), or patched
//!   incrementally after moves and link flips ([`ZoneTable::patch`] →
//!   [`ZoneDelta`], the one change record routing consumes),
//! * [`ContactPlan`] / [`ContactProcess`] — scheduled connectivity in the
//!   DTN contact-plan tradition: per-link up/down windows loaded from
//!   `.cp`-style text, walked as timed link flips a [`LinkGate`] applies
//!   to the zone builders,
//! * [`MobilityProcess`] — the epoch-based random relocation model,
//! * [`ChurnProcess`] — epoch-based mass join/leave cohorts (the
//!   heavy-churn stress regime for the incremental zone/DBF paths),
//! * [`FailureProcess`] — the transient-failure injection schedule,
//! * [`ZoneSearch`] / [`dijkstra`] — a centralized shortest-path oracle
//!   used to verify the distributed Bellman-Ford implementation, with the
//!   route tie window [`COST_EPS`] it shares with the routing tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod contact;
mod failure;
mod graph;
mod mobility;
mod node;
pub mod placement;
mod point;
mod spatial;
mod topology;
mod zone;

pub use churn::{ChurnConfig, ChurnEpoch, ChurnProcess};
pub use contact::{ContactEpoch, ContactPlan, ContactProcess, ContactWindow, LinkFlip, LinkGate};
pub use failure::{FailureConfig, FailureEvent, FailureProcess};
pub use graph::{dijkstra, dijkstra_masked, PathCost, ZoneSearch, COST_EPS};
pub use mobility::{MobilityConfig, MobilityEpoch, MobilityProcess};
pub use node::NodeId;
pub use point::Point;
pub use spatial::SpatialGrid;
pub use topology::{Field, Topology};
pub use zone::{MovedZone, ZoneDelta, ZoneLink, ZoneTable};
