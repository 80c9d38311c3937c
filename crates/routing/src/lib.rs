//! Zone routing for SPMS: distributed Bellman-Ford with k-route tables.
//!
//! §3.2 of the paper: "The Distributed Bellman Ford (DBF) algorithm is
//! executed in each zone to form the routes. Each entry of the routing table
//! at each node has a destination field and the cost of going to the
//! destination through each of its neighbors. Maintaining n entries for each
//! destination enables the protocol to tolerate concurrent failures of n
//! intermediate nodes."
//!
//! This crate provides:
//!
//! * [`RoutingTable`] / [`RouteEntry`] — per-destination lists of up to `k`
//!   next-hop alternatives ordered by cost (the paper's implementation keeps
//!   the shortest and second-shortest path, `k = 2`), stored densely (a
//!   sorted destination vector plus `k` route slots per destination, kept
//!   as parallel cost / next-hop / hops planes) rather than in a
//!   per-entry map,
//! * [`DbfEngine`] — the distance-vector exchange itself, run in synchronous
//!   rounds until quiescence, with message/byte accounting so the simulation
//!   can charge the routing-table-formation energy the paper includes in its
//!   mobility results (Figure 12). Besides the full rebuild it supports
//!   *incremental delta re-convergence* ([`DbfEngine::update_topology`] /
//!   [`DbfEngine::invalidate_zone`]): a topology event invalidates only the
//!   destinations it can reach and the exchange propagates only the changed
//!   entries, reaching the exact same fixpoint as a from-scratch rebuild at
//!   a fraction of the cost,
//! * [`oracle_tables`] / [`oracle_tables_masked`] — centralized construction
//!   of the same tables from the Dijkstra oracle, used to cross-check the
//!   distributed algorithm and as a fast path for static failure-free
//!   experiments,
//! * [`reference_rebuild`] — the sequential full DBF rebuild, kept apart
//!   from the engine as the exact reference (tables and message
//!   accounting) every engine execution is tested against,
//! * [`DbfWireFormat`] — the byte-size model for distance-vector packets
//!   (full and delta messages share the layout: a header plus per-entry
//!   triples, so delta savings show up directly in the byte accounting).
//!
//! # Example
//!
//! ```
//! use spms_net::{placement, NodeId, ZoneTable};
//! use spms_phy::RadioProfile;
//! use spms_routing::DbfEngine;
//!
//! let topo = placement::grid(5, 1, 5.0).unwrap();
//! let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
//! let mut dbf = DbfEngine::new(&zones, 2);
//! let stats = dbf.run_to_convergence(&zones);
//! assert!(stats.rounds >= 2);
//! // Node 4 reaches node 0 through its 5 m neighbor, node 3.
//! let best = dbf.table(NodeId::new(4)).best(NodeId::new(0)).unwrap();
//! assert_eq!(best.via, NodeId::new(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dbf;
mod oracle;
mod table;
mod wire;

pub use dbf::{DbfEngine, DbfStats};
pub use oracle::{oracle_tables, oracle_tables_masked, reference_rebuild};
pub use table::{RouteEntry, Routes, RoutesIter, RoutingTable, TableLayout};
pub use wire::DbfWireFormat;
