//! # SPMS — Shortest Path Minded SPIN
//!
//! A complete, deterministic reproduction of *"Fault Tolerant Energy Aware
//! Data Dissemination Protocol in Sensor Networks"* (Khanna, Bagchi, Wu —
//! DSN 2004): the SPMS protocol, the SPIN and flooding baselines, and the
//! discrete-event simulation engine that measures them.
//!
//! ## The protocol in one paragraph
//!
//! SPMS keeps SPIN's metadata negotiation — a source broadcasts a tiny ADV,
//! interested nodes send REQ, data follows — but exploits the radio's
//! multiple power levels: ADVs are broadcast zone-wide while REQ and DATA
//! travel hop-by-hop along minimum-energy shortest paths computed by a
//! distributed Bellman-Ford run inside each zone. Destinations track a
//! primary and secondary originator (PRONE/SCONE) per data item and fail
//! over via the τADV/τDAT timers, tolerating source and relay failures.
//!
//! ## Quick start
//!
//! ```
//! use spms::{Generation, Interest, MetaId, ProtocolKind, SimConfig, Simulation, TrafficPlan};
//! use spms_kernel::SimTime;
//! use spms_net::{placement, NodeId};
//!
//! // 25 motes on a 5 m grid, one data item, everyone interested.
//! let topo = placement::grid(5, 5, 5.0).unwrap();
//! let source = NodeId::new(12);
//! let plan = TrafficPlan::new(
//!     vec![Generation { at: SimTime::ZERO, source, meta: MetaId::new(source, 0) }],
//!     Interest::AllNodes,
//! ).unwrap();
//!
//! let metrics = Simulation::run_with(
//!     SimConfig::paper_defaults(ProtocolKind::Spms, 42),
//!     topo,
//!     plan,
//! ).unwrap();
//! assert_eq!(metrics.deliveries, 24);
//! println!("{}", metrics.summary());
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`config`] | [`SimConfig`] (Table 1 defaults), timeout policy |
//! | [`engine`] | [`Simulation`] — the discrete-event engine |
//! | [`spin`] / [`spms_proto`] / [`flooding`] | the protocol state machines |
//! | [`interzone`] | SPMS-IZ — the paper's §6 inter-zone extension |
//! | [`protocol`] | the [`Protocol`] trait and [`Action`] vocabulary |
//! | [`traffic`] | [`TrafficPlan`] / [`Interest`] |
//! | [`results`] | [`RunMetrics`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod config;
pub mod engine;
pub mod flooding;
pub mod interzone;
mod message;
mod metadata;
pub mod protocol;
pub mod results;
pub mod spin;
pub mod spms_proto;
pub mod traffic;

pub use adversary::{AdversaryConfig, NodeBehavior};
pub use config::{IzConfig, ProtocolKind, RoutingMode, SimConfig, TimeoutPolicy, Timeouts};
pub use engine::Simulation;
pub use flooding::FloodingNode;
pub use interzone::{IzResolved, SpmsIzNode};
pub use message::{Addressee, OutFrame, Packet, PacketKind, PacketSizes, Payload};
pub use metadata::{DataStore, MetaId};
pub use protocol::{Action, NodeProtocol, NodeView, Protocol, TimerKind};
pub use results::{AdversaryStats, MessageCounts, RoutingCost, RunMetrics};
pub use spin::SpinNode;
pub use spms_proto::{SpmsNode, SpmsParams};
pub use spms_routing::TableLayout;
pub use traffic::{Generation, Interest, TrafficPlan};
