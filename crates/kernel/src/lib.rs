//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the foundation of the SPMS reproduction (Khanna, Bagchi, Wu,
//! *Fault Tolerant Energy Aware Data Dissemination Protocol in Sensor
//! Networks*, DSN 2004). The paper evaluates its protocol in a custom
//! discrete-event simulator; this crate provides that substrate:
//!
//! * [`SimTime`] — fixed-point simulation time (nanoseconds) with exact
//!   conversions from the paper's millisecond constants,
//! * [`EventQueue`] — a priority queue with stable FIFO ordering for events
//!   scheduled at the same instant, so runs are bit-reproducible,
//! * [`SimRng`] — a seeded xoshiro256\*\* PRNG plus the distributions the
//!   paper needs (uniform, exponential inter-arrivals, Poisson processes),
//! * [`stats`] — counters, tallies and confidence intervals used by the
//!   measurement harness,
//! * [`trace`] — a bounded event trace for debugging protocol runs.
//!
//! # Example
//!
//! ```
//! use spms_kernel::{EventQueue, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_millis(2), "b");
//! queue.schedule(SimTime::from_millis(1), "a");
//! queue.schedule(SimTime::from_millis(1), "a2"); // same instant: FIFO
//!
//! let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, ["a", "a2", "b"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host;
mod queue;
mod rng;
mod time;

pub mod stats;
pub mod trace;

pub use host::host_parallelism;
pub use queue::EventQueue;
pub use rng::{PoissonProcess, SimRng};
pub use time::SimTime;
