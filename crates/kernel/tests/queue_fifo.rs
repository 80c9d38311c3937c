//! Seeded property suite for the binary-heap `EventQueue`, the simulator's
//! only event kernel. Random interleaved schedule/pop sequences with
//! duplicate timestamps are checked against the simplest possible correct
//! scheduler: a flat `Vec` scanned for the minimum `(time, insertion id)`
//! on every pop. If the heap ever deviated from the documented global
//! `(time, seq)` order — including FIFO on ties and zero-delay
//! reschedules — this suite would catch it.

use proptest::prelude::*;
use spms_kernel::{EventQueue, SimTime};

/// Transparently-correct reference: O(n) min-scan over `(time_ns, id)`
/// pairs, where `id` is a monotone insertion counter. Tuple ordering gives
/// exactly the contract the heap promises.
#[derive(Default)]
struct ModelQueue {
    pending: Vec<(u64, u64)>,
    next_id: u64,
}

impl ModelQueue {
    fn schedule(&mut self, time_ns: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push((time_ns, id));
        id
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let (at, _) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|&(_, &entry)| entry)?;
        Some(self.pending.swap_remove(at))
    }
}

/// Interprets one fuzz op against both the model and the heap, asserting
/// byte-equal pop results. `time_of` maps raw fuzz data to a timestamp so
/// each property picks its own time distribution.
fn run_against_model(ops: &[(u8, u64)], time_of: impl Fn(u64) -> u64) -> Result<(), TestCaseError> {
    let mut model = ModelQueue::default();
    let mut heap = EventQueue::new();
    for &(op, data) in ops {
        if op % 3 == 2 {
            let got = heap.pop();
            let want = model.pop().map(|(t, id)| (SimTime::from_nanos(t), id));
            prop_assert_eq!(got, want);
        } else {
            let t = time_of(data);
            let id = model.schedule(t);
            heap.schedule(SimTime::from_nanos(t), id);
        }
    }
    // Drain the remainder: the tail must agree too.
    loop {
        let got = heap.pop();
        let want = model.pop().map(|(t, id)| (SimTime::from_nanos(t), id));
        prop_assert_eq!(got, want);
        if got.is_none() {
            break;
        }
    }
    prop_assert_eq!(heap.scheduled_total(), model.next_id);
    Ok(())
}

proptest! {
    // Fixed seed + bounded case count keeps this suite deterministic in CI.
    #![proptest_config(ProptestConfig {
        cases: 64,
        rng_seed: 0x000F_EED0_2004,
        ..ProptestConfig::default()
    })]

    /// Clustered timestamps (16 distinct instants): maximal tie pressure,
    /// so FIFO-on-equal-time carries most of the ordering.
    #[test]
    fn clustered_times_match_the_model(
        ops in prop::collection::vec((0u8..6, 0u64..1_000_000), 1..250),
    ) {
        run_against_model(&ops, |d| (d % 16) * 1_000_000)?;
    }

    /// Sparse timestamps across the full `u64` range — no ties, ordering
    /// driven purely by time, including extremes near `u64::MAX`.
    #[test]
    fn sparse_times_match_the_model(
        ops in prop::collection::vec((0u8..6, 0u64..u64::MAX), 1..250),
    ) {
        run_against_model(&ops, |d| d.wrapping_mul(0x9E37_79B9_7F4A_7C15))?;
    }

    /// Pure schedule-then-drain: the popped sequence is exactly the input
    /// stably sorted by `(time, insertion order)`.
    #[test]
    fn full_drain_is_a_stable_sort(
        times in prop::collection::vec(0u64..8, 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut want: Vec<(u64, u64)> = Vec::new();
        for (id, &ms) in times.iter().enumerate() {
            let t = ms * 1_000_000;
            q.schedule(SimTime::from_nanos(t), id as u64);
            want.push((t, id as u64));
        }
        want.sort(); // (time, id): a stable sort by time alone
        let got: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, id)| (t.as_nanos(), id))).collect();
        prop_assert_eq!(got, want);
    }

    /// Zero-delay reschedules: whenever a pop delivers time `t`, new events
    /// scheduled at exactly `t` must surface in the same pass, in seq
    /// order — the model enforces this by construction.
    #[test]
    fn zero_delay_reschedules_match_the_model(
        ops in prop::collection::vec((0u8..4, 0u64..64, 0u8..4), 1..150),
    ) {
        let mut model = ModelQueue::default();
        let mut heap = EventQueue::new();
        for &(op, data, extra) in &ops {
            if op == 3 {
                let got = heap.pop();
                let want = model.pop().map(|(t, id)| (SimTime::from_nanos(t), id));
                prop_assert_eq!(got, want);
                if let Some((t, _)) = got {
                    // The handler fires back at the instant being dispatched.
                    for _ in 0..extra {
                        let id = model.schedule(t.as_nanos());
                        heap.schedule(t, id);
                    }
                }
            } else {
                let t = (data % 8) * 500_000;
                let id = model.schedule(t);
                heap.schedule(SimTime::from_nanos(t), id);
            }
        }
        loop {
            let got = heap.pop();
            let want = model.pop().map(|(t, id)| (SimTime::from_nanos(t), id));
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
