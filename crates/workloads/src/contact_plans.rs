//! Contact-plan generators: the scheduled-connectivity workloads.
//!
//! Two DTN-flavored scenarios layered on the paper's uniform grid:
//!
//! * [`satellite_passes`] — a constellation-backhaul overlay. The square
//!   field is split at a vertical seam and every link crossing the seam is
//!   treated as a pass to an overhead relay: up for the first
//!   `duty × period` of every period, down between passes. The dense local
//!   field on either side keeps its geometry-derived connectivity (a plan
//!   constrains only the links it names).
//! * [`interregional`] — the inter-zone pipeline of EXT1 with a scheduled
//!   cut: all links crossing a chosen position along the line share the
//!   same pass schedule, so data crosses regions only while the contact is
//!   up. This is the workload that drives `crates/interzone`'s bordercast
//!   pull across scheduled connectivity.
//!
//! Both generators produce an ordinary [`ContactPlan`], so everything
//! downstream — gate, timeline, engine staging, oracle chain — is shared
//! with hand-written `.cp` files.

use spms_kernel::SimTime;
use spms_net::{ContactPlan, ContactWindow, NodeId};

/// Builds the shared pass schedule for a set of links: every listed pair is
/// up for the first `duty × period` of each period, starting at `t = 0`,
/// for every period that begins before `horizon`.
///
/// `duty >= 1` produces one window covering the whole run (the link is
/// gated but never down); `duty <= 0` — or a duty so small the pass rounds
/// to zero nanoseconds — produces one window entirely beyond the horizon,
/// so the link is gated down for the whole run (a zero-length window would
/// be dropped at load and silently un-gate the link instead).
fn pass_schedule(
    pairs: &[(NodeId, NodeId)],
    period: SimTime,
    duty: f64,
    horizon: SimTime,
) -> Result<ContactPlan, String> {
    if period == SimTime::ZERO {
        return Err("contact pass period must be positive".into());
    }
    if !duty.is_finite() {
        return Err(format!("contact duty cycle {duty} must be finite"));
    }
    if horizon == SimTime::ZERO {
        return Err("contact horizon must be positive".into());
    }
    let up = SimTime::from_nanos((period.as_nanos() as f64 * duty.clamp(0.0, 1.0)).round() as u64);
    let mut spans: Vec<(SimTime, SimTime)> = Vec::new();
    if up == SimTime::ZERO {
        // Permanently severed: one never-reached window keeps the link in
        // the plan (and therefore down) without scheduling any flip.
        spans.push((
            horizon.saturating_add(period),
            horizon.saturating_add(period * 2),
        ));
    } else if up >= period {
        spans.push((SimTime::ZERO, horizon.saturating_add(period)));
    } else {
        let mut start = SimTime::ZERO;
        while start < horizon {
            spans.push((start, start + up));
            start = start.saturating_add(period);
        }
    }
    let windows = pairs.iter().flat_map(|&(a, b)| {
        spans
            .iter()
            .map(move |&(start, end)| ContactWindow { a, b, start, end })
    });
    ContactPlan::from_windows(windows)
}

/// Satellite-constellation pass schedule over a `side × side` grid.
///
/// Splits the field at the vertical seam between columns `side/2 - 1` and
/// `side/2` and puts every seam-crossing link on a shared pass schedule:
/// up for the first `duty × period` of every period until `horizon`.
/// Links within either half are untouched. `duty = 1` reproduces the
/// ungated field byte-for-byte; `duty = 0` severs the halves for the whole
/// run.
///
/// # Errors
///
/// Returns a message when `side < 2`, the period or horizon is zero, or
/// the duty cycle is not finite.
pub fn satellite_passes(
    side: usize,
    period: SimTime,
    duty: f64,
    horizon: SimTime,
) -> Result<ContactPlan, String> {
    if side < 2 {
        return Err(format!("satellite pass field needs side >= 2, got {side}"));
    }
    let cut = side / 2;
    let mut pairs = Vec::new();
    for a in 0..side * side {
        if a % side >= cut {
            continue;
        }
        for b in 0..side * side {
            if b % side >= cut {
                pairs.push((NodeId::new(a as u32), NodeId::new(b as u32)));
            }
        }
    }
    pass_schedule(&pairs, period, duty, horizon)
}

/// Inter-regional pipeline contact: a line of `len` nodes (ids `0..len`,
/// as EXT1's pipeline, [`Sweep::PipelineLengths`]) cut at `cut` — every link between a node
/// `< cut` and a node `>= cut` shares one pass schedule (up for the first
/// `duty × period` of every period until `horizon`). The regions on
/// either side stay internally connected; only the inter-regional contact
/// is scheduled. Drives the `crates/interzone` bordercast machinery:
/// SPMS-IZ's pull must land while the contact is up.
///
/// [`Sweep::PipelineLengths`]: crate::figures::Sweep::PipelineLengths
///
/// # Errors
///
/// Returns a message when the cut does not split the line (`cut == 0` or
/// `cut >= len`), the period or horizon is zero, or the duty cycle is not
/// finite.
pub fn interregional(
    len: usize,
    cut: usize,
    period: SimTime,
    duty: f64,
    horizon: SimTime,
) -> Result<ContactPlan, String> {
    if cut == 0 || cut >= len {
        return Err(format!(
            "inter-regional cut {cut} must split the {len}-node line"
        ));
    }
    let mut pairs = Vec::new();
    for a in 0..cut {
        for b in cut..len {
            pairs.push((NodeId::new(a as u32), NodeId::new(b as u32)));
        }
    }
    pass_schedule(&pairs, period, duty, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn satellite_passes_gate_exactly_the_seam() {
        let period = SimTime::from_secs(2);
        let horizon = SimTime::from_secs(5);
        let plan = satellite_passes(3, period, 0.5, horizon).unwrap();
        // 3×3 grid, cut = 1: column 0 (nodes 0,3,6) vs columns 1-2.
        assert_eq!(plan.num_links(), 3 * 6);
        assert!(!plan.windows_for(n(0), n(1)).is_empty(), "seam link gated");
        assert!(
            plan.windows_for(n(1), n(2)).is_empty(),
            "right half ungated"
        );
        assert!(plan.windows_for(n(0), n(3)).is_empty(), "left half ungated");
        // Pass 0 covers t=0, so the seam starts up and flips on schedule.
        assert!(plan.initial_gate().is_up(n(0), n(1)));
        assert_eq!(
            plan.windows_for(n(0), n(1)),
            &[
                (SimTime::ZERO, SimTime::from_secs(1)),
                (SimTime::from_secs(2), SimTime::from_secs(3)),
                (SimTime::from_secs(4), SimTime::from_secs(5)),
            ]
        );
        let d = plan.duty_cycle(n(0), n(1), SimTime::from_secs(4));
        assert!((d - 0.5).abs() < 1e-12, "duty cycle round-trips: {d}");
    }

    #[test]
    fn full_duty_gates_but_never_drops() {
        let plan = satellite_passes(3, SimTime::from_secs(2), 1.0, SimTime::from_secs(5)).unwrap();
        assert_eq!(plan.num_windows(), plan.num_links(), "one window per link");
        assert!(plan.initial_gate().is_up(n(0), n(1)));
        // The only boundary (the close) is beyond the horizon.
        assert!(plan.timeline().iter().all(|e| e.at > SimTime::from_secs(5)));
    }

    #[test]
    fn zero_duty_severs_for_the_whole_run() {
        for duty in [0.0, 1e-15] {
            let plan =
                satellite_passes(3, SimTime::from_secs(2), duty, SimTime::from_secs(5)).unwrap();
            assert!(!plan.initial_gate().is_up(n(0), n(1)), "duty {duty}");
            assert!(
                plan.timeline().iter().all(|e| e.at > SimTime::from_secs(5)),
                "duty {duty}: no flip may fire within the horizon"
            );
        }
    }

    #[test]
    fn interregional_cuts_the_line() {
        let plan = interregional(9, 4, SimTime::from_secs(1), 0.25, SimTime::from_secs(2)).unwrap();
        assert_eq!(plan.num_links(), 4 * 5);
        assert!(!plan.windows_for(n(3), n(4)).is_empty());
        assert!(
            plan.windows_for(n(4), n(5)).is_empty(),
            "right region ungated"
        );
        assert!(interregional(9, 0, SimTime::from_secs(1), 0.5, SimTime::from_secs(2)).is_err());
        assert!(interregional(9, 9, SimTime::from_secs(1), 0.5, SimTime::from_secs(2)).is_err());
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let p = SimTime::from_secs(1);
        let h = SimTime::from_secs(2);
        assert!(satellite_passes(1, p, 0.5, h).is_err());
        assert!(satellite_passes(3, SimTime::ZERO, 0.5, h).is_err());
        assert!(satellite_passes(3, p, f64::NAN, h).is_err());
        assert!(satellite_passes(3, p, 0.5, SimTime::ZERO).is_err());
    }
}
