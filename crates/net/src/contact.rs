//! Scheduled connectivity: contact plans in the DTN tradition.
//!
//! Satellite constellations, duty-cycled radios, and inter-regional relays
//! share a property the paper's mobility/failure processes cannot express:
//! links go up and down at *known, scheduled* times. A [`ContactPlan`]
//! holds per-link up-windows (validated and merged at load, parseable from
//! a `.cp`-style text file), a [`LinkGate`] answers "is this link up right
//! now", and a [`ContactProcess`] walks the plan's window boundaries as a
//! precomputed timeline of [`ContactEpoch`]s for the simulation scheduler
//! to fire — each epoch feeding the same zone patch and routing
//! re-convergence mobility epochs use, so the DBF and oracle paths apply
//! unchanged.
//!
//! # Window semantics
//!
//! Windows are half-open `[start, end)`: a link is up at exactly `start`
//! and down again at exactly `end`. Overlapping or touching windows on the
//! same link merge at load; zero-length windows (`start == end`) are
//! validated no-ops and dropped. Links never named by the plan are always
//! up — a plan constrains only the links it mentions, so a constellation
//! overlay can gate a handful of long-haul links while the dense local
//! field keeps its geometry-derived connectivity.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use spms_kernel::SimTime;

use crate::NodeId;

/// Normalizes an unordered node pair to `(lo, hi)` — the key both the plan
/// and the gate index links by (contact windows are bidirectional).
fn pair_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// One scheduled up-window for a link, half-open `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContactWindow {
    /// One endpoint of the link.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// The instant the link comes up (inclusive).
    pub start: SimTime,
    /// The instant the link goes down again (exclusive).
    pub end: SimTime,
}

/// The set of plan-gated links that are currently **down**.
///
/// Links the plan never mentions are always up; a gated link starts down
/// unless one of its windows covers `t = 0`. The zone builders consult the
/// gate through [`ZoneTable::build_gated`] and friends, so a down link
/// simply vanishes from both the adjacency rows and the MAC density
/// counts — exactly as if the endpoints were out of radio range.
///
/// [`ZoneTable::build_gated`]: crate::ZoneTable::build_gated
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkGate {
    down: BTreeSet<(NodeId, NodeId)>,
}

impl LinkGate {
    /// A gate with every link up (the no-plan behavior).
    #[must_use]
    pub fn all_up() -> Self {
        LinkGate::default()
    }

    /// `true` when the link between `a` and `b` is up. Symmetric; a node is
    /// always "up" to itself.
    #[must_use]
    pub fn is_up(&self, a: NodeId, b: NodeId) -> bool {
        a == b || !self.down.contains(&pair_key(a, b))
    }

    /// Sets the link between `a` and `b` up or down. Idempotent.
    pub fn set(&mut self, a: NodeId, b: NodeId, up: bool) {
        let key = pair_key(a, b);
        if up {
            self.down.remove(&key);
        } else {
            self.down.insert(key);
        }
    }

    /// Number of links currently gated down.
    #[must_use]
    pub fn down_count(&self) -> usize {
        self.down.len()
    }
}

/// One link state change inside a [`ContactEpoch`]. Endpoints are
/// normalized (`a < b`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFlip {
    /// Lower endpoint of the link.
    pub a: NodeId,
    /// Higher endpoint of the link.
    pub b: NodeId,
    /// `true` when the link comes up, `false` when it goes down.
    pub up: bool,
}

/// Every link flip sharing one timestamp, dispatched as **one** scheduler
/// event, so a timestamp's flips land atomically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContactEpoch {
    /// The simulation time the flips take effect.
    pub at: SimTime,
    /// The flips, in ascending `(a, b)` order.
    pub flips: Vec<LinkFlip>,
}

/// A validated, merged contact plan: per-link scheduled up-windows.
///
/// # Example
///
/// ```
/// use spms_net::{ContactPlan, NodeId};
/// use spms_kernel::SimTime;
///
/// let plan = ContactPlan::parse(
///     "# one pass, seconds\n\
///      0 1 0.5 2.0\n\
///      0 1 1.5 3.0\n",
/// )
/// .unwrap();
/// assert_eq!(plan.num_links(), 1);
/// assert_eq!(plan.num_windows(), 1, "overlapping windows merge");
/// let gate = plan.initial_gate();
/// assert!(!gate.is_up(NodeId::new(0), NodeId::new(1)), "down until 0.5 s");
/// assert_eq!(plan.timeline().len(), 2, "one open + one close boundary");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContactPlan {
    /// Merged windows per normalized pair: sorted, non-overlapping,
    /// non-touching, all strictly positive-length.
    windows: BTreeMap<(NodeId, NodeId), Vec<(SimTime, SimTime)>>,
}

impl ContactPlan {
    /// Builds a plan from raw windows, validating and merging.
    ///
    /// Zero-length windows are dropped (an up-and-down at one instant is a
    /// no-op under half-open semantics); overlapping or touching windows on
    /// the same link merge into one.
    ///
    /// # Errors
    ///
    /// Returns a message when a window is a self-link (`a == b`) or runs
    /// backwards (`start > end`).
    pub fn from_windows(windows: impl IntoIterator<Item = ContactWindow>) -> Result<Self, String> {
        let mut by_pair: BTreeMap<(NodeId, NodeId), Vec<(SimTime, SimTime)>> = BTreeMap::new();
        for w in windows {
            if w.a == w.b {
                return Err(format!("contact window {} -> {} is a self-link", w.a, w.b));
            }
            if w.start > w.end {
                return Err(format!(
                    "contact window {} {} runs backwards: {} > {}",
                    w.a, w.b, w.start, w.end
                ));
            }
            if w.start == w.end {
                continue; // zero-length: validated no-op
            }
            by_pair
                .entry(pair_key(w.a, w.b))
                .or_default()
                .push((w.start, w.end));
        }
        for spans in by_pair.values_mut() {
            spans.sort_unstable();
            let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(spans.len());
            for &(s, e) in spans.iter() {
                match merged.last_mut() {
                    // Touching windows ([a,b) + [b,c)) are continuous
                    // connectivity: merge them too.
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => merged.push((s, e)),
                }
            }
            *spans = merged;
        }
        by_pair.retain(|_, spans| !spans.is_empty());
        Ok(ContactPlan { windows: by_pair })
    }

    /// Parses the `.cp`-style text format: one `node_a node_b t_start
    /// t_end` record per line, times in **seconds** (decimal fractions
    /// allowed), `#` starting a comment, blank lines skipped.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed records,
    /// non-finite or negative times, times beyond [`SimTime`]'s range
    /// (about 1.8e10 s), self-links, or backwards windows.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut windows = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(format!(
                    "line {}: expected `node_a node_b t_start t_end`, got {} field(s)",
                    idx + 1,
                    fields.len()
                ));
            }
            let node = |s: &str, what: &str| -> Result<NodeId, String> {
                s.parse::<u32>()
                    .map(NodeId::new)
                    .map_err(|_| format!("line {}: bad {what} node id {s:?}", idx + 1))
            };
            let time = |s: &str, what: &str| -> Result<SimTime, String> {
                let secs: f64 = s
                    .parse()
                    .map_err(|_| format!("line {}: bad {what} time {s:?}", idx + 1))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!(
                        "line {}: {what} time {s:?} must be finite and non-negative",
                        idx + 1
                    ));
                }
                // Past the clock's range the conversion saturates to
                // `SimTime::MAX`, which would silently collapse the window.
                let ms = secs * 1e3;
                if ms * 1e6 >= SimTime::MAX.as_nanos() as f64 {
                    return Err(format!(
                        "line {}: {what} time {s:?} is beyond the simulation clock's \
                         range (about 1.8e10 s)",
                        idx + 1
                    ));
                }
                Ok(SimTime::from_millis_f64(ms))
            };
            windows.push(ContactWindow {
                a: node(fields[0], "first")?,
                b: node(fields[1], "second")?,
                start: time(fields[2], "start")?,
                end: time(fields[3], "end")?,
            });
        }
        Self::from_windows(windows).map_err(|e| format!("contact plan: {e}"))
    }

    /// Loads and parses a contact-plan file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the file on I/O or parse failures.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// `true` when the plan gates no links at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Number of distinct links the plan gates.
    #[must_use]
    pub fn num_links(&self) -> usize {
        self.windows.len()
    }

    /// Total number of (merged) up-windows across all links.
    #[must_use]
    pub fn num_windows(&self) -> usize {
        self.windows.values().map(Vec::len).sum()
    }

    /// The highest node id the plan names, if any — range-checked against
    /// the topology when the plan is installed.
    #[must_use]
    pub fn max_node(&self) -> Option<NodeId> {
        self.windows.keys().map(|&(_, hi)| hi).max()
    }

    /// The merged up-windows of the link `a`–`b` (empty when ungated).
    #[must_use]
    pub fn windows_for(&self, a: NodeId, b: NodeId) -> &[(SimTime, SimTime)] {
        self.windows.get(&pair_key(a, b)).map_or(&[], Vec::as_slice)
    }

    /// The gate state at `t = 0`: every plan-gated link is down unless its
    /// first window opens at exactly `t = 0`.
    #[must_use]
    pub fn initial_gate(&self) -> LinkGate {
        let mut gate = LinkGate::default();
        for (&(a, b), spans) in &self.windows {
            let up_at_zero = spans.first().is_some_and(|&(s, _)| s == SimTime::ZERO);
            if !up_at_zero {
                gate.set(a, b, false);
            }
        }
        gate
    }

    /// The plan's window boundaries as a timeline of [`ContactEpoch`]s in
    /// ascending time order: one epoch per distinct timestamp, carrying
    /// every flip at that instant (in ascending pair order). Opens at
    /// `t = 0` are folded into [`ContactPlan::initial_gate`] instead of
    /// emitting a flip.
    #[must_use]
    pub fn timeline(&self) -> Vec<ContactEpoch> {
        let mut by_time: BTreeMap<SimTime, Vec<LinkFlip>> = BTreeMap::new();
        for (&(a, b), spans) in &self.windows {
            for &(s, e) in spans {
                if s > SimTime::ZERO {
                    by_time
                        .entry(s)
                        .or_default()
                        .push(LinkFlip { a, b, up: true });
                }
                by_time
                    .entry(e)
                    .or_default()
                    .push(LinkFlip { a, b, up: false });
            }
        }
        by_time
            .into_iter()
            .map(|(at, mut flips)| {
                // The outer loop visits pairs in sorted order, but one pair
                // can contribute to many timestamps — re-sort each epoch so
                // the flip order is a property of the plan, not the walk.
                flips.sort_unstable_by_key(|f| (f.a, f.b, f.up));
                ContactEpoch { at, flips }
            })
            .collect()
    }

    /// Fraction of `[0, horizon)` the link `a`–`b` is up (1.0 when the plan
    /// does not gate it) — the duty-cycle axis of the EXT6 figures.
    #[must_use]
    pub fn duty_cycle(&self, a: NodeId, b: NodeId, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 1.0;
        }
        let Some(spans) = self.windows.get(&pair_key(a, b)) else {
            return 1.0;
        };
        let up: u128 = spans
            .iter()
            .map(|&(s, e)| u128::from(e.min(horizon).saturating_sub(s.min(horizon)).as_nanos()))
            .sum();
        up as f64 / u128::from(horizon.as_nanos()) as f64
    }
}

/// Walks a [`ContactPlan`]'s timeline for the engine: the simulation stages
/// one epoch at a time (exactly like the mobility and churn processes), so
/// the scheduler holds at most one pending `ContactEpoch` event.
#[derive(Clone, Debug)]
pub struct ContactProcess {
    timeline: Vec<ContactEpoch>,
    next: usize,
}

impl ContactProcess {
    /// Builds the process from a plan (precomputing the full timeline).
    #[must_use]
    pub fn new(plan: &ContactPlan) -> Self {
        ContactProcess {
            timeline: plan.timeline(),
            next: 0,
        }
    }

    /// The next epoch, in time order, or `None` when the plan is exhausted.
    pub fn next_epoch(&mut self) -> Option<ContactEpoch> {
        let epoch = self.timeline.get(self.next).cloned();
        self.next += epoch.is_some() as usize;
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_millis_f64(s * 1e3)
    }

    #[test]
    fn parse_merges_overlapping_and_touching_windows() {
        let plan = ContactPlan::parse(
            "# comment line\n\
             \n\
             0 1 0 10       # covers t=0\n\
             1 0 5 15       # overlaps, reversed endpoints\n\
             0 1 15 20      # touches: still one continuous window\n\
             2 3 4 4        # zero-length no-op\n\
             2 3 30 40\n",
        )
        .unwrap();
        assert_eq!(plan.num_links(), 2);
        assert_eq!(plan.num_windows(), 2);
        assert_eq!(plan.windows_for(n(1), n(0)), &[(secs(0.0), secs(20.0))]);
        assert_eq!(plan.windows_for(n(3), n(2)), &[(secs(30.0), secs(40.0))]);
        assert_eq!(plan.max_node(), Some(n(3)));
    }

    #[test]
    fn parse_errors_name_the_line() {
        for (text, needle) in [
            ("0 1 2\n", "line 1"),
            ("0 1 2 3\nx 1 0 5\n", "line 2"),
            ("0 1 nan 5\n", "finite"),
            ("0 1 -1 5\n", "non-negative"),
            ("4 4 0 5\n", "self-link"),
            ("0 1 9 5\n", "backwards"),
            // Beyond the clock's range both ends would saturate to
            // `SimTime::MAX` and the window would vanish, ungating the link.
            ("0 1 2 3\n0 1 2e10 3e10\n", "line 2: start time"),
            ("0 1 0 3e10\n", "line 1: end time"),
        ] {
            let err = ContactPlan::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn parse_keeps_far_times_within_the_clock_range() {
        let plan = ContactPlan::parse("0 1 0 1e9\n").unwrap();
        assert_eq!(plan.windows_for(n(0), n(1)), &[(secs(0.0), secs(1e9))]);
    }

    #[test]
    fn initial_gate_downs_everything_not_open_at_zero() {
        let plan = ContactPlan::parse("0 1 0 10\n2 3 5 10\n").unwrap();
        let gate = plan.initial_gate();
        assert!(gate.is_up(n(0), n(1)), "window opens at t=0");
        assert!(!gate.is_up(n(2), n(3)), "first window opens later");
        assert!(gate.is_up(n(5), n(9)), "ungated links are always up");
        assert!(gate.is_up(n(2), n(2)), "self is always up");
        assert_eq!(gate.down_count(), 1);
    }

    #[test]
    fn timeline_groups_flips_by_timestamp_and_skips_zero_opens() {
        let plan = ContactPlan::parse("0 1 0 10\n2 3 5 10\n4 5 10 20\n").unwrap();
        let tl = plan.timeline();
        let times: Vec<SimTime> = tl.iter().map(|e| e.at).collect();
        assert_eq!(times, vec![secs(5.0), secs(10.0), secs(20.0)]);
        assert_eq!(
            tl[0].flips,
            vec![LinkFlip {
                a: n(2),
                b: n(3),
                up: true
            }]
        );
        // Three links flip at t=10 s — one epoch, pair-sorted.
        assert_eq!(
            tl[1].flips,
            vec![
                LinkFlip {
                    a: n(0),
                    b: n(1),
                    up: false
                },
                LinkFlip {
                    a: n(2),
                    b: n(3),
                    up: false
                },
                LinkFlip {
                    a: n(4),
                    b: n(5),
                    up: true
                },
            ]
        );
        assert!(tl.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn process_walks_the_timeline_once() {
        let plan = ContactPlan::parse("0 1 1 2\n").unwrap();
        let mut proc = ContactProcess::new(&plan);
        assert_eq!(proc.next_epoch().unwrap().at, secs(1.0));
        assert_eq!(proc.next_epoch().unwrap().at, secs(2.0));
        assert!(proc.next_epoch().is_none());
        assert!(proc.next_epoch().is_none());
    }

    #[test]
    fn gate_set_is_idempotent_and_symmetric() {
        let mut gate = LinkGate::all_up();
        gate.set(n(7), n(2), false);
        gate.set(n(7), n(2), false);
        assert_eq!(gate.down_count(), 1);
        assert!(!gate.is_up(n(2), n(7)));
        gate.set(n(2), n(7), true);
        assert!(gate.is_up(n(7), n(2)));
        assert_eq!(gate.down_count(), 0);
    }

    #[test]
    fn duty_cycle_clamps_to_the_horizon() {
        let plan = ContactPlan::parse("0 1 0 5\n0 1 10 15\n").unwrap();
        let d = plan.duty_cycle(n(0), n(1), secs(10.0));
        assert!((d - 0.5).abs() < 1e-12, "5 s up of 10 s: {d}");
        assert_eq!(plan.duty_cycle(n(8), n(9), secs(10.0)), 1.0);
        assert_eq!(plan.duty_cycle(n(0), n(1), SimTime::ZERO), 1.0);
    }

    #[test]
    fn empty_plans_gate_nothing() {
        let plan = ContactPlan::parse("# nothing\n").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.initial_gate(), LinkGate::all_up());
        assert!(plan.timeline().is_empty());
    }
}
