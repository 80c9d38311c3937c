//! Scheduled-connectivity integration suite: contact-plan window edges
//! and the full knob-matrix acceptance gate.
//!
//! Two layers, mirroring the mobility/churn suites:
//!
//! 1. **Window-edge invariance.** Zero-length windows, boundaries landing
//!    on the same timestamp as a mobility epoch, overlapping windows on
//!    one link, and plans whose first window opens at `t = 0` must all
//!    produce byte-identical `RunMetrics` between the incremental
//!    zone/DBF patch path and the all-pairs full-rebuild oracle.
//! 2. **Knob matrix.** A contact-driven run (scheduled flips layered on
//!    mobility) must be byte-identical between the incremental and
//!    full-rebuild oracles across every table layout × shard count
//!    combination — wall-clock knobs stay wall-clock even under scheduled
//!    connectivity.

use spms::{ProtocolKind, RoutingMode, RunMetrics, SimConfig, Simulation, TableLayout};
use spms_kernel::SimTime;
use spms_net::{placement, ContactPlan, MobilityConfig, NodeId};
use spms_workloads::traffic;

fn plan(text: &str) -> ContactPlan {
    ContactPlan::parse(text).expect("test plans are valid")
}

/// A distributed-routing config with mobility epochs every 400 ms — the
/// epoch cadence the window-edge plans below deliberately collide with.
fn contact_config(seed: u64, text: &str) -> SimConfig {
    let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, seed);
    config.routing_mode = RoutingMode::Distributed;
    config.mobility = Some(MobilityConfig::new(SimTime::from_millis(400), 0.1).unwrap());
    config.contact_plan = Some(plan(text));
    config
}

fn run(mut config: SimConfig, incremental: bool) -> RunMetrics {
    // `incremental_zones = false` is the all-pairs reference path; it must
    // be byte-inert. (`incremental_routing` is *not* flipped here — full
    // DBF rebuilds legitimately cost more routing bytes and pauses, which
    // feeds back into MAC contention; that knob is semantic by design.)
    config.incremental_zones = incremental;
    let topo = placement::grid(4, 4, 5.0).unwrap();
    let plan = traffic::all_to_all(16, 2, SimTime::from_millis(200), config.seed).unwrap();
    Simulation::run_with(config, topo, plan).unwrap()
}

/// Zero the counters that record *which* zone-maintenance path ran.
/// The incremental path reports how many rows it patched; the all-pairs
/// reference never patches. Everything observable — deliveries, delays,
/// energy, messages, routing traffic — must still match exactly.
fn scrub_path_accounting(mut m: RunMetrics) -> RunMetrics {
    m.routing.zone_patches = 0;
    m.routing.zone_rows_patched = 0;
    m
}

/// The four window-edge plans the incremental path must survive, each
/// byte-identical to the full-rebuild oracle.
#[test]
fn contact_window_edges_match_the_full_rebuild_oracle() {
    let cases: &[(&str, &str)] = &[
        (
            "zero-length windows are validated no-ops",
            "0 1 0.2 0.2\n2 3 0.1 0.3\n5 6 0.45 0.45\n5 6 0.5 0.8\n",
        ),
        (
            "window boundaries on the mobility epoch timestamp",
            // Mobility epochs fire at 0.4 s, 0.8 s, 1.2 s, …: one link
            // closes and another opens at exactly those instants.
            "5 6 0 0.4\n5 6 0.8 1.2\n9 10 0.4 0.9\n",
        ),
        (
            "overlapping windows on one link merge",
            "4 5 0.1 0.5\n4 5 0.3 0.7\n4 5 0.7 0.9\n9 10 0.2 0.6\n",
        ),
        (
            "first window opens at t = 0",
            "0 1 0 0.5\n6 7 0 0.25\n6 7 0.6 0.9\n",
        ),
    ];
    for (what, text) in cases {
        let incremental = run(contact_config(19, text), true);
        let reference = run(contact_config(19, text), false);
        assert!(
            incremental.mobility_epochs > 0,
            "{what}: mobility must fire during the run"
        );
        assert!(
            incremental.routing.zone_patches > 0,
            "{what}: the incremental path must actually patch"
        );
        assert_eq!(
            scrub_path_accounting(incremental),
            scrub_path_accounting(reference),
            "{what}: incremental vs full rebuild"
        );
    }
}

/// The acceptance matrix: a contact-driven run stays byte-identical
/// between the incremental and full-rebuild oracles across 2 layouts ×
/// shards {1, auto, 16}.
#[test]
fn contact_runs_survive_the_full_knob_matrix() {
    let text = "5 6 0 0.4\n5 6 0.8 1.2\n9 10 0.3 0.9\n0 1 0.25 0.45\n";
    let mut baseline = None;
    for layout in [TableLayout::Soa, TableLayout::Aos] {
        for shards in [1usize, 0, 16] {
            let configure = |incremental: bool| {
                let mut config = contact_config(23, text);
                config.table_layout = layout;
                config.dbf_shards = shards;
                run(config, incremental)
            };
            let incremental = configure(true);
            let reference = configure(false);
            assert_eq!(
                scrub_path_accounting(incremental.clone()),
                scrub_path_accounting(reference),
                "{layout:?}/shards={shards}: incremental vs full rebuild"
            );
            match &baseline {
                None => {
                    assert!(incremental.routing.contact_epochs > 0, "plan must fire");
                    baseline = Some(incremental);
                }
                Some(base) => assert_eq!(
                    &incremental, base,
                    "{layout:?}/shards={shards}: knobs must stay wall-clock-only"
                ),
            }
        }
    }
}

/// The inter-regional scenario: a SPMS-IZ pipeline whose middle is a
/// scheduled contact. With the contact up at generation time the
/// bordercast pull crosses regions; severed, nothing does — and both
/// regimes stay byte-identical between the incremental and full-rebuild
/// paths.
#[test]
fn interregional_contact_gates_the_interzone_pull() {
    let len = 9usize;
    let horizon = SimTime::from_secs(120);
    let run = |duty: f64, incremental: bool| {
        let plan = spms_workloads::interregional(len, 4, SimTime::from_secs(40), duty, horizon)
            .expect("valid inter-regional plan");
        let mut config = SimConfig::paper_defaults(ProtocolKind::SpmsIz, 29);
        config.zone_radius_m = 20.0;
        config.horizon = horizon;
        config.contact_plan = Some(plan);
        config.incremental_zones = incremental;
        let sink = NodeId::new(len as u32 - 1);
        let traffic = traffic::pipeline(NodeId::new(0), &[sink], 2, SimTime::from_millis(400))
            .expect("valid pipeline workload");
        let topo = placement::grid(len, 1, 5.0).expect("valid line");
        Simulation::run_with(config, topo, traffic).unwrap()
    };
    // Contact up while the items are born: the pull crosses the cut.
    let open = run(1.0, true);
    assert!(
        open.deliveries > 0,
        "open contact must deliver across regions"
    );
    assert_eq!(open, run(1.0, false), "open: incremental vs full rebuild");
    // Contact severed for the whole run: nothing crosses.
    let severed = run(0.0, true);
    assert_eq!(severed.deliveries, 0, "severed contact must block the pull");
    assert_eq!(
        severed,
        run(0.0, false),
        "severed: incremental vs full rebuild"
    );
}

/// A sweep's contact-plan override (`SweepConfig::contact_plan`, the
/// `--contact-plan` flag) fills only specs that left
/// `SimConfig::contact_plan` unset.
#[test]
fn contact_plan_override_fills_only_unset_slots() {
    use spms_workloads::{try_run_specs, RunSpec, SweepConfig};
    let topo = placement::grid(2, 1, 5.0).unwrap();
    let traffic = traffic::single_source(NodeId::new(0), 1, SimTime::ZERO).unwrap();
    let spec = |label: &str, pinned: Option<ContactPlan>| {
        let mut config = SimConfig::paper_defaults(ProtocolKind::Flooding, 7);
        config.contact_plan = pinned;
        RunSpec {
            label: label.into(),
            config,
            topology: topo.clone(),
            plan: traffic.clone(),
        }
    };
    // A plan that severs the only link for the whole run.
    let severed = plan("0 1 500 600\n");
    let run = |label: &str, pinned: Option<ContactPlan>, sweep: &SweepConfig| {
        let mut out = try_run_specs(vec![spec(label, pinned)], sweep);
        out.remove(0).1.expect("the 2-node run succeeds")
    };
    // Baseline: no override, the 2-node run delivers.
    let open = run("open", None, &SweepConfig::auto());
    assert_eq!(open.deliveries, 1);
    // The override gates every spec that left the slot unset…
    let sweep = SweepConfig {
        contact_plan: Some(severed),
        ..SweepConfig::auto()
    };
    let gated = run("gated", None, &sweep);
    assert_eq!(gated.deliveries, 0, "override must gate unset specs");
    assert!(gated.routing.contact_epochs > 0);
    // …but a spec that pins its own plan is immune (EXT6's guarantee).
    let pinned = run("pinned", Some(ContactPlan::default()), &sweep);
    assert_eq!(pinned.deliveries, 1, "pinned specs must be immune");
}
