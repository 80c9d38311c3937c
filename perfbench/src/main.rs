//! End-to-end host-time benchmark of the SPMS simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload static|failures|mobility --seed N --seconds S --trace 0|1
//! ```
//!
//! The benchmark builds each workload's inputs from `--seed` with the
//! public builders (`placement::square_grid`, `traffic::all_to_all`,
//! `SimConfig::paper_defaults`, `FailureConfig::paper_defaults`,
//! `MobilityConfig`) and times `Simulation::new` and `Simulation::run` from
//! outside the program. It is a closed loop: one simulation at a time on the
//! main thread, the next one starting when the previous one returns. No
//! workload starts the engine's DBF worker pool.
//!
//! `--trace 0` reports the end-to-end metrics, with times scaled to a
//! reference host speed by a fixed yardstick timed beside every pass (see
//! [`yardstick`]). `--trace 1` reports the
//! per-layer split: spans around the public calls into `spms-net` and
//! `spms-routing`, replayed outside the engine on the same inputs, plus the
//! per-layer counts `RunMetrics` already exports. See `README.md` beside
//! this package for what each metric should move.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use spms::{ProtocolKind, RoutingMode, RunMetrics, SimConfig, Simulation, TrafficPlan};
use spms_kernel::{SimRng, SimTime};
use spms_net::{
    placement, FailureConfig, MobilityConfig, MobilityProcess, NodeId, SpatialGrid, Topology,
    ZoneTable,
};
use spms_routing::{oracle_tables, DbfEngine};
use spms_workloads::traffic;

/// Table 1's offered load: one network-wide Poisson birth process with a
/// 5 s mean gap, as in `Scale::paper`.
const MEAN_GAP: SimTime = SimTime::from_secs(5);
/// Grid spacing that keeps the paper's zone densities (n1 ≈ 45, ns = 5).
const SPACING_M: f64 = 5.0;
/// The paper's default transmission radius.
const RADIUS_M: f64 = 20.0;
/// Set-up-only passes made after each full pass. `setup_s` is only
/// milliseconds on `static` and `failures`, so its median needs many
/// samples, and spreading them over the run exposes them to the same host
/// conditions as the full passes.
const SETUP_PASSES: usize = 10;
/// Items per node on `static` and `failures`, and nodes on `mobility`:
/// sized so that one pass takes 0.5–2 s, which gives each run tens of
/// passes while keeping each workload's dominant layer (see `README.md`).
const STATIC_PPN: u32 = 2;
const FAILURES_PPN: u32 = 4;
const MOBILITY_N: usize = 144;
const MOBILITY_FIELDS: u64 = 3;
/// Loop iterations of [`yardstick`]: 0.05–0.08 s on a shared 2-vCPU
/// x86-64 host.
const YARDSTICK_OPS: u64 = 200_000;
/// The yardstick's time that defines reference speed. End-to-end times
/// are reported as `measured × YARDSTICK_REF_S / yardstick`, that is in
/// seconds on a host where the yardstick takes this long.
const YARDSTICK_REF_S: f64 = 0.06;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// Failure-free all-to-all traffic on the paper's largest grid: the
    /// delivery path (fan-out, protocol receive hooks, MAC, energy) does
    /// nearly all the work.
    Static,
    /// The same traffic shape under Table 1's transient failures: the
    /// fail/repair hooks dominate; DBF is idle.
    Failures,
    /// SPMS with distributed, incremental routing under mobility: the zone
    /// patch and the DBF delta re-convergence dominate.
    Mobility,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "static" => Ok(Workload::Static),
            "failures" => Ok(Workload::Failures),
            "mobility" => Ok(Workload::Mobility),
            other => Err(format!(
                "unknown workload '{other}' (expected static, failures or mobility)"
            )),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value} must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One simulation's inputs.
struct Spec {
    config: SimConfig,
    topology: Topology,
    plan: TrafficPlan,
}

/// All-to-all traffic at Table 1 load on an `n`-node square grid, seeded
/// the way the figure sweeps seed their node-count points.
fn spec(
    protocol: ProtocolKind,
    n: usize,
    packets_per_node: u32,
    seed: u64,
) -> Result<Spec, String> {
    let mut config = SimConfig::paper_defaults(protocol, seed ^ n as u64);
    config.zone_radius_m = RADIUS_M;
    let total_packets = n as u64 * u64::from(packets_per_node);
    config.horizon = MEAN_GAP * (2 * total_packets + 50) + SimTime::from_secs(60);
    Ok(Spec {
        config,
        topology: placement::square_grid(n, SPACING_M)?,
        plan: traffic::all_to_all(
            n,
            packets_per_node,
            MEAN_GAP,
            seed ^ (n as u64).rotate_left(17),
        )?,
    })
}

fn build_specs(workload: Workload, seed: u64) -> Result<Vec<Spec>, String> {
    match workload {
        Workload::Static => [ProtocolKind::Spms, ProtocolKind::Spin]
            .into_iter()
            .map(|p| spec(p, 225, STATIC_PPN, seed))
            .collect(),
        Workload::Failures => [ProtocolKind::Spms, ProtocolKind::Spin]
            .into_iter()
            .map(|p| {
                let mut s = spec(p, 100, FAILURES_PPN, seed)?;
                s.config.failures = Some(FailureConfig::paper_defaults());
                Ok(s)
            })
            .collect(),
        // Several small fields with their own seeds: how much DBF work a
        // field needs depends on which nodes happen to move, and averaging
        // over fields keeps that from setting a seed's time.
        Workload::Mobility => (0..MOBILITY_FIELDS)
            .map(|i| {
                let field_seed = seed.wrapping_mul(MOBILITY_FIELDS).wrapping_add(i);
                let mut s = spec(ProtocolKind::Spms, MOBILITY_N, 1, field_seed)?;
                s.config.routing_mode = RoutingMode::Distributed;
                s.config.incremental_routing = true;
                s.config.incremental_zones = true;
                // One DBF shard keeps the run on the main thread, the one
                // the yardstick measures; the results do not depend on it.
                s.config.dbf_shards = 1;
                // 5% of the nodes relocate every 4 mean birth gaps.
                s.config.mobility = Some(MobilityConfig::new(MEAN_GAP * 4, 0.05)?);
                Ok(s)
            })
            .collect(),
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Host seconds of a fixed piece of work that does not use the simulator:
/// ordered-map inserts and range lookups, binary-heap pushes and pops over
/// a working set of a few MB, the kinds of operation the engine's hot
/// paths are made of.
///
/// The host this benchmark was built on shares its cores with other work,
/// and its speed drifts by up to 60% over tens of seconds, slower than a
/// pass but faster than a run. Timing the yardstick just before and after
/// every pass and dividing by it cancels most of that drift, and no change
/// to the simulator can move the yardstick.
fn yardstick() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..YARDSTICK_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 65_536, i);
        heap.push(Reverse(x % 1_000_003));
        if i % 2 == 1 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |Reverse(v)| v));
        }
        if let Some((&k, &v)) = map.range((x >> 20) % 65_536..).next() {
            acc ^= k.wrapping_add(v);
        }
    }
    black_box(acc);
    secs(t)
}

/// Host seconds of one pass over a workload's simulations.
#[derive(Default)]
struct Times {
    /// Input generation (topologies, traffic plans, configs).
    gen: f64,
    /// `Simulation::new`, summed over the simulations.
    new: f64,
    /// `Simulation::run`, summed over the simulations.
    run: f64,
    /// Mean [`yardstick`] time just before and just after the pass; 0 for
    /// a set-up-only pass.
    yard: f64,
}

impl Times {
    /// Scales host seconds measured during this pass to reference speed.
    fn norm(&self, host_s: f64) -> f64 {
        host_s * YARDSTICK_REF_S / self.yard
    }
}

/// Simulations attempted, and failures: simulations that errored or
/// panicked, and failed output checks.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn fail(&mut self, why: String) {
        eprintln!("error: {why}");
        self.failed += 1;
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Builds one simulation and, if `run`, runs it, adding the host time of
/// each call to `times`. A simulation that is only set up is dropped
/// outside the timed span.
fn simulate(spec: Spec, run: bool, times: &mut Times) -> Result<Option<RunMetrics>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let sim = Simulation::new(spec.config, spec.topology, spec.plan)?;
        times.new += secs(t);
        if !run {
            drop(sim);
            return Ok(None);
        }
        let t = Instant::now();
        let metrics = sim.run();
        times.run += secs(t);
        Ok(Some(metrics))
    }))
    .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(payload))))
}

/// The output checks. Simulated results are not checked against values:
/// fidelity changes may move them on purpose.
fn check(workload: Workload, m: &RunMetrics) -> Result<(), String> {
    if m.deliveries > m.deliveries_expected {
        return Err(format!(
            "{} n={}: {} deliveries exceed the {} expected",
            m.protocol, m.nodes, m.deliveries, m.deliveries_expected
        ));
    }
    if workload == Workload::Static && m.deliveries != m.deliveries_expected {
        return Err(format!(
            "{} n={}: static run delivered {} of {}",
            m.protocol, m.nodes, m.deliveries, m.deliveries_expected
        ));
    }
    Ok(())
}

/// One pass over the workload: generate its inputs, then set up (and, if
/// `run`, run) each simulation in turn. Returns `None` if any simulation
/// failed.
fn pass(
    workload: Workload,
    seed: u64,
    run: bool,
    failures: bool,
    ledger: &mut Ledger,
) -> Option<(Times, Vec<RunMetrics>)> {
    let t = Instant::now();
    let specs = match build_specs(workload, seed) {
        Ok(specs) => specs,
        Err(e) => {
            ledger.fail(format!("inputs: {e}"));
            return None;
        }
    };
    let mut times = Times {
        gen: secs(t),
        ..Times::default()
    };
    let mut out = Vec::with_capacity(specs.len());
    let mut ok = true;
    for mut spec in specs {
        if !failures {
            spec.config.failures = None;
        }
        ledger.attempted += 1;
        match simulate(spec, run, &mut times) {
            Ok(Some(m)) => match check(workload, &m) {
                Ok(()) => out.push(m),
                Err(e) => {
                    ledger.fail(e);
                    ok = false;
                }
            },
            Ok(None) => {}
            Err(e) => {
                ledger.fail(e);
                ok = false;
            }
        }
    }
    ok.then_some((times, out))
}

/// FNV-1a over the `Debug` rendering of every `RunMetrics`, in workload
/// order. A change that claims only speed must leave it unchanged.
fn digest(metrics: &[RunMetrics]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in metrics {
        for b in format!("{m:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Host seconds spent in each replayed layer call.
#[derive(Default)]
struct Replay {
    zone_build: f64,
    oracle: f64,
    dbf_full: f64,
    zone_patch: f64,
    dbf_delta: f64,
}

/// Replays the layer calls the engine makes in `spms-net` and
/// `spms-routing` on the same inputs, outside the engine, and cross-checks
/// the replayed work against the counts of the real run (`metrics`, one per
/// simulation in workload order).
fn replay(workload: Workload, seed: u64, metrics: &[RunMetrics]) -> Result<Replay, String> {
    let specs = build_specs(workload, seed)?;
    let mut r = Replay::default();
    for (spec, m) in specs.into_iter().zip(metrics) {
        let Spec {
            config,
            mut topology,
            ..
        } = spec;
        let mut grid = SpatialGrid::for_radius(&topology, config.zone_radius_m);
        let t = Instant::now();
        let mut zones =
            ZoneTable::build_indexed(&topology, &config.radio, &grid, config.zone_radius_m);
        r.zone_build += secs(t);
        if config.protocol != ProtocolKind::Spms {
            continue;
        }
        if config.routing_mode == RoutingMode::Oracle {
            let t = Instant::now();
            black_box(oracle_tables(&zones, config.k_routes));
            r.oracle += secs(t);
            continue;
        }
        let alive = vec![true; topology.len()];
        let shards = match config.dbf_shards {
            0 => spms_kernel::host_parallelism(),
            s => s,
        };
        let t = Instant::now();
        let mut dbf = DbfEngine::new(&zones, config.k_routes)
            .with_shards(shards)
            .with_table_layout(config.table_layout);
        let full = dbf.rebuild_sharded(&zones, &alive);
        r.dbf_full += secs(t);
        let mut rounds = u64::from(full.rounds);
        let mut messages = full.messages;
        let (mut epochs, mut rows) = (0u64, 0u64);
        if let Some(mobility) = config.mobility {
            // The engine's mobility sub-stream; epochs fire every
            // `interval` until the run ends.
            let mut process = MobilityProcess::new(mobility, SimRng::new(config.seed).derive(2));
            let mut epoch = process.next_epoch(SimTime::ZERO, &topology);
            while epoch.at <= m.finished_at {
                let moved: Vec<NodeId> = epoch.moves.iter().map(|&(node, _)| node).collect();
                let t = Instant::now();
                MobilityProcess::apply_indexed(&epoch, &mut topology, &mut grid);
                let delta = zones.apply_moves(&topology, &config.radio, &grid, &moved);
                r.zone_patch += secs(t);
                rows += delta.rows_patched() as u64;
                let t = Instant::now();
                let stats = dbf.apply_zone_delta(&zones, &delta, &[], &alive);
                r.dbf_delta += secs(t);
                rounds += u64::from(stats.rounds);
                messages += stats.messages;
                epochs += 1;
                epoch = process.next_epoch(epoch.at, &topology);
            }
        }
        let pairs = [
            ("mobility epochs", epochs, m.mobility_epochs),
            ("DBF rounds", rounds, m.routing.rounds),
            ("zone rows patched", rows, m.routing.zone_rows_patched),
            ("DBF messages", messages, m.routing.messages),
        ];
        for (what, replayed, reported) in pairs {
            if replayed != reported {
                return Err(format!(
                    "replay cross-check: {what} replayed {replayed}, run reported {reported}"
                ));
            }
        }
    }
    Ok(r)
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A reported metric: name, value, unit and the number of samples behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    Metric {
        name,
        value: median(samples),
        unit,
        samples: samples.len(),
    }
}

fn count(name: &'static str, value: u64) -> Metric {
    Metric {
        name,
        value: value as f64,
        unit: "count",
        samples: 1,
    }
}

/// Peak resident set of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing '{line}': {e}"))?;
    Ok(kb / 1024.0)
}

/// Runs full passes until the next one would overrun `budget` seconds
/// (counted from `start`), always at least one, recording each pass's
/// digest and handing its times and metrics to `each` (whose time counts
/// towards the budget). Returns the passes' times.
fn timed_passes(
    args: &Args,
    start: Instant,
    budget: f64,
    ledger: &mut Ledger,
    digests: &mut Vec<u64>,
    mut each: impl FnMut(&Times, &[RunMetrics], &mut Ledger),
) -> Vec<Times> {
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        let before = yardstick();
        if let Some((mut times, metrics)) = pass(args.workload, args.seed, true, true, ledger) {
            times.yard = (before + yardstick()) / 2.0;
            println!(
                "pass {} at {:.3} s: gen {:.6} s, new {:.6} s, run {:.6} s, yardstick {:.6} s",
                out.len(),
                secs(start),
                times.gen,
                times.new,
                times.run,
                times.yard
            );
            digests.push(digest(&metrics));
            each(&times, &metrics, ledger);
            out.push(times);
        }
        let last = secs(t);
        if secs(start) + last > budget {
            break;
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload static|failures|mobility --seed N --seconds S --trace 0|1"
            );
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    // The first call pays for growing the heap; the timed calls should not.
    black_box(yardstick());
    let mut ledger = Ledger::default();
    let mut digests = Vec::new();
    let mut last_metrics: Vec<RunMetrics> = Vec::new();

    let metrics = if args.trace {
        traced(&args, start, &mut ledger, &mut digests, &mut last_metrics)
    } else {
        untraced(&args, start, &mut ledger, &mut digests, &mut last_metrics)
    };

    for m in &last_metrics {
        println!(
            "sim {} n={}: delivered {}/{} ({:.4}), energy/pkt {:.4} uJ, delay {:.4} ms, \
             events {}, failures {}, mobility epochs {}",
            m.protocol,
            m.nodes,
            m.deliveries,
            m.deliveries_expected,
            m.delivery_ratio(),
            m.energy_per_packet_uj(),
            m.avg_delay_ms(),
            m.events_processed,
            m.failures_injected,
            m.mobility_epochs,
        );
    }
    let workload = format!("{:?}", args.workload).to_lowercase();
    match digests.first() {
        Some(d) => println!("digest {workload} {d:016x} (passes {})", digests.len()),
        None => println!("digest {workload} none"),
    }
    if digests.iter().any(|d| Some(d) != digests.first()) {
        ledger.fail(format!(
            "passes with the same seed disagree: digests {digests:x?}"
        ));
    }
    for m in &metrics {
        println!(
            "metric {} = {} {} (samples {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let error_rate = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    println!(
        "error_rate = {error_rate} ({} of {} simulations)",
        ledger.failed, ledger.attempted
    );
    let correct = ledger.failed == 0 && !digests.is_empty();
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        ledger.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// End-to-end metrics, tracing off.
fn untraced(
    args: &Args,
    start: Instant,
    ledger: &mut Ledger,
    digests: &mut Vec<u64>,
    last: &mut Vec<RunMetrics>,
) -> Vec<Metric> {
    let mut setup = Vec::new();
    let mut throughput = Vec::new();
    let passes = timed_passes(
        args,
        start,
        args.seconds,
        ledger,
        digests,
        |t, ms, ledger| {
            let events: u64 = ms.iter().map(|m| m.events_processed).sum();
            throughput.push(events as f64 / t.norm(t.run));
            *last = ms.to_vec();
            for _ in 0..SETUP_PASSES {
                if let Some((s, _)) = pass(args.workload, args.seed, false, true, ledger) {
                    setup.push(t.norm(s.gen + s.new));
                }
            }
        },
    );
    setup.extend(passes.iter().map(|t| t.norm(t.gen + t.new)));
    let wall: Vec<f64> = passes
        .iter()
        .map(|t| t.norm(t.gen + t.new + t.run))
        .collect();
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        ledger.fail(e);
        0.0
    });
    vec![
        metric("wall_s", "s", &wall),
        metric("setup_s", "s", &setup),
        metric("events_per_s", "events/s", &throughput),
        metric("peak_rss_mb", "MB", &[rss]),
    ]
}

/// Per-layer metrics: untraced passes for half the budget, then traced
/// passes (the same simulations plus the outside replay and, on
/// `failures`, the failure-free twin) for the rest.
fn traced(
    args: &Args,
    start: Instant,
    ledger: &mut Ledger,
    digests: &mut Vec<u64>,
    last: &mut Vec<RunMetrics>,
) -> Vec<Metric> {
    let untraced = timed_passes(
        args,
        start,
        args.seconds / 2.0,
        ledger,
        digests,
        |_, _, _| {},
    );
    let untraced_run: Vec<f64> = untraced.iter().map(|t| t.run).collect();

    let mut replays = Vec::new();
    let mut overhead = Vec::new();
    let twin = args.workload == Workload::Failures;
    let traced = timed_passes(
        args,
        start,
        args.seconds,
        ledger,
        digests,
        |t, ms, ledger| {
            match replay(args.workload, args.seed, ms) {
                Ok(r) => replays.push((r, t.run)),
                Err(e) => ledger.fail(e),
            }
            if twin {
                if let Some((free, _)) = pass(args.workload, args.seed, true, false, ledger) {
                    overhead.push(t.run - free.run);
                }
            }
            *last = ms.to_vec();
        },
    );

    let sum = |f: fn(&RunMetrics) -> u64| -> u64 { last.iter().map(f).sum() };
    let events = sum(|m| m.events_processed);
    let failures = sum(|m| m.failures_injected);
    let deliveries = sum(|m| m.deliveries);
    let duplicates = sum(|m| m.duplicates);
    let run: Vec<f64> = traced.iter().map(|t| t.run).collect();
    let of = |f: fn(&Replay) -> f64| -> Vec<f64> { replays.iter().map(|(r, _)| f(r)).collect() };
    let share: Vec<f64> = replays
        .iter()
        .map(|(r, run)| (r.zone_patch + r.dbf_delta) / run)
        .collect();
    let ns_per_event: Vec<f64> = run.iter().map(|s| s * 1e9 / events.max(1) as f64).collect();
    let per_flip: Vec<f64> = overhead
        .iter()
        .map(|o| o * 1e6 / failures.max(1) as f64)
        .collect();
    let frames = sum(|m| m.messages.total());
    vec![
        metric(
            "workloads.gen_s",
            "s",
            &traced.iter().map(|t| t.gen).collect::<Vec<_>>(),
        ),
        metric(
            "core.new_s",
            "s",
            &traced.iter().map(|t| t.new).collect::<Vec<_>>(),
        ),
        metric("core.run_s", "s", &run),
        metric(
            "host.wall_s",
            "s",
            &traced
                .iter()
                .map(|t| t.gen + t.new + t.run)
                .collect::<Vec<_>>(),
        ),
        metric(
            "host.yardstick_s",
            "s",
            &traced.iter().map(|t| t.yard).collect::<Vec<_>>(),
        ),
        count("kernel.events", events),
        metric("kernel.ns_per_event", "ns", &ns_per_event),
        count("mac.frames", frames),
        count("mac.dropped", sum(|m| m.messages.dropped.value())),
        Metric {
            name: "core.duplicate_ratio",
            value: duplicates as f64 / (deliveries + duplicates).max(1) as f64,
            unit: "ratio",
            samples: 1,
        },
        count("net.failures", failures),
        metric("core.failure_overhead_s", "s", &overhead),
        metric("core.failure_us_per_flip", "us", &per_flip),
        metric("net.zone_build_s", "s", &of(|r| r.zone_build)),
        metric("routing.oracle_s", "s", &of(|r| r.oracle)),
        metric("routing.dbf_full_s", "s", &of(|r| r.dbf_full)),
        count("net.mobility_epochs", sum(|m| m.mobility_epochs)),
        count(
            "net.zone_rows_patched",
            sum(|m| m.routing.zone_rows_patched),
        ),
        metric("net.zone_patch_s", "s", &of(|r| r.zone_patch)),
        count("routing.dbf_rounds", sum(|m| m.routing.rounds)),
        count("routing.dbf_messages", sum(|m| m.routing.messages)),
        metric("routing.dbf_delta_s", "s", &of(|r| r.dbf_delta)),
        metric("routing.share", "ratio", &share),
        Metric {
            name: "trace.overhead_s",
            value: median(&run) - median(&untraced_run),
            unit: "s",
            samples: run.len().min(untraced_run.len()),
        },
    ]
}
