//! Simulation configuration: Table 1 defaults plus protocol knobs.

use spms_kernel::SimTime;
use spms_mac::{ContentionModel, MacTiming};
use spms_net::{ChurnConfig, ContactPlan, FailureConfig, MobilityConfig, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::TableLayout;

use crate::adversary::AdversaryConfig;
use crate::PacketSizes;

/// Which dissemination protocol a run simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The SPIN baseline: three-way handshake, every packet at the zone
    /// power level, no routing state.
    Spin,
    /// The paper's contribution: shortest-path multi-hop REQ/DATA with
    /// PRONE/SCONE failover.
    Spms,
    /// SPMS plus the §6 inter-zone extension: bordercast metadata queries
    /// and source-routed inter-zone requests (zone routing of the paper's
    /// reference \[4\]).
    SpmsIz,
    /// Classic flooding (the paper's motivating strawman): every node
    /// rebroadcasts every data packet once.
    Flooding,
}

impl ProtocolKind {
    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Spin => "SPIN",
            ProtocolKind::Spms => "SPMS",
            ProtocolKind::SpmsIz => "SPMS-IZ",
            ProtocolKind::Flooding => "FLOOD",
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How SPMS routing tables are produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingMode {
    /// Run the distributed Bellman-Ford message exchange, charging its
    /// energy and pausing data until convergence (the paper's model; used
    /// by the mobility experiments).
    Distributed,
    /// Install converged tables instantly and free of charge. Valid for
    /// static failure-free experiments where the paper's measurements begin
    /// after the initial route formation.
    Oracle,
}

/// Resolved protocol timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timeouts {
    /// τADV — wait for a closer relay's advertisement.
    pub adv: SimTime,
    /// τDAT — wait for data after sending a REQ.
    pub dat: SimTime,
}

/// How τADV/τDAT are chosen.
///
/// Table 1 lists fixed values (1.0 ms and 2.5 ms), but the paper's own
/// analysis requires the timeouts to exceed a protocol round
/// ("we assume that TOutADV is adjusted properly so that the timer does not
/// go off before B sends ADV", and it derives
/// `TOutADV > G·ns² + R·Ttx + Tproc + D·Ttx + G·ns² + Tproc`). With the
/// paper's own G = 0.01 and n1 = 45, a round is ≈22 ms — far above the
/// Table 1 constants, which would fire spuriously on every transfer. We
/// therefore default to the adaptive rule and keep the fixed values
/// available for sensitivity studies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimeoutPolicy {
    /// Use the given values verbatim.
    Fixed(Timeouts),
    /// Scale a protocol-round estimate: τADV = `adv_factor` × Tround,
    /// τDAT = `dat_factor` × Tround.
    Adaptive {
        /// Multiplier for τADV.
        adv_factor: f64,
        /// Multiplier for τDAT.
        dat_factor: f64,
    },
}

impl TimeoutPolicy {
    /// The Table 1 constants (1.0 ms / 2.5 ms).
    #[must_use]
    pub fn table1() -> Self {
        TimeoutPolicy::Fixed(Timeouts {
            adv: SimTime::from_millis(1),
            dat: SimTime::from_millis_f64(2.5),
        })
    }

    /// The default adaptive rule.
    #[must_use]
    pub fn adaptive_default() -> Self {
        TimeoutPolicy::Adaptive {
            adv_factor: 1.25,
            dat_factor: 2.0,
        }
    }

    /// Resolves the policy against a concrete deployment and protocol.
    ///
    /// τADV scales the paper's round estimate
    /// `Tround = access(n1) + 2·access(ns) + (A+R+D)·Ttx + 2·Tproc`.
    ///
    /// τDAT is a **failure detector**: it must exceed the protocol's own
    /// worst-case response time or it fires spuriously on every congested
    /// transfer (the paper's "adjusted properly" requirement). The dominant
    /// term is the serving node's transmit queue: a SPIN holder serves its
    /// whole zone (`n1` unicasts at zone power), while an SPMS holder
    /// serves only its low-power neighborhood (`ns` unicasts at minimum
    /// power). τDAT therefore scales `Tround + queue`, with the queue term
    /// protocol-specific.
    ///
    /// Densities use the worst-case zone population for `n1`, the mean
    /// lowest-level population for `ns`, and the *expected* access delay of
    /// the contention model in use.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn resolve(
        &self,
        protocol: ProtocolKind,
        zones: &ZoneTable,
        radio: &RadioProfile,
        timing: &MacTiming,
        contention: ContentionModel,
        sizes: &PacketSizes,
        proc_delay: SimTime,
    ) -> Timeouts {
        match *self {
            TimeoutPolicy::Fixed(t) => t,
            TimeoutPolicy::Adaptive {
                adv_factor,
                dat_factor,
            } => {
                let adv_level = zones.adv_level();
                let min_level = radio.min_power_level();
                let n1 = (0..zones.len())
                    .map(|i| zones.density_at_level(spms_net::NodeId::new(i as u32), adv_level))
                    .max()
                    .unwrap_or(1) as usize;
                let ns_sum: u64 = (0..zones.len())
                    .map(|i| {
                        u64::from(
                            zones.density_at_level(spms_net::NodeId::new(i as u32), min_level),
                        )
                    })
                    .sum();
                let ns = (ns_sum as f64 / zones.len() as f64).ceil() as usize;
                let round = contention.expected_access_delay(timing, n1)
                    + contention.expected_access_delay(timing, ns) * 2
                    + timing.tx_duration(sizes.adv + sizes.req + sizes.data)
                    + proc_delay * 2;
                // Worst-case serving-queue residence for one DATA response.
                let data_service = |n: usize| {
                    (contention.expected_access_delay(timing, n) + timing.tx_duration(sizes.data))
                        * n as u64
                };
                let queue = match protocol {
                    ProtocolKind::Spin => data_service(n1),
                    ProtocolKind::Spms | ProtocolKind::SpmsIz => data_service(ns),
                    ProtocolKind::Flooding => SimTime::ZERO, // no REQ/timer path
                };
                let adv = SimTime::from_millis_f64(round.as_millis_f64() * adv_factor)
                    .max(SimTime::from_micros(100));
                let dat = SimTime::from_millis_f64((round + queue).as_millis_f64() * dat_factor)
                    .max(SimTime::from_micros(100));
                Timeouts { adv, dat }
            }
        }
    }
}

/// Inter-zone (SPMS-IZ) tunables; only consulted when
/// [`ProtocolKind::SpmsIz`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IzConfig {
    /// Bordercast TTL in zone hops. `None` sizes it automatically from the
    /// deployment (the zone overlay's eccentricity), guaranteeing every
    /// reachable node hears the query.
    pub ttl: Option<u32>,
    /// Distinct border paths a destination remembers per item (its
    /// inter-zone failover ladder).
    pub paths_kept: usize,
}

impl IzConfig {
    /// Validates the inter-zone settings.
    ///
    /// # Errors
    ///
    /// Returns a message if `paths_kept` is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.paths_kept == 0 {
            return Err("interzone paths_kept must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for IzConfig {
    fn default() -> Self {
        IzConfig {
            ttl: None,
            paths_kept: 2,
        }
    }
}

/// Full configuration of one simulation run.
///
/// `SimConfig::paper_defaults()` reproduces Table 1; experiments override
/// the swept parameter and the protocol.
///
/// # Example
///
/// ```
/// use spms::{ProtocolKind, SimConfig};
///
/// let config = SimConfig::paper_defaults(ProtocolKind::Spms, 42);
/// assert_eq!(config.zone_radius_m, 20.0);
/// assert!(config.validate().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Which protocol to run.
    pub protocol: ProtocolKind,
    /// Master seed; every stochastic subsystem derives a sub-stream.
    pub seed: u64,
    /// Radio power/range table.
    pub radio: RadioProfile,
    /// MAC timing constants.
    pub mac: MacTiming,
    /// Channel-access delay law.
    pub contention: ContentionModel,
    /// Packet sizes.
    pub sizes: PacketSizes,
    /// τADV/τDAT selection.
    pub timeout_policy: TimeoutPolicy,
    /// Per-packet processing delay `Tproc` (Table 1: 0.02 ms).
    pub proc_delay: SimTime,
    /// The experiment's transmission radius, defining zones (default 20 m).
    pub zone_radius_m: f64,
    /// Route alternatives kept per destination (paper implementation: 2).
    pub k_routes: usize,
    /// Originator stack depth (PRONE + this many SCONEs; paper keeps 1).
    pub scones_kept: usize,
    /// REQ retry ladder length before a destination gives up until the next
    /// ADV (paper: implicit; bounded here for liveness).
    pub max_attempts: u32,
    /// Cache data at relays that merely forward it (paper §6 future work).
    pub relay_caching: bool,
    /// Let relays holding the data answer REQs destined further upstream.
    pub serve_from_cache: bool,
    /// Inter-zone (SPMS-IZ) settings.
    pub interzone: IzConfig,
    /// SPIN: suppress duplicate REQs for one service window after
    /// requesting (keeps the baseline from storming; ablatable).
    pub spin_req_suppression: bool,
    /// SPIN-BC: answer the first REQ with a zone-wide DATA broadcast
    /// instead of per-requester unicasts (the broadcast variant of
    /// Heinzelman et al.; ablatable).
    pub spin_broadcast_data: bool,
    /// How SPMS routing tables are formed.
    pub routing_mode: RoutingMode,
    /// In [`RoutingMode::Distributed`], rebuild routing state
    /// *incrementally*, at once, after every mobility or contact epoch and
    /// every liveness flip (failure, repair, battery death, churn cohort):
    /// only the zones the event touched are invalidated and re-converged
    /// via delta vectors, instead of re-executing the DBF from scratch.
    /// The resulting tables are identical (property-tested in
    /// `spms-routing`); only the message/byte/pause accounting shrinks to
    /// the triggered-update cost. `false` re-executes the DBF after each
    /// epoch and rides liveness flips out on alternative routes until the
    /// next epoch's rebuild. Ignored in [`RoutingMode::Oracle`].
    pub incremental_routing: bool,
    /// Maintain the zone table **incrementally** across mobility and
    /// contact epochs: the engine keeps a spatial-hash grid
    /// (`spms_net::SpatialGrid`, cell size = zone radius) over the field,
    /// builds zones from grid candidates (O(n·k) instead of the all-pairs
    /// O(n²)), and patches only the rows an epoch actually perturbed
    /// (`ZoneTable::patch`) — the changed nodes and everyone linked to one
    /// of them before or after the epoch. The resulting tables are
    /// bit-identical to a from-scratch rebuild (property-tested in
    /// `spms-net`); only the epoch cost shrinks from O(n²) to O(k) rows.
    /// `false` rebuilds the table all-pairs every epoch — the reference
    /// path, whose `ZoneDelta` names the same rows.
    pub incremental_zones: bool,
    /// DBF shard count. Every DBF exchange runs on the simulation's own
    /// thread, so this selects nothing and the simulation never reads it;
    /// it stays only because the `perfbench` harness sets it and passes it
    /// to `DbfEngine::with_shards`.
    pub dbf_shards: usize,
    /// Per-node battery capacity in µJ (`None` = unlimited, the paper's
    /// measurement mode). When set, a node whose cumulative energy spend
    /// reaches the capacity **dies permanently** — the network-lifetime
    /// regime behind the paper's title and the EXT3 experiment.
    pub battery_capacity_uj: Option<f64>,
    /// §3.1 resource adaptation: below this remaining-battery fraction a
    /// node declines *third-party* forwarding duty (SPMS REQ relaying,
    /// SPMS-IZ bordercast relaying); its own exchanges continue. 0.0
    /// disables the behavior (default).
    pub low_battery_threshold: f64,
    /// Idle-listening power draw in mW (None = protocol-energy-only
    /// accounting, as the paper's tables imply). When set, every node is
    /// charged this draw for the whole run duration; since a run lasts
    /// until dissemination completes, slower protocols pay more — the
    /// realistic effect that compresses protocol-level energy ratios (see
    /// the idle-listening ablation in `crates/bench/benches/ablations.rs`).
    pub idle_listening_mw: Option<f64>,
    /// Transient failure injection (None = failure-free).
    pub failures: Option<FailureConfig>,
    /// Mobility process (None = static).
    pub mobility: Option<MobilityConfig>,
    /// Adversarial node behaviors (None = everyone honest). The adversary
    /// set is drawn from its own master-seed sub-stream, so it is a
    /// semantic knob like the seed — never affected by sweep workers.
    pub adversary: Option<AdversaryConfig>,
    /// Mass join/leave churn process (None = no churn). Cohorts toggle
    /// liveness per epoch, stressing the incremental zone/DBF paths.
    pub churn: Option<ChurnConfig>,
    /// Scheduled connectivity (None = every link always up): per-link
    /// up/down windows fired as timed link flips through the same zone
    /// patch and re-route step mobility uses. A semantic knob like
    /// `adversary` — it changes results by design, but never varies with
    /// sweep workers. Node ids the plan names are range-checked against
    /// the topology when the simulation is built.
    pub contact_plan: Option<ContactPlan>,
    /// Hard stop for the run.
    pub horizon: SimTime,
    /// Trace buffer capacity (None = tracing disabled).
    pub trace_capacity: Option<usize>,
    /// The routing-table layout. [`TableLayout`] has one variant, so this
    /// selects nothing and the simulation never reads it; it stays only
    /// because the `perfbench` harness passes it to
    /// `DbfEngine::with_table_layout`.
    pub table_layout: TableLayout,
}

impl SimConfig {
    /// Table 1 defaults: MICA2 radio, the paper's `G·n²`-plus-slotted-
    /// backoff MAC, 20 m radius, k = 2 routes, 1 SCONE, adaptive timeouts,
    /// SPIN with a REQ-suppression window (the pure timer-free SPIN-PP
    /// variant is available for ablations via `spin_req_suppression =
    /// false`), no failures, no mobility.
    #[must_use]
    pub fn paper_defaults(protocol: ProtocolKind, seed: u64) -> Self {
        SimConfig {
            protocol,
            seed,
            radio: RadioProfile::mica2(),
            mac: MacTiming::paper_defaults(),
            contention: ContentionModel::QuadraticWithBackoff,
            sizes: PacketSizes::paper_defaults(),
            timeout_policy: TimeoutPolicy::adaptive_default(),
            proc_delay: SimTime::from_micros(20),
            zone_radius_m: 20.0,
            k_routes: 2,
            scones_kept: 1,
            max_attempts: 4,
            relay_caching: false,
            serve_from_cache: false,
            interzone: IzConfig::default(),
            battery_capacity_uj: None,
            low_battery_threshold: 0.0,
            spin_req_suppression: true,
            spin_broadcast_data: false,
            routing_mode: RoutingMode::Oracle,
            incremental_routing: true,
            incremental_zones: true,
            dbf_shards: 0,
            idle_listening_mw: None,
            failures: None,
            mobility: None,
            adversary: None,
            churn: None,
            contact_plan: None,
            horizon: SimTime::from_secs(600),
            trace_capacity: None,
            table_layout: TableLayout::Soa,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        self.mac.validate()?;
        self.sizes.validate()?;
        if !(self.zone_radius_m.is_finite() && self.zone_radius_m > 0.0) {
            return Err(format!("bad zone radius {}", self.zone_radius_m));
        }
        if self.k_routes == 0 {
            return Err("k_routes must be at least 1".into());
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1".into());
        }
        self.interzone.validate()?;
        if self.horizon == SimTime::ZERO {
            return Err("horizon must be positive".into());
        }
        if let Some(p) = self.idle_listening_mw {
            if !p.is_finite() || p < 0.0 {
                return Err(format!("idle listening power {p} must be >= 0"));
            }
        }
        if let Some(cap) = self.battery_capacity_uj {
            if !cap.is_finite() || cap <= 0.0 {
                return Err(format!("battery capacity {cap} must be positive"));
            }
        }
        if !self.low_battery_threshold.is_finite()
            || !(0.0..=1.0).contains(&self.low_battery_threshold)
        {
            return Err(format!(
                "low battery threshold {} outside [0, 1]",
                self.low_battery_threshold
            ));
        }
        if let Some(f) = &self.failures {
            f.validate()?;
        }
        if let Some(a) = &self.adversary {
            a.validate()?;
        }
        // Re-validate the pub fields against the constructors' rules: a
        // zero interval would stage epoch after epoch at one instant.
        if let Some(m) = &self.mobility {
            MobilityConfig::new(m.interval, m.fraction)?;
        }
        if let Some(ch) = &self.churn {
            ChurnConfig::new(ch.interval, ch.fraction)?;
        }
        if let TimeoutPolicy::Adaptive {
            adv_factor,
            dat_factor,
        } = self.timeout_policy
        {
            // A NaN or infinite factor would map τADV/τDAT to zero in
            // `SimTime::from_millis_f64` and run at the 100 µs floor.
            let valid = |factor: f64| factor.is_finite() && factor > 0.0;
            if !(valid(adv_factor) && valid(dat_factor)) {
                return Err("timeout factors must be positive and finite".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_net::placement;

    #[test]
    fn defaults_are_valid_and_match_table1() {
        let c = SimConfig::paper_defaults(ProtocolKind::Spms, 1);
        assert!(c.validate().is_ok());
        assert_eq!(c.proc_delay, SimTime::from_micros(20));
        assert_eq!(c.zone_radius_m, 20.0);
        assert_eq!(c.k_routes, 2);
        assert_eq!(c.sizes, PacketSizes::paper_defaults());
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = SimConfig::paper_defaults(ProtocolKind::Spin, 1);
        c.zone_radius_m = -1.0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_defaults(ProtocolKind::Spin, 1);
        c.k_routes = 0;
        assert!(c.validate().is_err());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for (adv_factor, dat_factor) in [(bad, 1.0), (1.0, bad)] {
                let mut c = SimConfig::paper_defaults(ProtocolKind::Spin, 1);
                c.timeout_policy = TimeoutPolicy::Adaptive {
                    adv_factor,
                    dat_factor,
                };
                assert!(c.validate().is_err(), "{adv_factor} / {dat_factor}");
            }
        }
    }

    #[test]
    fn adversary_and_churn_settings_are_validated() {
        use crate::adversary::{AdversaryConfig, NodeBehavior};
        let mut c = SimConfig::paper_defaults(ProtocolKind::Spms, 1);
        assert!(c.adversary.is_none() && c.churn.is_none());
        c.adversary = Some(AdversaryConfig::new(NodeBehavior::Flooding, 0.25).unwrap());
        c.churn = Some(ChurnConfig::new(SimTime::from_millis(200), 0.3).unwrap());
        assert!(c.validate().is_ok());
        c.adversary.as_mut().unwrap().attack_factor = 0;
        assert!(c.validate().is_err());
        c.adversary.as_mut().unwrap().attack_factor = 3;
        c.adversary.as_mut().unwrap().fraction = 2.0;
        assert!(c.validate().is_err());
        c.adversary.as_mut().unwrap().fraction = 0.25;
        c.churn.as_mut().unwrap().fraction = -0.5;
        assert!(c.validate().is_err());
        c.churn.as_mut().unwrap().fraction = 1.0;
        assert!(
            c.validate().is_ok(),
            "a full-cohort churn fraction is legal"
        );
    }

    #[test]
    fn mobility_settings_are_validated() {
        // `MobilityConfig`'s fields are public, so a literal can bypass its
        // constructor; a zero interval would stage every epoch at t = 0
        // and never end the run.
        let topo = placement::grid(4, 4, 5.0).unwrap();
        let source = spms_net::NodeId::new(5);
        let plan = crate::TrafficPlan::new(
            vec![crate::Generation {
                at: SimTime::ZERO,
                source,
                meta: crate::MetaId::new(source, 0),
            }],
            crate::Interest::AllNodes,
        )
        .unwrap();
        for (interval, fraction) in [
            (SimTime::ZERO, 0.1),
            (SimTime::from_millis(40), -0.1),
            (SimTime::from_millis(40), 1.5),
            (SimTime::from_millis(40), f64::NAN),
        ] {
            let mut c = SimConfig::paper_defaults(ProtocolKind::Spms, 1);
            c.routing_mode = RoutingMode::Distributed;
            c.horizon = SimTime::from_secs(2);
            c.mobility = Some(MobilityConfig { interval, fraction });
            assert!(c.validate().is_err(), "{interval} / {fraction}");
            assert!(
                crate::Simulation::new(c, topo.clone(), plan.clone()).is_err(),
                "{interval} / {fraction}"
            );
        }
        let mut c = SimConfig::paper_defaults(ProtocolKind::Spms, 1);
        c.mobility = Some(MobilityConfig {
            interval: SimTime::from_millis(40),
            fraction: 1.0,
        });
        assert!(c.validate().is_ok(), "every node may move");
    }

    #[test]
    fn fixed_timeouts_resolve_verbatim() {
        let topo = placement::grid(5, 5, 5.0).unwrap();
        let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
        let t = TimeoutPolicy::table1().resolve(
            ProtocolKind::Spms,
            &zones,
            &RadioProfile::mica2(),
            &MacTiming::paper_defaults(),
            ContentionModel::BackoffOnly,
            &PacketSizes::paper_defaults(),
            SimTime::from_micros(20),
        );
        assert_eq!(t.adv, SimTime::from_millis(1));
        assert_eq!(t.dat, SimTime::from_millis_f64(2.5));
    }

    #[test]
    fn adaptive_timeouts_scale_with_zone_density_under_quadratic_mac() {
        let radio = RadioProfile::mica2();
        let timing = MacTiming::paper_defaults();
        let sizes = PacketSizes::paper_defaults();
        let proc = SimTime::from_micros(20);
        let policy = TimeoutPolicy::adaptive_default();
        let mac = ContentionModel::Quadratic;

        let small = placement::grid(13, 13, 5.0).unwrap();
        let z_small = ZoneTable::build(&small, &radio, 10.0);
        let z_large = ZoneTable::build(&small, &radio, 25.0);
        let t_small = policy.resolve(
            ProtocolKind::Spms,
            &z_small,
            &radio,
            &timing,
            mac,
            &sizes,
            proc,
        );
        let t_large = policy.resolve(
            ProtocolKind::Spms,
            &z_large,
            &radio,
            &timing,
            mac,
            &sizes,
            proc,
        );
        assert!(t_large.adv > t_small.adv, "denser zones need longer τADV");
        assert!(t_large.dat > t_large.adv, "τDAT exceeds τADV");
        // SPIN's τDAT covers its zone-wide serving queue, so it is larger.
        let spin = policy.resolve(
            ProtocolKind::Spin,
            &z_large,
            &radio,
            &timing,
            mac,
            &sizes,
            proc,
        );
        assert!(spin.dat > t_large.dat, "SPIN queue term dominates");
    }

    #[test]
    fn adaptive_timeouts_are_density_free_under_slotted_mac() {
        let radio = RadioProfile::mica2();
        let timing = MacTiming::paper_defaults();
        let sizes = PacketSizes::paper_defaults();
        let proc = SimTime::from_micros(20);
        let policy = TimeoutPolicy::adaptive_default();
        let mac = ContentionModel::BackoffOnly;
        let topo = placement::grid(13, 13, 5.0).unwrap();
        let z_small = ZoneTable::build(&topo, &radio, 10.0);
        let z_large = ZoneTable::build(&topo, &radio, 25.0);
        let t_small = policy.resolve(
            ProtocolKind::Spms,
            &z_small,
            &radio,
            &timing,
            mac,
            &sizes,
            proc,
        );
        let t_large = policy.resolve(
            ProtocolKind::Spms,
            &z_large,
            &radio,
            &timing,
            mac,
            &sizes,
            proc,
        );
        assert_eq!(
            t_small.adv, t_large.adv,
            "slotted backoff has no density term in τADV"
        );
    }

    #[test]
    fn adaptive_matches_round_formula_on_reference_zone() {
        // 13×13 grid at 20 m under the analytical MAC: n1 = 49, ns ~ 4.x →
        // Tround = 0.01·49² + 2·0.01·ns² + 44·0.05 + 2·0.02.
        let radio = RadioProfile::mica2();
        let topo = placement::grid(13, 13, 5.0).unwrap();
        let zones = ZoneTable::build(&topo, &radio, 20.0);
        let t = TimeoutPolicy::Adaptive {
            adv_factor: 1.0,
            dat_factor: 1.0,
        }
        .resolve(
            ProtocolKind::Spms,
            &zones,
            &radio,
            &MacTiming::paper_defaults(),
            ContentionModel::Quadratic,
            &PacketSizes::paper_defaults(),
            SimTime::from_micros(20),
        );
        let ms = t.adv.as_millis_f64();
        assert!((24.0..32.0).contains(&ms), "Tround estimate {ms} ms");
        // τDAT adds the low-power serving-queue term on top of the round.
        assert!(t.dat > t.adv);
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(ProtocolKind::Spin.label(), "SPIN");
        assert_eq!(ProtocolKind::Spms.label(), "SPMS");
        assert_eq!(format!("{}", ProtocolKind::Flooding), "FLOOD");
    }
}
