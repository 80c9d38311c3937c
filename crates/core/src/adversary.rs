//! Adversarial node behaviors.
//!
//! The paper evaluates SPMS/SPIN/Flooding only under benign transient
//! failures; this module adds Byzantine behavior policies in the spirit of
//! Basalt's attack model — a per-node [`NodeBehavior`] that activates at
//! `attack_start` and either floods bogus metadata (`attack_factor` copies
//! per triggering packet), silently swallows traffic, or advertises data it
//! does not hold. Adversary selection is seeded from the master seed (its
//! own [`spms_kernel::SimRng`] sub-stream), so the set is deterministic per
//! run and the sweep's worker count can never change it.

use spms_kernel::SimTime;
use spms_net::NodeId;

/// Behavior policy of one node.
///
/// Honest nodes run the protocol verbatim. The three adversarial policies
/// activate at [`AdversaryConfig::attack_start`] and replace the node's
/// receive path (its own generation duties stay honest, so the workload's
/// expected-delivery accounting is unchanged):
///
/// * [`NodeBehavior::Flooding`] — answers the first copy of every packet
///   it hears with `attack_factor` bogus zone-wide ADV broadcasts,
///   spending everyone's energy on metadata implosion.
/// * [`NodeBehavior::SilentDropper`] — swallows every packet without
///   responding: a crash that the failure detectors never see.
/// * [`NodeBehavior::MetadataLiar`] — re-advertises every item it hears an
///   ADV for as if it held the data, then never answers the REQs it
///   attracts; honest requesters burn their retry ladders before failing
///   over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NodeBehavior {
    /// Runs the protocol verbatim (the default).
    #[default]
    Honest,
    /// Floods `attack_factor` bogus ADVs per first-heard packet.
    Flooding,
    /// Swallows every packet silently.
    SilentDropper,
    /// Advertises data it does not hold and never serves it.
    MetadataLiar,
}

impl NodeBehavior {
    /// Short label for reports and CLI flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NodeBehavior::Honest => "honest",
            NodeBehavior::Flooding => "flooding",
            NodeBehavior::SilentDropper => "silent-dropper",
            NodeBehavior::MetadataLiar => "metadata-liar",
        }
    }

    /// `true` for every policy except [`NodeBehavior::Honest`].
    #[must_use]
    pub fn is_adversarial(self) -> bool {
        self != NodeBehavior::Honest
    }
}

impl std::fmt::Display for NodeBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for NodeBehavior {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "honest" => Ok(NodeBehavior::Honest),
            "flooding" => Ok(NodeBehavior::Flooding),
            "silent-dropper" => Ok(NodeBehavior::SilentDropper),
            "metadata-liar" => Ok(NodeBehavior::MetadataLiar),
            other => Err(format!(
                "unknown node behavior '{other}' (expected honest, flooding, \
                 silent-dropper, or metadata-liar)"
            )),
        }
    }
}

/// Which nodes misbehave, how, and from when.
#[derive(Clone, Debug, PartialEq)]
pub struct AdversaryConfig {
    /// Fraction of nodes (0..=1) converted to adversaries. Ignored when
    /// [`AdversaryConfig::explicit`] names the set directly.
    pub fraction: f64,
    /// The policy every adversary runs.
    pub behavior: NodeBehavior,
    /// Simulated time at which the adversaries switch on; before this they
    /// behave honestly (Basalt's attack-start model).
    pub attack_start: SimTime,
    /// Bogus ADV broadcasts a [`NodeBehavior::Flooding`] adversary emits
    /// per first-heard packet (must be ≥ 1; other behaviors ignore it).
    pub attack_factor: u32,
    /// Explicit adversary set, overriding the seeded `fraction` draw —
    /// used by the fuzz corpus to pin minimized schedules.
    pub explicit: Option<Vec<NodeId>>,
}

impl AdversaryConfig {
    /// A fraction-based config starting at time zero with `attack_factor`
    /// 2.
    ///
    /// # Errors
    ///
    /// Returns a message if `fraction` is outside `[0, 1]`.
    pub fn new(behavior: NodeBehavior, fraction: f64) -> Result<Self, String> {
        let config = AdversaryConfig {
            fraction,
            behavior,
            attack_start: SimTime::ZERO,
            attack_factor: 2,
            explicit: None,
        };
        config.validate()?;
        Ok(config)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.fraction.is_finite() || !(0.0..=1.0).contains(&self.fraction) {
            return Err(format!(
                "adversary fraction {} outside [0, 1]",
                self.fraction
            ));
        }
        if self.attack_factor == 0 {
            return Err("attack_factor must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavior_labels_round_trip() {
        for behavior in [
            NodeBehavior::Honest,
            NodeBehavior::Flooding,
            NodeBehavior::SilentDropper,
            NodeBehavior::MetadataLiar,
        ] {
            assert_eq!(behavior.label().parse::<NodeBehavior>(), Ok(behavior));
        }
        assert!("byzantine".parse::<NodeBehavior>().is_err());
        assert_eq!(NodeBehavior::default(), NodeBehavior::Honest);
        assert!(!NodeBehavior::Honest.is_adversarial());
        assert!(NodeBehavior::MetadataLiar.is_adversarial());
    }

    #[test]
    fn config_validation() {
        let c = AdversaryConfig::new(NodeBehavior::Flooding, 0.25).unwrap();
        assert_eq!(c.attack_start, SimTime::ZERO);
        assert_eq!(c.attack_factor, 2);
        assert!(c.validate().is_ok());
        assert!(AdversaryConfig::new(NodeBehavior::Flooding, 1.5).is_err());
        assert!(AdversaryConfig::new(NodeBehavior::Flooding, -0.1).is_err());
        assert!(AdversaryConfig::new(NodeBehavior::Flooding, f64::NAN).is_err());
        let mut c = AdversaryConfig::new(NodeBehavior::SilentDropper, 0.1).unwrap();
        c.attack_factor = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn explicit_sets_survive_validation() {
        let mut c = AdversaryConfig::new(NodeBehavior::MetadataLiar, 0.0).unwrap();
        c.explicit = Some(vec![NodeId::new(3), NodeId::new(7)]);
        assert!(c.validate().is_ok());
    }
}
