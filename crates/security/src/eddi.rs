//! The per-tree Security EDDI script.
//!
//! "Each Security EDDI is implemented as a Python script tailored to a
//! specific attack tree, capable of parsing and recognizing attack
//! patterns to detect an adversary's ultimate goal" (§III-B). Here each
//! [`SecurityEddi`] owns one tree, subscribes to the alert broker, maps
//! alert rules to tree leaves, and reports when the root is reached —
//! per UAV, so attacks on different airframes do not mix.

use crate::attack_tree::{AttackTree, TreeStatus};
use crate::incremental::{IndexedTree, IndexedTreeState};
use sesame_middleware::broker::{AlertBroker, BrokerSubscription};
use sesame_middleware::message::Payload;
use sesame_types::ids::UavId;
use sesame_types::time::SimTime;
use std::collections::{HashMap, HashSet};

/// The security verdict for one UAV under one tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityStatus {
    /// Which UAV.
    pub uav: UavId,
    /// Tree name (adversary goal).
    pub tree: String,
    /// Current status.
    pub status: TreeStatus,
    /// The satisfied leaf-to-root path when the root is reached.
    pub attack_path: Vec<String>,
    /// When the root was first reached, if ever.
    pub detected_at: Option<SimTime>,
}

/// One Security EDDI: an attack tree plus per-UAV trigger state, fed from
/// the alert broker.
///
/// # Examples
///
/// ```
/// use sesame_middleware::broker::AlertBroker;
/// use sesame_middleware::message::Payload;
/// use sesame_security::catalog;
/// use sesame_security::eddi::SecurityEddi;
/// use sesame_types::ids::UavId;
/// use sesame_types::time::SimTime;
///
/// let mut broker = AlertBroker::new();
/// let mut eddi = SecurityEddi::attach(catalog::ros_message_spoofing(), &mut broker);
/// let uav = UavId::new(1);
/// for rule in ["unsigned_publisher", "waypoint_deviation"] {
///     broker.publish(SimTime::ZERO, "ids", format!("ids/alerts/{uav}"), Payload::Alert {
///         rule: rule.into(),
///         subject: uav,
///         detail: String::new(),
///     });
/// }
/// let detections = eddi.poll(&mut broker, SimTime::from_millis(100));
/// assert_eq!(detections.len(), 1);
/// assert_eq!(detections[0].uav, uav);
/// ```
#[derive(Debug)]
pub struct SecurityEddi {
    tree: AttackTree,
    subscription: BrokerSubscription,
    /// Per-UAV triggered leaf sets.
    triggered: HashMap<UavId, HashSet<String>>,
    detected_at: HashMap<UavId, SimTime>,
    /// The flattened tree plus per-UAV memoized evaluation states,
    /// maintained incrementally as alerts arrive, so a `root_reached`
    /// query costs O(1) instead of a full tree rebuild.
    indexed: IndexedTree,
    states: HashMap<UavId, IndexedTreeState>,
}

impl SecurityEddi {
    /// Attaches an EDDI for `tree` to the broker (subscribes to
    /// `ids/alerts/#`).
    pub fn attach(tree: AttackTree, broker: &mut AlertBroker) -> Self {
        let subscription = broker.subscribe("ids/alerts/#");
        SecurityEddi {
            indexed: IndexedTree::new(&tree),
            tree,
            subscription,
            triggered: HashMap::new(),
            detected_at: HashMap::new(),
            states: HashMap::new(),
        }
    }

    /// The monitored tree.
    pub fn tree(&self) -> &AttackTree {
        &self.tree
    }

    /// Drains pending alerts from the broker, updates the per-UAV tree
    /// states and returns a [`SecurityStatus`] for every UAV whose root
    /// was **newly** reached by this poll.
    pub fn poll(&mut self, broker: &mut AlertBroker, now: SimTime) -> Vec<SecurityStatus> {
        let mut fresh = Vec::new();
        for msg in broker.drain(self.subscription) {
            let Payload::Alert { rule, subject, .. } = &msg.payload else {
                continue;
            };
            if self.tree.leaf(rule).is_none() {
                continue; // belongs to another tree's EDDI
            }
            let was_reached = self.root_reached(*subject);
            self.triggered
                .entry(*subject)
                .or_default()
                .insert(rule.clone());
            let ix = &self.indexed;
            self.states
                .entry(*subject)
                .or_insert_with(|| ix.state())
                .trigger(ix, rule);
            if !was_reached && self.root_reached(*subject) {
                self.detected_at.insert(*subject, now);
                fresh.push(self.status_for(*subject));
            }
        }
        fresh
    }

    /// Whether the tree root is currently reached for `uav`.
    pub fn root_reached(&self, uav: UavId) -> bool {
        match self.states.get(&uav) {
            Some(st) => st.root_satisfied(),
            None => self.indexed.state().root_satisfied(),
        }
    }

    /// The full status for one UAV.
    pub fn status_for(&self, uav: UavId) -> SecurityStatus {
        let mut state = self.tree.fresh_state();
        if let Some(set) = self.triggered.get(&uav) {
            for leaf in set {
                state.trigger(leaf);
            }
        }
        SecurityStatus {
            uav,
            tree: self.tree.name.clone(),
            status: state.status(),
            attack_path: state.attack_path(),
            detected_at: self.detected_at.get(&uav).copied(),
        }
    }

    /// Clears the state for a UAV after mitigation (e.g. safe landing).
    pub fn clear(&mut self, uav: UavId) {
        self.triggered.remove(&uav);
        self.detected_at.remove(&uav);
        self.states.remove(&uav);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn publish_alert(broker: &mut AlertBroker, uav: UavId, rule: &str, at: SimTime) {
        broker.publish(
            at,
            "ids",
            format!("ids/alerts/{uav}"),
            Payload::Alert {
                rule: rule.into(),
                subject: uav,
                detail: String::new(),
            },
        );
    }

    #[test]
    fn root_detection_fires_once() {
        let mut broker = AlertBroker::new();
        let mut eddi = SecurityEddi::attach(catalog::ros_message_spoofing(), &mut broker);
        let uav = UavId::new(1);
        publish_alert(&mut broker, uav, "unsigned_publisher", SimTime::ZERO);
        assert!(eddi.poll(&mut broker, SimTime::ZERO).is_empty());
        publish_alert(
            &mut broker,
            uav,
            "waypoint_deviation",
            SimTime::from_secs(1),
        );
        let hits = eddi.poll(&mut broker, SimTime::from_secs(1));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].status, TreeStatus::RootReached);
        assert_eq!(hits[0].detected_at, Some(SimTime::from_secs(1)));
        assert!(!hits[0].attack_path.is_empty());
        // Repeating an alert does not re-fire.
        publish_alert(
            &mut broker,
            uav,
            "waypoint_deviation",
            SimTime::from_secs(2),
        );
        assert!(eddi.poll(&mut broker, SimTime::from_secs(2)).is_empty());
        assert!(eddi.root_reached(uav));
    }

    #[test]
    fn uavs_are_tracked_independently() {
        let mut broker = AlertBroker::new();
        let mut eddi = SecurityEddi::attach(catalog::ros_message_spoofing(), &mut broker);
        let (u1, u2) = (UavId::new(1), UavId::new(2));
        publish_alert(&mut broker, u1, "unsigned_publisher", SimTime::ZERO);
        publish_alert(&mut broker, u2, "waypoint_deviation", SimTime::ZERO);
        eddi.poll(&mut broker, SimTime::ZERO);
        assert!(!eddi.root_reached(u1));
        assert!(!eddi.root_reached(u2));
        publish_alert(&mut broker, u1, "waypoint_deviation", SimTime::from_secs(1));
        let hits = eddi.poll(&mut broker, SimTime::from_secs(1));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].uav, u1);
    }

    #[test]
    fn alerts_for_other_trees_are_ignored() {
        let mut broker = AlertBroker::new();
        let mut eddi = SecurityEddi::attach(catalog::gps_spoofing(), &mut broker);
        let uav = UavId::new(1);
        publish_alert(&mut broker, uav, "unsigned_publisher", SimTime::ZERO);
        publish_alert(&mut broker, uav, "waypoint_deviation", SimTime::ZERO);
        assert!(eddi.poll(&mut broker, SimTime::ZERO).is_empty());
        assert_eq!(eddi.status_for(uav).status, TreeStatus::Quiet);
    }

    #[test]
    fn two_eddis_share_the_broker() {
        let mut broker = AlertBroker::new();
        let mut spoof = SecurityEddi::attach(catalog::ros_message_spoofing(), &mut broker);
        let mut gps = SecurityEddi::attach(catalog::gps_spoofing(), &mut broker);
        let uav = UavId::new(3);
        for rule in [
            "unsigned_publisher",
            "waypoint_deviation",
            "gps_anomaly",
            "position_jump",
        ] {
            publish_alert(&mut broker, uav, rule, SimTime::ZERO);
        }
        assert_eq!(spoof.poll(&mut broker, SimTime::ZERO).len(), 1);
        assert_eq!(gps.poll(&mut broker, SimTime::ZERO).len(), 1);
    }

    /// The naive oracle: rebuild the tree state from the trigger sets and
    /// walk it, as every query did before the indexed evaluation.
    fn naive_root_reached(eddi: &SecurityEddi, uav: UavId) -> bool {
        let mut state = eddi.tree.fresh_state();
        if let Some(set) = eddi.triggered.get(&uav) {
            for leaf in set {
                state.trigger(leaf);
            }
        }
        state.root_reached()
    }

    /// The indexed evaluation must agree with the naive rebuild-per-query
    /// walk on every `root_reached` answer, and `poll` must report a
    /// detection exactly when the naive root flips to reached.
    #[test]
    fn fast_path_locksteps_with_naive_eddi() {
        let mut broker = AlertBroker::new();
        let mut eddi = SecurityEddi::attach(catalog::ros_message_spoofing(), &mut broker);
        let uavs = [UavId::new(1), UavId::new(2), UavId::new(3)];
        let rules = [
            "unsigned_publisher",
            "waypoint_deviation",
            "gps_anomaly",        // belongs to another tree: must be skipped
            "unsigned_publisher", // duplicate: must be a no-op
        ];
        let mut detections = 0;
        for (k, rule) in rules.iter().cycle().take(24).enumerate() {
            let uav = uavs[k % uavs.len()];
            let at = SimTime::from_millis(k as u64 * 100);
            let before = naive_root_reached(&eddi, uav);
            publish_alert(&mut broker, uav, rule, at);
            let fresh = eddi.poll(&mut broker, at);
            let flipped = !before && naive_root_reached(&eddi, uav);
            assert_eq!(
                fresh.len(),
                usize::from(flipped),
                "poll diverged at step {k}"
            );
            if flipped {
                assert_eq!(fresh[0].uav, uav);
                assert_eq!(fresh[0].status, TreeStatus::RootReached);
                detections += 1;
            }
            for u in uavs {
                assert_eq!(eddi.root_reached(u), naive_root_reached(&eddi, u));
            }
        }
        assert!(detections > 0, "the stream must reach the root");
        // Clearing resets the indexed state with the trigger sets.
        eddi.clear(uavs[0]);
        assert!(!eddi.root_reached(uavs[0]));
        assert!(!naive_root_reached(&eddi, uavs[0]));
        assert!(!eddi.root_reached(UavId::new(99)));
    }

    #[test]
    fn clear_resets_state() {
        let mut broker = AlertBroker::new();
        let mut eddi = SecurityEddi::attach(catalog::replay_dos(), &mut broker);
        let uav = UavId::new(1);
        publish_alert(&mut broker, uav, "replay", SimTime::ZERO);
        let hits = eddi.poll(&mut broker, SimTime::ZERO);
        assert_eq!(hits.len(), 1, "OR tree fires on a single leaf");
        eddi.clear(uav);
        assert!(!eddi.root_reached(uav));
        assert_eq!(eddi.status_for(uav).status, TreeStatus::Quiet);
    }
}
