//! Task allocation and redistribution.
//!
//! Strips start one-per-UAV. When the mission decider reports a UAV loss
//! with spare capacity ("Redistribute task among remaining capable UAVs",
//! Fig. 1), the orphaned strips are handed greedily to the capable UAV
//! with the least remaining work.

use sesame_types::ids::{TaskId, UavId};
use std::collections::BTreeMap;

/// The live assignment of tasks (strips) to UAVs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Allocation {
    /// task -> owner.
    owners: BTreeMap<TaskId, UavId>,
    /// Remaining work per task, metres of path.
    remaining: BTreeMap<TaskId, f64>,
    /// owner -> its tasks in ascending id order: `owners` inverted,
    /// kept in step by `assign` and `redistribute_from`.
    owned: BTreeMap<UavId, Vec<TaskId>>,
}

impl Allocation {
    /// Empty allocation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a task with its owner and workload.
    pub fn assign(&mut self, task: TaskId, owner: UavId, work_m: f64) {
        self.set_owner(task, owner);
        self.remaining.insert(task, work_m.max(0.0));
    }

    /// Points `task` at `owner` in both directions of the index.
    fn set_owner(&mut self, task: TaskId, owner: UavId) {
        if let Some(prev) = self.owners.insert(task, owner) {
            if let Some(list) = self.owned.get_mut(&prev) {
                if let Ok(k) = list.binary_search(&task) {
                    list.remove(k);
                }
                // No empty lists: the index stays a pure function of
                // `owners`, so the derived `PartialEq` stays exact.
                if list.is_empty() {
                    self.owned.remove(&prev);
                }
            }
        }
        let list = self.owned.entry(owner).or_default();
        if let Err(k) = list.binary_search(&task) {
            list.insert(k, task);
        }
    }

    /// The owner of a task.
    pub fn owner(&self, task: TaskId) -> Option<UavId> {
        self.owners.get(&task).copied()
    }

    /// Remaining work of a task, metres.
    pub fn remaining(&self, task: TaskId) -> f64 {
        self.remaining.get(&task).copied().unwrap_or(0.0)
    }

    /// Records progress on a task (remaining work floors at zero).
    pub fn record_progress(&mut self, task: TaskId, done_m: f64) {
        if let Some(r) = self.remaining.get_mut(&task) {
            *r = (*r - done_m.max(0.0)).max(0.0);
        }
    }

    /// Tasks owned by a UAV, in ascending id order.
    pub fn tasks_of(&self, uav: UavId) -> Vec<TaskId> {
        self.owned_by(uav).to_vec()
    }

    /// Tasks owned by a UAV, in ascending id order, without allocating.
    pub fn owned_by(&self, uav: UavId) -> &[TaskId] {
        self.owned.get(&uav).map_or(&[], Vec::as_slice)
    }

    /// Total remaining work of a UAV, metres.
    pub fn load_of(&self, uav: UavId) -> f64 {
        self.owned_by(uav).iter().map(|t| self.remaining(*t)).sum()
    }

    /// Redistributes every unfinished task of `lost` to the UAV in
    /// `capable` with the smallest current load (greedy, one task at a
    /// time). Returns the reassignments as `(task, from, to)`.
    pub fn redistribute_from(
        &mut self,
        lost: UavId,
        capable: &[UavId],
    ) -> Vec<(TaskId, UavId, UavId)> {
        if capable.is_empty() {
            return Vec::new();
        }
        let mut orphans: Vec<TaskId> = self
            .owned_by(lost)
            .iter()
            .copied()
            .filter(|t| self.remaining(*t) > 0.0)
            .collect();
        // Hand out the biggest orphan first.
        orphans.sort_by(|a, b| {
            self.remaining(*b)
                .partial_cmp(&self.remaining(*a))
                .expect("finite work")
        });
        let mut moves = Vec::new();
        for task in orphans {
            let target = capable
                .iter()
                .copied()
                .filter(|u| *u != lost)
                .min_by(|a, b| {
                    self.load_of(*a)
                        .partial_cmp(&self.load_of(*b))
                        .expect("finite load")
                });
            let Some(to) = target else { break };
            self.set_owner(task, to);
            moves.push((task, lost, to));
        }
        moves
    }

    /// Completion fraction over all registered work.
    pub fn completion(&self, original_total_m: f64) -> f64 {
        if original_total_m <= 0.0 {
            return 1.0;
        }
        let left: f64 = self.remaining.values().sum();
        (1.0 - left / original_total_m).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The owner filter `tasks_of` ran before the index existed.
    fn scanned_tasks_of(a: &Allocation, uav: UavId) -> Vec<TaskId> {
        a.owners
            .iter()
            .filter(|(_, o)| **o == uav)
            .map(|(t, _)| *t)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn owner_index_matches_the_owner_scan(
            ops in proptest::collection::vec((0u8..3, 0u32..12, 1u32..6, 0.0..400.0f64, 0u8..32), 1..60),
        ) {
            let mut a = Allocation::new();
            for (op, task, uav, work, capable_bits) in ops {
                let (task, uav) = (TaskId::new(task), UavId::new(uav));
                match op {
                    0 => a.assign(task, uav, work),
                    1 => a.record_progress(task, work),
                    _ => {
                        let capable: Vec<UavId> = (1..6u32)
                            .filter(|u| capable_bits & (1 << (u - 1)) != 0)
                            .map(UavId::new)
                            .collect();
                        a.redistribute_from(uav, &capable);
                    }
                }
                let mut indexed = 0;
                for u in 0..7u32 {
                    let u = UavId::new(u);
                    let scanned = scanned_tasks_of(&a, u);
                    prop_assert_eq!(a.owned_by(u), scanned.as_slice());
                    prop_assert_eq!(a.tasks_of(u), scanned);
                    indexed += a.owned_by(u).len();
                }
                prop_assert_eq!(indexed, a.owners.len());
            }
        }
    }

    fn setup() -> Allocation {
        let mut a = Allocation::new();
        a.assign(TaskId::new(0), UavId::new(1), 300.0);
        a.assign(TaskId::new(1), UavId::new(2), 300.0);
        a.assign(TaskId::new(2), UavId::new(3), 300.0);
        a
    }

    #[test]
    fn initial_assignment() {
        let a = setup();
        assert_eq!(a.owner(TaskId::new(0)), Some(UavId::new(1)));
        assert_eq!(a.load_of(UavId::new(2)), 300.0);
        assert_eq!(a.tasks_of(UavId::new(3)), vec![TaskId::new(2)]);
    }

    #[test]
    fn progress_reduces_load_and_floors() {
        let mut a = setup();
        a.record_progress(TaskId::new(0), 120.0);
        assert_eq!(a.remaining(TaskId::new(0)), 180.0);
        a.record_progress(TaskId::new(0), 1e9);
        assert_eq!(a.remaining(TaskId::new(0)), 0.0);
        a.record_progress(TaskId::new(0), -50.0);
        assert_eq!(
            a.remaining(TaskId::new(0)),
            0.0,
            "negative progress ignored"
        );
    }

    #[test]
    fn redistribution_moves_unfinished_work() {
        let mut a = setup();
        a.record_progress(TaskId::new(2), 100.0); // UAV 3 did 100 of 300
        let moves = a.redistribute_from(UavId::new(3), &[UavId::new(1), UavId::new(2)]);
        assert_eq!(moves.len(), 1);
        let (task, from, to) = moves[0];
        assert_eq!(task, TaskId::new(2));
        assert_eq!(from, UavId::new(3));
        assert!(to == UavId::new(1) || to == UavId::new(2));
        assert_eq!(a.tasks_of(UavId::new(3)), vec![]);
        assert_eq!(a.remaining(TaskId::new(2)), 200.0, "progress preserved");
    }

    #[test]
    fn redistribution_balances_load() {
        let mut a = Allocation::new();
        a.assign(TaskId::new(0), UavId::new(1), 100.0);
        a.assign(TaskId::new(1), UavId::new(2), 500.0);
        a.assign(TaskId::new(2), UavId::new(3), 300.0);
        a.assign(TaskId::new(3), UavId::new(3), 200.0);
        let moves = a.redistribute_from(UavId::new(3), &[UavId::new(1), UavId::new(2)]);
        assert_eq!(moves.len(), 2);
        // Biggest orphan (300) goes to the lighter UAV 1 (100), then the
        // 200 m orphan again to UAV 1 (now 400) vs UAV 2 (500) -> UAV 1.
        assert_eq!(a.load_of(UavId::new(1)), 600.0);
        assert_eq!(a.load_of(UavId::new(2)), 500.0);
    }

    #[test]
    fn finished_tasks_are_not_moved() {
        let mut a = setup();
        a.record_progress(TaskId::new(2), 300.0);
        let moves = a.redistribute_from(UavId::new(3), &[UavId::new(1)]);
        assert!(moves.is_empty());
    }

    #[test]
    fn no_capable_uavs_means_no_moves() {
        let mut a = setup();
        assert!(a.redistribute_from(UavId::new(3), &[]).is_empty());
        assert_eq!(a.owner(TaskId::new(2)), Some(UavId::new(3)));
    }

    #[test]
    fn completion_fraction() {
        let mut a = setup();
        assert_eq!(a.completion(900.0), 0.0);
        a.record_progress(TaskId::new(0), 300.0);
        a.record_progress(TaskId::new(1), 150.0);
        assert!((a.completion(900.0) - 0.5).abs() < 1e-12);
        a.record_progress(TaskId::new(1), 150.0);
        a.record_progress(TaskId::new(2), 300.0);
        assert_eq!(a.completion(900.0), 1.0);
        assert_eq!(Allocation::new().completion(0.0), 1.0);
    }
}
