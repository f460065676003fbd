//! Job-ordering policies: who gets the next slot.
//!
//! The paper enforces isolation under two regimes: strict **priority
//! scheduling** (foreground jobs outrank background jobs) and **fair
//! sharing**, which it casts as *dynamic priority scheduling* — the job
//! with the least allocation is served first. Both are expressed through
//! the [`JobOrder`] total order consulted on every resource offer round.

use std::cmp::Ordering;
use std::fmt;

use ssr_dag::{JobId, Priority};
use ssr_simcore::SimTime;

/// A point-in-time view of one schedulable job, used to pick the next job
/// to serve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSnapshot {
    /// The job.
    pub id: JobId,
    /// Its static scheduling priority.
    pub priority: Priority,
    /// Its submission time.
    pub arrival: SimTime,
    /// Slots currently running its tasks (for fair sharing).
    pub running_slots: usize,
    /// Fair-share weight (≥ 1.0; larger earns a larger share).
    pub weight: f64,
}

/// A policy that ranks the jobs competing for the next available slot.
///
/// `compare` must be a deterministic **total** order — ties broken by job
/// id — so simulations replay exactly and the job served next is unique:
/// the minimum of the candidates. An offer round sorts its candidates
/// once with it ([`CandidateQueue`]) instead of rescanning them for every
/// slot.
pub trait JobOrder: fmt::Debug {
    /// Orders two candidates (jobs with at least one pending task):
    /// `Less` means `a` is served before `b`.
    fn compare(&self, a: &JobSnapshot, b: &JobSnapshot) -> Ordering;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Strict priority scheduling with FIFO tie-breaking — the regime of the
/// paper's §II and §VI-A cluster experiments: the highest-priority job is
/// always served first; among equals, the earliest arrival wins.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoPriority;

impl JobOrder for FifoPriority {
    fn compare(&self, a: &JobSnapshot, b: &JobSnapshot) -> Ordering {
        b.priority
            .cmp(&a.priority) // higher priority first
            .then(a.arrival.cmp(&b.arrival))
            .then(a.id.cmp(&b.id))
    }

    fn name(&self) -> &'static str {
        "fifo-priority"
    }
}

/// Pure FIFO: earliest arrival first, ignoring priorities.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl JobOrder for Fifo {
    fn compare(&self, a: &JobSnapshot, b: &JobSnapshot) -> Ordering {
        a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id))
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Max-min fair sharing via dynamic priority: the job with the smallest
/// weighted running allocation is served first (the Spark Fair Scheduler
/// behaviour used in the paper's Fig. 13 experiment).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fair;

impl JobOrder for Fair {
    fn compare(&self, a: &JobSnapshot, b: &JobSnapshot) -> Ordering {
        let sa = a.running_slots as f64 / a.weight.max(1e-9);
        let sb = b.running_slots as f64 / b.weight.max(1e-9);
        sa.total_cmp(&sb).then(a.arrival.cmp(&b.arrival)).then(a.id.cmp(&b.id))
    }

    fn name(&self) -> &'static str {
        "fair"
    }
}

/// The candidates of one offer round, sorted worst-first so the job to
/// serve next is always the last element.
///
/// Sorting once costs O(C log C); each decline pops in O(1) and each
/// assignment re-inserts the served job at its new rank by binary search
/// (under [`Fair`] its key grows with every slot it receives). Because
/// `compare` is a total order, the jobs come out in exactly the sequence
/// that taking the minimum of the remaining candidates before every slot
/// would give. The buffer keeps its capacity across rounds.
#[derive(Debug, Default)]
pub(crate) struct CandidateQueue {
    worst_first: Vec<JobSnapshot>,
}

impl CandidateQueue {
    /// Capacity retained from earlier rounds (for scratch accounting).
    pub(crate) fn capacity(&self) -> usize {
        self.worst_first.capacity()
    }

    /// Empties the queue and loads `snapshots` in their given order;
    /// [`sort`](Self::sort) must follow before the queue is served.
    pub(crate) fn load(&mut self, snapshots: &[JobSnapshot]) {
        self.worst_first.clear();
        self.worst_first.extend_from_slice(snapshots);
    }

    /// Keeps only the candidates for which `keep` holds, visiting them in
    /// load order.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&JobSnapshot) -> bool) {
        self.worst_first.retain(keep);
    }

    /// Sorts the loaded candidates worst-first under `order`. Unstable
    /// sorting is exact here (`compare` has no ties) and allocates nothing.
    pub(crate) fn sort(&mut self, order: &dyn JobOrder) {
        self.worst_first.sort_unstable_by(|a, b| order.compare(b, a));
    }

    /// The job to serve next, if any.
    pub(crate) fn best(&self) -> Option<JobSnapshot> {
        self.worst_first.last().copied()
    }

    /// Drops the best candidate: it declined and sits out the round.
    pub(crate) fn decline(&mut self) {
        self.worst_first.pop();
    }

    /// Records one slot granted to the best candidate; it leaves the
    /// queue if `drained` (no pending task left), otherwise it moves to
    /// its new rank.
    pub(crate) fn assigned(&mut self, order: &dyn JobOrder, drained: bool) {
        let Some(mut served) = self.worst_first.pop() else { return };
        if drained {
            return;
        }
        served.running_slots += 1;
        let at = self
            .worst_first
            .partition_point(|c| order.compare(c, &served) == Ordering::Greater);
        self.worst_first.insert(at, served);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference selection: a full `min_by(compare)` scan, as offer
    /// rounds did before [`CandidateQueue`].
    fn select(order: &dyn JobOrder, candidates: &[JobSnapshot]) -> Option<JobId> {
        candidates.iter().min_by(|a, b| order.compare(a, b)).map(|s| s.id)
    }

    fn snap(id: u64, prio: i32, arrival: u64, running: usize) -> JobSnapshot {
        JobSnapshot {
            id: JobId::new(id),
            priority: Priority::new(prio),
            arrival: SimTime::from_secs(arrival),
            running_slots: running,
            weight: 1.0,
        }
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert_eq!(select(&FifoPriority, &[]), None);
        assert_eq!(select(&Fair, &[]), None);
        assert_eq!(select(&Fifo, &[]), None);
        assert_eq!(CandidateQueue::default().best(), None);
    }

    #[test]
    fn priority_wins_over_arrival() {
        let c = [snap(1, 0, 0, 0), snap(2, 10, 5, 0)];
        assert_eq!(select(&FifoPriority, &c), Some(JobId::new(2)));
    }

    #[test]
    fn equal_priority_falls_back_to_fifo() {
        let c = [snap(1, 5, 10, 0), snap(2, 5, 3, 0)];
        assert_eq!(select(&FifoPriority, &c), Some(JobId::new(2)));
    }

    #[test]
    fn equal_everything_breaks_by_id() {
        let c = [snap(7, 5, 3, 0), snap(2, 5, 3, 0)];
        assert_eq!(select(&FifoPriority, &c), Some(JobId::new(2)));
        assert_eq!(select(&Fair, &c), Some(JobId::new(2)));
    }

    #[test]
    fn fifo_ignores_priority() {
        let c = [snap(1, 0, 1, 0), snap(2, 99, 2, 0)];
        assert_eq!(select(&Fifo, &c), Some(JobId::new(1)));
    }

    #[test]
    fn fair_serves_least_allocated() {
        let c = [snap(1, 0, 0, 8), snap(2, 0, 5, 2)];
        assert_eq!(select(&Fair, &c), Some(JobId::new(2)));
    }

    #[test]
    fn fair_respects_weights() {
        // Job 1 runs 4 slots at weight 4 (share 1); job 2 runs 2 at weight 1
        // (share 2) -> job 1 is more underserved.
        let mut a = snap(1, 0, 0, 4);
        a.weight = 4.0;
        let b = snap(2, 0, 0, 2);
        assert_eq!(select(&Fair, &[a, b]), Some(JobId::new(1)));
    }

    #[test]
    fn fair_converges_to_even_split() {
        // Grant slots one at a time through the queue; counts should stay
        // within one of each other.
        let mut q = CandidateQueue::default();
        q.load(&[snap(1, 0, 0, 0), snap(2, 0, 0, 0)]);
        q.sort(&Fair);
        let mut running = [0usize, 0usize];
        for _ in 0..100 {
            let winner = q.best().unwrap().id;
            q.assigned(&Fair, false);
            running[(winner.as_u64() - 1) as usize] += 1;
            assert!(running[0].abs_diff(running[1]) <= 1);
        }
        assert_eq!(running[0] + running[1], 100);
    }

    #[test]
    fn names() {
        assert_eq!(FifoPriority.name(), "fifo-priority");
        assert_eq!(Fair.name(), "fair");
        assert_eq!(Fifo.name(), "fifo");
    }

    fn order_of(index: usize) -> &'static dyn JobOrder {
        match index {
            0 => &FifoPriority,
            1 => &Fifo,
            _ => &Fair,
        }
    }

    proptest! {
        /// The sorted walk with re-insertion serves exactly the job
        /// sequence of the reference: a `min_by` scan before every slot
        /// over a vector maintained with `swap_remove`, for every order,
        /// random snapshots and random assign / drain / decline outcomes.
        #[test]
        fn candidate_queue_matches_repeated_min_scan(
            jobs in proptest::collection::vec(
                (0i32..4, 0u64..6, 0usize..5, 1u32..4),
                0..24,
            ),
            outcomes in proptest::collection::vec(0u32..4, 0..64),
            order_index in 0usize..3,
        ) {
            let order = order_of(order_index);
            let snapshots: Vec<JobSnapshot> = jobs
                .iter()
                .enumerate()
                .map(|(i, &(prio, arrival, running, weight))| JobSnapshot {
                    id: JobId::new(i as u64),
                    priority: Priority::new(prio),
                    arrival: SimTime::from_secs(arrival),
                    running_slots: running,
                    weight: f64::from(weight),
                })
                .collect();
            let mut reference = snapshots.clone();
            let mut queue = CandidateQueue::default();
            queue.load(&snapshots);
            queue.sort(order);
            for &outcome in &outcomes {
                let expected = select(order, &reference);
                prop_assert_eq!(queue.best().map(|s| s.id), expected);
                let Some(job) = expected else { break };
                let pos = reference.iter().position(|s| s.id == job).unwrap();
                match outcome {
                    // Declined: the job sits out the rest of the round.
                    0 => {
                        reference.swap_remove(pos);
                        queue.decline();
                    }
                    // Assigned its last pending task: drained.
                    1 => {
                        reference.swap_remove(pos);
                        queue.assigned(order, true);
                    }
                    // Assigned with tasks left: its allocation grows.
                    _ => {
                        reference[pos].running_slots += 1;
                        queue.assigned(order, false);
                    }
                }
            }
        }
    }
}
