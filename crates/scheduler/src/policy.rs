//! The reservation-policy seam (the paper's *ApprovalLogic* plus
//! `HandleTaskCompletion`) and the §III-A naive baselines.
//!
//! A [`ReservationPolicy`] decides, at every task completion, whether the
//! freed slot is **released** to the cluster or **reserved** for the job's
//! downstream computation, and — at every resource offer — whether an
//! assignment onto a reserved slot is **approved**. The paper's
//! contribution, speculative slot reservation (Algorithm 1), implements
//! this trait in the `ssr-core` crate; this module provides the trait, the
//! context handed to policies, and three baselines:
//!
//! * [`WorkConserving`] — the status quo: never reserve anything,
//! * [`TimeoutReservation`] — Spark dynamic-allocation style: blindly hold
//!   every freed slot for a fixed timeout,
//! * [`StaticReservation`] — Mesos/Borg style: a fixed pool of slots
//!   permanently set aside for a priority class.

use std::fmt;

use ssr_cluster::{Reservation, SlotId, SlotPool};
use ssr_dag::{JobId, Priority, StageId, TaskId};
use ssr_simcore::{SimDuration, SimTime};

use crate::jobs::Jobs;

/// What to do with a slot freed by a completed task (Algorithm 1, lines
/// 2–17 decide between these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotDisposition {
    /// Return the slot to the cluster (work conservation).
    Release,
    /// Hold the slot under the given reservation.
    Reserve(Reservation),
}

/// A request to opportunistically grab extra slots for an upcoming phase
/// (Algorithm 1, lines 14–17: pre-reservation when the downstream
/// parallelism exceeds the current one).
///
/// Requests are not served immediately: the scheduler queues them (one
/// per `(job, stage)`, later requests overwrite earlier ones) and fills
/// them from free slots at the start of every offer round and after
/// completions. When several jobs have outstanding requests, slots go to
/// the **highest-priority** request first; ties prefer the earlier
/// `deadline` (a request with no deadline sorts after any dated one),
/// then the smaller `(job, stage)` id. A partially-filled request stays
/// queued and keeps its place in that order, so a low-priority job can
/// never starve a later-arriving high-priority one out of pre-reserved
/// slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreReserveRequest {
    /// The requesting job.
    pub job: JobId,
    /// The downstream phase the slots are for.
    pub stage: StageId,
    /// Priority the pre-reserved slots inherit.
    pub priority: Priority,
    /// How many additional slots to acquire (the paper's `n - m`).
    pub extra: u32,
    /// Optional expiry for the pre-reservations.
    pub deadline: Option<SimTime>,
    /// Minimum slot size required (§III-C "right size"; 1 for homogeneous
    /// clusters).
    pub min_size: u32,
}

/// Read-only scheduler state handed to policy callbacks.
#[derive(Debug)]
pub struct PolicyCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The slot pool (states, reservations, indexes).
    pub slots: &'a SlotPool,
    /// All admitted jobs.
    pub jobs: &'a Jobs,
}

impl PolicyCtx<'_> {
    /// Number of slots currently reserved for `job`.
    pub fn reserved_count(&self, job: JobId) -> usize {
        self.slots.reserved_for(job).count()
    }
}

/// The pluggable reservation policy — the seam the paper adds to Spark's
/// `TaskSetManager` / `TaskSchedulerImpl` (§V).
pub trait ReservationPolicy: fmt::Debug {
    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Called when `task` completes (or a losing copy is killed), freeing
    /// `slot`; decides whether to release or reserve it. This is the
    /// paper's `HandleTaskCompletion` (Algorithm 1, lines 1–17).
    fn on_task_completed(
        &mut self,
        ctx: &PolicyCtx<'_>,
        task: TaskId,
        slot: SlotId,
    ) -> SlotDisposition;

    /// The ApprovalLogic (Algorithm 1, lines 18–22): may a task of `job`
    /// (at `priority`) be assigned onto a slot held by `reservation`?
    ///
    /// The default reproduces the paper's rule: the reservation is
    /// respected by jobs with lower **or equal** priority, but can be
    /// overridden by strictly higher priorities — and the reserving job
    /// itself may always use its own slots.
    fn approve(
        &self,
        ctx: &PolicyCtx<'_>,
        reservation: &Reservation,
        job: JobId,
        priority: Priority,
    ) -> bool {
        let _ = ctx;
        job == reservation.job() || priority > reservation.priority()
    }

    /// `true` iff this policy's [`approve`](Self::approve) verdict obeys
    /// two rules:
    ///
    /// * the owning job is always approved on its own reservations;
    /// * for a candidate that does **not** own the reservation, the
    ///   verdict depends on exactly three things: the candidate's
    ///   `priority`, the reservation's owner and the reservation's
    ///   priority. It never consults the candidate's job id, `ctx`, the
    ///   specific slot, the reservation's stage or deadline, or any
    ///   mutable policy state.
    ///
    /// Declaring this lets the scheduler evaluate ApprovalLogic once per
    /// `(owner, priority)` reservation *group* instead of once per
    /// reserved slot, and, when no free slot remains, answer "does any
    /// group approve a non-owner at priority `p`?" once per distinct `p`
    /// per offer round. The default is conservative (`false`: one
    /// `approve` call per slot); a policy overriding [`approve`] with
    /// slot-, time- or job-dependent logic must leave it that way.
    fn approval_is_priority_based(&self) -> bool {
        false
    }

    /// Called after `task`'s completion was processed; returns a
    /// pre-reservation request if the policy wants extra slots for the
    /// downstream phase (Algorithm 1, lines 14–17). See
    /// [`PreReserveRequest`] for how queued requests compete for free
    /// slots (priority-ordered fill).
    fn prereserve(&mut self, ctx: &PolicyCtx<'_>, task: TaskId) -> Option<PreReserveRequest> {
        let _ = (ctx, task);
        None
    }

    /// `true` if reserved-yet-idle slots should run extra copies of the
    /// phase's ongoing tasks (§IV-C straggler mitigation).
    fn mitigate_stragglers(&self) -> bool {
        false
    }

    /// A fixed slot pool to reserve at scheduler start: `(count,
    /// class_priority)`. Only [`StaticReservation`] uses this.
    fn initial_static_pool(&self, total_slots: u32) -> Option<(u32, Priority)> {
        let _ = total_slots;
        None
    }

    /// Informs the policy which slots form its static pool.
    fn static_pool_assigned(&mut self, slots: &[SlotId]) {
        let _ = slots;
    }

    /// Called when a phase of `job` clears its barrier.
    fn on_stage_ready(&mut self, ctx: &PolicyCtx<'_>, job: JobId, stage: StageId) {
        let _ = (ctx, job, stage);
    }

    /// Called when `job`'s final phase completes.
    fn on_job_completed(&mut self, ctx: &PolicyCtx<'_>, job: JobId) {
        let _ = (ctx, job);
    }
}

/// The sentinel "job" that owns a static reservation pool; no real job
/// ever receives this id.
pub const STATIC_POOL_JOB: JobId = JobId::new(u64::MAX);

/// The status-quo baseline: strictly work conserving, never reserves a
/// slot. This is the configuration under which the paper demonstrates the
/// isolation failure (§II-B).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkConserving;

impl ReservationPolicy for WorkConserving {
    fn name(&self) -> &'static str {
        "work-conserving"
    }

    fn approval_is_priority_based(&self) -> bool {
        true // uses the default (pure) approval rule
    }

    fn on_task_completed(
        &mut self,
        _ctx: &PolicyCtx<'_>,
        _task: TaskId,
        _slot: SlotId,
    ) -> SlotDisposition {
        SlotDisposition::Release
    }
}

/// Timeout-based reservation (§III-A.2, Spark dynamic allocation): every
/// freed slot is *blindly* held for the reserving job for a fixed timeout —
/// even when no downstream computation exists.
#[derive(Debug, Clone, Copy)]
pub struct TimeoutReservation {
    timeout: SimDuration,
}

impl TimeoutReservation {
    /// Creates the policy with the given hold timeout.
    pub fn new(timeout: SimDuration) -> Self {
        TimeoutReservation { timeout }
    }

    /// The hold timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }
}

impl ReservationPolicy for TimeoutReservation {
    fn name(&self) -> &'static str {
        "timeout-reservation"
    }

    fn approval_is_priority_based(&self) -> bool {
        true // uses the default (pure) approval rule
    }

    fn on_task_completed(
        &mut self,
        ctx: &PolicyCtx<'_>,
        task: TaskId,
        _slot: SlotId,
    ) -> SlotDisposition {
        let priority = ctx
            .jobs
            .get(task.job)
            .map(|j| j.priority())
            .unwrap_or_default();
        // Blind: reserves even after the final phase (the inefficiency the
        // paper calls out).
        SlotDisposition::Reserve(
            Reservation::new(task.job, priority).with_deadline(ctx.now + self.timeout),
        )
    }
}

/// Static slot reservation (§III-A.1, Mesos/Borg): `pool` slots are
/// permanently set aside for jobs of priority ≥ `class`; the pool neither
/// grows under load nor shrinks when idle.
#[derive(Debug, Clone)]
pub struct StaticReservation {
    pool: u32,
    class: Priority,
    pool_slots: Vec<SlotId>,
}

impl StaticReservation {
    /// Reserves `pool` slots for jobs at or above `class`.
    pub fn new(pool: u32, class: Priority) -> Self {
        StaticReservation { pool, class, pool_slots: Vec::new() }
    }

    /// The slots forming the pool (set at scheduler start).
    pub fn pool_slots(&self) -> &[SlotId] {
        &self.pool_slots
    }
}

impl ReservationPolicy for StaticReservation {
    fn name(&self) -> &'static str {
        "static-reservation"
    }

    fn approval_is_priority_based(&self) -> bool {
        // The pool-sentinel branch still only compares priorities against
        // the reservation's owner and priority — pure in the same sense.
        true
    }

    fn initial_static_pool(&self, total_slots: u32) -> Option<(u32, Priority)> {
        Some((self.pool.min(total_slots), self.class))
    }

    fn static_pool_assigned(&mut self, slots: &[SlotId]) {
        self.pool_slots = slots.to_vec();
    }

    fn on_task_completed(
        &mut self,
        ctx: &PolicyCtx<'_>,
        _task: TaskId,
        slot: SlotId,
    ) -> SlotDisposition {
        if self.pool_slots.contains(&slot) {
            // Restore the pool reservation once the class task vacates.
            let _ = ctx;
            SlotDisposition::Reserve(Reservation::new(STATIC_POOL_JOB, self.class))
        } else {
            SlotDisposition::Release
        }
    }

    fn approve(
        &self,
        _ctx: &PolicyCtx<'_>,
        reservation: &Reservation,
        job: JobId,
        priority: Priority,
    ) -> bool {
        if reservation.job() == STATIC_POOL_JOB {
            // Pool slots serve the whole class (>= class priority).
            priority >= reservation.priority()
        } else {
            job == reservation.job() || priority > reservation.priority()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_cluster::ClusterSpec;
    use ssr_dag::JobSpecBuilder;
    use ssr_simcore::dist::constant;

    fn ctx_fixture() -> (SlotPool, Jobs) {
        let slots = SlotPool::new(&ClusterSpec::new(2, 2).unwrap());
        let mut jobs = Jobs::new();
        let spec = JobSpecBuilder::new("j")
            .priority(Priority::new(5))
            .stage("a", 2, constant(1.0))
            .stage("b", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        jobs.insert(crate::jobs::JobState::new(JobId::new(1), spec, SimTime::ZERO));
        (slots, jobs)
    }

    fn task() -> TaskId {
        TaskId::new(JobId::new(1), StageId::new(0), 0)
    }

    #[test]
    fn work_conserving_always_releases() {
        let (slots, jobs) = ctx_fixture();
        let ctx = PolicyCtx { now: SimTime::ZERO, slots: &slots, jobs: &jobs };
        let mut p = WorkConserving;
        assert_eq!(p.on_task_completed(&ctx, task(), SlotId::new(0)), SlotDisposition::Release);
        assert!(!p.mitigate_stragglers());
        assert_eq!(p.name(), "work-conserving");
    }

    #[test]
    fn default_approval_rule() {
        let (slots, jobs) = ctx_fixture();
        let ctx = PolicyCtx { now: SimTime::ZERO, slots: &slots, jobs: &jobs };
        let p = WorkConserving;
        let r = Reservation::new(JobId::new(1), Priority::new(5));
        // Owner may always use its own reservation.
        assert!(p.approve(&ctx, &r, JobId::new(1), Priority::new(5)));
        // Equal priority of another job is refused (Algorithm 1: >=).
        assert!(!p.approve(&ctx, &r, JobId::new(2), Priority::new(5)));
        // Lower priority refused, strictly higher approved.
        assert!(!p.approve(&ctx, &r, JobId::new(2), Priority::new(4)));
        assert!(p.approve(&ctx, &r, JobId::new(2), Priority::new(6)));
    }

    #[test]
    fn timeout_policy_reserves_blindly_with_deadline() {
        let (slots, jobs) = ctx_fixture();
        let now = SimTime::from_secs(10);
        let ctx = PolicyCtx { now, slots: &slots, jobs: &jobs };
        let mut p = TimeoutReservation::new(SimDuration::from_secs(60));
        assert_eq!(p.timeout(), SimDuration::from_secs(60));
        match p.on_task_completed(&ctx, task(), SlotId::new(0)) {
            SlotDisposition::Reserve(r) => {
                assert_eq!(r.job(), JobId::new(1));
                assert_eq!(r.priority(), Priority::new(5));
                assert_eq!(r.deadline(), Some(SimTime::from_secs(70)));
            }
            other => panic!("expected reservation, got {other:?}"),
        }
        // Blind even for the final phase.
        let final_task = TaskId::new(JobId::new(1), StageId::new(1), 0);
        assert!(matches!(
            p.on_task_completed(&ctx, final_task, SlotId::new(0)),
            SlotDisposition::Reserve(_)
        ));
    }

    #[test]
    fn static_pool_sizing_and_membership() {
        let mut p = StaticReservation::new(3, Priority::new(10));
        assert_eq!(p.initial_static_pool(100), Some((3, Priority::new(10))));
        assert_eq!(p.initial_static_pool(2), Some((2, Priority::new(10)))); // clamped
        p.static_pool_assigned(&[SlotId::new(0), SlotId::new(1)]);
        assert_eq!(p.pool_slots(), &[SlotId::new(0), SlotId::new(1)]);
    }

    #[test]
    fn static_pool_restores_reservation_on_completion() {
        let (slots, jobs) = ctx_fixture();
        let ctx = PolicyCtx { now: SimTime::ZERO, slots: &slots, jobs: &jobs };
        let mut p = StaticReservation::new(2, Priority::new(10));
        p.static_pool_assigned(&[SlotId::new(0)]);
        match p.on_task_completed(&ctx, task(), SlotId::new(0)) {
            SlotDisposition::Reserve(r) => {
                assert_eq!(r.job(), STATIC_POOL_JOB);
                assert_eq!(r.priority(), Priority::new(10));
                assert_eq!(r.deadline(), None);
            }
            other => panic!("expected pool reservation, got {other:?}"),
        }
        // Non-pool slots are released normally.
        assert_eq!(p.on_task_completed(&ctx, task(), SlotId::new(3)), SlotDisposition::Release);
    }

    #[test]
    fn static_pool_approves_whole_class() {
        let (slots, jobs) = ctx_fixture();
        let ctx = PolicyCtx { now: SimTime::ZERO, slots: &slots, jobs: &jobs };
        let p = StaticReservation::new(2, Priority::new(10));
        let pool_r = Reservation::new(STATIC_POOL_JOB, Priority::new(10));
        assert!(p.approve(&ctx, &pool_r, JobId::new(1), Priority::new(10)));
        assert!(p.approve(&ctx, &pool_r, JobId::new(2), Priority::new(11)));
        assert!(!p.approve(&ctx, &pool_r, JobId::new(2), Priority::new(9)));
        // Ordinary reservations keep the default rule.
        let r = Reservation::new(JobId::new(1), Priority::new(5));
        assert!(!p.approve(&ctx, &r, JobId::new(2), Priority::new(5)));
    }

    #[test]
    fn baselines_declare_priority_based_approval() {
        assert!(WorkConserving.approval_is_priority_based());
        assert!(TimeoutReservation::new(SimDuration::from_secs(1)).approval_is_priority_based());
        assert!(StaticReservation::new(1, Priority::new(1)).approval_is_priority_based());
    }

    #[test]
    fn reserved_count_helper() {
        let (mut slots, jobs) = ctx_fixture();
        slots
            .reserve(SlotId::new(0), Reservation::new(JobId::new(1), Priority::new(5)))
            .unwrap();
        slots
            .reserve(SlotId::new(1), Reservation::new(JobId::new(2), Priority::new(5)))
            .unwrap();
        let ctx = PolicyCtx { now: SimTime::ZERO, slots: &slots, jobs: &jobs };
        assert_eq!(ctx.reserved_count(JobId::new(1)), 1);
        assert_eq!(ctx.reserved_count(JobId::new(9)), 0);
    }
}
