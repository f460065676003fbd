//! The task scheduler: matches resource offers to tasks through the job
//! order, delay scheduling and the reservation policy's ApprovalLogic.
//!
//! This is the reproduction of the paper's modified `TaskSchedulerImpl`
//! (§V), combined with the `DAGScheduler` duties of submitting a phase's
//! task set when its barrier clears. It is a *reactive* state machine: a
//! driving simulator (the `ssr-sim` crate) calls [`TaskScheduler::submit`],
//! [`TaskScheduler::resource_offers`], [`TaskScheduler::task_finished`] and
//! [`TaskScheduler::expire_reservations`] as events occur, and realises
//! task durations itself.

use std::collections::{BTreeMap, VecDeque};

use ssr_cluster::{
    ClusterSpec, DataPlacement, LocalityLevel, LocalityModel, Reservation, SlotId, SlotPool,
};
use ssr_dag::{JobId, JobSpec, Priority, StageId};
use ssr_perf::{SpanProfiler, WorkCounters};
use ssr_simcore::SimTime;
use ssr_trace::{DenyReason, TraceEvent, TraceEventKind, TraceSink};

use crate::decline::{self, ApprovalMemo};
use crate::jobs::{JobState, Jobs};
use crate::order::{CandidateQueue, JobOrder, JobSnapshot};
use crate::policy::{PolicyCtx, ReservationPolicy, SlotDisposition};
use crate::speculation::SpeculationConfig;
use crate::taskset::{TaskInstance, TaskSetManager};

/// One running task instance as tracked by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningInstance {
    /// The instance (task + attempt).
    pub instance: TaskInstance,
    /// When it was placed.
    pub started: SimTime,
    /// The locality level it was placed at.
    pub level: LocalityLevel,
}

/// A task-to-slot assignment produced by a resource-offer round. The
/// driving simulator realises the task's duration (intrinsic sample ×
/// locality slowdown) and schedules the finish event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The slot the instance was placed on.
    pub slot: SlotId,
    /// The placed instance.
    pub instance: TaskInstance,
    /// The locality level of the placement.
    pub level: LocalityLevel,
    /// `true` if this is an extra copy of an already-running task (either
    /// the §IV-C reserved-slot strategy or status-quo progress-based
    /// speculation).
    pub speculative: bool,
    /// `true` if the copy runs on a warm slot that just executed the same
    /// phase (§IV-C) and therefore incurs no locality or cold-JVM penalty;
    /// status-quo speculation copies are cold (`false`).
    pub warm: bool,
}

/// The result of processing a task-finish event.
#[derive(Debug, Clone)]
pub struct FinishOutcome {
    /// The instance that finished.
    pub instance: TaskInstance,
    /// Its realised duration.
    pub duration: ssr_simcore::SimDuration,
    /// Phases of the same job whose barriers cleared.
    pub newly_ready: Vec<StageId>,
    /// Slots whose losing copies were killed — the simulator must cancel
    /// their pending finish events.
    pub killed: Vec<SlotId>,
    /// `true` if this finish completed its phase.
    pub stage_completed: bool,
    /// `true` if this finish completed the whole job.
    pub job_completed: bool,
}

/// The result of failing a set of slots (fault injection).
#[derive(Debug, Clone, Default)]
pub struct FailureOutcome {
    /// Slots whose running instances were killed by the fault — the
    /// simulator must cancel their pending finish events.
    pub killed: Vec<SlotId>,
    /// Slots whose reservations were forcibly revoked.
    pub revoked: Vec<SlotId>,
}

#[derive(Debug, Clone, Copy)]
struct PendingPrereserve {
    target: u32,
    granted: u32,
    priority: Priority,
    deadline: Option<SimTime>,
    min_size: u32,
}

/// The cluster task scheduler with pluggable job order and reservation
/// policy.
///
/// # Example
///
/// ```
/// use ssr_scheduler::{TaskScheduler, WorkConserving, FifoPriority};
/// use ssr_cluster::{ClusterSpec, LocalityModel};
/// use ssr_dag::JobSpecBuilder;
/// use ssr_simcore::{SimTime, dist::constant};
///
/// let mut sched = TaskScheduler::new(
///     ClusterSpec::new(2, 2)?,
///     LocalityModel::paper_simulation(),
///     Box::new(WorkConserving),
///     Box::new(FifoPriority),
/// );
/// let spec = JobSpecBuilder::new("demo").stage("map", 4, constant(1.0)).build()?;
/// let job = sched.submit(spec, SimTime::ZERO);
/// let assignments = sched.resource_offers(SimTime::ZERO);
/// assert_eq!(assignments.len(), 4);
/// assert_eq!(sched.running_count_for(job), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TaskScheduler {
    spec: ClusterSpec,
    slots: SlotPool,
    placement: DataPlacement,
    locality: LocalityModel,
    jobs: Jobs,
    running: BTreeMap<SlotId, RunningInstance>,
    running_per_job: BTreeMap<JobId, usize>,
    policy: Box<dyn ReservationPolicy>,
    order: Box<dyn JobOrder>,
    speculation: Option<SpeculationConfig>,
    next_job: u64,
    prereserve: BTreeMap<(JobId, StageId), PendingPrereserve>,
    /// Optional decision-trace sink. `None` (the default) means tracing is
    /// off and no event is ever constructed — every emit site is guarded by
    /// `self.trace.is_some()`, so the disabled path costs one branch.
    trace: Option<Box<dyn TraceSink>>,
    /// Deterministic work counters, always on: pure counts of engine
    /// work, a function of the seed alone. `Cell`-based so `&self` hot
    /// paths (`best_candidate` and friends) can count without
    /// restructuring borrows.
    counters: WorkCounters,
    /// Optional wall-clock span profiler (non-deterministic plane).
    /// `None` (the default) means no span is ever opened; every site is
    /// guarded by `self.profiler.is_some()`-shaped checks, so the
    /// disabled path costs one branch — the same contract as `trace`.
    profiler: Option<Box<SpanProfiler>>,
    /// Cached `JobSnapshot`s of schedulable jobs (incomplete with pending
    /// tasks), rebuilt lazily when `snapshots_dirty`; offer rounds load
    /// them into `candidates` and maintain that queue per assignment
    /// instead of re-deriving the vector from `jobs` each iteration.
    snapshots: Vec<JobSnapshot>,
    snapshots_dirty: bool,
    /// Jobs whose final phase completed, so `has_unfinished_jobs` is a
    /// comparison with `jobs.len()` instead of a walk over every job.
    completed_jobs: usize,
    /// Task sets that may still unlock a locality level, as `(ready_since,
    /// job, stage)` in ready order (the clock never runs backwards, so
    /// push order is ready order). `next_locality_unlock` visits only
    /// these and drops entries from the front once their last unlock has
    /// passed, so the window spans about `3 × wait` of readiness instead of
    /// every task set of every job.
    unlock_window: VecDeque<(SimTime, JobId, StageId)>,
    /// Per-round memo of "some reservation group approves a non-owner at
    /// this priority", cleared at the start of every offer round; see
    /// `viable_on_reserved`.
    viable_memo: Vec<(Priority, bool)>,
    /// Per-round ApprovalLogic verdicts for classifying traced declines,
    /// kept apart from `viable_memo` so a traced round makes exactly the
    /// counted approval calls of an untraced one.
    approval_memo: ApprovalMemo,
    // Reusable scratch buffers for the offer-round hot path — cleared on
    // use, retained across rounds so steady state allocates nothing.
    candidates: CandidateQueue,
    straggler_jobs_buf: Vec<JobId>,
    straggler_slots_buf: Vec<SlotId>,
    straggler_plans_buf: Vec<(StageId, u32)>,
    spec_free_buf: Vec<SlotId>,
    spec_plans_buf: Vec<(JobId, StageId, u32, SlotId, LocalityLevel)>,
    prereserve_free_buf: Vec<(SlotId, u32)>,
    prereserve_keys_buf: Vec<(JobId, StageId)>,
    /// Candidates the saturated-round filter dropped, reported as
    /// declines once the filter is done (trace path only).
    dropped_buf: Vec<JobId>,
}

impl TaskScheduler {
    /// Creates a scheduler over `cluster` with the given locality model,
    /// reservation policy and job order. A policy with a static pool
    /// (§III-A.1) gets its slots reserved immediately.
    pub fn new(
        cluster: ClusterSpec,
        locality: LocalityModel,
        mut policy: Box<dyn ReservationPolicy>,
        order: Box<dyn JobOrder>,
    ) -> Self {
        let mut slots = SlotPool::new(&cluster);
        if let Some((count, class)) = policy.initial_static_pool(cluster.total_slots()) {
            let pool: Vec<SlotId> = (0..count).map(SlotId::new).collect();
            for &slot in &pool {
                slots
                    .reserve(slot, Reservation::new(crate::policy::STATIC_POOL_JOB, class))
                    .expect("fresh slots are free");
            }
            policy.static_pool_assigned(&pool);
        }
        TaskScheduler {
            spec: cluster,
            slots,
            placement: DataPlacement::new(),
            locality,
            jobs: Jobs::new(),
            running: BTreeMap::new(),
            running_per_job: BTreeMap::new(),
            policy,
            order,
            speculation: None,
            next_job: 0,
            prereserve: BTreeMap::new(),
            trace: None,
            counters: WorkCounters::new(),
            profiler: None,
            snapshots: Vec::new(),
            snapshots_dirty: true,
            completed_jobs: 0,
            unlock_window: VecDeque::new(),
            viable_memo: Vec::new(),
            approval_memo: ApprovalMemo::new(),
            candidates: CandidateQueue::default(),
            straggler_jobs_buf: Vec::new(),
            straggler_slots_buf: Vec::new(),
            straggler_plans_buf: Vec::new(),
            spec_free_buf: Vec::new(),
            spec_plans_buf: Vec::new(),
            prereserve_free_buf: Vec::new(),
            prereserve_keys_buf: Vec::new(),
            dropped_buf: Vec::new(),
        }
    }

    /// Enables status-quo progress-based speculative execution (the
    /// baseline §IV-C is compared against): once `quantile` of a phase has
    /// completed, tasks running beyond `multiplier x median` get an extra
    /// copy on any *free* slot — remote data, cold JVM.
    pub fn with_speculation(mut self, config: SpeculationConfig) -> Self {
        self.speculation = Some(config);
        self
    }

    /// Attaches a decision-trace sink (builder form). See [`set_trace_sink`]
    /// (`TaskScheduler::set_trace_sink`).
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.set_trace_sink(sink);
        self
    }

    /// Attaches a decision-trace sink: every scheduling decision from here
    /// on is reported to it as a [`TraceEvent`]. Replaces any prior sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detaches and returns the trace sink, if one was attached; used to
    /// recover the collected trace after a run.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// `true` while a trace sink is attached.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The deterministic work counters accumulated so far.
    pub fn work_counters(&self) -> &WorkCounters {
        &self.counters
    }

    /// Attaches a wall-clock span profiler: offer rounds, speculation
    /// scans and trace emission are timed from here on. Replaces any
    /// prior profiler. Spans are the non-deterministic plane — see the
    /// two-plane rule in `ssr-perf`.
    pub fn set_span_profiler(&mut self, profiler: Box<SpanProfiler>) {
        self.profiler = Some(profiler);
    }

    /// Detaches and returns the span profiler, if one was attached;
    /// used to recover the aggregated spans after a run.
    pub fn take_span_profiler(&mut self) -> Option<Box<SpanProfiler>> {
        self.profiler.take()
    }

    /// The attached span profiler, if any — the driving loop opens its
    /// own phases (run loop, event dispatch) on the same span stack so
    /// scheduler spans nest under them.
    pub fn span_profiler_mut(&mut self) -> Option<&mut SpanProfiler> {
        self.profiler.as_deref_mut()
    }

    /// Opens a profiler span, if a profiler is attached.
    #[inline]
    fn span_enter(&mut self, name: &str) {
        if let Some(p) = self.profiler.as_mut() {
            p.enter(name);
        }
    }

    /// Closes the innermost profiler span, if a profiler is attached.
    #[inline]
    fn span_exit(&mut self) {
        if let Some(p) = self.profiler.as_mut() {
            p.exit();
        }
    }

    /// Classifies one scratch-buffer recycle: a buffer that kept its
    /// capacity from a prior round is a reuse, one growing from zero is
    /// a fresh allocation.
    #[inline]
    fn note_scratch(&self, capacity: usize) {
        if capacity > 0 {
            self.counters.scratch_reuses.inc();
        } else {
            self.counters.scratch_allocs.inc();
        }
    }

    /// Reports one decision to the attached sink, if any.
    fn emit(&mut self, time: SimTime, kind: TraceEventKind) {
        if self.trace.is_none() {
            return;
        }
        self.span_enter("trace_emit");
        if let Some(sink) = self.trace.as_mut() {
            sink.record(&TraceEvent::new(time, kind));
        }
        self.span_exit();
    }

    /// Admits a job at `now`; its root phases become ready immediately.
    pub fn submit(&mut self, spec: JobSpec, now: SimTime) -> JobId {
        self.submit_weighted(spec, 1.0, now)
    }

    /// Admits a job with a fair-share weight.
    pub fn submit_weighted(&mut self, spec: JobSpec, weight: f64, now: SimTime) -> JobId {
        let id = JobId::new(self.next_job);
        self.next_job += 1;
        let mut state = JobState::new(id, spec, now);
        state.set_weight(weight);
        if self.trace.is_some() {
            let stages = state
                .spec()
                .iter_stage_ids()
                .map(|s| ssr_trace::StageMeta {
                    tasks: state.spec().stage(s).parallelism(),
                    parents: state.spec().parents(s).to_vec(),
                })
                .collect();
            let kind = TraceEventKind::JobSubmitted {
                job: id,
                name: state.spec().name().to_owned(),
                priority: state.priority(),
                stages,
            };
            self.emit(now, kind);
        }
        let roots = state.run().ready_stages();
        for &stage in &roots {
            let parallelism = state.spec().stage(stage).parallelism();
            state.insert_taskset(TaskSetManager::new(id, stage, parallelism, now), now);
        }
        self.jobs.insert(state);
        self.snapshots_dirty = true;
        for &stage in &roots {
            self.track_unlocks(now, id, stage);
        }
        for stage in roots {
            let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
            self.policy.on_stage_ready(&ctx, id, stage);
        }
        id
    }

    /// Runs a resource-offer round at `now`: fills pending
    /// pre-reservations, then assigns tasks to available slots (free, or
    /// reserved and approved) in job order under delay scheduling, and
    /// finally launches straggler copies on reserved-idle slots if the
    /// policy mitigates stragglers.
    pub fn resource_offers(&mut self, now: SimTime) -> Vec<Assignment> {
        self.counters.offer_rounds.inc();
        self.span_enter("offer_round");
        self.fill_prereservations(now);
        let mut assignments = Vec::new();
        // Early exit for a saturated cluster: no free or reserved slot means
        // no assignment can possibly be made this round.
        let (free, running, reserved) = self.slots.counts();
        if self.trace.is_some() {
            self.emit(now, TraceEventKind::OfferRoundStarted { free, running, reserved });
        }
        let mut available = free + reserved;
        if available > 0 {
            if self.snapshots_dirty {
                self.rebuild_snapshots();
            } else {
                self.counters.index_hits.inc();
            }
            self.viable_memo.clear();
            self.approval_memo.clear();
            // Work on a queue loaded from the cached snapshots: candidates
            // drop out as they drain or fail to place, and the served
            // job's running count advances per assignment.
            let mut candidates = std::mem::take(&mut self.candidates);
            self.note_scratch(candidates.capacity());
            candidates.load(&self.snapshots);
            let priority_based = self.policy.approval_is_priority_based();
            if free == 0 && priority_based {
                // No free slot: a job can only place onto a reserved slot
                // it owns or whose group approves its priority. Dropped
                // candidates would fail `try_assign_one` unchanged, and
                // the filter stays valid mid-round — assignments only
                // consume slots (free stays 0, groups only shrink) — so
                // the assignment sequence is identical to the unfiltered
                // round. The filter runs in snapshot (job-id) order, so
                // traced declines keep that order.
                if self.trace.is_some() {
                    let mut dropped = std::mem::take(&mut self.dropped_buf);
                    dropped.clear();
                    candidates.retain(|c| {
                        let viable = self.viable_on_reserved(c.id, c.priority, now);
                        if !viable {
                            dropped.push(c.id);
                        }
                        viable
                    });
                    for &job in &dropped {
                        let (reason, stage) = self.deny_reason(job, now);
                        self.emit(now, TraceEventKind::OfferDeclined { job, reason, stage });
                    }
                    self.dropped_buf = dropped;
                } else {
                    candidates.retain(|c| self.viable_on_reserved(c.id, c.priority, now));
                }
            }
            candidates.sort(self.order.as_ref());
            while available > 0 {
                let Some(best) = candidates.best() else { break };
                let job = best.id;
                // Once the round has used up the free slots, a candidate
                // the memoised viability check rules out would fail
                // `try_assign_one` anyway: skip the per-slot search.
                let ruled_out = priority_based
                    && self.slots.counts().0 == 0
                    && !self.viable_on_reserved(job, best.priority, now);
                let placed = if ruled_out { None } else { self.try_assign_one(job, now) };
                match placed {
                    Some(a) => {
                        if self.trace.is_some() {
                            self.emit(now, launch_event(&a));
                        }
                        assignments.push(a);
                        available -= 1;
                        let drained = self
                            .jobs
                            .get(job)
                            .is_none_or(|state| !state.has_pending_tasks());
                        candidates.assigned(self.order.as_ref(), drained);
                    }
                    None => {
                        if self.trace.is_some() {
                            let (reason, stage) = self.deny_reason(job, now);
                            self.emit(now, TraceEventKind::OfferDeclined { job, reason, stage });
                        }
                        candidates.decline();
                    }
                }
            }
            self.candidates = candidates;
        }
        if self.policy.mitigate_stragglers() {
            self.span_enter("speculation_scan");
            assignments.extend(self.launch_straggler_copies(now));
            self.span_exit();
        }
        if self.speculation.is_some() {
            self.span_enter("speculation_scan");
            assignments.extend(self.launch_progress_speculation(now));
            self.span_exit();
        }
        if !assignments.is_empty() {
            // Launches changed running counts / pending sets.
            self.snapshots_dirty = true;
        }
        if self.trace.is_some() {
            self.emit(now, TraceEventKind::OfferRoundEnded { assignments: assignments.len() });
        }
        self.span_exit();
        assignments
    }

    /// Classifies why a candidate job could not place a task this round
    /// (see [`decline::classify`]). Only called on the trace path; its
    /// ApprovalLogic calls go through `approval_memo` and are not counted.
    fn deny_reason(&mut self, job: JobId, now: SimTime) -> (DenyReason, Option<StageId>) {
        decline::classify(
            &self.slots,
            &self.jobs,
            self.policy.as_ref(),
            job,
            now,
            &mut self.approval_memo,
        )
    }

    /// Re-derives the cached snapshot vector of schedulable jobs.
    fn rebuild_snapshots(&mut self) {
        self.counters.index_rescans.inc();
        self.snapshots.clear();
        let running_per_job = &self.running_per_job;
        self.snapshots.extend(
            self.jobs
                .iter()
                .filter(|j| !j.is_complete() && j.has_pending_tasks())
                .map(|j| JobSnapshot {
                    id: j.id(),
                    priority: j.priority(),
                    arrival: j.submitted_at(),
                    running_slots: running_per_job.get(&j.id()).copied().unwrap_or(0),
                    weight: j.weight(),
                }),
        );
        self.snapshots_dirty = false;
    }

    /// With zero free slots: can `job` possibly place a task at all?
    /// Only if it owns reservations, or some other job's reservation
    /// group approves its priority.
    ///
    /// Under priority-based approval a non-owner's verdict depends only on
    /// its priority and the group's `(owner, priority)`, so for a job
    /// holding no reservation the answer is memoised per priority until
    /// the round ends. Groups only shrink while a round assigns, so a
    /// cached "no" stays exact; a stale "yes" only lets `try_assign_one`
    /// run and decline as it would have without the memo.
    fn viable_on_reserved(&mut self, job: JobId, priority: Priority, now: SimTime) -> bool {
        if self.slots.has_reservations(job) {
            return true;
        }
        if let Some(&(_, viable)) = self.viable_memo.iter().find(|&&(p, _)| p == priority) {
            return viable;
        }
        let viable = self.slots.reservation_groups().any(|(owner, rprio, _)| {
            self.counters.reservation_groups_touched.inc();
            let probe = Reservation::new(owner, rprio);
            let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
            self.counters.approval_calls.inc();
            self.policy.approve(&ctx, &probe, job, priority)
        });
        self.viable_memo.push((priority, viable));
        viable
    }

    /// Finds the best placement for one pending task of `job` and applies
    /// it, or returns `None` if no acceptable slot exists this round.
    fn try_assign_one(&mut self, job: JobId, now: SimTime) -> Option<Assignment> {
        let state = self.jobs.get(job)?;
        let priority = state.priority();
        let mut chosen: Option<(StageId, SlotId, LocalityLevel)> = None;
        for tsm in state.active_tasksets() {
            if !tsm.has_pending() {
                continue;
            }
            let demand = state.spec().stage(tsm.stage()).demand();
            let elapsed = now.saturating_since(tsm.ready_since());
            let allowed = self.locality.max_allowed_level(elapsed);
            if let Some((slot, level)) =
                self.best_candidate(job, priority, tsm, demand, allowed, now)
            {
                chosen = Some((tsm.stage(), slot, level));
                break;
            }
        }
        let (stage, slot, level) = chosen?;
        let tsm = self
            .jobs
            .get_mut(job)
            .expect("job exists")
            .taskset_mut(stage)
            .expect("stage has a task set");
        let instance = tsm.launch_next(slot).expect("stage had a pending task");
        self.slots.assign(slot, instance.task).expect("candidate slot was not running");
        self.running.insert(slot, RunningInstance { instance, started: now, level });
        *self.running_per_job.entry(job).or_insert(0) += 1;
        self.counters.tasks_assigned.inc();
        self.counters.peak_running_instances.high_water(self.running.len() as u64);
        Some(Assignment { slot, instance, level, speculative: false, warm: false })
    }

    /// Ranks candidate slots for one task set from the pool's indexes,
    /// reproducing the full-scan rank exactly: the minimum of
    /// `(locality level, ownership class, slot id)` where class 0 = own
    /// approved reservation, 1 = free, 2 = another job's approved
    /// reservation.
    ///
    /// Free candidates are enumerated level by level from the per-node /
    /// per-rack free lists. No exclusion is needed at the coarser levels:
    /// the search returns at the *first* level with any candidate, so
    /// reaching level L implies no free fitting slot exists at any better
    /// level — a fit check alone suffices. Reserved slots (few, by the
    /// §IV-B design) are ranked in one pass over the reserved index.
    fn best_candidate(
        &self,
        job: JobId,
        priority: Priority,
        tsm: &TaskSetManager,
        demand: u32,
        allowed: LocalityLevel,
        now: SimTime,
    ) -> Option<(SlotId, LocalityLevel)> {
        let preferred = tsm.preferred();
        // Best approved reserved candidate per locality level: (class, id).
        let mut reserved_best: [Option<(u8, SlotId)>; 4] = [None; 4];
        if self.policy.approval_is_priority_based() {
            // Verdicts are uniform per (owner, priority) reservation
            // group: one ApprovalLogic call covers every slot of a group,
            // and the owning job never needs one. Visits the same
            // approved-slot set as the per-slot scan below, so the
            // min-rank result is identical.
            for (owner, rprio, _) in self.slots.reservation_groups() {
                self.counters.reservation_groups_touched.inc();
                let class = if owner == job {
                    0u8
                } else {
                    let probe = Reservation::new(owner, rprio);
                    let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
                    self.counters.approval_calls.inc();
                    if !self.policy.approve(&ctx, &probe, job, priority) {
                        continue;
                    }
                    2u8
                };
                for slot in self.slots.reserved_for(owner) {
                    self.counters.slots_scanned.inc();
                    let r = self.slots.get(slot).reservation().expect("reserved index entry");
                    if r.priority() != rprio {
                        continue;
                    }
                    // §III-C: a task only fits a slot of at least its demand.
                    if self.slots.size(slot) < demand {
                        continue;
                    }
                    let level = tsm.level_on(&self.spec, slot);
                    if level > allowed {
                        continue;
                    }
                    let rank = (class, slot);
                    let entry = &mut reserved_best[level as usize];
                    if entry.is_none_or(|b| rank < b) {
                        *entry = Some(rank);
                    }
                }
            }
        } else {
            for slot in self.slots.reserved_slots() {
                self.counters.slots_scanned.inc();
                // §III-C: a task only fits a slot of at least its demand.
                if self.slots.size(slot) < demand {
                    continue;
                }
                let level = tsm.level_on(&self.spec, slot);
                if level > allowed {
                    continue;
                }
                let r = self.slots.get(slot).reservation().expect("reserved index entry");
                let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
                self.counters.approval_calls.inc();
                if !self.policy.approve(&ctx, r, job, priority) {
                    continue;
                }
                let rank = (if r.job() == job { 0u8 } else { 2u8 }, slot);
                let entry = &mut reserved_best[level as usize];
                if entry.is_none_or(|b| rank < b) {
                    *entry = Some(rank);
                }
            }
        }
        for &level in LocalityLevel::ALL.iter().filter(|&&l| l <= allowed) {
            let free = match level {
                // No preference: every slot is process-local.
                LocalityLevel::ProcessLocal if preferred.is_empty() => {
                    self.min_free_fitting(self.slots.free_slots(), demand)
                }
                // Reads raw slot state, not the free lists, so the
                // out-of-service guard the indexes apply must be repeated
                // here: a crashed slot is Free but must never be offered.
                LocalityLevel::ProcessLocal => preferred
                    .iter()
                    .copied()
                    .inspect(|_| self.counters.slots_scanned.inc())
                    .filter(|&s| {
                        !self.slots.is_offline(s)
                            && self.slots.get(s).is_free()
                            && self.slots.size(s) >= demand
                    })
                    .min(),
                LocalityLevel::NodeLocal => tsm
                    .pref_nodes()
                    .iter()
                    .filter_map(|&n| self.min_free_fitting(self.slots.free_on_node(n), demand))
                    .min(),
                LocalityLevel::RackLocal => tsm
                    .pref_racks()
                    .iter()
                    .filter_map(|&r| self.min_free_fitting(self.slots.free_in_rack(r), demand))
                    .min(),
                LocalityLevel::Any => self.min_free_fitting(self.slots.free_slots(), demand),
            };
            let best = match (reserved_best[level as usize], free) {
                (Some(r), Some(f)) => Some(r.min((1u8, f))),
                (Some(r), None) => Some(r),
                (None, Some(f)) => Some((1u8, f)),
                (None, None) => None,
            };
            if let Some((_, slot)) = best {
                return Some((slot, level));
            }
        }
        None
    }

    /// The minimum free slot of size ≥ `demand` from an ascending
    /// iterator over one of the pool's free lists.
    fn min_free_fitting(
        &self,
        mut iter: impl Iterator<Item = SlotId>,
        demand: u32,
    ) -> Option<SlotId> {
        if self.slots.uniform_size() {
            // Homogeneous cluster: the first slot fits iff any does.
            let first = iter.next();
            if first.is_some() {
                self.counters.slots_scanned.inc();
            }
            return first.filter(|&s| self.slots.size(s) >= demand);
        }
        iter.inspect(|_| self.counters.slots_scanned.inc())
            .find(|&s| self.slots.size(s) >= demand)
    }

    /// §IV-C: for each job whose reserved-idle slots can cover all ongoing
    /// tasks of a phase (with no originals left to launch), runs one extra
    /// copy of each ongoing task on a reserved slot. Copies run on warm
    /// slots that just executed the same phase, so they incur no locality
    /// or cold-JVM penalty.
    fn launch_straggler_copies(&mut self, now: SimTime) -> Vec<Assignment> {
        let mut out = Vec::new();
        // Only jobs actually holding reservations can launch copies; the
        // per-job reservation index lists them in ascending id order, the
        // same relative order the all-jobs scan visited them in.
        let mut job_ids = std::mem::take(&mut self.straggler_jobs_buf);
        self.note_scratch(job_ids.capacity());
        job_ids.clear();
        job_ids.extend(self.slots.reservations_by_job().map(|(j, _)| j));
        let mut remaining = std::mem::take(&mut self.straggler_slots_buf);
        self.note_scratch(remaining.capacity());
        let mut plans = std::mem::take(&mut self.straggler_plans_buf);
        self.note_scratch(plans.capacity());
        for &job in &job_ids {
            remaining.clear();
            remaining.extend(self.slots.reserved_for(job));
            // Skips reservation holders that are not schedulable jobs
            // (the static-pool sentinel).
            let Some(state) = self.jobs.get(job) else { continue };
            plans.clear();
            let mut budget = remaining.len();
            for tsm in state.active_tasksets() {
                if tsm.has_pending() {
                    continue;
                }
                let demand = state.spec().stage(tsm.stage()).demand();
                let fitting =
                    remaining.iter().filter(|&&s| self.slots.size(s) >= demand).count();
                let ongoing = tsm.ongoing_count();
                if ongoing == 0 || fitting < ongoing || budget < ongoing {
                    continue;
                }
                let before = plans.len();
                plans.extend(
                    tsm.copy_candidate_iter()
                        .take(budget)
                        .inspect(|_| self.counters.speculation_candidates_examined.inc())
                        .map(|p| (tsm.stage(), p)),
                );
                budget -= plans.len() - before;
            }
            for &(stage, partition) in &plans {
                let demand = self
                    .jobs
                    .get(job)
                    .expect("job exists")
                    .spec()
                    .stage(stage)
                    .demand();
                let Some(pos) = remaining.iter().position(|&s| {
                    self.slots.size(s) >= demand && !self.slots.get(s).is_running()
                }) else {
                    break;
                };
                let slot = remaining.remove(pos);
                let tsm = self
                    .jobs
                    .get_mut(job)
                    .expect("job exists")
                    .taskset_mut(stage)
                    .expect("stage has a task set");
                let instance = tsm.launch_copy(partition, slot);
                self.slots.assign(slot, instance.task).expect("reserved slot is assignable");
                self.running.insert(
                    slot,
                    RunningInstance { instance, started: now, level: LocalityLevel::ProcessLocal },
                );
                *self.running_per_job.entry(job).or_insert(0) += 1;
                self.counters.tasks_assigned.inc();
                self.counters.peak_running_instances.high_water(self.running.len() as u64);
                let a = Assignment {
                    slot,
                    instance,
                    level: LocalityLevel::ProcessLocal,
                    speculative: true,
                    warm: true,
                };
                if self.trace.is_some() {
                    self.emit(now, launch_event(&a));
                }
                out.push(a);
            }
        }
        self.straggler_jobs_buf = job_ids;
        self.straggler_slots_buf = remaining;
        self.straggler_plans_buf = plans;
        out
    }

    /// Status-quo speculation: copies of slow tasks on free slots, cold.
    fn launch_progress_speculation(&mut self, now: SimTime) -> Vec<Assignment> {
        let Some(cfg) = self.speculation else { return Vec::new() };
        // Plan immutably first: (job, stage, partition, slot, level).
        let mut plans = std::mem::take(&mut self.spec_plans_buf);
        self.note_scratch(plans.capacity());
        plans.clear();
        let mut free = std::mem::take(&mut self.spec_free_buf);
        self.note_scratch(free.capacity());
        free.clear();
        free.extend(self.slots.free_slots());
        for state in self.jobs.iter() {
            if state.is_complete() || free.is_empty() {
                continue;
            }
            for tsm in state.active_tasksets() {
                if tsm.has_pending() {
                    continue;
                }
                let Some(stats) = state.stage_stats(tsm.stage()) else { continue };
                let Some(threshold) = cfg.threshold(stats.durations(), tsm.parallelism())
                else {
                    continue;
                };
                for partition in tsm.copy_candidate_iter() {
                    self.counters.speculation_candidates_examined.inc();
                    let Some((instance, running_slot)) = tsm.sole_running_instance(partition)
                    else {
                        continue;
                    };
                    let Some(ri) = self.running.get(&running_slot) else { continue };
                    debug_assert_eq!(ri.instance, instance);
                    let elapsed = now.saturating_since(ri.started).as_secs_f64();
                    if elapsed <= threshold {
                        continue;
                    }
                    let demand = state.spec().stage(tsm.stage()).demand();
                    let Some(pos) = free.iter().position(|&s| self.slots.size(s) >= demand)
                    else {
                        continue;
                    };
                    let slot = free.remove(pos);
                    let level = tsm.level_on(&self.spec, slot);
                    plans.push((state.id(), tsm.stage(), partition, slot, level));
                }
            }
        }
        let mut out = Vec::new();
        for &(job, stage, partition, slot, level) in &plans {
            let tsm = self
                .jobs
                .get_mut(job)
                .expect("job exists")
                .taskset_mut(stage)
                .expect("stage has a task set");
            let instance = tsm.launch_copy(partition, slot);
            self.slots.assign(slot, instance.task).expect("free slot is assignable");
            self.running.insert(slot, RunningInstance { instance, started: now, level });
            *self.running_per_job.entry(job).or_insert(0) += 1;
            self.counters.tasks_assigned.inc();
            self.counters.peak_running_instances.high_water(self.running.len() as u64);
            let a = Assignment { slot, instance, level, speculative: true, warm: false };
            if self.trace.is_some() {
                self.emit(now, launch_event(&a));
            }
            out.push(a);
        }
        self.spec_plans_buf = plans;
        self.spec_free_buf = free;
        out
    }

    /// Processes the completion of the task instance running on `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no running instance — the simulator must
    /// cancel finish events of killed copies.
    pub fn task_finished(&mut self, slot: SlotId, now: SimTime) -> FinishOutcome {
        let ri = self
            .running
            .remove(&slot)
            .unwrap_or_else(|| panic!("task_finished on {slot} with no running instance"));
        let task = ri.instance.task;
        // Running counts, pending sets and completion states all change
        // here: the cached job snapshots are stale.
        self.snapshots_dirty = true;
        self.slots.finish(slot).expect("slot was running");
        self.dec_running(task.job);
        let duration = now.saturating_since(ri.started);
        if self.trace.is_some() {
            self.emit(
                now,
                TraceEventKind::TaskFinished {
                    slot: slot.as_u32(),
                    job: task.job,
                    stage: task.stage,
                    partition: task.partition,
                    attempt: ri.instance.attempt,
                    duration_secs: duration.as_secs_f64(),
                },
            );
        }

        let state = self.jobs.get_mut(task.job).expect("job exists");
        state.stats_mut(task.stage).record_duration(duration.as_secs_f64());
        let outcome = state
            .taskset_mut(task.stage)
            .expect("stage has a task set")
            .instance_finished(ri.instance);
        debug_assert!(outcome.first_finish, "losers are killed, not finished");

        // Kill losing copies of the same partition.
        let mut killed = Vec::new();
        for (_, loser_slot) in &outcome.losers {
            self.slots.finish(*loser_slot).expect("loser was running");
            self.running.remove(loser_slot);
            self.dec_running(task.job);
            if self.trace.is_some() {
                self.emit(
                    now,
                    TraceEventKind::CopyKilled {
                        slot: loser_slot.as_u32(),
                        job: task.job,
                        stage: task.stage,
                        partition: task.partition,
                    },
                );
            }
            killed.push(*loser_slot);
        }

        // The winner's slot now holds the partition's output (and a warm
        // JVM for this job).
        self.placement.record(task.job, task.stage, task.partition, slot);

        // Clear the barrier bookkeeping.
        let mut newly_ready = Vec::new();
        if outcome.first_finish {
            newly_ready =
                self.jobs.get_mut(task.job).expect("job exists").run_mut().on_task_completed(task.stage);
        }
        for &ready_stage in &newly_ready {
            if self.trace.is_some() {
                self.emit(
                    now,
                    TraceEventKind::BarrierCleared { job: task.job, stage: ready_stage },
                );
            }
            let state = self.jobs.get(task.job).expect("job exists");
            let parents = state.spec().parents(ready_stage).to_vec();
            let parallelism = state.spec().stage(ready_stage).parallelism();
            let preferred = self.placement.preferred_slots(task.job, &parents);
            let tsm = TaskSetManager::new(task.job, ready_stage, parallelism, now)
                .with_preferred(preferred, &self.spec);
            self.jobs.get_mut(task.job).expect("job exists").insert_taskset(tsm, now);
            self.track_unlocks(now, task.job, ready_stage);
            // The phase has started: stop pre-reserving for it.
            self.prereserve.remove(&(task.job, ready_stage));
        }

        let state = self.jobs.get(task.job).expect("job exists");
        let stage_completed =
            state.taskset(task.stage).expect("stage has a task set").is_complete();
        let job_completed = state.run().is_complete();

        if stage_completed {
            if self.trace.is_some() {
                self.emit(now, TraceEventKind::StageCompleted { job: task.job, stage: task.stage });
            }
            self.jobs
                .get_mut(task.job)
                .expect("job exists")
                .stats_mut(task.stage)
                .mark_completed(now);
            // Reservations that were held *for* this phase are now stale.
            // The per-job index yields ascending slot ids, like the old
            // full scan.
            let stale: Vec<SlotId> = self
                .slots
                .reserved_for(task.job)
                .filter(|&s| {
                    self.slots
                        .get(s)
                        .reservation()
                        .is_some_and(|r| r.stage() == Some(task.stage))
                })
                .collect();
            for s in stale {
                self.slots.release(s).expect("stale reservation is releasable");
                if self.trace.is_some() {
                    self.emit(
                        now,
                        TraceEventKind::StaleReservationReleased {
                            slot: s.as_u32(),
                            job: task.job,
                            stage: task.stage,
                        },
                    );
                }
            }
            self.prereserve.remove(&(task.job, task.stage));
        }

        if job_completed {
            if self.trace.is_some() {
                self.emit(now, TraceEventKind::JobCompleted { job: task.job });
            }
            self.jobs.get_mut(task.job).expect("job exists").mark_complete(now);
            self.completed_jobs += 1;
            let freed = self.slots.release_job_reservations(task.job);
            if self.trace.is_some() {
                for s in freed {
                    self.emit(
                        now,
                        TraceEventKind::ReservationReleased { slot: s.as_u32(), job: task.job },
                    );
                }
            }
            self.placement.clear_job(task.job);
            self.prereserve.retain(|(j, _), _| *j != task.job);
            let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
            self.policy.on_job_completed(&ctx, task.job);
        } else {
            // Algorithm 1 HandleTaskCompletion: the policy decides the fate
            // of the winner's slot and of every killed copy's slot.
            for s in std::iter::once(slot).chain(killed.iter().copied()) {
                // A slot that went offline mid-run (a partition survivor
                // finishing out of service) cannot be handed back to the
                // policy: it takes no reservation until it heals.
                if self.slots.is_offline(s) {
                    continue;
                }
                let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
                match self.policy.on_task_completed(&ctx, task, s) {
                    SlotDisposition::Release => {}
                    SlotDisposition::Reserve(r) => {
                        self.slots.reserve(s, r).expect("freed slot is reservable");
                        if self.trace.is_some() {
                            self.emit(
                                now,
                                TraceEventKind::ReservationGranted {
                                    slot: s.as_u32(),
                                    job: r.job(),
                                    priority: r.priority(),
                                    stage: r.stage(),
                                    deadline_secs: r.deadline().map(|d| d.as_secs_f64()),
                                },
                            );
                        }
                    }
                }
            }
            for &ready_stage in &newly_ready {
                let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
                self.policy.on_stage_ready(&ctx, task.job, ready_stage);
            }
            // Algorithm 1 lines 14-17: pre-reservation for a wider
            // downstream phase.
            let ctx = PolicyCtx { now, slots: &self.slots, jobs: &self.jobs };
            if let Some(req) = self.policy.prereserve(&ctx, task) {
                if req.extra > 0 {
                    let entry = self
                        .prereserve
                        .entry((req.job, req.stage))
                        .or_insert(PendingPrereserve {
                            target: 0,
                            granted: 0,
                            priority: req.priority,
                            deadline: req.deadline,
                            min_size: req.min_size,
                        });
                    entry.target = entry.target.max(req.extra);
                    entry.priority = req.priority;
                    entry.deadline = req.deadline;
                    entry.min_size = req.min_size;
                }
            }
        }
        self.fill_prereservations(now);

        FinishOutcome {
            instance: ri.instance,
            duration,
            newly_ready,
            killed,
            stage_completed,
            job_completed,
        }
    }

    fn dec_running(&mut self, job: JobId) {
        if let Some(c) = self.running_per_job.get_mut(&job) {
            *c = c.saturating_sub(1);
            // Drop the entry once the count reaches zero so the map holds
            // only jobs with running tasks and drained or completed jobs
            // do not accumulate in it.
            if *c == 0 {
                self.running_per_job.remove(&job);
            }
        }
    }

    /// Grants pending pre-reservations from currently free slots.
    ///
    /// Requests are served highest priority first (deadline, then job id
    /// and stage id as tie-breaks) — *not* in `(JobId, StageId)` map-key
    /// order, which would let an older (smaller-id) low-priority job grab
    /// free slots ahead of a higher-priority job's pending request. See
    /// [`crate::policy::PreReserveRequest`] for the contract.
    fn fill_prereservations(&mut self, now: SimTime) {
        if self.prereserve.is_empty() {
            return;
        }
        let mut free = std::mem::take(&mut self.prereserve_free_buf);
        self.note_scratch(free.capacity());
        free.clear();
        free.extend(self.slots.free_slots().map(|s| (s, self.slots.size(s))));
        let mut keys = std::mem::take(&mut self.prereserve_keys_buf);
        self.note_scratch(keys.capacity());
        keys.clear();
        keys.extend(self.prereserve.keys().copied());
        let prereserve = &self.prereserve;
        keys.sort_by_key(|key| {
            let e = prereserve.get(key).expect("key just listed");
            // Highest priority first; among equals, earliest deadline
            // (requests without a deadline last), then (job, stage) id.
            (std::cmp::Reverse(e.priority), e.deadline.is_none(), e.deadline, key.0, key.1)
        });
        for &key in &keys {
            let entry = *self.prereserve.get(&key).expect("key just listed");
            let mut granted = entry.granted;
            while granted < entry.target {
                // §III-C: pre-reserved slots must be of the right size.
                let Some(pos) = free.iter().position(|&(_, size)| size >= entry.min_size)
                else {
                    break;
                };
                let (slot, _) = free.remove(pos);
                let mut r = Reservation::new(key.0, entry.priority).with_stage(key.1);
                if let Some(d) = entry.deadline {
                    r = r.with_deadline(d);
                }
                self.slots.reserve(slot, r).expect("free slot is reservable");
                if self.trace.is_some() {
                    self.emit(
                        now,
                        TraceEventKind::PrereserveFilled {
                            slot: slot.as_u32(),
                            job: key.0,
                            stage: key.1,
                            priority: entry.priority,
                            deadline_secs: entry.deadline.map(|d| d.as_secs_f64()),
                        },
                    );
                }
                granted += 1;
            }
            self.prereserve.get_mut(&key).expect("key just listed").granted = granted;
        }
        self.prereserve_free_buf = free;
        self.prereserve_keys_buf = keys;
    }

    /// Releases reservations whose deadline has passed; returns freed
    /// slots.
    pub fn expire_reservations(&mut self, now: SimTime) -> Vec<SlotId> {
        if self.trace.is_none() {
            return self.slots.expire_reservations(now);
        }
        let mut expired: Vec<(SlotId, JobId)> = Vec::new();
        let freed = self
            .slots
            .expire_reservations_with(now, |slot, r| expired.push((slot, r.job())));
        for (slot, job) in expired {
            self.emit(now, TraceEventKind::ReservationExpired { slot: slot.as_u32(), job });
        }
        freed
    }

    /// Takes `failed` slots out of service at `now` (fault injection).
    ///
    /// For each slot not already offline, in order: with `kill_running`,
    /// any running instance is killed (`task-crashed`) and its partition
    /// re-queued unless a sibling copy survives; an idle reservation is
    /// forcibly revoked (`reservation-revoked`); finally the slot leaves
    /// the pool (`slot-offline`) and stops receiving offers and
    /// pre-reservation fills until [`restore_slots`]. Without
    /// `kill_running` (network partition) running instances survive and
    /// may finish out of service. The caller must cancel pending finish
    /// events for every returned `killed` slot.
    ///
    /// [`restore_slots`]: TaskScheduler::restore_slots
    pub fn fail_slots(
        &mut self,
        failed: &[SlotId],
        now: SimTime,
        kill_running: bool,
        cause: &'static str,
    ) -> FailureOutcome {
        let mut outcome = FailureOutcome::default();
        for &slot in failed {
            if self.slots.is_offline(slot) {
                continue;
            }
            if kill_running {
                if let Some(ri) = self.running.remove(&slot) {
                    let task = ri.instance.task;
                    // Invariant: a slot in `self.running` is Busy in the
                    // pool and its instance belongs to a registered
                    // job/stage. A violation would be internal index
                    // corruption — a fault event must not escalate it
                    // into a panic, so release builds degrade to
                    // skipping the broken bookkeeping (P001).
                    let freed = self.slots.finish(slot);
                    debug_assert!(freed.is_ok(), "tracked instance occupies a busy slot");
                    self.dec_running(task.job);
                    let taskset = self
                        .jobs
                        .get_mut(task.job)
                        .and_then(|job| job.taskset_mut(task.stage));
                    debug_assert!(taskset.is_some(), "running instance has a task set");
                    let requeued =
                        taskset.is_some_and(|ts| ts.instance_crashed(ri.instance));
                    // Pending sets and running counts changed: the cached
                    // job snapshots are stale.
                    self.snapshots_dirty = true;
                    if self.trace.is_some() {
                        self.emit(
                            now,
                            TraceEventKind::TaskCrashed {
                                slot: slot.as_u32(),
                                job: task.job,
                                stage: task.stage,
                                partition: task.partition,
                                attempt: ri.instance.attempt,
                                requeued,
                            },
                        );
                    }
                    outcome.killed.push(slot);
                }
            }
            if let Some(r) = self.slots.take_offline(slot) {
                outcome.revoked.push(slot);
                if self.trace.is_some() {
                    self.emit(
                        now,
                        TraceEventKind::ReservationRevoked { slot: slot.as_u32(), job: r.job() },
                    );
                }
            }
            if self.trace.is_some() {
                self.emit(now, TraceEventKind::SlotOffline { slot: slot.as_u32(), cause });
            }
        }
        outcome
    }

    /// Returns `restored` slots to service after a fault heals; freed slots
    /// rejoin the offer pool immediately, partition survivors when their
    /// task finishes. Slots that were never offline are skipped.
    pub fn restore_slots(&mut self, restored: &[SlotId], now: SimTime) {
        for &slot in restored {
            if self.slots.bring_online(slot) && self.trace.is_some() {
                self.emit(now, TraceEventKind::SlotOnline { slot: slot.as_u32() });
            }
        }
    }

    /// Reports a delay-scheduling unlock wakeup to the trace. Called by the
    /// driving simulator when its locality-unlock event fires, just before
    /// the offer round it triggers; a no-op without a sink.
    pub fn trace_locality_unlock(&mut self, now: SimTime) {
        if self.trace.is_some() {
            self.emit(now, TraceEventKind::LocalityUnlocked);
        }
    }

    /// The earliest reservation deadline currently pending, for event
    /// scheduling.
    pub fn next_reservation_expiry(&self) -> Option<SimTime> {
        self.slots.next_deadline()
    }

    /// The earliest future instant at which some pending task unlocks a
    /// more relaxed locality level (delay scheduling), for event
    /// scheduling.
    ///
    /// Visits only the task sets that became ready recently enough to
    /// unlock again, and forgets those whose last unlock is behind `now`,
    /// so `now` must not decrease between calls (a simulator's clock
    /// never does).
    pub fn next_locality_unlock(&mut self, now: SimTime) -> Option<SimTime> {
        self.prune_unlock_window(now);
        let mut next: Option<SimTime> = None;
        for &(ready, job, stage) in &self.unlock_window {
            let Some(state) = self.jobs.get(job).filter(|j| !j.is_complete()) else {
                continue;
            };
            if !state.active_taskset(stage).is_some_and(TaskSetManager::has_pending) {
                continue;
            }
            if let Some(unlock) = self.locality.next_unlock_after(now.saturating_since(ready)) {
                let at = ready + unlock;
                next = Some(next.map_or(at, |n| n.min(at)));
            }
        }
        next
    }

    /// Enters a task set that became ready at `now` into the unlock
    /// window, first dropping entries with no unlock left, so the window
    /// stays bounded even if `next_locality_unlock` is never called.
    fn track_unlocks(&mut self, now: SimTime, job: JobId, stage: StageId) {
        self.prune_unlock_window(now);
        self.unlock_window.push_back((now, job, stage));
    }

    /// Drops window entries, oldest first, whose last locality unlock is
    /// at or before `now`.
    fn prune_unlock_window(&mut self, now: SimTime) {
        while let Some(&(ready, _, _)) = self.unlock_window.front() {
            if self.locality.next_unlock_after(now.saturating_since(ready)).is_some() {
                break;
            }
            self.unlock_window.pop_front();
        }
    }

    /// The cluster topology.
    pub fn cluster_spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The locality model in force.
    pub fn locality(&self) -> &LocalityModel {
        &self.locality
    }

    /// The slot pool (states, reservations and indexes).
    pub fn slot_pool(&self) -> &SlotPool {
        &self.slots
    }

    /// All admitted jobs.
    pub fn jobs(&self) -> &Jobs {
        &self.jobs
    }

    /// The data-placement map.
    pub fn placement(&self) -> &DataPlacement {
        &self.placement
    }

    /// Slots currently running tasks of `job`.
    pub fn running_count_for(&self, job: JobId) -> usize {
        self.running_per_job.get(&job).copied().unwrap_or(0)
    }

    /// Iterate over `(slot, running instance)` pairs.
    pub fn running_instances(&self) -> impl Iterator<Item = (SlotId, &RunningInstance)> {
        self.running.iter().map(|(s, r)| (*s, r))
    }

    /// `true` while some admitted job is incomplete.
    pub fn has_unfinished_jobs(&self) -> bool {
        self.completed_jobs < self.jobs.len()
    }

    /// The reservation policy's name (for reports).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The job order's name (for reports).
    pub fn order_name(&self) -> &'static str {
        self.order.name()
    }
}

/// Lowers an [`Assignment`] into its trace event.
fn launch_event(a: &Assignment) -> TraceEventKind {
    TraceEventKind::TaskLaunched {
        slot: a.slot.as_u32(),
        job: a.instance.task.job,
        stage: a.instance.task.stage,
        partition: a.instance.task.partition,
        attempt: a.instance.attempt,
        level: level_str(a.level),
        speculative: a.speculative,
        warm: a.warm,
    }
}

/// The locality level's stable identifier for the trace schema (matches the
/// `Display` impl in `ssr-cluster`).
fn level_str(level: LocalityLevel) -> &'static str {
    match level {
        LocalityLevel::ProcessLocal => "PROCESS_LOCAL",
        LocalityLevel::NodeLocal => "NODE_LOCAL",
        LocalityLevel::RackLocal => "RACK_LOCAL",
        LocalityLevel::Any => "ANY",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{Fair, FifoPriority};
    use crate::policy::{StaticReservation, TimeoutReservation, WorkConserving};
    use ssr_dag::JobSpecBuilder;
    use ssr_simcore::dist::constant;
    use ssr_simcore::SimDuration;

    fn scheduler(nodes: u32, slots_per_node: u32) -> TaskScheduler {
        TaskScheduler::new(
            ClusterSpec::new(nodes, slots_per_node).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        )
    }

    fn one_stage_job(name: &str, parallelism: u32, priority: i32) -> JobSpec {
        JobSpecBuilder::new(name)
            .priority(Priority::new(priority))
            .stage("only", parallelism, constant(1.0))
            .build()
            .unwrap()
    }

    fn two_stage_job(name: &str, parallelism: u32, priority: i32) -> JobSpec {
        JobSpecBuilder::new(name)
            .priority(Priority::new(priority))
            .stage("up", parallelism, constant(1.0))
            .stage("down", parallelism, constant(1.0))
            .chain()
            .build()
            .unwrap()
    }

    #[test]
    fn assigns_all_tasks_up_to_capacity() {
        let mut s = scheduler(2, 2);
        let job = s.submit(one_stage_job("j", 6, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 4); // only 4 slots
        assert_eq!(s.running_count_for(job), 4);
        assert_eq!(s.jobs().get(job).unwrap().taskset(StageId::new(0)).unwrap().pending_count(), 2);
        // No double assignment on re-offer.
        assert!(s.resource_offers(SimTime::ZERO).is_empty());
    }

    #[test]
    fn priority_job_gets_slots_first() {
        let mut s = scheduler(1, 2);
        let low = s.submit(one_stage_job("low", 2, 0), SimTime::ZERO);
        let high = s.submit(one_stage_job("high", 2, 10), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|x| x.instance.task.job == high));
        assert_eq!(s.running_count_for(low), 0);
    }

    #[test]
    fn full_pipeline_runs_to_completion() {
        let mut s = scheduler(1, 2);
        let job = s.submit(two_stage_job("p", 2, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 2);
        let t1 = SimTime::from_secs(1);
        let o1 = s.task_finished(a[0].slot, t1);
        assert!(!o1.stage_completed);
        assert!(o1.newly_ready.is_empty());
        let o2 = s.task_finished(a[1].slot, t1);
        assert!(o2.stage_completed);
        assert_eq!(o2.newly_ready, vec![StageId::new(1)]);

        let b = s.resource_offers(t1);
        assert_eq!(b.len(), 2);
        let t2 = SimTime::from_secs(2);
        s.task_finished(b[0].slot, t2);
        let done = s.task_finished(b[1].slot, t2);
        assert!(done.job_completed);
        assert!(!s.has_unfinished_jobs());
        assert_eq!(s.jobs().get(job).unwrap().completed_at(), Some(t2));
    }

    #[test]
    fn work_conserving_gives_freed_slots_to_backlog() {
        // The §II-B failure mode: a high-priority two-phase job loses its
        // freed slot to a backlogged low-priority job at the barrier.
        let mut s = scheduler(1, 2);
        let high = s.submit(two_stage_job("fg", 2, 10), SimTime::ZERO);
        let low = s.submit(one_stage_job("bg", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert!(a.iter().all(|x| x.instance.task.job == high));
        // First foreground task finishes; barrier still holds.
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        let b = s.resource_offers(SimTime::from_secs(1));
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].instance.task.job, low, "work conservation hands the slot to bg");
    }

    #[test]
    fn timeout_reservation_holds_slot_from_lower_priority() {
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 2).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(TimeoutReservation::new(SimDuration::from_secs(30))),
            Box::new(FifoPriority),
        );
        let high = s.submit(two_stage_job("fg", 2, 10), SimTime::ZERO);
        let low = s.submit(one_stage_job("bg", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert!(a.iter().all(|x| x.instance.task.job == high));
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        // Slot is reserved for the foreground job; background is refused.
        let b = s.resource_offers(SimTime::from_secs(1));
        assert!(b.is_empty(), "reservation must block the background job, got {b:?}");
        let (_, _, reserved) = s.slot_pool().counts();
        assert_eq!(reserved, 1);
        // After expiry the slot goes to the background job.
        assert_eq!(s.next_reservation_expiry(), Some(SimTime::from_secs(31)));
        let freed = s.expire_reservations(SimTime::from_secs(31));
        assert_eq!(freed.len(), 1);
        let c = s.resource_offers(SimTime::from_secs(31));
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].instance.task.job, low);
    }

    #[test]
    fn static_pool_reserved_at_start_and_restored() {
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 4).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(StaticReservation::new(2, Priority::new(10))),
            Box::new(FifoPriority),
        );
        let (_, _, reserved) = s.slot_pool().counts();
        assert_eq!(reserved, 2);
        // A low-priority job can only use the 2 unreserved slots.
        let low = s.submit(one_stage_job("bg", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 2);
        // A class job may use the pool.
        let high = s.submit(one_stage_job("fg", 2, 10), SimTime::ZERO);
        let b = s.resource_offers(SimTime::ZERO);
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|x| x.instance.task.job == high));
        // Pool slots are re-reserved after the class task finishes.
        s.task_finished(b[0].slot, SimTime::from_secs(1));
        let (_, _, reserved) = s.slot_pool().counts();
        assert_eq!(reserved, 1);
        let _ = (low, high);
    }

    #[test]
    fn fair_order_splits_slots() {
        let mut s = TaskScheduler::new(
            ClusterSpec::new(2, 2).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(WorkConserving),
            Box::new(Fair),
        );
        let j1 = s.submit(one_stage_job("a", 4, 0), SimTime::ZERO);
        let j2 = s.submit(one_stage_job("b", 4, 0), SimTime::ZERO);
        s.resource_offers(SimTime::ZERO);
        assert_eq!(s.running_count_for(j1), 2);
        assert_eq!(s.running_count_for(j2), 2);
    }

    #[test]
    fn delay_scheduling_blocks_remote_slots_until_wait() {
        // 2 nodes x 1 slot; downstream prefers the slot its upstream ran
        // on. Make the other slot the only one available.
        let mut s = TaskScheduler::new(
            ClusterSpec::new(2, 1).unwrap(),
            LocalityModel::fixed(SimDuration::from_secs(3), 1.0, 1.0, 1.0, 5.0),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        );
        let fg = s.submit(
            JobSpecBuilder::new("fg")
                .priority(Priority::new(10))
                .stage("up", 1, constant(1.0))
                .stage("down", 1, constant(1.0))
                .chain()
                .build()
                .unwrap(),
            SimTime::ZERO,
        );
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 1);
        let up_slot = a[0].slot;
        // Occupy the upstream slot with a background task before the
        // barrier clears.
        let bg = s.submit(one_stage_job("bg", 1, 0), SimTime::ZERO);
        let b = s.resource_offers(SimTime::ZERO);
        assert_eq!(b.len(), 1);
        assert_ne!(b[0].slot, up_slot);
        let bg_slot = b[0].slot;
        // Upstream finishes at t=1; downstream becomes ready but its
        // preferred slot is free... actually up_slot is freed; downstream
        // prefers up_slot and takes it immediately at PROCESS_LOCAL.
        let o = s.task_finished(up_slot, SimTime::from_secs(1));
        assert!(o.stage_completed);
        let c = s.resource_offers(SimTime::from_secs(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].slot, up_slot);
        assert_eq!(c[0].level, LocalityLevel::ProcessLocal);
        let _ = (fg, bg, bg_slot);
    }

    #[test]
    fn delay_scheduling_waits_when_preferred_slot_is_taken() {
        let mut s = TaskScheduler::new(
            ClusterSpec::new(2, 1).unwrap(),
            LocalityModel::fixed(SimDuration::from_secs(3), 1.0, 1.0, 1.0, 5.0),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        );
        let fg = s.submit(
            JobSpecBuilder::new("fg")
                .priority(Priority::new(10))
                .stage("up", 1, constant(1.0))
                .stage("down", 1, constant(1.0))
                .chain()
                .build()
                .unwrap(),
            SimTime::ZERO,
        );
        let a = s.resource_offers(SimTime::ZERO);
        let up_slot = a[0].slot;
        // Upstream finishes; in the same instant a long bg job grabs the
        // freed preferred slot (work conserving, bg submitted earlier in
        // the offer round via lower priority? ensure ordering: bg offered
        // after fg has nothing pending at that moment).
        s.task_finished(up_slot, SimTime::from_secs(1));
        // Downstream is ready and wants up_slot, and it is free, so it is
        // taken immediately. Instead simulate the bad case: bg occupies
        // up_slot first because downstream had not yet been submitted...
        // Here we test the wait mechanics directly: occupy up_slot with bg.
        let bg = s.submit(one_stage_job("bg", 2, 20), SimTime::from_secs(1));
        let b = s.resource_offers(SimTime::from_secs(1));
        // bg (higher priority here) takes both slots including up_slot.
        assert_eq!(b.len(), 2);
        // fg-downstream now pends; its preferred slot is busy. The other
        // slot frees at t=2 but delay scheduling refuses it until
        // ready_since + 3s = 4s.
        let other = b.iter().find(|x| x.slot != up_slot).unwrap().slot;
        s.task_finished(other, SimTime::from_secs(2));
        let c = s.resource_offers(SimTime::from_secs(2));
        assert!(c.is_empty(), "ANY-level slot must be refused during locality wait");
        assert_eq!(s.next_locality_unlock(SimTime::from_secs(2)), Some(SimTime::from_secs(4)));
        // After one wait period NODE_LOCAL unlocks (still not enough: the
        // free slot is on another node => ANY). After 3 periods it is
        // accepted.
        let d = s.resource_offers(SimTime::from_secs(4));
        assert!(d.is_empty());
        let e = s.resource_offers(SimTime::from_secs(10));
        assert_eq!(e.len(), 1);
        // Both nodes share the single default rack, so the foreign slot is
        // RACK_LOCAL.
        assert_eq!(e[0].level, LocalityLevel::RackLocal);
        let _ = (fg, bg);
    }

    #[test]
    fn finish_records_stage_stats() {
        let mut s = scheduler(1, 2);
        let job = s.submit(one_stage_job("j", 2, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        s.task_finished(a[0].slot, SimTime::from_secs(3));
        s.task_finished(a[1].slot, SimTime::from_secs(5));
        let stats = s.jobs().get(job).unwrap().stage_stats(StageId::new(0)).unwrap();
        assert_eq!(stats.first_duration(), Some(3.0));
        assert_eq!(stats.durations(), &[3.0, 5.0]);
        assert_eq!(stats.completed_at(), Some(SimTime::from_secs(5)));
    }

    #[test]
    #[should_panic(expected = "no running instance")]
    fn finish_on_idle_slot_panics() {
        let mut s = scheduler(1, 1);
        s.task_finished(SlotId::new(0), SimTime::ZERO);
    }

    #[test]
    fn demand_excludes_small_slots() {
        // 4 slots, slot 0 large (size 4); a stage demanding 4 may only
        // run on slot 0 — one task at a time.
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 4).unwrap().with_slot_sizing(1, 4, 4),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        );
        let job = ssr_dag::JobSpecBuilder::new("fat")
            .stage_spec(
                ssr_dag::StageSpec::new("only", 3, constant(1.0)).with_demand(4),
            )
            .build()
            .unwrap();
        s.submit(job, SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 1, "only the large slot fits");
        assert_eq!(a[0].slot, SlotId::new(0));
        // The small slots stay free even though tasks are pending.
        assert_eq!(s.slot_pool().free_slots().count(), 3);
        // Serial execution through the single large slot.
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        let b = s.resource_offers(SimTime::from_secs(1));
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].slot, SlotId::new(0));
    }

    #[test]
    fn progress_speculation_copies_slow_tasks_cold() {
        use crate::speculation::SpeculationConfig;
        let mut s = TaskScheduler::new(
            ClusterSpec::new(2, 4).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        )
        .with_speculation(SpeculationConfig::spark_defaults());
        let job = s.submit(one_stage_job("j", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 4);
        // 3 of 4 tasks finish quickly (median 2 s); the 4th lingers.
        for slot in [a[0].slot, a[1].slot, a[2].slot] {
            s.task_finished(slot, SimTime::from_secs(2));
        }
        // Below the 1.5 x median threshold: no copy yet.
        let none = s.resource_offers(SimTime::from_secs(2));
        assert!(none.is_empty());
        // Past the threshold (elapsed 4 > 3): one cold copy on a free slot.
        let copies = s.resource_offers(SimTime::from_secs(4));
        assert_eq!(copies.len(), 1);
        assert!(copies[0].speculative);
        assert!(!copies[0].warm, "status-quo copies are cold");
        assert_eq!(copies[0].instance.task.job, job);
        assert_eq!(copies[0].instance.attempt, 1);
        // No second copy of the same partition.
        assert!(s.resource_offers(SimTime::from_secs(5)).is_empty());
        // Copy wins; the original is killed.
        let out = s.task_finished(copies[0].slot, SimTime::from_secs(6));
        assert_eq!(out.killed.len(), 1);
        assert!(out.job_completed);
    }

    #[test]
    fn progress_speculation_needs_quantile() {
        use crate::speculation::SpeculationConfig;
        let mut s = TaskScheduler::new(
            ClusterSpec::new(2, 4).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(WorkConserving),
            Box::new(FifoPriority),
        )
        .with_speculation(SpeculationConfig::spark_defaults());
        s.submit(one_stage_job("j", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        // Only half the phase completed: below the 0.75 quantile.
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        s.task_finished(a[1].slot, SimTime::from_secs(1));
        assert!(s.resource_offers(SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn placement_prefers_upstream_slots() {
        let mut s = scheduler(1, 4);
        let job = s.submit(two_stage_job("p", 2, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        let slots_used: Vec<SlotId> = a.iter().map(|x| x.slot).collect();
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        s.task_finished(a[1].slot, SimTime::from_secs(1));
        let state = s.jobs().get(job).unwrap();
        let tsm = state.taskset(StageId::new(1)).unwrap();
        for slot in slots_used {
            assert!(tsm.preferred().contains(&slot));
        }
    }

    /// Test policy that releases every slot and pre-reserves aggressively
    /// for the downstream phase (stage 1) at the job's own priority —
    /// minimal surface to exercise `fill_prereservations` contention.
    #[derive(Debug)]
    struct GreedyPrereserve;

    impl ReservationPolicy for GreedyPrereserve {
        fn name(&self) -> &'static str {
            "greedy-prereserve"
        }

        fn on_task_completed(
            &mut self,
            _ctx: &PolicyCtx<'_>,
            _task: ssr_dag::TaskId,
            _slot: SlotId,
        ) -> SlotDisposition {
            SlotDisposition::Release
        }

        fn prereserve(
            &mut self,
            ctx: &PolicyCtx<'_>,
            task: ssr_dag::TaskId,
        ) -> Option<crate::policy::PreReserveRequest> {
            let priority = ctx.jobs.get(task.job)?.priority();
            Some(crate::policy::PreReserveRequest {
                job: task.job,
                stage: StageId::new(1),
                priority,
                extra: 4,
                deadline: None,
                min_size: 1,
            })
        }
    }

    #[test]
    fn prereservations_fill_in_priority_order() {
        // Regression: `fill_prereservations` used to walk pending requests
        // in `(JobId, StageId)` key order, letting an older low-priority
        // job grab the only free slot ahead of a high-priority job's
        // pending pre-reservation.
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 4).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(GreedyPrereserve),
            Box::new(FifoPriority),
        );
        // Submission order gives `low` the smaller JobId.
        let low = s.submit(two_stage_job("low", 2, 0), SimTime::ZERO);
        let high = s.submit(two_stage_job("high", 2, 10), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 4, "both up-phases saturate the cluster");

        // One `low` up-task finishes: its freed slot immediately serves
        // low's own pre-reservation (the only pending request).
        let low_slot =
            a.iter().find(|x| x.instance.task.job == low).unwrap().slot;
        s.task_finished(low_slot, SimTime::from_secs(1));
        assert_eq!(s.slot_pool().reserved_for(low).count(), 1);

        // One `high` up-task finishes: now both jobs have a pending
        // request and exactly one slot is free. Priority order must give
        // it to `high`; the buggy key order gave it to `low` (JobId 0).
        let high_slot =
            a.iter().find(|x| x.instance.task.job == high).unwrap().slot;
        s.task_finished(high_slot, SimTime::from_secs(2));
        assert_eq!(
            s.slot_pool().reserved_for(high).count(),
            1,
            "the high-priority job's pre-reservation wins the free slot"
        );
        assert_eq!(s.slot_pool().reserved_for(low).count(), 1);
    }

    #[test]
    fn running_per_job_drops_drained_entries() {
        // Regression: completed jobs stayed in `running_per_job` pinned at
        // zero forever, polluting slot-composition consumers.
        let mut s = scheduler(1, 2);
        let job = s.submit(one_stage_job("j", 2, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(s.running_count_for(job), 2);
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        assert_eq!(s.running_count_for(job), 1);
        let done = s.task_finished(a[1].slot, SimTime::from_secs(1));
        assert!(done.job_completed);
        assert!(
            !s.running_per_job.contains_key(&job),
            "drained job must not linger at a zero count"
        );
        assert_eq!(s.running_count_for(job), 0);
    }

    #[test]
    fn trace_records_offer_and_lifecycle_decisions() {
        use ssr_trace::{TraceEventKind, VecSink};
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 2).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(TimeoutReservation::new(SimDuration::from_secs(30))),
            Box::new(FifoPriority),
        )
        .with_trace_sink(Box::new(VecSink::new()));
        assert!(s.trace_enabled());
        let high = s.submit(two_stage_job("fg", 2, 10), SimTime::ZERO);
        let low = s.submit(one_stage_job("bg", 4, 0), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 2);
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        // The reservation denies the background job this round.
        assert!(s.resource_offers(SimTime::from_secs(1)).is_empty());
        s.expire_reservations(SimTime::from_secs(31));
        let sink = s.take_trace_sink().expect("sink attached");
        assert!(!s.trace_enabled());
        let events = sink
            .into_any()
            .downcast::<VecSink>()
            .expect("VecSink recovered")
            .into_events();
        let names: Vec<&'static str> = events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"job-submitted"));
        assert!(names.contains(&"offer-round-started"));
        assert!(names.contains(&"task-launched"));
        assert!(names.contains(&"task-finished"));
        assert!(names.contains(&"reservation-granted"));
        assert!(names.contains(&"offer-declined"));
        assert!(names.contains(&"reservation-expired"));
        // The denial names the background job with the reservation reason.
        let denial = events
            .iter()
            .find_map(|e| match e.kind {
                TraceEventKind::OfferDeclined { job, reason, stage } => {
                    Some((job, reason, stage))
                }
                _ => None,
            })
            .expect("a decline was traced");
        assert_eq!(denial.0, low);
        assert_eq!(denial.1, ssr_trace::DenyReason::ReservationDenied);
        assert!(denial.2.is_some(), "a declined pending job names its blocked stage");
        // The reservation grant names the foreground job.
        let grant_job = events
            .iter()
            .find_map(|e| match e.kind {
                TraceEventKind::ReservationGranted { job, .. } => Some(job),
                _ => None,
            })
            .expect("a grant was traced");
        assert_eq!(grant_job, high);
    }

    #[test]
    fn disabled_trace_changes_nothing() {
        // The whole decision sequence must be identical with and without a
        // sink attached (zero-overhead contract, behaviour half).
        let run = |traced: bool| {
            let mut s = TaskScheduler::new(
                ClusterSpec::new(2, 2).unwrap(),
                LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
                Box::new(TimeoutReservation::new(SimDuration::from_secs(30))),
                Box::new(FifoPriority),
            );
            if traced {
                s.set_trace_sink(Box::new(ssr_trace::VecSink::new()));
            }
            s.submit(two_stage_job("fg", 2, 10), SimTime::ZERO);
            s.submit(one_stage_job("bg", 4, 0), SimTime::ZERO);
            let mut log: Vec<(u32, u64)> = Vec::new();
            let a = s.resource_offers(SimTime::ZERO);
            log.extend(a.iter().map(|x| (x.slot.as_u32(), x.instance.task.job.as_u64())));
            let t = SimTime::from_secs(1);
            for slot in a.iter().map(|x| x.slot).collect::<Vec<_>>() {
                s.task_finished(slot, t);
            }
            let b = s.resource_offers(t);
            log.extend(b.iter().map(|x| (x.slot.as_u32(), x.instance.task.job.as_u64())));
            log
        };
        assert_eq!(run(false), run(true));
    }

    /// Work done by one offer round with no free slot: one
    /// reservation-holding high-priority job between its phases and
    /// `backlog` low-priority jobs waiting. Returns (approval calls,
    /// reservation groups touched, slots scanned) for that round.
    fn saturated_round_work(backlog: usize) -> (u64, u64, u64) {
        let mut s = TaskScheduler::new(
            ClusterSpec::new(1, 2).unwrap(),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(TimeoutReservation::new(SimDuration::from_secs(30))),
            Box::new(FifoPriority),
        );
        s.submit(two_stage_job("fg", 2, 10), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 2);
        // One upstream task finishes: its slot is held for the
        // foreground job, the other still runs — no slot is free.
        s.task_finished(a[0].slot, SimTime::from_secs(1));
        assert_eq!(s.slot_pool().counts(), (0, 1, 1));
        for i in 0..backlog {
            s.submit(one_stage_job(&format!("bg{i}"), 1, 0), SimTime::from_secs(1));
        }
        let c = s.work_counters();
        let before =
            (c.approval_calls.get(), c.reservation_groups_touched.get(), c.slots_scanned.get());
        assert!(s.resource_offers(SimTime::from_secs(1)).is_empty());
        let c = s.work_counters();
        (
            c.approval_calls.get() - before.0,
            c.reservation_groups_touched.get() - before.1,
            c.slots_scanned.get() - before.2,
        )
    }

    #[test]
    fn saturated_round_work_does_not_grow_with_backlog() {
        // Guards against a quadratic offer round: one ApprovalLogic pass
        // over the reservation groups per priority serves every
        // backlogged candidate of that priority, so a saturated round's
        // work must not scale with the backlog.
        let small = saturated_round_work(10);
        let large = saturated_round_work(1000);
        assert_eq!(small, large, "offer-round work grew with the backlog");
        assert_eq!(small.0, 1, "one ApprovalLogic call for one group and one priority");
    }

    #[test]
    fn crashed_slot_is_never_offered_to_its_preferring_stage() {
        // Regression (found by the ssr-check explorer on its smallest
        // config): after [Offer, Finish, Finish, Crash(node 0), Offer]
        // the downstream stage launched on the slot its upstream ran on
        // even though that slot's node had crashed. The preferred-slot
        // fast path read the raw slot state — Free once the crash revoked
        // its reservation — instead of the offline-guarded free indexes.
        let mut s = scheduler(2, 1);
        let fg = s.submit(two_stage_job("fg", 1, 10), SimTime::ZERO);
        let a = s.resource_offers(SimTime::ZERO);
        assert_eq!(a.len(), 1);
        let up_slot = a[0].slot;
        let o = s.task_finished(up_slot, SimTime::from_secs(1));
        assert!(o.stage_completed);
        // The node hosting the upstream output crashes before the next
        // offer round; its slot is Free but out of service.
        s.fail_slots(&[up_slot], SimTime::from_secs(2), true, "crash");
        let b = s.resource_offers(SimTime::from_secs(2));
        assert_eq!(b.len(), 1, "downstream still launches on the surviving node");
        assert_ne!(b[0].slot, up_slot, "an out-of-service slot must not be offered");
        assert_eq!(s.running_count_for(fg), 1);
        s.task_finished(b[0].slot, SimTime::from_secs(3));
        assert!(s.jobs().get(fg).unwrap().is_complete());
        // Once the node rejoins, the slot takes offers again.
        s.restore_slots(&[up_slot], SimTime::from_secs(3));
        s.submit(one_stage_job("bg", 1, 0), SimTime::from_secs(3));
        let c = s.resource_offers(SimTime::from_secs(3));
        assert_eq!(c.len(), 1);
    }
}
