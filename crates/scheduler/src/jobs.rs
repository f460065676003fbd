//! Per-job scheduler state: the DAG run, per-phase task sets and runtime
//! statistics.

use std::collections::BTreeMap;

use ssr_dag::{JobId, JobRun, JobSpec, Priority, StageId, StageState};
use ssr_simcore::SimTime;

use crate::taskset::TaskSetManager;

/// Runtime statistics of one phase, fed to reservation policies.
///
/// The paper's deadline model (§IV-B) estimates the Pareto scale parameter
/// `t_m` by "the duration of the task that finishes first in a phase" —
/// that is [`StageStats::first_duration`].
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    ready_at: Option<SimTime>,
    completed_at: Option<SimTime>,
    first_duration: Option<f64>,
    durations: Vec<f64>,
}

impl StageStats {
    /// When the phase's barrier cleared.
    pub fn ready_at(&self) -> Option<SimTime> {
        self.ready_at
    }

    /// When the phase's last task finished.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// Duration (seconds) of the phase's first finisher — the online
    /// estimate of the Pareto scale `t_m`.
    pub fn first_duration(&self) -> Option<f64> {
        self.first_duration
    }

    /// Durations (seconds) of every finished task instance of the phase,
    /// in finish order.
    pub fn durations(&self) -> &[f64] {
        &self.durations
    }

    /// Marks the phase ready. Normally driven by the scheduler engine;
    /// public so policies and tests can build fixtures.
    pub fn mark_ready(&mut self, at: SimTime) {
        self.ready_at = Some(at);
    }

    /// Marks the phase completed. Normally driven by the scheduler engine.
    pub fn mark_completed(&mut self, at: SimTime) {
        self.completed_at = Some(at);
    }

    /// Records one finished task-instance duration (seconds). Normally
    /// driven by the scheduler engine.
    pub fn record_duration(&mut self, secs: f64) {
        if self.first_duration.is_none() {
            self.first_duration = Some(secs);
        }
        self.durations.push(secs);
    }
}

/// All scheduler-side state of one admitted job.
#[derive(Debug, Clone)]
pub struct JobState {
    id: JobId,
    spec: JobSpec,
    run: JobRun,
    tsms: BTreeMap<StageId, TaskSetManager>,
    stats: BTreeMap<StageId, StageStats>,
    submitted_at: SimTime,
    completed_at: Option<SimTime>,
    weight: f64,
}

impl JobState {
    pub(crate) fn new(id: JobId, spec: JobSpec, submitted_at: SimTime) -> Self {
        let run = JobRun::new(id, spec.clone());
        JobState {
            id,
            spec,
            run,
            tsms: BTreeMap::new(),
            stats: BTreeMap::new(),
            submitted_at,
            completed_at: None,
            weight: 1.0,
        }
    }

    /// The job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's specification.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The DAG execution tracker.
    pub fn run(&self) -> &JobRun {
        &self.run
    }

    /// The scheduling priority.
    pub fn priority(&self) -> Priority {
        self.spec.priority()
    }

    /// Submission time.
    pub fn submitted_at(&self) -> SimTime {
        self.submitted_at
    }

    /// Completion time, once the final phase finished.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// `true` once every phase has completed.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Fair-share weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The task-set manager of `stage`, if the phase has become ready.
    pub fn taskset(&self, stage: StageId) -> Option<&TaskSetManager> {
        self.tsms.get(&stage)
    }

    /// Runtime statistics of `stage`, if the phase has become ready.
    pub fn stage_stats(&self, stage: StageId) -> Option<&StageStats> {
        self.stats.get(&stage)
    }

    /// Iterate over `(stage, stats)` for every phase that has become ready.
    pub fn iter_stage_stats(&self) -> impl Iterator<Item = (StageId, &StageStats)> {
        self.stats.iter().map(|(s, st)| (*s, st))
    }

    /// Task sets of phases that are ready and still have unfinished tasks,
    /// in stage order.
    pub fn active_tasksets(&self) -> impl Iterator<Item = &TaskSetManager> {
        self.tsms.values().filter(move |t| {
            self.run.state(t.stage()) == StageState::Ready && !t.is_complete()
        })
    }

    /// The task set of `stage` if that phase is ready and still has
    /// unfinished tasks — the single-stage form of
    /// [`active_tasksets`](Self::active_tasksets).
    pub(crate) fn active_taskset(&self, stage: StageId) -> Option<&TaskSetManager> {
        self.tsms.get(&stage).filter(|t| {
            self.run.state(stage) == StageState::Ready && !t.is_complete()
        })
    }

    /// `true` if some ready phase has an unlaunched original task.
    pub fn has_pending_tasks(&self) -> bool {
        self.active_tasksets().any(|t| t.has_pending())
    }

    pub(crate) fn run_mut(&mut self) -> &mut JobRun {
        &mut self.run
    }

    pub(crate) fn taskset_mut(&mut self, stage: StageId) -> Option<&mut TaskSetManager> {
        self.tsms.get_mut(&stage)
    }

    pub(crate) fn insert_taskset(&mut self, tsm: TaskSetManager, now: SimTime) {
        let stage = tsm.stage();
        self.tsms.insert(stage, tsm);
        self.stats.entry(stage).or_default().mark_ready(now);
    }

    pub(crate) fn stats_mut(&mut self, stage: StageId) -> &mut StageStats {
        self.stats.entry(stage).or_default()
    }

    pub(crate) fn mark_complete(&mut self, at: SimTime) {
        self.completed_at = Some(at);
    }

    pub(crate) fn set_weight(&mut self, weight: f64) {
        self.weight = weight;
    }
}

/// The set of jobs known to the scheduler, iterated in deterministic
/// (job-id) order.
#[derive(Debug, Clone, Default)]
pub struct Jobs {
    map: BTreeMap<JobId, JobState>,
}

impl Jobs {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Jobs::default()
    }

    /// The job with the given id.
    pub fn get(&self, id: JobId) -> Option<&JobState> {
        self.map.get(&id)
    }

    /// Iterate over all jobs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &JobState> {
        self.map.values()
    }

    /// Number of admitted jobs (completed ones included).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no job was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub(crate) fn get_mut(&mut self, id: JobId) -> Option<&mut JobState> {
        self.map.get_mut(&id)
    }

    pub(crate) fn insert(&mut self, state: JobState) {
        self.map.insert(state.id(), state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_dag::JobSpecBuilder;
    use ssr_simcore::dist::constant;

    fn job_state() -> JobState {
        let spec = JobSpecBuilder::new("j")
            .stage("a", 2, constant(1.0))
            .stage("b", 2, constant(1.0))
            .chain()
            .build()
            .unwrap();
        JobState::new(JobId::new(1), spec, SimTime::from_secs(1))
    }

    #[test]
    fn fresh_job_state() {
        let js = job_state();
        assert_eq!(js.id(), JobId::new(1));
        assert!(!js.is_complete());
        assert_eq!(js.submitted_at(), SimTime::from_secs(1));
        assert!(js.taskset(StageId::new(0)).is_none());
        assert!(!js.has_pending_tasks());
        assert_eq!(js.weight(), 1.0);
    }

    #[test]
    fn taskset_registration_enables_pending() {
        let mut js = job_state();
        let tsm = TaskSetManager::new(JobId::new(1), StageId::new(0), 2, SimTime::ZERO);
        js.insert_taskset(tsm, SimTime::from_secs(2));
        assert!(js.has_pending_tasks());
        assert_eq!(js.active_tasksets().count(), 1);
        assert_eq!(
            js.stage_stats(StageId::new(0)).unwrap().ready_at(),
            Some(SimTime::from_secs(2))
        );
    }

    #[test]
    fn blocked_stage_is_not_active() {
        let mut js = job_state();
        // Register a TSM for stage 1, which is still blocked.
        let tsm = TaskSetManager::new(JobId::new(1), StageId::new(1), 2, SimTime::ZERO);
        js.insert_taskset(tsm, SimTime::ZERO);
        assert_eq!(js.active_tasksets().count(), 0);
    }

    #[test]
    fn stage_stats_record_first_duration() {
        let mut stats = StageStats::default();
        assert!(stats.first_duration().is_none());
        stats.record_duration(4.0);
        stats.record_duration(2.0); // later finisher, even if shorter
        assert_eq!(stats.first_duration(), Some(4.0));
        assert_eq!(stats.durations(), &[4.0, 2.0]);
        stats.mark_completed(SimTime::from_secs(9));
        assert_eq!(stats.completed_at(), Some(SimTime::from_secs(9)));
    }

    #[test]
    fn jobs_registry_ordering() {
        let mut jobs = Jobs::new();
        assert!(jobs.is_empty());
        for id in [3u64, 1, 2] {
            let spec = JobSpecBuilder::new(format!("j{id}"))
                .stage("s", 1, constant(1.0))
                .build()
                .unwrap();
            jobs.insert(JobState::new(JobId::new(id), spec, SimTime::ZERO));
        }
        let ids: Vec<u64> = jobs.iter().map(|j| j.id().as_u64()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(jobs.len(), 3);
        assert!(jobs.get(JobId::new(2)).is_some());
        assert!(jobs.get(JobId::new(9)).is_none());
    }

    #[test]
    fn completion_marks() {
        let mut js = job_state();
        js.mark_complete(SimTime::from_secs(42));
        assert!(js.is_complete());
        assert_eq!(js.completed_at(), Some(SimTime::from_secs(42)));
    }
}
