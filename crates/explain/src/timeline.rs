//! Timeline reconstruction: turning a flat decision-event stream back into
//! per-slot occupancy, per-job activity intervals and per-stage lifecycle
//! marks.
//!
//! The reconstruction replays the trace through a small slot state machine
//! (free → reserved → running → free …) mirroring the scheduler's own slot
//! pool, then derives interval sets from the resulting segments:
//!
//! - **running** — union of times the job had at least one instance on a
//!   slot (speculative copies included);
//! - **reserved-idle** — union of times at least one slot sat reserved for
//!   the job without running anything;
//! - **waiting** — the job's lifetime minus its running union: time it was
//!   submitted but made no forward progress anywhere.
//!
//! [`Timeline::render_gantt`] draws the slot matrix as fixed-width ASCII
//! (the shape of Fig. 5's sawtooth is directly visible in the per-job
//! lanes); everything renders byte-identically for a given trace.

use std::collections::BTreeMap;

use ssr_dag::{JobId, StageId};
use ssr_simcore::SimTime;
use ssr_trace::{TraceEvent, TraceEventKind};

use crate::reader::Trace;

/// A half-open time interval `[start, end)` in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

impl Interval {
    /// The interval's length in seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_since(self.start).as_secs_f64()
    }
}

/// Sums interval lengths in seconds.
pub fn total_secs(intervals: &[Interval]) -> f64 {
    // fold, not sum(): f64::sum's identity is -0.0, which would leak a
    // "-0.000" into reports for empty interval sets.
    intervals.iter().map(Interval::secs).fold(0.0, |a, b| a + b)
}

/// Merges possibly-overlapping intervals into a disjoint sorted union.
pub fn union(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.sort_by_key(|iv| (iv.start, iv.end));
    let mut merged: Vec<Interval> = Vec::with_capacity(intervals.len());
    for iv in intervals {
        if iv.end <= iv.start {
            continue;
        }
        match merged.last_mut() {
            Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
            _ => merged.push(iv),
        }
    }
    merged
}

/// Subtracts a disjoint sorted union `b` from the single interval `a`.
fn subtract(a: Interval, b: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut cursor = a.start;
    for iv in b {
        if iv.end <= cursor {
            continue;
        }
        if iv.start >= a.end {
            break;
        }
        if iv.start > cursor {
            out.push(Interval { start: cursor, end: iv.start.min(a.end) });
        }
        cursor = cursor.max(iv.end);
        if cursor >= a.end {
            break;
        }
    }
    if cursor < a.end {
        out.push(Interval { start: cursor, end: a.end });
    }
    out
}

/// What one slot is doing over one segment of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Unowned and idle.
    Free,
    /// Held idle under a reservation for the job.
    Reserved(JobId),
    /// Occupied by a task instance of the job.
    Running {
        /// The owning job.
        job: JobId,
        /// Whether the instance is a speculative copy.
        speculative: bool,
    },
}

/// A state change on one slot; the segment lasts until the next change (or
/// the trace horizon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// When the slot entered this state.
    pub start: SimTime,
    /// The state itself.
    pub state: SlotState,
}

/// Lifecycle marks of one stage, reconstructed from the trace.
#[derive(Debug, Clone)]
pub struct StageTimeline {
    /// The stage.
    pub stage: StageId,
    /// Partition count (0 when read from a schema-v1 trace).
    pub tasks: u32,
    /// Upstream stages (empty for roots or v1 traces).
    pub parents: Vec<StageId>,
    /// When the stage became schedulable: the job's submit time for root
    /// stages, the `barrier-cleared` time otherwise.
    pub runnable: SimTime,
    /// First task launch, if any was observed.
    pub first_launch: Option<SimTime>,
    /// `stage-completed` time, if the trace reaches it.
    pub completed: Option<SimTime>,
}

/// One hop of a job's critical path.
#[derive(Debug, Clone, Copy)]
pub struct CriticalHop {
    /// The stage on the path.
    pub stage: StageId,
    /// When it became schedulable.
    pub runnable: SimTime,
    /// When it completed.
    pub completed: SimTime,
}

/// Reconstructed activity of one job.
#[derive(Debug, Clone)]
pub struct JobTimeline {
    /// The job.
    pub job: JobId,
    /// Job name from `job-submitted`.
    pub name: String,
    /// Submission priority level.
    pub priority: i32,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time, if the trace reaches it.
    pub completed: Option<SimTime>,
    /// Per-stage lifecycle marks, ordered by stage id.
    pub stages: Vec<StageTimeline>,
    /// Every task instance's occupancy interval (one entry per launch),
    /// with its speculative flag.
    pub instances: Vec<(Interval, bool)>,
    /// Disjoint union of times ≥1 instance of the job was running.
    pub running: Vec<Interval>,
    /// Disjoint union of times ≥1 slot sat reserved-idle for the job.
    pub reserved_idle: Vec<Interval>,
    /// The job's lifetime minus `running`: no instance anywhere.
    pub waiting: Vec<Interval>,
}

impl JobTimeline {
    /// Job completion time minus submission, in seconds (`None` until the
    /// trace reaches `job-completed`).
    pub fn jct_secs(&self) -> Option<f64> {
        self.completed.map(|c| c.saturating_since(self.submitted).as_secs_f64())
    }

    /// Number of instances running at time `t`: the state after the last
    /// event at `t`. When several offer rounds share one timestamp, every
    /// round sees this same final count, so it is not a per-round sampler;
    /// use [`running_series`] for that.
    pub fn running_count(&self, t: SimTime) -> usize {
        self.instances.iter().filter(|(iv, _)| iv.start <= t && t < iv.end).count()
    }

    /// Extracts the job's stage critical path: starting from the completed
    /// stage that finished last (ties broken toward the lowest stage id),
    /// repeatedly steps to the parent that completed last until reaching a
    /// root. Returns `None` when the trace carries no stage DAG metadata
    /// (schema v1) or the final stage never completed.
    pub fn critical_path(&self) -> Option<Vec<CriticalHop>> {
        let by_id: BTreeMap<StageId, &StageTimeline> =
            self.stages.iter().map(|s| (s.stage, s)).collect();
        let last = self
            .stages
            .iter()
            .filter_map(|s| s.completed.map(|c| (c, s)))
            // max_by_key returns the *last* max; reversing the id keeps the
            // lowest stage id on completion-time ties.
            .max_by_key(|(c, s)| (*c, std::cmp::Reverse(s.stage)))?
            .1;
        let mut path = vec![CriticalHop {
            stage: last.stage,
            runnable: last.runnable,
            completed: last.completed.expect("filtered above"),
        }];
        let mut cursor = last;
        while let Some((completed, parent)) = cursor
            .parents
            .iter()
            .filter_map(|p| by_id.get(p))
            .filter_map(|s| s.completed.map(|c| (c, *s)))
            .max_by_key(|(c, s)| (*c, std::cmp::Reverse(s.stage)))
        {
            path.push(CriticalHop {
                stage: parent.stage,
                runnable: parent.runnable,
                completed,
            });
            cursor = parent;
        }
        path.reverse();
        Some(path)
    }
}

/// The reconstructed run: slot occupancy plus per-job activity.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Number of slots in the cluster (from the first offer round's pool
    /// counts, or the highest slot index seen if the trace has no rounds).
    pub slots: usize,
    /// End of the replayed span: the last event's timestamp, or the cut
    /// given to [`Timeline::reconstruct_until`].
    pub horizon: SimTime,
    /// Per-job activity, ordered by job id.
    pub jobs: Vec<JobTimeline>,
    /// Per-slot state segments, ordered by start time; index = slot.
    pub slot_segments: Vec<Vec<Segment>>,
}

impl Timeline {
    /// Replays a parsed trace into a timeline.
    pub fn reconstruct(trace: &Trace) -> Timeline {
        let horizon = trace.events.last().map_or(SimTime::ZERO, |e| e.time);
        Builder::default().replay(&trace.events, horizon)
    }

    /// Replays the events of `trace` up to and including `cut` into a
    /// timeline whose horizon is `cut` rather than its last event: runs
    /// and reservations still open at the cut last until it. Timelines of
    /// several traces cut at one instant thus share a horizon, and their
    /// Gantt charts line up column for column.
    pub fn reconstruct_until(trace: &Trace, cut: SimTime) -> Timeline {
        let end = trace.events.partition_point(|e| e.time <= cut);
        Builder::default().replay(&trace.events[..end], cut)
    }

    /// The slot's state at time `t` (last transition at or before `t`).
    pub fn slot_state(&self, slot: usize, t: SimTime) -> SlotState {
        let segments = match self.slot_segments.get(slot) {
            Some(s) if !s.is_empty() => s,
            _ => return SlotState::Free,
        };
        match segments.partition_point(|seg| seg.start <= t) {
            0 => SlotState::Free,
            n => segments[n - 1].state,
        }
    }

    /// Cluster-wide pool counts `(free, reserved, running)` at time `t`.
    pub fn occupancy(&self, t: SimTime) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for slot in 0..self.slots {
            match self.slot_state(slot, t) {
                SlotState::Free => counts.0 += 1,
                SlotState::Reserved(_) => counts.1 += 1,
                SlotState::Running { .. } => counts.2 += 1,
            }
        }
        counts
    }

    /// Looks a job up by name.
    pub fn job_named(&self, name: &str) -> Option<&JobTimeline> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// The single-letter gantt key for the job at `index` in submission-id
    /// order (`A`, `B`, …, wrapping after 26 jobs).
    pub fn job_letter(index: usize) -> char {
        (b'A' + (index % 26) as u8) as char
    }

    /// Renders the run as fixed-width ASCII: one row per slot sampling the
    /// slot state at each column's midpoint (`.` free, `=` reserved-idle,
    /// job letter running — lowercase for speculative copies), followed by
    /// one lane per job showing its running-instance count over time (`.`
    /// idle, digits, `#` for ≥10), on an axis from 0 to [`horizon`](Self::horizon).
    /// Output is byte-identical for a given trace and width.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(8);
        let horizon_secs = self.horizon.as_secs_f64();
        let mut out = String::new();
        if self.slots == 0 || horizon_secs <= 0.0 {
            out.push_str("(empty trace: nothing to draw)\n");
            return out;
        }
        let letter_of: BTreeMap<JobId, char> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.job, Self::job_letter(i)))
            .collect();
        let col_mid = |i: usize| {
            SimTime::from_secs_f64(horizon_secs * (i as f64 + 0.5) / width as f64)
        };
        out.push_str(&format!(
            "time 0.000s .. {horizon_secs:.3}s   ({width} cols, {:.3}s/col)\n",
            horizon_secs / width as f64
        ));
        for (i, job) in self.jobs.iter().enumerate() {
            out.push_str(&format!(
                "  {} = {} (job {}, prio {})\n",
                Self::job_letter(i),
                job.name,
                job.job.as_u64(),
                job.priority
            ));
        }
        out.push_str("  lowercase = speculative copy, '=' = reserved-idle, '.' = free\n");
        for slot in 0..self.slots {
            let mut row = String::with_capacity(width);
            for i in 0..width {
                row.push(match self.slot_state(slot, col_mid(i)) {
                    SlotState::Free => '.',
                    SlotState::Reserved(_) => '=',
                    SlotState::Running { job, speculative } => {
                        let c = letter_of.get(&job).copied().unwrap_or('?');
                        if speculative {
                            c.to_ascii_lowercase()
                        } else {
                            c
                        }
                    }
                });
            }
            out.push_str(&format!("slot {slot:>3} |{row}|\n"));
        }
        for (i, job) in self.jobs.iter().enumerate() {
            let mut row = String::with_capacity(width);
            for c in 0..width {
                let n = job.running_count(col_mid(c));
                row.push(match n {
                    0 => '.',
                    1..=9 => char::from_digit(n as u32, 10).expect("single digit"),
                    _ => '#',
                });
            }
            out.push_str(&format!("run  {:>3} |{row}|\n", Self::job_letter(i)));
        }
        out
    }
}

/// Running-instance counts of the named jobs as one offer round ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunningSample {
    /// The round's timestamp.
    pub time: SimTime,
    /// Running instances per requested name, in the order the names were
    /// given (0 for a name not yet submitted).
    pub running: Vec<usize>,
}

/// Replays `events` into the running-task series of the jobs called
/// `names` (the data behind Figs. 5 and 13): one sample per
/// `offer-round-ended`, from the first named job's `job-submitted` on.
///
/// Counts rise on `task-launched` and fall on `task-finished`,
/// `copy-killed` and `task-crashed`, each mapped back to its job through
/// the slot it frees. Sampling per round rather than per timestamp keeps
/// every round's count when several rounds share a timestamp. A name
/// matches the first job submitted under it.
pub fn running_series(events: &[TraceEvent], names: &[&str]) -> Vec<RunningSample> {
    use TraceEventKind as K;
    let mut ids: Vec<Option<JobId>> = vec![None; names.len()];
    let mut running = vec![0usize; names.len()];
    // Index into `names` of the named job running on each occupied slot.
    let mut on_slot: BTreeMap<u32, usize> = BTreeMap::new();
    let mut series = Vec::new();
    for event in events {
        match &event.kind {
            K::JobSubmitted { job, name, .. } => {
                for (id, wanted) in ids.iter_mut().zip(names) {
                    if id.is_none() && wanted == name {
                        *id = Some(*job);
                    }
                }
            }
            K::TaskLaunched { slot, job, .. } => {
                if let Some(i) = ids.iter().position(|id| *id == Some(*job)) {
                    running[i] += 1;
                    on_slot.insert(*slot, i);
                }
            }
            K::TaskFinished { slot, .. }
            | K::CopyKilled { slot, .. }
            | K::TaskCrashed { slot, .. } => {
                if let Some(i) = on_slot.remove(slot) {
                    running[i] -= 1;
                }
            }
            K::OfferRoundEnded { .. } if ids.iter().any(Option::is_some) => {
                series.push(RunningSample { time: event.time, running: running.clone() });
            }
            _ => {}
        }
    }
    series
}

/// Per-job scratch state while replaying.
#[derive(Debug, Default)]
struct JobScratch {
    name: String,
    priority: i32,
    submitted: SimTime,
    completed: Option<SimTime>,
    stages: BTreeMap<StageId, StageTimeline>,
    instances: Vec<(Interval, bool)>,
    reserved: Vec<Interval>,
}

/// Trace replay state machine.
#[derive(Debug, Default)]
struct Builder {
    slots: usize,
    jobs: BTreeMap<JobId, JobScratch>,
    /// Current state and segment history per slot.
    segments: Vec<Vec<Segment>>,
    /// Open running instance per slot: (job, start, speculative).
    open_run: BTreeMap<usize, (JobId, SimTime, bool)>,
    /// Open reservation per slot: (job, start).
    open_reservation: BTreeMap<usize, (JobId, SimTime)>,
}

impl Builder {
    fn ensure_slot(&mut self, slot: usize) {
        if slot >= self.slots {
            self.slots = slot + 1;
        }
        while self.segments.len() <= slot {
            self.segments.push(Vec::new());
        }
    }

    fn transition(&mut self, slot: usize, at: SimTime, state: SlotState) {
        self.ensure_slot(slot);
        let segments = &mut self.segments[slot];
        match segments.last_mut() {
            // Same-timestamp transitions collapse (e.g. task-finished then
            // reservation-granted on the same slot in one scheduler step):
            // the last state at a timestamp wins, matching the pool state
            // the scheduler leaves behind.
            Some(last) if last.start == at => last.state = state,
            Some(last) if last.state == state => {}
            _ => segments.push(Segment { start: at, state }),
        }
    }

    fn close_run(&mut self, slot: usize, at: SimTime) {
        if let Some((job, start, speculative)) = self.open_run.remove(&slot) {
            if let Some(scratch) = self.jobs.get_mut(&job) {
                scratch.instances.push((Interval { start, end: at }, speculative));
            }
        }
    }

    fn close_reservation(&mut self, slot: usize, at: SimTime) {
        if let Some((job, start)) = self.open_reservation.remove(&slot) {
            if let Some(scratch) = self.jobs.get_mut(&job) {
                scratch.reserved.push(Interval { start, end: at });
            }
        }
    }

    fn reserve_slot(&mut self, slot: usize, job: JobId, at: SimTime) {
        self.close_run(slot, at);
        self.close_reservation(slot, at);
        self.open_reservation.insert(slot, (job, at));
        self.transition(slot, at, SlotState::Reserved(job));
    }

    fn free_slot(&mut self, slot: usize, at: SimTime) {
        self.close_run(slot, at);
        self.close_reservation(slot, at);
        self.transition(slot, at, SlotState::Free);
    }

    /// Replays `events`, closing whatever is still open at `horizon`.
    fn replay(mut self, events: &[TraceEvent], horizon: SimTime) -> Timeline {
        use TraceEventKind as K;
        for event in events {
            let t = event.time;
            match &event.kind {
                K::JobSubmitted { job, name, priority, stages } => {
                    let scratch = self.jobs.entry(*job).or_default();
                    scratch.name = name.clone();
                    scratch.priority = priority.level();
                    scratch.submitted = t;
                    for (idx, meta) in stages.iter().enumerate() {
                        let stage = StageId::new(idx as u32);
                        scratch.stages.insert(
                            stage,
                            StageTimeline {
                                stage,
                                tasks: meta.tasks,
                                parents: meta.parents.clone(),
                                // Root stages are runnable at submit; others
                                // get their true time from barrier-cleared.
                                runnable: t,
                                first_launch: None,
                                completed: None,
                            },
                        );
                    }
                }
                K::OfferRoundStarted { free, running, reserved } => {
                    let pool = free + running + reserved;
                    if pool > self.slots {
                        self.ensure_slot(pool - 1);
                    }
                }
                K::TaskLaunched { slot, job, stage, speculative, .. } => {
                    let slot = *slot as usize;
                    self.close_run(slot, t);
                    self.close_reservation(slot, t);
                    self.open_run.insert(slot, (*job, t, *speculative));
                    self.transition(slot, t, SlotState::Running { job: *job, speculative: *speculative });
                    let scratch = self.jobs.entry(*job).or_default();
                    let entry = scratch.stages.entry(*stage).or_insert_with(|| StageTimeline {
                        stage: *stage,
                        tasks: 0,
                        parents: Vec::new(),
                        runnable: t,
                        first_launch: None,
                        completed: None,
                    });
                    if entry.first_launch.is_none() {
                        entry.first_launch = Some(t);
                    }
                }
                K::TaskFinished { slot, .. } | K::CopyKilled { slot, .. } => {
                    self.free_slot(*slot as usize, t);
                }
                K::ReservationGranted { slot, job, .. } | K::PrereserveFilled { slot, job, .. } => {
                    self.reserve_slot(*slot as usize, *job, t);
                }
                K::ReservationExpired { slot, .. }
                | K::ReservationReleased { slot, .. }
                | K::StaleReservationReleased { slot, .. } => {
                    self.free_slot(*slot as usize, t);
                }
                K::BarrierCleared { job, stage } => {
                    if let Some(s) = self.jobs.get_mut(job).and_then(|j| j.stages.get_mut(stage)) {
                        s.runnable = t;
                    }
                }
                K::StageCompleted { job, stage } => {
                    if let Some(s) = self.jobs.get_mut(job).and_then(|j| j.stages.get_mut(stage)) {
                        s.completed = Some(t);
                    }
                }
                K::JobCompleted { job } => {
                    if let Some(j) = self.jobs.get_mut(job) {
                        j.completed = Some(t);
                    }
                }
                // A crash closes the victim's run; a revocation closes the
                // reservation. The paired slot-offline event then leaves the
                // slot rendered Free (out-of-service shading is a job-level
                // concern the attribution layer handles).
                K::TaskCrashed { slot, .. } | K::ReservationRevoked { slot, .. } => {
                    self.free_slot(*slot as usize, t);
                }
                K::SlotOffline { slot, .. } => {
                    self.free_slot(*slot as usize, t);
                }
                K::OfferRoundEnded { .. }
                | K::OfferDeclined { .. }
                | K::LocalityUnlocked
                | K::SlotOnline { .. } => {}
            }
        }
        // Close instances and reservations still open at the horizon
        // (truncated traces, e.g. --stop-after runs).
        let open_slots: Vec<usize> = self.open_run.keys().copied().collect();
        for slot in open_slots {
            self.close_run(slot, horizon);
        }
        let open_slots: Vec<usize> = self.open_reservation.keys().copied().collect();
        for slot in open_slots {
            self.close_reservation(slot, horizon);
        }

        let jobs = std::mem::take(&mut self.jobs)
            .into_iter()
            .map(|(job, scratch)| {
                let running = union(scratch.instances.iter().map(|(iv, _)| *iv).collect());
                let lifetime = Interval {
                    start: scratch.submitted,
                    end: scratch.completed.unwrap_or(horizon),
                };
                let waiting = subtract(lifetime, &running);
                JobTimeline {
                    job,
                    name: scratch.name,
                    priority: scratch.priority,
                    submitted: scratch.submitted,
                    completed: scratch.completed,
                    stages: scratch.stages.into_values().collect(),
                    instances: scratch.instances,
                    running,
                    reserved_idle: union(scratch.reserved),
                    waiting,
                }
            })
            .collect();
        Timeline { slots: self.slots, horizon, jobs, slot_segments: self.segments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_dag::Priority;
    use ssr_trace::StageMeta;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn iv(a: f64, b: f64) -> Interval {
        Interval { start: t(a), end: t(b) }
    }

    /// A hand-written two-stage run on a 2-slot cluster: stage 0 (2 tasks)
    /// runs 0..2 on both slots, slot 1 is then reserved until stage 1's
    /// single task consumes it at t=3 and finishes at t=5.
    fn two_stage_trace() -> Trace {
        use TraceEventKind as K;
        let job = JobId::new(0);
        let s0 = StageId::new(0);
        let s1 = StageId::new(1);
        let events = vec![
            TraceEvent::new(
                t(0.0),
                K::JobSubmitted {
                    job,
                    name: "fg".into(),
                    priority: Priority::new(10),
                    stages: vec![
                        StageMeta { tasks: 2, parents: vec![] },
                        StageMeta { tasks: 1, parents: vec![s0] },
                    ],
                },
            ),
            TraceEvent::new(t(0.0), K::OfferRoundStarted { free: 2, running: 0, reserved: 0 }),
            TraceEvent::new(
                t(0.0),
                K::TaskLaunched { slot: 0, job, stage: s0, partition: 0, attempt: 0, level: "ANY", speculative: false, warm: false },
            ),
            TraceEvent::new(
                t(0.0),
                K::TaskLaunched { slot: 1, job, stage: s0, partition: 1, attempt: 0, level: "ANY", speculative: false, warm: false },
            ),
            TraceEvent::new(t(0.0), K::OfferRoundEnded { assignments: 2 }),
            TraceEvent::new(
                t(2.0),
                K::TaskFinished { slot: 1, job, stage: s0, partition: 1, attempt: 0, duration_secs: 2.0 },
            ),
            TraceEvent::new(
                t(2.0),
                K::ReservationGranted { slot: 1, job, priority: Priority::new(10), stage: Some(s1), deadline_secs: None },
            ),
            TraceEvent::new(
                t(2.5),
                K::TaskFinished { slot: 0, job, stage: s0, partition: 0, attempt: 0, duration_secs: 2.5 },
            ),
            TraceEvent::new(t(2.5), K::StageCompleted { job, stage: s0 }),
            TraceEvent::new(t(2.5), K::BarrierCleared { job, stage: s1 }),
            TraceEvent::new(
                t(3.0),
                K::TaskLaunched { slot: 1, job, stage: s1, partition: 0, attempt: 0, level: "ANY", speculative: false, warm: false },
            ),
            TraceEvent::new(
                t(5.0),
                K::TaskFinished { slot: 1, job, stage: s1, partition: 0, attempt: 0, duration_secs: 2.0 },
            ),
            TraceEvent::new(t(5.0), K::StageCompleted { job, stage: s1 }),
            TraceEvent::new(t(5.0), K::JobCompleted { job }),
        ];
        Trace { schema_version: 2, events }
    }

    #[test]
    fn interval_union_and_subtract() {
        let u = union(vec![iv(3.0, 4.0), iv(0.0, 2.0), iv(1.0, 2.5), iv(4.0, 4.0)]);
        assert_eq!(u, vec![iv(0.0, 2.5), iv(3.0, 4.0)]);
        assert_eq!(subtract(iv(0.0, 5.0), &u), vec![iv(2.5, 3.0), iv(4.0, 5.0)]);
        assert_eq!(subtract(iv(1.0, 2.0), &u), vec![]);
    }

    #[test]
    fn reconstructs_two_stage_run() {
        let tl = Timeline::reconstruct(&two_stage_trace());
        assert_eq!(tl.slots, 2);
        assert_eq!(tl.horizon, t(5.0));
        assert_eq!(tl.jobs.len(), 1);
        let job = &tl.jobs[0];
        assert_eq!(job.name, "fg");
        assert_eq!(job.jct_secs(), Some(5.0));
        // Running: both slots 0..2.5 merged with slot 1's 3..5.
        assert_eq!(job.running, vec![iv(0.0, 2.5), iv(3.0, 5.0)]);
        // Reserved-idle: slot 1 from the grant at 2.0 until consumed at 3.0.
        assert_eq!(job.reserved_idle, vec![iv(2.0, 3.0)]);
        // Waiting: the barrier gap.
        assert_eq!(job.waiting, vec![iv(2.5, 3.0)]);
        assert!((total_secs(&job.running) - 4.5).abs() < 1e-9);
        // Slot states at probe points.
        assert_eq!(tl.slot_state(1, t(1.0)), SlotState::Running { job: job.job, speculative: false });
        assert_eq!(tl.slot_state(1, t(2.2)), SlotState::Reserved(job.job));
        assert_eq!(tl.slot_state(0, t(3.0)), SlotState::Free);
        assert_eq!(tl.occupancy(t(2.2)), (0, 1, 1));
        // Stage marks.
        assert_eq!(job.stages.len(), 2);
        assert_eq!(job.stages[0].first_launch, Some(t(0.0)));
        assert_eq!(job.stages[0].completed, Some(t(2.5)));
        assert_eq!(job.stages[1].runnable, t(2.5));
        assert_eq!(job.stages[1].first_launch, Some(t(3.0)));
    }

    #[test]
    fn reconstruct_until_extends_open_state_to_the_cut() {
        // Cut at 2.2: slot 0 still runs stage 0, slot 1 is reserved-idle;
        // both must last to the cut, not to the last kept event (2.0).
        let tl = Timeline::reconstruct_until(&two_stage_trace(), t(2.2));
        assert_eq!(tl.horizon, t(2.2));
        let job = &tl.jobs[0];
        assert_eq!(job.jct_secs(), None);
        assert_eq!(job.running, vec![iv(0.0, 2.2)]);
        assert_eq!(job.reserved_idle, vec![iv(2.0, 2.2)]);
        assert_eq!(job.running_count(t(2.1)), 1);
        let gantt = tl.render_gantt(22);
        assert!(gantt.starts_with("time 0.000s .. 2.200s"), "{gantt}");
        assert!(gantt.contains("slot   0 |AAAAAAAAAAAAAAAAAAAAAA|"), "{gantt}");
        assert!(gantt.contains("slot   1 |AAAAAAAAAAAAAAAAAAAA==|"), "{gantt}");
        assert!(gantt.contains("run    A |2222222222222222222211|"), "{gantt}");
        // A cut past the last event only stretches the axis.
        let full = Timeline::reconstruct(&two_stage_trace());
        let late = Timeline::reconstruct_until(&two_stage_trace(), t(8.0));
        assert_eq!(late.horizon, t(8.0));
        assert_eq!(late.jobs[0].running, full.jobs[0].running);
        assert_eq!(late.jobs[0].reserved_idle, full.jobs[0].reserved_idle);
        assert_eq!(late.jobs[0].jct_secs(), Some(5.0));
    }

    #[test]
    fn critical_path_walks_latest_parents() {
        let tl = Timeline::reconstruct(&two_stage_trace());
        let path = tl.jobs[0].critical_path().expect("v2 trace has a path");
        let stages: Vec<u32> = path.iter().map(|h| h.stage.as_u32()).collect();
        assert_eq!(stages, vec![0, 1]);
        assert_eq!(path[1].completed, t(5.0));
    }

    #[test]
    fn gantt_is_fixed_width_and_stable() {
        let tl = Timeline::reconstruct(&two_stage_trace());
        let a = tl.render_gantt(20);
        let b = tl.render_gantt(20);
        assert_eq!(a, b);
        let slot_rows: Vec<&str> = a.lines().filter(|l| l.starts_with("slot")).collect();
        assert_eq!(slot_rows.len(), 2);
        for row in &slot_rows {
            let body = row.split('|').nth(1).expect("framed row");
            assert_eq!(body.chars().count(), 20);
        }
        // Slot 1 shows run, reserved-idle, then the stage-1 task.
        assert!(slot_rows[1].contains('A'));
        assert!(slot_rows[1].contains('='));
        // The per-job lane shows parallelism 2 during stage 0.
        let lane = a.lines().find(|l| l.starts_with("run ")).expect("job lane");
        assert!(lane.contains('2'), "{lane}");
    }

    #[test]
    fn running_series_samples_every_round_at_a_shared_timestamp() {
        use TraceEventKind as K;
        let job = JobId::new(0);
        let other = JobId::new(1);
        let s0 = StageId::new(0);
        let submitted = |job, name: &str| K::JobSubmitted {
            job,
            name: name.into(),
            priority: Priority::new(0),
            stages: vec![StageMeta { tasks: 2, parents: vec![] }],
        };
        let launch = |slot, job, partition| K::TaskLaunched {
            slot,
            job,
            stage: s0,
            partition,
            attempt: 0,
            level: "ANY",
            speculative: false,
            warm: false,
        };
        let round = |assignments| K::OfferRoundEnded { assignments };
        let events = vec![
            // Rounds before a named job exists are not sampled, and an
            // unnamed job's instances are not counted.
            TraceEvent::new(t(0.0), submitted(other, "bg")),
            TraceEvent::new(t(0.0), launch(1, other, 0)),
            TraceEvent::new(t(0.0), round(1)),
            TraceEvent::new(t(1.0), submitted(job, "fg")),
            TraceEvent::new(t(1.0), launch(0, job, 0)),
            TraceEvent::new(t(1.0), round(1)),
            // Two rounds at t=2: a finish, a round, then a launch on the
            // freed slot and a second round. Both counts must survive.
            TraceEvent::new(
                t(2.0),
                K::TaskFinished {
                    slot: 0,
                    job,
                    stage: s0,
                    partition: 0,
                    attempt: 0,
                    duration_secs: 1.0,
                },
            ),
            TraceEvent::new(t(2.0), round(0)),
            TraceEvent::new(t(2.0), launch(0, job, 1)),
            TraceEvent::new(t(2.0), round(1)),
            // A kill and a crash free the job's slots too.
            TraceEvent::new(t(3.0), launch(2, job, 1)),
            TraceEvent::new(t(3.0), round(1)),
            TraceEvent::new(t(4.0), K::CopyKilled { slot: 2, job, stage: s0, partition: 1 }),
            TraceEvent::new(t(4.0), round(0)),
            TraceEvent::new(
                t(5.0),
                K::TaskCrashed {
                    slot: 0,
                    job,
                    stage: s0,
                    partition: 1,
                    attempt: 0,
                    requeued: true,
                },
            ),
            TraceEvent::new(t(5.0), round(0)),
        ];
        let series = running_series(&events, &["fg", "missing"]);
        let rows: Vec<(f64, Vec<usize>)> =
            series.iter().map(|s| (s.time.as_secs_f64(), s.running.clone())).collect();
        assert_eq!(
            rows,
            vec![
                (1.0, vec![1, 0]),
                (2.0, vec![0, 0]),
                (2.0, vec![1, 0]),
                (3.0, vec![2, 0]),
                (4.0, vec![1, 0]),
                (5.0, vec![0, 0]),
            ]
        );
        // The per-timestamp view only sees the last state at t=2.
        let tl = Timeline::reconstruct(&Trace { schema_version: 3, events });
        let fg = tl.job_named("fg").expect("fg submitted");
        assert_eq!(fg.running_count(t(2.0)), 1);
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let tl = Timeline::reconstruct(&Trace { schema_version: 2, events: vec![] });
        assert_eq!(tl.slots, 0);
        assert!(tl.render_gantt(40).contains("empty trace"));
    }
}
