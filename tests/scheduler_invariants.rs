//! Property tests of the scheduler's core invariants, driving the
//! `TaskScheduler` state machine directly with randomized workloads and
//! event orders:
//!
//! 1. a slot never runs two tasks at once (no double booking),
//! 2. a reserved slot never executes a task of a strictly lower priority
//!    than its reservation,
//! 3. the work-conserving policy never leaves a slot idle while a
//!    runnable task is backlogged,
//! 4. every task of every job runs to completion exactly once,
//! 5. no reservation survives its job,
//! 6. under speculation (status-quo progress-based and the paper's §IV-C
//!    strategy alike) exactly one attempt of every task finishes and no
//!    copy outlives the winning attempt,
//! 7. per-trial RNG streams are pure functions of `(root_seed, index)`
//!    and distinct indices draw from distinct streams,
//! 8. under randomized deterministic fault plans (crashes, revocations,
//!    partitions, straggler storms, executor restarts) the reservation
//!    protocol keeps every `ssr-check` invariant, the workload still
//!    drains, and the faulted run replays byte-identically,
//! 9. the indexed `next_locality_unlock` and the O(1)
//!    `has_unfinished_jobs` agree with full walks over every job and
//!    task set after every event, under delay scheduling, every job
//!    order and randomized crashes, partitions and requeues.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use ssr::cluster::{ClusterSpec, LocalityModel, SlotId};
use ssr::core::SpeculativeReservation;
use ssr::dag::{JobSpecBuilder, Priority};
use ssr::prelude::*;
use ssr::scheduler::{ReservationPolicy, SpeculationConfig, TaskScheduler, WorkConserving};
use ssr::simcore::dist::constant;
use ssr::simcore::rng::SimRng;
use ssr::workload::synthetic::pareto_pipeline;
use ssr_trace::TraceEvent;

/// A randomized multi-job workload description.
#[derive(Debug, Clone)]
struct WorkloadSpec {
    jobs: Vec<(u32 /* phases */, u32 /* parallelism */, i32 /* priority */)>,
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    proptest::collection::vec((1u32..4, 1u32..5, 0i32..3), 1..5)
        .prop_map(|jobs| WorkloadSpec { jobs })
}

/// Drives the scheduler to completion by always finishing the
/// longest-running (or rng-chosen) instance next; checks invariants at
/// every step. Returns the per-job completed task counts.
fn drive(
    mut sched: TaskScheduler,
    expect_work_conserving: bool,
    seed: u64,
) -> HashMap<u64, u64> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut completed: HashMap<u64, u64> = HashMap::new();
    let mut now_us: u64 = 0;
    let mut steps = 0;
    loop {
        steps += 1;
        assert!(steps < 10_000, "scheduler did not drain");
        let assignments = sched.resource_offers(SimTime::from_micros(now_us));

        // Invariant 2: an assignment onto a previously reserved slot must
        // have been approved — we verify the consequence: the running task
        // per slot is unique (slot table enforces) and snapshots are
        // consistent.
        let (free, running, reserved) = sched.slot_pool().counts();
        assert_eq!(
            free + running + reserved,
            sched.slot_pool().len(),
            "slot accounting broken"
        );

        // Invariant 3: work conservation — no free slot while some job has
        // a pending task (locality wait disabled in these runs).
        if expect_work_conserving {
            let pending: u64 = sched
                .jobs()
                .iter()
                .filter(|j| !j.is_complete())
                .flat_map(|j| j.active_tasksets())
                .map(|t| t.pending_count() as u64)
                .sum();
            if pending > 0 {
                assert_eq!(
                    sched.slot_pool().free_slots().count(),
                    0,
                    "work-conserving left {pending} tasks backlogged with free slots"
                );
            }
        }

        let running_slots: Vec<SlotId> = sched.running_instances().map(|(s, _)| s).collect();
        if running_slots.is_empty() {
            assert!(assignments.is_empty(), "assignments without running instances");
            break;
        }
        // Finish a random running instance; time advances strictly.
        now_us += 1 + rng.next_below(1_000_000);
        let victim = running_slots[rng.index(running_slots.len())];
        let outcome = sched.task_finished(victim, SimTime::from_micros(now_us));
        *completed.entry(outcome.instance.task.job.as_u64()).or_insert(0) += 1;
    }
    completed
}

fn build_scheduler(
    spec: &WorkloadSpec,
    policy: Box<dyn ReservationPolicy>,
) -> (TaskScheduler, Vec<u64>) {
    let mut sched = TaskScheduler::new(
        ClusterSpec::new(2, 3).expect("valid cluster"),
        LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
        policy,
        Box::new(ssr::scheduler::FifoPriority),
    );
    let mut expected = Vec::new();
    for (i, &(phases, parallelism, priority)) in spec.jobs.iter().enumerate() {
        let mut b = JobSpecBuilder::new(format!("job{i}")).priority(Priority::new(priority));
        for p in 0..phases {
            b = b.stage(format!("s{p}"), parallelism, constant(1.0));
        }
        let job = b.chain().build().expect("valid job");
        expected.push(job.total_tasks());
        sched.submit(job, SimTime::ZERO);
    }
    (sched, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Work-conserving: drains, conserves work, every task completes once.
    #[test]
    fn work_conserving_invariants(spec in workload_strategy(), seed in 0u64..10_000) {
        let (sched, expected) = build_scheduler(&spec, Box::new(WorkConserving));
        let completed = drive(sched, true, seed);
        for (i, &total) in expected.iter().enumerate() {
            prop_assert_eq!(
                completed.get(&(i as u64)).copied().unwrap_or(0),
                total,
                "job{} task count", i
            );
        }
    }

    /// SSR: drains, completes every task exactly once, and leaks no
    /// reservations once all jobs finish.
    #[test]
    fn ssr_invariants(spec in workload_strategy(), seed in 0u64..10_000) {
        let (sched, expected) = build_scheduler(
            &spec,
            Box::new(SpeculativeReservation::new()),
        );
        // Keep a second handle to inspect after draining: drive consumes
        // nothing, it returns the scheduler implicitly via closure... we
        // re-create to keep the API simple and inspect a fresh drain.
        let (sched2, _) = build_scheduler(&spec, Box::new(SpeculativeReservation::new()));
        let completed = drive(sched, false, seed);
        for (i, &total) in expected.iter().enumerate() {
            prop_assert_eq!(
                completed.get(&(i as u64)).copied().unwrap_or(0),
                total,
                "job{} task count", i
            );
        }
        // Drain again and check the final slot table directly.
        let mut sched2 = sched2;
        let mut rng = SimRng::seed_from_u64(seed);
        let mut now_us = 0u64;
        let mut steps = 0;
        loop {
            steps += 1;
            prop_assert!(steps < 10_000);
            sched2.resource_offers(SimTime::from_micros(now_us));
            let running: Vec<SlotId> = sched2.running_instances().map(|(s, _)| s).collect();
            if running.is_empty() {
                break;
            }
            now_us += 1 + rng.next_below(1_000_000);
            let victim = running[rng.index(running.len())];
            sched2.task_finished(victim, SimTime::from_micros(now_us));
        }
        prop_assert!(!sched2.has_unfinished_jobs());
        let (free, running, reserved) = sched2.slot_pool().counts();
        prop_assert_eq!((free, running, reserved), (6, 0, 0), "reservations leaked");
    }

    /// Reserved slots protect priority: while a high-priority two-phase
    /// job holds reservations, no lower-priority task ever starts on them.
    #[test]
    fn reservations_respect_priority(seed in 0u64..10_000, bg_tasks in 1u32..12) {
        let mut sched = TaskScheduler::new(
            ClusterSpec::new(1, 4).expect("valid cluster"),
            LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
            Box::new(SpeculativeReservation::new()),
            Box::new(ssr::scheduler::FifoPriority),
        );
        let fg = JobSpecBuilder::new("fg")
            .priority(Priority::new(10))
            .stage("up", 4, constant(1.0))
            .stage("down", 4, constant(1.0))
            .chain()
            .build()
            .expect("valid job");
        let bg = JobSpecBuilder::new("bg")
            .priority(Priority::new(0))
            .stage("map", bg_tasks, constant(1.0))
            .build()
            .expect("valid job");
        let fg_id = sched.submit(fg, SimTime::ZERO);
        sched.submit(bg, SimTime::ZERO);

        let mut rng = SimRng::seed_from_u64(seed);
        let mut now_us = 0u64;
        let mut steps = 0;
        while sched.has_unfinished_jobs() {
            steps += 1;
            prop_assert!(steps < 1000);
            // Core invariant: a slot reserved for fg before the offer
            // round must never be handed to the lower-priority job
            // (nothing outranks fg here, so only fg may consume them).
            let reserved_before: std::collections::HashSet<SlotId> =
                sched.slot_pool().reserved_for(fg_id).collect();
            let assignments = sched.resource_offers(SimTime::from_micros(now_us));
            for a in &assignments {
                if a.instance.task.job != fg_id {
                    prop_assert!(
                        !reserved_before.contains(&a.slot),
                        "bg task placed on {} which was reserved for fg",
                        a.slot
                    );
                }
            }
            let running: Vec<SlotId> = sched.running_instances().map(|(s, _)| s).collect();
            if running.is_empty() {
                break;
            }
            now_us += 1 + rng.next_below(500_000);
            let victim = running[rng.index(running.len())];
            sched.task_finished(victim, SimTime::from_micros(now_us));
        }
        // After fg completes, its reservations are gone.
        prop_assert_eq!(sched.slot_pool().reserved_for(fg_id).count(), 0);
    }
}

/// One randomized fault: every kind the plan language supports, with
/// parameters bounded so the 2x2 cluster always retains capacity (crashes
/// and restarts heal; only node-0 slots can be permanently revoked, so
/// node 1 keeps the run drainable).
fn fault_strategy() -> impl Strategy<Value = (f64, FaultKind)> {
    let at = 0.0f64..40.0;
    prop_oneof![
        (at.clone(), 0u32..2, 0.5f64..10.0).prop_map(|(at, node, down)| {
            (at, FaultKind::NodeCrash { node, down: Some(SimDuration::from_secs_f64(down)) })
        }),
        (at.clone(), 0u32..2).prop_map(|(at, slot)| (at, FaultKind::SlotRevocation { slot })),
        (at.clone(), 0u32..2, 0.5f64..8.0).prop_map(|(at, node, secs)| {
            (at, FaultKind::NetworkPartition { node, secs: SimDuration::from_secs_f64(secs) })
        }),
        (at.clone(), 1.2f64..4.0, 0.5f64..10.0).prop_map(|(at, factor, secs)| {
            (at, FaultKind::StragglerStorm { factor, secs: SimDuration::from_secs_f64(secs) })
        }),
        (at, 0u32..2, 0.5f64..5.0, 0.5f64..5.0, 1.2f64..3.0).prop_map(
            |(at, node, down, rampup, cold_factor)| {
                (
                    at,
                    FaultKind::ExecutorRestart {
                        node,
                        down: SimDuration::from_secs_f64(down),
                        rampup: SimDuration::from_secs_f64(rampup),
                        cold_factor,
                    },
                )
            }
        ),
    ]
}

/// Runs the contended two-job scenario with `plan` injected, returning
/// whether the run drained and the full decision-event stream.
fn run_faulted(policy: PolicyConfig, plan: FaultPlan, seed: u64) -> (bool, Vec<TraceEvent>) {
    let fg = JobSpecBuilder::new("fg")
        .priority(Priority::new(10))
        .stage("up", 4, constant(2.0))
        .stage("down", 2, constant(3.0))
        .chain()
        .build()
        .expect("valid job");
    let bg = JobSpecBuilder::new("bg")
        .priority(Priority::new(0))
        .stage("map", 8, constant(5.0))
        .build()
        .expect("valid job");
    let config = SimConfig::new(ClusterSpec::new(2, 2).expect("valid cluster"))
        .with_locality(LocalityModel::paper_simulation().with_wait(SimDuration::ZERO))
        .with_seed(seed)
        .with_faults(plan);
    let (report, events) =
        Simulation::new(config, policy, OrderConfig::FifoPriority, vec![fg, bg]).run_recorded();
    (report.completed, events)
}

/// Deterministic regression: the §II-B "case 1" scenario — the freed slot
/// goes to the backlogged job and the barrier waits for it.
#[test]
fn regression_barrier_gives_up_slot_exact_timing() {
    let mut sched = TaskScheduler::new(
        ClusterSpec::new(1, 2).unwrap(),
        LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
        Box::new(WorkConserving),
        Box::new(ssr::scheduler::FifoPriority),
    );
    let fg = JobSpecBuilder::new("fg")
        .priority(Priority::new(10))
        .stage("up", 2, constant(1.0))
        .stage("down", 2, constant(1.0))
        .chain()
        .build()
        .unwrap();
    let bg = JobSpecBuilder::new("bg")
        .priority(Priority::new(0))
        .stage("map", 1, constant(100.0))
        .build()
        .unwrap();
    let fg_id = sched.submit(fg, SimTime::ZERO);
    let bg_id = sched.submit(bg, SimTime::ZERO);
    let a = sched.resource_offers(SimTime::ZERO);
    assert_eq!(a.len(), 2);
    assert!(a.iter().all(|x| x.instance.task.job == fg_id));

    // First up task finishes at t=1: slot goes to bg (work conservation).
    sched.task_finished(a[0].slot, SimTime::from_secs(1));
    let b = sched.resource_offers(SimTime::from_secs(1));
    assert_eq!(b.len(), 1);
    assert_eq!(b[0].instance.task.job, bg_id);

    // Second up task finishes at t=2: barrier cleared, but only one slot
    // is available — the other is held by the 100 s bg task.
    sched.task_finished(a[1].slot, SimTime::from_secs(2));
    let c = sched.resource_offers(SimTime::from_secs(2));
    assert_eq!(c.len(), 1);
    assert_eq!(c[0].instance.task.job, fg_id);
    assert_eq!(sched.running_count_for(fg_id), 1, "half the phase is starved");
    assert_eq!(sched.running_count_for(bg_id), 1);
}

/// Checks the speculation invariants on a full simulation's decision
/// trace: per (job, stage, partition) exactly one attempt finishes, every
/// kill happens the instant the winner completes, no attempt outlives the
/// winner, and the report's copy/kill counters agree with the trace.
/// Panics on violation (the proptest harness reports the inputs).
fn assert_speculation_trace_invariants(report: &SimReport, events: &[TraceEvent]) {
    use ssr_trace::TraceEventKind as K;
    assert!(report.completed, "run must drain before auditing its trace");
    /// (job, stage, partition).
    type TaskKey = (u64, u32, u32);
    /// How one attempt ended.
    struct Ended {
        attempt: u32,
        end_secs: f64,
        outcome: &'static str,
    }
    // Each attempt ends with the finish, kill or crash event that frees
    // the slot it was launched on.
    let mut open: HashMap<u32, (TaskKey, u32)> = HashMap::new();
    let mut groups: HashMap<TaskKey, Vec<Ended>> = HashMap::new();
    for e in events {
        let (slot, outcome) = match &e.kind {
            K::TaskLaunched { slot, job, stage, partition, attempt, .. } => {
                open.insert(*slot, ((job.as_u64(), stage.as_u32(), *partition), *attempt));
                continue;
            }
            K::TaskFinished { slot, .. } => (slot, "finished"),
            K::CopyKilled { slot, .. } => (slot, "killed"),
            K::TaskCrashed { slot, .. } => (slot, "crashed"),
            _ => continue,
        };
        let (key, attempt) = open.remove(slot).expect("the freed slot ran an attempt");
        let end_secs = e.time.as_secs_f64();
        groups.entry(key).or_default().push(Ended { attempt, end_secs, outcome });
    }
    for ((job, stage, partition), attempts) in &groups {
        let winners: Vec<_> = attempts.iter().filter(|a| a.outcome == "finished").collect();
        assert_eq!(
            winners.len(),
            1,
            "{job}/{stage}/{partition} must finish exactly once over {} attempts",
            attempts.len()
        );
        let winner_end = winners[0].end_secs;
        for &Ended { attempt, end_secs, outcome } in attempts {
            assert!(
                end_secs <= winner_end + 1e-9,
                "{job}/{stage}/{partition} attempt {attempt} outlived the winner \
                 ({end_secs} > {winner_end})"
            );
            if outcome == "killed" {
                assert!(
                    (end_secs - winner_end).abs() < 1e-9,
                    "{job}/{stage}/{partition} attempt {attempt} was killed at {end_secs}, \
                     not at the winner's finish {winner_end}"
                );
            }
        }
    }
    let speculative =
        events.iter().filter(|e| matches!(e.kind, K::TaskLaunched { speculative: true, .. }));
    assert_eq!(
        speculative.count() as u64,
        report.speculative_copies,
        "speculative launches in the trace must match the launched-copy counter"
    );
    let killed = events.iter().filter(|e| matches!(e.kind, K::CopyKilled { .. }));
    assert_eq!(
        killed.count() as u64,
        report.kills,
        "copy kills in the trace must match the kill counter"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Status-quo progress-based speculation (§IV-C's comparison point):
    /// whatever quantile/multiplier it runs with, a speculative copy never
    /// outlives its original's completion — the loser is killed the
    /// instant the winner finishes — and every task still completes
    /// exactly once.
    #[test]
    fn speculative_copies_never_outlive_the_winner(
        seed in 0u64..10_000,
        quantile in 0.1f64..0.9,
        multiplier in 1.05f64..3.0,
    ) {
        let job = pareto_pipeline("fg", 2, 8, 1.0, 1.2, Priority::new(10))
            .expect("valid job");
        let speculation = SpeculationConfig::spark_defaults()
            .with_quantile(quantile)
            .with_multiplier(multiplier);
        let (report, events) = Simulation::new(
            SimConfig::new(ClusterSpec::new(2, 4).expect("valid cluster"))
                .with_seed(seed)
                .with_speculation(speculation),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            vec![job],
        )
        .run_recorded();
        assert_speculation_trace_invariants(&report, &events);
    }

    /// The same invariants hold for the paper's own straggler mitigation
    /// (copies on the job's reserved slots, §IV-C).
    #[test]
    fn ssr_straggler_copies_never_outlive_the_winner(seed in 0u64..10_000) {
        let job = pareto_pipeline("fg", 2, 8, 1.0, 1.2, Priority::new(10))
            .expect("valid job");
        let (report, events) = Simulation::new(
            SimConfig::new(ClusterSpec::new(2, 4).expect("valid cluster")).with_seed(seed),
            PolicyConfig::ssr_strict_with_stragglers(),
            OrderConfig::FifoPriority,
            vec![job],
        )
        .run_recorded();
        assert_speculation_trace_invariants(&report, &events);
    }

    /// `SpeculationConfig::threshold`: no copy is considered below the
    /// completion quantile, and past it the threshold is exactly
    /// `multiplier × median` — monotone in the multiplier.
    #[test]
    fn speculation_threshold_respects_quantile_and_median(
        quantile in 0.0f64..=1.0,
        multiplier in 1.0f64..4.0,
        durations in proptest::collection::vec(0.1f64..100.0, 1..20),
        parallelism in 1u32..32,
    ) {
        let config = SpeculationConfig::spark_defaults()
            .with_quantile(quantile)
            .with_multiplier(multiplier);
        let fraction = durations.len() as f64 / f64::from(parallelism);
        match config.threshold(&durations, parallelism) {
            None => prop_assert!(
                fraction < quantile,
                "threshold withheld although {fraction:.3} of the phase completed"
            ),
            Some(t) => {
                prop_assert!(fraction >= quantile);
                let median = ssr::simcore::stats::percentile(&durations, 0.5);
                prop_assert!((t - multiplier * median).abs() < 1e-9);
                let stricter = config.with_multiplier(multiplier + 1.0);
                let t2 = stricter.threshold(&durations, parallelism)
                    .expect("same quantile, same completions");
                prop_assert!(t2 >= t, "threshold must be monotone in the multiplier");
            }
        }
    }

    /// Any randomized fault plan, against any reservation policy: the
    /// trace satisfies every `ssr-check` protocol invariant, the workload
    /// still drains (the plan's bounds guarantee surviving capacity), and
    /// the faulted run replays byte-identically — faults are data, not
    /// randomness.
    #[test]
    fn random_fault_plans_keep_every_protocol_invariant(
        seed in 0u64..10_000,
        faults in proptest::collection::vec(fault_strategy(), 0..5),
        policy_idx in 0usize..3,
    ) {
        let mut plan = FaultPlan::new();
        for (at, kind) in &faults {
            plan.push(SimTime::from_secs_f64(*at), kind.clone());
        }
        let policy = match policy_idx {
            0 => PolicyConfig::WorkConserving,
            1 => PolicyConfig::ssr_strict(),
            _ => PolicyConfig::Timeout(SimDuration::from_secs(15)),
        };
        let (completed, events) = run_faulted(policy.clone(), plan.clone(), seed);
        let report = ssr::check::InvariantChecker::new().check_all(&events);
        prop_assert!(report.is_clean(), "{:?}:\n{}", policy, report.render_text());
        prop_assert!(completed, "{:?}: the surviving node must drain the workload", policy);
        let (_, replay) = run_faulted(policy, plan, seed);
        prop_assert_eq!(&events, &replay, "faulted runs must replay identically");
    }

    /// Per-trial RNG streams: `SimRng::stream(root, index)` is a pure
    /// function of its arguments, and distinct trial indices observe
    /// distinct streams (no repetition accidentally replays another's
    /// randomness).
    #[test]
    fn trial_rng_streams_are_pure_and_independent(
        root in 0u64..u64::MAX,
        i in 0u64..1_000,
        j in 0u64..1_000,
    ) {
        let draws = |mut rng: SimRng| -> Vec<u64> {
            (0..64).map(|_| rng.next_u64()).collect()
        };
        // Pure: reconstructing the stream replays it exactly.
        prop_assert_eq!(
            draws(SimRng::stream(root, i)),
            draws(SimRng::stream(root, i))
        );
        // Independent: any two distinct indices diverge within 64 draws.
        if i != j {
            prop_assert_ne!(
                draws(SimRng::stream(root, i)),
                draws(SimRng::stream(root, j)),
                "indices {} and {} of root {:#x} shared a stream", i, j, root
            );
        }
    }
}

/// The delay-scheduling wakeup as a full walk over every job and task
/// set — the reference the scheduler's windowed index must reproduce.
fn reference_next_locality_unlock(sched: &TaskScheduler, now: SimTime) -> Option<SimTime> {
    let mut next: Option<SimTime> = None;
    for job in sched.jobs().iter().filter(|j| !j.is_complete()) {
        for tsm in job.active_tasksets() {
            if !tsm.has_pending() {
                continue;
            }
            let elapsed = now.saturating_since(tsm.ready_since());
            if let Some(unlock) = sched.locality().next_unlock_after(elapsed) {
                let at = tsm.ready_since() + unlock;
                next = Some(next.map_or(at, |n| n.min(at)));
            }
        }
    }
    next
}

/// One event of the miniature driver below.
#[derive(Debug, Clone, Copy)]
enum DriverEvent {
    Arrive(usize),
    Finish { slot: SlotId, token: u64 },
    Fault(usize),
    Heal(usize),
    Expire,
    Wake,
}

/// Drives `sched` through arrivals, task finishes (durations drawn from
/// `seed`), the crashes and partitions of `plan` with their heals,
/// reservation expiries and locality wakeups, in time order. After every
/// event it runs an offer round and checks the indexed queries against
/// their full-walk references. Returns `true` if every job completed.
fn drive_with_unlock_checks(
    mut sched: TaskScheduler,
    jobs: Vec<(SimTime, ssr::dag::JobSpec)>,
    plan: &FaultPlan,
    seed: u64,
) -> bool {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut events: BTreeMap<(SimTime, u64), DriverEvent> = BTreeMap::new();
    let mut seq = 0u64;
    let mut push = |events: &mut BTreeMap<(SimTime, u64), DriverEvent>, at, ev| {
        events.insert((at, seq), ev);
        seq += 1;
    };
    for (i, (at, _)) in jobs.iter().enumerate() {
        push(&mut events, *at, DriverEvent::Arrive(i));
    }
    for (i, fault) in plan.events().iter().enumerate() {
        push(&mut events, fault.at, DriverEvent::Fault(i));
    }
    let spec = *sched.cluster_spec();
    let node_slots = |node: u32| -> Vec<SlotId> {
        spec.iter_slots().filter(|&s| spec.node_of(s).as_u32() == node).collect()
    };
    let mut tokens = vec![0u64; spec.total_slots() as usize];
    let mut scheduled_unlock: Option<SimTime> = None;
    let mut scheduled_expiry: Option<SimTime> = None;
    let mut steps = 0;
    while let Some(((now, _), event)) = events.pop_first() {
        steps += 1;
        assert!(steps < 50_000, "driver did not drain");
        match event {
            DriverEvent::Arrive(i) => {
                sched.submit(jobs[i].1.clone(), now);
            }
            DriverEvent::Finish { slot, token } => {
                if tokens[slot.index()] != token {
                    continue; // killed by a crash or a winning copy
                }
                tokens[slot.index()] += 1;
                let outcome = sched.task_finished(slot, now);
                for killed in outcome.killed {
                    tokens[killed.index()] += 1;
                }
            }
            DriverEvent::Fault(i) => match plan.events()[i].kind {
                FaultKind::NodeCrash { node, down } => {
                    let outcome = sched.fail_slots(&node_slots(node), now, true, "crash");
                    for killed in outcome.killed {
                        tokens[killed.index()] += 1;
                    }
                    if let Some(down) = down {
                        push(&mut events, now + down, DriverEvent::Heal(i));
                    }
                }
                FaultKind::NetworkPartition { node, secs } => {
                    sched.fail_slots(&node_slots(node), now, false, "partition");
                    push(&mut events, now + secs, DriverEvent::Heal(i));
                }
                ref other => panic!("driver does not inject {other:?}"),
            },
            DriverEvent::Heal(i) => {
                let node = match plan.events()[i].kind {
                    FaultKind::NodeCrash { node, .. }
                    | FaultKind::NetworkPartition { node, .. } => node,
                    ref other => panic!("driver does not heal {other:?}"),
                };
                sched.restore_slots(&node_slots(node), now);
            }
            DriverEvent::Expire => {
                scheduled_expiry = None;
                sched.expire_reservations(now);
            }
            DriverEvent::Wake => scheduled_unlock = None,
        }
        for a in sched.resource_offers(now) {
            let secs = 0.5 + 5.5 * rng.f64();
            let at = now + SimDuration::from_secs_f64(secs);
            let token = tokens[a.slot.index()];
            push(&mut events, at, DriverEvent::Finish { slot: a.slot, token });
        }
        if let Some(expiry) = sched.next_reservation_expiry() {
            let wake = expiry.max(now);
            if scheduled_expiry.is_none_or(|s| wake < s) {
                push(&mut events, wake, DriverEvent::Expire);
                scheduled_expiry = Some(wake);
            }
        }
        let reference = reference_next_locality_unlock(&sched, now);
        let indexed = sched.next_locality_unlock(now);
        assert_eq!(indexed, reference, "next_locality_unlock diverged at {now:?} after {event:?}");
        assert_eq!(
            sched.has_unfinished_jobs(),
            sched.jobs().iter().any(|j| !j.is_complete()),
            "has_unfinished_jobs diverged at {now:?}"
        );
        if let Some(unlock) = indexed {
            let wake = unlock.max(now);
            if scheduled_unlock.is_none_or(|s| wake < s) {
                push(&mut events, wake, DriverEvent::Wake);
                scheduled_unlock = Some(wake);
            }
        }
    }
    !sched.has_unfinished_jobs()
}

/// A crash (healing after `down`) or a partition of one of three nodes.
fn crash_or_partition_strategy() -> impl Strategy<Value = (f64, FaultKind)> {
    let at = 0.0f64..60.0;
    prop_oneof![
        (at.clone(), 0u32..3, 0.5f64..12.0).prop_map(|(at, node, down)| {
            (at, FaultKind::NodeCrash { node, down: Some(SimDuration::from_secs_f64(down)) })
        }),
        (at, 0u32..3, 0.5f64..8.0).prop_map(|(at, node, secs)| {
            (at, FaultKind::NetworkPartition { node, secs: SimDuration::from_secs_f64(secs) })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The windowed locality-unlock index equals the full jobs × task
    /// sets walk after every event — arrivals, finishes, expiries,
    /// wakeups, crashes that requeue running tasks, partitions and heals
    /// — under the paper's 3 s locality wait, for every job order and
    /// reservation policy.
    #[test]
    fn indexed_locality_unlock_matches_full_walk(
        jobs in proptest::collection::vec(
            (1u32..4, 1u32..6, 0i32..3, 0.0f64..40.0),
            1..8,
        ),
        faults in proptest::collection::vec(crash_or_partition_strategy(), 0..5),
        policy_index in 0usize..3,
        order_index in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let policy: Box<dyn ReservationPolicy> = match policy_index {
            0 => Box::new(WorkConserving),
            1 => Box::new(SpeculativeReservation::new()),
            _ => Box::new(ssr::scheduler::TimeoutReservation::new(SimDuration::from_secs(10))),
        };
        let order: Box<dyn ssr::scheduler::JobOrder> = match order_index {
            0 => Box::new(ssr::scheduler::FifoPriority),
            1 => Box::new(ssr::scheduler::Fifo),
            _ => Box::new(ssr::scheduler::Fair),
        };
        let sched = TaskScheduler::new(
            ClusterSpec::new(3, 2).expect("valid cluster"),
            LocalityModel::paper_simulation(),
            policy,
            order,
        );
        let specs: Vec<(SimTime, ssr::dag::JobSpec)> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(phases, parallelism, priority, arrival))| {
                let mut b =
                    JobSpecBuilder::new(format!("job{i}")).priority(Priority::new(priority));
                for p in 0..phases {
                    b = b.stage(format!("s{p}"), parallelism, constant(1.0));
                }
                (SimTime::from_secs_f64(arrival), b.chain().build().expect("valid job"))
            })
            .collect();
        let mut plan = FaultPlan::new();
        for (at, kind) in &faults {
            plan.push(SimTime::from_secs_f64(*at), kind.clone());
        }
        prop_assert!(
            drive_with_unlock_checks(sched, specs, &plan, seed),
            "every job must complete once the faults heal"
        );
    }
}
