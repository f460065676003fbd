//! Same-timestamp event-ordering regression tests.
//!
//! The simulation queue breaks time ties by insertion order (FIFO). These
//! tests pin the user-visible consequences of that rule at the one place it
//! matters most: a reservation expiry colliding with a task finish (and the
//! offer round it triggers) at the same `SimTime`. If the tie-break ever
//! drifts — a different queue discipline, a reordered wakeup push — the
//! byte-identity assertions here catch it.

use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_dag::Priority;
use ssr_sim::{FaultKind, FaultPlan, OrderConfig, PolicyConfig, SimConfig, Simulation};
use ssr_simcore::dist::constant;
use ssr_simcore::{SimDuration, SimTime};
use ssr_trace::{JsonlSink, TraceEventKind};
use ssr_workload::synthetic::{map_only, pipeline_of};

/// Cluster of 1 node x 3 slots where, under a 30 s timeout-reservation
/// policy, three things collide at t = 31 s:
///
/// - a background task (launched at t = 0, 31 s long) finishes,
/// - the foreground's idle reservation (granted at t = 1) expires,
/// - and each triggers an offer round.
///
/// Timeline: fg's two up-tasks run on slots 0-1 and finish at t = 1; both
/// freed slots are reserved for fg with deadline 31. The single down-task
/// consumes slot 0; slot 1's reservation idles (the background's priority
/// is too low to be approved). The background task on slot 2 finishes at
/// exactly t = 31 — the same instant the slot-1 reservation lapses.
fn collision_sim() -> Simulation {
    let fg = pipeline_of(
        "fg",
        &[(2, constant(1.0)), (1, constant(40.0))],
        Priority::new(10),
        SimTime::ZERO,
    )
    .unwrap();
    let bg = map_only("bg", 3, constant(31.0), Priority::new(0)).unwrap();
    let config = SimConfig::new(ClusterSpec::new(1, 3).unwrap())
        .with_locality(LocalityModel::paper_simulation().with_wait(SimDuration::ZERO))
        .with_seed(11);
    Simulation::new(
        config,
        PolicyConfig::Timeout(SimDuration::from_secs(30)),
        OrderConfig::FifoPriority,
        vec![fg, bg],
    )
}

#[test]
fn colliding_expiry_and_finish_replay_byte_identically() {
    let run = || {
        let (report, sink) =
            collision_sim().with_trace_sink(Box::new(JsonlSink::new())).run_traced();
        let jsonl = sink
            .expect("sink attached")
            .into_any()
            .downcast::<JsonlSink>()
            .expect("JsonlSink recovered")
            .finish();
        (serde_json::to_string_pretty(&report).unwrap(), jsonl)
    };
    let (report_a, trace_a) = run();
    let (report_b, trace_b) = run();
    assert_eq!(report_a, report_b, "same-seed reports must be byte-identical");
    assert_eq!(trace_a, trace_b, "same-seed decision traces must be byte-identical");
    // The collision actually happened: the trace holds an expiry at t=31.
    assert!(
        trace_a.contains(r#""event":"reservation-expired""#),
        "scenario must produce a reservation expiry"
    );
}

#[test]
fn finish_processes_before_expiry_at_equal_time() {
    let (report, events) = collision_sim().run_recorded();
    assert!(report.completed);

    let t31 = SimTime::from_secs(31);
    let finish_idx = events
        .iter()
        .position(|e| e.time == t31 && matches!(e.kind, TraceEventKind::TaskFinished { .. }))
        .expect("a task finishes at t=31");
    let expiry_idx = events
        .iter()
        .position(|e| e.time == t31 && matches!(e.kind, TraceEventKind::ReservationExpired { .. }))
        .expect("a reservation expires at t=31");
    // The finish event was queued at t=0, the expiry wakeup at t=1: FIFO
    // tie-break processes the finish (and its offer round) first.
    assert!(
        finish_idx < expiry_idx,
        "task finish must process before reservation expiry at the same instant"
    );
    // The expired slot is only handed out *after* the expiry: the launch
    // onto it appears later in the stream.
    let expired_slot = match events[expiry_idx].kind {
        TraceEventKind::ReservationExpired { slot, .. } => slot,
        _ => unreachable!(),
    };
    let launch_on_expired = events
        .iter()
        .position(|e| {
            e.time == t31
                && matches!(e.kind, TraceEventKind::TaskLaunched { slot, .. } if slot == expired_slot)
        })
        .expect("the freed slot is re-used in the same instant");
    assert!(
        expiry_idx < launch_on_expired,
        "the lapsed slot can only be claimed after its expiry processed"
    );
    // Between the finish and the expiry, the freed-but-still-reserved slot
    // denied the backlogged background job at least once.
    assert!(
        events[..expiry_idx]
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::OfferDeclined { .. })),
        "the idle reservation must deny the background job before expiring"
    );
}

/// The same collision with a third collider: a slot revocation strikes
/// slot 1 at exactly t = 31, the instant its idle reservation would
/// lapse (and the background task finishes). Fault events are queued at
/// simulation construction — before any task finish or expiry wakeup can
/// be pushed — so the FIFO tie-break processes the revocation first.
fn revocation_collision_sim() -> Simulation {
    let fg = pipeline_of(
        "fg",
        &[(2, constant(1.0)), (1, constant(40.0))],
        Priority::new(10),
        SimTime::ZERO,
    )
    .unwrap();
    let bg = map_only("bg", 3, constant(31.0), Priority::new(0)).unwrap();
    let faults = FaultPlan::new()
        .with(SimTime::from_secs(31), FaultKind::SlotRevocation { slot: 1 });
    let config = SimConfig::new(ClusterSpec::new(1, 3).unwrap())
        .with_locality(LocalityModel::paper_simulation().with_wait(SimDuration::ZERO))
        .with_seed(11)
        .with_faults(faults);
    Simulation::new(
        config,
        PolicyConfig::Timeout(SimDuration::from_secs(30)),
        OrderConfig::FifoPriority,
        vec![fg, bg],
    )
}

#[test]
fn revocation_preempts_expiry_at_equal_time() {
    let (report, events) = revocation_collision_sim().run_recorded();
    assert!(report.completed, "losing one of three slots must not wedge the run");

    let t31 = SimTime::from_secs(31);
    // The construction-queued fault wins every t=31 tie: the revocation
    // processes before the background finish (pushed at dispatch, t=0)
    // and before the expiry wakeup (pushed at grant, t=1).
    let revoked_idx = events
        .iter()
        .position(|e| {
            e.time == t31
                && matches!(e.kind, TraceEventKind::ReservationRevoked { slot: 1, .. })
        })
        .expect("the fault revokes slot 1's reservation at t=31");
    let finish_idx = events
        .iter()
        .position(|e| e.time == t31 && matches!(e.kind, TraceEventKind::TaskFinished { .. }))
        .expect("a task still finishes at t=31");
    assert!(
        revoked_idx < finish_idx,
        "the construction-queued fault must process before the task finish"
    );
    assert!(
        events.iter().any(|e| {
            e.time == t31
                && matches!(e.kind, TraceEventKind::SlotOffline { slot: 1, cause: "revocation" })
        }),
        "the revoked slot leaves service in the same instant"
    );
    // The expiry wakeup still fires at t=31, but the reservation is gone:
    // expiring an already-revoked slot is a no-op, not a double release.
    assert!(
        !events.iter().any(|e| matches!(e.kind, TraceEventKind::ReservationExpired { .. })),
        "a revoked reservation must not also expire"
    );
}

#[test]
fn revocation_collision_replays_byte_identically() {
    let run = || {
        let (report, sink) =
            revocation_collision_sim().with_trace_sink(Box::new(JsonlSink::new())).run_traced();
        let jsonl = sink
            .expect("sink attached")
            .into_any()
            .downcast::<JsonlSink>()
            .expect("JsonlSink recovered")
            .finish();
        (serde_json::to_string_pretty(&report).unwrap(), jsonl)
    };
    let (report_a, trace_a) = run();
    let (report_b, trace_b) = run();
    assert_eq!(report_a, report_b, "same-plan reports must be byte-identical");
    assert_eq!(trace_a, trace_b, "same-plan decision traces must be byte-identical");
    assert!(
        trace_a.contains(r#""event":"reservation-revoked""#),
        "scenario must produce the revocation"
    );
}
