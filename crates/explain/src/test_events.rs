//! Shared test fixture: one event of every [`TraceEventKind`] variant.
//!
//! The construction below and the witness in [`assert_covers_schema`] both
//! match the enum exhaustively (no wildcard arm), so adding a variant to
//! `ssr-trace` fails compilation here until the reader, the fixture and the
//! schema constant are all updated together.

use ssr_dag::{JobId, Priority, StageId};
use ssr_simcore::SimTime;
use ssr_trace::{DenyReason, StageMeta, TraceEvent, TraceEventKind};

/// Compile-time exhaustiveness witness: one arm per variant, no wildcard.
///
/// Returns the schema event name so tests can also check runtime coverage.
pub(crate) fn assert_covers_schema(kind: &TraceEventKind) -> &'static str {
    use TraceEventKind as K;
    match kind {
        K::JobSubmitted { .. } => "job-submitted",
        K::OfferRoundStarted { .. } => "offer-round-started",
        K::OfferRoundEnded { .. } => "offer-round-ended",
        K::OfferDeclined { .. } => "offer-declined",
        K::TaskLaunched { .. } => "task-launched",
        K::TaskFinished { .. } => "task-finished",
        K::CopyKilled { .. } => "copy-killed",
        K::ReservationGranted { .. } => "reservation-granted",
        K::PrereserveFilled { .. } => "prereserve-filled",
        K::ReservationExpired { .. } => "reservation-expired",
        K::ReservationReleased { .. } => "reservation-released",
        K::StaleReservationReleased { .. } => "stale-reservation-released",
        K::BarrierCleared { .. } => "barrier-cleared",
        K::StageCompleted { .. } => "stage-completed",
        K::JobCompleted { .. } => "job-completed",
        K::LocalityUnlocked => "locality-unlocked",
        K::TaskCrashed { .. } => "task-crashed",
        K::ReservationRevoked { .. } => "reservation-revoked",
        K::SlotOffline { .. } => "slot-offline",
        K::SlotOnline { .. } => "slot-online",
    }
}

/// A deterministic event stream containing exactly one event per variant,
/// with optional fields populated (and `None` cases covered by the reader's
/// schema-v1 test).
pub(crate) fn one_of_each() -> Vec<TraceEvent> {
    let job = JobId::new(5);
    let stage0 = StageId::new(0);
    let stage1 = StageId::new(1);
    let at = |s: f64, kind: TraceEventKind| TraceEvent::new(SimTime::from_secs_f64(s), kind);
    vec![
        at(
            0.0,
            TraceEventKind::JobSubmitted {
                job,
                name: "fixture".into(),
                priority: Priority::new(-2),
                stages: vec![
                    StageMeta { tasks: 3, parents: vec![] },
                    StageMeta { tasks: 1, parents: vec![stage0] },
                ],
            },
        ),
        at(0.0, TraceEventKind::OfferRoundStarted { free: 2, running: 1, reserved: 1 }),
        at(
            0.0,
            TraceEventKind::OfferDeclined {
                job,
                reason: DenyReason::ReservationDenied,
                stage: Some(stage0),
            },
        ),
        at(
            0.0,
            TraceEventKind::TaskLaunched {
                slot: 3,
                job,
                stage: stage0,
                partition: 2,
                attempt: 1,
                level: "RACK_LOCAL",
                speculative: true,
                warm: true,
            },
        ),
        at(0.0, TraceEventKind::OfferRoundEnded { assignments: 1 }),
        at(
            1.25,
            TraceEventKind::TaskFinished {
                slot: 3,
                job,
                stage: stage0,
                partition: 2,
                attempt: 1,
                duration_secs: 1.25,
            },
        ),
        at(1.25, TraceEventKind::CopyKilled { slot: 0, job, stage: stage0, partition: 2 }),
        at(
            1.25,
            TraceEventKind::ReservationGranted {
                slot: 3,
                job,
                priority: Priority::new(-2),
                stage: Some(stage1),
                deadline_secs: Some(31.25),
            },
        ),
        at(
            1.5,
            TraceEventKind::PrereserveFilled {
                slot: 0,
                job,
                stage: stage1,
                priority: Priority::new(-2),
                deadline_secs: None,
            },
        ),
        at(2.0, TraceEventKind::LocalityUnlocked),
        at(
            2.25,
            TraceEventKind::TaskCrashed {
                slot: 1,
                job,
                stage: stage0,
                partition: 0,
                attempt: 0,
                requeued: true,
            },
        ),
        at(2.25, TraceEventKind::ReservationRevoked { slot: 2, job }),
        at(2.25, TraceEventKind::SlotOffline { slot: 1, cause: "crash" }),
        at(2.4, TraceEventKind::SlotOnline { slot: 1 }),
        at(2.5, TraceEventKind::ReservationExpired { slot: 0, job }),
        at(3.0, TraceEventKind::StageCompleted { job, stage: stage0 }),
        at(3.0, TraceEventKind::BarrierCleared { job, stage: stage1 }),
        at(3.0, TraceEventKind::StaleReservationReleased { slot: 3, job, stage: stage0 }),
        at(4.0, TraceEventKind::ReservationReleased { slot: 3, job }),
        at(4.0, TraceEventKind::JobCompleted { job }),
    ]
}

/// Random event streams for round-trip properties: every variant, with
/// job names holding quotes, backslashes, control characters and
/// non-ASCII, `None` and `Some` stages and deadlines, sub-normal and
/// extreme finite floats, and empty stage lists. Non-finite floats are
/// left out: the writer renders them as `null`, which is not a number.
pub(crate) struct ArbitraryStream;

impl proptest::strategy::Strategy for ArbitraryStream {
    type Value = Vec<TraceEvent>;

    fn generate(&self, rng: &mut proptest::TestRng) -> Vec<TraceEvent> {
        use TraceEventKind as K;
        const CHARS: [char; 16] = [
            'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            '\u{2028}', '😀', '\u{ffff}',
        ];
        const FLOATS: [f64; 9] =
            [0.0, 0.1, 1.5, 1e-310, 5e-324, f64::MIN_POSITIVE, 1e21, f64::MAX, 123.456789];
        const LEVELS: [&str; 4] = ["PROCESS_LOCAL", "NODE_LOCAL", "RACK_LOCAL", "ANY"];
        const CAUSES: [&str; 4] = ["crash", "revocation", "partition", "restart"];
        const REASONS: [DenyReason; 4] = [
            DenyReason::NoPendingTasks,
            DenyReason::LocalityWait,
            DenyReason::ReservationDenied,
            DenyReason::NoFittingSlot,
        ];
        fn pick<T: Copy>(rng: &mut proptest::TestRng, items: &[T]) -> T {
            items[rng.below(items.len() as u64) as usize]
        }
        let float = |rng: &mut proptest::TestRng| {
            if rng.below(2) == 0 {
                pick(rng, &FLOATS)
            } else {
                rng.unit_f64() * 1e4
            }
        };
        let coin = |rng: &mut proptest::TestRng| rng.below(2) == 0;
        let mut micros = 0u64;
        (0..rng.below(40))
            .map(|_| {
                micros += rng.below(3) * rng.below(1 << 30);
                let job = JobId::new(rng.next_u64() >> rng.below(64));
                let stage = StageId::new(rng.next_u64() as u32);
                let opt_stage = coin(rng).then(|| StageId::new(rng.next_u64() as u32));
                let slot = rng.next_u64() as u32;
                let n = rng.next_u64() as u32;
                let priority = Priority::new(rng.next_u64() as i32);
                let deadline_secs = coin(rng).then(|| float(rng));
                let kind = match rng.below(20) {
                    0 => K::JobSubmitted {
                        job,
                        name: (0..rng.below(8)).map(|_| pick(rng, &CHARS)).collect(),
                        priority,
                        stages: (0..rng.below(4))
                            .map(|i| StageMeta {
                                tasks: rng.next_u64() as u32,
                                parents: (0..rng.below(i + 1))
                                    .map(|p| StageId::new(p as u32))
                                    .collect(),
                            })
                            .collect(),
                    },
                    1 => K::OfferRoundStarted {
                        free: n as usize,
                        running: slot as usize,
                        reserved: 7,
                    },
                    2 => K::OfferRoundEnded { assignments: n as usize },
                    3 => K::OfferDeclined { job, reason: pick(rng, &REASONS), stage: opt_stage },
                    4 => K::TaskLaunched {
                        slot,
                        job,
                        stage,
                        partition: n,
                        attempt: n / 3,
                        level: pick(rng, &LEVELS),
                        speculative: coin(rng),
                        warm: coin(rng),
                    },
                    5 => K::TaskFinished {
                        slot,
                        job,
                        stage,
                        partition: n,
                        attempt: 2,
                        duration_secs: float(rng),
                    },
                    6 => K::CopyKilled { slot, job, stage, partition: n },
                    7 => K::ReservationGranted {
                        slot,
                        job,
                        priority,
                        stage: opt_stage,
                        deadline_secs,
                    },
                    8 => K::PrereserveFilled { slot, job, stage, priority, deadline_secs },
                    9 => K::ReservationExpired { slot, job },
                    10 => K::ReservationReleased { slot, job },
                    11 => K::StaleReservationReleased { slot, job, stage },
                    12 => K::BarrierCleared { job, stage },
                    13 => K::StageCompleted { job, stage },
                    14 => K::JobCompleted { job },
                    15 => K::LocalityUnlocked,
                    16 => K::TaskCrashed {
                        slot,
                        job,
                        stage,
                        partition: n,
                        attempt: 1,
                        requeued: coin(rng),
                    },
                    17 => K::ReservationRevoked { slot, job },
                    18 => K::SlotOffline { slot, cause: pick(rng, &CAUSES) },
                    _ => K::SlotOnline { slot },
                };
                TraceEvent::new(SimTime::from_micros(micros), kind)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn witness_agrees_with_event_names() {
        for e in super::one_of_each() {
            assert_eq!(super::assert_covers_schema(&e.kind), e.kind.name());
        }
    }
}
