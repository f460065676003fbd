//! Why an offer round declined a candidate job: the [`DenyReason`] and
//! blocked stage that `offer-declined` trace events carry.
//!
//! The engine classifies a decline only when a trace sink is attached, so
//! none of this runs on an untraced round. It never touches the engine's
//! work counters either: a traced run must count exactly the same
//! ApprovalLogic calls as an untraced one.

use std::collections::BTreeMap;

use ssr_cluster::{Reservation, SlotId, SlotPool};
use ssr_dag::{JobId, Priority, StageId};
use ssr_simcore::SimTime;
use ssr_trace::DenyReason;

use crate::jobs::Jobs;
use crate::policy::{PolicyCtx, ReservationPolicy};

/// ApprovalLogic verdicts for a non-owner, keyed by `(reservation owner,
/// reservation priority, candidate priority)`.
///
/// Valid only under a policy that declares
/// [`approval_is_priority_based`](ReservationPolicy::approval_is_priority_based):
/// such a verdict is a function of exactly that key. The engine clears
/// its memo at the start of every offer round.
#[derive(Debug, Clone, Default)]
pub struct ApprovalMemo {
    verdicts: BTreeMap<(JobId, Priority, Priority), bool>,
}

impl ApprovalMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every verdict.
    pub fn clear(&mut self) {
        self.verdicts.clear();
    }
}

/// Classifies why `job` could not place a task at `now`, along with the
/// lowest-id pending stage that was blocked (`None` when the job had no
/// pending stage).
///
/// For each pending stage it asks whether any free or approved reserved
/// slot fits the stage's demand (then delay scheduling held the job back:
/// [`DenyReason::LocalityWait`]), else whether a fitting reserved slot
/// was denied ([`DenyReason::ReservationDenied`]), else
/// [`DenyReason::NoFittingSlot`].
///
/// Under a priority-based policy the verdict is uniform across an
/// `(owner, priority)` reservation group, so this asks ApprovalLogic once
/// per group and candidate priority, remembering the answer in `memo`,
/// and looks at a group's slots only when slot sizes differ. Any other
/// policy gets the per-slot scan of [`classify_per_slot`], which gives
/// the same answer.
pub fn classify(
    slots: &SlotPool,
    jobs: &Jobs,
    policy: &dyn ReservationPolicy,
    job: JobId,
    now: SimTime,
    memo: &mut ApprovalMemo,
) -> (DenyReason, Option<StageId>) {
    if !policy.approval_is_priority_based() {
        return classify_per_slot(slots, jobs, policy, job, now);
    }
    let Some(state) = jobs.get(job) else {
        return (DenyReason::NoPendingTasks, None);
    };
    let priority = state.priority();
    // With every slot the same size, a demand fits one slot iff it fits all.
    let uniform = (slots.uniform_size() && !slots.is_empty()).then(|| slots.size(SlotId::new(0)));
    let fits_free = |demand: u32| match uniform {
        Some(size) => size >= demand && slots.free_slots().next().is_some(),
        None => slots.free_slots().any(|s| slots.size(s) >= demand),
    };
    let group_fits = |owner: JobId, rprio: Priority, demand: u32| match uniform {
        Some(size) => size >= demand,
        None => slots.reserved_for(owner).any(|s| {
            slots.size(s) >= demand
                && slots.get(s).reservation().is_some_and(|r| r.priority() == rprio)
        }),
    };
    let mut blocked_stage: Option<StageId> = None;
    let mut usable = false;
    let mut saw_denied = false;
    for tsm in state.active_tasksets().filter(|t| t.has_pending()) {
        blocked_stage = Some(blocked_stage.map_or(tsm.stage(), |s| s.min(tsm.stage())));
        // Once a usable slot was found the reason is settled; only the
        // lowest blocked stage is still open.
        if usable {
            continue;
        }
        let demand = state.spec().stage(tsm.stage()).demand();
        if fits_free(demand) {
            usable = true;
            continue;
        }
        for (owner, rprio, _) in slots.reservation_groups() {
            let approved = owner == job
                || *memo.verdicts.entry((owner, rprio, priority)).or_insert_with(|| {
                    let ctx = PolicyCtx { now, slots, jobs };
                    policy.approve(&ctx, &Reservation::new(owner, rprio), job, priority)
                });
            if (approved || !saw_denied) && group_fits(owner, rprio, demand) {
                if approved {
                    usable = true;
                    break;
                }
                saw_denied = true;
            }
        }
    }
    (reason(blocked_stage.is_some(), usable, saw_denied), blocked_stage)
}

/// [`classify`] by asking ApprovalLogic about every fitting reserved slot
/// of every pending stage: the general path for policies whose verdicts
/// may depend on the slot, and the reference the grouped path is tested
/// against.
pub fn classify_per_slot(
    slots: &SlotPool,
    jobs: &Jobs,
    policy: &dyn ReservationPolicy,
    job: JobId,
    now: SimTime,
) -> (DenyReason, Option<StageId>) {
    let Some(state) = jobs.get(job) else {
        return (DenyReason::NoPendingTasks, None);
    };
    let priority = state.priority();
    let mut blocked_stage: Option<StageId> = None;
    let mut usable_blocked_by_locality = false;
    let mut saw_denied_reservation = false;
    for tsm in state.active_tasksets().filter(|t| t.has_pending()) {
        blocked_stage = Some(blocked_stage.map_or(tsm.stage(), |s| s.min(tsm.stage())));
        let demand = state.spec().stage(tsm.stage()).demand();
        let mut usable = slots.free_slots().any(|s| slots.size(s) >= demand);
        for slot in slots.reserved_slots() {
            if slots.size(slot) < demand {
                continue;
            }
            let r = slots.get(slot).reservation().expect("reserved index entry");
            let ctx = PolicyCtx { now, slots, jobs };
            if r.job() == job || policy.approve(&ctx, r, job, priority) {
                usable = true;
            } else {
                saw_denied_reservation = true;
            }
        }
        // A usable (free or approved) fitting slot exists, yet
        // `try_assign_one` declined: delay scheduling has not unlocked
        // the locality level that slot sits at.
        if usable {
            usable_blocked_by_locality = true;
        }
    }
    (
        reason(blocked_stage.is_some(), usable_blocked_by_locality, saw_denied_reservation),
        blocked_stage,
    )
}

fn reason(has_pending: bool, usable: bool, saw_denied: bool) -> DenyReason {
    if !has_pending {
        DenyReason::NoPendingTasks
    } else if usable {
        DenyReason::LocalityWait
    } else if saw_denied {
        DenyReason::ReservationDenied
    } else {
        DenyReason::NoFittingSlot
    }
}
