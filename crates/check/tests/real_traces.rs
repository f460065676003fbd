//! The invariant checker against real end-to-end simulator traces.
//!
//! The unit tests in `invariants.rs` feed the checker hand-written event
//! streams; these tests feed it what the production stack actually emits —
//! full contended runs under every reservation policy, fault-free and
//! faulted alike. A violation here is a protocol bug, not a test artifact
//! (the explorer found exactly one this way; see
//! `crashed_slot_is_never_offered_to_its_preferring_stage` in the
//! scheduler crate).

use ssr_check::InvariantChecker;
use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_dag::Priority;
use ssr_sim::{FaultKind, FaultPlan, OrderConfig, PolicyConfig, SimConfig, Simulation};
use ssr_simcore::dist::constant;
use ssr_simcore::{SimDuration, SimTime};
use ssr_workload::synthetic::{map_only, pipeline_of};

/// A contended 2x2 cluster: a two-stage foreground pipeline (so barriers
/// and pre-reservation trigger) racing a wide background map job.
fn run_checked(policy: PolicyConfig, faults: FaultPlan) -> (bool, ssr_check::CheckReport) {
    let fg = pipeline_of(
        "fg",
        &[(4, constant(2.0)), (2, constant(3.0))],
        Priority::new(10),
        SimTime::from_secs(1),
    )
    .unwrap();
    let bg = map_only("bg", 8, constant(5.0), Priority::new(0)).unwrap();
    let config = SimConfig::new(ClusterSpec::new(2, 2).unwrap())
        .with_locality(LocalityModel::paper_simulation().with_wait(SimDuration::ZERO))
        .with_seed(7)
        .with_faults(faults);
    let (report, events) =
        Simulation::new(config, policy, OrderConfig::FifoPriority, vec![fg, bg]).run_recorded();
    (report.completed, InvariantChecker::new().check_all(&events))
}

#[test]
fn fault_free_contended_run_is_clean() {
    let (completed, check) = run_checked(PolicyConfig::ssr_strict(), FaultPlan::new());
    assert!(completed);
    assert!(check.is_clean(), "{}", check.render_text());
}

#[test]
fn crash_and_heal_run_is_clean() {
    let plan = FaultPlan::new().with(
        SimTime::from_secs(3),
        FaultKind::NodeCrash { node: 0, down: Some(SimDuration::from_secs(5)) },
    );
    let (completed, check) = run_checked(PolicyConfig::ssr_strict(), plan);
    assert!(completed);
    assert!(check.is_clean(), "{}", check.render_text());
}

#[test]
fn permanent_node_loss_run_is_clean() {
    let plan = FaultPlan::new()
        .with(SimTime::from_secs(3), FaultKind::NodeCrash { node: 0, down: None });
    let (completed, check) = run_checked(PolicyConfig::ssr_strict(), plan);
    assert!(completed, "half the cluster must still finish the workload");
    assert!(check.is_clean(), "{}", check.render_text());
}

#[test]
fn partition_plus_storm_run_is_clean() {
    let plan = FaultPlan::new()
        .with(
            SimTime::from_secs(2),
            FaultKind::NetworkPartition { node: 1, secs: SimDuration::from_secs(4) },
        )
        .with(
            SimTime::from_secs(4),
            FaultKind::StragglerStorm { factor: 3.0, secs: SimDuration::from_secs(6) },
        );
    let (completed, check) = run_checked(PolicyConfig::ssr_strict(), plan);
    assert!(completed);
    assert!(check.is_clean(), "{}", check.render_text());
}

#[test]
fn executor_restart_run_is_clean() {
    let plan = FaultPlan::new().with(
        SimTime::from_secs(3),
        FaultKind::ExecutorRestart {
            node: 1,
            down: SimDuration::from_secs(2),
            rampup: SimDuration::from_secs(5),
            cold_factor: 2.0,
        },
    );
    let (completed, check) = run_checked(PolicyConfig::ssr_strict(), plan);
    assert!(completed);
    assert!(check.is_clean(), "{}", check.render_text());
}

#[test]
fn every_policy_stays_clean_under_a_mid_run_crash() {
    let policies = [
        PolicyConfig::WorkConserving,
        PolicyConfig::Timeout(SimDuration::from_secs(30)),
        PolicyConfig::Static { count: 2, class: Priority::new(10) },
        PolicyConfig::ssr_strict(),
    ];
    for policy in policies {
        let label = format!("{policy:?}");
        let plan = FaultPlan::new().with(
            SimTime::from_secs(4),
            FaultKind::NodeCrash { node: 1, down: Some(SimDuration::from_secs(3)) },
        );
        let (completed, check) = run_checked(policy, plan);
        assert!(completed, "{label}: run must complete");
        assert!(check.is_clean(), "{label}:\n{}", check.render_text());
    }
}
