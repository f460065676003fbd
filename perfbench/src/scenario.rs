//! The contention scenarios the workloads run, built only from the
//! workload and figure crates' public generators, plus the facts about
//! a generated workload that the correctness checks compare against.

use std::collections::BTreeSet;

use ssr_bench::figures::common as fig;
use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_dag::{JobSpec, Priority};
use ssr_faults::FaultPlan;
use ssr_sim::{
    Experiment, ExperimentOutcome, OrderConfig, PolicyConfig, SimConfig, SimReport, Simulation,
};
use ssr_simcore::rng::SimRng;
use ssr_simcore::SimDuration;
use ssr_workload::google::GoogleTraceGenerator;
use ssr_workload::{sql, GoogleTraceConfig, SqlParams};

use crate::args::Scale;
use crate::metrics::ratio;

/// Fault plan of the `trace-explain` workload: one node crash that heals,
/// then a straggler storm.
pub const TRACE_EXPLAIN_FAULTS: &str = "crash:node=3,at=30,down=60;storm:at=100,secs=60,factor=2";

/// The seed `ssr_bench::figures::fig15::run` uses.
pub const FIG15_SEED: u64 = 81;

/// Background-job count of Fig. 15 at quick scale, and at the self-test's
/// tiny scale.
pub fn fig15_bg_jobs(scale: Scale) -> u32 {
    match scale {
        Scale::Full => 700,
        Scale::Tiny => 20,
    }
}

/// One contended experiment: measured foreground jobs against background
/// load, with everything needed to build its `Experiment` or the bare
/// contended `Simulation`.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Cluster, locality, seed and faults.
    pub config: SimConfig,
    /// Policy of the contended run.
    pub policy: PolicyConfig,
    /// Job order.
    pub order: OrderConfig,
    /// Measured jobs.
    pub foreground: Vec<JobSpec>,
    /// Load.
    pub background: Vec<JobSpec>,
}

/// Sizes of a `sql:all` foreground against a Google-trace background.
struct Mix {
    nodes: u32,
    nodes_per_rack: u32,
    sql_parallelism: u32,
    sql_priority: i32,
    bg_jobs: u32,
    bg_horizon_secs: u64,
    faults: &'static str,
}

impl Scenario {
    /// `paper-ssr`: 1000 nodes × 4 slots in racks of 20, SSR,
    /// `sql:all,par=200,prio=10` against 4000 Google-trace jobs arriving
    /// over 30 minutes: the arrival rate of `google:jobs=8000` over its
    /// hour, in half the simulated time, so a run holds several
    /// iterations.
    pub fn paper_ssr(seed: u64, scale: Scale) -> Scenario {
        let mix = match scale {
            Scale::Full => Mix {
                nodes: 1000,
                nodes_per_rack: 20,
                sql_parallelism: 200,
                sql_priority: 10,
                bg_jobs: 4000,
                bg_horizon_secs: 1800,
                faults: "",
            },
            Scale::Tiny => Mix {
                nodes: 20,
                nodes_per_rack: 5,
                sql_parallelism: 8,
                sql_priority: 10,
                bg_jobs: 60,
                bg_horizon_secs: 3600,
                faults: "",
            },
        };
        Scenario::sql_against_google(&mix, seed)
    }

    /// `trace-explain`: 250 nodes × 4 slots in racks of 20, SSR,
    /// `sql:all,par=50` against `google:jobs=3000`, with
    /// [`TRACE_EXPLAIN_FAULTS`].
    pub fn trace_explain(seed: u64, scale: Scale) -> Scenario {
        let mix = match scale {
            Scale::Full => Mix {
                nodes: 250,
                nodes_per_rack: 20,
                sql_parallelism: 50,
                sql_priority: 0,
                bg_jobs: 3000,
                bg_horizon_secs: 3600,
                faults: TRACE_EXPLAIN_FAULTS,
            },
            Scale::Tiny => Mix {
                nodes: 12,
                nodes_per_rack: 4,
                sql_parallelism: 4,
                sql_priority: 0,
                bg_jobs: 40,
                bg_horizon_secs: 3600,
                faults: TRACE_EXPLAIN_FAULTS,
            },
        };
        Scenario::sql_against_google(&mix, seed)
    }

    /// The cell of Fig. 15 that `figures-quick` re-runs to check the
    /// figure: setting (a) standard, the SQL suite, with SSR, at the
    /// figure's own seed. Built exactly as the figure builds it. The
    /// figure suite's seeds are part of the figures, so `seed` is unused.
    pub fn fig15_sql_cell(_seed: u64, scale: Scale) -> Scenario {
        let seed = FIG15_SEED;
        let sql_params = SqlParams::medium().with_priority(fig::FG_PRIORITY);
        let queries = sql::all_queries(&sql_params).expect("the SQL suite is valid");
        let horizon = SimDuration::from_secs(1800);
        Scenario {
            config: SimConfig::new(fig::large_cluster())
                .with_locality(LocalityModel::paper_simulation())
                .with_seed(seed),
            policy: PolicyConfig::ssr_strict(),
            order: OrderConfig::FifoPriority,
            foreground: fig::stagger(queries, SimDuration::from_secs(600)),
            background: fig::background_jobs_large(fig15_bg_jobs(scale), 1.0, horizon, seed),
        }
    }

    /// The `ssr-cli run --fg sql:all,... --bg google:jobs=...` scenario
    /// with both the simulation and the Google trace seeded by `seed`.
    fn sql_against_google(mix: &Mix, seed: u64) -> Scenario {
        let cluster = ClusterSpec::with_racks(mix.nodes, 4, mix.nodes_per_rack)
            .expect("benchmark clusters are non-empty");
        let sql_params = SqlParams::medium()
            .with_base_parallelism(mix.sql_parallelism)
            .with_priority(Priority::new(mix.sql_priority));
        let foreground = sql::all_queries(&sql_params).expect("the SQL suite is valid");
        let google = GoogleTraceConfig::simulation(
            mix.bg_jobs,
            SimDuration::from_secs(mix.bg_horizon_secs),
        );
        let background = GoogleTraceGenerator::new(google)
            .generate(&mut SimRng::stream(seed, 0))
            .expect("the Google trace configuration is valid");
        let faults = if mix.faults.is_empty() {
            FaultPlan::new()
        } else {
            FaultPlan::parse(mix.faults).expect("the benchmark fault plan parses")
        };
        Scenario {
            config: SimConfig::new(cluster)
                .with_locality(LocalityModel::paper_simulation())
                .with_seed(seed)
                .with_faults(faults),
            policy: PolicyConfig::ssr_strict(),
            order: OrderConfig::FifoPriority,
            foreground,
            background,
        }
    }

    /// What the checks need to know about the generated jobs.
    pub fn facts(&self) -> Facts {
        Facts {
            foreground: self.foreground.iter().map(|j| j.name().to_owned()).collect(),
            background: self.background.iter().map(|j| j.name().to_owned()).collect(),
            total_tasks: self
                .foreground
                .iter()
                .chain(&self.background)
                .map(JobSpec::total_tasks)
                .sum(),
        }
    }

    /// The experiment over clones of the jobs.
    pub fn experiment(&self) -> Experiment {
        Experiment::new(self.config.clone(), self.policy.clone(), self.order)
            .foreground(self.foreground.iter().cloned())
            .background(self.background.iter().cloned())
    }

    /// Consumes the scenario into its experiment, keeping its facts.
    pub fn into_experiment(self) -> (Experiment, Facts) {
        let facts = self.facts();
        let experiment = Experiment::new(self.config, self.policy, self.order)
            .foreground(self.foreground)
            .background(self.background);
        (experiment, facts)
    }

    /// The contended simulation exactly as `Experiment` builds it:
    /// foreground jobs first, then the background.
    pub fn contended(&self) -> Simulation {
        let jobs = self.foreground.iter().chain(&self.background).cloned().collect();
        Simulation::new(self.config.clone(), self.policy.clone(), self.order, jobs)
    }
}

/// Facts about a generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// Foreground job names, in order.
    pub foreground: Vec<String>,
    /// Background job names.
    pub background: BTreeSet<String>,
    /// Tasks over every job, foreground and background.
    pub total_tasks: u64,
}

impl Facts {
    /// Mean simulated JCT of the background jobs in the contended run.
    pub fn bg_jct_mean_s(&self, report: &SimReport) -> f64 {
        let jcts: Vec<f64> = report
            .jobs
            .iter()
            .filter(|j| self.background.contains(&j.name))
            .map(|j| j.jct_secs())
            .collect();
        jcts.iter().sum::<f64>() / jcts.len().max(1) as f64
    }

    /// Checks an experiment outcome: the contended run completed, every
    /// foreground job has a slowdown, and the contended run assigned
    /// exactly the generated tasks plus speculative copies plus the
    /// relaunches of `crashed` task instances.
    pub fn check(&self, outcome: &ExperimentOutcome, crashed: u64, failures: &mut Vec<String>) {
        let report = &outcome.contended;
        if !report.completed {
            failures.push("contended run did not complete".to_owned());
        }
        let names: Vec<&str> = outcome.foreground.iter().map(|r| r.name.as_str()).collect();
        if names != self.foreground.iter().map(String::as_str).collect::<Vec<_>>() {
            failures.push("slowdown rows do not match the foreground jobs".to_owned());
        }
        let assigned = report.counters.tasks_assigned.get();
        let expected = self.total_tasks + report.speculative_copies + crashed;
        if assigned != expected {
            failures.push(format!(
                "contended run assigned {assigned} tasks, expected {expected} \
                 ({} generated + {} copies + {crashed} crash relaunches)",
                self.total_tasks, report.speculative_copies
            ));
        }
        let completed = report.jobs.iter().filter(|j| j.completed_secs.is_some()).count();
        if completed != self.foreground.len() + self.background.len() {
            failures.push(format!("{completed} jobs completed of {}", report.jobs.len()));
        }
    }
}

/// Reserved-idle slot-seconds as a share of occupied (busy plus
/// reserved-idle) slot-seconds: the utilization SSR pays for isolation.
///
/// Free slot-seconds are left out of the base: after the foreground
/// finishes, the run's tail length is set by the longest background job,
/// which swings the share of *all* slot-seconds several-fold from seed
/// to seed without any change in what reservations cost.
pub fn reserved_idle_frac(report: &SimReport) -> f64 {
    let held = report.busy_slot_secs + report.reserved_idle_slot_secs;
    ratio(report.reserved_idle_slot_secs, held)
}
