//! **Fig. 13** — Fair sharing with and without speculative slot
//! reservation.
//!
//! Two synthetic jobs under the Fair scheduler: job-1 is a 3-phase
//! pipeline, job-2 is map-only with many independent tasks. Without SSR,
//! job-1 surrenders all its slots to job-2 at every barrier and cannot
//! reclaim them; with SSR it withholds its fair share throughout.

use ssr_dag::Priority;
use ssr_explain::{running_series, RunningSample};
use ssr_sim::{OrderConfig, PolicyConfig, SimReport, Simulation};
use ssr_simcore::dist::{constant, pareto};
use ssr_simcore::SimTime;
use ssr_workload::synthetic::{map_only, pipeline_of};

use crate::figures::common::{cluster_sim, downsample};
use crate::table::Table;

/// Runs the figure and renders its tables.
pub fn run() -> String {
    run_seeded(61)
}

pub(crate) fn run_seeded(seed: u64) -> String {
    let cluster = ssr_cluster::ClusterSpec::new(4, 2).expect("valid cluster");
    // Equal priorities: isolation must come from fair sharing alone.
    // job-1's parallelism (4) equals its fair share of the 8 slots, so
    // "keeping its share" and "keeping its slots" coincide, as in the
    // paper's experiment; job-2 supplies an endless backlog of long tasks.
    let job1 = || {
        pipeline_of(
            "job-1",
            &[
                (4, pareto(3.0, 1.6)),
                (4, pareto(3.0, 1.6)),
                (4, pareto(3.0, 1.6)),
            ],
            Priority::new(0),
            SimTime::ZERO,
        )
        .expect("valid pipeline")
    };
    let job2 = || map_only("job-2", 120, constant(30.0), Priority::new(0)).expect("valid job");

    // The two policy runs are independent; run both on the worker pool.
    let policies = [PolicyConfig::WorkConserving, PolicyConfig::ssr_strict()];
    let mut reports: Vec<(SimReport, Vec<RunningSample>)> =
        ssr_sim::par_map(ssr_sim::worker_count(), &policies, |policy| {
            let (report, events) = Simulation::new(
                cluster_sim(cluster, seed),
                policy.clone(),
                OrderConfig::Fair,
                vec![job1(), job2()],
            )
            .run_recorded();
            (report, running_series(&events, &["job-1", "job-2"]))
        });
    let with = reports.pop().expect("two reports");
    let without = reports.pop().expect("two reports");

    let mut out = String::from(
        "Fig. 13 — fair scheduler allocations over time (8 slots, 2 jobs)\n\
         paper: without SSR job-1 loses its share at each barrier; with SSR it keeps ~50%\n\n",
    );
    for (label, (report, series)) in [("(a) w/o SSR", &without), ("(b) w/ SSR", &with)] {
        let mut table = Table::new(["t (s)", "job-1 running", "job-2 running"]);
        // Truncate at job-1 completion; afterwards job-2 trivially owns
        // the cluster.
        let end = report.job("job-1").and_then(|j| j.completed_secs).unwrap_or(f64::INFINITY);
        let series: Vec<_> =
            series.iter().filter(|s| s.time.as_secs_f64() <= end).cloned().collect();
        for s in downsample(&series, 20) {
            let (t, j1, j2) = (s.time.as_secs_f64(), s.running[0], s.running[1]);
            table.row([format!("{t:.1}"), j1.to_string(), j2.to_string()]);
        }
        out.push_str(&format!(
            "{label}: job-1 JCT {:.1}s\n{}\n",
            report.jct_secs("job-1").unwrap_or(f64::NAN),
            table.render()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn ssr_restores_fair_share_for_the_pipeline_job() {
        let out = super::run_seeded(5);
        let jcts: Vec<f64> = out
            .lines()
            .filter(|l| l.contains("job-1 JCT"))
            .filter_map(|l| {
                l.split_whitespace()
                    .find_map(|w| w.strip_suffix('s').and_then(|n| n.parse().ok()))
            })
            .collect();
        assert_eq!(jcts.len(), 2);
        let (without, with) = (jcts[0], jcts[1]);
        assert!(
            with < without,
            "SSR must shorten the pipeline job under fair sharing: {with} !< {without}"
        );
    }
}
