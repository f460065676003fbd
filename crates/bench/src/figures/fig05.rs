//! **Fig. 5** — Running-task count of KMeans over time (parallelism 20),
//! with and without background contention, under work conservation.
//!
//! The paper's microbenchmark shows KMeans holding all 20 slots between
//! barriers when alone, but collapsing to near zero at each barrier and
//! ramping up slowly when background jobs contend.

use ssr_explain::{running_series, RunningSample};
use ssr_sim::{OrderConfig, PolicyConfig, SimReport, Simulation};
use ssr_workload::mllib;
use ssr_workload::MllibParams;

use crate::figures::common::{
    background_jobs, cluster_sim, downsample, ec2_cluster, scaled, FG_PRIORITY,
};
use crate::table::Table;

/// Runs the figure and renders its table.
pub fn run() -> String {
    run_scaled(scaled(40, 100), 31)
}

/// Runs the figure at an explicit background-job count and seed (the
/// golden-equivalence suite pins the quick-scale default, 40 jobs, seed 31).
pub fn run_scaled(bg_jobs: u32, seed: u64) -> String {
    let params = MllibParams::cluster().with_priority(FG_PRIORITY); // parallelism 20
    let kmeans = mllib::kmeans(&params).expect("valid template");

    // Each run yields its report and KMeans's running-task series, replayed
    // from the decision trace.
    let run = |with_bg: bool| -> (SimReport, Vec<RunningSample>) {
        let mut jobs = vec![kmeans.clone()];
        if with_bg {
            jobs.extend(background_jobs(bg_jobs, 1.0, seed));
        }
        let (report, events) = Simulation::new(
            cluster_sim(ec2_cluster(), seed),
            PolicyConfig::WorkConserving,
            OrderConfig::FifoPriority,
            jobs,
        )
        .run_recorded();
        (report, running_series(&events, &["kmeans"]))
    };

    let alone = run(false);
    let contended = run(true);

    let mut table = Table::new(["t (s, alone)", "running (alone)", "t (s, contended)", "running (contended)"]);
    // Truncate each series at the KMeans completion instant; later samples
    // only describe the background.
    let cut = |(report, series): &(SimReport, Vec<RunningSample>)| -> Vec<RunningSample> {
        let end = report
            .job("kmeans")
            .and_then(|j| j.completed_secs)
            .unwrap_or(f64::INFINITY);
        series.iter().filter(|s| s.time.as_secs_f64() <= end).cloned().collect()
    };
    let a = downsample(&cut(&alone), 24);
    let c = downsample(&cut(&contended), 24);
    for i in 0..a.len().max(c.len()) {
        let (ta, ra) = a
            .get(i)
            .map(|s| (format!("{:.1}", s.time.as_secs_f64()), s.running[0].to_string()))
            .unwrap_or_default();
        let (tc, rc) = c
            .get(i)
            .map(|s| (format!("{:.1}", s.time.as_secs_f64()), s.running[0].to_string()))
            .unwrap_or_default();
        table.row([ta, ra, tc, rc]);
    }
    let peak = |series: &[RunningSample]| series.iter().map(|s| s.running[0]).max().unwrap_or(0);
    let peak_alone = peak(&alone.1);
    let peak_contended = peak(&contended.1);
    format!(
        "Fig. 5 — KMeans running tasks over time (parallelism 20), work conserving\n\
         paper: in contention, KMeans loses slots at each barrier and ramps up slowly\n\
         peak running: alone {peak_alone}, contended {peak_contended}; \
         KMeans JCT: alone {:.1}s, contended {:.1}s\n\n{}",
        alone.0.jct_secs("kmeans").unwrap_or(f64::NAN),
        contended.0.jct_secs("kmeans").unwrap_or(f64::NAN),
        table.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn contention_inflates_kmeans_jct() {
        let out = super::run_scaled(15, 5);
        assert!(out.contains("KMeans JCT"));
        // Parse "alone Xs, contended Ys" and check contended > alone.
        let line = out.lines().find(|l| l.contains("KMeans JCT")).unwrap();
        let nums: Vec<f64> = line
            .split(&[' ', ','][..])
            .filter_map(|w| w.strip_suffix('s').and_then(|n| n.parse().ok()))
            .collect();
        assert!(nums.len() >= 2);
        assert!(nums[1] > nums[0], "contended {:?} must exceed alone", nums);
    }
}
