//! Fair sharing with dependent computations (the paper's Fig. 13).
//!
//! Two equal-priority jobs under the Fair scheduler: `pipeline` has three
//! dependent phases sized to its fair share; `batch` is map-only with an
//! endless backlog. Without SSR the pipeline loses its share at every
//! barrier; with SSR it withholds it throughout.
//!
//! Run with: `cargo run --release --example fair_sharing`

use ssr::prelude::*;
use ssr::simcore::dist::{constant, pareto};
use ssr::workload::synthetic::{map_only, pipeline_of};
use ssr_explain::running_series;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterSpec::new(4, 2)?; // 8 slots; fair share = 4 each

    let pipeline = pipeline_of(
        "pipeline",
        &[(4, pareto(3.0, 1.6)), (4, pareto(3.0, 1.6)), (4, pareto(3.0, 1.6))],
        Priority::new(0),
        SimTime::ZERO,
    )?;
    let batch = map_only("batch", 120, constant(30.0), Priority::new(0))?;

    for (label, policy) in [
        ("w/o SSR", PolicyConfig::WorkConserving),
        ("w/  SSR", PolicyConfig::ssr_strict()),
    ] {
        let (report, events) = Simulation::new(
            SimConfig::new(cluster).with_seed(7),
            policy,
            OrderConfig::Fair,
            vec![pipeline.clone(), batch.clone()],
        )
        .run_recorded();
        let series = running_series(&events, &["pipeline", "batch"]);
        println!(
            "{label}: pipeline JCT {:.1}s (batch continues afterwards)",
            report.jct_secs("pipeline").expect("pipeline finishes")
        );
        // Print the allocation at a few instants while the pipeline runs.
        let end = report.job("pipeline").and_then(|j| j.completed_secs).unwrap_or(0.0);
        for sample in series
            .iter()
            .filter(|s| s.time.as_secs_f64() <= end)
            .step_by(series.len().max(12) / 12)
        {
            println!(
                "  t={:6.1}s  pipeline {:>2} slots  batch {:>2} slots",
                sample.time.as_secs_f64(),
                sample.running[0],
                sample.running[1]
            );
        }
    }
    Ok(())
}
