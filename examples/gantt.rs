//! Renders an ASCII Gantt chart of slot occupancy from the decision
//! trace — the §II-B "interrupted execution" picture (the paper's Figs. 2
//! and 3) reproduced from real simulator output.
//!
//! Run with: `cargo run --release --example gantt`

use ssr::prelude::*;
use ssr::simcore::dist::constant;
use ssr::workload::synthetic::{map_only, pareto_pipeline};
use ssr_explain::{Timeline, Trace};

const WIDTH: usize = 78;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterSpec::new(2, 4)?; // 8 slots
    let fg = || pareto_pipeline("workflow", 3, 8, 1.5, 1.5, Priority::new(10)).unwrap();
    let bg = || map_only("batch", 48, constant(25.0), Priority::new(0)).unwrap();

    let runs: Vec<_> = [PolicyConfig::WorkConserving, PolicyConfig::ssr_strict()]
        .into_iter()
        .map(|policy| {
            Simulation::new(
                SimConfig::new(cluster).with_seed(9),
                policy,
                OrderConfig::FifoPriority,
                vec![fg(), bg()],
            )
            .run_recorded()
        })
        .collect();
    // Cut both traces shortly after the slower workflow finishes and draw
    // both charts on that common axis, so their columns line up.
    let horizon = runs
        .iter()
        .map(|(report, _)| report.jct_secs("workflow").expect("workflow finishes") * 1.1)
        .fold(0.0f64, f64::max);
    let cut = SimTime::from_secs_f64(horizon);

    for ((report, events), label) in runs.into_iter().zip([
        "work-conserving: the workflow loses its slots at every barrier",
        "speculative slot reservation: slots held across barriers",
    ]) {
        let trace = Trace { schema_version: ssr_trace::SCHEMA_VERSION, events };
        let timeline = Timeline::reconstruct_until(&trace, cut);
        print!("\n{label}\n{}", timeline.render_gantt(WIDTH));
        println!("workflow JCT: {:.1}s", report.jct_secs("workflow").expect("workflow finishes"));
    }
    Ok(())
}
