//! The closed loop: one client runs iterations back to back until the
//! time budget is spent, then the run reports the median of each metric.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ssr_sim::walltime::Stopwatch;

use crate::args::{RunConfig, Workload};
use crate::host;
use crate::metrics::{per_layer, RunResult, Samples, END_TO_END};
use crate::workloads;

/// Runs `cfg`'s workload in a closed loop and reports its metrics.
///
/// At least one iteration runs; another starts only while the previous
/// iteration's duration still fits in the remaining budget. An iteration
/// fails when it panics, fails a check, or its deterministic output
/// differs from the first iteration's.
pub fn run(cfg: &RunConfig) -> RunResult {
    let workers = pin_workers();
    let started = Stopwatch::start();
    let mut samples = Samples::default();
    let mut first_digest = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        attempted += 1;
        let sw = Stopwatch::start();
        let failures = match catch_unwind(AssertUnwindSafe(|| workloads::iteration(cfg, workers))) {
            Ok(mut it) => {
                if *first_digest.get_or_insert(it.digest) != it.digest {
                    it.failures.push("output differs from the first iteration's".to_owned());
                }
                samples.extend(it.samples);
                it.failures
            }
            Err(_) => vec!["iteration panicked".to_owned()],
        };
        eprintln!("perfbench: {} iteration {attempted}: {:.3} s", cfg.workload, sw.elapsed_secs());
        if !failures.is_empty() {
            failed += 1;
            for f in &failures {
                eprintln!("perfbench: {} iteration {attempted}: {f}", cfg.workload);
            }
        }
        if started.elapsed_secs() + sw.elapsed_secs() > cfg.seconds {
            break;
        }
    }
    if !cfg.trace {
        match host::peak_rss_mb() {
            Ok(mb) => samples.push("peak_rss_mb", mb),
            Err(e) => eprintln!("perfbench: {e}"),
        }
    }
    let plane: Vec<(String, &'static str)> = if cfg.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect()
    };
    let metrics = plane
        .into_iter()
        .map(|(name, unit)| {
            let value = samples.median(&name).unwrap_or_else(|| {
                if enters_layer(cfg.workload, &name) {
                    f64::NAN
                } else {
                    0.0
                }
            });
            (name, value, unit)
        })
        .collect();
    RunResult { attempted, failed, metrics }
}

/// Whether `workload` does work in the layer of per-layer metric `name`.
/// A metric of a layer it never enters reads zero; a missing metric of
/// one it does enter is a measurement failure.
fn enters_layer(workload: Workload, name: &str) -> bool {
    let skipped: &[&str] = match workload {
        Workload::PaperSsr => &["trace.", "explain.", "check.", "figures."],
        Workload::FiguresQuick => &["trace.", "explain.", "check."],
        Workload::TraceExplain => &["figures."],
    };
    !skipped.iter().any(|prefix| name.starts_with(prefix))
}

/// Fixes the program's worker count at the machine's core count,
/// whatever the caller's environment says: `SSR_JOBS` and `SSR_FULL`
/// (paper-scale figures) are cleared so every run measures the same
/// thing. Returns the worker count.
fn pin_workers() -> usize {
    std::env::remove_var("SSR_JOBS");
    std::env::remove_var("SSR_FULL");
    ssr_sim::runner::set_worker_override(None);
    let cores = ssr_sim::runner::worker_count();
    ssr_sim::runner::set_worker_override(Some(cores));
    cores
}
