//! # ssr-perfbench
//!
//! The repository's end-to-end benchmark. One command runs one of three
//! closed-loop workloads (one client: the next iteration starts when the
//! previous one ends) for a fixed number of seconds, checks every
//! iteration's output, and prints every metric by name with its unit as
//! the last line of stdout:
//!
//! ```text
//! perfbench --workload trace-explain --seed 1 --seconds 55 --trace 0
//! ```
//!
//! The benchmark sits outside the engine: it drives each layer only
//! through that layer's public functions (workload generators,
//! `Experiment`/`Simulation`, the trace sinks, `ssr-explain`, `ssr-check`,
//! the figure harness) and times those calls with
//! [`ssr_sim::walltime::Stopwatch`]. Parallelism comes only from the
//! program's own [`ssr_sim::runner`], capped at the machine's cores.
//!
//! * `--trace 0` reports the end-to-end metrics ([`metrics::END_TO_END`]).
//! * `--trace 1` is a separate run that reports the per-layer metrics
//!   ([`metrics::per_layer`]): outside-in call timings, the span
//!   profiler, a `MetricsSink`, and the deterministic work counters.
//!
//! `perfbench/METRICS.md` records which end-to-end metric each layer
//! metric should move, on which workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod closed_loop;
pub mod host;
pub mod metrics;
pub mod scenario;
pub mod workloads;

pub use args::{RunConfig, Scale, Workload};
pub use closed_loop::run;
pub use metrics::RunResult;
