//! The metric catalogue, per-iteration samples, and the result line.
//!
//! Every run reports every metric of its plane (end-to-end with
//! `--trace 0`, per-layer with `--trace 1`) on every workload, so runs
//! of different workloads and commits line up name by name. A layer a
//! workload never enters reports the work it did there: zero.

use std::collections::BTreeMap;

use ssr_trace::DenyReason;

/// End-to-end metrics as `(name, unit)`: what a user of the simulator sees.
/// `sim_s` marks simulated seconds, which are deterministic per seed; `s`
/// is host wall-clock time.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("fg_slowdown_mean", "x"),
    ("bg_jct_mean_s", "sim_s"),
    ("reserved_idle_frac", "frac"),
];

/// Every `DenyReason`, for the per-reason decline metrics.
pub const DENY_REASONS: [DenyReason; 4] = [
    DenyReason::NoPendingTasks,
    DenyReason::LocalityWait,
    DenyReason::ReservationDenied,
    DenyReason::NoFittingSlot,
];

/// Per-layer metrics as `(name, unit)`, grouped by layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &'static str); 36] = [
        ("workload.gen_s", "s"),
        ("workload.tasks", "count"),
        ("sim.new_s", "s"),
        ("sim.contended_s", "s"),
        ("sim.alone_s", "s"),
        ("sim.run_loop_self_s", "s"),
        ("sim.unattributed_frac", "frac"),
        ("sim.event_dispatch_s", "s"),
        ("runner.workers", "count"),
        ("runner.cpu_s", "s"),
        ("runner.parallel_eff", "frac"),
        ("scheduler.offer_round_s", "s"),
        ("scheduler.offer_round_ns_per_task", "ns/task"),
        ("scheduler.slots_scanned_per_task", "count/task"),
        ("scheduler.index_hit_ratio", "frac"),
        ("scheduler.scratch_reuse_ratio", "frac"),
        ("scheduler.locality_unlocks", "count"),
        ("core.approval_calls_per_task", "count/task"),
        ("core.groups_touched_per_task", "count/task"),
        ("core.reservations_granted", "count"),
        ("core.reservations_expired", "count"),
        ("core.reservation_hold_p99_s", "sim_s"),
        ("simcore.events_popped", "count"),
        ("simcore.events_per_task", "count/task"),
        ("simcore.peak_event_queue_len", "count"),
        ("trace.events", "count"),
        ("trace.bytes", "B"),
        ("trace.overhead_s", "s"),
        ("explain.parse_s", "s"),
        ("explain.timeline_s", "s"),
        ("explain.attribute_s", "s"),
        ("check.invariants_s", "s"),
        ("check.violations", "count"),
        ("faults.tasks_crashed", "count"),
        ("faults.reservations_revoked", "count"),
        ("bench.trace_overhead_frac", "frac"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect();
    for reason in DENY_REASONS {
        out.push((declined_metric(reason), "count/task"));
    }
    for id in ssr_bench::figures::ALL {
        out.push((figure_metric(id), "s"));
    }
    out
}

/// Name of the per-task decline metric for `reason`.
pub fn declined_metric(reason: DenyReason) -> String {
    format!("scheduler.declined_per_task.{}", reason.as_str())
}

/// Name of the per-figure wall-time metric for figure `id`.
pub fn figure_metric(id: &str) -> String {
    format!("figures.{id}_s")
}

/// Values recorded per metric name, one per iteration that measured it.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    /// Records one value of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.values.entry(name.to_owned()).or_default().push(value);
    }

    /// Appends every value of `other`.
    pub fn extend(&mut self, other: Samples) {
        for (name, values) in other.values {
            self.values.entry(name).or_default().extend(values);
        }
    }

    /// The median of `name`'s values, if any were recorded.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| median(v))
    }
}

/// Median of `values` (mean of the middle two for an even count; NaN
/// for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Ratio that reads 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Iterations started.
    pub attempted: u64,
    /// Iterations that failed a correctness check (or panicked).
    pub failed: u64,
    /// `(name, value, unit)` for every metric of the run's plane, in
    /// catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    /// `true` when every iteration passed every check and every metric
    /// value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (`{"name": {"value": v, "unit": u}}`). Values keep every
    /// digit; a non-finite value (only possible on a failed run) is
    /// written as 0 to keep the line valid JSON.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "metric names must be unique");
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()), "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
    }

    #[test]
    fn result_line_is_json() {
        let r = RunResult {
            attempted: 2,
            failed: 0,
            metrics: vec![("wall_s".to_owned(), 1.25, "s"), ("x".to_owned(), f64::NAN, "s")],
        };
        assert!(!r.correct());
        let line = r.render_json();
        assert!(serde_json::from_str(&line).is_ok(), "{line}");
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }
}
