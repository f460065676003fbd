//! One iteration of each workload.
//!
//! An end-to-end iteration does what a user of the workload does and
//! times it from outside, one public call per layer. With `--trace 1`
//! each iteration then adds [`layer_runs`]: the contended run again,
//! split into outside-in calls, once bare, once as the workload traces
//! it, and once under the span profiler and a `MetricsSink`.

use std::hash::{DefaultHasher, Hash, Hasher};

use ssr_explain::{attribute, parse_trace, Timeline, Trace};
use ssr_perf::span::{SpanProfiler, SpanReport};
use ssr_perf::WorkCounters;
use ssr_sim::walltime::{Stopwatch, WallClock};
use ssr_sim::{ExperimentOutcome, SimReport};
use ssr_trace::{JsonlSink, MetricsReport, MetricsSink, SplitSink, TraceEventKind, TraceSink};

use crate::args::{RunConfig, Scale, Workload};
use crate::host;
use crate::metrics::{declined_metric, figure_metric, ratio, Samples, DENY_REASONS};
use crate::scenario::{fig15_bg_jobs, reserved_idle_frac, Facts, Scenario, FIG15_SEED};

/// Extra set-ups timed per iteration, outside the iteration's wall time,
/// so `setup_s` is a median of several readings.
const EXTRA_SETUPS: usize = 24;

/// Tolerance, in simulated seconds, of the attribution conservation check
/// (the one `ssr-explain`'s own report applies).
const CONSERVATION_TOL_SECS: f64 = 1e-6;

/// What one iteration measured and found.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Values measured by this iteration.
    pub samples: Samples,
    /// Hash of every deterministic output (reports, counters, traces,
    /// figure text) under the standard library's fixed-key hasher; equal
    /// across iterations of one seed.
    pub digest: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

/// Runs one iteration of `cfg.workload`.
pub fn iteration(cfg: &RunConfig, workers: usize) -> Iteration {
    let mut it = Iteration::default();
    let mut digest = DefaultHasher::new();
    let build: fn(u64, Scale) -> Scenario = match cfg.workload {
        Workload::PaperSsr => Scenario::paper_ssr,
        Workload::FiguresQuick => Scenario::fig15_sql_cell,
        Workload::TraceExplain => Scenario::trace_explain,
    };
    for _ in 0..EXTRA_SETUPS {
        let sw = Stopwatch::start();
        drop(build(cfg.seed, cfg.scale).into_experiment());
        it.samples.push("setup_s", sw.elapsed_secs());
    }
    let outcome = match cfg.workload {
        Workload::PaperSsr => paper_ssr(cfg, workers, build, &mut it),
        Workload::FiguresQuick => figures_quick(cfg, workers, build, &mut it, &mut digest),
        Workload::TraceExplain => trace_explain(cfg, workers, build, &mut it, &mut digest),
    };
    serde_json::to_string(&outcome).expect("serializer is total").hash(&mut digest);
    outcome.counters.render_json().hash(&mut digest);
    if cfg.trace {
        layer_runs(cfg, build, &outcome.contended, &mut it);
    }
    it.digest = digest.finish();
    it
}

/// Times the set-up (workload generation plus experiment construction)
/// and returns the experiment with its facts.
fn setup(
    cfg: &RunConfig,
    build: fn(u64, Scale) -> Scenario,
    it: &mut Iteration,
) -> (ssr_sim::Experiment, Facts) {
    let sw = Stopwatch::start();
    let built = build(cfg.seed, cfg.scale).into_experiment();
    it.samples.push("setup_s", sw.elapsed_secs());
    built
}

/// Records the simulated results and the throughput of the run that
/// produced them.
fn record_outcome(outcome: &ExperimentOutcome, facts: &Facts, run_secs: f64, s: &mut Samples) {
    s.push("tasks_per_s", outcome.counters.tasks_assigned.get() as f64 / run_secs);
    s.push("fg_slowdown_mean", outcome.mean_slowdown());
    s.push("bg_jct_mean_s", facts.bg_jct_mean_s(&outcome.contended));
    s.push("reserved_idle_frac", reserved_idle_frac(&outcome.contended));
}

/// Records the CPU time the runner's pool used over a phase of `secs`
/// wall seconds, and its parallel efficiency.
fn record_runner(cpu_secs: f64, secs: f64, workers: usize, s: &mut Samples) {
    s.push("runner.workers", workers as f64);
    s.push("runner.cpu_s", cpu_secs);
    s.push("runner.parallel_eff", ratio(cpu_secs, workers as f64 * secs));
}

/// Process CPU seconds so far; a procfs failure is a failed check.
fn cpu_now(failures: &mut Vec<String>) -> f64 {
    host::cpu_secs().unwrap_or_else(|e| {
        failures.push(e);
        0.0
    })
}

/// `paper-ssr`: set up, then `Experiment::run` (contended run plus one
/// run-alone baseline per foreground job on the runner's pool).
fn paper_ssr(
    cfg: &RunConfig,
    workers: usize,
    build: fn(u64, Scale) -> Scenario,
    it: &mut Iteration,
) -> ExperimentOutcome {
    let wall = Stopwatch::start();
    let (experiment, facts) = setup(cfg, build, it);
    let cpu0 = cpu_now(&mut it.failures);
    let run = Stopwatch::start();
    let outcome = experiment.run();
    let run_secs = run.elapsed_secs();
    let cpu = cpu_now(&mut it.failures) - cpu0;
    it.samples.push("wall_s", wall.elapsed_secs());
    record_outcome(&outcome, &facts, run_secs, &mut it.samples);
    record_runner(cpu, run_secs, workers, &mut it.samples);
    facts.check(&outcome, 0, &mut it.failures);
    outcome
}

/// `figures-quick`: every figure of `ssr_bench::figures::ALL` at quick
/// scale through `figures::run`, exactly what `figures all` prints (the
/// tiny scale shrinks Fig. 15's background).
///
/// The figures return only text, so the simulated results come from a
/// check run outside the timed iteration: Fig. 15's standard-setting SQL
/// cell under SSR, re-run through `Experiment`, must print the same mean
/// slowdown the figure printed.
fn figures_quick(
    cfg: &RunConfig,
    workers: usize,
    build: fn(u64, Scale) -> Scenario,
    it: &mut Iteration,
    digest: &mut DefaultHasher,
) -> ExperimentOutcome {
    let wall = Stopwatch::start();
    let (experiment, facts) = setup(cfg, build, it);
    let cpu0 = cpu_now(&mut it.failures);
    let figures = Stopwatch::start();
    let mut fig15 = String::new();
    for id in ssr_bench::figures::ALL {
        let sw = Stopwatch::start();
        let out = if id == "fig15" && cfg.scale == Scale::Tiny {
            Some(ssr_bench::figures::fig15::run_scaled(fig15_bg_jobs(cfg.scale), FIG15_SEED))
        } else {
            ssr_bench::figures::run(id)
        };
        it.samples.push(&figure_metric(id), sw.elapsed_secs());
        match out {
            Some(text) => {
                text.hash(digest);
                if id == "fig15" {
                    fig15 = text;
                }
            }
            None => it.failures.push(format!("figures::run({id}) returned None")),
        }
    }
    let figures_secs = figures.elapsed_secs();
    let cpu = cpu_now(&mut it.failures) - cpu0;
    it.samples.push("wall_s", wall.elapsed_secs());

    let run = Stopwatch::start();
    let outcome = experiment.run();
    let run_secs = run.elapsed_secs();
    record_outcome(&outcome, &facts, run_secs, &mut it.samples);
    record_runner(cpu, figures_secs, workers, &mut it.samples);
    facts.check(&outcome, 0, &mut it.failures);
    let printed = fig15_sql_ssr_cell(&fig15);
    let expected = format!("{:.2}x", outcome.mean_slowdown());
    if printed != Some(expected.as_str()) {
        it.failures
            .push(format!("fig15 (a) sql SSR cell reads {printed:?}, the re-run gives {expected}"));
    }
    outcome
}

/// The "w/ SSR avg slowdown" cell of the `sql` row in Fig. 15's
/// "(a) standard" table.
fn fig15_sql_ssr_cell(text: &str) -> Option<&str> {
    let table = &text[text.find("(a) standard")?..];
    let row = table.lines().find(|l| l.starts_with("sql "))?;
    row.split_whitespace().last()
}

/// `trace-explain`: the faulted experiment with its contended run writing
/// a JSONL trace and its baselines traced too, then the trace read back:
/// `parse_trace`, `Timeline::reconstruct`, `attribute` for every
/// foreground job, and `InvariantChecker::check_all`.
fn trace_explain(
    cfg: &RunConfig,
    workers: usize,
    build: fn(u64, Scale) -> Scenario,
    it: &mut Iteration,
    digest: &mut DefaultHasher,
) -> ExperimentOutcome {
    let wall = Stopwatch::start();
    let (experiment, facts) = setup(cfg, build, it);
    let cpu0 = cpu_now(&mut it.failures);
    let run = Stopwatch::start();
    let (outcome, sink, alone) =
        experiment.run_traced_with_baselines(Some(Box::new(JsonlSink::new())));
    let jsonl = finish_jsonl(sink);
    let run_secs = run.elapsed_secs();
    let cpu = cpu_now(&mut it.failures) - cpu0;

    let sw = Stopwatch::start();
    let contended = parse_trace(&jsonl);
    let baselines: Vec<_> = alone.iter().map(|a| (a.job.as_str(), parse_trace(&a.jsonl))).collect();
    it.samples.push("explain.parse_s", sw.elapsed_secs());
    let contended = match contended {
        Ok(trace) => trace,
        Err(e) => {
            it.failures.push(format!("contended trace does not parse: {e}"));
            return outcome;
        }
    };
    let sw = Stopwatch::start();
    let timeline = Timeline::reconstruct(&contended);
    it.samples.push("explain.timeline_s", sw.elapsed_secs());
    let sw = Stopwatch::start();
    let attributions: Vec<_> = baselines
        .iter()
        .map(|(job, baseline)| match baseline {
            Ok(baseline) => attribute(&contended, baseline, job).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        })
        .collect();
    it.samples.push("explain.attribute_s", sw.elapsed_secs());
    let sw = Stopwatch::start();
    let check = ssr_check::InvariantChecker::new().check_all(&contended.events);
    it.samples.push("check.invariants_s", sw.elapsed_secs());
    it.samples.push("wall_s", wall.elapsed_secs());
    drop(timeline);

    record_outcome(&outcome, &facts, run_secs, &mut it.samples);
    record_runner(cpu, run_secs, workers, &mut it.samples);
    it.samples.push("trace.events", contended.events.len() as f64);
    it.samples.push("trace.bytes", jsonl.len() as f64);
    it.samples.push("check.violations", check.violations.len() as f64);
    if !check.is_clean() {
        it.failures.push(format!("{} invariant violations", check.violations.len()));
    }
    if attributions.len() != facts.foreground.len() {
        it.failures.push(format!(
            "{} baseline traces for {} foreground jobs",
            attributions.len(),
            facts.foreground.len()
        ));
    }
    for (job, attribution) in baselines.iter().map(|(job, _)| job).zip(&attributions) {
        match attribution {
            Ok(a) if a.conserves(CONSERVATION_TOL_SECS) => {}
            Ok(a) => it.failures.push(format!("attribution of {job} does not conserve: {a:?}")),
            Err(e) => it.failures.push(format!("attribution of {job} failed: {e}")),
        }
    }
    facts.check(&outcome, crashed_instances(&contended), &mut it.failures);
    jsonl.hash(digest);
    for a in &alone {
        a.jsonl.hash(digest);
    }
    outcome
}

/// Task instances lost to injected faults in a trace; each is relaunched.
fn crashed_instances(trace: &Trace) -> u64 {
    trace.events.iter().filter(|e| matches!(e.kind, TraceEventKind::TaskCrashed { .. })).count()
        as u64
}

/// Renders the JSONL document out of a returned `JsonlSink`.
fn finish_jsonl(sink: Option<Box<dyn TraceSink>>) -> String {
    sink.expect("a sink was attached")
        .into_any()
        .downcast::<JsonlSink>()
        .expect("the attached sink is a JsonlSink")
        .finish()
}

/// The per-layer runs of a traced iteration, on a freshly generated copy
/// of the iteration's scenario:
///
/// 1. generation and `Simulation::new`, timed;
/// 2. the contended run with no sink (`sim.contended_s` when the workload
///    attaches none);
/// 3. for `trace-explain`, the contended run with the JSONL sink the
///    workload attaches, whose extra time is `trace.overhead_s`;
/// 4. the contended run under the span profiler and a `MetricsSink`
///    (plus the workload's own sink), whose extra time over the run the
///    workload makes is `bench.trace_overhead_frac`;
/// 5. the run-alone baselines on the runner's pool.
///
/// Instruments may only observe: every contended report and counter set
/// must equal the end-to-end iteration's.
fn layer_runs(
    cfg: &RunConfig,
    build: fn(u64, Scale) -> Scenario,
    e2e: &SimReport,
    it: &mut Iteration,
) {
    let traced = cfg.workload == Workload::TraceExplain;
    let s = &mut it.samples;
    let sw = Stopwatch::start();
    let scenario = build(cfg.seed, cfg.scale);
    s.push("workload.gen_s", sw.elapsed_secs());
    let facts = scenario.facts();
    s.push("workload.tasks", facts.total_tasks as f64);

    let sw = Stopwatch::start();
    let sim = scenario.contended();
    s.push("sim.new_s", sw.elapsed_secs());
    let sw = Stopwatch::start();
    let bare = sim.run();
    let bare_secs = sw.elapsed_secs();

    let mut reports = vec![("bare", bare)];
    let workload_secs = if traced {
        let sw = Stopwatch::start();
        let (report, sink) =
            scenario.contended().with_trace_sink(Box::new(JsonlSink::new())).run_traced();
        drop(finish_jsonl(sink));
        let secs = sw.elapsed_secs();
        reports.push(("traced", report));
        s.push("trace.overhead_s", secs - bare_secs);
        secs
    } else {
        bare_secs
    };
    s.push("sim.contended_s", workload_secs);

    let split = SplitSink { jsonl: traced.then(JsonlSink::new), metrics: Some(MetricsSink::new()) };
    let sw = Stopwatch::start();
    let (report, sink, profiler) = scenario
        .contended()
        .with_span_profiler(Box::new(SpanProfiler::new(Box::new(WallClock::start()))))
        .with_trace_sink(Box::new(split))
        .run_instrumented();
    let instrumented_secs = sw.elapsed_secs();
    s.push("bench.trace_overhead_frac", instrumented_secs / workload_secs - 1.0);
    reports.push(("instrumented", report));

    let experiment = scenario.experiment();
    let sw = Stopwatch::start();
    ssr_sim::par_map(ssr_sim::worker_count(), &scenario.foreground, |job| {
        experiment.run_alone(job)
    });
    s.push("sim.alone_s", sw.elapsed_secs());

    let e2e_json = serde_json::to_string(e2e).expect("serializer is total");
    let e2e_counters = e2e.counters.render_json();
    for (label, report) in &reports {
        if serde_json::to_string(report).expect("serializer is total") != e2e_json {
            it.failures.push(format!("{label} contended report differs from the end-to-end run's"));
        }
        if report.counters.render_json() != e2e_counters {
            it.failures
                .push(format!("{label} contended counters differ from the end-to-end run's"));
        }
    }

    let spans = profiler.map(|p| p.report()).unwrap_or_default();
    let metrics = sink
        .and_then(|s| s.into_any().downcast::<SplitSink>().ok())
        .and_then(|s| s.metrics)
        .map(MetricsSink::into_report)
        .unwrap_or_default();
    record_layers(&e2e.counters, &spans, &metrics, &mut it.samples);
}

/// Records the span, counter and trace-metrics layer numbers of one
/// contended run.
fn record_layers(
    counters: &WorkCounters,
    spans: &SpanReport,
    metrics: &MetricsReport,
    s: &mut Samples,
) {
    let tasks = counters.tasks_assigned.get() as f64;
    let per_task = |n: u64| ratio(n as f64, tasks);

    let (loop_total, loop_self) = spans
        .rows
        .iter()
        .find(|r| r.path == "run_loop")
        .map_or((0.0, 0.0), |r| (r.stats.total_secs, r.stats.self_secs));
    s.push("sim.run_loop_self_s", loop_self);
    s.push("sim.unattributed_frac", ratio(loop_self, loop_total));
    s.push("sim.event_dispatch_s", span_total(spans, "event_dispatch"));
    let offer = span_total(spans, "offer_round");
    s.push("scheduler.offer_round_s", offer);
    s.push("scheduler.offer_round_ns_per_task", ratio(offer * 1e9, tasks));

    s.push("scheduler.slots_scanned_per_task", per_task(counters.slots_scanned.get()));
    let hits = counters.index_hits.get() as f64;
    s.push("scheduler.index_hit_ratio", ratio(hits, hits + counters.index_rescans.get() as f64));
    let reuses = counters.scratch_reuses.get() as f64;
    s.push(
        "scheduler.scratch_reuse_ratio",
        ratio(reuses, reuses + counters.scratch_allocs.get() as f64),
    );
    for reason in DENY_REASONS {
        let declined = metrics.offers_declined.get(reason.as_str()).copied().unwrap_or(0);
        s.push(&declined_metric(reason), per_task(declined));
    }
    s.push("scheduler.locality_unlocks", metrics.locality_unlocks as f64);

    s.push("core.approval_calls_per_task", per_task(counters.approval_calls.get()));
    s.push("core.groups_touched_per_task", per_task(counters.reservation_groups_touched.get()));
    s.push("core.reservations_granted", metrics.reservations_granted as f64);
    s.push("core.reservations_expired", metrics.reservations_expired as f64);
    s.push(
        "core.reservation_hold_p99_s",
        metrics.reservation_hold_secs.quantile(0.99).unwrap_or(0.0),
    );

    s.push("simcore.events_popped", counters.events_popped.get() as f64);
    s.push("simcore.events_per_task", per_task(counters.events_popped.get()));
    s.push("simcore.peak_event_queue_len", counters.peak_event_queue_len.get() as f64);

    s.push("faults.tasks_crashed", metrics.tasks_crashed as f64);
    s.push("faults.reservations_revoked", metrics.reservations_revoked as f64);
}

/// Total seconds of every span named `name`, counting nested repeats of
/// the same name once.
fn span_total(spans: &SpanReport, name: &str) -> f64 {
    spans
        .rows
        .iter()
        .filter(|r| {
            let mut segments = r.path.split('/');
            segments.next_back() == Some(name) && segments.all(|s| s != name)
        })
        .map(|r| r.stats.total_secs)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_fig15_sql_ssr_cell() {
        let text = "Fig. 15\n\n(a) standard\nsuite  w/o SSR  w/ SSR\n----\nsql    1.25x    1.03x\n\
                    mllib  1.58x    1.00x\n\n(b) background x2\nsuite\nsql    2.17x    1.09x\n";
        assert_eq!(fig15_sql_ssr_cell(text), Some("1.03x"));
        assert_eq!(fig15_sql_ssr_cell("no table"), None);
    }
}
