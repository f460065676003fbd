//! Tiny-scale self-test of the benchmark: every workload emits every
//! named metric of both planes with no failed iteration, iterations of
//! one seed repeat exactly, `BENCHMARK.json` lists exactly what the
//! program reports, and the benchmark's own sources are lint-clean.

use std::path::Path;

use ssr_perfbench::metrics::{per_layer, END_TO_END};
use ssr_perfbench::workloads::iteration;
use ssr_perfbench::{run, RunConfig, Scale, Workload};

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig { workload, seed: 5, seconds: 0.5, trace, scale: Scale::Tiny }
}

#[test]
fn every_metric_is_emitted_for_every_workload_and_nothing_fails() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let result = run(&tiny(workload, trace));
            assert!(result.attempted >= 1);
            assert_eq!(result.failed, 0, "{workload} trace={trace}: fail_frac must be 0");
            assert!(result.correct(), "{workload} trace={trace}: {:?}", result.metrics);
            let expected: Vec<(String, &str)> = if trace {
                per_layer()
            } else {
                END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect()
            };
            let emitted: Vec<(String, &str)> =
                result.metrics.iter().map(|(n, _, u)| (n.clone(), *u)).collect();
            assert_eq!(emitted, expected, "{workload} trace={trace}");
            if !trace {
                for (name, value, _) in &result.metrics {
                    assert!(*value > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            }
            let line = result.render_json();
            assert!(serde_json::from_str(&line).is_ok(), "{line}");
        }
    }
}

#[test]
fn layers_are_measured_where_the_workload_enters_them() {
    let explain = run(&tiny(Workload::TraceExplain, true));
    for name in ["trace.events", "trace.bytes", "explain.parse_s", "check.invariants_s"] {
        assert!(explain.metric(name).unwrap() > 0.0, "trace-explain {name}");
    }
    assert!(explain.metric("faults.tasks_crashed").unwrap() > 0.0, "the crash must strike");
    assert_eq!(explain.metric("check.violations"), Some(0.0));

    let paper = run(&tiny(Workload::PaperSsr, true));
    assert_eq!(paper.metric("trace.overhead_s"), Some(0.0), "paper-ssr attaches no sink");
    assert_eq!(paper.metric("figures.fig15_s"), Some(0.0));
    for name in ["sim.contended_s", "scheduler.offer_round_s", "simcore.events_popped"] {
        assert!(paper.metric(name).unwrap() > 0.0, "paper-ssr {name}");
    }

    let figures = run(&tiny(Workload::FiguresQuick, true));
    assert!(figures.metric("figures.fig15_s").unwrap() > 0.0);
}

#[test]
fn iterations_of_one_seed_repeat_exactly() {
    for workload in Workload::ALL {
        let cfg = tiny(workload, false);
        ssr_sim::runner::set_worker_override(Some(2));
        let a = iteration(&cfg, 2);
        ssr_sim::runner::set_worker_override(Some(1));
        let b = iteration(&cfg, 1);
        assert!(a.failures.is_empty(), "{workload}: {:?}", a.failures);
        assert_eq!(a.digest, b.digest, "{workload}: same seed, any worker count, same output");
        // The figure suite carries its own seeds; the other workloads
        // generate their inputs from the benchmark's.
        let other = iteration(&RunConfig { seed: 6, ..cfg }, 2);
        assert_eq!(
            a.digest == other.digest,
            workload == Workload::FiguresQuick,
            "{workload}: the seed reaches exactly the generated workloads"
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_what_the_program_reports() {
    use serde_json::Value;
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let Value::Object(root) = serde_json::from_str(&text).expect("BENCHMARK.json parses") else {
        panic!("BENCHMARK.json is an object");
    };
    let field = |obj: &[(String, Value)], key: &str| -> Value {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).unwrap_or(Value::Null)
    };
    let names = |key: &str, with_unit: bool| -> Vec<String> {
        let Value::Array(items) = field(&root, key) else { panic!("{key} is a list") };
        items
            .iter()
            .map(|item| {
                let Value::Object(obj) = item else { panic!("{key} entries are objects") };
                let Value::Str(name) = field(obj, "name") else { panic!("{key} name") };
                if !with_unit {
                    return name;
                }
                let Value::Str(unit) = field(obj, "unit") else { panic!("{key} unit") };
                format!("{name} [{unit}]")
            })
            .collect()
    };
    let workloads: Vec<String> =
        Workload::BENCHMARKED.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(names("workloads", false), workloads);
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, u)| format!("{n} [{u}]")).collect();
    assert_eq!(names("end_to_end", true), e2e);
    let layers: Vec<String> = per_layer().iter().map(|(n, u)| format!("{n} [{u}]")).collect();
    assert_eq!(names("per_layer", true), layers);
}

#[test]
fn benchmark_sources_are_lint_clean() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<_> = std::fs::read_dir(&src)
        .expect("src directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 2);
    for file in files {
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&file).unwrap();
        // Linted as a crate of the engine's workspace would be, so the
        // crate-root and wall-clock/thread barrier rules all apply.
        let out = ssr_lint::lint_source(&format!("crates/perfbench/src/{name}"), &source);
        assert!(out.findings.is_empty(), "{name}: {:?}", out.findings);
        assert_eq!(out.suppressed, 0, "{name}: the benchmark suppresses no finding");
    }
}
