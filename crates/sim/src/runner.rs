//! Deterministic parallel trial execution.
//!
//! Experiments in this crate are pure functions of their configuration
//! and seed, so independent trials can run on any number of worker
//! threads without changing a single output bit. This module provides the
//! three pieces that make that safe and convenient:
//!
//! * [`par_map`] — an order-preserving parallel map over a slice: workers
//!   claim items through an atomic cursor, but results are merged back in
//!   input order, so the output is identical to a sequential map at every
//!   worker count.
//! * worker-count resolution ([`worker_count`] / [`resolve_workers`]) with
//!   the precedence *explicit `--jobs` flag > `SSR_JOBS` environment
//!   variable > available hardware parallelism*.
//! * [`TrialGrid`] — expands a set of [`Experiment`]s × repetitions into
//!   independent [`Trial`]s, each with its own RNG stream derived purely
//!   from `(root_seed, trial index)` ([`SimRng::stream`]), and runs them
//!   on the pool.
//!
//! [`SimRng::stream`]: ssr_simcore::rng::SimRng::stream

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::Serialize;

use crate::experiment::{Experiment, ExperimentOutcome};

/// Process-wide worker-count override (0 = none); set by binaries from
/// their `--jobs` flag so library code never parses CLI arguments.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or, with `None`, clears) the explicit worker-count override.
///
/// `Some(0)` is treated as `Some(1)`: the pool always has at least one
/// worker.
pub fn set_worker_override(workers: Option<usize>) {
    WORKER_OVERRIDE.store(workers.map_or(0, |w| w.max(1)), Ordering::Relaxed);
}

/// The number of workers trial execution uses right now: the explicit
/// override if set, else `SSR_JOBS`, else the machine's available
/// parallelism.
pub fn worker_count() -> usize {
    let flag = match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    };
    let env = std::env::var("SSR_JOBS").ok().and_then(|v| v.trim().parse().ok());
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    resolve_workers(flag, env, available)
}

/// Resolves the worker count from its three sources, in precedence order:
/// explicit flag, then environment, then available parallelism. Never
/// returns 0.
pub fn resolve_workers(flag: Option<usize>, env: Option<usize>, available: usize) -> usize {
    flag.or(env).unwrap_or(available).max(1)
}

/// Maps `f` over `items` on up to `workers` threads, returning results in
/// input order.
///
/// Workers claim items through a shared atomic cursor, so the schedule is
/// nondeterministic — but each result lands in its item's slot and the
/// merge happens in input order, making the output byte-identical to
/// `items.iter().map(f).collect()` regardless of worker count or thread
/// timing. The calling thread works as one of the `workers`, so only
/// `workers - 1` threads are spawned (none with one worker or at most one
/// item): each spawned thread gets its own allocator arena, whose freed
/// memory stays resident, so one thread fewer lowers peak RSS.
///
/// # Panics
///
/// Propagates a panic from `f` once all workers have stopped.
pub fn par_map<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let result = f(item);
        *slots[i].lock().expect("result slot poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot is filled once the scope joins")
        })
        .collect()
}

/// One independent unit of work expanded from a [`TrialGrid`]: a single
/// repetition of a single experiment, with its own derived seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Trial {
    /// Position in grid order (experiment-major, repetition-minor).
    pub index: u64,
    /// Index of the experiment within the grid.
    pub experiment: usize,
    /// Repetition number within the experiment.
    pub repetition: u32,
    /// The trial's seed: `root_seed ^ index`, so each trial reads an
    /// independent, individually reproducible RNG stream
    /// ([`ssr_simcore::rng::SimRng::stream`]).
    pub seed: u64,
}

/// The outcome of one trial, tagged with its grid coordinates and timing.
#[derive(Debug, Clone, Serialize)]
pub struct TrialResult {
    /// The trial that produced this result.
    pub trial: Trial,
    /// The experiment outcome (deterministic per trial seed).
    pub outcome: ExperimentOutcome,
    /// Wall-clock seconds this trial took on its worker. Excluded from
    /// serialization to keep results byte-identical across runs.
    #[serde(skip)]
    pub wall_secs: f64,
}

impl TrialResult {
    /// Simulation events processed by this trial (contended run + alone
    /// baselines).
    pub fn events_processed(&self) -> u64 {
        self.outcome.events_processed
    }
}

/// Merges the work counters of `results` in trial order.
///
/// Results arrive from [`par_map`] already merged back in grid order, so
/// the merged counters — like everything else derived from a grid — are
/// identical at every worker count.
pub fn merged_counters(results: &[TrialResult]) -> ssr_perf::WorkCounters {
    let merged = ssr_perf::WorkCounters::new();
    for result in results {
        merged.merge(&result.outcome.counters);
    }
    merged
}

/// Aggregate execution statistics of a grid run — the `--timing` report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridStats {
    /// Trials executed.
    pub trials: usize,
    /// Simulation events processed across all trials.
    pub events_processed: u64,
    /// Sum of per-trial wall-clock seconds (total CPU-side work).
    pub busy_secs: f64,
    /// The longest single trial, the lower bound on parallel makespan.
    pub max_trial_secs: f64,
}

impl GridStats {
    /// Aggregates the stats of a slice of results.
    pub fn of(results: &[TrialResult]) -> GridStats {
        GridStats {
            trials: results.len(),
            events_processed: results.iter().map(TrialResult::events_processed).sum(),
            busy_secs: results.iter().map(|r| r.wall_secs).sum(),
            max_trial_secs: results.iter().map(|r| r.wall_secs).fold(0.0, f64::max),
        }
    }
}

/// A grid of experiments × repetitions, expanded into independent
/// [`Trial`]s and executed on the worker pool.
///
/// Trials are merged in grid order and each derives its seed purely from
/// `(root_seed, trial index)`, so a grid's results — and anything
/// serialized from them — are identical at every worker count, and any
/// single trial can be reproduced in isolation.
#[derive(Debug, Clone)]
pub struct TrialGrid {
    experiments: Vec<Experiment>,
    repetitions: u32,
    root_seed: u64,
}

impl TrialGrid {
    /// An empty grid rooted at `root_seed`, with one repetition per
    /// experiment.
    pub fn new(root_seed: u64) -> Self {
        TrialGrid { experiments: Vec::new(), repetitions: 1, root_seed }
    }

    /// Adds one experiment.
    #[must_use]
    pub fn experiment(mut self, experiment: Experiment) -> Self {
        self.experiments.push(experiment);
        self
    }

    /// Adds several experiments.
    #[must_use]
    pub fn experiments(mut self, experiments: impl IntoIterator<Item = Experiment>) -> Self {
        self.experiments.extend(experiments);
        self
    }

    /// Sets the number of repetitions per experiment (minimum 1).
    #[must_use]
    pub fn repetitions(mut self, repetitions: u32) -> Self {
        self.repetitions = repetitions.max(1);
        self
    }

    /// The root seed trials derive their streams from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// Number of trials the grid expands to.
    pub fn len(&self) -> usize {
        self.experiments.len() * self.repetitions as usize
    }

    /// `true` if the grid holds no experiments.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// Expands the grid into trials, in grid order: all repetitions of
    /// experiment 0, then experiment 1, and so on.
    pub fn trials(&self) -> Vec<Trial> {
        let mut trials = Vec::with_capacity(self.len());
        for experiment in 0..self.experiments.len() {
            for repetition in 0..self.repetitions {
                let index = trials.len() as u64;
                trials.push(Trial {
                    index,
                    experiment,
                    repetition,
                    seed: self.root_seed ^ index,
                });
            }
        }
        trials
    }

    /// Runs every trial on [`worker_count`] workers.
    pub fn run(&self) -> Vec<TrialResult> {
        self.run_with(worker_count())
    }

    /// Runs every trial on exactly `workers` workers, merging results in
    /// grid order.
    pub fn run_with(&self, workers: usize) -> Vec<TrialResult> {
        let trials = self.trials();
        par_map(workers, &trials, |trial| {
            let started = crate::walltime::Stopwatch::start();
            let outcome =
                self.experiments[trial.experiment].clone().with_seed(trial.seed).run();
            TrialResult { trial: *trial, outcome, wall_secs: started.elapsed_secs() }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{OrderConfig, PolicyConfig};
    use crate::simulation::SimConfig;
    use ssr_cluster::ClusterSpec;
    use ssr_dag::Priority;
    use ssr_simcore::dist::uniform;
    use ssr_workload::synthetic::map_only;

    fn tiny_experiment(tasks: u32) -> Experiment {
        let config = SimConfig::new(ClusterSpec::new(1, 2).unwrap()).with_seed(0);
        Experiment::new(config, PolicyConfig::WorkConserving, OrderConfig::FifoPriority)
            .foreground([map_only("fg", tasks, uniform(1.0, 2.0), Priority::new(10)).unwrap()])
    }

    #[test]
    fn resolve_workers_precedence() {
        // Explicit flag beats everything.
        assert_eq!(resolve_workers(Some(3), Some(5), 8), 3);
        // Environment beats the hardware default.
        assert_eq!(resolve_workers(None, Some(5), 8), 5);
        // Hardware default otherwise.
        assert_eq!(resolve_workers(None, None, 8), 8);
        // Never zero workers.
        assert_eq!(resolve_workers(None, None, 0), 1);
        assert_eq!(resolve_workers(Some(0), Some(5), 8), 1);
    }

    #[test]
    fn override_takes_precedence_until_cleared() {
        // Serialized against other tests touching the global by running
        // set + read + clear in one test.
        set_worker_override(Some(2));
        let flag = match WORKER_OVERRIDE.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        };
        assert_eq!(flag, Some(2));
        assert_eq!(resolve_workers(flag, Some(7), 8), 2);
        set_worker_override(Some(0));
        assert_eq!(WORKER_OVERRIDE.load(Ordering::Relaxed), 1, "Some(0) clamps to 1");
        set_worker_override(None);
        assert_eq!(WORKER_OVERRIDE.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 200] {
            assert_eq!(par_map(workers, &items, |x| x * x), expected);
        }
    }

    #[test]
    fn par_map_on_empty_slice() {
        let out: Vec<u64> = par_map(4, &[], |x: &u64| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn grid_expands_in_experiment_major_order_with_derived_seeds() {
        let grid = TrialGrid::new(0xABCD)
            .experiments([tiny_experiment(2), tiny_experiment(3)])
            .repetitions(3);
        assert_eq!(grid.len(), 6);
        let trials = grid.trials();
        assert_eq!(trials.len(), 6);
        for (i, t) in trials.iter().enumerate() {
            assert_eq!(t.index, i as u64);
            assert_eq!(t.experiment, i / 3);
            assert_eq!(t.repetition, (i % 3) as u32);
            assert_eq!(t.seed, 0xABCD ^ i as u64);
        }
    }

    #[test]
    fn empty_grid_runs_to_no_results() {
        let grid = TrialGrid::new(1);
        assert!(grid.is_empty());
        assert_eq!(grid.len(), 0);
        assert!(grid.run_with(4).is_empty());
    }

    #[test]
    fn repetitions_floor_at_one() {
        let grid = TrialGrid::new(0).experiment(tiny_experiment(2)).repetitions(0);
        assert_eq!(grid.len(), 1);
    }

    #[test]
    fn grid_results_are_identical_across_worker_counts() {
        let grid =
            TrialGrid::new(99).experiments([tiny_experiment(4), tiny_experiment(6)]).repetitions(2);
        let sequential = grid.run_with(1);
        let parallel = grid.run_with(4);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.trial, p.trial);
            assert_eq!(s.outcome.policy, p.outcome.policy);
            assert_eq!(s.outcome.foreground, p.outcome.foreground);
            assert_eq!(s.events_processed(), p.events_processed());
        }
    }

    #[test]
    fn distinct_trials_see_distinct_streams() {
        let grid = TrialGrid::new(5).experiment(tiny_experiment(8)).repetitions(2);
        let results = grid.run_with(2);
        // uniform(1, 2) task durations: different seeds give different
        // alone JCTs for the same experiment.
        let a = results[0].outcome.foreground[0].alone_jct_secs;
        let b = results[1].outcome.foreground[0].alone_jct_secs;
        assert_ne!(a, b, "repetitions must not reuse one RNG stream");
    }

    #[test]
    fn par_map_overlaps_independent_work() {
        // Wait-bound items: four 100 ms waits on 4 workers must complete
        // well under the 400 ms a sequential map needs. Holds even on a
        // single hardware core, since blocked threads overlap.
        let items = [0u8; 4];
        let started = std::time::Instant::now();
        par_map(4, &items, |_| std::thread::sleep(std::time::Duration::from_millis(100)));
        assert!(
            started.elapsed() < std::time::Duration::from_millis(350),
            "4 workers took {:?} for 4 x 100ms of independent waiting",
            started.elapsed()
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// The counter plane obeys the same contract as every other
            /// grid output: merged in trial order, byte-identical at any
            /// worker count.
            #[test]
            fn merged_counters_are_worker_count_invariant(
                seed in 0u64..1_000,
                repetitions in 1u32..3,
            ) {
                let grid = TrialGrid::new(seed)
                    .experiments([tiny_experiment(4), tiny_experiment(6)])
                    .repetitions(repetitions);
                let solo = merged_counters(&grid.run_with(1));
                let pool = merged_counters(&grid.run_with(8));
                prop_assert!(!solo.is_zero(), "trials must count work");
                prop_assert_eq!(solo.render_json(), pool.render_json());
                prop_assert_eq!(solo.render_text(), pool.render_text());
            }
        }
    }

    #[test]
    fn grid_stats_aggregate() {
        let grid = TrialGrid::new(3).experiment(tiny_experiment(4)).repetitions(2);
        let results = grid.run_with(2);
        let stats = GridStats::of(&results);
        assert_eq!(stats.trials, 2);
        assert_eq!(
            stats.events_processed,
            results.iter().map(TrialResult::events_processed).sum::<u64>()
        );
        assert!(stats.events_processed > 0);
        assert!(stats.busy_secs >= stats.max_trial_secs);
    }
}
