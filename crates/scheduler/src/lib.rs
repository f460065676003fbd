//! # ssr-scheduler
//!
//! A Spark-architecture cluster-scheduling framework, reproducing the three
//! components the paper modifies (§V):
//!
//! * the **DAG scheduler** — parses each job's workflow DAG and submits a
//!   phase's task set exactly when its barrier clears (folded into
//!   [`TaskScheduler`] together with [`ssr_dag::JobRun`]),
//! * the **task-set manager** ([`TaskSetManager`]) — tracks the pending /
//!   running / finished tasks of one phase, including extra task *copies*
//!   with kill-on-first-finish semantics,
//! * the **task scheduler** ([`TaskScheduler`]) — matches resource offers
//!   to tasks, applying delay scheduling (locality wait) and the
//!   *ApprovalLogic* seam of Algorithm 1 through a pluggable
//!   [`ReservationPolicy`].
//!
//! Job ordering is pluggable too ([`JobOrder`]): strict priority
//! scheduling ([`FifoPriority`]) and dynamic-priority fair sharing
//! ([`Fair`]) are provided — the two enforcement regimes the paper
//! evaluates.
//!
//! The crate also ships the paper's §III-A naive baselines:
//! [`WorkConserving`] (release every slot immediately),
//! [`TimeoutReservation`] (blind timeout-based holding) and
//! [`StaticReservation`] (a fixed slot pool for a priority class). The
//! paper's actual contribution — speculative slot reservation — lives in
//! the `ssr-core` crate and plugs into the same [`ReservationPolicy`] seam.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decline;
pub mod engine;
pub mod jobs;
pub mod order;
pub mod policy;
pub mod speculation;
pub mod taskset;

pub use engine::{Assignment, FailureOutcome, FinishOutcome, TaskScheduler};
pub use jobs::{JobState, Jobs, StageStats};
pub use order::{Fair, Fifo, FifoPriority, JobOrder, JobSnapshot};
pub use policy::{
    PolicyCtx, PreReserveRequest, ReservationPolicy, SlotDisposition, StaticReservation,
    TimeoutReservation, WorkConserving,
};
pub use speculation::SpeculationConfig;
pub use taskset::{TaskInstance, TaskSetManager};
