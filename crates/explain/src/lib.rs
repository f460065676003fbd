//! `ssr-explain`: trace-driven slowdown attribution, timeline
//! reconstruction and byte-stable analysis reports.
//!
//! The tracing layer (`ssr-trace`) records every scheduler decision as a
//! JSONL document; this crate closes the loop by reading those documents
//! back and answering the question the paper's evaluation keeps asking:
//! *where did the foreground job's time go?*
//!
//! Three layers build on each other:
//!
//! - [`reader`] parses and schema-validates a JSONL trace back into the
//!   typed [`ssr_trace::TraceEvent`] stream (lossless round-trip, schema
//!   v1 and v2);
//! - [`timeline`] replays the stream into per-slot occupancy segments,
//!   per-job running / reserved-idle / waiting interval sets, per-stage
//!   lifecycle marks, stage critical paths, an ASCII gantt, and the
//!   per-round running-task series behind Figs. 5 and 13;
//! - [`attribution`] decomposes each foreground job's contended−alone JCT
//!   gap into additive causes (reservation-denied queueing, locality wait,
//!   barrier ramp-up, speculation overhead, residual), conserving the gap
//!   by construction;
//! - [`report`] bundles all of it into text and sorted-key JSON renderings
//!   that are byte-identical across runs and `--jobs` worker counts.
//!
//! Everything is a pure function of the input traces: no wall clock, no
//! randomness, no hash-order iteration (the workspace determinism contract
//! enforced by `ssr-lint`).
//!
//! # Example
//!
//! ```
//! use ssr_explain::{explain, parse_trace};
//!
//! let doc = "{\"event\":\"trace-start\",\"fields\":{\"schema_version\":2},\"seq\":0,\"time_secs\":0.0}\n";
//! let trace = parse_trace(doc).expect("valid trace");
//! let report = explain(&trace, &[]).expect("no baselines needed");
//! assert!(report.render_text(64).contains("ssr-explain"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
mod json;
pub mod reader;
pub mod report;
pub mod timeline;

#[cfg(test)]
pub(crate) mod test_events;

pub use attribution::{attribute, blocked_profile, Attribution, AttributionError, BlockedProfile};
pub use reader::{parse_trace, ReadError, Trace, ALL_EVENT_NAMES};
pub use report::{explain, Report, REPORT_VERSION};
pub use timeline::{
    running_series, CriticalHop, Interval, JobTimeline, RunningSample, SlotState, StageTimeline,
    Timeline,
};
