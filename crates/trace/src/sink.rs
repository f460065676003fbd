//! Pluggable trace sinks: where decision events go.
//!
//! The engine holds an `Option<Box<dyn TraceSink>>`; when it is `None` no
//! event is even constructed, so tracing is zero-overhead when disabled.

use std::any::Any;
use std::fmt;

use serde::Value;

use crate::event::{TraceEvent, TraceEventKind};
use crate::metrics::MetricsSink;

/// JSONL schema version emitted in the `trace-start` header line.
///
/// Bump whenever an event's name or field set changes shape.
///
/// # History
///
/// - **v1** — initial 16-event schema.
/// - **v2** — `job-submitted` gained `stages` (per-stage task counts and
///   parent edges); `offer-declined` gained `stage` (the blocked stage).
///   Readers accepting v1 treat the missing fields as empty/absent.
/// - **v3** — four fault-lifecycle events: `task-crashed`,
///   `reservation-revoked`, `slot-offline`, `slot-online`. Traces from
///   runs with an empty `FaultPlan` contain none of them, so v2 readers
///   still parse fault-free v3 output.
pub const SCHEMA_VERSION: u32 = 3;

/// Receiver for scheduler decision events.
///
/// Implementations must be deterministic: `record` may only depend on the
/// event stream itself (no wall-clock, no ambient randomness), so that two
/// runs with the same seed produce byte-identical sink output.
pub trait TraceSink: fmt::Debug {
    /// Observes one decision event. Events arrive in emission order, with
    /// monotonically non-decreasing `time`.
    fn record(&mut self, event: &TraceEvent);

    /// Recovers the concrete sink type after the run (`Box<dyn TraceSink>`
    /// cannot be downcast directly). Implementations return `self`.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// In-memory sink that keeps every event (behind
/// `Simulation::run_recorded` in ssr-sim, and in tests).
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events recorded so far, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Streams events as byte-stable JSON Lines.
///
/// # Format
///
/// The first line is a header identifying the schema; every subsequent line
/// is one event. Each line is a compact JSON object with its keys — at both
/// the top level and inside `"fields"` — in sorted (ASCII) order, the same
/// discipline as `ssr-lint --format json`, so equal traces are equal bytes:
///
/// ```text
/// {"event":"trace-start","fields":{"schema_version":3},"seq":0,"time_secs":0.0}
/// {"event":"job-submitted","fields":{"job":0,"name":"fg","priority":10,"stages":[{"parents":[],"tasks":4}]},"seq":1,"time_secs":0.0}
/// ```
///
/// `seq` is a per-trace monotone counter that pins the relative order of
/// same-timestamp decisions. Ids are rendered as raw integers (`job` as u64,
/// `stage`/`slot`/`partition`/`attempt` as unsigned, `priority` as signed);
/// optional deadlines are seconds or `null`.
#[derive(Debug)]
pub struct JsonlSink {
    out: String,
    seq: u64,
}

impl Default for JsonlSink {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonlSink {
    /// Creates a sink and writes the `trace-start` header line.
    pub fn new() -> Self {
        let mut sink = JsonlSink { out: String::new(), seq: 0 };
        sink.write_line("trace-start", 0.0, |f| {
            f.uint("schema_version", u64::from(SCHEMA_VERSION));
        });
        sink
    }

    /// Consumes the sink, returning the complete JSONL document
    /// (newline-terminated).
    pub fn finish(self) -> String {
        self.out
    }

    /// The JSONL document rendered so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Appends one line straight into the output buffer. `fields` writes
    /// the payload members, in sorted key order, through [`FieldWriter`].
    fn write_line(
        &mut self,
        event: &str,
        time_secs: f64,
        fields: impl FnOnce(&mut FieldWriter<'_>),
    ) {
        let out = &mut self.out;
        out.push_str("{\"event\":");
        push_json_str(out, event);
        out.push_str(",\"fields\":{");
        fields(&mut FieldWriter { out, first: true });
        out.push_str("},\"seq\":");
        push_u64(out, self.seq);
        out.push_str(",\"time_secs\":");
        push_f64(out, time_secs);
        out.push_str("}\n");
        self.seq += 1;
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        self.write_line(event.kind.name(), event.time.as_secs_f64(), |f| {
            write_fields(f, &event.kind)
        });
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Fans one event stream out to an optional JSONL sink and an optional
/// metrics aggregator; used by `ssr-cli run` when both `--trace` and
/// `--metrics` are requested.
#[derive(Debug, Default)]
pub struct SplitSink {
    /// JSONL stream, if requested.
    pub jsonl: Option<JsonlSink>,
    /// Metrics aggregator, if requested.
    pub metrics: Option<MetricsSink>,
}

impl TraceSink for SplitSink {
    fn record(&mut self, event: &TraceEvent) {
        if let Some(j) = self.jsonl.as_mut() {
            j.record(event);
        }
        if let Some(m) = self.metrics.as_mut() {
            m.record(event);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Writes the members of one JSON object into a line under construction.
///
/// Callers supply keys in sorted (ASCII) order; keys are static
/// identifiers that need no escaping. Values are rendered exactly as the
/// `serde_json` stand-in renders the equivalent `Value` tree: shortest
/// round-trip `{:?}` floats, `null` for non-finite floats and absent
/// options, and the same string escapes.
struct FieldWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl FieldWriter<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    fn uint(&mut self, key: &str, n: u64) {
        push_u64(self.key(key), n);
    }

    fn int(&mut self, key: &str, n: i64) {
        let out = self.key(key);
        if n < 0 {
            out.push('-');
        }
        push_u64(out, n.unsigned_abs());
    }

    fn float(&mut self, key: &str, x: f64) {
        push_f64(self.key(key), x);
    }

    fn opt_float(&mut self, key: &str, x: Option<f64>) {
        match x {
            Some(x) => self.float(key, x),
            None => self.key(key).push_str("null"),
        }
    }

    fn opt_uint(&mut self, key: &str, n: Option<u32>) {
        match n {
            Some(n) => self.uint(key, u64::from(n)),
            None => self.key(key).push_str("null"),
        }
    }

    fn bool(&mut self, key: &str, b: bool) {
        self.key(key).push_str(if b { "true" } else { "false" });
    }

    fn str(&mut self, key: &str, s: &str) {
        push_json_str(self.key(key), s);
    }
}

/// Appends the decimal digits of `n`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends `x` in `{:?}` notation, the shortest representation that
/// round-trips (`4.0`, `0.1`, `1e-300`), or `null` when it is not finite.
fn push_f64(out: &mut String, x: f64) {
    use std::fmt::Write as _;
    if x.is_finite() {
        write!(out, "{x:?}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string: `"`, `\\`, `\n`, `\r` and `\t`
/// get short escapes, other control characters `\u00XX`, and everything
/// else (non-ASCII included) is copied through.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes an event's payload members in sorted key order.
fn write_fields(f: &mut FieldWriter<'_>, kind: &TraceEventKind) {
    use TraceEventKind as K;
    match kind {
        K::JobSubmitted { job, name, priority, stages } => {
            f.uint("job", job.as_u64());
            f.str("name", name);
            f.int("priority", i64::from(priority.level()));
            let out = f.key("stages");
            out.push('[');
            for (i, stage) in stages.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"parents\":[");
                for (j, parent) in stage.parents.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_u64(out, u64::from(parent.as_u32()));
                }
                out.push_str("],\"tasks\":");
                push_u64(out, u64::from(stage.tasks));
                out.push('}');
            }
            out.push(']');
        }
        K::OfferRoundStarted { free, running, reserved } => {
            f.uint("free", *free as u64);
            f.uint("reserved", *reserved as u64);
            f.uint("running", *running as u64);
        }
        K::OfferRoundEnded { assignments } => f.uint("assignments", *assignments as u64),
        K::OfferDeclined { job, reason, stage } => {
            f.uint("job", job.as_u64());
            f.str("reason", reason.as_str());
            f.opt_uint("stage", stage.map(|s| s.as_u32()));
        }
        K::TaskLaunched { slot, job, stage, partition, attempt, level, speculative, warm } => {
            f.uint("attempt", u64::from(*attempt));
            f.uint("job", job.as_u64());
            f.str("level", level);
            f.uint("partition", u64::from(*partition));
            f.uint("slot", u64::from(*slot));
            f.bool("speculative", *speculative);
            f.uint("stage", u64::from(stage.as_u32()));
            f.bool("warm", *warm);
        }
        K::TaskFinished { slot, job, stage, partition, attempt, duration_secs } => {
            f.uint("attempt", u64::from(*attempt));
            f.float("duration_secs", *duration_secs);
            f.uint("job", job.as_u64());
            f.uint("partition", u64::from(*partition));
            f.uint("slot", u64::from(*slot));
            f.uint("stage", u64::from(stage.as_u32()));
        }
        K::CopyKilled { slot, job, stage, partition } => {
            f.uint("job", job.as_u64());
            f.uint("partition", u64::from(*partition));
            f.uint("slot", u64::from(*slot));
            f.uint("stage", u64::from(stage.as_u32()));
        }
        K::ReservationGranted { slot, job, priority, stage, deadline_secs } => {
            f.opt_float("deadline_secs", *deadline_secs);
            f.uint("job", job.as_u64());
            f.int("priority", i64::from(priority.level()));
            f.uint("slot", u64::from(*slot));
            f.opt_uint("stage", stage.map(|s| s.as_u32()));
        }
        K::PrereserveFilled { slot, job, stage, priority, deadline_secs } => {
            f.opt_float("deadline_secs", *deadline_secs);
            f.uint("job", job.as_u64());
            f.int("priority", i64::from(priority.level()));
            f.uint("slot", u64::from(*slot));
            f.uint("stage", u64::from(stage.as_u32()));
        }
        K::ReservationExpired { slot, job }
        | K::ReservationReleased { slot, job }
        | K::ReservationRevoked { slot, job } => {
            f.uint("job", job.as_u64());
            f.uint("slot", u64::from(*slot));
        }
        K::StaleReservationReleased { slot, job, stage } => {
            f.uint("job", job.as_u64());
            f.uint("slot", u64::from(*slot));
            f.uint("stage", u64::from(stage.as_u32()));
        }
        K::BarrierCleared { job, stage } | K::StageCompleted { job, stage } => {
            f.uint("job", job.as_u64());
            f.uint("stage", u64::from(stage.as_u32()));
        }
        K::JobCompleted { job } => f.uint("job", job.as_u64()),
        K::LocalityUnlocked => {}
        K::TaskCrashed { slot, job, stage, partition, attempt, requeued } => {
            f.uint("attempt", u64::from(*attempt));
            f.uint("job", job.as_u64());
            f.uint("partition", u64::from(*partition));
            f.bool("requeued", *requeued);
            f.uint("slot", u64::from(*slot));
            f.uint("stage", u64::from(stage.as_u32()));
        }
        K::SlotOffline { slot, cause } => {
            f.str("cause", cause);
            f.uint("slot", u64::from(*slot));
        }
        K::SlotOnline { slot } => f.uint("slot", u64::from(*slot)),
    }
}

/// Checks that an object tree's keys are in sorted order.
pub(crate) fn sorted_keys(v: &Value) -> bool {
    match v {
        Value::Object(entries) => {
            entries.windows(2).all(|w| w[0].0 < w[1].0) && entries.iter().all(|(_, v)| sorted_keys(v))
        }
        Value::Array(items) => items.iter().all(sorted_keys),
        _ => true,
    }
}

/// Forwards an already-built `Value` through the `Serialize` entry point.
pub(crate) struct Raw(pub(crate) Value);

impl serde::Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use ssr_dag::{JobId, Priority, StageId};
    use ssr_simcore::SimTime;

    use crate::event::{DenyReason, StageMeta};

    /// One JSONL line rendered through the `Value` tree and the
    /// `serde_json` stand-in, as [`JsonlSink`] used to.
    fn reference_line(seq: u64, event: &str, time_secs: f64, fields: Value) -> String {
        let line = Value::Object(vec![
            ("event".into(), Value::Str(event.into())),
            ("fields".into(), fields),
            ("seq".into(), Value::UInt(seq)),
            ("time_secs".into(), Value::Float(time_secs)),
        ]);
        let mut out = serde_json::to_string(&Raw(line)).expect("serializer is total");
        out.push('\n');
        out
    }

    /// The reference rendering of a whole document.
    fn reference_document(events: &[TraceEvent]) -> String {
        let header =
            Value::Object(vec![("schema_version".into(), Value::UInt(u64::from(SCHEMA_VERSION)))]);
        let mut out = reference_line(0, "trace-start", 0.0, header);
        for (i, e) in events.iter().enumerate() {
            let seq = i as u64 + 1;
            out.push_str(&reference_line(
                seq,
                e.kind.name(),
                e.time.as_secs_f64(),
                event_fields(&e.kind),
            ));
        }
        out
    }

    fn render(events: &[TraceEvent]) -> String {
        let mut sink = JsonlSink::new();
        for e in events {
            sink.record(e);
        }
        sink.finish()
    }

    /// Lowers an event's payload into a `Value::Object` with sorted keys.
    fn event_fields(kind: &TraceEventKind) -> Value {
        use TraceEventKind as K;
        let obj = |entries: Vec<(&str, Value)>| {
            Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        let uint = |n: u32| Value::UInt(u64::from(n));
        let opt_secs = |d: Option<f64>| d.map(Value::Float).unwrap_or(Value::Null);
        match kind {
            K::JobSubmitted { job, name, priority, stages } => obj(vec![
                ("job", Value::UInt(job.as_u64())),
                ("name", Value::Str(name.clone())),
                ("priority", Value::Int(i64::from(priority.level()))),
                (
                    "stages",
                    Value::Array(
                        stages
                            .iter()
                            .map(|s| {
                                Value::Object(vec![
                                    (
                                        "parents".to_owned(),
                                        Value::Array(
                                            s.parents
                                                .iter()
                                                .map(|p| Value::UInt(u64::from(p.as_u32())))
                                                .collect(),
                                        ),
                                    ),
                                    ("tasks".to_owned(), Value::UInt(u64::from(s.tasks))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            K::OfferRoundStarted { free, running, reserved } => obj(vec![
                ("free", Value::UInt(*free as u64)),
                ("reserved", Value::UInt(*reserved as u64)),
                ("running", Value::UInt(*running as u64)),
            ]),
            K::OfferRoundEnded { assignments } => {
                obj(vec![("assignments", Value::UInt(*assignments as u64))])
            }
            K::OfferDeclined { job, reason, stage } => obj(vec![
                ("job", Value::UInt(job.as_u64())),
                ("reason", Value::Str(reason.as_str().into())),
                ("stage", stage.map(|s| uint(s.as_u32())).unwrap_or(Value::Null)),
            ]),
            K::TaskLaunched { slot, job, stage, partition, attempt, level, speculative, warm } => {
                obj(vec![
                    ("attempt", uint(*attempt)),
                    ("job", Value::UInt(job.as_u64())),
                    ("level", Value::Str((*level).into())),
                    ("partition", uint(*partition)),
                    ("slot", uint(*slot)),
                    ("speculative", Value::Bool(*speculative)),
                    ("stage", uint(stage.as_u32())),
                    ("warm", Value::Bool(*warm)),
                ])
            }
            K::TaskFinished { slot, job, stage, partition, attempt, duration_secs } => obj(vec![
                ("attempt", uint(*attempt)),
                ("duration_secs", Value::Float(*duration_secs)),
                ("job", Value::UInt(job.as_u64())),
                ("partition", uint(*partition)),
                ("slot", uint(*slot)),
                ("stage", uint(stage.as_u32())),
            ]),
            K::CopyKilled { slot, job, stage, partition } => obj(vec![
                ("job", Value::UInt(job.as_u64())),
                ("partition", uint(*partition)),
                ("slot", uint(*slot)),
                ("stage", uint(stage.as_u32())),
            ]),
            K::ReservationGranted { slot, job, priority, stage, deadline_secs } => obj(vec![
                ("deadline_secs", opt_secs(*deadline_secs)),
                ("job", Value::UInt(job.as_u64())),
                ("priority", Value::Int(i64::from(priority.level()))),
                ("slot", uint(*slot)),
                ("stage", stage.map(|s| uint(s.as_u32())).unwrap_or(Value::Null)),
            ]),
            K::PrereserveFilled { slot, job, stage, priority, deadline_secs } => obj(vec![
                ("deadline_secs", opt_secs(*deadline_secs)),
                ("job", Value::UInt(job.as_u64())),
                ("priority", Value::Int(i64::from(priority.level()))),
                ("slot", uint(*slot)),
                ("stage", uint(stage.as_u32())),
            ]),
            K::ReservationExpired { slot, job } | K::ReservationReleased { slot, job } => {
                obj(vec![("job", Value::UInt(job.as_u64())), ("slot", uint(*slot))])
            }
            K::StaleReservationReleased { slot, job, stage } => obj(vec![
                ("job", Value::UInt(job.as_u64())),
                ("slot", uint(*slot)),
                ("stage", uint(stage.as_u32())),
            ]),
            K::BarrierCleared { job, stage } | K::StageCompleted { job, stage } => {
                obj(vec![("job", Value::UInt(job.as_u64())), ("stage", uint(stage.as_u32()))])
            }
            K::JobCompleted { job } => obj(vec![("job", Value::UInt(job.as_u64()))]),
            K::LocalityUnlocked => obj(vec![]),
            K::TaskCrashed { slot, job, stage, partition, attempt, requeued } => obj(vec![
                ("attempt", uint(*attempt)),
                ("job", Value::UInt(job.as_u64())),
                ("partition", uint(*partition)),
                ("requeued", Value::Bool(*requeued)),
                ("slot", uint(*slot)),
                ("stage", uint(stage.as_u32())),
            ]),
            K::ReservationRevoked { slot, job } => {
                obj(vec![("job", Value::UInt(job.as_u64())), ("slot", uint(*slot))])
            }
            K::SlotOffline { slot, cause } => {
                obj(vec![("cause", Value::Str((*cause).into())), ("slot", uint(*slot))])
            }
            K::SlotOnline { slot } => obj(vec![("slot", uint(*slot))]),
        }
    }

    /// Random event streams covering every variant, with the awkward
    /// values an encoder can get wrong: names with quotes, backslashes,
    /// control characters and non-ASCII; `None` and `Some` stages and
    /// deadlines; non-finite and sub-normal floats; empty stage lists.
    struct ArbitraryEvents;

    const CHARS: [char; 18] = [
        'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
        '\u{2028}', '√', '😀', '\u{ffff}',
    ];

    const FLOATS: [f64; 14] = [
        0.0,
        -0.0,
        0.1,
        1.5,
        31.5,
        1e-310,
        5e-324,
        f64::MIN_POSITIVE,
        1e21,
        f64::MAX,
        -2.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.below(items.len() as u64) as usize]
    }

    fn name(rng: &mut TestRng) -> String {
        (0..rng.below(8)).map(|_| pick(rng, &CHARS)).collect()
    }

    fn float(rng: &mut TestRng) -> f64 {
        if rng.below(2) == 0 {
            pick(rng, &FLOATS)
        } else {
            rng.unit_f64() * 1e4
        }
    }

    fn opt_stage(rng: &mut TestRng) -> Option<StageId> {
        (rng.below(2) == 0).then(|| StageId::new(rng.below(1 << 20) as u32))
    }

    fn opt_float(rng: &mut TestRng) -> Option<f64> {
        (rng.below(2) == 0).then(|| float(rng))
    }

    /// One random event of every kind `index` selects (mod 20).
    fn arbitrary_kind(rng: &mut TestRng, index: u64) -> TraceEventKind {
        use TraceEventKind as K;
        let job = JobId::new(rng.next_u64() >> rng.below(64));
        let stage = StageId::new(rng.below(u64::from(u32::MAX) + 1) as u32);
        let slot = rng.below(5000) as u32;
        let small = |rng: &mut TestRng| rng.below(1 << 16) as u32;
        let priority = Priority::new(rng.below(u64::from(u32::MAX) + 1) as u32 as i32);
        let levels = ["PROCESS_LOCAL", "NODE_LOCAL", "RACK_LOCAL", "ANY"];
        let causes = ["crash", "revocation", "partition", "restart"];
        match index % 20 {
            0 => K::JobSubmitted {
                job,
                name: name(rng),
                priority,
                stages: (0..rng.below(4))
                    .map(|i| StageMeta {
                        tasks: small(rng),
                        parents: (0..rng.below(i + 1)).map(|p| StageId::new(p as u32)).collect(),
                    })
                    .collect(),
            },
            1 => K::OfferRoundStarted {
                free: rng.below(5000) as usize,
                running: rng.below(5000) as usize,
                reserved: rng.below(5000) as usize,
            },
            2 => K::OfferRoundEnded { assignments: rng.below(5000) as usize },
            3 => K::OfferDeclined {
                job,
                reason: pick(
                    rng,
                    &[
                        DenyReason::NoPendingTasks,
                        DenyReason::LocalityWait,
                        DenyReason::ReservationDenied,
                        DenyReason::NoFittingSlot,
                    ],
                ),
                stage: opt_stage(rng),
            },
            4 => K::TaskLaunched {
                slot,
                job,
                stage,
                partition: small(rng),
                attempt: small(rng),
                level: pick(rng, &levels),
                speculative: rng.below(2) == 0,
                warm: rng.below(2) == 0,
            },
            5 => K::TaskFinished {
                slot,
                job,
                stage,
                partition: small(rng),
                attempt: small(rng),
                duration_secs: float(rng),
            },
            6 => K::CopyKilled { slot, job, stage, partition: small(rng) },
            7 => K::ReservationGranted {
                slot,
                job,
                priority,
                stage: opt_stage(rng),
                deadline_secs: opt_float(rng),
            },
            8 => K::PrereserveFilled { slot, job, stage, priority, deadline_secs: opt_float(rng) },
            9 => K::ReservationExpired { slot, job },
            10 => K::ReservationReleased { slot, job },
            11 => K::StaleReservationReleased { slot, job, stage },
            12 => K::BarrierCleared { job, stage },
            13 => K::StageCompleted { job, stage },
            14 => K::JobCompleted { job },
            15 => K::LocalityUnlocked,
            16 => K::TaskCrashed {
                slot,
                job,
                stage,
                partition: small(rng),
                attempt: small(rng),
                requeued: rng.below(2) == 0,
            },
            17 => K::ReservationRevoked { slot, job },
            18 => K::SlotOffline { slot, cause: pick(rng, &causes) },
            _ => K::SlotOnline { slot },
        }
    }

    impl Strategy for ArbitraryEvents {
        type Value = Vec<TraceEvent>;

        fn generate(&self, rng: &mut TestRng) -> Vec<TraceEvent> {
            let mut micros = 0u64;
            (0..rng.below(40))
                .map(|_| {
                    micros += rng.below(3) * rng.below(1 << 30);
                    let index = rng.below(20);
                    TraceEvent::new(SimTime::from_micros(micros), arbitrary_kind(rng, index))
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn direct_writer_matches_value_tree_reference(events in ArbitraryEvents) {
            prop_assert_eq!(render(&events), reference_document(&events));
        }

        #[test]
        fn every_key_of_every_line_is_sorted(events in ArbitraryEvents) {
            for line in render(&events).lines() {
                let value = serde_json::from_str(line).expect("writer emits valid JSON");
                prop_assert!(sorted_keys(&value), "keys out of order: {line}");
            }
        }
    }

    #[test]
    fn every_variant_matches_the_reference() {
        // One of each kind with the extreme values the random streams may
        // miss, so the byte-identity check never depends on luck.
        let mut rng = TestRng::for_case(7, 0);
        let events: Vec<TraceEvent> =
            (0..200).map(|i| TraceEvent::new(SimTime::ZERO, arbitrary_kind(&mut rng, i))).collect();
        assert_eq!(render(&events), reference_document(&events));
        let extremes = [
            TraceEventKind::JobSubmitted {
                job: JobId::new(u64::MAX),
                name: "q\"\\\u{1}\n\t😀".into(),
                priority: Priority::new(i32::MIN),
                stages: vec![],
            },
            TraceEventKind::TaskFinished {
                slot: u32::MAX,
                job: JobId::new(0),
                stage: StageId::new(u32::MAX),
                partition: u32::MAX,
                attempt: u32::MAX,
                duration_secs: f64::NAN,
            },
            TraceEventKind::ReservationGranted {
                slot: 0,
                job: JobId::new(1),
                priority: Priority::new(i32::MAX),
                stage: None,
                deadline_secs: Some(f64::INFINITY),
            },
        ];
        let events: Vec<TraceEvent> =
            extremes.into_iter().map(|k| TraceEvent::new(SimTime::ZERO, k)).collect();
        assert_eq!(render(&events), reference_document(&events));
    }
}
