//! JSONL decision-trace reader: the inverse of [`ssr_trace::JsonlSink`].
//!
//! Parses a trace document line by line, validates it against the schema
//! the sink writes (sorted keys are not required on input, but event names,
//! field names and types are), and lowers each line back into the typed
//! [`TraceEvent`] the engine originally emitted. A trace written by
//! `JsonlSink` and read back here round-trips exactly — field for field,
//! timestamp for timestamp — which is pinned by tests against
//! [`ssr_trace::VecSink`].
//!
//! The reader accepts schema v1 through v3 documents. v1 traces lack the
//! per-stage DAG metadata on `job-submitted` and the blocked `stage` on
//! `offer-declined`; those fields read back as empty/`None` and downstream
//! analyses degrade gracefully (no critical path, coarser attribution).
//! v3 adds the four fault-lifecycle events (`task-crashed`,
//! `reservation-revoked`, `slot-offline`, `slot-online`); older traces
//! simply contain none of them.

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;

use ssr_dag::{JobId, Priority, StageId};
use ssr_simcore::SimTime;
use ssr_trace::{DenyReason, StageMeta, TraceEvent, TraceEventKind, SCHEMA_VERSION};

use crate::json::{self, Member, Val};

/// Every event name the schema defines, in declaration order.
///
/// Kept in sync with [`TraceEventKind::name`] by the round-trip test, which
/// matches exhaustively over the enum on both the write and read side.
pub const ALL_EVENT_NAMES: [&str; 20] = [
    "job-submitted",
    "offer-round-started",
    "offer-round-ended",
    "offer-declined",
    "task-launched",
    "task-finished",
    "copy-killed",
    "reservation-granted",
    "prereserve-filled",
    "reservation-expired",
    "reservation-released",
    "stale-reservation-released",
    "barrier-cleared",
    "stage-completed",
    "job-completed",
    "locality-unlocked",
    "task-crashed",
    "reservation-revoked",
    "slot-offline",
    "slot-online",
];

/// A parsed trace document: the schema version from the header plus the
/// typed event stream in emission order.
#[derive(Debug, Clone)]
pub struct Trace {
    /// `schema_version` from the `trace-start` header line.
    pub schema_version: u32,
    /// The decision events, in emission (= `seq`) order.
    pub events: Vec<TraceEvent>,
}

/// A reader failure, carrying the 1-based line number it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// 1-based line number within the document (0 for document-level
    /// failures such as an empty input).
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ReadError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ReadError { line, message: message.into() }
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ReadError {}

/// Parses a complete JSONL trace document.
///
/// Validates the `trace-start` header (schema version 1 to 3), per-line
/// shape (`event`/`fields`/`seq`/`time_secs`), monotone `seq` numbering,
/// non-decreasing timestamps, and every event payload against the typed
/// schema. Unknown event names, unknown fields of a known type, and
/// ill-typed fields are all errors naming the offending line.
pub fn parse_trace(input: &str) -> Result<Trace, ReadError> {
    // Member buffers reused by every line: scanned values borrow from
    // `input`, so steady state allocates only the events themselves.
    let mut top = Vec::new();
    let mut members = Vec::new();
    let mut lines = input.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ReadError::new(0, "empty document: missing trace-start header"))?;
    let header = Line::parse(1, header, &mut top, &mut members)?;
    if header.event != "trace-start" {
        return Err(ReadError::new(1, format!("expected trace-start header, got {:?}", header.event)));
    }
    if header.seq != 0 {
        return Err(ReadError::new(1, format!("header seq must be 0, got {}", header.seq)));
    }
    let fields = header.fields(1, &members)?;
    let schema_version = fields.u32("schema_version")?;
    fields.reject_unread("trace-start")?;
    if schema_version == 0 || schema_version > SCHEMA_VERSION {
        return Err(ReadError::new(
            1,
            format!("unsupported schema_version {schema_version} (reader supports 1..={SCHEMA_VERSION})"),
        ));
    }

    // One event per remaining line. Sizing the vector once spares a long
    // trace the copies, and the abandoned smaller buffers, of growing it.
    let mut events = Vec::with_capacity(input.lines().count() - 1);
    let mut last_time = SimTime::ZERO;
    for (idx, raw) in lines {
        let lineno = idx + 1;
        let line = Line::parse(lineno, raw, &mut top, &mut members)?;
        if line.seq != idx as u64 {
            return Err(ReadError::new(lineno, format!("seq {} out of order (expected {})", line.seq, idx)));
        }
        let time = SimTime::from_secs_f64(line.time_secs);
        if time < last_time {
            return Err(ReadError::new(
                lineno,
                format!("time_secs {} precedes the previous event", line.time_secs),
            ));
        }
        last_time = time;
        let fields = line.fields(lineno, &members)?;
        let kind = parse_kind(lineno, &line.event, &fields)?;
        fields.reject_unread(&line.event)?;
        events.push(TraceEvent::new(time, kind));
    }
    Ok(Trace { schema_version, events })
}

/// One decoded JSONL line, before event-specific interpretation. Its
/// `fields` members sit in the buffer [`Line::parse`] filled.
struct Line<'a> {
    event: Cow<'a, str>,
    fields_value: Val<'a>,
    seq: u64,
    time_secs: f64,
}

impl<'a> Line<'a> {
    /// Scans `raw` in one pass: its top-level members go to `top`, and
    /// the members of its `fields` object to `members`.
    fn parse(
        lineno: usize,
        raw: &'a str,
        top: &mut Vec<Member<'a>>,
        members: &mut Vec<Member<'a>>,
    ) -> Result<Line<'a>, ReadError> {
        let scanned = json::document(raw, top, Some(("fields", members)))
            .map_err(|e| ReadError::new(lineno, format!("invalid JSON: {e}")))?;
        if scanned.is_some() {
            return Err(ReadError::new(lineno, "line is not a JSON object"));
        }
        let mut event = None;
        let mut fields = None;
        let mut seq = None;
        let mut time_secs = None;
        for (key, v) in top.drain(..) {
            match &*key {
                "event" => match v {
                    Val::Str(s) => event = Some(s),
                    other => return Err(ReadError::new(lineno, format!("event must be a string, got {:?}", other.to_value()))),
                },
                "fields" => fields = Some(v),
                "seq" => match v {
                    Val::UInt(n) => seq = Some(n),
                    other => return Err(ReadError::new(lineno, format!("seq must be an unsigned integer, got {:?}", other.to_value()))),
                },
                "time_secs" => match v.number() {
                    Some(t) if t >= 0.0 => time_secs = Some(t),
                    _ => return Err(ReadError::new(lineno, format!("time_secs must be a non-negative number, got {:?}", v.to_value()))),
                },
                other => return Err(ReadError::new(lineno, format!("unknown top-level key {other:?}"))),
            }
        }
        Ok(Line {
            event: event.ok_or_else(|| ReadError::new(lineno, "missing \"event\""))?,
            fields_value: fields.ok_or_else(|| ReadError::new(lineno, "missing \"fields\""))?,
            seq: seq.ok_or_else(|| ReadError::new(lineno, "missing \"seq\""))?,
            time_secs: time_secs.ok_or_else(|| ReadError::new(lineno, "missing \"time_secs\""))?,
        })
    }

    /// Typed access to the `fields` object, whose members `parse` left
    /// in `members`.
    fn fields<'m>(&self, lineno: usize, members: &'m [Member<'a>]) -> Result<Fields<'a, 'm>, ReadError> {
        match &self.fields_value {
            Val::Object(_) => Fields::new(lineno, members),
            other => Err(ReadError::new(lineno, format!("fields must be an object, got {:?}", other.to_value()))),
        }
    }
}

/// Typed accessors over one event's `"fields"` object.
///
/// Every lookup marks the member it found, so once an event is read
/// [`reject_unread`](Self::reject_unread) can name any member the schema
/// does not define for it.
struct Fields<'a, 'm> {
    lineno: usize,
    entries: &'m [Member<'a>],
    /// Bit `i` set once `entries[i]` was looked up.
    read: Cell<u64>,
}

impl<'a, 'm> Fields<'a, 'm> {
    fn new(lineno: usize, entries: &'m [Member<'a>]) -> Result<Self, ReadError> {
        // No event has more than eight fields; a larger object cannot be
        // tracked by the read mask and is unknown fields regardless.
        if entries.len() > 64 {
            return Err(ReadError::new(lineno, format!("{} fields is more than any event has", entries.len())));
        }
        Ok(Fields { lineno, entries, read: Cell::new(0) })
    }

    fn err(&self, msg: impl Into<String>) -> ReadError {
        ReadError::new(self.lineno, msg)
    }

    /// Fails on the first member no accessor read: a field `event` does
    /// not have, or a repeat of one it does.
    fn reject_unread(&self, event: &str) -> Result<(), ReadError> {
        let read = self.read.get();
        let Some((i, (key, _))) = self.entries.iter().enumerate().find(|(i, _)| read & (1 << i) == 0)
        else {
            return Ok(());
        };
        if self.entries[..i].iter().any(|(k, _)| k == key) {
            Err(self.err(format!("duplicate field {key:?} in {event}")))
        } else {
            Err(self.err(format!("unknown field {key:?} in {event}")))
        }
    }

    fn get(&self, key: &str) -> Result<&'m Val<'a>, ReadError> {
        self.get_opt(key).ok_or_else(|| self.err(format!("missing field {key:?}")))
    }

    /// Like [`get`](Self::get) but tolerating absence (schema v1 traces).
    fn get_opt(&self, key: &str) -> Option<&'m Val<'a>> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        self.read.set(self.read.get() | 1 << i);
        Some(&self.entries[i].1)
    }

    fn u64(&self, key: &str) -> Result<u64, ReadError> {
        match self.get(key)? {
            Val::UInt(n) => Ok(*n),
            other => Err(self.err(format!("{key:?} must be an unsigned integer, got {:?}", other.to_value()))),
        }
    }

    fn u32(&self, key: &str) -> Result<u32, ReadError> {
        u32::try_from(self.u64(key)?)
            .map_err(|_| self.err(format!("{key:?} exceeds u32 range")))
    }

    fn usize(&self, key: &str) -> Result<usize, ReadError> {
        usize::try_from(self.u64(key)?)
            .map_err(|_| self.err(format!("{key:?} exceeds usize range")))
    }

    fn i32(&self, key: &str) -> Result<i32, ReadError> {
        let raw = match self.get(key)? {
            Val::Int(n) => *n,
            Val::UInt(n) => i64::try_from(*n).map_err(|_| self.err(format!("{key:?} exceeds i64 range")))?,
            other => return Err(self.err(format!("{key:?} must be an integer, got {:?}", other.to_value()))),
        };
        i32::try_from(raw).map_err(|_| self.err(format!("{key:?} exceeds i32 range")))
    }

    fn f64(&self, key: &str) -> Result<f64, ReadError> {
        self.get(key)?.number().ok_or_else(|| self.err(format!("{key:?} must be a number")))
    }

    fn bool(&self, key: &str) -> Result<bool, ReadError> {
        match self.get(key)? {
            Val::Bool(b) => Ok(*b),
            other => Err(self.err(format!("{key:?} must be a boolean, got {:?}", other.to_value()))),
        }
    }

    fn string(&self, key: &str) -> Result<&'m str, ReadError> {
        match self.get(key)? {
            Val::Str(s) => Ok(s),
            other => Err(self.err(format!("{key:?} must be a string, got {:?}", other.to_value()))),
        }
    }

    fn job(&self) -> Result<JobId, ReadError> {
        Ok(JobId::new(self.u64("job")?))
    }

    fn stage(&self) -> Result<StageId, ReadError> {
        Ok(StageId::new(self.u32("stage")?))
    }

    /// `stage` as a nullable field (`offer-declined`, `reservation-granted`);
    /// also absent entirely in schema v1 `offer-declined` lines.
    fn opt_stage(&self) -> Result<Option<StageId>, ReadError> {
        match self.get_opt("stage") {
            None | Some(Val::Null) => Ok(None),
            Some(Val::UInt(n)) => {
                let raw = u32::try_from(*n).map_err(|_| self.err("\"stage\" exceeds u32 range"))?;
                Ok(Some(StageId::new(raw)))
            }
            Some(other) => Err(self.err(format!("\"stage\" must be an unsigned integer or null, got {:?}", other.to_value()))),
        }
    }

    fn opt_secs(&self, key: &str) -> Result<Option<f64>, ReadError> {
        match self.get(key)? {
            Val::Null => Ok(None),
            v => v
                .number()
                .map(Some)
                .ok_or_else(|| self.err(format!("{key:?} must be a number or null"))),
        }
    }

    /// `job-submitted`'s `stages` array; absent in schema v1 traces.
    fn stage_metas(&self) -> Result<Vec<StageMeta>, ReadError> {
        let Some(value) = self.get_opt("stages") else {
            return Ok(Vec::new());
        };
        let Val::Array(text) = value else {
            return Err(self.err(format!("\"stages\" must be an array, got {:?}", value.to_value())));
        };
        let invalid = |e| self.err(format!("invalid JSON: {e}"));
        json::items(text)
            .map_err(invalid)?
            .iter()
            .map(|item| {
                let Val::Object(text) = item else {
                    return Err(self.err(format!("stage entry must be an object, got {:?}", item.to_value())));
                };
                let entries = json::members(text).map_err(invalid)?;
                let meta = Fields::new(self.lineno, &entries)?;
                let Val::Array(parents) = meta.get("parents")? else {
                    return Err(self.err("\"parents\" must be an array"));
                };
                let parents = json::items(parents)
                    .map_err(invalid)?
                    .iter()
                    .map(|p| match p {
                        Val::UInt(n) => u32::try_from(*n)
                            .map(StageId::new)
                            .map_err(|_| self.err("parent stage id exceeds u32 range")),
                        other => Err(self.err(format!("parent stage id must be an unsigned integer, got {:?}", other.to_value()))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let tasks = meta.u32("tasks")?;
                meta.reject_unread("stage entry")?;
                Ok(StageMeta { tasks, parents })
            })
            .collect()
    }
}

/// Maps a locality level string back to the engine's static identifier.
fn level_static(lineno: usize, level: &str) -> Result<&'static str, ReadError> {
    match level {
        "PROCESS_LOCAL" => Ok("PROCESS_LOCAL"),
        "NODE_LOCAL" => Ok("NODE_LOCAL"),
        "RACK_LOCAL" => Ok("RACK_LOCAL"),
        "ANY" => Ok("ANY"),
        other => Err(ReadError::new(lineno, format!("unknown locality level {other:?}"))),
    }
}

/// Maps a `slot-offline` cause string back to the engine's static
/// identifier.
fn offline_cause(lineno: usize, cause: &str) -> Result<&'static str, ReadError> {
    match cause {
        "crash" => Ok("crash"),
        "revocation" => Ok("revocation"),
        "partition" => Ok("partition"),
        "restart" => Ok("restart"),
        other => Err(ReadError::new(lineno, format!("unknown offline cause {other:?}"))),
    }
}

/// Maps a deny reason string back to [`DenyReason`].
fn deny_reason(lineno: usize, reason: &str) -> Result<DenyReason, ReadError> {
    match reason {
        "no-pending-tasks" => Ok(DenyReason::NoPendingTasks),
        "locality-wait" => Ok(DenyReason::LocalityWait),
        "reservation-denied" => Ok(DenyReason::ReservationDenied),
        "no-fitting-slot" => Ok(DenyReason::NoFittingSlot),
        other => Err(ReadError::new(lineno, format!("unknown deny reason {other:?}"))),
    }
}

/// Lowers one line's `(event, fields)` pair into the typed event kind.
///
/// The event-name dispatch below covers every entry of
/// [`ALL_EVENT_NAMES`]; the round-trip test walks an exhaustive match over
/// [`TraceEventKind`] to prove the two sides agree variant for variant.
fn parse_kind(lineno: usize, event: &str, f: &Fields<'_, '_>) -> Result<TraceEventKind, ReadError> {
    use TraceEventKind as K;
    Ok(match event {
        "job-submitted" => K::JobSubmitted {
            job: f.job()?,
            name: f.string("name")?.to_owned(),
            priority: Priority::new(f.i32("priority")?),
            stages: f.stage_metas()?,
        },
        "offer-round-started" => K::OfferRoundStarted {
            free: f.usize("free")?,
            running: f.usize("running")?,
            reserved: f.usize("reserved")?,
        },
        "offer-round-ended" => K::OfferRoundEnded { assignments: f.usize("assignments")? },
        "offer-declined" => K::OfferDeclined {
            job: f.job()?,
            reason: deny_reason(lineno, f.string("reason")?)?,
            stage: f.opt_stage()?,
        },
        "task-launched" => K::TaskLaunched {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
            partition: f.u32("partition")?,
            attempt: f.u32("attempt")?,
            level: level_static(lineno, f.string("level")?)?,
            speculative: f.bool("speculative")?,
            warm: f.bool("warm")?,
        },
        "task-finished" => K::TaskFinished {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
            partition: f.u32("partition")?,
            attempt: f.u32("attempt")?,
            duration_secs: f.f64("duration_secs")?,
        },
        "copy-killed" => K::CopyKilled {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
            partition: f.u32("partition")?,
        },
        "reservation-granted" => K::ReservationGranted {
            slot: f.u32("slot")?,
            job: f.job()?,
            priority: Priority::new(f.i32("priority")?),
            stage: f.opt_stage()?,
            deadline_secs: f.opt_secs("deadline_secs")?,
        },
        "prereserve-filled" => K::PrereserveFilled {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
            priority: Priority::new(f.i32("priority")?),
            deadline_secs: f.opt_secs("deadline_secs")?,
        },
        "reservation-expired" => K::ReservationExpired { slot: f.u32("slot")?, job: f.job()? },
        "reservation-released" => K::ReservationReleased { slot: f.u32("slot")?, job: f.job()? },
        "stale-reservation-released" => K::StaleReservationReleased {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
        },
        "barrier-cleared" => K::BarrierCleared { job: f.job()?, stage: f.stage()? },
        "stage-completed" => K::StageCompleted { job: f.job()?, stage: f.stage()? },
        "job-completed" => K::JobCompleted { job: f.job()? },
        "locality-unlocked" => K::LocalityUnlocked,
        "task-crashed" => K::TaskCrashed {
            slot: f.u32("slot")?,
            job: f.job()?,
            stage: f.stage()?,
            partition: f.u32("partition")?,
            attempt: f.u32("attempt")?,
            requeued: f.bool("requeued")?,
        },
        "reservation-revoked" => K::ReservationRevoked { slot: f.u32("slot")?, job: f.job()? },
        "slot-offline" => K::SlotOffline {
            slot: f.u32("slot")?,
            cause: offline_cause(lineno, f.string("cause")?)?,
        },
        "slot-online" => K::SlotOnline { slot: f.u32("slot")? },
        "trace-start" => {
            return Err(ReadError::new(lineno, "trace-start may only appear as the first line"))
        }
        other => return Err(ReadError::new(lineno, format!("unknown event {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_trace::{JsonlSink, TraceSink, VecSink};

    fn render(events: &[TraceEvent]) -> String {
        let mut sink = JsonlSink::new();
        for e in events {
            sink.record(e);
        }
        sink.finish()
    }

    #[test]
    fn rejects_malformed_documents() {
        let cases: &[(&str, &str)] = &[
            ("", "missing trace-start"),
            ("{\"event\":\"job-completed\",\"fields\":{\"job\":0},\"seq\":0,\"time_secs\":0.0}\n", "expected trace-start"),
            ("{\"event\":\"trace-start\",\"fields\":{\"schema_version\":99},\"seq\":0,\"time_secs\":0.0}\n", "unsupported schema_version"),
            ("not json\n", "invalid JSON"),
        ];
        for (doc, needle) in cases {
            let err = parse_trace(doc).unwrap_err();
            assert!(err.to_string().contains(needle), "{doc:?}: {err}");
        }
    }

    #[test]
    fn rejects_schema_violations_with_line_numbers() {
        let header = r#"{"event":"trace-start","fields":{"schema_version":2},"seq":0,"time_secs":0.0}"#;
        let bad_seq = format!("{header}\n{}\n", r#"{"event":"job-completed","fields":{"job":1},"seq":7,"time_secs":0.0}"#);
        let err = parse_trace(&bad_seq).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("seq 7 out of order"));

        let bad_field = format!("{header}\n{}\n", r#"{"event":"job-completed","fields":{"job":"one"},"seq":1,"time_secs":0.0}"#);
        let err = parse_trace(&bad_field).unwrap_err();
        assert!(err.to_string().contains(r#""job" must be an unsigned integer"#), "{err}");

        let bad_time = format!("{header}\n{}\n{}\n",
            r#"{"event":"job-completed","fields":{"job":1},"seq":1,"time_secs":5.0}"#,
            r#"{"event":"job-completed","fields":{"job":2},"seq":2,"time_secs":4.0}"#);
        let err = parse_trace(&bad_time).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("precedes"));

        let bad_event = format!("{header}\n{}\n", r#"{"event":"job-vanished","fields":{},"seq":1,"time_secs":0.0}"#);
        let err = parse_trace(&bad_event).unwrap_err();
        assert!(err.to_string().contains("unknown event"));
    }

    #[test]
    fn accepts_schema_v1_without_new_fields() {
        let doc = concat!(
            "{\"event\":\"trace-start\",\"fields\":{\"schema_version\":1},\"seq\":0,\"time_secs\":0.0}\n",
            "{\"event\":\"job-submitted\",\"fields\":{\"job\":0,\"name\":\"fg\",\"priority\":10},\"seq\":1,\"time_secs\":0.0}\n",
            "{\"event\":\"offer-declined\",\"fields\":{\"job\":0,\"reason\":\"locality-wait\"},\"seq\":2,\"time_secs\":0.5}\n",
        );
        let trace = parse_trace(doc).expect("v1 accepted");
        assert_eq!(trace.schema_version, 1);
        match &trace.events[0].kind {
            TraceEventKind::JobSubmitted { stages, .. } => assert!(stages.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        match &trace.events[1].kind {
            TraceEventKind::OfferDeclined { stage, .. } => assert!(stage.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_trips_vec_sink_stream() {
        let events = crate::test_events::one_of_each();
        let mut vec_sink = VecSink::new();
        for e in &events {
            vec_sink.record(e);
        }
        let doc = render(&events);
        let trace = parse_trace(&doc).expect("sink output parses");
        assert_eq!(trace.schema_version, SCHEMA_VERSION);
        assert_eq!(trace.events, vec_sink.into_events(), "JSONL round-trip must be lossless");
    }

    #[test]
    fn rejects_unknown_and_duplicate_fields_with_line_numbers() {
        let header = r#"{"event":"trace-start","fields":{"schema_version":3},"seq":0,"time_secs":0.0}"#;
        let ok = r#"{"event":"job-completed","fields":{"job":0},"seq":1,"time_secs":0.0}"#;
        let cases = [
            (r#"{"event":"job-completed","fields":{"job":1,"bogus":2},"seq":2,"time_secs":0.0}"#, r#"unknown field "bogus" in job-completed"#),
            (r#"{"event":"locality-unlocked","fields":{"job":1},"seq":2,"time_secs":0.0}"#, r#"unknown field "job" in locality-unlocked"#),
            (r#"{"event":"job-completed","fields":{"job":1,"job":1},"seq":2,"time_secs":0.0}"#, r#"duplicate field "job" in job-completed"#),
            (
                r#"{"event":"job-submitted","fields":{"job":0,"name":"a","priority":1,"stages":[{"parents":[],"tasks":1,"x":0}]},"seq":2,"time_secs":0.0}"#,
                r#"unknown field "x" in stage entry"#,
            ),
        ];
        for (line, needle) in cases {
            let err = parse_trace(&format!("{header}\n{ok}\n{line}\n")).unwrap_err();
            assert_eq!(err.line, 3, "{line}: {err}");
            assert!(err.to_string().contains(needle), "{line}: {err}");
        }
        let bad_header = r#"{"event":"trace-start","fields":{"schema_version":3,"extra":true},"seq":0,"time_secs":0.0}"#;
        let err = parse_trace(bad_header).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains(r#"unknown field "extra" in trace-start"#), "{err}");
    }

    #[test]
    fn accepts_any_key_order_whitespace_and_escapes() {
        let doc = concat!(
            " { \"time_secs\" : 0 , \"seq\":0, \"fields\": {\"schema_version\":3}, \"event\":\"trace-start\" }\n",
            "{\"seq\":1,\"fi\\u0065lds\":{ \"stages\":[ {\"tasks\":2,\"parents\":[ ]} ],\"priority\":-3,",
            "\"name\":\"q\\\"\\\\\\u00e9\\ud83d\\ude00\\n\",\"job\":4},\"event\":\"job-\\u0073ubmitted\",\"time_secs\":1.5e0}\r\n",
        );
        let trace = parse_trace(doc).expect("valid document");
        assert_eq!(
            trace.events,
            vec![TraceEvent::new(
                SimTime::from_secs_f64(1.5),
                TraceEventKind::JobSubmitted {
                    job: JobId::new(4),
                    name: "q\"\\é😀\n".into(),
                    priority: Priority::new(-3),
                    stages: vec![StageMeta { tasks: 2, parents: vec![] }],
                },
            )]
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn parse_inverts_encode(events in crate::test_events::ArbitraryStream) {
            let trace = parse_trace(&render(&events)).expect("writer output parses");
            proptest::prop_assert_eq!(trace.events, events);
        }
    }

    #[test]
    fn sample_set_covers_every_event_name() {
        let events = crate::test_events::one_of_each();
        for name in ALL_EVENT_NAMES {
            assert!(
                events.iter().any(|e| e.kind.name() == name),
                "sample set missing {name}"
            );
        }
        assert_eq!(events.len(), ALL_EVENT_NAMES.len());
    }
}
