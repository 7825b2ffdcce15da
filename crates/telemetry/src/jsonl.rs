//! The one reader behind every JSONL file gfab writes, and the span
//! codec of [`Trace`] (the `--trace-json` sink).
//!
//! # Files (version 5)
//!
//! Every file is UTF-8, one JSON object per line, each line naming its
//! record type in `"type"`. Four kinds of file share one framing:
//!
//! | kind | header line | record lines | footer line |
//! |---|---|---|---|
//! | trace (`--trace-json`) | `{"type":"trace","version":5,"spans":N}` | exactly `N` `span` | — |
//! | agg (`trace-agg --json`) | `{"type":"agg","version":5,"group_by":G,"groups":N}` | exactly `N` `group` | — |
//! | events (`--events`) | `{"type":"events","version":5}` | any number of `event` | optional `{"type":"events-end","events":N,"dropped":D}` |
//! | ledger (`--ledger`) | — | root `span`, each carrying `"version":5` | — |
//!
//! A header may also carry an optional `"producer"` string: the emitting
//! tool's version (e.g. `gfab 0.4.0+abc1234`, what `gfab --version`
//! prints), so a file names the build that wrote it. The record lines of
//! each kind are documented with their parsers: spans below, groups in
//! [`crate::TraceAgg`], events in [`crate::events`]. A ledger's lines
//! are spans too, with the extra attributes [`crate::ledger`] requires.
//!
//! [`read`] is the only code that walks the lines of a file: it checks
//! the header, the footer, the declared record count and the version,
//! and hands each record line to the parser of its kind. The rules are
//! the same for every kind:
//!
//! * Only version 5 is read; any other `"version"` is an error.
//! * A non-JSON *final* line is torn — its writer was cut off or is
//!   still writing — and is ignored and reported. Declared counts still
//!   catch a truncated trace or agg file.
//! * Any other line that is not JSON, or not a valid record of the
//!   file's kind, is an error naming the line and the field path (what
//!   `gfab trace-check` prints). The lenient mode `gfab report` reads
//!   ledgers with skips and counts such lines instead, because it may
//!   read a ledger while other processes append to it.
//! * A well-formed line of another kind of file (a trace header in a
//!   ledger, say) is an error in both modes.
//!
//! # Span lines
//!
//! Each `span` line carries exactly these fields:
//!
//! * `"type"`: the string `"span"`;
//! * `"id"`: integer ≥ 1, unique within the file;
//! * `"parent"`: integer id of the parent span, or `null` for roots —
//!   must reference an id present in the file;
//! * `"phase"`: a [`Phase`] slug (e.g. `"guided-reduction"`);
//! * `"label"`: free-form string or `null`;
//! * `"thread"`: integer display index of the recording thread;
//! * `"start_us"`: integer microseconds from the trace epoch;
//! * `"dur_us"`: integer microseconds of span duration;
//! * `"counters"`: object mapping [`Counter`] slugs to integers;
//! * `"gauges"`: object mapping [`Gauge`] slugs to integers;
//! * `"hists"`: object mapping [`Hist`] slugs to histogram objects
//!   `{"count":C,"sum":S,"min":m,"max":M,"buckets":[b0,…,b15]}` with
//!   exactly [`HIST_BUCKETS`](crate::HIST_BUCKETS) buckets summing to
//!   `C`;
//! * `"attrs"`, only on a root span that has attributes: object mapping
//!   [`Attr`] slugs to values of the key's type ([`Attr::is_int`]). A
//!   `check` root carries `verdict`, `rung`, `spec`, `impl` and, with a
//!   counterexample, `cex`; an `extract` root `verdict` and `case`.
//!
//! Unknown fields, unknown slugs, attributes on a child span or of the
//! wrong type, duplicate ids, dangling parents, a wrong span count and
//! malformed histograms are all errors.
//!
//! # Version history
//!
//! * **v1** — header + span lines with counters only.
//! * **v2** — adds the `gauges`/`hists` span fields.
//! * **v3** — span lines unchanged; adds the `agg` and ledger `run`
//!   documents.
//! * **v4** — span lines unchanged; adds the `events` stream.
//! * **v5** — adds the root-span `attrs`, and a ledger's lines become
//!   root `span` lines in place of `run` rows.
//!
//! Only the current version is read. Versions 1–3 became unreadable when
//! one reader replaced the four per-kind ones, and v4 files when v5
//! replaced the `run` row: a v4 trace, agg, event stream or ledger is
//! rejected with an error naming `version`.

use crate::agg::{parse_group, TraceAgg};
use crate::events::{parse_event, EventStream};
use crate::json::{parse_object, write_json_string, Json, Obj};
use crate::ledger::Ledger;
use crate::{
    Attr, AttrValue, Counter, Gauge, Hist, HistData, Phase, SpanRecord, Trace, HIST_BUCKETS,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Duration;

/// Schema version written and read by every gfab JSONL file.
pub const JSONL_VERSION: u64 = 5;

/// A JSONL parse/validation failure, with the 1-based offending line and
/// (when the problem is tied to a specific field) the field path within
/// that line, e.g. `hists.division-chain-len.buckets`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for whole-file problems).
    pub line: usize,
    /// Dotted field path within the line (empty when the problem is not
    /// tied to one field, e.g. malformed JSON).
    pub path: String,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.line, self.path.is_empty()) {
            (0, true) => write!(f, "{}", self.message),
            (0, false) => write!(f, "field {}: {}", self.path, self.message),
            (l, true) => write!(f, "line {l}: {}", self.message),
            (l, false) => write!(f, "line {l}, field {}: {}", self.path, self.message),
        }
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        path: String::new(),
        message: message.into(),
    }
}

pub(crate) fn err_at(
    line: usize,
    path: impl Into<String>,
    message: impl Into<String>,
) -> ParseError {
    ParseError {
        line,
        path: path.into(),
        message: message.into(),
    }
}

/// The kinds of JSONL file gfab writes (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Trace,
    Agg,
    Events,
    Ledger,
}

const KINDS: [Kind; 4] = [Kind::Trace, Kind::Agg, Kind::Events, Kind::Ledger];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Trace => "trace",
            Kind::Agg => "agg",
            Kind::Events => "events",
            Kind::Ledger => "ledger",
        }
    }

    /// The header's `type` and required fields; a ledger has no header.
    fn header(self) -> Option<(&'static str, &'static [&'static str])> {
        match self {
            Kind::Trace => Some(("trace", &["type", "version", "spans"])),
            Kind::Agg => Some(("agg", &["type", "version", "group_by", "groups"])),
            Kind::Events => Some(("events", &["type", "version"])),
            Kind::Ledger => None,
        }
    }

    /// The `type` of the record lines.
    fn record(self) -> &'static str {
        match self {
            Kind::Trace | Kind::Ledger => "span",
            Kind::Agg => "group",
            Kind::Events => "event",
        }
    }

    /// The footer's `type` and fields, for the one kind that has one.
    fn footer(self) -> Option<(&'static str, &'static [&'static str])> {
        match self {
            Kind::Events => Some(("events-end", &["type", "events", "dropped"])),
            _ => None,
        }
    }

    /// The field declaring the record count: in the header of a trace
    /// or agg file, in the footer of an event stream.
    fn count_field(self) -> Option<&'static str> {
        match self {
            Kind::Trace => Some("spans"),
            Kind::Agg => Some("groups"),
            Kind::Events => Some("events"),
            Kind::Ledger => None,
        }
    }

    /// The kind of a file, from the `type` of its first line: a header,
    /// or a ledger's `span` line.
    fn of(text: &str) -> Result<Kind, ParseError> {
        let (n, line) = lines(text).next().ok_or_else(|| err(0, "empty file"))?;
        let obj = parse_object(line).map_err(|m| err(n, m))?;
        // A file another version wrote fails on its version, whatever
        // its lines were called then.
        if let Some(Json::Num(_)) = obj.get("version") {
            check_version(&obj).map_err(|e| e.on_line(n))?;
        }
        let ty = type_of(&obj);
        KINDS
            .into_iter()
            .find(|k| k.header().map_or(k.record(), |(h, _)| h) == ty)
            .ok_or_else(|| {
                let want = "a header or a \"span\" line";
                err_at(
                    n,
                    "type",
                    format!("expected {want}, found {}", describe(ty)),
                )
            })
    }
}

/// The `"type"` of a line; empty when it has none.
fn type_of(obj: &Obj) -> &str {
    match obj.get("type") {
        Some(Json::Str(s)) => s,
        _ => "",
    }
}

/// Which line of some kind of file a `type` names, if any.
fn role(ty: &str) -> Option<&'static str> {
    KINDS.into_iter().find_map(|k| {
        if k.header().is_some_and(|(h, _)| h == ty) {
            Some("header")
        } else if k.record() == ty {
            Some("line")
        } else if k.footer().is_some_and(|(f, _)| f == ty) {
            Some("footer")
        } else {
            None
        }
    })
}

/// A line's `type` as messages name it.
fn describe(ty: &str) -> String {
    match role(ty) {
        Some(role) => format!("a {ty:?} {role}"),
        None if ty.is_empty() => "no \"type\" string".into(),
        None => format!("unknown type {ty:?}"),
    }
}

/// The non-blank lines of `text`, trimmed, with 1-based numbers.
fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
}

/// A header line (no trailing newline): `type`, the version, the
/// kind's own `fields` (each written as `,"name":value`), then the
/// optional producer.
pub(crate) fn header_line(ty: &str, fields: &str, producer: Option<&str>) -> String {
    let mut out = format!("{{\"type\":\"{ty}\",\"version\":{JSONL_VERSION}{fields}");
    if let Some(p) = producer {
        out.push_str(",\"producer\":");
        write_json_string(&mut out, p);
    }
    out.push('}');
    out
}

fn check_version(obj: &Obj) -> Result<(), FieldError> {
    match get_u64(obj, "version")? {
        JSONL_VERSION => Ok(()),
        v => Err(field_err(
            "version",
            format!("unsupported version {v} (only {JSONL_VERSION} is read)"),
        )),
    }
}

/// A file as [`read`] frames it.
pub(crate) struct Frame<T> {
    /// The header line and its number (an empty object at line 0 for a
    /// ledger, which has no header).
    pub(crate) header: (usize, Obj),
    /// Each parsed record with its line number, in file order.
    pub(crate) records: Vec<(usize, T)>,
    /// The footer line and its number, when the file has one.
    pub(crate) footer: Option<(usize, Obj)>,
    /// The number of the torn final line that was ignored, if any.
    pub(crate) torn: Option<usize>,
    /// Lines skipped by lenient reading.
    pub(crate) skipped: usize,
}

/// Reads a `kind` file (see the module docs for the rules), parsing each
/// record line with `parse`. `lenient` skips and counts unparsable lines
/// and invalid records instead of failing on them.
pub(crate) fn read<T>(
    text: &str,
    kind: Kind,
    lenient: bool,
    parse: fn(&Obj) -> Result<T, FieldError>,
) -> Result<Frame<T>, ParseError> {
    let lines: Vec<(usize, &str)> = lines(text).collect();
    let mut frame = Frame {
        header: (0, Obj(Vec::new())),
        records: Vec::new(),
        footer: None,
        torn: None,
        skipped: 0,
    };
    let mut body = &lines[..];
    if let Some((ty, keys)) = kind.header() {
        let &(n, line) = lines
            .first()
            .ok_or_else(|| err(0, format!("empty {} file", kind.name())))?;
        let header = parse_object(line).map_err(|m| err(n, m))?;
        if type_of(&header) != ty {
            let found = describe(type_of(&header));
            return Err(err_at(
                n,
                "type",
                format!("expected a {ty:?} header, found {found}"),
            ));
        }
        expect_keys_opt(&header, keys, &["producer"])
            .and_then(|()| match header.get("producer") {
                Some(_) => get_str(&header, "producer").map(drop),
                None => Ok(()),
            })
            .and_then(|()| check_version(&header))
            .map_err(|e| e.on_line(n))?;
        frame.header = (n, header);
        body = &lines[1..];
    }
    for (i, &(n, line)) in body.iter().enumerate() {
        if let (Some(_), Some((f, _))) = (&frame.footer, kind.footer()) {
            return Err(err(n, format!("content after the {f} footer")));
        }
        let mut obj = match parse_object(line) {
            Ok(obj) => obj,
            Err(_) if i + 1 == body.len() => {
                frame.torn = Some(n);
                break;
            }
            Err(_) if lenient => {
                frame.skipped += 1;
                continue;
            }
            Err(m) => return Err(err(n, m)),
        };
        let ty = type_of(&obj);
        if let Some((_, keys)) = kind.footer().filter(|(f, _)| *f == ty) {
            expect_keys(&obj, keys).map_err(|e| e.on_line(n))?;
            frame.footer = Some((n, obj));
            continue;
        }
        // Header-less ledger lines each carry their own version, which
        // is not a field of the record. A line another version wrote is
        // never mere garbage, even to a lenient reader.
        let version = match kind.header() {
            None => check_version(&obj),
            Some(_) => Ok(()),
        };
        let record = if let Err(e) = version {
            if let Some(Json::Num(_)) = obj.get("version") {
                return Err(e.on_line(n));
            }
            Err(e)
        } else if ty == kind.record() {
            if kind.header().is_none() {
                obj.0.retain(|(k, _)| k != "version");
            }
            parse(&obj)
        } else {
            let want = kind.record();
            let e = field_err(
                "type",
                format!("expected a {want:?} line, found {}", describe(ty)),
            );
            if role(ty).is_some() {
                // A well-formed line of another kind of file is never
                // mere garbage, even to a lenient reader.
                return Err(e.on_line(n));
            }
            Err(e)
        };
        match record {
            Ok(r) => frame.records.push((n, r)),
            Err(_) if lenient => frame.skipped += 1,
            Err(e) => return Err(e.on_line(n)),
        }
    }
    let declared_in = match kind.footer() {
        Some(_) => frame.footer.as_ref().map(|(n, f)| ("footer", *n, f)),
        None => Some(("header", frame.header.0, &frame.header.1)),
    };
    if let (Some(field), Some((place, n, obj))) = (kind.count_field(), declared_in) {
        let declared = get_u64(obj, field).map_err(|e| e.on_line(n))?;
        let found = frame.records.len();
        if declared != found as u64 {
            return Err(err_at(
                n,
                field,
                format!("{place} declares {declared} {field}, found {found}"),
            ));
        }
    }
    Ok(frame)
}

/// Validates any file gfab writes — its kind told by its first line —
/// with the parser of that kind, and describes it in one line (what
/// `gfab trace-check` prints): `valid trace: …`, `valid agg: …`,
/// `valid events: …` or `valid ledger: …`.
///
/// # Errors
///
/// A [`ParseError`] naming the offending line and field path.
pub fn check_jsonl(text: &str) -> Result<String, ParseError> {
    let kind = Kind::of(text)?;
    let (what, torn) = match kind {
        Kind::Trace => {
            let frame = read(text, kind, false, parse_span)?;
            let torn = frame.torn;
            let t = Trace::from_frame(frame)?;
            let roots = t.roots().count();
            let what = format!(
                "{} spans, {roots} roots, wall {:?}",
                t.spans().len(),
                t.wall()
            );
            (what, torn)
        }
        Kind::Agg => {
            let frame = read(text, kind, false, parse_group)?;
            let torn = frame.torn;
            let agg = TraceAgg::from_frame(frame)?;
            let what = format!(
                "{} group(s) by {}, {} span(s), {} work unit(s)",
                agg.groups.len(),
                agg.group_by().slug(),
                agg.total_spans(),
                agg.work_units()
            );
            (what, torn)
        }
        Kind::Events => {
            let frame = read(text, kind, false, parse_event)?;
            let torn = frame.torn;
            let ev = EventStream::from_frame(frame)?;
            let kinds: Vec<String> = ev
                .kind_counts()
                .iter()
                .map(|(k, n)| format!("{k}={n}"))
                .collect();
            let what = format!(
                "{} event(s) ({}), {} dropped, {}",
                ev.events.len(),
                kinds.join(" "),
                ev.dropped.unwrap_or(0),
                if ev.complete { "complete" } else { "in-flight" }
            );
            (what, torn)
        }
        Kind::Ledger => {
            let ledger = Ledger::from_jsonl(text, false)?;
            let what = format!(
                "{} row(s) across {} run(s)",
                ledger.rows.len(),
                ledger.runs()
            );
            (what, ledger.torn)
        }
    };
    let mut out = format!("valid {}: {what}", kind.name());
    if let Some(n) = torn {
        let _ = write!(out, "; torn final line {n} ignored");
    }
    Ok(out)
}

const SPAN_KEYS: [&str; 11] = [
    "type", "id", "parent", "phase", "label", "thread", "start_us", "dur_us", "counters", "gauges",
    "hists",
];

/// Parses one `span` line (see the module docs).
pub(crate) fn parse_span(obj: &Obj) -> Result<SpanRecord, FieldError> {
    expect_keys_opt(obj, &SPAN_KEYS, &["attrs"])?;
    let id = get_u64(obj, "id")?;
    if id == 0 {
        return Err(field_err("id", "span id must be >= 1"));
    }
    let parent = get_opt_u64(obj, "parent")?;
    let attrs = match obj.get("attrs") {
        None => Vec::new(),
        Some(_) if parent.is_some() => {
            return Err(field_err("attrs", "only a root span carries attributes"))
        }
        Some(_) => get_map(obj, "attrs", "attribute", Attr::from_slug, get_attr)?,
    };
    let mistyped = |(a, v): &&(Attr, AttrValue)| a.is_int() != matches!(v, AttrValue::Int(_));
    if let Some((a, _)) = attrs.iter().find(mistyped) {
        let want = if a.is_int() {
            "an unsigned integer"
        } else {
            "a string"
        };
        let message = format!("attribute {:?} must be {want}", a.slug());
        return Err(field_err(format!("attrs.{}", a.slug()), message));
    }
    Ok(SpanRecord {
        id,
        parent,
        phase: get_slug(obj, "phase", "phase", Phase::from_slug)?,
        label: get_opt_str(obj, "label")?,
        thread: get_u64(obj, "thread")?,
        start: Duration::from_micros(get_u64(obj, "start_us")?),
        duration: Duration::from_micros(get_u64(obj, "dur_us")?),
        counters: get_map(obj, "counters", "counter", Counter::from_slug, get_count)?,
        gauges: get_map(obj, "gauges", "gauge", Gauge::from_slug, get_count)?,
        hists: get_map(obj, "hists", "histogram", Hist::from_slug, parse_hist)?,
        attrs,
    })
}

/// An attribute value: a string or an unsigned integer, checked
/// against its key's type by [`parse_span`].
fn get_attr(value: &Json) -> Result<AttrValue, FieldError> {
    match value {
        Json::Str(s) => Ok(AttrValue::Str(s.clone())),
        Json::Num(n) => Ok(AttrValue::Int(*n)),
        _ => Err(field_err("", "must be a string or an unsigned integer")),
    }
}

impl Trace {
    /// Serializes the trace to the documented JSONL schema (version 5).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.emit_jsonl(None)
    }

    /// [`Trace::to_jsonl`] with the optional `"producer"` header field
    /// set to `producer` — the emitting tool's version string, recorded
    /// so a trace file names the build that wrote it.
    #[must_use]
    pub fn to_jsonl_tagged(&self, producer: &str) -> String {
        self.emit_jsonl(Some(producer))
    }

    fn emit_jsonl(&self, producer: Option<&str>) -> String {
        let fields = format!(",\"spans\":{}", self.spans().len());
        let mut out = header_line("trace", &fields, producer) + "\n";
        for s in self.spans() {
            write_span(&mut out, s, false);
            out.push('\n');
        }
        out
    }

    /// Parses and validates a trace from the documented JSONL schema.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the offending line and field path for any
    /// syntax or schema violation (see the module docs for the rules).
    pub fn from_jsonl(text: &str) -> Result<Trace, ParseError> {
        Trace::from_frame(read(text, Kind::Trace, false, parse_span)?)
    }

    /// The trace of framed span lines: ids must be unique and every
    /// parent must be one of them.
    fn from_frame(frame: Frame<SpanRecord>) -> Result<Trace, ParseError> {
        let mut ids = BTreeSet::new();
        for (n, s) in &frame.records {
            if !ids.insert(s.id) {
                return Err(err_at(*n, "id", format!("duplicate span id {}", s.id)));
            }
        }
        for (n, s) in &frame.records {
            if let Some(p) = s.parent.filter(|p| !ids.contains(p)) {
                let message = format!("span {} has dangling parent {p}", s.id);
                return Err(err_at(*n, "parent", message));
            }
        }
        Ok(Trace::from_spans(
            frame.records.into_iter().map(|(_, s)| s).collect(),
        ))
    }
}

/// Appends one `span` line (no newline). A ledger line also carries
/// the schema version, right after its type; `attrs` is written only
/// when the span has attributes.
pub(crate) fn write_span(out: &mut String, s: &SpanRecord, version: bool) {
    out.push_str("{\"type\":\"span\"");
    if version {
        let _ = write!(out, ",\"version\":{JSONL_VERSION}");
    }
    let _ = write!(out, ",\"id\":{},\"parent\":", s.id);
    match s.parent {
        Some(p) => {
            let _ = write!(out, "{p}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"phase\":\"{}\",\"label\":", s.phase.slug());
    match &s.label {
        Some(l) => write_json_string(out, l),
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"thread\":{},\"start_us\":{},\"dur_us\":{},",
        s.thread,
        s.start.as_micros(),
        s.duration.as_micros()
    );
    write_map(out, "counters", &s.counters, Counter::slug, write_u64);
    out.push(',');
    write_map(out, "gauges", &s.gauges, Gauge::slug, write_u64);
    out.push(',');
    write_map(out, "hists", &s.hists, Hist::slug, write_hist_json);
    if !s.attrs.is_empty() {
        out.push(',');
        write_map(out, "attrs", &s.attrs, Attr::slug, |out, v| match v {
            AttrValue::Str(text) => write_json_string(out, text),
            AttrValue::Int(n) => write_u64(out, n),
        });
    }
    out.push('}');
}

/// Appends `"key":{"slug":value,…}`, each value written by `value`.
pub(crate) fn write_map<K: Copy, V>(
    out: &mut String,
    key: &str,
    items: &[(K, V)],
    slug: fn(K) -> &'static str,
    value: impl Fn(&mut String, &V),
) {
    let _ = write!(out, "\"{key}\":{{");
    for (i, (k, v)) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", slug(*k));
        value(out, v);
    }
    out.push('}');
}

pub(crate) fn write_u64(out: &mut String, v: &u64) {
    let _ = write!(out, "{v}");
}

/// Appends the canonical JSON form of a histogram — the object shape
/// [`parse_hist`] accepts. Shared by the span emitter and the `agg`
/// document emitter so both serialize histograms byte-identically.
pub(crate) fn write_hist_json(out: &mut String, d: &HistData) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
        d.count, d.sum, d.min, d.max
    );
    for (j, b) in d.buckets.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("]}");
}

/// Validates one histogram object; error paths are relative to it.
pub(crate) fn parse_hist(value: &Json) -> Result<HistData, FieldError> {
    let Json::Obj(pairs) = value else {
        return Err(field_err("", "histograms must be objects"));
    };
    let obj = Obj(pairs.clone());
    expect_keys(&obj, &["count", "sum", "min", "max", "buckets"])?;
    let (count, sum) = (get_u64(&obj, "count")?, get_u64(&obj, "sum")?);
    let (min, max) = (get_u64(&obj, "min")?, get_u64(&obj, "max")?);
    let Some(Json::Arr(items)) = obj.get("buckets") else {
        return Err(field_err("buckets", "must be an array"));
    };
    if items.len() != HIST_BUCKETS {
        return Err(field_err(
            "buckets",
            format!(
                "must have exactly {HIST_BUCKETS} buckets, found {}",
                items.len()
            ),
        ));
    }
    let mut buckets = [0u64; HIST_BUCKETS];
    for (i, item) in items.iter().enumerate() {
        buckets[i] = get_count(item).map_err(|e| e.under(&format!("buckets[{i}]")))?;
    }
    let total = buckets.iter().try_fold(0u64, |acc, b| acc.checked_add(*b));
    if total.is_none() {
        return Err(field_err("buckets", "bucket totals overflow a u64"));
    }
    if total != Some(count) {
        return Err(field_err(
            "buckets",
            format!("bucket totals must sum to \"count\" ({count})"),
        ));
    }
    if count > 0 && min > max {
        return Err(field_err("min", "histogram min exceeds max"));
    }
    Ok(HistData {
        count,
        sum,
        min,
        max,
        buckets,
    })
}

/// A field-scoped validation failure before a line number is known.
pub(crate) struct FieldError {
    pub(crate) path: String,
    pub(crate) message: String,
}

impl FieldError {
    pub(crate) fn on_line(self, line: usize) -> ParseError {
        ParseError {
            line,
            path: self.path,
            message: self.message,
        }
    }

    /// The same error with its path nested under `prefix`.
    pub(crate) fn under(self, prefix: &str) -> FieldError {
        let path = match self.path.as_str() {
            "" => prefix.to_string(),
            sub => format!("{prefix}.{sub}"),
        };
        FieldError { path, ..self }
    }
}

pub(crate) fn field_err(path: impl Into<String>, message: impl Into<String>) -> FieldError {
    FieldError {
        path: path.into(),
        message: message.into(),
    }
}

pub(crate) fn expect_keys(obj: &Obj, keys: &[&str]) -> Result<(), FieldError> {
    expect_keys_opt(obj, keys, &[])
}

pub(crate) fn expect_keys_opt(
    obj: &Obj,
    keys: &[&str],
    optional: &[&str],
) -> Result<(), FieldError> {
    for k in keys {
        if obj.get(k).is_none() {
            return Err(field_err(*k, format!("missing required field {k:?}")));
        }
    }
    for (k, _) in &obj.0 {
        if !keys.contains(&k.as_str()) && !optional.contains(&k.as_str()) {
            return Err(field_err(k.clone(), format!("unexpected field {k:?}")));
        }
    }
    Ok(())
}

pub(crate) fn get_u64(obj: &Obj, key: &str) -> Result<u64, FieldError> {
    match obj.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        _ => Err(field_err(
            key,
            format!("{key:?} must be an unsigned integer"),
        )),
    }
}

pub(crate) fn get_str(obj: &Obj, key: &str) -> Result<String, FieldError> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(field_err(key, format!("{key:?} must be a string"))),
    }
}

/// An integer-or-`null` field.
pub(crate) fn get_opt_u64(obj: &Obj, key: &str) -> Result<Option<u64>, FieldError> {
    match obj.get(key) {
        Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        _ => Err(field_err(
            key,
            format!("{key:?} must be an integer or null"),
        )),
    }
}

/// A string-or-`null` field.
pub(crate) fn get_opt_str(obj: &Obj, key: &str) -> Result<Option<String>, FieldError> {
    match obj.get(key) {
        Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        _ => Err(field_err(key, format!("{key:?} must be a string or null"))),
    }
}

/// A string field naming a `what` slug, parsed by `from_slug`.
pub(crate) fn get_slug<T>(
    obj: &Obj,
    key: &str,
    what: &str,
    from_slug: fn(&str) -> Option<T>,
) -> Result<T, FieldError> {
    let s = get_str(obj, key)?;
    from_slug(&s).ok_or_else(|| field_err(key, format!("unknown {what} slug {s:?}")))
}

/// An unsigned integer value.
pub(crate) fn get_count(value: &Json) -> Result<u64, FieldError> {
    match value {
        Json::Num(n) => Ok(*n),
        _ => Err(field_err("", "must be an unsigned integer")),
    }
}

/// The object field `key` mapping `what` slugs (parsed by `from_slug`)
/// to values (parsed by `value`); errors carry the path `key.slug…`.
pub(crate) fn get_map<K, V>(
    obj: &Obj,
    key: &str,
    what: &str,
    from_slug: fn(&str) -> Option<K>,
    value: fn(&Json) -> Result<V, FieldError>,
) -> Result<Vec<(K, V)>, FieldError> {
    let Some(Json::Obj(pairs)) = obj.get(key) else {
        return Err(field_err(key, format!("{key:?} must be an object")));
    };
    pairs
        .iter()
        .map(|(slug, v)| {
            let path = format!("{key}.{slug}");
            let k = from_slug(slug)
                .ok_or_else(|| field_err(&path, format!("unknown {what} slug {slug:?}")))?;
            Ok((k, value(v).map_err(|e| e.under(&path))?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut hist = HistData::new();
        hist.record(3);
        hist.record(100);
        Trace::from_spans(vec![
            SpanRecord {
                id: 1,
                parent: None,
                phase: Phase::Extract,
                label: Some("spec \"q\"\\".into()),
                thread: 0,
                start: Duration::from_micros(5),
                duration: Duration::from_micros(1000),
                counters: vec![(Counter::Gates, 12), (Counter::ReductionSteps, 34)],
                gauges: vec![(Gauge::MemPeakBytes, 4096), (Gauge::MemAllocs, 7)],
                hists: vec![(Hist::DivisionChainLen, hist)],
                attrs: vec![
                    (Attr::Verdict, "extracted".into()),
                    (Attr::K, AttrValue::Int(16)),
                ],
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                phase: Phase::ModelBuild,
                label: None,
                thread: 3,
                start: Duration::from_micros(6),
                duration: Duration::from_micros(400),
                counters: vec![],
                gauges: vec![],
                hists: vec![],
                attrs: vec![],
            },
        ])
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let t = sample();
        let text = t.to_jsonl();
        let parsed = Trace::from_jsonl(&text).expect("round trip");
        assert_eq!(parsed, t);
    }

    #[test]
    fn every_emitted_line_is_an_object() {
        for line in sample().to_jsonl().lines() {
            parse_object(line).expect("each line parses standalone");
        }
    }

    #[test]
    fn tagged_producer_round_trips_and_stays_optional() {
        let t = sample();
        let tagged = t.to_jsonl_tagged("gfab 0.3.0+abc1234");
        assert!(tagged
            .lines()
            .next()
            .unwrap()
            .contains("\"producer\":\"gfab 0.3.0+abc1234\""));
        assert_eq!(Trace::from_jsonl(&tagged).expect("tagged parses"), t);
        // Untagged output is unchanged and still parses.
        assert!(!t.to_jsonl().contains("producer"));
        // A non-string producer is rejected with the field named.
        let bad = tagged.replace("\"gfab 0.3.0+abc1234\"", "3");
        let e = Trace::from_jsonl(&bad).unwrap_err();
        assert_eq!(e.path, "producer");
    }

    #[test]
    fn attrs_are_written_only_on_roots_and_typed_by_key() {
        let text = sample().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[1].ends_with(",\"attrs\":{\"verdict\":\"extracted\",\"k\":16}}"),
            "{}",
            lines[1]
        );
        assert!(lines[2].ends_with(",\"hists\":{}}"), "no attrs, no field");
        // Unknown keys, values of the wrong type and attributes on a
        // child span are errors naming the field.
        let e = Trace::from_jsonl(&text.replace("\"verdict\":", "\"mood\":")).unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (2, "attrs.mood"));
        assert!(e.message.contains("unknown attribute"), "{e}");
        let e = Trace::from_jsonl(&text.replace("\"k\":16", "\"k\":\"16\"")).unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (2, "attrs.k"));
        assert!(e.message.contains("unsigned integer"), "{e}");
        let e = Trace::from_jsonl(&text.replace("\"extracted\"", "7")).unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (2, "attrs.verdict"));
        let child = text.replace(
            "\"hists\":{}}",
            "\"hists\":{},\"attrs\":{\"verdict\":\"extracted\"}}",
        );
        let e = Trace::from_jsonl(&child).unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (3, "attrs"));
        assert!(e.message.contains("root"), "{e}");
    }

    #[test]
    fn pre_v5_headers_are_rejected_naming_version() {
        // A hand-written version-1 file (the pre-metrics schema), and
        // v2/v3/v4 headers over today's span lines: none is read.
        let v1 = concat!(
            "{\"type\":\"trace\",\"version\":1,\"spans\":1}\n",
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"phase\":\"extract\",\"label\":null,",
            "\"thread\":0,\"start_us\":5,\"dur_us\":1000,\"counters\":{\"gates\":12}}\n",
        );
        let current = sample().to_jsonl();
        let v2 = current.replace("\"version\":5", "\"version\":2");
        let v3 = current.replace("\"version\":5", "\"version\":3");
        let v4 = current.replace("\"version\":5", "\"version\":4");
        for text in [v1, &v2, &v3, &v4] {
            let e = Trace::from_jsonl(text).unwrap_err();
            assert_eq!((e.line, e.path.as_str()), (1, "version"), "{e}");
            assert!(e.message.contains("unsupported version"), "{e}");
        }
    }

    #[test]
    fn spans_must_carry_gauges_and_hists() {
        let text = sample()
            .to_jsonl()
            .replace(",\"gauges\":{\"mem-peak-bytes\":4096,\"mem-allocs\":7}", "");
        let e = Trace::from_jsonl(&text).unwrap_err();
        assert!(e.message.contains("missing required field"), "{e}");
        assert_eq!(e.path, "gauges");
    }

    #[test]
    fn rejects_missing_and_unknown_fields_with_paths() {
        let missing =
            "{\"type\":\"trace\",\"version\":5,\"spans\":1}\n{\"type\":\"span\",\"id\":1}";
        let e = Trace::from_jsonl(missing).unwrap_err();
        assert!(e.message.contains("missing required field"), "{e}");
        assert_eq!(e.line, 2);
        assert_eq!(e.path, "parent");

        let extra = sample()
            .to_jsonl()
            .replace("\"thread\":0", "\"thread\":0,\"bogus\":1");
        let e = Trace::from_jsonl(&extra).unwrap_err();
        assert!(e.message.contains("unexpected field"));
        assert_eq!(e.path, "bogus");
    }

    #[test]
    fn rejects_unknown_slugs_and_bad_structure() {
        let bad_phase = sample().to_jsonl().replace("\"extract\"", "\"warp-drive\"");
        let e = Trace::from_jsonl(&bad_phase).unwrap_err();
        assert!(e.message.contains("unknown phase"));
        assert_eq!(e.path, "phase");

        let bad_counter = sample().to_jsonl().replace("\"gates\"", "\"widgets\"");
        let e = Trace::from_jsonl(&bad_counter).unwrap_err();
        assert!(e.message.contains("unknown counter"));
        assert_eq!(e.path, "counters.widgets");

        let bad_gauge = sample()
            .to_jsonl()
            .replace("\"mem-allocs\"", "\"mem-leaks\"");
        let e = Trace::from_jsonl(&bad_gauge).unwrap_err();
        assert!(e.message.contains("unknown gauge"));
        assert_eq!(e.path, "gauges.mem-leaks");

        let dangling = sample().to_jsonl().replace("\"parent\":1", "\"parent\":99");
        let e = Trace::from_jsonl(&dangling).unwrap_err();
        assert!(e.message.contains("dangling parent"), "{e}");
        assert_eq!((e.line, e.path.as_str()), (3, "parent"));

        let duplicate = sample().to_jsonl().replace("\"id\":2", "\"id\":1");
        let e = Trace::from_jsonl(&duplicate).unwrap_err();
        assert!(e.message.contains("duplicate span id"), "{e}");
        assert_eq!((e.line, e.path.as_str()), (3, "id"));

        let wrong_count = sample().to_jsonl().replace("\"spans\":2", "\"spans\":3");
        let e = Trace::from_jsonl(&wrong_count).unwrap_err();
        assert!(e.message.contains("declares 3 spans"), "{e}");
        assert_eq!((e.line, e.path.as_str()), (1, "spans"));

        assert!(Trace::from_jsonl("").is_err());
        assert!(Trace::from_jsonl("not json").is_err());
    }

    #[test]
    fn torn_final_line_is_tolerated_but_counts_still_bind() {
        let text = sample().to_jsonl();
        // Cut mid-way through the last span: one span short of the header.
        let cut = &text[..text.len() - 20];
        let e = Trace::from_jsonl(cut).unwrap_err();
        assert!(e.message.contains("declares 2 spans, found 1"), "{e}");
        // A torn line after a complete trace is ignored and reported.
        let extra = format!("{text}{{\"type\":\"sp");
        assert_eq!(
            Trace::from_jsonl(&extra).expect("torn tail ignored"),
            sample()
        );
        let summary = check_jsonl(&extra).expect("valid");
        assert!(summary.starts_with("valid trace: 2 spans"), "{summary}");
        assert!(summary.ends_with("torn final line 4 ignored"), "{summary}");
        // Garbage anywhere else is an error naming its line.
        let mid = text.replacen("\n{", "\nnot json\n{", 1);
        assert_eq!(Trace::from_jsonl(&mid).unwrap_err().line, 2);
    }

    #[test]
    fn lines_of_another_kind_are_named() {
        let text = sample().to_jsonl();
        let e =
            Trace::from_jsonl(&text.replace("\"type\":\"trace\"", "\"type\":\"agg\"")).unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (1, "type"));
        assert!(e.message.contains("found a \"agg\" header"), "{e}");
        let e = Trace::from_jsonl(&text.replacen("\"type\":\"span\"", "\"type\":\"event\"", 1))
            .unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (2, "type"));
        assert!(e.message.contains("found a \"event\" line"), "{e}");
        // The v4 ledger's `run` row is no longer a record of any kind.
        let e = Trace::from_jsonl(&text.replacen("\"type\":\"span\"", "\"type\":\"run\"", 1))
            .unwrap_err();
        assert!(e.message.contains("unknown type \"run\""), "{e}");
        let e = check_jsonl("{\"type\":\"walk\"}").unwrap_err();
        assert!(e.message.contains("unknown type \"walk\""), "{e}");
    }

    #[test]
    fn rejects_malformed_histograms_with_deep_paths() {
        // Bucket totals no longer sum to "count".
        let bad_count = sample().to_jsonl().replace("\"count\":2", "\"count\":3");
        let e = Trace::from_jsonl(&bad_count).unwrap_err();
        assert!(e.message.contains("sum to"), "{e}");
        assert_eq!(e.path, "hists.division-chain-len.buckets");
        assert_eq!(e.line, 2);

        // Wrong bucket count.
        let short = sample()
            .to_jsonl()
            .replace("\"buckets\":[0,1", "\"buckets\":[1");
        let e = Trace::from_jsonl(&short).unwrap_err();
        assert!(e.message.contains("exactly"), "{e}");

        // min > max.
        let bad_min = sample().to_jsonl().replace("\"min\":3", "\"min\":999");
        let e = Trace::from_jsonl(&bad_min).unwrap_err();
        assert_eq!(e.path, "hists.division-chain-len.min");

        // Buckets whose total overflows a u64 (it would wrap to a
        // matching "count" of 0), with min > max hidden behind count 0.
        let huge = format!(
            "{{\"count\":0,\"sum\":0,\"min\":9,\"max\":1,\"buckets\":[{0},{0}{1}]}}",
            1u64 << 63,
            ",0".repeat(HIST_BUCKETS - 2)
        );
        let overflow = sample().to_jsonl().replace(
            "\"hists\":{}}",
            &format!("\"hists\":{{\"sim-batch-us\":{huge}}}}}"),
        );
        let e = Trace::from_jsonl(&overflow).unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (3, "hists.sim-batch-us.buckets"));
        assert!(e.message.contains("overflow"), "{e}");
    }
}
