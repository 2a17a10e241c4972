//! Standard-format exporters: Prometheus text exposition and Chrome
//! trace (Perfetto-loadable) JSON, both hand-rolled over `std`.
//!
//! The repo's native export (`ObsSnapshot::to_json`) is bespoke;
//! external tooling speaks two lingua francas instead:
//!
//! * [`prometheus_text`] renders counters, latency summaries and the
//!   [`GaugeBoard`](crate::gauges::GaugeBoard) as Prometheus text
//!   exposition format (`# TYPE`-annotated families, `{label="v"}`
//!   samples) — scrapeable, `promtool`-checkable, diffable;
//! * [`chrome_trace`] renders the decision events of a drained event
//!   log as Chrome trace-event JSON (`chrome://tracing`, Perfetto UI):
//!   one track per reader class for Protocol A cross-reads, a
//!   wall-reader track for Protocol C, and a scheduler track for
//!   walls/GC/rejects; watchdog reaps become duration (`"ph":"X"`)
//!   events.
//!
//! Both formats ship with tiny in-repo validators
//! ([`validate_prometheus`], [`validate_chrome_trace`]) so a test can
//! gate the output shape of a live run without network tools, and
//! both are golden-tested below: the byte-exact output for a fixed
//! input is part of the contract.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::gauges::Level;
use crate::hist::HistogramSnapshot;
use crate::span::{FlightLog, Terminal, WaitCause, NO_CLASS};
use crate::trace::TraceEvent;
use crate::{Event, ObsSnapshot};

/// Append one summary family (`quantile` samples + `_sum`/`_count`) in
/// exposition format. Empty histograms still emit the family (with
/// zero count) so scrape consumers see a stable schema.
fn push_summary(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let lb = |q: &str| {
        if labels.is_empty() {
            format!("{{quantile=\"{q}\"}}")
        } else {
            format!("{{{labels},quantile=\"{q}\"}}")
        }
    };
    let plain = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}{} {}", lb("0.5"), h.p50());
    let _ = writeln!(out, "{name}{} {}", lb("0.95"), h.p95());
    let _ = writeln!(out, "{name}{} {}", lb("0.99"), h.p99());
    let _ = writeln!(out, "{name}_sum{plain} {}", h.sum);
    let _ = writeln!(out, "{name}_count{plain} {}", h.count);
}

/// Sanitize a counter header into a Prometheus metric-name fragment.
fn metric_fragment(raw: &str) -> String {
    raw.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Append one group of gauge-board levels: its counters, then its
/// gauges, each a one-sample family.
fn push_levels(out: &mut String, levels: &[Level]) {
    for kind in ["counter", "gauge"] {
        for l in levels.iter().filter(|l| l.kind == kind) {
            let _ = writeln!(out, "# TYPE {} {kind}\n{} {}", l.family, l.family, l.value);
        }
    }
}

/// Render a full scrape: `counters` (name, cumulative value) pairs as
/// `hdd_<name>_total` counter families, the [`ObsSnapshot`] latency
/// histograms as summaries, its gauge board as gauge families
/// (per-class/per-segment via labels, cross-read staleness as a
/// labelled summary, wall-drag blame per class). Zero-dependency;
/// output passes [`validate_prometheus`] by construction.
pub fn prometheus_text(counters: &[(&str, u64)], obs: &ObsSnapshot) -> String {
    let gauges = &obs.gauges;
    let mut out = String::new();
    for (name, v) in counters {
        let n = format!("hdd_{}_total", metric_fragment(name));
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    // Per-reason rejection breakdown as one labelled family, derived
    // from the `rej_*` counters (`MetricsSnapshot::counter_pairs`
    // naming): `rej_write_too_late` becomes
    // `hdd_rejections_by_reason_total{reason="write-too-late"}`.
    let rejections: Vec<(String, u64)> = counters
        .iter()
        .filter_map(|(name, v)| name.strip_prefix("rej_").map(|r| (r.replace('_', "-"), *v)))
        .collect();
    if !rejections.is_empty() {
        let _ = writeln!(out, "# TYPE hdd_rejections_by_reason_total counter");
        for (reason, v) in &rejections {
            let _ = writeln!(
                out,
                "hdd_rejections_by_reason_total{{reason=\"{reason}\"}} {v}"
            );
        }
    }
    let _ = writeln!(out, "# TYPE hdd_trace_recorded_total counter");
    let _ = writeln!(out, "hdd_trace_recorded_total {}", obs.trace_recorded);
    let _ = writeln!(out, "# TYPE hdd_trace_dropped_total counter");
    let _ = writeln!(out, "hdd_trace_dropped_total {}", obs.trace_dropped);
    for (key, h) in obs.recorders() {
        let _ = writeln!(out, "# TYPE hdd_{key} summary");
        push_summary(&mut out, &format!("hdd_{key}"), "", h);
    }
    push_levels(&mut out, &gauges.control());
    if !gauges.classes.is_empty() {
        for (name, get) in [
            ("hdd_class_i_old", 0usize),
            ("hdd_class_active", 1),
            ("hdd_class_settled_lag", 2),
            ("hdd_class_wall_component", 3),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge");
            for c in &gauges.classes {
                let v = match get {
                    0 => c.i_old,
                    1 => c.active,
                    2 => c.settled_lag,
                    _ => c.wall_component,
                };
                let _ = writeln!(out, "{name}{{class=\"{}\"}} {v}", c.class);
            }
        }
    }
    if !gauges.classes.is_empty() {
        let _ = writeln!(out, "# TYPE hdd_wall_drag_blame_total counter");
        for c in &gauges.classes {
            let _ = writeln!(
                out,
                "hdd_wall_drag_blame_total{{class=\"{}\"}} {}",
                c.class, c.drag_blame
            );
        }
        let _ = writeln!(out, "# TYPE hdd_wall_drag_ticks summary");
        push_summary(&mut out, "hdd_wall_drag_ticks", "", &gauges.drag_hist);
    }
    if !gauges.segment_walls.is_empty() {
        let _ = writeln!(out, "# TYPE hdd_segment_wall gauge");
        for (i, w) in gauges.segment_walls.iter().enumerate() {
            let _ = writeln!(out, "hdd_segment_wall{{segment=\"{i}\"}} {w}");
        }
    }
    if !gauges.staleness.is_empty() {
        let _ = writeln!(out, "# TYPE hdd_read_staleness_ticks summary");
        for cell in &gauges.staleness {
            push_summary(
                &mut out,
                "hdd_read_staleness_ticks",
                &format!(
                    "reader=\"{}\",segment=\"{}\"",
                    cell.reader_label(),
                    cell.segment
                ),
                &cell.hist,
            );
        }
    }
    // Durability families last (stable suffix: the golden test pins it).
    push_levels(&mut out, &gauges.durability());
    let _ = writeln!(out, "# TYPE hdd_wal_fsync_ns summary");
    push_summary(&mut out, "hdd_wal_fsync_ns", "", &gauges.fsync_ns);
    out
}

/// Scrape-shape statistics returned by [`validate_prometheus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromStats {
    /// `# TYPE` families declared.
    pub families: usize,
    /// Sample lines accepted.
    pub samples: usize,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse a `key="value",key="value"` label body; returns `Err` on
/// malformed syntax.
fn validate_labels(body: &str) -> Result<(), String> {
    let mut rest = body;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = &rest[..eq];
        if !valid_metric_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        let mut chars = rest.char_indices();
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(format!("label value not quoted after {key:?}")),
        }
        let mut end = None;
        let mut escaped = false;
        for (i, c) in chars {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else if c == '\n' {
                return Err("raw newline in label value".to_string());
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value for {key:?}"))?;
        rest = &rest[end + 1..];
        if rest.is_empty() {
            return Ok(());
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| format!("expected ',' between labels, got {rest:?}"))?;
    }
}

/// Validate Prometheus text exposition shape: every sample's family
/// must be `# TYPE`-declared *before* use (with `_sum`/`_count`
/// resolving to their summary base), types must be
/// `counter`/`gauge`/`summary`, label bodies must be well-formed, and
/// every value must parse as `f64`. Returns family/sample counts.
pub fn validate_prometheus(text: &str) -> Result<PromStats, String> {
    let mut declared: HashSet<String> = HashSet::new();
    let mut samples = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let ctx = |m: String| format!("line {}: {m}", ln + 1);
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| ctx("TYPE without name".into()))?;
            let ty = it.next().ok_or_else(|| ctx("TYPE without type".into()))?;
            if it.next().is_some() {
                return Err(ctx(format!("trailing tokens after TYPE {name}")));
            }
            if !valid_metric_name(name) {
                return Err(ctx(format!("bad family name {name:?}")));
            }
            if !matches!(
                ty,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return Err(ctx(format!("unknown type {ty:?}")));
            }
            if !declared.insert(name.to_string()) {
                return Err(ctx(format!("duplicate TYPE for {name}")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP / comments
        }
        // Sample line: name[{labels}] value
        let (name, rest) = match line.find('{') {
            Some(b) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| ctx("unclosed label braces".into()))?;
                if close < b {
                    return Err(ctx("mismatched label braces".into()));
                }
                validate_labels(&line[b + 1..close]).map_err(ctx)?;
                (&line[..b], &line[close + 1..])
            }
            None => {
                let sp = line
                    .find(' ')
                    .ok_or_else(|| ctx("sample without value".into()))?;
                (&line[..sp], &line[sp..])
            }
        };
        if !valid_metric_name(name) {
            return Err(ctx(format!("bad metric name {name:?}")));
        }
        let base = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .or_else(|| name.strip_suffix("_bucket"))
            .filter(|b| declared.contains(*b))
            .unwrap_or(name);
        if !declared.contains(base) {
            return Err(ctx(format!("sample {name} before its TYPE declaration")));
        }
        let value = rest.trim();
        if value.is_empty() || value.split_whitespace().count() != 1 {
            return Err(ctx(format!("expected exactly one value, got {rest:?}")));
        }
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(ctx(format!("unparsable value {value:?}")));
        }
        samples += 1;
    }
    Ok(PromStats {
        families: declared.len(),
        samples,
    })
}

/// Track ids used in [`chrome_trace`] output.
const TID_SCHEDULER: u64 = 0;
const TID_WALL_READERS: u64 = 1;
const TID_CLASS_BASE: u64 = 2;

fn event_tid(ev: &TraceEvent) -> u64 {
    match ev {
        TraceEvent::CrossRead { reader_class, .. } => TID_CLASS_BASE + u64::from(*reader_class),
        TraceEvent::WallRead { .. } => TID_WALL_READERS,
        _ => TID_SCHEDULER,
    }
}

fn tid_name(tid: u64) -> String {
    match tid {
        TID_SCHEDULER => "scheduler".to_string(),
        TID_WALL_READERS => "wall readers (protocol C)".to_string(),
        t => format!("class {} readers (protocol A)", t - TID_CLASS_BASE),
    }
}

/// Render the event's `args` object (all payload fields, spelled out).
fn event_args(ev: &TraceEvent) -> String {
    match *ev {
        TraceEvent::CrossRead { reader_class, read } => format!(
            "{{\"txn\":{},\"reader_class\":{reader_class},\"target_class\":{},\
             \"segment\":{},\"key\":{},\"m\":{},\"bound\":{},\"version\":{},\"staleness\":{}}}",
            read.txn,
            read.target_class,
            read.segment,
            read.key,
            read.start,
            read.bound,
            read.version,
            read.staleness()
        ),
        TraceEvent::WallRead { anchor, read } => format!(
            "{{\"txn\":{},\"target_class\":{},\"segment\":{},\"key\":{},\
             \"anchor\":{anchor},\"bound\":{},\"version\":{},\"staleness\":{}}}",
            read.txn,
            read.target_class,
            read.segment,
            read.key,
            read.bound,
            read.version,
            read.staleness()
        ),
        TraceEvent::Reject {
            txn,
            segment,
            key,
            reason,
        } => format!(
            "{{\"txn\":{txn},\"segment\":{segment},\"key\":{key},\"reason\":\"{}\"}}",
            reason.label()
        ),
        TraceEvent::WallRelease {
            anchor,
            released_at,
            ..
        } => format!("{{\"anchor\":{anchor},\"released_at\":{released_at}}}"),
        TraceEvent::GcReclaim {
            watermark,
            reclaimed,
        } => format!("{{\"watermark\":{watermark},\"reclaimed\":{reclaimed}}}"),
        TraceEvent::WatchdogAbort {
            txn,
            start,
            overdue_micros,
            ..
        } => format!("{{\"txn\":{txn},\"start\":{start},\"overdue_micros\":{overdue_micros}}}"),
        TraceEvent::CrashPoint {
            txn,
            op_index,
            fault,
        } => format!(
            "{{\"txn\":{txn},\"op_index\":{op_index},\"fault\":\"{}\"}}",
            fault.label()
        ),
        TraceEvent::RecoveryReplay {
            events,
            redone,
            rolled_back,
            in_flight_aborted,
            high_water_mark,
        } => format!(
            "{{\"events\":{events},\"redone\":{redone},\"rolled_back\":{rolled_back},\
             \"in_flight_aborted\":{in_flight_aborted},\"high_water_mark\":{high_water_mark}}}"
        ),
    }
}

/// Render the decision events of a drained (ticket, event) stream as
/// Chrome trace-event JSON, loadable in `chrome://tracing` or the
/// Perfetto UI; span records in the slice are skipped (they render
/// through [`assemble`](crate::span::assemble) and
/// [`flight_chrome_trace`]).
///
/// Tracks: tid 0 is the scheduler (walls, GC, rejects, chaos,
/// recovery), tid 1 the Protocol C wall readers, tid `2 + class` one
/// track per Protocol A reader class. The global ticket is used as the
/// timestamp (`ts`) — decision *order*, not wall-clock. Watchdog reaps
/// render as duration (`"ph":"X"`) events with their overdue time as
/// the duration; everything else is an instant (`"ph":"i"`).
pub fn chrome_trace(events: &[(u64, Event)]) -> String {
    let decisions = || events.iter().filter_map(|(t, e)| Some((t, e.decision()?)));
    let tids = decisions().map(|(_, e)| event_tid(e)).collect();
    let mut out = TraceJson::with_tracks(tids, tid_name);
    for (ticket, ev) in decisions() {
        let tid = event_tid(ev);
        let args = event_args(ev);
        out.push(match ev {
            TraceEvent::WatchdogAbort { overdue_micros, .. } => format!(
                "{{\"name\":\"{}\",\"cat\":\"hdd\",\"ph\":\"X\",\"ts\":{ticket},\
                 \"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                ev.kind(),
                (*overdue_micros).max(1)
            ),
            _ => format!(
                "{{\"name\":\"{}\",\"cat\":\"hdd\",\"ph\":\"i\",\"ts\":{ticket},\
                 \"s\":\"t\",\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                ev.kind()
            ),
        });
    }
    out.finish()
}

/// The `traceEvents` array both Chrome renderers fill, opened with one
/// `thread_name` metadata record per track.
struct TraceJson(String);

impl TraceJson {
    fn with_tracks(mut tids: Vec<u64>, name: impl Fn(u64) -> String) -> Self {
        tids.sort_unstable();
        tids.dedup();
        let mut json = TraceJson(String::from("{\"traceEvents\":["));
        for tid in tids {
            json.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                name(tid)
            ));
        }
        json
    }

    fn push(&mut self, record: String) {
        if !self.0.ends_with('[') {
            self.0.push(',');
        }
        self.0.push_str(&record);
    }

    fn finish(mut self) -> String {
        self.0.push_str("],\"displayTimeUnit\":\"ms\"}");
        self.0
    }
}

/// Track id of the maintenance/time-wall thread in
/// [`flight_chrome_trace`] output; worker `w` renders on track `w + 1`.
const FLIGHT_TID_MAINTENANCE: u64 = 0;

#[inline]
fn flight_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn flight_class_label(class: u32) -> String {
    if class == NO_CLASS {
        "ro".to_string()
    } else {
        format!("c{class}")
    }
}

/// Render an assembled [`FlightLog`] as Chrome trace-event JSON with
/// **nested duration spans and flow arrows along cause edges**:
///
/// * one track per driver worker (tid `worker + 1`), plus tid 0 for
///   the maintenance thread's wall releases;
/// * each flight is an enclosing `"ph":"X"` span (`txn N [terminal]`)
///   with its op service spans and wait spans nested inside (Perfetto
///   nests same-track spans by time containment);
/// * each attributed wait emits a flow arrow (`"ph":"s"` → `"ph":"f"`)
///   from the blocking flight's end (or the unblocking wall release)
///   to the wait span's end — the cause edges, visible as arrows in
///   the Perfetto UI.
///
/// Timestamps are recorder-epoch microseconds (fractional, so the
/// nanosecond clock survives). Output passes [`validate_chrome_trace`].
pub fn flight_chrome_trace(log: &FlightLog) -> String {
    let mut tids: Vec<u64> = log
        .flights
        .iter()
        .map(|f| u64::from(f.worker) + 1)
        .collect();
    tids.push(FLIGHT_TID_MAINTENANCE);
    let mut out = TraceJson::with_tracks(tids, |tid| match tid {
        FLIGHT_TID_MAINTENANCE => "maintenance / time walls".to_string(),
        worker => format!("worker {}", worker - 1),
    });
    for &(anchor, at_ns) in &log.wall_releases {
        out.push(format!(
            "{{\"name\":\"wall-release\",\"cat\":\"wall\",\"ph\":\"i\",\"ts\":{:.3},\
             \"s\":\"t\",\"pid\":1,\"tid\":{FLIGHT_TID_MAINTENANCE},\
             \"args\":{{\"anchor\":{anchor}}}}}",
            flight_us(at_ns)
        ));
    }
    let mut flow_id = 0u64;
    for f in &log.flights {
        let tid = u64::from(f.worker) + 1;
        let terminal = f.terminal.map_or("open", Terminal::label);
        out.push(format!(
            "{{\"name\":\"txn {} [{terminal}]\",\"cat\":\"flight\",\"ph\":\"X\",\
             \"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"txn\":{},\"class\":\"{}\",\"worker\":{}}}}}",
            f.txn,
            flight_us(f.admit_ns),
            flight_us(f.total_ns().max(1)),
            f.txn,
            flight_class_label(f.class),
            f.worker
        ));
        for op in &f.ops {
            out.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"segment\":{},\"key\":{}}}}}",
                op.kind.label(),
                flight_us(op.start_ns),
                flight_us(op.dur_ns.max(1)),
                op.segment,
                op.key
            ));
        }
        for w in &f.waits {
            let wait_end_ns = w.start_ns + w.dur_ns;
            out.push(format!(
                "{{\"name\":\"wait: {}\",\"cat\":\"wait\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"cause\":\"{}\",\"slept_ns\":{}}}}}",
                w.cause.label(),
                flight_us(w.start_ns),
                flight_us(w.dur_ns.max(1)),
                w.cause,
                w.slept_ns
            ));
            // Cause edge as a flow arrow: source at the unblocking
            // event, sink at the wait span's end.
            let source: Option<(u64, u64)> = match w.cause {
                WaitCause::TxnPending { txn, .. } => {
                    log.flight(txn).map(|h| (u64::from(h.worker) + 1, h.end_ns))
                }
                WaitCause::Unattributed => None,
            };
            if let Some((src_tid, src_ns)) = source {
                flow_id += 1;
                out.push(format!(
                    "{{\"name\":\"cause\",\"cat\":\"cause\",\"ph\":\"s\",\"id\":{flow_id},\
                     \"ts\":{:.3},\"pid\":1,\"tid\":{src_tid},\"args\":{{}}}}",
                    flight_us(src_ns)
                ));
                out.push(format!(
                    "{{\"name\":\"cause\",\"cat\":\"cause\",\"ph\":\"f\",\"bp\":\"e\",\
                     \"id\":{flow_id},\"ts\":{:.3},\"pid\":1,\"tid\":{tid},\"args\":{{}}}}",
                    flight_us(wait_end_ns)
                ));
            }
        }
    }
    out.finish()
}

/// Validate Chrome trace JSON shape without a JSON library: the text
/// must open with `{"traceEvents":[`, every brace/bracket must balance
/// outside string literals, and every object directly inside the
/// `traceEvents` array must carry `"ph":`, `"ts"` (or be a metadata
/// record) and `"pid":`. Returns the event count (metadata included).
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let prefix = "{\"traceEvents\":[";
    if !text.starts_with(prefix) {
        return Err(format!("missing {prefix:?} prefix"));
    }
    #[derive(PartialEq)]
    enum Frame {
        Obj,
        Arr,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    let mut events = 0usize;
    let mut event_start: Option<usize> = None;
    for (i, c) in text.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if stack.len() == 2 && stack[0] == Frame::Obj && stack[1] == Frame::Arr {
                    event_start = Some(i);
                }
                stack.push(Frame::Obj);
            }
            '[' => stack.push(Frame::Arr),
            '}' => {
                if stack.pop() != Some(Frame::Obj) {
                    return Err(format!("unbalanced '}}' at byte {i}"));
                }
                if stack.len() == 2 {
                    if let Some(start) = event_start.take() {
                        let body = &text[start..=i];
                        if !body.contains("\"ph\":") {
                            return Err(format!("event without \"ph\" at byte {start}"));
                        }
                        if !body.contains("\"pid\":") {
                            return Err(format!("event without \"pid\" at byte {start}"));
                        }
                        if !body.contains("\"ts\":") && !body.contains("\"ph\":\"M\"") {
                            return Err(format!("non-metadata event without \"ts\" at {start}"));
                        }
                        events += 1;
                    }
                }
            }
            ']' if stack.pop() != Some(Frame::Arr) => {
                return Err(format!("unbalanced ']' at byte {i}"));
            }
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string literal".to_string());
    }
    if !stack.is_empty() {
        return Err(format!("{} unclosed delimiters", stack.len()));
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauges::WALL_READER;
    use crate::span::SpanEvent;
    use crate::trace::{FaultCode, RejectReason, ServedRead};

    /// Wrap hand-built decision events as a drained event-log slice.
    fn decisions(events: Vec<(u64, TraceEvent)>) -> Vec<(u64, Event)> {
        let wrap = |(ticket, ev)| (ticket, Event::Decision(ev));
        events.into_iter().map(wrap).collect()
    }

    #[test]
    fn prometheus_golden_minimal() {
        // Byte-exact output for a fixed minimal input is part of the
        // contract: exporters must not drift silently.
        let text = prometheus_text(&[("committed", 7)], &ObsSnapshot::default());
        let expected_head = "# TYPE hdd_committed_total counter\n\
                             hdd_committed_total 7\n\
                             # TYPE hdd_trace_recorded_total counter\n\
                             hdd_trace_recorded_total 0\n\
                             # TYPE hdd_trace_dropped_total counter\n\
                             hdd_trace_dropped_total 0\n\
                             # TYPE hdd_commit_latency_ns summary\n\
                             hdd_commit_latency_ns{quantile=\"0.5\"} 0\n\
                             hdd_commit_latency_ns{quantile=\"0.95\"} 0\n\
                             hdd_commit_latency_ns{quantile=\"0.99\"} 0\n\
                             hdd_commit_latency_ns_sum 0\n\
                             hdd_commit_latency_ns_count 0\n";
        assert!(
            text.starts_with(expected_head),
            "golden head drifted:\n{text}"
        );
        assert!(text.contains("# TYPE hdd_driver_offered gauge\nhdd_driver_offered 0\n"));
        let expected_tail = "# TYPE hdd_wal_fsync_batches_total counter\n\
                             hdd_wal_fsync_batches_total 0\n\
                             # TYPE hdd_recovery_anomalies_total counter\n\
                             hdd_recovery_anomalies_total 0\n\
                             # TYPE hdd_wal_frames gauge\n\
                             hdd_wal_frames 0\n\
                             # TYPE hdd_wal_bytes gauge\n\
                             hdd_wal_bytes 0\n\
                             # TYPE hdd_recovery_replayed gauge\n\
                             hdd_recovery_replayed 0\n\
                             # TYPE hdd_wal_fsync_ns summary\n\
                             hdd_wal_fsync_ns{quantile=\"0.5\"} 0\n\
                             hdd_wal_fsync_ns{quantile=\"0.95\"} 0\n\
                             hdd_wal_fsync_ns{quantile=\"0.99\"} 0\n\
                             hdd_wal_fsync_ns_sum 0\n\
                             hdd_wal_fsync_ns_count 0\n";
        assert!(
            text.ends_with(expected_tail),
            "golden tail drifted:\n{text}"
        );
        let stats = validate_prometheus(&text).expect("self-validates");
        assert_eq!(stats.families, 1 + 2 + 5 + 15 + 6);
    }

    #[test]
    fn prometheus_full_board_round_trips_through_validator() {
        let o = crate::Obs::new();
        let board = &o.gauges;
        board.configure(2, 3);
        board.set_class(0, 3, 1, 0);
        board.set_wall(90, 95, 88, 12);
        board.set_segment_wall(2, 88);
        board.record_staleness(1, 0, 17);
        board.record_staleness(WALL_READER, 2, 40);
        o.commit_latency.record(1_000);
        o.commit_latency.record(2_000);
        let text = prometheus_text(&[("offered", 100), ("committed", 96)], &o.snapshot());
        let stats = validate_prometheus(&text).expect("validates");
        assert!(stats.families >= 30, "{stats:?}");
        assert!(text.contains("hdd_class_i_old{class=\"0\"} 3"));
        // The wall's per-class components and per-segment projection
        // must reach the text format byte-exactly (they were long in
        // the JSON snapshot; this pins the exposition side too).
        assert!(text.contains(
            "# TYPE hdd_class_wall_component gauge\n\
             hdd_class_wall_component{class=\"0\"} 0\n\
             hdd_class_wall_component{class=\"1\"} 0\n"
        ));
        assert!(text.contains(
            "# TYPE hdd_segment_wall gauge\n\
             hdd_segment_wall{segment=\"0\"} 0\n\
             hdd_segment_wall{segment=\"1\"} 0\n\
             hdd_segment_wall{segment=\"2\"} 88\n"
        ));
        assert!(text
            .contains("hdd_read_staleness_ticks{reader=\"c1\",segment=\"0\",quantile=\"0.5\"} 17"));
        assert!(text
            .contains("hdd_read_staleness_ticks{reader=\"wall\",segment=\"2\",quantile=\"0.99\"}"));
        assert!(text.contains("hdd_commit_latency_ns_count 2"));
    }

    #[test]
    fn prometheus_validator_rejects_malformed_input() {
        for (bad, why) in [
            ("hdd_x 1\n", "sample before TYPE"),
            (
                "# TYPE hdd_x counter\n# TYPE hdd_x counter\nhdd_x 1\n",
                "duplicate TYPE",
            ),
            ("# TYPE hdd_x counter\nhdd_x{l=1} 1\n", "unquoted label"),
            ("# TYPE hdd_x counter\nhdd_x one\n", "non-numeric value"),
            ("# TYPE hdd_x widget\nhdd_x 1\n", "unknown type"),
            ("# TYPE hdd_x counter\nhdd_x{l=\"v\"\n", "unclosed braces"),
            ("# TYPE 9bad counter\n", "bad family name"),
        ] {
            assert!(validate_prometheus(bad).is_err(), "accepted: {why}");
        }
        let ok = "# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 2\ns_count 1\n";
        assert_eq!(
            validate_prometheus(ok).unwrap(),
            PromStats {
                families: 1,
                samples: 3
            }
        );
    }

    #[test]
    fn chrome_trace_golden_minimal() {
        let mut events = decisions(vec![(
            3u64,
            TraceEvent::WallRelease {
                anchor: 30,
                released_at: 31,
                at_ns: 777,
            },
        )]);
        // A span record in the same slice is not this exporter's.
        let end = SpanEvent::End {
            txn: 1,
            at_ns: 778,
            terminal: Terminal::Committed,
        };
        events.push((5u64, Event::Span(end)));
        let text = chrome_trace(&events);
        let expected = "{\"traceEvents\":[\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"scheduler\"}},\
             {\"name\":\"wall-release\",\"cat\":\"hdd\",\"ph\":\"i\",\"ts\":3,\
             \"s\":\"t\",\"pid\":1,\"tid\":0,\"args\":{\"anchor\":30,\"released_at\":31}}\
             ],\"displayTimeUnit\":\"ms\"}";
        assert_eq!(text, expected);
        assert_eq!(validate_chrome_trace(&text).unwrap(), 2);
    }

    #[test]
    fn chrome_trace_assigns_per_class_tracks() {
        let events = decisions(vec![
            (
                0u64,
                TraceEvent::CrossRead {
                    reader_class: 2,
                    read: ServedRead {
                        txn: 1,
                        start: 10,
                        target_class: 0,
                        segment: 0,
                        key: 7,
                        bound: 8,
                        version: 5,
                    },
                },
            ),
            (
                1u64,
                TraceEvent::WallRead {
                    anchor: 20,
                    read: ServedRead {
                        txn: 2,
                        start: 25,
                        target_class: 1,
                        segment: 1,
                        key: 3,
                        bound: 18,
                        version: 9,
                    },
                },
            ),
            (
                2u64,
                TraceEvent::Reject {
                    txn: 3,
                    segment: 0,
                    key: 1,
                    reason: RejectReason::WriteTooLate,
                },
            ),
            (
                3u64,
                TraceEvent::WatchdogAbort {
                    txn: 5,
                    start: 40,
                    overdue_micros: 1500,
                    at_ns: 0,
                },
            ),
            (
                4u64,
                TraceEvent::CrashPoint {
                    txn: 6,
                    op_index: 3,
                    fault: FaultCode::Stall,
                },
            ),
        ]);
        let text = chrome_trace(&events);
        // 3 tracks (scheduler, wall readers, class 2) + 5 events.
        assert_eq!(validate_chrome_trace(&text).unwrap(), 8);
        assert!(text.contains("\"name\":\"class 2 readers (protocol A)\""));
        assert!(text.contains("\"name\":\"wall readers (protocol C)\""));
        assert!(text.contains("\"staleness\":5")); // 10 - 5
        assert!(text.contains("\"staleness\":16")); // start 25 - version 9
        assert!(text.contains("\"ph\":\"X\",\"ts\":3,\"dur\":1500"));
        assert!(text.contains("\"fault\":\"stall\""));
    }

    #[test]
    fn prometheus_rejection_breakdown_renders_labelled_family() {
        let obs = ObsSnapshot::default();
        let counters = [
            ("committed", 90u64),
            ("rej_write_too_late", 5),
            ("rej_read_too_late", 2),
            ("rej_deadlock_victim", 0),
            ("rej_watchdog_abort", 3),
        ];
        let text = prometheus_text(&counters, &obs);
        let expected_block = "# TYPE hdd_rejections_by_reason_total counter\n\
             hdd_rejections_by_reason_total{reason=\"write-too-late\"} 5\n\
             hdd_rejections_by_reason_total{reason=\"read-too-late\"} 2\n\
             hdd_rejections_by_reason_total{reason=\"deadlock-victim\"} 0\n\
             hdd_rejections_by_reason_total{reason=\"watchdog-abort\"} 3\n";
        assert!(
            text.contains(expected_block),
            "labelled rejection family drifted:\n{text}"
        );
        let stats = validate_prometheus(&text).expect("self-validates");
        // 5 plain counters + the labelled family + 2 trace + 5 summaries
        // + 15 scalar gauges + 6 durability families.
        assert_eq!(stats.families, 5 + 1 + 2 + 5 + 15 + 6);
        // Without rej_* counters the family must not appear (golden
        // minimal output is unchanged).
        let bare = prometheus_text(&[("committed", 7)], &obs);
        assert!(!bare.contains("hdd_rejections_by_reason_total"));
    }

    #[test]
    fn flight_chrome_trace_nests_spans_and_draws_cause_arrows() {
        use crate::span::{OpSpan, SpanKind, TxnFlight, WaitSpan};
        let log = FlightLog {
            flights: vec![
                TxnFlight {
                    txn: 1,
                    class: 0,
                    worker: 0,
                    admit_ns: 1_000,
                    end_ns: 9_000,
                    terminal: Some(Terminal::Committed),
                    ops: vec![OpSpan {
                        kind: SpanKind::Read,
                        segment: 2,
                        key: 7,
                        start_ns: 1_500,
                        dur_ns: 400,
                    }],
                    waits: vec![
                        WaitSpan {
                            start_ns: 2_000,
                            dur_ns: 3_000,
                            slept_ns: 1_000,
                            cause: WaitCause::TxnPending { txn: 2, class: 1 },
                        },
                        WaitSpan {
                            start_ns: 6_000,
                            dur_ns: 1_000,
                            slept_ns: 0,
                            cause: WaitCause::Unattributed,
                        },
                    ],
                },
                TxnFlight {
                    txn: 2,
                    class: 1,
                    worker: 1,
                    admit_ns: 500,
                    end_ns: 4_800,
                    terminal: Some(Terminal::Aborted),
                    ops: vec![],
                    waits: vec![],
                },
            ],
            wall_releases: vec![(4, 6_800)],
            open: 0,
        };
        let text = flight_chrome_trace(&log);
        let n = validate_chrome_trace(&text).expect("validates");
        // 3 thread metadata + 1 wall release + 2 flights + 1 op + 2
        // waits + 2 flow arrows per attributed wait (1 attributed).
        assert_eq!(n, 3 + 1 + 2 + 1 + 2 + 2);
        assert!(text.contains("\"name\":\"txn 1 [committed]\""));
        assert!(text.contains("\"name\":\"txn 2 [aborted]\""));
        assert!(text.contains("\"name\":\"wait: txn-pending\""));
        assert!(text.contains("\"name\":\"wait: unattributed\""));
        assert!(text.contains("\"ph\":\"s\""), "flow start missing");
        assert!(
            text.contains("\"ph\":\"f\",\"bp\":\"e\""),
            "flow finish missing"
        );
        assert!(text.contains("\"name\":\"worker 1\""));
        assert!(text.contains("\"name\":\"maintenance / time walls\""));
        // txn 1's first wait ends at 5 µs, caused by txn 2 ending at
        // 4.8 µs on worker 1's track.
        assert!(text.contains("\"ph\":\"s\",\"id\":1,\"ts\":4.800,\"pid\":1,\"tid\":2"));
        assert!(
            text.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":1,\"ts\":5.000,\"pid\":1,\"tid\":1")
        );
        // The release is an instant on the maintenance track; the
        // unattributed wait draws no arrow.
        assert!(
            text.contains("\"name\":\"wall-release\",\"cat\":\"wall\",\"ph\":\"i\",\"ts\":6.800")
        );
        assert!(!text.contains("\"id\":2"));
        assert!(flight_chrome_trace(&FlightLog::default()).contains("maintenance"));
        assert!(validate_chrome_trace(&flight_chrome_trace(&FlightLog::default())).is_ok());
    }

    #[test]
    fn wall_drag_families_render_per_class_once_configured() {
        let o = crate::Obs::new();
        let bare = prometheus_text(&[("committed", 7)], &o.snapshot());
        assert!(
            !bare.contains("hdd_wall_drag"),
            "unconfigured: no class rows"
        );
        o.gauges.configure(2, 3);
        o.gauges.note_wall_floor(Some(1), 10);
        o.gauges.note_wall_floor(Some(0), 25);
        let text = prometheus_text(&[("committed", 7)], &o.snapshot());
        validate_prometheus(&text).expect("self-validates");
        assert!(text.contains(
            "# TYPE hdd_wall_drag_blame_total counter\n\
             hdd_wall_drag_blame_total{class=\"0\"} 1\n\
             hdd_wall_drag_blame_total{class=\"1\"} 1\n"
        ));
        assert!(text.contains("hdd_wall_drag_ticks_sum 15\nhdd_wall_drag_ticks_count 1\n"));
    }

    #[test]
    fn chrome_validator_rejects_malformed_input() {
        assert!(validate_chrome_trace("[]").is_err(), "wrong prefix");
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"i\"}").is_err(),
            "unbalanced"
        );
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"pid\":1,\"ts\":0}],\"x\":0}").is_err(),
            "event without ph"
        );
        // Braces inside strings must not confuse the scanner.
        let tricky = "{\"traceEvents\":[{\"name\":\"a{b}c\",\"ph\":\"M\",\"pid\":1,\
                      \"tid\":0,\"args\":{\"name\":\"}{\"}}],\"displayTimeUnit\":\"ms\"}";
        assert_eq!(validate_chrome_trace(tricky).unwrap(), 1);
        assert!(validate_chrome_trace(&chrome_trace(&[])).is_ok());
    }
}
