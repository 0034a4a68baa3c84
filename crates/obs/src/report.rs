//! The observability report: a span tree with durations plus every
//! counter, gauge, histogram, and retained event — serializable to JSON
//! (the `--metrics-out` artifact), parseable back, and renderable as an
//! indented per-path profile (`confmask obs-report`).

use crate::event::{EventRecord, Level};
use crate::json::{escape, parse, Json, JsonError};
use crate::metrics::HistogramSummary;
use crate::span::FinishedSpan;
use std::fmt::Write as _;

/// A span as it appears in a report (name owned, so reports can be parsed
/// back from JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id (unique within the report).
    pub id: u64,
    /// Parent span id, `None` for roots.
    pub parent: Option<u64>,
    /// Span name (`pipeline.stage.topology`, …).
    pub name: String,
    /// Dense index of the thread the span ran on.
    pub thread: u64,
    /// Start time, µs since the process observation epoch.
    pub start_us: u64,
    /// Wall-clock duration in µs.
    pub duration_us: u64,
    /// Trace id this span belongs to (0 = untraced).
    pub trace: u64,
}

impl From<FinishedSpan> for SpanRecord {
    fn from(s: FinishedSpan) -> Self {
        SpanRecord {
            id: s.id,
            parent: s.parent,
            name: s.name.to_string(),
            thread: s.thread,
            start_us: s.start_us,
            duration_us: s.duration_us,
            trace: s.trace,
        }
    }
}

/// One node of the reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span itself.
    pub span: SpanRecord,
    /// Child spans, by start time.
    pub children: Vec<SpanNode>,
}

/// Spans folded by path: every span whose chain of names from its root
/// down is the same counts toward one row, however many times it ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRow {
    /// Span names from the root down, joined by `/`.
    pub path: String,
    /// Number of ancestors (0 for a root).
    pub depth: usize,
    /// Spans folded into the row.
    pub count: u64,
    /// Their summed durations, µs.
    pub total_us: u64,
    /// Their summed self times, µs: each span's duration minus its direct
    /// children's (floored at zero, since children on other threads can
    /// overlap).
    pub self_us: u64,
}

/// A complete observability snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All finished spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped at the collector cap (0 in healthy runs).
    pub dropped_spans: u64,
    /// Counters, by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Retained events, in emission order.
    pub events: Vec<EventRecord>,
}

impl Report {
    /// Reconstructs the span tree: roots (spans without a finished parent)
    /// ordered by start time, children likewise.
    pub fn tree(&self) -> Vec<SpanNode> {
        let known: std::collections::BTreeSet<u64> =
            self.spans.iter().map(|s| s.id).collect();
        let mut children_of: std::collections::BTreeMap<u64, Vec<SpanRecord>> =
            std::collections::BTreeMap::new();
        let mut roots: Vec<SpanRecord> = Vec::new();
        for s in &self.spans {
            match s.parent {
                // A parent that never finished (e.g. dropped at the cap)
                // promotes its children to roots rather than losing them.
                Some(p) if known.contains(&p) => {
                    children_of.entry(p).or_default().push(s.clone())
                }
                _ => roots.push(s.clone()),
            }
        }
        fn build(
            span: SpanRecord,
            children_of: &mut std::collections::BTreeMap<u64, Vec<SpanRecord>>,
        ) -> SpanNode {
            let mut kids = children_of.remove(&span.id).unwrap_or_default();
            kids.sort_by_key(|s| (s.start_us, s.id));
            SpanNode {
                span,
                children: kids
                    .into_iter()
                    .map(|k| build(k, children_of))
                    .collect(),
            }
        }
        roots.sort_by_key(|s| (s.start_us, s.id));
        roots.into_iter().map(|r| build(r, &mut children_of)).collect()
    }

    /// The span tree folded by path ([`PathRow`]), depth first: a row's
    /// children follow it, in the order their paths first started.
    pub fn profile(&self) -> Vec<PathRow> {
        struct Fold {
            name: String,
            count: u64,
            total_us: u64,
            self_us: u64,
            children: Vec<Fold>,
        }
        fn add(level: &mut Vec<Fold>, node: &SpanNode) {
            let i = match level.iter().position(|f| f.name == node.span.name) {
                Some(i) => i,
                None => {
                    level.push(Fold {
                        name: node.span.name.clone(),
                        count: 0,
                        total_us: 0,
                        self_us: 0,
                        children: Vec::new(),
                    });
                    level.len() - 1
                }
            };
            let fold = &mut level[i];
            let d = node.span.duration_us;
            let kids: u64 = node.children.iter().map(|c| c.span.duration_us).sum();
            fold.count += 1;
            fold.total_us += d;
            fold.self_us += d.saturating_sub(kids);
            for child in &node.children {
                add(&mut fold.children, child);
            }
        }
        fn flatten(level: Vec<Fold>, parent: Option<&str>, depth: usize, out: &mut Vec<PathRow>) {
            for fold in level {
                let path = match parent {
                    Some(p) => format!("{p}/{}", fold.name),
                    None => fold.name,
                };
                out.push(PathRow {
                    path: path.clone(),
                    depth,
                    count: fold.count,
                    total_us: fold.total_us,
                    self_us: fold.self_us,
                });
                flatten(fold.children, Some(&path), depth + 1, out);
            }
        }
        let mut roots = Vec::new();
        for node in &self.tree() {
            add(&mut roots, node);
        }
        let mut rows = Vec::new();
        flatten(roots, None, 0, &mut rows);
        rows
    }

    /// Number of finished spans with the given name.
    pub fn spans_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The summary of a histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Serializes the report as pretty-printed JSON (the `--metrics-out`
    /// format, stable enough to diff across runs).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 1,\n");
        let _ = writeln!(out, "  \"dropped_spans\": {},", self.dropped_spans);
        out.push_str("  \"spans\": [");
        let tree = self.tree();
        for (i, node) in tree.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            write_span(&mut out, node, 2);
        }
        if !tree.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {v}", escape(name));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {v}", escape(name));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                escape(name), h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
            );
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"level\": {}, \"target\": {}, \"message\": {}, \"at_us\": {}}}",
                escape(e.level.name()),
                escape(&e.target),
                escape(&e.message),
                e.at_us
            );
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Serializes only the reconstructed span tree as a JSON array —
    /// the same nested `{name, id, …, children}` shape [`Report::to_json`]
    /// embeds. The serve daemon composes this into its per-job trace
    /// endpoint response.
    pub fn span_tree_json(&self) -> String {
        let mut out = String::from("[");
        let tree = self.tree();
        for (i, node) in tree.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            write_span(&mut out, node, 1);
        }
        if !tree.is_empty() {
            out.push('\n');
        }
        out.push(']');
        out
    }

    /// Parses a report previously written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, JsonError> {
        let doc = parse(text)?;
        let bad = |message: &str| JsonError {
            message: message.to_string(),
            offset: 0,
        };
        let mut report = Report {
            dropped_spans: doc.get("dropped_spans").and_then(Json::as_u64).unwrap_or(0),
            ..Report::default()
        };
        fn read_span(
            v: &Json,
            parent: Option<u64>,
            out: &mut Vec<SpanRecord>,
        ) -> Result<(), JsonError> {
            let bad = |message: &str| JsonError {
                message: message.to_string(),
                offset: 0,
            };
            let id = v.get("id").and_then(Json::as_u64).ok_or_else(|| bad("span.id"))?;
            out.push(SpanRecord {
                id,
                parent,
                name: v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("span.name"))?
                    .to_string(),
                thread: v.get("thread").and_then(Json::as_u64).unwrap_or(0),
                start_us: v.get("start_us").and_then(Json::as_u64).unwrap_or(0),
                duration_us: v.get("duration_us").and_then(Json::as_u64).unwrap_or(0),
                trace: v.get("trace").and_then(Json::as_u64).unwrap_or(0),
            });
            for child in v.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
                read_span(child, Some(id), out)?;
            }
            Ok(())
        }
        for v in doc.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            read_span(v, None, &mut report.spans)?;
        }
        if let Some(counters) = doc.get("counters").and_then(Json::as_obj) {
            for (name, v) in counters {
                let v = v.as_u64().ok_or_else(|| bad("counter value"))?;
                report.counters.push((name.clone(), v));
            }
        }
        if let Some(gauges) = doc.get("gauges").and_then(Json::as_obj) {
            for (name, v) in gauges {
                let v = v.as_f64().ok_or_else(|| bad("gauge value"))?;
                report.gauges.push((name.clone(), v));
            }
        }
        if let Some(histograms) = doc.get("histograms").and_then(Json::as_obj) {
            for (name, v) in histograms {
                let field = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
                report.histograms.push((
                    name.clone(),
                    HistogramSummary {
                        count: field("count"),
                        sum: field("sum"),
                        min: field("min"),
                        max: field("max"),
                        p50: field("p50"),
                        p90: field("p90"),
                        p99: field("p99"),
                    },
                ));
            }
        }
        for v in doc.get("events").and_then(Json::as_arr).unwrap_or(&[]) {
            report.events.push(EventRecord {
                level: v
                    .get("level")
                    .and_then(Json::as_str)
                    .and_then(Level::from_name)
                    .ok_or_else(|| bad("event.level"))?,
                target: v
                    .get("target")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                at_us: v.get("at_us").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        Ok(report)
    }

    /// Renders the report as an indented text summary: one row per span
    /// path ([`Report::profile`]) with its count, total and self time,
    /// then every metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let rows = self.profile();
        if rows.is_empty() {
            out.push_str("span profile: (no spans recorded)\n");
        } else {
            let _ = writeln!(
                out,
                "span profile (folded by path):\n  {:<44} {:>7} {:>10} {:>10}",
                "span", "count", "total", "self"
            );
            for row in &rows {
                let name = row.path.rsplit('/').next().unwrap_or_default();
                let label = format!("{}{name}", "  ".repeat(row.depth));
                let _ = writeln!(
                    out,
                    "  {label:<44} {:>7} {:>10} {:>10}",
                    row.count,
                    fmt_duration_us(row.total_us),
                    fmt_duration_us(row.self_us)
                );
            }
        }
        if self.dropped_spans > 0 {
            let _ = writeln!(out, "  ({} span(s) dropped at the collector cap)", self.dropped_spans);
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<44} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<44} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<44} count={} mean={:.1} p50={} p90={} p99={} max={}",
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max
                );
            }
        }
        if !self.events.is_empty() {
            let _ = writeln!(out, "events: {} retained", self.events.len());
        }
        out
    }
}

/// Human duration: µs below 1 ms, fractional ms below 1 s, seconds above.
pub fn fmt_duration_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    }
}

fn write_span(out: &mut String, node: &SpanNode, depth: usize) {
    let pad = "  ".repeat(depth);
    let _ = write!(
        out,
        "{pad}{{\"name\": {}, \"id\": {}, \"thread\": {}, \"start_us\": {}, \"duration_us\": {}, ",
        escape(&node.span.name),
        node.span.id,
        node.span.thread,
        node.span.start_us,
        node.span.duration_us
    );
    // Untraced spans omit the field, keeping pre-trace reports byte-stable.
    if node.span.trace != 0 {
        let _ = write!(out, "\"trace\": {}, ", node.span.trace);
    }
    out.push_str("\"children\": [");
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        write_span(out, child, depth + 1);
    }
    if !node.children.is_empty() {
        let _ = write!(out, "\n{pad}");
    }
    out.push_str("]}");
}
