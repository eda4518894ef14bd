//! Span collection and the per-span self-time profile of a traced run.
//!
//! Two kinds of spans meet here. The benchmark's own spans wrap its calls
//! into each layer and carry an explicit parent id and operation id. The
//! program's spans arrive through `telemetry::span::set_span_sink` (or, for
//! the part of a fit where the pipeline routes them into its own event
//! log, from `NetShare::events`) as a path, a start, a duration and a
//! depth; [`Tracer::finish`] links each to its parent: the enclosing
//! program span on the same thread, or else the innermost benchmark span
//! whose interval contains it (worker threads and server sessions start
//! fresh span stacks). Spans are kept in memory and written at the end.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Operation the span belongs to (one id per benchmark operation).
    pub op: u64,
    /// The frame's own name (a program span's path minus its parent's).
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Program spans only: full slash-joined path and 1-based depth.
    path: Option<(String, u32)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store for one traced run.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

/// Open benchmark span; records itself when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: String,
    start_ns: u64,
}

impl Guard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = telemetry::clock::monotonic_nanos();
        self.tracer.push(Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            end_ns,
            path: None,
        });
    }
}

impl Tracer {
    fn push(&self, span: Span) {
        self.spans.lock().expect("span store lock").push(span);
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Opens a benchmark span under `parent` for operation `op`.
    pub fn span(&self, name: &str, op: u64, parent: Option<u64>) -> Guard<'_> {
        Guard {
            tracer: self,
            id: self.fresh_id(),
            parent,
            op,
            name: name.to_string(),
            start_ns: telemetry::clock::monotonic_nanos(),
        }
    }

    /// Records one program span.
    pub fn program(&self, path: &str, start_ns: u64, duration_ns: u64, depth: u32) {
        self.push(Span {
            id: self.fresh_id(),
            parent: None,
            op: 0,
            name: path.to_string(),
            start_ns,
            end_ns: start_ns + duration_ns,
            path: Some((path.to_string(), depth)),
        });
    }

    /// Routes the program's spans into this tracer (replacing any sink).
    pub fn install(self: &Arc<Self>) {
        let me = Arc::clone(self);
        telemetry::span::set_span_sink(move |e: &telemetry::span::SpanEvent| {
            me.program(&e.path, e.start_ns, e.duration_ns, e.depth)
        });
    }

    /// Links program spans to their parents and returns every span.
    pub fn finish(&self) -> Vec<Span> {
        telemetry::span::clear_span_sink();
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store lock"));
        spans.sort_by_key(|s| (s.start_ns, u64::MAX - s.end_ns));
        // Spans read back from the event log carry whole microseconds, so
        // containment allows that much rounding.
        const SLACK_NS: u64 = 2_000;
        let contains = |a: &Span, b: &Span| {
            a.start_ns <= b.start_ns + SLACK_NS && b.end_ns <= a.end_ns + SLACK_NS
        };
        let mut links = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let Some((path, depth)) = &s.path else {
                continue;
            };
            let same_thread = spans.iter().enumerate().filter(|(_, q)| match &q.path {
                Some((qp, qd)) => {
                    *qd + 1 == *depth
                        && path.len() > qp.len()
                        && path.starts_with(qp.as_str())
                        && path.as_bytes()[qp.len()] == b'/'
                        && contains(q, s)
                }
                None => false,
            });
            let parent = same_thread
                .min_by_key(|(_, q)| q.end_ns - q.start_ns)
                .or_else(|| {
                    spans
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| q.path.is_none() && contains(q, s))
                        .min_by_key(|(_, q)| q.end_ns - q.start_ns)
                })
                .map(|(j, q)| (j, q.path.as_ref().map_or(0, |(qp, _)| qp.len() + 1)));
            links.push((i, parent));
        }
        // Sorted by start, a parent precedes its children, so its op id
        // is final by the time a child copies it.
        for (i, parent) in links {
            if let Some((j, cut)) = parent {
                let (id, op) = (spans[j].id, spans[j].op);
                let s = &mut spans[i];
                s.parent = Some(id);
                s.op = op;
                s.name = s.name[cut..].to_string();
            }
        }
        spans
    }
}

/// Seconds of `parent`'s interval not covered by any of `children`.
pub fn unattributed(parent: &Span, children: &[&Span]) -> f64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (parent.end_ns - parent.start_ns - covered) as f64 * 1e-9
}

/// Children of `id` among `spans`.
pub fn children(spans: &[Span], id: u64) -> Vec<&Span> {
    spans.iter().filter(|s| s.parent == Some(id)).collect()
}

/// Replaces bracketed indices (`chunk[3]`, `sample_fast[64]`) with `*`
/// so repeated spans aggregate into one profile row.
fn label(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut depth = 0;
    for c in name.chars() {
        match c {
            '[' => {
                depth += 1;
                out.push_str("[*");
            }
            ']' => {
                depth -= 1;
                out.push(']');
            }
            _ if depth > 0 => {}
            _ => out.push(c),
        }
    }
    out
}

#[derive(Default)]
struct Row {
    count: u64,
    total_s: f64,
    unattributed_s: f64,
    has_children: bool,
    children: BTreeMap<String, Row>,
}

/// Prints self time per span as an indented tree, aggregated by label
/// path, with an explicit `unattributed` row under every parent.
pub fn print_profile(spans: &[Span]) {
    let mut kids: BTreeMap<Option<u64>, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        kids.entry(s.parent).or_default().push(s);
    }
    fn fold(row: &mut Row, s: &Span, kids: &BTreeMap<Option<u64>, Vec<&Span>>) {
        let entry = row.children.entry(label(&s.name)).or_default();
        entry.count += 1;
        entry.total_s += s.secs();
        if let Some(cs) = kids.get(&Some(s.id)) {
            entry.has_children = true;
            entry.unattributed_s += unattributed(s, cs);
            for c in cs {
                fold(entry, c, kids);
            }
        }
    }
    let mut root = Row::default();
    for s in kids.get(&None).into_iter().flatten() {
        fold(&mut root, s, &kids);
    }
    println!(
        "profile: {:<58} {:>7} {:>11} {:>11}",
        "span", "count", "total_s", "self_s"
    );
    fn show(name: &str, row: &Row, indent: usize) {
        let self_s = if row.has_children {
            row.unattributed_s
        } else {
            row.total_s
        };
        let shown = format!("{}{}", "  ".repeat(indent), name);
        println!(
            "profile: {shown:<58} {:>7} {:>11.4} {:>11.4}",
            row.count, row.total_s, self_s
        );
        for (n, c) in &row.children {
            show(n, c, indent + 1);
        }
        if row.has_children {
            let shown = format!("{}unattributed", "  ".repeat(indent + 1));
            println!(
                "profile: {shown:<58} {:>7} {:>11.4} {:>11.4}",
                "", row.unattributed_s, row.unattributed_s
            );
        }
    }
    for (n, c) in &root.children {
        show(n, c, 0);
    }
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        ));
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_spans_link_to_enclosing_spans_and_unattributed_is_the_gap() {
        let t = Tracer::default();
        {
            let _root = t.span("bench.op", 7, None);
            let base = telemetry::clock::monotonic_nanos();
            t.program("gen[10]", base + 10, 100, 1);
            t.program("gen[10]/sample[4]", base + 20, 30, 2);
            t.program("gen[10]/sample[4]", base + 40, 30, 2);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spans = t.finish();
        let root = spans.iter().find(|s| s.name == "bench.op").unwrap();
        let gen = spans.iter().find(|s| s.name == "gen[10]").unwrap();
        assert_eq!(gen.parent, Some(root.id));
        assert_eq!(gen.op, 7);
        let kids = children(&spans, gen.id);
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|k| k.name == "sample[4]" && k.op == 7));
        // Children cover [20, 70) of [10, 110): 50 ns unattributed.
        assert!((unattributed(gen, &kids) - 50e-9).abs() < 1e-15);
        assert_eq!(label("job[chunk-1]/attempt[1]"), "job[*]/attempt[*]");
    }
}
