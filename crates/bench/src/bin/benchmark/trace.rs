//! Spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. Spans nest through an explicit
//! stack: a span's self time is its duration minus the time its child
//! spans cover, so the self times of one thread's spans add up to the
//! time its root spans cover. Aggregates are kept for every span; the
//! spans themselves are kept in memory up to a cap and written out as
//! JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the trace file; aggregates keep counting past it.
const SPAN_CAP: usize = 200_000;

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// The batch, trial, round or episode the span belongs to.
    unit: u64,
}

#[derive(Debug)]
struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    unit: u64,
    child_ns: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub busy_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u64,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A recorder for thread number `thread`, timing from `origin`.
    pub fn new(origin: Instant, thread: u64) -> Tracer {
        Tracer {
            origin,
            thread,
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            agg: BTreeMap::new(),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        (self.thread << 48) | self.next_id
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, unit: u64) {
        let id = self.fresh_id();
        self.stack.push(Open {
            id,
            name,
            start: Instant::now(),
            unit,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = Instant::now();
        if let Some(open) = self.stack.pop() {
            let parent = self.stack.last().map(|p| p.id);
            self.finish(
                open.id,
                parent,
                open.name,
                open.unit,
                open.start,
                end,
                open.child_ns,
            );
        }
    }

    /// Records an already finished span with no children of its own
    /// under the innermost open span.
    pub fn record(&mut self, name: &'static str, unit: u64, start: Instant, end: Instant) {
        let id = self.fresh_id();
        let parent = self.stack.last().map(|p| p.id);
        self.finish(id, parent, name, unit, start, end, 0);
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        unit: u64,
        start: Instant,
        end: Instant,
        child_ns: u64,
    ) {
        let dur = ns_between(start, end);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
        let a = self.agg.entry(name).or_default();
        a.count += 1;
        a.busy_ns += dur;
        a.self_ns += dur.saturating_sub(child_ns);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns: ns_between(self.origin, start),
                end_ns: ns_between(self.origin, end),
                unit,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Totals for one span name (zero when never recorded).
    pub fn agg(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of one span name, in µs (0 when never recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            a.busy_ns as f64 / a.count as f64 / 1e3
        }
    }

    /// Summed self time over every span of this thread.
    pub fn self_sum_ns(&self) -> u64 {
        self.agg.values().map(|a| a.self_ns).sum()
    }

    /// The per-layer table: count, busy time, self time and share of
    /// `wall_ns`, one row per span name, each row labelled `label`.
    pub fn table(&self, label: &str, wall_ns: u64) -> String {
        let mut out = format!(
            "{label:<8} {:<34} {:>9} {:>11} {:>11} {:>7}\n",
            "span", "count", "busy ms", "self ms", "share"
        );
        for (name, a) in &self.agg {
            let _ = writeln!(
                out,
                "{label:<8} {name:<34} {:>9} {:>11.3} {:>11.3} {:>6.1}%",
                a.count,
                a.busy_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6,
                100.0 * a.self_ns as f64 / wall_ns.max(1) as f64
            );
        }
        out
    }

    /// Appends this thread's spans to `path` as JSON lines.
    pub fn write_jsonl(&self, path: &Path, append: bool) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(path)?;
        let mut w = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"thread\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"unit\":{}}}",
                self.thread, s.id, s.name, s.start_ns, s.end_ns, s.unit
            )?;
        }
        if self.dropped > 0 {
            writeln!(
                w,
                "{{\"thread\":{},\"dropped_spans\":{}}}",
                self.thread, self.dropped
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 0);
        t.enter("root", 1);
        let a = Instant::now();
        std::thread::sleep(Duration::from_millis(3));
        let b = Instant::now();
        t.record("leaf", 1, a, b);
        t.exit();
        let root = t.agg("root");
        let leaf = t.agg("leaf");
        assert_eq!(root.count, 1);
        assert_eq!(leaf.self_ns, leaf.busy_ns);
        assert_eq!(root.self_ns, root.busy_ns - leaf.busy_ns);
        assert_eq!(t.self_sum_ns(), root.busy_ns);
        assert_eq!(t.spans[0].parent, Some(t.spans[1].id));
        assert_eq!(t.spans[1].parent, None);
    }
}
