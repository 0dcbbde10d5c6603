//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name (the layer call it wraps), a start and end, the span
//! that caused it, and the id of the query it belongs to. Spans are kept in
//! memory while the run measures and written out when it ends. A disabled
//! tracer records nothing and reads no clock, so the untraced loop runs the
//! same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub query: u64,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// A span that has started and not yet ended.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    query: u64,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, query: u64, parent: Option<&Open>) -> Option<Open> {
        self.enabled.then(|| Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(|p| p.id),
            name,
            query,
            start: Instant::now(),
        })
    }

    pub fn close(&self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            query: open.query,
            start: open.start - self.origin,
            end: end - self.origin,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        query: u64,
        parent: Option<&Open>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, query, parent);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Durations of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<Duration> {
    spans.iter().filter(|s| s.name == name).map(Span::duration).collect()
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, Duration> {
    let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort();
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Per span name: count, total time and total self time.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.duration();
        entry.2 += selfs[&s.id];
    }
    out
}

/// Write spans as JSON lines, times in microseconds from the run's start.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"query\":{},\"start_us\":{},\"end_us\":{}}}",
            s.id,
            parent,
            s.name,
            s.query,
            s.start.as_micros(),
            s.end.as_micros()
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            query: 0,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(2), 10, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], Duration::from_millis(60));
        assert_eq!(selfs[&2], Duration::from_millis(20));
        assert_eq!(selfs[&4], Duration::from_millis(10));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 1, None, || 5), 5);
        assert!(tracer.spans().is_empty());
    }
}
