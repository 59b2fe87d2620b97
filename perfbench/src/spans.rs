//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (name, start, end, parent, request or flush
//! id), kept in memory, and written out once the run has ended. A span's
//! self time is its duration minus the part of its interval covered by
//! its child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's anchor.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Request, flush, event or training-step id the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder with an open-span stack for parents.
pub struct Recorder {
    anchor: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new(anchor: Instant) -> Recorder {
        Recorder {
            anchor,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                id,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Record an already-closed span measured elsewhere (e.g. on the
    /// front-end worker thread), with no parent.
    pub fn push_closed(&self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.anchor).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.anchor).as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            id,
        });
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Total duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Total self time (ms) of every span named `name`: each span's
    /// duration minus the union of its children's intervals.
    pub fn self_ms(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut total_ns = 0u64;
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            let mut kids = children.remove(&i).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            total_ns += s.dur_ns().saturating_sub(covered);
        }
        total_ns as f64 / 1e6
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let r = Recorder::new(Instant::now());
        r.span("outer", 0, || {
            r.span("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = r.total_ms("outer");
        let inner = r.total_ms("inner");
        let own = r.self_ms("outer");
        assert!(inner >= 5.0 && outer >= inner);
        assert!((outer - inner - own).abs() < 1e-6);
        assert_eq!(r.spans()[1].parent, Some(0));
    }
}
