//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer's public function.
//!
//! A span has a name, a start and end (nanoseconds since the recorder
//! was made), the span that was open when it started, and the id of the
//! operation it belongs to. Spans are kept in memory and written out
//! once, when the run ends. A layer's self time is its span's duration
//! minus the time its child spans cover. With the recorder off, a span
//! is a plain call; in [`Tracing::Alternate`] it is on in even blocks of
//! the timed phase only, so one run compares traced and untraced blocks.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// When spans are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    Alternate,
}

pub struct Spans {
    mode: Tracing,
    on: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Spans {
    pub fn new(mode: Tracing) -> Self {
        Spans {
            mode,
            on: Cell::new(false),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn mode(&self) -> Tracing {
        self.mode
    }

    /// Called between operations as block `b` of the timed phase starts.
    pub fn start_block(&self, b: usize) {
        self.on
            .set(self.mode == Tracing::Alternate && b.is_multiple_of(2));
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a root span that starts operation `op`.
    pub fn op<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        self.record(name, Some(op), f)
    }

    /// Run `f` inside a span that is a child of the open span (a root of
    /// no operation when none is open).
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        self.record(name, None, f)
    }

    fn record<T>(&self, name: &'static str, op: Option<u64>, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let op = op.unwrap_or_else(|| parent.map_or(0, |p| spans[p as usize].op));
            spans.push(Span {
                name,
                start: 0,
                end: 0,
                parent,
                op,
            });
            (spans.len() - 1) as u32
        };
        self.open.borrow_mut().push(idx);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx as usize].start = start;
        spans[idx as usize].end = end;
        out
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Write the first `limit` spans, one tab-separated line each:
    /// `id parent op name start_ns end_ns` (`-` for no parent).
    pub fn write(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {} of {} spans", spans.len().min(limit), spans.len())?;
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start, s.end
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
        let spans = Spans::new(Tracing::Alternate);
        spans.start_block(0);
        spans.op("op", 7, || {
            spans.call("child", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = spans.totals();
        let op = t["op"];
        let child = t["child"];
        assert_eq!((op.count, child.count), (1, 1));
        assert_eq!(op.self_ns + child.total_ns, op.total_ns);
        assert!(child.self_ns >= 2_000_000);
        assert_eq!(
            spans.spans.borrow()[1].op,
            7,
            "children inherit the operation id"
        );
    }

    #[test]
    fn off_records_nothing() {
        let spans = Spans::new(Tracing::Off);
        spans.start_block(0);
        assert_eq!(spans.op("op", 1, || 5), 5);
        let spans = Spans::new(Tracing::Alternate);
        spans.start_block(1);
        assert_eq!(spans.op("op", 1, || 5), 5);
        assert!(spans.totals().is_empty());
    }
}
