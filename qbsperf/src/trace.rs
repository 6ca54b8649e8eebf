//! In-memory span recording around calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, the
//! request or batch it belongs to, and the number of operations it timed
//! (a span around a loop of `n` label fills has `ops = n`). Spans stay in
//! memory while the workload runs; [`Trace::write_tsv`] writes them out
//! when the run ends. A disabled log records nothing, so the untraced run
//! pays one branch per call site.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The causing span's id, `0` for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The request or batch ID the span belongs to.
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

/// The run-wide span store: a shared clock and the merged per-thread logs.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closing it records the span.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    key: u64,
    start: Instant,
}

/// A per-thread span buffer, merged into its [`Trace`] on drop.
pub struct SpanLog<'t> {
    trace: &'t Trace,
    spans: Vec<Span>,
}

/// Per-name aggregate of span self times.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub spans: u64,
    pub ops: u64,
    pub self_ns: u64,
}

impl SelfTime {
    /// Self time per operation, in nanoseconds.
    pub fn per_op_ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.ops as f64
        }
    }
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A buffer for the calling thread.
    pub fn log(&self) -> SpanLog<'_> {
        SpanLog {
            trace: self,
            spans: Vec::new(),
        }
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval that its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns - s.start_ns;
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let agg = out.entry(s.name).or_default();
            agg.spans += 1;
            agg.ops += s.ops;
            agg.self_ns += total - covered;
        }
        out
    }

    /// The durations of every span named `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes every span, one per line, in start order.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tkey\tstart_ns\tend_ns\tops")?;
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

impl SpanLog<'_> {
    /// Opens a span caused by `parent` (`0` for a root) for `key`.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: u64, key: u64) -> Open {
        let (id, start) = if self.trace.on {
            let id = self.trace.next_id.fetch_add(1, Ordering::Relaxed);
            (id, Instant::now())
        } else {
            (0, self.trace.epoch)
        };
        Open {
            id,
            parent,
            name,
            key,
            start,
        }
    }

    /// Closes `open`, which timed `ops` operations.
    #[inline]
    pub fn close(&mut self, open: Open, ops: u64) {
        if !self.trace.on {
            return;
        }
        let end = Instant::now();
        let epoch = self.trace.epoch;
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            key: open.key,
            start_ns: open.start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
            ops,
        });
    }
}

impl Drop for SpanLog<'_> {
    fn drop(&mut self) {
        if let Ok(mut all) = self.trace.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}
