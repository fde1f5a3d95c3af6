//! In-memory span recorder for the traced run.
//!
//! Every timed call into a layer goes through [`Tracer::span`], which
//! always returns the call's wall time (the end-to-end metrics need it) and,
//! when tracing is on, also records a span: name, start, end, parent span
//! and request id. Spans stay in memory and are written out once, at the
//! end of the run. With tracing off a span costs two clock reads.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a span sits: its own id (0 when tracing is off) and the request
/// it belongs to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ctx {
    id: u64,
    request: u64,
}

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Parent span id, 0 for a request's root span.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A counter value recorded at a span boundary.
#[derive(Debug, Clone)]
pub struct CounterEvent {
    pub span: u64,
    pub request: u64,
    pub name: &'static str,
    pub value: u64,
}

/// Span and counter recorder; a no-op apart from timing when disabled.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    next_request: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Vec<CounterEvent>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
        }
    }

    /// A fresh request: the root context its spans hang under.
    pub fn request(&self) -> Ctx {
        if !self.on {
            return Ctx::default();
        }
        Ctx { id: 0, request: self.next_request.fetch_add(1, Ordering::Relaxed) }
    }

    /// Runs `f` as span `name` under `parent`, returning its result and
    /// wall time in seconds. `f` receives the span's context so it can open
    /// child spans.
    pub fn span<T>(&self, name: &'static str, parent: Ctx, f: impl FnOnce(Ctx) -> T) -> (T, f64) {
        let ctx = if self.on {
            Ctx { id: self.next_id.fetch_add(1, Ordering::Relaxed), request: parent.request }
        } else {
            Ctx::default()
        };
        let start = Instant::now();
        let out = f(ctx);
        let end = Instant::now();
        if self.on {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            let span = Span {
                id: ctx.id,
                parent: parent.id,
                request: parent.request,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            };
            self.spans.lock().expect("span log poisoned").push(span);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records a counter value at the boundary of span `at`.
    pub fn counter(&self, at: Ctx, name: &'static str, value: u64) {
        if self.on {
            let event = CounterEvent { span: at.id, request: at.request, name, value };
            self.counters.lock().expect("counter log poisoned").push(event);
        }
    }

    /// Number of spans recorded so far.
    pub fn num_spans(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Self time per span name: each span's duration minus the part of its
    /// interval that its children cover, summed by name, with span counts.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let entry = out.entry(s.name).or_default();
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9;
            entry.1 += 1;
        }
        out
    }

    /// Writes every span and counter event as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let counters = self.counters.lock().expect("counter log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "], \"counters\": [")?;
        for (i, c) in counters.iter().enumerate() {
            let sep = if i + 1 < counters.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"span\": {}, \"request\": {}, \"name\": \"{}\", \"value\": {}}}{sep}",
                c.span, c.request, c.name, c.value
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.clamp(lo, hi), b.clamp(lo, hi))).collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for (a, b) in v {
        let a = a.max(cur);
        if b > a {
            total += b - a;
            cur = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let root = t.request();
        t.span("outer", root, |ctx| {
            t.span("inner", ctx, |_| std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let st = t.self_times();
        assert!(st["inner"].0 >= 0.019);
        assert!(st["outer"].0 < st["inner"].0);
        assert_eq!(t.num_spans(), 2);
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.span("x", t.request(), |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.num_spans(), 0);
    }

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 25), 20);
    }
}
