//! In-memory spans around calls into each layer, written out at the end
//! as Chrome trace-event JSON (opens in Perfetto), plus per-layer self
//! time: a span's duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::json;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the trace.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `session.seed_both`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Recording thread (a small per-trace number).
    pub tid: u64,
    /// Request id, for spans belonging to one served request.
    pub request: Option<u64>,
}

/// Span collector shared by every thread of a traced run.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<Vec<std::thread::ThreadId>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn tid(&self) -> u64 {
        let me = std::thread::current().id();
        let mut threads = self.threads.lock().expect("tracer thread list poisoned");
        match threads.iter().position(|t| *t == me) {
            Some(i) => i as u64 + 1,
            None => {
                threads.push(me);
                threads.len() as u64
            }
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so nested calls can name it as their parent.
    pub fn span<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> R {
        self.span_req(name, parent, None, f)
    }

    /// [`span`](Self::span) tagged with a request id.
    pub fn span_req<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let tid = self.tid();
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("tracer span list poisoned")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                tid,
                request,
            });
        r
    }

    /// A copy of every finished span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("tracer span list poisoned")
            .clone()
    }
}

/// Nanoseconds covered by the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of each span in ns: duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let dur = s.end_ns - s.start_ns;
            (s.id, dur - covered_ns(kids, s.start_ns, s.end_ns).min(dur))
        })
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += selfs[&s.id] as f64 * 1e-9;
    }
    out
}

/// Share of `root`'s wall time covered by its descendants' self time
/// (1 minus the root's own uncovered time over its duration).
pub fn coverage(spans: &[Span], root: u64) -> f64 {
    let selfs = self_times(spans);
    let Some(r) = spans.iter().find(|s| s.id == root) else {
        return 0.0;
    };
    let dur = (r.end_ns - r.start_ns).max(1);
    1.0 - selfs[&root] as f64 / dur as f64
}

/// Chrome trace-event JSON (complete `X` events, microseconds); `args`
/// carries the span id, its parent's id and the request id (`null` when
/// absent).
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<_> = spans
        .iter()
        .map(|s| {
            json!({
                "name": s.name,
                "cat": layer_of(s.name),
                "ph": "X",
                "ts": s.start_ns as f64 / 1e3,
                "dur": (s.end_ns - s.start_ns) as f64 / 1e3,
                "pid": 1,
                "tid": s.tid,
                "args": {"id": s.id, "parent": s.parent, "request": s.request}
            })
        })
        .collect();
    json!({"traceEvents": events, "displayTimeUnit": "ms"}).to_string()
}

/// The layer a span name belongs to (its first dotted component).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x.y",
            start_ns,
            end_ns,
            tid: 1,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with overlapping children 10..40 and 30..60 (union
        // 50) and a grandchild that must not count against the root.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(2), 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 25);
        assert_eq!(selfs[&4], 5);
        assert!((coverage(&spans, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parents_and_renders_chrome_events() {
        let t = Tracer::default();
        t.span("a.outer", None, |id| {
            t.span_req("b.inner", Some(id), Some(7), |_| ())
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "b.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "a.outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let json = chrome_json(&spans);
        let parsed = serde_json::from_str(&json).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        let inner_event = events.iter().find(|e| e["name"] == "b.inner").unwrap();
        assert_eq!(inner_event["ph"], "X");
        assert_eq!(inner_event["args"]["request"], 7u64);
        assert_eq!(inner_event["args"]["parent"], outer.id);
    }
}
