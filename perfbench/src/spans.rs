//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! crates' public functions: name (`<crate>.<call>`), start, end, parent
//! and host thread. Nothing is written until the run ends. A disabled
//! tracer runs the closure and records nothing, so the timed passes pay
//! only a branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cdpc_obs::JsonValue;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id (`None` when tracing is off) to parent its
    /// children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end = self.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            name,
            id,
            parent,
            tid: TID.with(|t| *t),
            start_ns: start,
            end_ns: end,
        };
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span recorder poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Nanoseconds of `parent`'s interval covered by the union of its direct
/// children's intervals (children may run in parallel on other threads).
fn covered_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Self time of each span: its duration minus the part of it that its
/// children cover, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            s.dur_ns() - covered_ns(s, kids)
        })
        .collect()
}

/// Share of the spans called `root` covered by their children: how much
/// of a pass's wall time the layer spans account for.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let own = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.name == root {
            total += s.dur_ns();
            uncovered += own;
        }
    }
    1.0 - uncovered as f64 / total.max(1) as f64
}

/// Per-name totals: (calls, total ns, self ns), sorted by self time.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let own = self_times(spans);
    let mut agg: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = agg.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    let mut rows: Vec<_> = agg.into_iter().map(|(n, (c, t, o))| (n, c, t, o)).collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// Chrome trace-event document (`ph: "X"` complete events), loadable in
/// Perfetto or `chrome://tracing`. `summary` is stored beside the events.
pub fn to_chrome_trace(spans: &[Span], summary: JsonValue) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let mut e = JsonValue::object();
            e.push("name", JsonValue::Str(s.name.to_string()));
            e.push("ph", JsonValue::Str("X".into()));
            e.push("pid", JsonValue::UInt(1));
            e.push("tid", JsonValue::UInt(u64::from(s.tid)));
            e.push("ts", JsonValue::Float(s.start_ns as f64 / 1e3));
            e.push("dur", JsonValue::Float(s.dur_ns() as f64 / 1e3));
            let mut args = JsonValue::object();
            args.push("id", JsonValue::UInt(u64::from(s.id)));
            args.push(
                "parent",
                s.parent
                    .map_or(JsonValue::Null, |p| JsonValue::UInt(u64::from(p))),
            );
            e.push("args", args);
            e
        })
        .collect();
    let mut doc = JsonValue::object();
    doc.push("traceEvents", JsonValue::Array(events));
    doc.push("summary", summary);
    doc.to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name: "t",
            id,
            parent,
            tid: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Two overlapping children (parallel workers) and one disjoint.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 80, 120),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 40 - 20);
        assert_eq!(own[1], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", None, |id| id), None);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("outer", None, |id| t.span("inner", id, |_| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans.iter().find(|s| s.name == "inner").unwrap().parent,
            inner
        );
    }
}
