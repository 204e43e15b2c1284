//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span has a name (`layer.function`), start and end, its parent span,
//! and the id of the job execution it belongs to; every span of one job
//! shares that id. Spans stay in memory until the run ends. A disabled
//! tracer reads no clock and takes no lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a span with no parent.
    pub parent: u64,
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span ids are unique across every tracer of the process, so spans of
/// several tracers can be summarized together.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Cheap to clone: closures that run on other threads (the exec and net
/// root programs) carry their own handle.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Inner>>);

impl Tracer {
    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Inner {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Run `f` inside a span named `name`; `f` receives the new span's id
    /// to pass as the parent of nested spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        job: u64,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let Some(inner) = &self.0 else {
            return f(0);
        };
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let start = inner.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = inner.epoch.elapsed().as_nanos() as u64;
        inner
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking job")
            .push(Span {
                id,
                parent,
                job,
                name,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        let mut v = inner
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking job")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Per span name: calls, total time, and self time (total minus the
/// part of the interval that child spans cover).
#[derive(Default, Clone, Copy)]
pub struct SpanSummary {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mk = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            job: 7,
            name: if parent == 0 { "outer" } else { "inner" },
            start_ns,
            end_ns,
        };
        let s = summarize(&[mk(1, 0, 0, 100), mk(2, 1, 10, 40), mk(3, 1, 50, 70)]);
        assert_eq!(s["outer"].total_ns, 100);
        assert_eq!(s["outer"].self_ns, 50);
        assert_eq!(s["inner"].calls, 2);
        assert_eq!(s["inner"].self_ns, 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        assert_eq!(t.span("x", 1, 0, |id| id), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_share_the_job_and_link_parents() {
        let t = Tracer::on();
        t.span("outer", 3, 0, |p| t.span("inner", 3, p, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.job == 3));
    }
}
