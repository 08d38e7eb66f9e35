//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer (the program itself is not instrumented). With tracing off,
//! [`Tracer::span`] still times the call — that is how the untraced run
//! measures its end-to-end numbers — but records nothing.

use crate::json::{self, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span whose code made this call.
    pub parent: Option<u64>,
    /// Layer call name, e.g. `core.cache_load`.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Request id (service section only).
    pub request: Option<u64>,
    /// Request kind (service section only).
    pub kind: Option<&'static str>,
}

impl Span {
    /// Wall-clock length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans from any thread; written out once, at exit.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans iff `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Time `f`; with tracing on, record it as span `name` under
    /// `parent`. `f` receives this span's id to parent its own children.
    /// Returns `f`'s value and its wall-clock seconds.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> (T, f64) {
        let id = self
            .on
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            self.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                request: None,
                kind: None,
            });
        }
        (out, (end - start).as_secs_f64())
    }

    /// Record an already-timed request span (service section).
    pub fn request(
        &self,
        name: &str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        request: u64,
        kind: &'static str,
    ) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            request: Some(request),
            kind: Some(kind),
        });
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> Json {
        let spans = self.spans();
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    let mut fields = vec![
                        ("id", Json::U64(s.id)),
                        ("parent", s.parent.map_or(Json::Null, Json::U64)),
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                        ("self_ns", Json::U64(self_ns(s, &spans))),
                    ];
                    if let (Some(r), Some(k)) = (s.request, s.kind) {
                        fields.push(("request", Json::U64(r)));
                        fields.push(("kind", Json::Str(k.to_string())));
                    }
                    json::obj(fields)
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of that interval
/// covered by its direct children (overlapping children count once).
pub fn self_ns(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            request: None,
            kind: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),  // overlaps span 2
            span(4, Some(1), 90, 120), // runs past the parent's end
            span(5, Some(2), 12, 14),  // grandchild: not subtracted from 1
        ];
        assert_eq!(self_ns(&all[0], &all), 100 - 40 - 10);
        assert_eq!(self_ns(&all[1], &all), 20 - 2);
        assert_eq!(self_ns(&all[4], &all), 2);
    }

    #[test]
    fn an_untraced_tracer_times_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.span("x", None, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_point_at_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", None, |outer| {
            t.span("inner", outer, |_| ());
        });
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(t.secs("inner").len(), 1);
    }
}
