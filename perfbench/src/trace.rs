//! Span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Tracer::timed`], which always measures the call's wall clock and,
//! when tracing is on, also records a span: layer, name, start, end, the
//! enclosing span, and the request id shared by all spans of one
//! request. Spans stay in memory until the run ends. A layer's self time
//! is the total duration of its spans minus the part their child spans
//! cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The layers spans are attributed to (the repository's modules).
pub const LAYERS: [&str; 7] = [
    "graph", "build", "explore", "workers", "cache", "oracle", "serve",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub request: u64,
    pub layer: &'static str,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
}

/// The run's recorder (single-threaded: every timed call is made from
/// the benchmark's main thread).
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: Cell<u64>,
    next_request: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on: Cell::new(on),
            origin,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
            next_request: Cell::new(1),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    /// Switches recording on or off; timing goes on either way.
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Runs `f` as one call into `layer`, returning its result and wall
    /// clock in seconds.
    pub fn timed<T>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        if !self.is_on() {
            let out = f();
            return (out, t0.elapsed().as_secs_f64());
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                parent: self.open.borrow().last().copied(),
                request: self.request.get(),
                layer,
                name: name.to_string(),
                start: t0 - self.origin,
                end: t0 - self.origin,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        let t1 = Instant::now();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = t1 - self.origin;
        (out, (t1 - t0).as_secs_f64())
    }

    /// Runs `f` as one request: its spans share a fresh request id, under
    /// a root span of the benchmark's own.
    pub fn request<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let outer = self.request.get();
        self.request.set(self.next_request.get());
        self.next_request.set(self.next_request.get() + 1);
        let out = self.timed("bench", name, f);
        self.request.set(outer);
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time in seconds per layer (every layer of [`LAYERS`] present).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start).as_secs_f64();
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (s, t) in spans.iter().zip(own) {
            if let Some(total) = by_layer.get_mut(s.layer) {
                *total += t.max(0.0);
            }
        }
        by_layer
    }

    /// The spans as a JSON document (`{"spans": [...], "self_s": {...}}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { ",\n" };
            write!(
                out,
                "{sep}{{\"id\": {i}, \"parent\": {parent}, \"request\": {}, \"layer\": \"{}\", \
                 \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                s.request,
                s.layer,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )
            .expect("write to String");
        }
        out.push_str("\n], \"self_s\": {");
        for (i, (layer, t)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{layer}\": {}", crate::report::json_number(*t))
                .expect("write to String");
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_requests_share_ids() {
        let tr = Tracer::new(true, Instant::now());
        tr.request("job", || {
            tr.timed("build", "outer", || {
                tr.timed("graph", "inner", || {
                    std::thread::sleep(Duration::from_millis(20))
                });
            });
        });
        let spans = tr.spans.borrow().clone();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.request == spans[0].request));
        let own = tr.self_times();
        assert!(own["graph"] >= 0.019);
        assert!(own["build"] < own["graph"]);
    }

    #[test]
    fn disabled_tracer_still_times() {
        let tr = Tracer::new(false, Instant::now());
        let (v, dt) = tr.timed("graph", "x", || 7);
        assert_eq!(v, 7);
        assert!(dt >= 0.0);
        assert_eq!(tr.span_count(), 0);
    }
}
