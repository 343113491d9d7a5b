//! The traced run: every span in one [`ppm_observe::Collector`].
//!
//! The collector is installed before any traced work starts, so the
//! program's existing spans and gauges land in it (the in-process daemon
//! inherits it when it is started). The benchmark wraps every call it
//! makes into a layer's public function in a `ppm_observe::span` of its
//! own: calls made inside another span nest under it, and each request's
//! root span is followed by a `bench.request` mark carrying its request
//! id. Outside a traced run no collector is attached and the spans are
//! inert. At the end every collected event is written out with
//! [`Event::to_json_line`].

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ppm_observe::{Collector, Event, Span};

use crate::util::ms_since;

pub struct Tracer {
    collector: Arc<Collector>,
}

impl Tracer {
    /// A tracer plus the guard that keeps its collector installed on the
    /// calling thread. Install before starting any daemon so its threads
    /// inherit the collector.
    pub fn install() -> (Tracer, ppm_observe::Guard) {
        let collector = Arc::new(Collector::new());
        let guard = ppm_observe::install(collector.clone());
        (Tracer { collector }, guard)
    }

    /// Every event collected so far, in collection order. Its length is
    /// a mark for later `events()[mark..]`.
    pub fn events(&self) -> Vec<Event> {
        self.collector.events()
    }

    /// Writes every span event and mark as one JSON line. Counters and
    /// gauges stay out: index builds bump a counter once per segment,
    /// millions of lines on the larger store.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for e in self.collector.events() {
            if matches!(
                e,
                Event::SpanStart { .. } | Event::SpanEnd { .. } | Event::Mark { .. }
            ) {
                writeln!(out, "{}", e.to_json_line())?;
            }
        }
        out.flush()
    }
}

/// Opens the root span of one request and marks it with a fresh request
/// id (`bench.request`, detail `req=<n> span=<id>`).
pub fn request(name: &'static str) -> Span {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let span = ppm_observe::span(name);
    if let Some(id) = span.id() {
        let req = NEXT.fetch_add(1, Ordering::Relaxed);
        ppm_observe::mark("bench.request", || format!("req={req} span={id}"));
    }
    span
}

/// Runs `f` as one request ([`request`]); returns its value, its wall
/// time in ms and the root span's id (`None` when not traced).
pub fn timed_request<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64, Option<u64>) {
    let span = request(name);
    let start = Instant::now();
    let r = f();
    (r, ms_since(start), span.id())
}

/// Runs `f` in a span named `name`, nested under whatever span is open
/// on this thread; returns its value and its wall time in ms.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = ppm_observe::span(name);
    let start = Instant::now();
    let r = f();
    (r, ms_since(start))
}

/// The events from the start to the end of span `id` named `name`, in
/// collection order; empty if it is not there.
pub fn within<'a>(events: &'a [Event], id: u64, name: &str) -> &'a [Event] {
    let start = events.iter().position(
        |e| matches!(e, Event::SpanStart { id: i, name: n, .. } if *i == id && *n == name),
    );
    let end = events
        .iter()
        .position(|e| matches!(e, Event::SpanEnd { id: i, name: n, .. } if *i == id && *n == name));
    match (start, end) {
        (Some(s), Some(e)) if s < e => &events[s..=e],
        _ => &[],
    }
}

/// The duration in ms of every finished span named `name`.
pub fn span_ms(events: &[Event], name: &str) -> Vec<f64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::SpanEnd {
                name: n,
                elapsed_us,
                ..
            } if *n == name => Some(*elapsed_us as f64 / 1e3),
            _ => None,
        })
        .collect()
}

/// Every value the gauge `name` was set to, in order.
pub fn gauge_values(events: &[Event], name: &str) -> Vec<f64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Gauge { name: n, value, .. } if *n == name => Some(*value as f64),
            _ => None,
        })
        .collect()
}

/// The layer-table rows for one op: its wall time, each layer with its
/// share of wall, the `unattributed` remainder and the tracing overhead
/// (traced minus untraced wall median).
pub fn table_rows(op: &str, wall_ms: f64, untraced_ms: f64, layers: &[(&str, f64)]) -> Vec<String> {
    let mut rows = vec![format!("{op:<20} {:<28} {wall_ms:>11.3}", "wall")];
    let pct = |v: f64| 100.0 * v / wall_ms;
    let mut covered = 0.0;
    for (name, ms) in layers {
        covered += ms;
        rows.push(format!(
            "{op:<20}   {name:<26} {ms:>11.3} {:>6.1}%",
            pct(*ms)
        ));
    }
    let rest = wall_ms - covered;
    rows.push(format!(
        "{op:<20}   {:<26} {rest:>11.3} {:>6.1}%",
        "unattributed",
        pct(rest)
    ));
    rows.push(format!(
        "{op:<20}   {:<26} {:>+11.3}",
        "tracing overhead",
        wall_ms - untraced_ms
    ));
    rows
}
