//! # ppm-observe — zero-dependency tracing & metrics for the mining stack
//!
//! The paper's §3 cost analysis is stated in *observable* quantities —
//! series scans, candidate counts, hit-set sizes — and the miners already
//! tally those into `MiningStats`. This crate adds the missing dimension:
//! **where the wall-clock went**, as structured spans, counters, gauges
//! and point events ([`Event`]) flowing into pluggable [`Sink`]s.
//!
//! ## Design
//!
//! * **Context, not globals.** An observability context ([`install`]) is
//!   attached to the *current thread*; instrumented code reports through
//!   free functions ([`span`], [`counter`], [`gauge`], [`mark`]) that are
//!   no-ops when no context is attached. This keeps concurrently running
//!   mines (and concurrently running tests) fully isolated while costing
//!   the uninstrumented hot path one thread-local lookup per batched
//!   call site.
//! * **Explicit propagation to workers.** Code that hands work to other
//!   threads (the daemon's query workers) captures
//!   [`current`] before spawning and [`attach`]es inside each worker, so
//!   worker spans land in the same sink — nested under the span that was
//!   open at capture time.
//! * **Cheap by construction.** Hot loops batch counter increments
//!   (e.g. one event per 1024 segments); spans cost two events each;
//!   everything is dropped at the sink boundary when observability is off.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use ppm_observe::{self as observe, Collector};
//!
//! let collector = Arc::new(Collector::new());
//! {
//!     let _obs = observe::install(collector.clone());
//!     let _outer = observe::span("demo.outer");
//!     observe::counter("demo.items", 3);
//!     observe::mark("demo.note", || "something happened".into());
//! }
//! assert_eq!(collector.counter_total("demo.items"), 3);
//! assert_eq!(collector.finished_span_names(), vec!["demo.outer"]);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod render;
pub mod sink;

pub use event::Event;
pub use flight::{FlightEvent, FlightKind, FlightRecorder, NameId};
pub use histogram::{AtomicHistogram, Histogram};
pub use json::{Json, JsonError};
pub use render::{aggregate_phases, format_us, mark_counts, span_tree, PhaseAgg};
pub use sink::{Collector, Fanout, HumanReporter, JsonLinesSink, NoopSink, Sink};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The shared state behind one observability session: the sink plus the
/// clocks and id generators every attached thread draws from.
struct Ctx {
    sink: Arc<dyn Sink>,
    epoch: Instant,
    seq: AtomicU64,
    next_span: AtomicU64,
}

impl Ctx {
    fn emit(&self, event: Event) {
        self.sink.record(&event);
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A cloneable reference to an active observability context, used to carry
/// it across thread boundaries (see [`current`] / [`attach`]).
#[derive(Clone)]
pub struct Handle {
    ctx: Arc<Ctx>,
    parent_span: Option<u64>,
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle")
            .field("parent_span", &self.parent_span)
            .finish_non_exhaustive()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Ctx>>> = const { RefCell::new(None) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Detaches the context (and restores whatever was attached before) when
/// dropped. Returned by [`install`] and [`attach`].
#[must_use = "dropping the guard detaches the observability context"]
pub struct Guard {
    previous_ctx: Option<Arc<Ctx>>,
    previous_stack: Vec<u64>,
}

impl std::fmt::Debug for Guard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard").finish_non_exhaustive()
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.previous_ctx.take());
        SPAN_STACK.with(|s| *s.borrow_mut() = std::mem::take(&mut self.previous_stack));
    }
}

fn swap_in(ctx: Option<Arc<Ctx>>, seed_stack: Vec<u64>) -> Guard {
    let previous_ctx = CURRENT.with(|c| c.borrow_mut().replace_with(ctx));
    let previous_stack = SPAN_STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), seed_stack));
    Guard {
        previous_ctx,
        previous_stack,
    }
}

trait ReplaceWith<T> {
    fn replace_with(&mut self, value: Option<T>) -> Option<T>;
}

impl<T> ReplaceWith<T> for Option<T> {
    fn replace_with(&mut self, value: Option<T>) -> Option<T> {
        std::mem::replace(self, value)
    }
}

/// Starts a fresh observability session reporting into `sink` and attaches
/// it to the current thread. Sequence numbers, span ids and the timestamp
/// epoch all reset, so runs are reproducible. The session ends (and the
/// previous one, if any, is restored) when the returned [`Guard`] drops.
pub fn install(sink: Arc<dyn Sink>) -> Guard {
    let ctx = Arc::new(Ctx {
        sink,
        epoch: Instant::now(),
        seq: AtomicU64::new(1),
        next_span: AtomicU64::new(1),
    });
    swap_in(Some(ctx), Vec::new())
}

/// The current thread's context (with the innermost open span recorded as
/// the parent for cross-thread nesting), or `None` when observability is
/// off. Capture this before spawning workers and [`attach`] it inside.
pub fn current() -> Option<Handle> {
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|ctx| Handle {
            ctx: ctx.clone(),
            parent_span: SPAN_STACK.with(|s| s.borrow().last().copied()),
        })
    })
}

/// Attaches a captured [`Handle`] to the current thread (typically a
/// worker); spans opened here nest under the span that was open when the
/// handle was captured. `None` attaches nothing and the guard is a no-op
/// beyond restoring the previous state. Detached when the guard drops.
pub fn attach(handle: Option<Handle>) -> Guard {
    match handle {
        Some(h) => swap_in(Some(h.ctx), h.parent_span.into_iter().collect()),
        None => swap_in(None, Vec::new()),
    }
}

/// Whether an observability context is attached to this thread.
pub fn is_active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// The sink the current thread reports into, or `None` when
/// observability is off. Lets a caller layer a filtering/teeing sink
/// over whatever is already installed (e.g. the daemon's per-query
/// phase capture forwarding to an operator-configured trace sink).
pub fn current_sink() -> Option<Arc<dyn Sink>> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.sink.clone()))
}

fn with_ctx(f: impl FnOnce(&Arc<Ctx>)) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            f(ctx);
        }
    });
}

/// Adds `delta` to the named counter. No-op when observability is off —
/// batch increments in hot loops so even the *active* cost stays
/// negligible.
pub fn counter(name: &'static str, delta: u64) {
    if delta == 0 {
        return;
    }
    with_ctx(|ctx| {
        ctx.emit(Event::Counter {
            seq: ctx.next_seq(),
            at_us: ctx.now_us(),
            name,
            delta,
        })
    });
}

/// Sets the named gauge to `value`.
pub fn gauge(name: &'static str, value: u64) {
    with_ctx(|ctx| {
        ctx.emit(Event::Gauge {
            seq: ctx.next_seq(),
            at_us: ctx.now_us(),
            name,
            value,
        })
    });
}

/// Records a point event. The detail closure runs only when observability
/// is on, so call sites pay nothing to format messages that nobody will
/// see.
pub fn mark(name: &'static str, detail: impl FnOnce() -> String) {
    with_ctx(|ctx| {
        ctx.emit(Event::Mark {
            seq: ctx.next_seq(),
            at_us: ctx.now_us(),
            name,
            detail: detail(),
        })
    });
}

/// An open span; closes (emitting [`Event::SpanEnd`] with its wall-clock
/// duration) when dropped. Obtained from [`span`].
#[must_use = "a span measures the scope it is bound to; dropping it immediately closes it"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    ctx: Arc<Ctx>,
    id: u64,
    name: &'static str,
    start: Instant,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(s) => write!(f, "Span({} #{})", s.name, s.id),
            None => f.write_str("Span(inactive)"),
        }
    }
}

impl Span {
    /// The span id, if observability is active.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|s| s.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&id| id == s.id) {
                    stack.remove(pos);
                }
            });
            s.ctx.emit(Event::SpanEnd {
                seq: s.ctx.next_seq(),
                at_us: s.ctx.now_us(),
                id: s.id,
                name: s.name,
                elapsed_us: s.start.elapsed().as_micros() as u64,
            });
        }
    }
}

/// Opens a span named `name`, nested under the innermost span already open
/// on this thread. Returns an inert guard when observability is off.
pub fn span(name: &'static str) -> Span {
    let inner = CURRENT.with(|c| {
        c.borrow().as_ref().map(|ctx| {
            let id = ctx.next_span.fetch_add(1, Ordering::Relaxed);
            let parent = SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                let parent = s.last().copied();
                s.push(id);
                parent
            });
            ctx.emit(Event::SpanStart {
                seq: ctx.next_seq(),
                at_us: ctx.now_us(),
                id,
                parent,
                name,
            });
            SpanInner {
                ctx: ctx.clone(),
                id,
                name,
                start: Instant::now(),
            }
        })
    });
    Span { inner }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default_and_everything_is_a_noop() {
        assert!(!is_active());
        assert!(current().is_none());
        counter("x", 1);
        gauge("g", 2);
        mark("m", || panic!("detail must not be built when inactive"));
        let s = span("s");
        assert_eq!(s.id(), None);
        drop(s);
    }

    #[test]
    fn spans_nest_and_sequence_deterministically() {
        let collector = Arc::new(Collector::new());
        {
            let _obs = install(collector.clone());
            assert!(is_active());
            let outer = span("outer");
            assert_eq!(outer.id(), Some(1));
            {
                let inner = span("inner");
                assert_eq!(inner.id(), Some(2));
                counter("c", 5);
            }
            mark("note", || "after inner".into());
        }
        assert!(!is_active());
        let events = collector.events();
        // Sequence numbers are 1..=N in emission order.
        let seqs: Vec<u64> = events.iter().map(Event::seq).collect();
        assert_eq!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>());
        // inner's parent is outer; outer has none.
        match &events[0] {
            Event::SpanStart { name, parent, .. } => {
                assert_eq!(*name, "outer");
                assert_eq!(*parent, None);
            }
            other => panic!("expected outer start, got {other:?}"),
        }
        match &events[1] {
            Event::SpanStart { name, parent, .. } => {
                assert_eq!(*name, "inner");
                assert_eq!(*parent, Some(1));
            }
            other => panic!("expected inner start, got {other:?}"),
        }
        assert_eq!(
            collector.finished_span_names(),
            vec!["inner", "outer"],
            "inner closes before outer"
        );
    }

    #[test]
    fn handles_propagate_to_other_threads_with_parenting() {
        let collector = Arc::new(Collector::new());
        let _obs = install(collector.clone());
        let outer = span("outer");
        let outer_id = outer.id().unwrap();
        let handle = current();
        assert!(handle.is_some());
        std::thread::scope(|scope| {
            let h = handle.clone();
            scope
                .spawn(move || {
                    let _g = attach(h);
                    let _s = span("worker");
                })
                .join()
                .unwrap();
        });
        drop(outer);
        let events = collector.events();
        let worker_start = events
            .iter()
            .find_map(|e| match e {
                Event::SpanStart {
                    name: "worker",
                    parent,
                    ..
                } => Some(*parent),
                _ => None,
            })
            .expect("worker span recorded");
        assert_eq!(worker_start, Some(outer_id), "worker nests under outer");
    }

    #[test]
    fn install_restores_previous_context() {
        let a = Arc::new(Collector::new());
        let b = Arc::new(Collector::new());
        let _ga = install(a.clone());
        {
            let _gb = install(b.clone());
            counter("x", 1);
        }
        counter("x", 2);
        assert_eq!(a.counter_total("x"), 2);
        assert_eq!(b.counter_total("x"), 1);
    }

    #[test]
    fn zero_delta_counters_are_suppressed() {
        let collector = Arc::new(Collector::new());
        let _obs = install(collector.clone());
        counter("x", 0);
        assert!(collector.events().is_empty());
    }
}
