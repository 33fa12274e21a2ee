//! Spans recorded from outside the library, at each layer boundary.
//!
//! The benchmark wraps its calls into each layer's public functions in
//! [`enter`] guards.  A span is `(id, parent, name, start, end, op)`; the
//! parent is whatever span was open on this thread when it started, so a
//! device read issued while `relstore.exec` runs (seen by the benchmark's
//! `TracedDisk`) hangs under it.  Spans of one operation share its op id.
//!
//! Everything stays in memory.  When an operation ends its spans are
//! folded into per-name aggregates — a layer's *self time* is its span
//! minus the part its children cover — and the first [`KEPT_OPS`]
//! operations (fewer, once they hold [`KEPT_SPANS`] spans) keep their
//! whole span tree for the trace file.
//!
//! The tracer is thread-local and off until [`install`]ed: with it off
//! (every untraced run, and the library's own WAL flusher thread always)
//! [`enter`] costs one thread-local read.

use crate::json::{obj, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Operations whose full span trees are written to the trace file.
pub const KEPT_OPS: usize = 256;
/// Spans the kept trees may hold together: an `ingest_recover` transaction
/// is some 3000 spans and a recovery far more, and 256 of those would make
/// a trace file of 100 MB.
pub const KEPT_SPANS: usize = 65_536;

/// One recorded span.  Times are nanoseconds since the tracer was
/// installed; an id is the span's position among its operation's spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every folded operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span of one operation, by position: its duration
/// minus the durations of its direct children.  Spans on one thread nest
/// and never overlap their siblings, so the children's durations add up
/// to exactly the covered part.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

struct Tracer {
    epoch: Instant,
    op: u64,
    /// Spans of the operation in progress, in start order.
    current: Vec<Span>,
    /// Positions in `current` of the spans still open, innermost last.
    open: Vec<usize>,
    aggregates: BTreeMap<&'static str, Aggregate>,
    kept: Vec<Vec<Span>>,
    /// Spans in `kept`.
    kept_spans: usize,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turns tracing on for this thread (replacing any earlier tracer).
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            op: 0,
            current: Vec::new(),
            open: Vec::new(),
            aggregates: BTreeMap::new(),
            kept: Vec::new(),
            kept_spans: 0,
        });
    });
}

/// What a traced phase recorded.
#[derive(Debug, Default)]
pub struct TraceReport {
    pub aggregates: BTreeMap<&'static str, Aggregate>,
    pub kept: Vec<Vec<Span>>,
}

/// Turns tracing off for this thread and returns what it recorded (empty
/// when no tracer was installed).
pub fn finish() -> TraceReport {
    TRACER.with(|t| match t.borrow_mut().take() {
        Some(tracer) => TraceReport { aggregates: tracer.aggregates, kept: tracer.kept },
        None => TraceReport::default(),
    })
}

/// Starts operation `op`: spans entered from now on carry its id.
pub fn begin_op(op: u64) {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            tracer.op = op;
        }
    });
}

/// Ends the operation in progress: folds its spans into the aggregates
/// and keeps the tree if it is one of the first [`KEPT_OPS`] and fits in
/// the [`KEPT_SPANS`] budget.
pub fn end_op() {
    TRACER.with(|t| {
        let mut slot = t.borrow_mut();
        let Some(tracer) = slot.as_mut() else { return };
        debug_assert!(tracer.open.is_empty(), "end_op with a span still open");
        let spans = std::mem::take(&mut tracer.current);
        for (span, own) in spans.iter().zip(self_times(&spans)) {
            let agg = tracer.aggregates.entry(span.name).or_default();
            agg.count += 1;
            agg.total_ns += span.duration_ns();
            agg.self_ns += own;
        }
        if tracer.kept.len() < KEPT_OPS
            && tracer.kept_spans + spans.len() <= KEPT_SPANS
            && !spans.is_empty()
        {
            tracer.kept_spans += spans.len();
            tracer.kept.push(spans);
        }
    });
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct SpanGuard {
    /// Position in the tracer's current-op list; `None` when tracing is off.
    slot: Option<usize>,
}

/// Opens a span named `name` under the innermost open span of this thread.
pub fn enter(name: &'static str) -> SpanGuard {
    TRACER.with(|t| {
        let mut slot = t.borrow_mut();
        let Some(tracer) = slot.as_mut() else { return SpanGuard { slot: None } };
        let position = tracer.current.len();
        let now = tracer.epoch.elapsed().as_nanos() as u64;
        tracer.current.push(Span {
            id: position as u32,
            parent: tracer.open.last().map(|&p| tracer.current[p].id),
            name,
            op: tracer.op,
            start_ns: now,
            end_ns: now,
        });
        tracer.open.push(position);
        SpanGuard { slot: Some(position) }
    })
}

impl SpanGuard {
    /// Renames the span before it closes — for a call whose layer outcome
    /// (tier hit or miss) is known only once it returns.
    pub fn rename(&self, name: &'static str) {
        if let Some(position) = self.slot {
            TRACER.with(|t| {
                if let Some(tracer) = t.borrow_mut().as_mut() {
                    tracer.current[position].name = name;
                }
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(position) = self.slot else { return };
        TRACER.with(|t| {
            if let Some(tracer) = t.borrow_mut().as_mut() {
                tracer.current[position].end_ns = tracer.epoch.elapsed().as_nanos() as u64;
                let closed = tracer.open.pop();
                debug_assert_eq!(closed, Some(position), "spans must close innermost first");
            }
        });
    }
}

impl Aggregate {
    /// Mean duration per span in microseconds (0 when none was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

impl TraceReport {
    /// The aggregate for `name` (all zero when no such span was recorded).
    pub fn get(&self, name: &str) -> Aggregate {
        self.aggregates.get(name).copied().unwrap_or_default()
    }

    /// Share of the `op` spans' time that the layers below account for as
    /// self time; the remainder is the benchmark's own glue inside `op`.
    pub fn layer_self_share(&self) -> f64 {
        let op = self.get("op");
        if op.total_ns == 0 {
            return 0.0;
        }
        (op.total_ns - op.self_ns) as f64 / op.total_ns as f64
    }

    /// The trace file: per-layer aggregates plus the kept span trees.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let layers = self.aggregates.iter().map(|(name, a)| {
            let fields = [
                ("count", a.count as f64),
                ("total_us", a.total_ns as f64 / 1e3),
                ("self_us", a.self_ns as f64 / 1e3),
            ];
            (*name, obj(fields.map(|(k, v)| (k, Value::Num(v)))))
        });
        let ops = self.kept.iter().map(|spans| {
            Value::Arr(
                spans
                    .iter()
                    .map(|s| {
                        obj([
                            ("id", Value::Num(f64::from(s.id))),
                            ("parent", s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p)))),
                            ("name", Value::Str(s.name.to_string())),
                            ("op", Value::Num(s.op as f64)),
                            ("start_ns", Value::Num(s.start_ns as f64)),
                            ("end_ns", Value::Num(s.end_ns as f64)),
                        ])
                    })
                    .collect(),
            )
        });
        obj([
            ("workload", Value::Str(workload.to_string())),
            ("seed", Value::Num(seed as f64)),
            ("layer_self_share_of_op", Value::Num(self.layer_self_share())),
            ("layers", obj(layers)),
            ("ops", Value::Arr(ops.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, op: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // op [0,100] > exec [10,90] > read [20,30], read [40,70]; plan [0,10].
        let spans = [
            span(0, None, "op", 0, 100),
            span(1, Some(0), "plan", 0, 10),
            span(2, Some(0), "exec", 10, 90),
            span(3, Some(2), "read", 20, 30),
            span(4, Some(2), "read", 40, 70),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 40, 10, 30]);
        // Self times of a tree always add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn guards_nest_fold_and_keep() {
        install();
        for op in 0..3 {
            begin_op(op);
            {
                let _op = enter("op");
                {
                    let _plan = enter("core.plan");
                }
                let exec = enter("relstore.exec");
                {
                    let _read = enter("disk.data_read");
                }
                exec.rename("relstore.exec_renamed");
            }
            end_op();
        }
        let report = finish();
        assert_eq!(report.get("op").count, 3);
        assert_eq!(report.get("relstore.exec_renamed").count, 3);
        assert_eq!(report.get("relstore.exec").count, 0);
        assert_eq!(report.kept.len(), 3);
        let tree = &report.kept[2];
        assert_eq!(
            tree.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["op", "core.plan", "relstore.exec_renamed", "disk.data_read"]
        );
        assert_eq!(
            tree.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), Some(2)]
        );
        assert!(tree.iter().all(|s| s.op == 2));
        // Per-name self times add up to the op spans' total.
        let total_self: u64 = report.aggregates.values().map(|a| a.self_ns).sum();
        assert_eq!(total_self, report.get("op").total_ns);
        assert!((0.0..=1.0).contains(&report.layer_self_share()));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let _ = finish();
        begin_op(1);
        {
            let guard = enter("op");
            guard.rename("other");
        }
        end_op();
        assert!(finish().aggregates.is_empty());
    }
}
