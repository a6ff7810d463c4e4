//! Spans recorded from the benchmark's side of each call into a layer.
//!
//! A traced run wraps every call the driver makes — `loadgen.tick` ⊃
//! `serving.submit`, `serving.step` ⊃ `generate.forward` (or
//! `remote.forward`), `serving.take_finished` — in a span
//! `{name, start_us, end_us, parent, request}`. Spans stay in memory and
//! are written as JSON lines once the window is over. A layer's **self
//! time** is its span minus the part its children cover.

use crate::json::Value;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id, on spans that belong to one request.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

/// Span sink shared by the driver and the model adapter. Disabled (the
/// `--trace 0` state) every call returns at once without reading a clock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: Cell<bool>,
    inner: RefCell<Inner>,
    /// Σ cached positions of the stepped slots, and the slots stepped, over
    /// every model call seen while enabled: the context attention ran against.
    ctx_tokens: Cell<u64>,
    stepped_slots: Cell<u64>,
}

/// Handle of an open span; `None` when the recorder is disabled.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled: Cell::new(enabled),
            inner: RefCell::new(Inner { spans: Vec::new(), stack: Vec::new() }),
            ctx_tokens: Cell::new(0),
            stepped_slots: Cell::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Switches recording on or off between spans (a traced run keeps its
    /// warm-up untraced, as the reference for the tracing overhead).
    ///
    /// # Panics
    ///
    /// Panics while a span is open.
    pub fn set_enabled(&self, on: bool) {
        assert!(self.inner.borrow().stack.is_empty(), "cannot toggle tracing inside a span");
        self.enabled.set(on);
    }

    pub fn add_context(&self, ctx_tokens: u64, slots: u64) {
        self.ctx_tokens.set(self.ctx_tokens.get() + ctx_tokens);
        self.stepped_slots.set(self.stepped_slots.get() + slots);
    }

    /// Mean cached context per stepped slot over the traced model calls.
    pub fn ctx_tokens_mean(&self) -> f64 {
        self.ctx_tokens.get() as f64 / self.stepped_slots.get().max(1) as f64
    }

    /// Microseconds since this recorder was created — the time base of
    /// every span and of the driver's own timestamps.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&self, name: &'static str, request: Option<u64>) -> Open {
        if !self.enabled.get() {
            return Open(None);
        }
        let now = self.now_us();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        let id = inner.spans.len();
        inner.spans.push(Span { name, start_us: now, end_us: now, parent, request });
        inner.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn close(&self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_us();
        let mut inner = self.inner.borrow_mut();
        let top = inner.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        inner.spans[id].end_us = now;
    }

    /// Adds a finished span that was derived after the fact (the
    /// per-request `request.*` phases), outside the live nesting.
    pub fn push_derived(&self, name: &'static str, start_us: u64, end_us: u64, request: u64) {
        if self.enabled.get() {
            self.inner.borrow_mut().spans.push(Span {
                name,
                start_us,
                end_us: end_us.max(start_us),
                parent: None,
                request: Some(request),
            });
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.inner.borrow().spans {
            let line = Value::obj(vec![
                ("name", Value::str(span.name)),
                ("start_us", span.start_us.into()),
                ("end_us", span.end_us.into()),
                ("parent", span.parent.map_or(Value::Null, Into::into)),
                ("request", span.request.map_or(Value::Null, Into::into)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_us(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_us, span.end_us));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_us() - covered_us(kids, span.start_us, span.end_us))
        .collect()
}

/// Share of `[lo, hi)` covered by live top-level spans (derived
/// `request.*` spans are per-request views of the same time and excluded).
pub fn coverage(spans: &[Span], lo: u64, hi: u64) -> f64 {
    let mut tops: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none() && !s.name.starts_with("request."))
        .map(|s| (s.start_us, s.end_us))
        .collect();
    covered_us(&mut tops, lo, hi) as f64 / (hi - lo).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span { name: "t", start_us, end_us, parent, request: None }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(0, 100, None),    // 0: children cover 10..40 and 50..90
            span(10, 40, Some(0)), // 1: child 20..30
            span(50, 90, Some(0)), // 2: leaf
            span(20, 30, Some(1)), // 3: leaf (grandchild: not subtracted from 0 again)
            span(100, 120, None),  // 4: leaf
        ];
        assert_eq!(self_times_us(&spans), vec![30, 20, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(10, 50, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)), // overlaps the first by 10
            span(45, 60, Some(0)), // sticks out past the parent by 10
        ];
        // covered: 10..40 (30) + 45..50 (5)
        assert_eq!(self_times_us(&spans)[0], 5);
    }

    #[test]
    fn coverage_is_the_union_of_top_level_spans_in_the_window() {
        let mut spans = vec![span(0, 40, None), span(50, 100, None), span(60, 70, Some(1))];
        spans.push(Span { name: "request.decode", start_us: 0, end_us: 100, ..span(0, 0, None) });
        assert!((coverage(&spans, 0, 100) - 0.9).abs() < 1e-12);
        assert!((coverage(&spans, 20, 60) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let rec = Recorder::new(true);
        let tick = rec.open("loadgen.tick", None);
        let step = rec.open("serving.step", None);
        let fwd = rec.open("generate.forward", None);
        rec.close(fwd);
        rec.close(step);
        let take = rec.open("serving.take_finished", None);
        rec.close(take);
        rec.close(tick);
        let spans = rec.spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));

        let off = Recorder::new(false);
        let o = off.open("loadgen.tick", None);
        off.close(o);
        off.push_derived("request.queue", 0, 1, 7);
        assert!(off.spans().is_empty());
    }
}
