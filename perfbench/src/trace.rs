//! In-memory span recording around the calls the benchmark makes into each
//! layer.
//!
//! A span carries a name, start and end (nanoseconds since the process
//! epoch), the span that was open when it began (its parent) and a request
//! id shared by the spans of one request. Spans stay in memory while the
//! benchmark runs and are written out at the end. A span's self time is its
//! duration minus the part of its interval that its children cover.

use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::Samples;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Fixes the process epoch; call first thing in `main`.
pub fn start_clock() {
    EPOCH.get_or_init(Instant::now);
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, as `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request id shared by the spans of one request.
    pub req: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. When off, every call is a no-op.
///
/// A traced run switches recording on and off in alternating blocks of
/// requests, so that traced and untraced requests meet the same conditions
/// (cache state, snapshot cycle, host noise) and their throughputs can be
/// compared to give the tracing overhead.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder for a traced run (`enabled`) or an untraced one.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, on: enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// In a traced run, records only for requests of odd blocks of
    /// `block` requests; returns whether request `req` is recorded. Call
    /// with no span open.
    pub fn select(&mut self, req: u64, block: u64) -> bool {
        debug_assert!(self.open.is_empty(), "switching with a span open");
        self.on = self.enabled && (req / block) % 2 == 1;
        self.on
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span { name, start: now_ns(), end: 0, parent, req });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end = now_ns();
    }

    /// Records a finished span, timed by the caller, as a child of the
    /// innermost open span.
    pub fn leaf(&mut self, name: &'static str, req: u64, start: u64, end: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span { name, start, end, parent, req });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals` (which it sorts).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children clipped to the parent's interval,
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            for k in kids.iter_mut() {
                *k = (k.0.clamp(s.start, s.end), k.1.clamp(s.start, s.end));
            }
            s.dur() - union_len(kids)
        })
        .collect()
}

/// Time covered by at least one root span.
pub fn covered(spans: &[Span]) -> u64 {
    let mut roots: Vec<(u64, u64)> =
        spans.iter().filter(|s| s.parent == NO_PARENT).map(|s| (s.start, s.end)).collect();
    union_len(&mut roots)
}

/// Per-name totals: calls, total time and self time (ns).
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.dur(), own)),
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.3));
    rows
}

/// Durations (in `unit_ns` units) of every span named `name`.
pub fn durations(spans: &[Span], name: &str, unit_ns: f64) -> Samples {
    let mut out = Samples::new();
    for s in spans.iter().filter(|s| s.name == name) {
        out.push(s.dur() as f64 / unit_ns);
    }
    out
}

/// Writes the spans as tab-separated lines:
/// `id name start_ns end_ns parent req self_ns`.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\treq\tself_ns")?;
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        writeln!(w, "{i}\t{}\t{}\t{}\t{parent}\t{}\t{own}", s.name, s.start, s.end, s.req)?;
    }
    w.flush()
}
