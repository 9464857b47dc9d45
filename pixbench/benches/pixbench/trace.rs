//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end on the run's monotonic clock, the
//! index of the span that caused it, and an id shared by the spans of
//! one request or pass. Spans stay in memory and are written as JSONL
//! when the run ends. A disabled tracer records nothing, so the
//! untraced runs that give the end-to-end metrics pay one branch per
//! call.

use crate::stats::median;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers, e.g. `fabric.ee.lenet_conv1`.
    pub name: String,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one pass or request.
    pub id: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ns = self.end_ns.saturating_sub(self.start_ns) as f64;
        ns / 1e6
    }
}

/// A span recorder; several (one per thread) merge with [`Tracer::absorb`].
#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`, timing from `origin`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (already recorded spans are kept).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// An empty tracer with the same setting and clock, for another
    /// thread; merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Self {
        Self::new(self.on, self.origin)
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its index when recording.
    pub fn record(
        &mut self,
        name: &str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, id: u64, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            let now = self.offset(Instant::now());
            if let Some(s) = self.spans.get_mut(i) {
                s.end_ns = now;
            }
        }
    }

    /// Moves another tracer's spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Self) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Median duration (ms) of the spans called `name`; 0 when that
    /// layer never ran in this workload.
    pub fn median_ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// For every span whose name satisfies `parent`, the summed duration
    /// (ms) of its children whose names satisfy `pick`; the median over
    /// those parents, 0 when none ran.
    pub fn median_child_sum_ms(
        &self,
        parent: impl Fn(&str) -> bool,
        pick: impl Fn(&str) -> bool,
    ) -> f64 {
        let mut sums = Vec::new();
        for (i, p) in self.spans.iter().enumerate() {
            if !parent(&p.name) {
                continue;
            }
            let children: Vec<&Span> = self
                .spans
                .iter()
                .filter(|s| s.parent == Some(i) && pick(&s.name))
                .collect();
            if !children.is_empty() {
                sums.push(children.iter().map(|s| s.ms()).sum());
            }
        }
        if sums.is_empty() {
            0.0
        } else {
            median(&sums)
        }
    }

    /// Self time of each span: its duration minus the part its children
    /// cover (children of one span never overlap here: they run on the
    /// span's own thread, one after another).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if let Some(slot) = out.get_mut(p) {
                    *slot = slot.saturating_sub(s.end_ns.saturating_sub(s.start_ns));
                }
            }
        }
        out
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"id\":{}}}",
                span.name, span.start_ns, span.end_ns, self_ns, parent, span.id
            );
        }
        s
    }
}
