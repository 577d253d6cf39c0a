//! Spans recorded by the benchmark around its calls into the program's
//! public functions. Nothing inside the program is instrumented.
//!
//! A span has a name (`layer.function`), the round (burst) id it belongs
//! to, its parent span, and start/end times. Spans stay in memory until
//! the run ends; a layer's self time is its span minus its child spans.

use std::collections::BTreeMap;
use std::time::Instant;

const NONE: u32 = u32::MAX;

struct Span {
    name: &'static str,
    round: u32,
    parent: u32,
    start: u64,
    end: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Summed self time and count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
    /// Distinct rounds the spans belong to.
    pub rounds: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Room for `additional` spans, so recording never reallocates mid-window.
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
    }

    /// Open a span; close it with [`Tracer::end`]. Inert while tracing is off.
    pub fn begin(&mut self, name: &'static str, round: u32) -> u32 {
        if !self.on {
            return NONE;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span { name, round, parent, start, end: start });
        self.stack.push(idx);
        idx
    }

    pub fn end(&mut self, idx: u32) {
        if idx == NONE {
            return;
        }
        let end = self.now();
        self.spans[idx as usize].end = end;
        self.stack.pop();
    }

    /// Time `f` as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, round: u32, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, round);
        let r = f();
        self.end(s);
        r
    }

    /// Position to summarize from (see [`Tracer::summarize`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Per-name self times of the spans recorded since `from`. The spans
    /// themselves stay in memory until the run ends.
    pub fn summarize(&self, from: usize) -> BTreeMap<&'static str, SelfTime> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE && s.parent as usize >= from {
                child_ns[s.parent as usize - from] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        let mut last_round: BTreeMap<&'static str, u32> = BTreeMap::new();
        for (s, child) in spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += (s.end - s.start).saturating_sub(*child);
            if last_round.insert(s.name, s.round) != Some(s.round) {
                e.rounds += 1;
            }
        }
        out
    }
}
