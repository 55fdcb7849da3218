//! A std-only span recorder for the traced run.
//!
//! Spans live in memory behind one mutex (only the traced run records
//! them, so the lock never sits on a timed path) and are written out as
//! JSON when the run ends. A span is a named interval with a parent and a
//! request id; a layer's *self time* is its spans' durations minus the
//! part of each interval that child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded interval, in offsets from the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Per-layer totals computed from the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub spans: usize,
    pub total: Duration,
    pub self_time: Duration,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Offset of "now" from the epoch.
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
    }

    /// Opens a span and returns its id; [`Recorder::close`] ends it.
    pub fn open(&self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&self, id: usize) {
        let end = self.now();
        self.lock()[id].end = end;
    }

    /// Records a span whose extent is already known: a stage inside a
    /// library call, reconstructed from the elapsed-time counter the call
    /// returns.
    pub fn record(
        &self,
        name: &str,
        start: Duration,
        len: Duration,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start,
            end: start + len,
            parent,
            request,
        });
        spans.len() - 1
    }

    pub fn span(&self, id: usize) -> Span {
        self.lock()[id].clone()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut covered: Vec<(Duration, Duration)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort();
            let mut union = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in covered {
                if b > reach {
                    union += b - a.max(reach);
                    reach = b;
                }
            }
            s.end.saturating_sub(s.start).saturating_sub(union)
        })
        .collect()
}

/// Spans in the subtree of any root in `roots` (roots included).
pub fn subtree(spans: &[Span], roots: &[usize]) -> Vec<bool> {
    let mut inside = vec![false; spans.len()];
    for &r in roots {
        inside[r] = true;
    }
    // Children are always recorded after their parent.
    for i in 0..spans.len() {
        if let Some(p) = spans[i].parent {
            if inside[p] {
                inside[i] = true;
            }
        }
    }
    inside
}

/// Per-layer totals over the spans selected by `mask`.
pub fn layer_times(spans: &[Span], mask: &[bool]) -> BTreeMap<String, LayerTime> {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if !mask[i] {
            continue;
        }
        let layer = layers.entry(s.name.clone()).or_default();
        layer.spans += 1;
        layer.total += s.end.saturating_sub(s.start);
        layer.self_time += selfs[i];
    }
    layers
}

/// Writes every span, plus per-layer self times, as one JSON document.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let all = vec![true; spans.len()];
    let mut out = String::from("{\n  \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "    {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}, \"parent\": {parent}, \"request\": {}}}{}",
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
            selfs[i].as_secs_f64() * 1e6,
            s.request,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"self_ms\": {\n");
    let layers = layer_times(spans, &all);
    let last = layers.len();
    for (k, (name, t)) in layers.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{name}\": {{\"spans\": {}, \"total_ms\": {:.3}, \"self_ms\": {:.3}}}{}",
            t.spans,
            t.total.as_secs_f64() * 1e3,
            t.self_time.as_secs_f64() * 1e3,
            if k + 1 == last { "" } else { "," }
        );
    }
    out.push_str("  }\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x".into(),
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 120, Some(0)),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 60) and [90, 100) of the parent.
        assert_eq!(selfs[0], Duration::from_millis(40));
        assert_eq!(selfs[1], Duration::from_millis(30));
    }

    #[test]
    fn subtree_follows_parents() {
        let spans = vec![
            span(0, 10, None),
            span(1, 2, Some(0)),
            span(20, 30, None),
            span(21, 22, Some(1)),
        ];
        assert_eq!(subtree(&spans, &[0]), vec![true, true, false, true]);
    }
}
