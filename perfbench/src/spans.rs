//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (the program itself is not instrumented).
//! Each span has a name, start and end on one monotonic clock, the span
//! that caused it, and the request it belongs to. Nothing is written
//! until the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call this span wraps, e.g. `runtime.submit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Request (or operation) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store with a fixed capacity, so recording never
/// reallocates inside a timed loop; spans past capacity are counted and
/// dropped.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    /// A recorder holding at most `capacity` spans, timed from `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Recorder {
            epoch,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id (`None` when full).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Re-parents a recorded span (used when the parent span closes after
    /// its children, as a request does after its submit and wait).
    pub fn set_parent(&mut self, child: Option<SpanId>, parent: Option<SpanId>) {
        if let Some(c) = child {
            self.spans[c as usize].parent = parent;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that still fit.
    pub fn room(&self) -> usize {
        self.spans.capacity() - self.spans.len()
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self times (µs) of every span named `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| self_time_ns(s, children[i].iter().map(|&c| &self.spans[c])) as f64 / 1e3)
            .collect()
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p as usize].push(i);
            }
        }
        children
    }

    /// Writes at most `limit` spans as JSON lines to `path`, creating its
    /// directory.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Overlapping children count once, and the parts of
/// a child outside the parent's interval do not count.
pub fn self_time_ns<'a>(span: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut covered: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    covered.sort_unstable();
    let mut total = 0;
    let mut cursor = span.start_ns;
    for (s, e) in covered {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    span.duration_ns() - total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent: None,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let parent = span(0, 100);
        let kids = [span(10, 20), span(50, 80)];
        assert_eq!(self_time_ns(&parent, kids.iter()), 60);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_parent() {
        let parent = span(100, 200);
        // Overlapping children cover 120..170; one straddles the start.
        let kids = [
            span(130, 170),
            span(120, 150),
            span(90, 105),
            span(250, 300),
        ];
        assert_eq!(self_time_ns(&parent, kids.iter()), 100 - 50 - 5);
        assert_eq!(self_time_ns(&parent, [].iter()), 100);
        assert_eq!(self_time_ns(&parent, [span(0, 1000)].iter()), 0);
    }

    #[test]
    fn recorder_links_parents_and_bounds_capacity() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 8);
        let sub = a.record("submit", 10, 20, None, 1);
        let wait = a.record("wait", 30, 60, None, 1);
        let req = a.record("request", 5, 65, None, 1);
        a.set_parent(sub, req);
        a.set_parent(wait, req);
        assert_eq!(a.self_times_us("request"), vec![(60.0 - 10.0 - 30.0) / 1e3]);

        let mut b = Recorder::new(epoch, 2);
        let root = b.record("request", 0, 10, None, 2);
        b.record("submit", 1, 4, root, 2);
        assert!(
            b.record("wait", 4, 9, root, 2).is_none(),
            "capacity bounds it"
        );
        assert_eq!(b.dropped(), 1);
        assert_eq!(b.room(), 0);
        assert_eq!(a.room(), 5);
        assert_eq!(b.self_times_us("request"), vec![0.007]);
    }
}
