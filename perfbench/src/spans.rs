//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (no crate of the program is instrumented). Each
//! span has a name, start and end relative to the recorder's origin, an
//! optional parent and an optional request id. Nothing is written until
//! [`Spans::to_json`] is called at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `nn.forward.m0`.
    pub name: String,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or batch, training step) the span belongs to.
    pub request: Option<u64>,
}

impl SpanRecord {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    records: Vec<SpanRecord>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            records: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Spans::close`].
    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.records.push(SpanRecord {
            name: name.into(),
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        self.records.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.records[id].end_ns = self.now_ns();
    }

    /// Records a span measured by the caller, for calls whose span name is
    /// only known afterwards (a verdict's rung).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.records.push(SpanRecord {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of span `id`: its duration minus the part of that interval
    /// covered by its child spans.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let mut children: Vec<(u64, u64)> = self
            .records
            .iter()
            .filter(|r| r.parent == Some(id))
            .map(|r| (r.start_ns, r.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        self.records[id].duration_ns().saturating_sub(covered)
    }

    /// Per span name: `(count, total ns, total self ns)`.
    pub fn summary(&self) -> BTreeMap<&str, (u64, u64, u64)> {
        let mut out: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (id, r) in self.records.iter().enumerate() {
            let entry = out.entry(r.name.as_str()).or_default();
            entry.0 += 1;
            entry.1 += r.duration_ns();
            entry.2 += self.self_time_ns(id);
        }
        out
    }

    /// The spans and the per-name summary as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"summary\": {");
        for (i, (name, (count, total, own))) in self.summary().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}"
            );
        }
        out.push_str("},\n\"spans\": [\n");
        for (id, r) in self.records.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                r.name,
                r.start_ns,
                r.end_ns,
                r.parent.map_or("null".to_string(), |p| p.to_string()),
                r.request.map_or("null".to_string(), |q| q.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::default();
        let parent = spans.open("parent", None, Some(7));
        spans.records[parent].start_ns = 0;
        spans.records[parent].end_ns = 100;
        for (start, end) in [(10, 30), (20, 40), (60, 70)] {
            let id = spans.open("child", Some(parent), Some(7));
            spans.records[id].start_ns = start;
            spans.records[id].end_ns = end;
        }
        // children cover 10..40 and 60..70: 40 ns of the parent's 100
        assert_eq!(spans.self_time_ns(parent), 60);
        assert_eq!(spans.self_time_ns(1), 20);
        let summary = spans.summary();
        assert_eq!(summary["child"].0, 3);
        assert_eq!(summary["parent"], (1, 100, 60));
        let json = spans.to_json();
        assert!(json.contains("\"parent\": 0, \"request\": 7"));
    }
}
