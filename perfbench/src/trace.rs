//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the simulator is instrumented. They stay in
//! memory until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::time::Instant;

use sim_util::json::JsonObject;

/// One timed call: `[start_ns, end_ns)` relative to the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `fft2d.run_app` or `layout.col_stream`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a unit's root.
    pub parent: Option<usize>,
    /// The unit this span belongs to; spans of one unit share it.
    pub unit: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self, id: usize) -> String {
        let mut o = JsonObject::new();
        o.field_u64("id", id as u64)
            .field_str("name", self.name)
            .field_u64("start_ns", self.start_ns)
            .field_u64("end_ns", self.end_ns)
            .field_u64("unit", self.unit);
        match self.parent {
            Some(p) => o.field_u64("parent", p as u64),
            None => o.field_raw("parent", "null"),
        };
        o.finish()
    }
}

/// Records nested spans; [`Tracer::span`] opens a child of whichever
/// span is currently open.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// the span's index. A span opened with no span open starts a new
    /// unit.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, usize) {
        if self.open.is_empty() {
            self.unit += 1;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            unit: self.unit,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans of the unit rooted at span `root`.
    pub fn unit_spans(&self, root: usize) -> impl Iterator<Item = &Span> {
        let unit = self.spans[root].unit;
        self.spans.iter().filter(move |s| s.unit == unit)
    }

    /// Summed duration, in ns, of the spans named `name` in the unit
    /// rooted at `root`.
    pub fn total_ns(&self, root: usize, name: &str) -> u64 {
        self.unit_spans(root)
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Durations, in ns, of each span named `name` in the unit rooted at
    /// `root`.
    pub fn durations_ns(&self, root: usize, name: &str) -> Vec<u64> {
        self.unit_spans(root)
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self time per span name over the unit rooted at `root`: each
    /// span's duration minus the part of it its children cover.
    ///
    /// # Errors
    ///
    /// Fails when a child lies outside its parent or children overlap,
    /// so that the self times would sum to more than the unit's wall
    /// time.
    pub fn self_times(&self, root: usize) -> Result<BTreeMap<&'static str, u64>, String> {
        let unit = self.spans[root].unit;
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut sum = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.unit != unit {
                continue;
            }
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for c in self.spans.iter().filter(|c| c.parent == Some(i)) {
                if c.start_ns < cursor || c.end_ns > s.end_ns {
                    return Err(format!(
                        "span {} [{}, {}) escapes its parent {} [{}, {}) or overlaps a sibling",
                        c.name, c.start_ns, c.end_ns, s.name, s.start_ns, s.end_ns
                    ));
                }
                covered += c.dur_ns();
                cursor = c.end_ns;
            }
            let own = s.dur_ns() - covered;
            *out.entry(s.name).or_default() += own;
            sum += own;
        }
        let wall = self.spans[root].dur_ns();
        if sum > wall {
            return Err(format!(
                "self times sum to {sum} ns, more than the unit wall of {wall} ns"
            ));
        }
        Ok(out)
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            s.push_str(&span.to_json(i));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_a_unit_and_self_times_sum_to_the_wall() {
        let mut t = Tracer::new();
        let ((), root) = t.span("unit", |t| {
            t.span("a", |t| {
                t.span("b", |_| std::hint::black_box((0..1000u64).sum::<u64>()));
            });
            t.span("c", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.unit == 1));
        assert_eq!(spans[2].parent, Some(1));
        let selfs = t.self_times(root).unwrap();
        let sum: u64 = selfs.values().sum();
        assert_eq!(sum, spans[root].dur_ns());
        let ((), second) = t.span("unit", |_| ());
        assert_eq!(t.spans()[second].unit, 2);
        assert_eq!(t.unit_spans(second).count(), 1);
    }

    #[test]
    fn a_child_outside_its_parent_is_rejected() {
        let mut t = Tracer::new();
        let ((), root) = t.span("unit", |t| {
            t.span("child", |_| ());
        });
        t.spans[1].end_ns = t.spans[root].end_ns + 1;
        assert!(t.self_times(root).is_err());
    }
}
