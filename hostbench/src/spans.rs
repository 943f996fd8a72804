//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and op id. Spans are kept in
//! memory while the traced run measures and written out once at its
//! end, so recording costs two clock reads and one push.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Public call (or op) the span covers, e.g. `exec.execute_with_budget`.
    pub name: &'static str,
    /// Op the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans; the innermost open span is the parent of the next.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one); returns its duration
    /// in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        let end_ns = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.dur_ns()
    }

    /// Times `f` as a leaf span; returns its result and duration in ns.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name, op);
        let out = f();
        (out, self.end(id))
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes every span with its self time as tab-separated lines
    /// `pass id op parent name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, out: &mut impl Write, pass: &str) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{pass}\t{i}\t{}\t{parent}\t{}\t{}\t{}\t{own}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (overlapping children count once,
/// time outside the parent not at all).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
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
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in iv {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            // Overlaps the first child: 25..40 adds only 30..40.
            span(Some(0), 25, 40),
            // Sticks out of the parent: only 90..100 counts.
            span(Some(0), 90, 120),
            // A grandchild is its child's business, not the root's.
            span(Some(1), 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 8, 15, 30, 8]);
    }

    #[test]
    fn a_leaf_span_is_all_self_time() {
        assert_eq!(self_times(&[span(None, 5, 9)]), vec![4]);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        let op = t.begin("op", 3);
        let (v, _) = t.time("child", 3, || 7);
        t.end(op);
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = self_times(s);
        assert_eq!(own[0], s[0].dur_ns() - s[1].dur_ns());
    }
}
