//! Output checks. Every run checks what it produced; an op whose check
//! finds a problem counts as a failed op.

use dma_lab::dma_core::jsonr;
use dma_lab::dma_core::vuln::WindowPath;
use dma_lab::fuzz::{CampaignState, FuzzFinding, FuzzReport};
use dma_lab::serve::END_MARKER;

/// Seed at which the campaign workloads must rediscover the paper's
/// Figure-1 classes, the `destructor_arg` exposure and both §5.2.2
/// window paths.
pub const FIGURE1_SEED: u64 = 7;

/// Ops attempted and failed, with the first problems seen.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error or failed a check.
    pub failed: u64,
    /// Up to [`Tally::KEPT`] problem descriptions.
    pub problems: Vec<String>,
}

impl Tally {
    /// Problems kept for the result's detail line.
    pub const KEPT: usize = 8;

    /// Records one attempted op and the problems its checks found.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        self.check(problems);
    }

    /// Records a run-level check over ops already counted: a miss
    /// fails one more op.
    pub fn check(&mut self, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += 1;
            let room = Self::KEPT.saturating_sub(self.problems.len());
            self.problems.extend(problems.into_iter().take(room));
        }
    }
}

/// What the seed-7 campaign must rediscover but did not, by name.
pub fn figure1_missing(findings: &[FuzzFinding]) -> Vec<String> {
    let mut missing = Vec::new();
    for letter in ['a', 'b', 'c', 'd'] {
        if !findings.iter().any(|f| f.taxonomy.letter() == letter) {
            missing.push(format!("Figure-1 class ({letter}) not found"));
        }
    }
    if !findings
        .iter()
        .any(|f| f.site == "skb_shared_info.destructor_arg")
    {
        missing.push("skb_shared_info.destructor_arg exposure not found".to_string());
    }
    for (path, name) in [
        (WindowPath::UnmapAfterBuild, "(i)"),
        (WindowPath::DeferredIotlb, "(ii)"),
    ] {
        if !findings
            .iter()
            .any(|f| f.attrs.window.map(|w| w.path) == Some(path))
        {
            missing.push(format!("§5.2.2 window path {name} not found"));
        }
    }
    missing
}

/// The counters a merged sharded report must carry as exact sums of
/// its shards' counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Iterations.
    pub iters: u64,
    /// Driver executions.
    pub execs: u64,
    /// Minimizer and annotation replays.
    pub minimize_execs: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Tolerated drops.
    pub dropped: u64,
    /// Simulated cycles.
    pub total_cycles: u64,
    /// Recorder evictions.
    pub trace_dropped: u64,
}

impl Counters {
    /// The counters of one report.
    pub fn of(r: &FuzzReport) -> Counters {
        Counters {
            iters: r.iters,
            execs: r.execs,
            minimize_execs: r.minimize_execs,
            delivered: r.delivered,
            dropped: r.dropped,
            total_cycles: r.total_cycles,
            trace_dropped: r.trace_dropped,
        }
    }

    fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("iters", self.iters),
            ("execs", self.execs),
            ("minimize_execs", self.minimize_execs),
            ("delivered", self.delivered),
            ("dropped", self.dropped),
            ("total_cycles", self.total_cycles),
            ("trace_dropped", self.trace_dropped),
        ]
    }
}

/// Merged counters that differ from the sum over the shards.
pub fn counter_sum_problems(shards: &[Counters], merged: &Counters) -> Vec<String> {
    let mut sums = [0u128; 7];
    for s in shards {
        for (sum, (_, v)) in sums.iter_mut().zip(s.fields()) {
            *sum += u128::from(v);
        }
    }
    merged
        .fields()
        .iter()
        .zip(sums)
        .filter(|((_, m), sum)| u128::from(*m) != *sum)
        .map(|((name, m), sum)| format!("merged {name} {m} != shard sum {sum}"))
        .collect()
}

/// Problems with the frames one serve request produced: it must close
/// with a frame ending in `"end":true}`, produce no `error` frame, and
/// every `stepped` frame must report `errors: 0`.
pub fn serve_frame_problems(frames: &[String]) -> Vec<String> {
    let mut problems = Vec::new();
    if !frames.last().is_some_and(|f| f.ends_with(END_MARKER)) {
        problems.push("request did not close with an end frame".to_string());
    }
    for f in frames {
        if f.starts_with("{\"frame\":\"error\"") {
            problems.push(format!("error frame: {f}"));
        } else if f.starts_with("{\"frame\":\"stepped\"") {
            let errors = jsonr::parse(f).ok().and_then(|v| v.u64_field("errors"));
            if errors != Some(0) {
                problems.push(format!("stepped frame reports errors: {f}"));
            }
        }
    }
    problems
}

/// FNV-1a over everything a run's deterministic output is made of.
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hex rendering.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a campaign's deterministic state: iteration, corpus
/// signatures, coverage bits, replay count, traffic, cycles, findings.
pub fn campaign_digest(s: &CampaignState) -> String {
    let mut d = Digest::new();
    d.u64(s.next_iter);
    for sig in s.corpus.signatures() {
        d.u64(sig);
    }
    d.u64(u64::from(s.global.count_ones()));
    for v in [
        s.minimize_execs,
        s.delivered,
        s.dropped,
        s.total_cycles,
        s.trace_dropped,
    ] {
        d.u64(v);
    }
    for f in &s.findings {
        d.bytes(f.key().as_bytes());
    }
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(lines: &[&str]) -> Vec<String> {
        lines.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_planted_error_frame_fails_the_op() {
        let good = frames(&["{\"frame\":\"health\",\"next_iter\":4,\"end\":true}"]);
        let planted = frames(&["{\"frame\":\"error\",\"ok\":false,\"error\":\"x\",\"end\":true}"]);
        let mut t = Tally::default();
        t.record(serve_frame_problems(&good));
        t.record(serve_frame_problems(&planted));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert!(t.problems[0].starts_with("error frame"));
    }

    #[test]
    fn stepped_errors_and_a_missing_end_frame_fail_the_op() {
        let bad_step = frames(&[
            "{\"frame\":\"coverage\",\"shard\":0,\"iteration\":3,\"bits\":9,\"corpus\":2}",
            "{\"frame\":\"stepped\",\"ran\":0,\"errors\":1,\"next_iter\":3,\"end\":true}",
        ]);
        assert_eq!(serve_frame_problems(&bad_step).len(), 1);
        let ok_step = frames(&[
            "{\"frame\":\"stepped\",\"ran\":4,\"errors\":0,\"next_iter\":8,\"end\":true}",
        ]);
        assert!(serve_frame_problems(&ok_step).is_empty());
        let open = frames(&["{\"frame\":\"coverage\",\"shard\":0}"]);
        assert_eq!(serve_frame_problems(&open).len(), 1);
        assert_eq!(serve_frame_problems(&[]).len(), 1);
    }

    #[test]
    fn a_broken_counter_sum_fails_the_op() {
        let shard = Counters {
            iters: 96,
            execs: 96,
            minimize_execs: 200,
            delivered: 350,
            dropped: 40,
            total_cycles: 1_000_000,
            trace_dropped: 0,
        };
        let mut merged = Counters {
            iters: 192,
            execs: 192,
            minimize_execs: 400,
            delivered: 700,
            dropped: 80,
            total_cycles: 2_000_000,
            trace_dropped: 0,
        };
        assert!(counter_sum_problems(&[shard, shard], &merged).is_empty());
        merged.total_cycles += 1;
        let problems = counter_sum_problems(&[shard, shard], &merged);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("total_cycles"));
        let mut t = Tally::default();
        t.record(problems);
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn figure1_check_names_everything_missing() {
        assert_eq!(figure1_missing(&[]).len(), 7);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::new(), Digest::new());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.hex(), b.hex());
    }
}
