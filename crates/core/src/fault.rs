//! Deterministic, seeded fault injection — the simulator's analog of
//! Linux's `failslab` / `fail_page_alloc` / `fail_function` machinery.
//!
//! The paper's attacks live entirely in *failure windows* (allocation
//! reuse, IOTLB staleness, unmap-ordering races, §5.2), so the
//! simulators must behave sanely when allocations fail or devices
//! misbehave. A [`FaultPlan`] holds site-tagged rules; call sites that
//! can fail query `SimCtx::fault("layer.operation")` and, on a hit,
//! return the natural error for that site (`OutOfMemory` for
//! allocators, `OutOfIova` for mapping, `IommuFault` for device DMA).
//!
//! Determinism is load-bearing: probabilistic rules draw from a
//! [`DetRng`] seeded when the plan is built, so the same seed always
//! produces the same fault sequence — the chaos soak asserts exact
//! replayability of fault-hit and drop counters.
//!
//! # Site tags and the pattern grammar
//!
//! Sites are `&'static str` tags named `"<crate>.<operation>"`, e.g.
//! `"sim_mem.kmalloc"`, `"sim_iommu.dma_map"`, `"sim_net.rx_refill"`,
//! `"device.dma_read"`. Checkpoint I/O exposes `"checkpoint.write"`
//! and `"checkpoint.load"` (see [`crate::checkpoint`]), whose failures
//! are retried with seeded backoff rather than surfaced immediately.
//! Rule patterns are matched against sites by
//! [`pattern_matches`] under a small glob grammar:
//!
//! - A pattern with no `*` matches exactly one site tag, verbatim.
//! - Otherwise the pattern and site are split on `.` and compared
//!   segment by segment. Inside a segment, `*` matches any run of
//!   characters (including none), so `"sim_*.dma_*"` matches
//!   `"sim_iommu.dma_map"` and `"*.rx_refill"` matches
//!   `"sim_net.rx_refill"` but not `"sim_net.rx_poll"`.
//! - As a special case, a **final** segment that is exactly `*`
//!   matches one *or more* trailing site segments: `"sim_mem.*"`
//!   matches every allocator site and a bare `"*"` matches every site.
//!   (This keeps the historical trailing-`*` prefix behavior.)
//! - Segment counts must otherwise agree: `"*.refill"` never matches a
//!   three-segment tag.
//!
//! # Writing a plan in a test
//!
//! ```
//! use dma_core::{FaultPlan, SimCtx};
//!
//! let mut ctx = SimCtx::new();
//! ctx.faults = FaultPlan::seeded(42)
//!     .fail_nth("sim_mem.kmalloc", 3)      // 3rd kmalloc fails
//!     .fail_every("sim_iommu.dma_map", 8)  // every 8th map fails
//!     .fail_prob("sim_net.rx_refill", 1, 100) // 1% of refill allocs
//!     .fail_once("device.dma_read");       // first device read faults
//! assert!(!ctx.fault("sim_mem.kmalloc")); // call 1
//! assert!(!ctx.fault("sim_mem.kmalloc")); // call 2
//! assert!(ctx.fault("sim_mem.kmalloc"));  // call 3 → injected
//! ```

use crate::rng::DetRng;
use std::collections::BTreeMap;

/// When a matching call should fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Fail exactly the `n`-th matching call (1-based), once.
    Nth(u64),
    /// Fail every `k`-th matching call (the k-th, 2k-th, ...).
    EveryK(u64),
    /// Fail each matching call with probability `num / den`, drawn from
    /// the plan's seeded RNG.
    Prob {
        /// Numerator of the failure probability.
        num: u64,
        /// Denominator of the failure probability.
        den: u64,
    },
    /// Fail the first matching call, then disarm.
    Once,
    /// Fail every matching call.
    Always,
}

/// One site-tagged injection rule with its bookkeeping counters.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Site pattern under the module-level glob grammar (exact tag,
    /// per-segment `*` wildcards, or a trailing bare-`*` segment).
    pub pattern: String,
    /// Firing condition.
    pub trigger: FaultTrigger,
    /// Matching calls observed so far.
    pub calls: u64,
    /// Faults this rule has injected.
    pub hits: u64,
    /// One-shot rules disarm after firing.
    armed: bool,
}

impl FaultRule {
    fn matches(&self, site: &str) -> bool {
        pattern_matches(&self.pattern, site)
    }
}

/// Matches a site tag against a rule pattern under the glob grammar
/// documented in the module header: no `*` ⇒ exact match; otherwise
/// per-`.`-segment comparison with in-segment `*` wildcards, where a
/// final bare-`*` segment swallows one or more trailing site segments.
pub fn pattern_matches(pattern: &str, site: &str) -> bool {
    if !pattern.contains('*') {
        return pattern == site;
    }
    let psegs: Vec<&str> = pattern.split('.').collect();
    let ssegs: Vec<&str> = site.split('.').collect();
    if psegs.last() == Some(&"*") {
        let lead = &psegs[..psegs.len() - 1];
        return ssegs.len() >= psegs.len()
            && lead.iter().zip(&ssegs).all(|(p, s)| segment_matches(p, s));
    }
    psegs.len() == ssegs.len() && psegs.iter().zip(&ssegs).all(|(p, s)| segment_matches(p, s))
}

/// In-segment glob: `*` matches any (possibly empty) run of characters.
/// Iterative with backtracking to the last star, so `"dma_*"` and
/// `"*refill*"` both work without recursion.
fn segment_matches(pat: &str, seg: &str) -> bool {
    let p = pat.as_bytes();
    let s = seg.as_bytes();
    let (mut pi, mut si) = (0usize, 0usize);
    let mut star: Option<usize> = None;
    let mut mark = 0usize;
    while si < s.len() {
        if pi < p.len() && (p[pi] == s[si]) {
            pi += 1;
            si += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some(pi);
            mark = si;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            mark += 1;
            si = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// A deterministic schedule of injected faults, threaded through
/// `SimCtx`. An empty plan is free: `should_fail` returns immediately.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    rng: DetRng,
    /// Master switch; a disabled plan never fires (rules are kept).
    pub enabled: bool,
    /// Faults injected per site tag.
    site_hits: BTreeMap<String, u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// An empty plan (no rules, RNG seeded with 0). Never fires.
    pub fn new() -> Self {
        FaultPlan::seeded(0)
    }

    /// An empty plan whose probabilistic rules will draw from a RNG
    /// seeded with `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            rules: Vec::new(),
            rng: DetRng::new(seed),
            enabled: true,
            site_hits: BTreeMap::new(),
        }
    }

    /// Adds a rule with an explicit trigger.
    pub fn with_rule(mut self, pattern: impl Into<String>, trigger: FaultTrigger) -> Self {
        self.rules.push(FaultRule {
            pattern: pattern.into(),
            trigger,
            calls: 0,
            hits: 0,
            armed: true,
        });
        self
    }

    /// Fail exactly the `n`-th call matching `pattern` (1-based).
    pub fn fail_nth(self, pattern: impl Into<String>, n: u64) -> Self {
        self.with_rule(pattern, FaultTrigger::Nth(n.max(1)))
    }

    /// Fail every `k`-th call matching `pattern`.
    pub fn fail_every(self, pattern: impl Into<String>, k: u64) -> Self {
        self.with_rule(pattern, FaultTrigger::EveryK(k.max(1)))
    }

    /// Fail calls matching `pattern` with probability `num / den`.
    pub fn fail_prob(self, pattern: impl Into<String>, num: u64, den: u64) -> Self {
        self.with_rule(
            pattern,
            FaultTrigger::Prob {
                num,
                den: den.max(1),
            },
        )
    }

    /// Fail the first call matching `pattern`, then disarm.
    pub fn fail_once(self, pattern: impl Into<String>) -> Self {
        self.with_rule(pattern, FaultTrigger::Once)
    }

    /// Fail every call matching `pattern`.
    pub fn fail_always(self, pattern: impl Into<String>) -> Self {
        self.with_rule(pattern, FaultTrigger::Always)
    }

    /// `true` if the plan has no rules (the zero-overhead state).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Queries whether the call at `site` should fail, updating rule
    /// and per-site counters. The first matching armed rule decides.
    ///
    /// Call sites normally go through `SimCtx::fault`, which also emits
    /// a `FaultInjected` trace event on a hit.
    #[inline]
    pub fn should_fail(&mut self, site: &str) -> bool {
        if self.rules.is_empty() || !self.enabled {
            return false;
        }
        self.should_fail_slow(site)
    }

    fn should_fail_slow(&mut self, site: &str) -> bool {
        let mut fired = false;
        for rule in &mut self.rules {
            if !rule.matches(site) {
                continue;
            }
            rule.calls += 1;
            if fired || !rule.armed {
                continue;
            }
            let hit = match rule.trigger {
                FaultTrigger::Nth(n) => {
                    if rule.calls == n {
                        rule.armed = false;
                        true
                    } else {
                        false
                    }
                }
                FaultTrigger::EveryK(k) => rule.calls % k == 0,
                FaultTrigger::Prob { num, den } => self.rng.chance(num, den),
                FaultTrigger::Once => {
                    rule.armed = false;
                    true
                }
                FaultTrigger::Always => true,
            };
            if hit {
                rule.hits += 1;
                fired = true;
            }
        }
        if fired {
            *self.site_hits.entry(site.to_owned()).or_insert(0) += 1;
        }
        fired
    }

    /// Total faults injected across all rules.
    pub fn injected_total(&self) -> u64 {
        self.rules.iter().map(|r| r.hits).sum()
    }

    /// Per-site fault counts, in deterministic (sorted) order — the
    /// replayability fingerprint the chaos soak compares across runs.
    pub fn hits_by_site(&self) -> &BTreeMap<String, u64> {
        &self.site_hits
    }

    /// Read-only view of the rules with their counters.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let mut p = FaultPlan::new();
        for _ in 0..100 {
            assert!(!p.should_fail("sim_mem.kmalloc"));
        }
        assert_eq!(p.injected_total(), 0);
        assert!(p.hits_by_site().is_empty());
    }

    #[test]
    fn nth_fires_exactly_once_at_n() {
        let mut p = FaultPlan::seeded(1).fail_nth("a.b", 3);
        let hits: Vec<bool> = (0..6).map(|_| p.should_fail("a.b")).collect();
        assert_eq!(hits, [false, false, true, false, false, false]);
        assert_eq!(p.injected_total(), 1);
    }

    #[test]
    fn every_k_fires_periodically() {
        let mut p = FaultPlan::seeded(1).fail_every("a.b", 3);
        let hits = (0..9).filter(|_| p.should_fail("a.b")).count();
        assert_eq!(hits, 3);
    }

    #[test]
    fn once_disarms_after_first_hit() {
        let mut p = FaultPlan::seeded(1).fail_once("a.b");
        assert!(p.should_fail("a.b"));
        assert!(!p.should_fail("a.b"));
        assert_eq!(p.rules()[0].calls, 2);
        assert_eq!(p.rules()[0].hits, 1);
    }

    #[test]
    fn always_fires_every_call() {
        let mut p = FaultPlan::seeded(1).fail_always("a.b");
        assert!((0..10).all(|_| p.should_fail("a.b")));
    }

    #[test]
    fn prob_is_seeded_and_replayable() {
        let run = |seed| {
            let mut p = FaultPlan::seeded(seed).fail_prob("a.b", 1, 4);
            (0..256).map(|_| p.should_fail("a.b")).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same fault sequence");
        assert_ne!(run(7), run(8), "different seeds diverge");
        let hits = run(7).iter().filter(|&&h| h).count();
        assert!((32..96).contains(&hits), "1/4 of 256 ≈ 64, got {hits}");
    }

    #[test]
    fn prefix_pattern_matches_whole_layer() {
        let mut p = FaultPlan::seeded(1).fail_always("sim_mem.*");
        assert!(p.should_fail("sim_mem.kmalloc"));
        assert!(p.should_fail("sim_mem.alloc_pages"));
        assert!(!p.should_fail("sim_iommu.dma_map"));
        assert_eq!(p.hits_by_site().len(), 2);
    }

    #[test]
    fn first_matching_rule_wins_but_all_count_calls() {
        let mut p = FaultPlan::seeded(1).fail_nth("a.b", 1).fail_always("a.*");
        assert!(p.should_fail("a.b"));
        // Second call: Nth(1) is done, the prefix rule takes over.
        assert!(p.should_fail("a.b"));
        assert_eq!(p.rules()[0].calls, 2);
        assert_eq!(p.rules()[1].calls, 2);
        // Only one injected fault is reported per call.
        assert_eq!(*p.hits_by_site().get("a.b").unwrap(), 2);
    }

    #[test]
    fn glob_matches_operation_segment_across_layers() {
        let mut p = FaultPlan::seeded(1).fail_always("*.rx_refill");
        assert!(p.should_fail("sim_net.rx_refill"));
        assert!(!p.should_fail("sim_net.rx_poll"));
        assert!(!p.should_fail("sim_mem.kmalloc"));
    }

    #[test]
    fn glob_wildcards_work_inside_segments() {
        assert!(pattern_matches("sim_*.dma_*", "sim_iommu.dma_map"));
        assert!(!pattern_matches("sim_*.dma_*", "device.dma_read"));
        assert!(pattern_matches("*.dma_*", "device.dma_read"));
        assert!(pattern_matches(
            "sim_mem.*alloc*",
            "sim_mem.page_frag_alloc"
        ));
        assert!(pattern_matches("sim_mem.*alloc*", "sim_mem.alloc_pages"));
        assert!(!pattern_matches("sim_mem.*alloc*", "sim_mem.kfree"));
    }

    #[test]
    fn glob_requires_matching_segment_counts() {
        assert!(!pattern_matches("*.refill", "a.b.refill"));
        assert!(!pattern_matches("a.*.c", "a.b"));
        assert!(pattern_matches("a.*.c", "a.anything.c"));
    }

    #[test]
    fn trailing_bare_star_matches_remaining_segments() {
        assert!(pattern_matches("sim_mem.*", "sim_mem.kmalloc"));
        assert!(pattern_matches("a.*", "a.b.c"), "one-or-more trailing");
        assert!(!pattern_matches("a.*", "a"), "star needs a segment");
        assert!(
            pattern_matches("*", "device.dma_write"),
            "bare * is match-all"
        );
    }

    #[test]
    fn exact_patterns_do_not_glob() {
        assert!(pattern_matches("sim_mem.kmalloc", "sim_mem.kmalloc"));
        assert!(!pattern_matches("sim_mem.kmalloc", "sim_mem.kmalloc2"));
    }

    #[test]
    fn disabled_plan_keeps_rules_but_never_fires() {
        let mut p = FaultPlan::seeded(1).fail_always("a.b");
        p.enabled = false;
        assert!(!p.should_fail("a.b"));
        assert_eq!(p.rules()[0].calls, 0, "disabled plan does not count");
    }
}
