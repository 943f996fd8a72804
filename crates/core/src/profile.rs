//! Hierarchical cycle-attribution profiles: the span stack folded into
//! a call tree.
//!
//! The flat span aggregates in [`crate::metrics`] answer *how much* a
//! named phase cost; they cannot answer *where inside it* the cycles
//! went — the question ROADMAP item 4 (batched DMA API, lock-free
//! IOTLB) needs attribution data for. This module adds that layer:
//!
//! * [`ProfTree`] — the incremental call tree a [`crate::Metrics`]
//!   registry grows as spans (visible *and* profile-only) open and
//!   close. Frames are keyed by `&'static str` name under their parent;
//!   sibling order is the `BTreeMap` order, so the tree shape is a pure
//!   function of the simulation history.
//! * [`Profile`] / [`ProfileNode`] — the frozen, export-ready tree.
//!   Everything downstream (folded stacks, speedscope JSON, shard
//!   merging, checkpoint persistence) works on this plain-data form.
//!
//! # Attribution model
//!
//! A node's `total_cycles` is inclusive (simulated cycles between frame
//! entry and exit, children included); its *self* cycles are
//! `total - Σ children.total`, computed on demand and saturating so a
//! torn frame can never underflow. Cycles spent outside any frame —
//! deliberately including fuzz-input idle ops like `AdvanceTime`, which
//! would otherwise drown the hot paths — stay unattributed; exporters
//! report attributed vs. total so the gap is visible rather than
//! hidden.
//!
//! # Merge semantics
//!
//! [`Profile::merge`] folds another profile in by recursively matching
//! frames by name: calls and totals add, unmatched subtrees are
//! inserted whole, and children stay name-sorted. The fold is
//! commutative and associative over per-exec profiles, which is what
//! makes sharded campaigns thread-count-agnostic: shards are merged in
//! sorted shard-id order, and folding per-exec profiles in any grouping
//! reproduces the one-pass profile byte for byte.

use crate::clock::Cycles;
use crate::jsonw::JsonWriter;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One frame of a frozen call tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// Frame name (`subsystem.op` style, e.g. `iommu.iotlb.inv`).
    pub name: String,
    /// Number of times this frame was entered under this parent.
    pub calls: u64,
    /// Inclusive simulated cycles (children included).
    pub total_cycles: Cycles,
    /// Child frames, sorted by name.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Exclusive cycles: inclusive minus children, saturating.
    pub fn self_cycles(&self) -> Cycles {
        let kids: Cycles = self.children.iter().map(|c| c.total_cycles).sum();
        self.total_cycles.saturating_sub(kids)
    }

    fn merge(&mut self, other: &ProfileNode) {
        self.calls += other.calls;
        self.total_cycles += other.total_cycles;
        for oc in &other.children {
            match self.children.iter_mut().find(|c| c.name == oc.name) {
                Some(c) => c.merge(oc),
                None => {
                    self.children.push(oc.clone());
                }
            }
        }
        self.children.sort_by(|a, b| a.name.cmp(&b.name));
    }

    fn to_writer(&self, w: &mut JsonWriter) {
        w.obj(|w| {
            w.field_str("name", &self.name);
            w.field_u64("calls", self.calls);
            w.field_u64("total_cycles", self.total_cycles);
            w.field_u64("self_cycles", self.self_cycles());
            w.field("children", |w| {
                w.arr(|w| {
                    for c in &self.children {
                        c.elem_to(w);
                    }
                });
            });
        });
    }

    fn elem_to(&self, w: &mut JsonWriter) {
        w.elem(|w| self.to_writer(w));
    }

    fn from_jvalue(v: &crate::JValue) -> Option<ProfileNode> {
        let mut children = Vec::new();
        for c in v.get("children")?.as_arr()? {
            children.push(ProfileNode::from_jvalue(c)?);
        }
        Some(ProfileNode {
            name: v.str_field("name")?.to_string(),
            calls: v.u64_field("calls")?,
            total_cycles: v.u64_field("total_cycles")?,
            children,
        })
    }
}

/// A frozen, mergeable cycle-attribution call tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Top-level frames, sorted by name.
    pub roots: Vec<ProfileNode>,
}

impl Profile {
    /// An empty profile (the merge identity).
    pub fn new() -> Profile {
        Profile::default()
    }

    /// `true` when no frame was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Simulated cycles attributed to some frame (sum of root totals).
    pub fn attributed_cycles(&self) -> Cycles {
        self.roots.iter().map(|r| r.total_cycles).sum()
    }

    /// Total frame entries across the whole tree.
    pub fn total_calls(&self) -> u64 {
        fn walk(n: &ProfileNode) -> u64 {
            n.calls + n.children.iter().map(walk).sum::<u64>()
        }
        self.roots.iter().map(walk).sum()
    }

    /// Folds `other` into `self`: frames match by name recursively,
    /// calls and cycles add, unmatched subtrees insert whole. The
    /// deterministic shard-merge operation — commutative, associative,
    /// with [`Profile::new`] as identity.
    pub fn merge(&mut self, other: &Profile) {
        for or in &other.roots {
            match self.roots.iter_mut().find(|r| r.name == or.name) {
                Some(r) => r.merge(or),
                None => {
                    self.roots.push(or.clone());
                }
            }
        }
        self.roots.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Exclusive cycles aggregated per frame name across every stack
    /// the frame appears in, sorted by cycles descending (name breaks
    /// ties), zero-cycle frames included.
    pub fn self_by_name(&self) -> Vec<(String, Cycles)> {
        fn walk(n: &ProfileNode, acc: &mut BTreeMap<String, Cycles>) {
            *acc.entry(n.name.clone()).or_insert(0) += n.self_cycles();
            for c in &n.children {
                walk(c, acc);
            }
        }
        let mut acc = BTreeMap::new();
        for r in &self.roots {
            walk(r, &mut acc);
        }
        let mut v: Vec<(String, Cycles)> = acc.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The hottest frame by aggregated exclusive cycles.
    pub fn top_self(&self) -> Option<(String, Cycles)> {
        self.self_by_name().into_iter().next()
    }

    /// Top-level phase summary: `(name, calls, total_cycles)` per root,
    /// in name order — the per-exec phase-breakdown table.
    pub fn phases(&self) -> Vec<(String, u64, Cycles)> {
        self.roots
            .iter()
            .map(|r| (r.name.clone(), r.calls, r.total_cycles))
            .collect()
    }

    /// Folded-stack rendering (`inferno` / flamegraph.pl input): one
    /// `frame;frame;frame self_cycles` line per node with non-zero
    /// exclusive cycles, in deterministic depth-first name order.
    pub fn folded(&self) -> String {
        fn walk(n: &ProfileNode, prefix: &str, out: &mut String) {
            let path = if prefix.is_empty() {
                n.name.clone()
            } else {
                format!("{prefix};{}", n.name)
            };
            let own = n.self_cycles();
            if own > 0 {
                let _ = writeln!(out, "{path} {own}");
            }
            for c in &n.children {
                walk(c, &path, out);
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            walk(r, "", &mut out);
        }
        out
    }

    /// Speedscope-compatible `sampled` profile JSON: one weighted
    /// sample per node with non-zero exclusive cycles, weights in
    /// simulated cycles.
    pub fn speedscope_json(&self, name: &str) -> String {
        // Frame table: first-visit (depth-first) order, deduped by name.
        let mut frames: Vec<&str> = Vec::new();
        let mut index: BTreeMap<&str, u64> = BTreeMap::new();
        let mut samples: Vec<(Vec<u64>, Cycles)> = Vec::new();
        fn walk<'a>(
            n: &'a ProfileNode,
            stack: &mut Vec<u64>,
            frames: &mut Vec<&'a str>,
            index: &mut BTreeMap<&'a str, u64>,
            samples: &mut Vec<(Vec<u64>, Cycles)>,
        ) {
            let fi = *index.entry(&n.name).or_insert_with(|| {
                frames.push(&n.name);
                frames.len() as u64 - 1
            });
            stack.push(fi);
            let own = n.self_cycles();
            if own > 0 {
                samples.push((stack.clone(), own));
            }
            for c in &n.children {
                walk(c, stack, frames, index, samples);
            }
            stack.pop();
        }
        let mut stack = Vec::new();
        for r in &self.roots {
            walk(r, &mut stack, &mut frames, &mut index, &mut samples);
        }
        let end: Cycles = samples.iter().map(|(_, w)| *w).sum();

        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_str(
                "$schema",
                "https://www.speedscope.app/file-format-schema.json",
            );
            w.field("shared", |w| {
                w.obj(|w| {
                    w.field("frames", |w| {
                        w.arr(|w| {
                            for f in &frames {
                                w.elem(|w| {
                                    w.obj(|w| w.field_str("name", f));
                                });
                            }
                        });
                    });
                });
            });
            w.field("profiles", |w| {
                w.arr(|w| {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("type", "sampled");
                            w.field_str("name", name);
                            w.field_str("unit", "none");
                            w.field_u64("startValue", 0);
                            w.field_u64("endValue", end);
                            w.field("samples", |w| {
                                w.arr(|w| {
                                    for (s, _) in &samples {
                                        w.elem(|w| {
                                            w.arr(|w| {
                                                for fi in s {
                                                    w.elem(|w| w.u64(*fi));
                                                }
                                            });
                                        });
                                    }
                                });
                            });
                            w.field("weights", |w| {
                                w.arr(|w| {
                                    for (_, wt) in &samples {
                                        w.elem(|w| w.u64(*wt));
                                    }
                                });
                            });
                        });
                    });
                });
            });
            w.field_str("name", name);
            w.field_str("exporter", "dma-lab");
        });
        w.finish()
    }

    /// Deterministic JSON rendering — the persistence format used by
    /// checkpoints, `FuzzReport`, and the `serve` `profile` frame.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_str("schema", "dma-lab.profile.v1");
            w.field_u64("attributed_cycles", self.attributed_cycles());
            w.field("nodes", |w| {
                w.arr(|w| {
                    for r in &self.roots {
                        r.elem_to(w);
                    }
                });
            });
        });
        w.finish()
    }

    /// Rebuilds a profile from its [`Profile::to_json`] rendering;
    /// `None` on structurally invalid input.
    pub fn from_json(doc: &str) -> Option<Profile> {
        Profile::from_jvalue(&crate::jsonr::parse(doc).ok()?)
    }

    /// [`Profile::from_json`] over an already-parsed [`crate::JValue`].
    pub fn from_jvalue(v: &crate::JValue) -> Option<Profile> {
        if v.str_field("schema")? != "dma-lab.profile.v1" {
            return None;
        }
        let mut roots = Vec::new();
        for n in v.get("nodes")?.as_arr()? {
            roots.push(ProfileNode::from_jvalue(n)?);
        }
        Some(Profile { roots })
    }

    /// Human-readable tree table: one indented row per frame with
    /// calls, inclusive and exclusive cycles.
    pub fn render_text(&self) -> String {
        fn walk(n: &ProfileNode, depth: usize, out: &mut String) {
            let _ = writeln!(
                out,
                "  {:indent$}{:<width$} {:>10} {:>14} {:>14}",
                "",
                n.name,
                n.calls,
                n.total_cycles,
                n.self_cycles(),
                indent = depth * 2,
                width = 36usize.saturating_sub(depth * 2),
            );
            for c in &n.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<36} {:>10} {:>14} {:>14}",
            "frame", "calls", "cycles", "self"
        );
        for r in &self.roots {
            walk(r, 0, &mut out);
        }
        out
    }
}

/// The incremental call tree grown inside a [`crate::Metrics`] registry
/// as frames open and close. Nodes live in an arena; a cursor stack of
/// node indices runs in lockstep with the span stack, so unwinding a
/// torn span unwinds the cursor identically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct ProfTree {
    nodes: Vec<TreeNode>,
    roots: BTreeMap<&'static str, usize>,
    cursor: Vec<usize>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct TreeNode {
    name: &'static str,
    calls: u64,
    total: Cycles,
    children: BTreeMap<&'static str, usize>,
}

impl ProfTree {
    /// Descends into (creating if needed) the child `name` of the
    /// current cursor frame and counts the call.
    pub(crate) fn enter(&mut self, name: &'static str) {
        let parent = self.cursor.last().copied();
        let existing = match parent {
            Some(p) => self.nodes[p].children.get(name).copied(),
            None => self.roots.get(name).copied(),
        };
        let idx = match existing {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(TreeNode {
                    name,
                    calls: 0,
                    total: 0,
                    children: BTreeMap::new(),
                });
                match parent {
                    Some(p) => {
                        self.nodes[p].children.insert(name, i);
                    }
                    None => {
                        self.roots.insert(name, i);
                    }
                }
                i
            }
        };
        self.nodes[idx].calls += 1;
        self.cursor.push(idx);
    }

    /// Pops the cursor, attributing `elapsed` inclusive cycles to the
    /// frame being left. A no-op on an empty cursor (torn unwind).
    pub(crate) fn leave(&mut self, elapsed: Cycles) {
        if let Some(idx) = self.cursor.pop() {
            self.nodes[idx].total += elapsed;
        }
    }

    /// Drops all recorded frames, then re-enters the still-open stack
    /// `open` (outermost first) so in-flight spans keep attributing to
    /// a fresh tree. The per-exec reset point.
    pub(crate) fn reset(&mut self, open: &[&'static str]) {
        self.nodes.clear();
        self.roots.clear();
        self.cursor.clear();
        for name in open {
            self.enter(name);
        }
    }

    /// Freezes the tree into an export-ready [`Profile`].
    pub(crate) fn export(&self) -> Profile {
        fn build(t: &ProfTree, idx: usize) -> ProfileNode {
            let n = &t.nodes[idx];
            ProfileNode {
                name: n.name.to_string(),
                calls: n.calls,
                total_cycles: n.total,
                children: n.children.values().map(|&c| build(t, c)).collect(),
            }
        }
        Profile {
            roots: self.roots.values().map(|&i| build(self, i)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str, calls: u64, total: Cycles) -> ProfileNode {
        ProfileNode {
            name: name.to_string(),
            calls,
            total_cycles: total,
            children: Vec::new(),
        }
    }

    fn sample() -> Profile {
        let mut map = leaf("iommu.map", 4, 1600);
        map.children.push(leaf("iommu.iotlb.inv", 4, 1000));
        Profile {
            roots: vec![
                ProfileNode {
                    name: "exec.deliver".into(),
                    calls: 2,
                    total_cycles: 2000,
                    children: vec![map],
                },
                leaf("mem.kmalloc", 3, 300),
            ],
        }
    }

    #[test]
    fn self_cycles_subtract_children_saturating() {
        let p = sample();
        assert_eq!(p.roots[0].self_cycles(), 400);
        assert_eq!(p.roots[0].children[0].self_cycles(), 600);
        let torn = ProfileNode {
            name: "torn".into(),
            calls: 1,
            total_cycles: 5,
            children: vec![leaf("big", 1, 50)],
        };
        assert_eq!(torn.self_cycles(), 0, "never underflows");
    }

    #[test]
    fn merge_is_commutative_with_identity() {
        let mut a = sample();
        a.merge(&Profile::new());
        assert_eq!(a, sample(), "empty profile is the merge identity");

        let mut other = Profile {
            roots: vec![leaf("mem.kmalloc", 1, 100), leaf("zz.new", 1, 9)],
        };
        let mut ab = sample();
        ab.merge(&other);
        other.merge(&sample());
        assert_eq!(ab, other, "merge is commutative");
        assert_eq!(ab.attributed_cycles(), 2000 + 400 + 9);
        let km = ab.roots.iter().find(|r| r.name == "mem.kmalloc").unwrap();
        assert_eq!((km.calls, km.total_cycles), (4, 400));
    }

    #[test]
    fn folded_lists_nonzero_self_frames_depth_first() {
        let folded = sample().folded();
        assert_eq!(
            folded,
            "exec.deliver 400\n\
             exec.deliver;iommu.map 600\n\
             exec.deliver;iommu.map;iommu.iotlb.inv 1000\n\
             mem.kmalloc 300\n"
        );
    }

    #[test]
    fn top_self_aggregates_across_stacks() {
        let mut p = sample();
        // A second iommu.iotlb.inv stack elsewhere; aggregated self
        // (1000 + 200) beats every other frame.
        p.merge(&Profile {
            roots: vec![leaf("iommu.iotlb.inv", 1, 200)],
        });
        assert_eq!(p.top_self().unwrap(), ("iommu.iotlb.inv".into(), 1200));
    }

    #[test]
    fn json_round_trips_exactly() {
        let p = sample();
        let doc = p.to_json();
        let back = Profile::from_json(&doc).expect("parse own rendering");
        assert_eq!(back, p);
        assert_eq!(back.to_json(), doc);
        assert!(Profile::from_json("{}").is_none());
        assert!(Profile::from_json("{\"schema\":\"nope\",\"nodes\":[]}").is_none());
    }

    #[test]
    fn speedscope_export_is_well_formed() {
        let doc = sample().speedscope_json("test");
        let v = crate::jsonr::parse(&doc).expect("speedscope json parses");
        assert!(doc.contains("speedscope.app/file-format-schema.json"));
        let profiles = v.get("profiles").and_then(|p| p.as_arr()).unwrap();
        assert_eq!(profiles[0].str_field("type"), Some("sampled"));
        assert_eq!(profiles[0].u64_field("endValue"), Some(2300));
        let samples = profiles[0].get("samples").and_then(|s| s.as_arr()).unwrap();
        let weights = profiles[0].get("weights").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(samples.len(), weights.len());
        assert_eq!(samples.len(), 4);
    }

    #[test]
    fn tree_builds_nested_frames_and_resets() {
        let mut t = ProfTree::default();
        t.enter("outer");
        t.enter("inner");
        t.leave(30);
        t.leave(100);
        t.enter("outer");
        t.leave(50);
        let p = t.export();
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].calls, 2);
        assert_eq!(p.roots[0].total_cycles, 150);
        assert_eq!(p.roots[0].children[0].total_cycles, 30);
        t.reset(&[]);
        assert!(t.export().is_empty());
        // Reset under an open stack re-roots the in-flight frames.
        t.enter("open");
        t.reset(&["open"]);
        t.leave(7);
        assert_eq!(t.export().roots[0].total_cycles, 7);
    }

    #[test]
    fn phases_summarize_roots() {
        let p = sample();
        assert_eq!(
            p.phases(),
            vec![
                ("exec.deliver".to_string(), 2, 2000),
                ("mem.kmalloc".to_string(), 3, 300),
            ]
        );
        assert_eq!(p.total_calls(), 2 + 4 + 4 + 3);
    }
}
