//! Deterministic per-context metrics: counters, gauges, fixed-bucket
//! histograms, and span-scoped cycle attribution.
//!
//! Everything here is **cycle-stamped and wall-clock-free**: the only
//! notion of time is the simulated [`crate::Clock`], so the same seed
//! and workload always produce a bit-identical [`Snapshot`]. There are
//! no globals — a [`Metrics`] registry lives inside every
//! [`crate::SimCtx`], mirroring how the fault plan is threaded.
//!
//! # Name taxonomy
//!
//! Metric names are dotted `subsystem.metric` tags, mirroring the fault
//! site tags of [`crate::fault`]: `sim_mem.kmalloc.calls`,
//! `sim_iommu.iotlb.hit`, `sim_net.tx.ring_full`,
//! `dkasan.shadow.updates`. Names are `&'static str` so recording is
//! allocation-free; the registry keys on them in a `BTreeMap`, which
//! also fixes the (deterministic) export order. A [`Snapshot`] keys its
//! tables with `Cow<'static, str>`: a live snapshot borrows the
//! registry's names, so taking, merging, diffing and rendering one
//! copies no name; a snapshot loaded from JSON owns the names it read.
//!
//! # Histogram bucket policy
//!
//! All histograms share one fixed bucket layout: powers of two from 1
//! to 2^30, plus an overflow bucket. A recorded value `v` lands in the
//! first bucket whose upper bound is `>= v` (value 0 lands in the `<=1`
//! bucket). The layout never adapts to data, so two runs that record
//! the same values always render the same buckets.

use crate::clock::Cycles;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of finite histogram buckets (upper bounds 2^0 .. 2^30).
pub const HIST_BUCKETS: usize = 31;

/// Upper bound of finite bucket `i` (`2^i`).
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

/// Index of the bucket a value lands in; `HIST_BUCKETS` = overflow.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    let idx = 64 - (v - 1).leading_zeros() as usize;
    idx.min(HIST_BUCKETS)
}

/// A gauge: the last set value plus its observed extremes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Most recently set value.
    pub value: u64,
    /// Smallest value ever set.
    pub min: u64,
    /// Largest value ever set (the high-water mark).
    pub max: u64,
    /// Number of times the gauge was set.
    pub sets: u64,
}

/// A fixed-bucket histogram (see the module docs for the bucket policy).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Finite buckets plus one overflow bucket.
    pub buckets: [u64; HIST_BUCKETS + 1],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Smallest bucket upper bound covering at least `q` per mille of
    /// the recorded values — a deterministic quantile approximation.
    pub fn quantile_bound(&self, q_permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let want = (self.count * q_permille).div_ceil(1000);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= want {
                return if i == HIST_BUCKETS {
                    u64::MAX
                } else {
                    bucket_bound(i)
                };
            }
        }
        u64::MAX
    }

    /// Median bucket bound — `quantile_bound(500)`.
    pub fn p50(&self) -> u64 {
        self.quantile_bound(500)
    }

    /// 90th-percentile bucket bound — `quantile_bound(900)`.
    pub fn p90(&self) -> u64 {
        self.quantile_bound(900)
    }

    /// 99th-percentile bucket bound — `quantile_bound(990)`.
    pub fn p99(&self) -> u64 {
        self.quantile_bound(990)
    }
}

/// One completed span occurrence on the timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (`phase.subphase` style).
    pub name: &'static str,
    /// Cycle the span was entered.
    pub start: Cycles,
    /// Cycle the span was exited.
    pub end: Cycles,
    /// Nesting depth at entry (0 = top level).
    pub depth: u32,
}

/// Aggregated per-name span statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Completed occurrences.
    pub count: u64,
    /// Total inclusive cycles across occurrences.
    pub total_cycles: Cycles,
    /// Longest single occurrence.
    pub max_cycles: Cycles,
}

/// Opaque token returned by `span_begin`, consumed by `span_end`.
/// Spans must nest (LIFO); ending out of order records the top span.
#[derive(Debug)]
#[must_use = "pass this token to SimCtx::span_end"]
pub struct SpanToken(pub(crate) usize);

/// Cap on stored timeline records; aggregates keep counting past it.
pub const TIMELINE_CAP: usize = 4096;

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct SpanSet {
    /// `(name, entry cycle, visible)`. Visible spans feed the timeline
    /// and the per-name aggregates; profile-only frames (`visible =
    /// false`) feed *only* the call tree, so instrumenting a hot path
    /// never changes snapshots, coverage folding, or any committed
    /// trajectory.
    stack: Vec<(&'static str, Cycles, bool)>,
    timeline: Vec<SpanRecord>,
    agg: BTreeMap<&'static str, SpanAgg>,
    timeline_dropped: u64,
}

/// The per-context metric registry. Cheap when untouched: every table
/// starts empty and only grows on first use of a name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    hists: BTreeMap<&'static str, Histogram>,
    spans: SpanSet,
    profile: crate::profile::ProfTree,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds 1 to counter `name`.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to counter `name`.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Sets gauge `name`, updating its min/max watermarks.
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, v: u64) {
        let g = self.gauges.entry(name).or_insert(Gauge {
            value: v,
            min: v,
            max: v,
            sets: 0,
        });
        g.value = v;
        g.min = g.min.min(v);
        g.max = g.max.max(v);
        g.sets += 1;
    }

    /// Records `v` into histogram `name`.
    #[inline]
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().observe(v);
    }

    /// Merges an externally accumulated histogram into `name`
    /// (bucket-wise). Lets components without a `SimCtx` — e.g. the
    /// D-KASAN replay engine — publish their cost profile afterwards.
    pub fn merge_histogram(&mut self, name: &'static str, h: &Histogram) {
        let dst = self.hists.entry(name).or_default();
        for (d, s) in dst.buckets.iter_mut().zip(h.buckets.iter()) {
            *d += s;
        }
        dst.count += h.count;
        dst.sum += h.sum;
        dst.max = dst.max.max(h.max);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if ever observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Aggregated stats for span `name`, if it ever completed.
    pub fn span_agg(&self, name: &str) -> Option<SpanAgg> {
        self.spans.agg.get(name).copied()
    }

    /// The stored span timeline (capped at [`TIMELINE_CAP`] records).
    pub fn span_timeline(&self) -> &[SpanRecord] {
        &self.spans.timeline
    }

    /// Number of distinct metric names across all tables.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len() + self.spans.agg.len()
    }

    /// `true` if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn span_begin_at(&mut self, name: &'static str, now: Cycles) -> SpanToken {
        self.spans.stack.push((name, now, true));
        self.profile.enter(name);
        SpanToken(self.spans.stack.len())
    }

    /// Opens a *profile-only* frame: it shares the span stack (so
    /// nesting under visible spans is exact) and feeds the call tree,
    /// but never touches the timeline or the span aggregates.
    pub(crate) fn prof_begin_at(&mut self, name: &'static str, now: Cycles) -> SpanToken {
        self.spans.stack.push((name, now, false));
        self.profile.enter(name);
        SpanToken(self.spans.stack.len())
    }

    pub(crate) fn span_end_at(&mut self, token: SpanToken, now: Cycles) {
        // Tolerate out-of-order ends: unwind to the token's depth so a
        // missed inner end cannot corrupt attribution forever.
        while self.spans.stack.len() >= token.0.max(1) {
            let Some((name, start, visible)) = self.spans.stack.pop() else {
                return;
            };
            self.profile.leave(now - start);
            if visible {
                let depth = self
                    .spans
                    .stack
                    .iter()
                    .filter(|(_, _, visible)| *visible)
                    .count() as u32;
                if self.spans.timeline.len() < TIMELINE_CAP {
                    self.spans.timeline.push(SpanRecord {
                        name,
                        start,
                        end: now,
                        depth,
                    });
                } else {
                    self.spans.timeline_dropped += 1;
                }
                let agg = self.spans.agg.entry(name).or_default();
                agg.count += 1;
                agg.total_cycles += now - start;
                agg.max_cycles = agg.max_cycles.max(now - start);
            }
            if self.spans.stack.len() < token.0 {
                break;
            }
        }
    }

    /// Drops the accumulated call tree, re-rooting any still-open
    /// frames — the per-exec reset point that keeps boot cost out of
    /// execution profiles. Counters, histograms, spans, and the
    /// timeline are untouched.
    pub fn profile_reset(&mut self) {
        let open: Vec<&'static str> = self.spans.stack.iter().map(|(name, _, _)| *name).collect();
        self.profile.reset(&open);
    }

    /// Freezes the call tree into an export-ready
    /// [`crate::profile::Profile`]. Open frames contribute their calls
    /// but no cycles until they close.
    pub fn profile(&self) -> crate::profile::Profile {
        self.profile.export()
    }

    /// Restores counter `name` to an absolute value (checkpoint resume).
    pub fn restore_counter(&mut self, name: &'static str, v: u64) {
        self.counters.insert(name, v);
    }

    /// Restores gauge `name` including its watermarks (checkpoint resume).
    pub fn restore_gauge(&mut self, name: &'static str, g: Gauge) {
        self.gauges.insert(name, g);
    }

    /// Restores histogram `name` wholesale (checkpoint resume).
    pub fn restore_histogram(&mut self, name: &'static str, h: Histogram) {
        self.hists.insert(name, h);
    }

    /// Restores the aggregate for span `name` (checkpoint resume). The
    /// per-record timeline is not restored — only the recorder window
    /// and aggregates survive a resume, which the snapshot format
    /// documents.
    pub fn restore_span_agg(&mut self, name: &'static str, s: SpanAgg) {
        self.spans.agg.insert(name, s);
    }

    /// Restores the count of timeline records dropped past
    /// [`TIMELINE_CAP`] (checkpoint resume).
    pub fn restore_timeline_dropped(&mut self, n: u64) {
        self.spans.timeline_dropped = n;
    }

    /// Takes a deterministic snapshot, stamped with the current cycle.
    /// Its names borrow the registry's `&'static str`s.
    pub fn snapshot(&self, now: Cycles) -> Snapshot {
        Snapshot {
            at: now,
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (Cow::Borrowed(*k), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (Cow::Borrowed(*k), *v))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, v)| (Cow::Borrowed(*k), v.clone()))
                .collect(),
            spans: self
                .spans
                .agg
                .iter()
                .map(|(k, v)| (Cow::Borrowed(*k), *v))
                .collect(),
            timeline_dropped: self.spans.timeline_dropped,
        }
    }
}

/// A frozen, export-ready view of a [`Metrics`] registry.
///
/// Field order inside every table is the `BTreeMap` (lexicographic)
/// order of the source registry, so both renderers below are
/// byte-deterministic for a given simulation history. Names are
/// borrowed from the registry ([`Metrics::snapshot`]) or owned
/// ([`Snapshot::from_json`]); equality compares their text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Simulated cycle the snapshot was taken at.
    pub at: Cycles,
    /// Counter table.
    pub counters: Vec<(Cow<'static, str>, u64)>,
    /// Gauge table.
    pub gauges: Vec<(Cow<'static, str>, Gauge)>,
    /// Histogram table.
    pub hists: Vec<(Cow<'static, str>, Histogram)>,
    /// Span aggregates.
    pub spans: Vec<(Cow<'static, str>, SpanAgg)>,
    /// Timeline records dropped past [`TIMELINE_CAP`].
    pub timeline_dropped: u64,
}

impl Snapshot {
    /// Total number of distinct metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len() + self.spans.len()
    }

    /// `true` when the snapshot carries no metrics.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable table rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics @ {} cycles", self.at);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<40} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(
                out,
                "\ngauges:                                           cur          min          max"
            );
            for (k, g) in &self.gauges {
                let _ = writeln!(out, "  {k:<40} {:>12} {:>12} {:>12}", g.value, g.min, g.max);
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "\nhistograms:                                     count         mean          p99          max");
            for (k, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {k:<40} {:>12} {:>12} {:>12} {:>12}",
                    h.count,
                    h.mean(),
                    h.p99(),
                    h.max
                );
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "\nspans:                                          count       cycles   max_cycles"
            );
            for (k, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {k:<40} {:>12} {:>12} {:>12}",
                    s.count, s.total_cycles, s.max_cycles
                );
            }
        }
        out
    }

    /// Machine-readable rendering: serde-free, hand-rolled JSON with
    /// sorted keys and integer-only values — byte-identical for
    /// identical simulation histories.
    pub fn to_json(&self) -> String {
        let mut w = crate::jsonw::JsonWriter::new();
        w.obj(|w| {
            w.field_u64("at_cycles", self.at);
            w.field("counters", |w| {
                w.obj(|w| {
                    for (k, v) in &self.counters {
                        w.field_u64(k, *v);
                    }
                });
            });
            w.field("gauges", |w| {
                w.obj(|w| {
                    for (k, g) in &self.gauges {
                        w.field(k, |w| {
                            w.obj(|w| {
                                w.field_u64("value", g.value);
                                w.field_u64("min", g.min);
                                w.field_u64("max", g.max);
                                w.field_u64("sets", g.sets);
                            });
                        });
                    }
                });
            });
            w.field("histograms", |w| {
                w.obj(|w| {
                    for (k, h) in &self.hists {
                        w.field(k, |w| {
                            w.obj(|w| {
                                w.field_u64("count", h.count);
                                w.field_u64("sum", h.sum);
                                w.field_u64("max", h.max);
                                w.field_u64("mean", h.mean());
                                // Derived like `mean`: recomputed on
                                // render, ignored by `from_json`.
                                w.field_u64("p50", h.p50());
                                w.field_u64("p90", h.p90());
                                w.field_u64("p99", h.p99());
                                w.field("buckets", |w| {
                                    w.arr(|w| {
                                        // Only non-empty buckets, as
                                        // [bound, count] pairs; the
                                        // overflow bucket uses bound 0.
                                        for (i, c) in h.buckets.iter().enumerate() {
                                            if *c == 0 {
                                                continue;
                                            }
                                            let bound = if i == HIST_BUCKETS {
                                                0
                                            } else {
                                                bucket_bound(i)
                                            };
                                            w.elem(|w| {
                                                w.arr(|w| {
                                                    w.elem(|w| w.u64(bound));
                                                    w.elem(|w| w.u64(*c));
                                                });
                                            });
                                        }
                                    });
                                });
                            });
                        });
                    }
                });
            });
            w.field("spans", |w| {
                w.obj(|w| {
                    for (k, s) in &self.spans {
                        w.field(k, |w| {
                            w.obj(|w| {
                                w.field_u64("count", s.count);
                                w.field_u64("total_cycles", s.total_cycles);
                                w.field_u64("max_cycles", s.max_cycles);
                            });
                        });
                    }
                });
            });
            w.field_u64("timeline_dropped", self.timeline_dropped);
        });
        w.finish()
    }
}

impl Snapshot {
    /// Rebuilds a snapshot from its [`Snapshot::to_json`] rendering.
    ///
    /// This is the load half of the `stats --diff` and `serve` delta
    /// surfaces: dumps written by one process (or committed to disk)
    /// can be compared against live registries without serde. Returns
    /// `None` on structurally invalid input; the round trip
    /// `from_json(s.to_json())` is exact (the derived `mean` field is
    /// ignored on load and recomputed on render). The loaded snapshot
    /// owns its names: they come from a file, so they are neither
    /// interned nor leaked.
    pub fn from_json(doc: &str) -> Option<Snapshot> {
        let v = crate::jsonr::parse(doc).ok()?;
        Snapshot::from_jvalue(&v)
    }

    /// [`Snapshot::from_json`] over an already-parsed [`crate::JValue`].
    pub fn from_jvalue(v: &crate::JValue) -> Option<Snapshot> {
        let at = v.u64_field("at_cycles")?;
        let mut counters = Vec::new();
        for (k, c) in v.get("counters")?.as_obj()? {
            counters.push((Cow::Owned(k.clone()), c.as_u64()?));
        }
        let mut gauges = Vec::new();
        for (k, g) in v.get("gauges")?.as_obj()? {
            gauges.push((
                Cow::Owned(k.clone()),
                Gauge {
                    value: g.u64_field("value")?,
                    min: g.u64_field("min")?,
                    max: g.u64_field("max")?,
                    sets: g.u64_field("sets")?,
                },
            ));
        }
        let mut hists = Vec::new();
        for (k, h) in v.get("histograms")?.as_obj()? {
            let mut hist = Histogram {
                count: h.u64_field("count")?,
                sum: h.u64_field("sum")?,
                max: h.u64_field("max")?,
                ..Default::default()
            };
            for pair in h.get("buckets")?.as_arr()? {
                let pair = pair.as_arr()?;
                if pair.len() != 2 {
                    return None;
                }
                let (bound, n) = (pair[0].as_u64()?, pair[1].as_u64()?);
                // Bounds are powers of two (bound 0 = overflow bucket);
                // anything else is not a bucket this layout produced.
                let idx = if bound == 0 {
                    HIST_BUCKETS
                } else {
                    let idx = bound.trailing_zeros() as usize;
                    if idx >= HIST_BUCKETS || bucket_bound(idx) != bound {
                        return None;
                    }
                    idx
                };
                hist.buckets[idx] = n;
            }
            hists.push((Cow::Owned(k.clone()), hist));
        }
        let mut spans = Vec::new();
        for (k, s) in v.get("spans")?.as_obj()? {
            spans.push((
                Cow::Owned(k.clone()),
                SpanAgg {
                    count: s.u64_field("count")?,
                    total_cycles: s.u64_field("total_cycles")?,
                    max_cycles: s.u64_field("max_cycles")?,
                },
            ));
        }
        Some(Snapshot {
            at,
            counters,
            gauges,
            hists,
            spans,
            timeline_dropped: v.u64_field("timeline_dropped")?,
        })
    }

    /// Computes the per-metric change from `prev` to `self`.
    ///
    /// This is the delta layer behind `dma-lab serve`'s incremental
    /// stats frames and `dma-lab stats --diff`: instead of shipping a
    /// full dump every poll, a client receives only the metrics whose
    /// value moved since the previous snapshot, each with its signed
    /// delta. Metrics present in `prev` but absent from `self` are
    /// reported as having dropped to zero — for live registries that
    /// never happens (registries only grow), so in file-diff mode it
    /// flags a genuinely suspect trajectory. Names are shared with the
    /// inputs (`Cow` clones), so a delta of live snapshots copies none.
    pub fn diff(&self, prev: &Snapshot) -> SnapshotDelta {
        fn union_keys<'a, T>(
            new: &'a [(Cow<'static, str>, T)],
            old: &'a [(Cow<'static, str>, T)],
        ) -> Vec<&'a Cow<'static, str>> {
            let mut keys: Vec<&Cow<'static, str>> = new.iter().chain(old).map(|(k, _)| k).collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        }
        fn find<'a, T>(table: &'a [(Cow<'static, str>, T)], key: &str) -> Option<&'a T> {
            table.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }

        let mut counters = Vec::new();
        for k in union_keys(&self.counters, &prev.counters) {
            let new = find(&self.counters, k).copied().unwrap_or(0);
            let old = find(&prev.counters, k).copied().unwrap_or(0);
            if new != old {
                counters.push((k.clone(), new, new as i64 - old as i64));
            }
        }
        let mut gauges = Vec::new();
        for k in union_keys(&self.gauges, &prev.gauges) {
            let new = find(&self.gauges, k).copied().unwrap_or_default();
            let old = find(&prev.gauges, k).copied().unwrap_or_default();
            if new != old {
                gauges.push((k.clone(), new, new.value as i64 - old.value as i64));
            }
        }
        // A histogram absent on one side compares against this one.
        let zero = Histogram::default();
        let mut hists = Vec::new();
        for k in union_keys(&self.hists, &prev.hists) {
            let new = find(&self.hists, k).unwrap_or(&zero);
            let old = find(&prev.hists, k).unwrap_or(&zero);
            if new != old {
                hists.push((
                    k.clone(),
                    HistDelta {
                        count: new.count,
                        count_delta: new.count as i64 - old.count as i64,
                        sum_delta: new.sum as i64 - old.sum as i64,
                        max: new.max,
                    },
                ));
            }
        }
        let mut spans = Vec::new();
        for k in union_keys(&self.spans, &prev.spans) {
            let new = find(&self.spans, k).copied().unwrap_or_default();
            let old = find(&prev.spans, k).copied().unwrap_or_default();
            if new != old {
                spans.push((
                    k.clone(),
                    SpanDelta {
                        count: new.count,
                        count_delta: new.count as i64 - old.count as i64,
                        cycles_delta: new.total_cycles as i64 - old.total_cycles as i64,
                    },
                ));
            }
        }
        fn absent<T>(
            new: &[(Cow<'static, str>, T)],
            old: &[(Cow<'static, str>, T)],
            missing: &mut Vec<Cow<'static, str>>,
        ) {
            for (k, _) in old {
                if !new.iter().any(|(nk, _)| nk == k) {
                    missing.push(k.clone());
                }
            }
        }
        let mut missing = Vec::new();
        absent(&self.counters, &prev.counters, &mut missing);
        absent(&self.gauges, &prev.gauges, &mut missing);
        absent(&self.hists, &prev.hists, &mut missing);
        absent(&self.spans, &prev.spans, &mut missing);
        missing.sort_unstable();
        missing.dedup();

        SnapshotDelta {
            from: prev.at,
            at: self.at,
            counters,
            gauges,
            hists,
            spans,
            missing,
            timeline_dropped_delta: self.timeline_dropped as i64 - prev.timeline_dropped as i64,
        }
    }

    /// Folds `other` into `self` — the deterministic shard-merge
    /// operation behind `ShardedCampaign`.
    ///
    /// Counters, histogram buckets/counts/sums, span counts/cycles, the
    /// cycle stamp, and `timeline_dropped` add; histogram/span maxima
    /// take the maximum. Gauges aggregate as if the shards were one
    /// machine observed together: values and set counts add, watermarks
    /// take the min-of-mins / max-of-maxes. Tables stay sorted by name,
    /// so merging the same snapshots in the same order is byte-stable —
    /// and because each input is itself deterministic, the fold is too.
    ///
    /// When a table of both snapshots lists the same names in the same
    /// strictly increasing order — every pair of live registries of one
    /// campaign shape, such as a session's shards — its values combine
    /// in place. Any other pair of tables folds through a sorted map,
    /// which sorts and deduplicates them; both give the same table.
    pub fn merge(&mut self, other: &Snapshot) {
        fn fold<T: Clone>(
            dst: &mut Vec<(Cow<'static, str>, T)>,
            src: &[(Cow<'static, str>, T)],
            combine: impl Fn(&mut T, &T),
        ) {
            let aligned = dst.len() == src.len()
                && dst.iter().zip(src).all(|((d, _), (s, _))| d == s)
                && dst.windows(2).all(|w| w[0].0 < w[1].0);
            if aligned {
                for ((_, d), (_, s)) in dst.iter_mut().zip(src) {
                    combine(d, s);
                }
                return;
            }
            let mut map: BTreeMap<Cow<'static, str>, T> = dst.drain(..).collect();
            for (k, v) in src {
                match map.get_mut(k) {
                    Some(d) => combine(d, v),
                    None => {
                        map.insert(k.clone(), v.clone());
                    }
                }
            }
            *dst = map.into_iter().collect();
        }
        self.at += other.at;
        fold(&mut self.counters, &other.counters, |d, s| *d += *s);
        fold(&mut self.gauges, &other.gauges, |d, s| {
            if d.sets == 0 {
                *d = *s;
            } else if s.sets > 0 {
                d.value += s.value;
                d.min = d.min.min(s.min);
                d.max = d.max.max(s.max);
                d.sets += s.sets;
            }
        });
        fold(&mut self.hists, &other.hists, |d, s| {
            for (db, sb) in d.buckets.iter_mut().zip(s.buckets.iter()) {
                *db += sb;
            }
            d.count += s.count;
            d.sum += s.sum;
            d.max = d.max.max(s.max);
        });
        fold(&mut self.spans, &other.spans, |d, s| {
            d.count += s.count;
            d.total_cycles += s.total_cycles;
            d.max_cycles = d.max_cycles.max(s.max_cycles);
        });
        self.timeline_dropped += other.timeline_dropped;
    }
}

/// Change of one histogram between two snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistDelta {
    /// New total count.
    pub count: u64,
    /// Count change since the previous snapshot.
    pub count_delta: i64,
    /// Sum change since the previous snapshot.
    pub sum_delta: i64,
    /// New maximum.
    pub max: u64,
}

/// Change of one span aggregate between two snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanDelta {
    /// New completed-occurrence count.
    pub count: u64,
    /// Occurrence change since the previous snapshot.
    pub count_delta: i64,
    /// Inclusive-cycle change since the previous snapshot.
    pub cycles_delta: i64,
}

/// The cycle-stamped difference between two [`Snapshot`]s: only the
/// metrics that changed, each with its signed delta. Produced by
/// [`Snapshot::diff`]; rendered deterministically by
/// [`SnapshotDelta::to_json`] (the `serve` delta-frame body) and
/// [`SnapshotDelta::render_text`] (the `stats --diff` table).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// Cycle stamp of the previous snapshot.
    pub from: Cycles,
    /// Cycle stamp of the new snapshot.
    pub at: Cycles,
    /// Changed counters: `(name, new_value, delta)`.
    pub counters: Vec<(Cow<'static, str>, u64, i64)>,
    /// Changed gauges: `(name, new_gauge, value_delta)`.
    pub gauges: Vec<(Cow<'static, str>, Gauge, i64)>,
    /// Changed histograms.
    pub hists: Vec<(Cow<'static, str>, HistDelta)>,
    /// Changed span aggregates.
    pub spans: Vec<(Cow<'static, str>, SpanDelta)>,
    /// Metrics present in the previous snapshot but absent from the new
    /// one — any table, sorted. A live registry never loses a metric
    /// (registries only grow), so across two dumps a vanished metric is
    /// as suspect as a counter going backwards; a zero-valued counter
    /// that disappears would otherwise be invisible (no value moved).
    pub missing: Vec<Cow<'static, str>>,
    /// Change in dropped timeline records.
    pub timeline_dropped_delta: i64,
}

impl SnapshotDelta {
    /// Number of changed metrics across all tables.
    pub fn changed(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len() + self.spans.len()
    }

    /// `true` when nothing moved between the two snapshots.
    pub fn is_empty(&self) -> bool {
        self.changed() == 0 && self.missing.is_empty() && self.timeline_dropped_delta == 0
    }

    /// Counters that went *backwards* — impossible for one live
    /// registry (counters are monotone), so across two dumps it marks a
    /// regression: a code path that stopped firing, or dumps compared
    /// in the wrong order. `stats --diff` exits non-zero when this is
    /// non-empty.
    pub fn regressed_counters(&self) -> Vec<&str> {
        self.counters
            .iter()
            .filter(|(_, _, d)| *d < 0)
            .map(|(k, _, _)| k.as_ref())
            .collect()
    }

    /// `true` when the delta shows a regression: a counter went
    /// backwards *or* a metric vanished entirely. `stats --diff` gates
    /// on this, so a shard-merge bug that drops a metric can't hide
    /// behind "nothing changed".
    pub fn has_regressions(&self) -> bool {
        !self.missing.is_empty() || !self.regressed_counters().is_empty()
    }

    /// Deterministic JSON rendering (sorted keys, changed metrics only).
    pub fn to_json(&self) -> String {
        let mut w = crate::jsonw::JsonWriter::new();
        w.obj(|w| {
            w.field_u64("from_cycles", self.from);
            w.field_u64("at_cycles", self.at);
            w.field_u64("changed", self.changed() as u64);
            w.field("counters", |w| {
                w.obj(|w| {
                    for (k, v, d) in &self.counters {
                        w.field(k, |w| {
                            w.obj(|w| {
                                w.field_u64("value", *v);
                                w.field_i64("delta", *d);
                            });
                        });
                    }
                });
            });
            w.field("gauges", |w| {
                w.obj(|w| {
                    for (k, g, d) in &self.gauges {
                        w.field(k, |w| {
                            w.obj(|w| {
                                w.field_u64("value", g.value);
                                w.field_u64("min", g.min);
                                w.field_u64("max", g.max);
                                w.field_u64("sets", g.sets);
                                w.field_i64("delta", *d);
                            });
                        });
                    }
                });
            });
            w.field("histograms", |w| {
                w.obj(|w| {
                    for (k, h) in &self.hists {
                        w.field(k, |w| {
                            w.obj(|w| {
                                w.field_u64("count", h.count);
                                w.field_i64("count_delta", h.count_delta);
                                w.field_i64("sum_delta", h.sum_delta);
                                w.field_u64("max", h.max);
                            });
                        });
                    }
                });
            });
            w.field("spans", |w| {
                w.obj(|w| {
                    for (k, s) in &self.spans {
                        w.field(k, |w| {
                            w.obj(|w| {
                                w.field_u64("count", s.count);
                                w.field_i64("count_delta", s.count_delta);
                                w.field_i64("cycles_delta", s.cycles_delta);
                            });
                        });
                    }
                });
            });
            w.field("missing", |w| {
                w.arr(|w| {
                    for k in &self.missing {
                        w.elem(|w| w.str(k));
                    }
                });
            });
            w.field_i64("timeline_dropped_delta", self.timeline_dropped_delta);
        });
        w.finish()
    }

    /// Human-readable per-metric delta table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "delta over {} cycles ({} -> {}), {} metric(s) changed",
            self.at.saturating_sub(self.from),
            self.from,
            self.at,
            self.changed()
        );
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (k, v, d) in &self.counters {
                let _ = writeln!(out, "  {k:<40} {v:>12} ({d:>+8})");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\ngauges:");
            for (k, g, d) in &self.gauges {
                let _ = writeln!(out, "  {k:<40} {:>12} ({d:>+8})", g.value);
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "\nhistograms:");
            for (k, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {k:<40} {:>12} ({:>+8})  max {}",
                    h.count, h.count_delta, h.max
                );
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "\nspans:");
            for (k, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {k:<40} {:>12} ({:>+8})  cycles {:>+10}",
                    s.count, s.count_delta, s.cycles_delta
                );
            }
        }
        let regressed = self.regressed_counters();
        if !regressed.is_empty() {
            let _ = writeln!(out, "\nREGRESSED counters: {}", regressed.join(", "));
        }
        if !self.missing.is_empty() {
            let _ = writeln!(out, "\nMISSING metrics: {}", self.missing.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_ceil_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 30), 30);
        assert_eq!(bucket_index((1 << 30) + 1), HIST_BUCKETS);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut m = Metrics::new();
        m.incr("a.calls");
        m.add("a.calls", 4);
        m.gauge_set("a.depth", 3);
        m.gauge_set("a.depth", 9);
        m.gauge_set("a.depth", 1);
        assert_eq!(m.counter("a.calls"), 5);
        let g = m.gauge("a.depth").unwrap();
        assert_eq!((g.value, g.min, g.max, g.sets), (1, 1, 9, 3));
    }

    #[test]
    fn histogram_tracks_count_sum_and_quantiles() {
        let mut m = Metrics::new();
        for v in [1u64, 2, 2, 100, 5000] {
            m.observe("h", v);
        }
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 5105);
        assert_eq!(h.max, 5000);
        assert_eq!(h.mean(), 1021);
        assert_eq!(h.quantile_bound(500), 2, "median within the <=2 bucket");
        assert_eq!(h.quantile_bound(1000), 8192, "max within the <=8192 bucket");
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let mut m = Metrics::new();
        let outer = m.span_begin_at("outer", 100);
        let inner = m.span_begin_at("inner", 120);
        m.span_end_at(inner, 150);
        m.span_end_at(outer, 200);
        let tl = m.span_timeline();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].name, "inner");
        assert_eq!(tl[0].depth, 1);
        assert_eq!(tl[1].name, "outer");
        assert_eq!(tl[1].depth, 0);
        assert_eq!(m.span_agg("outer").unwrap().total_cycles, 100);
        assert_eq!(m.span_agg("inner").unwrap().total_cycles, 30);
    }

    #[test]
    fn percentile_helpers_match_quantile_bounds() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 2, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.p50(), h.quantile_bound(500));
        assert_eq!(h.p90(), h.quantile_bound(900));
        assert_eq!(h.p99(), h.quantile_bound(990));
        assert_eq!(h.p50(), 2);
        assert_eq!(h.p99(), 8192);
    }

    #[test]
    fn snapshot_json_carries_derived_percentiles() {
        let mut m = Metrics::new();
        m.observe("lat", 7);
        let doc = m.snapshot(0).to_json();
        for key in ["\"p50\":8", "\"p90\":8", "\"p99\":8"] {
            assert!(doc.contains(key), "missing {key} in:\n{doc}");
        }
        // Still parses and round-trips (derived fields re-derived).
        let back = Snapshot::from_json(&doc).unwrap();
        assert_eq!(back.to_json(), doc);
    }

    #[test]
    fn profile_only_frames_are_invisible_to_snapshots() {
        let mut m = Metrics::new();
        let t = m.prof_begin_at("hot.path", 0);
        m.span_end_at(t, 500);
        assert!(m.span_agg("hot.path").is_none());
        assert!(m.span_timeline().is_empty());
        assert!(m.snapshot(0).spans.is_empty());
        let p = m.profile();
        assert_eq!(p.roots[0].name, "hot.path");
        assert_eq!(p.roots[0].total_cycles, 500);
    }

    #[test]
    fn visible_and_profile_frames_share_one_call_tree() {
        let mut m = Metrics::new();
        let outer = m.span_begin_at("rx.poll", 0);
        let inner = m.prof_begin_at("iommu.map", 10);
        m.span_end_at(inner, 40);
        m.span_end_at(outer, 100);
        // Snapshot sees only the visible span, at depth 0.
        assert_eq!(m.snapshot(0).spans.len(), 1);
        assert_eq!(m.span_timeline()[0].depth, 0);
        // The tree nests the profile-only frame under it.
        let p = m.profile();
        assert_eq!(p.roots[0].name, "rx.poll");
        assert_eq!(p.roots[0].children[0].name, "iommu.map");
        assert_eq!(p.roots[0].children[0].total_cycles, 30);
        assert_eq!(p.roots[0].self_cycles(), 70);
    }

    #[test]
    fn profile_reset_clears_the_tree_but_not_the_spans() {
        let mut m = Metrics::new();
        let t = m.span_begin_at("boot", 0);
        m.span_end_at(t, 50);
        m.profile_reset();
        assert!(m.profile().is_empty());
        assert_eq!(m.span_agg("boot").unwrap().count, 1, "aggregates survive");
        let t = m.prof_begin_at("exec.deliver", 100);
        m.span_end_at(t, 160);
        assert_eq!(m.profile().roots[0].total_cycles, 60);
    }

    #[test]
    fn unwinding_a_torn_profile_frame_keeps_the_cursor_in_lockstep() {
        let mut m = Metrics::new();
        let outer = m.span_begin_at("outer", 0);
        let _torn = m.prof_begin_at("torn", 10);
        m.span_end_at(outer, 50);
        let p = m.profile();
        assert_eq!(p.roots[0].name, "outer");
        assert_eq!(p.roots[0].children[0].name, "torn");
        assert_eq!(p.roots[0].children[0].total_cycles, 40);
        assert_eq!(p.roots[0].total_cycles, 50);
        // Aggregates only saw the visible span.
        assert!(m.span_agg("torn").is_none());
        assert_eq!(m.span_agg("outer").unwrap().count, 1);
    }

    #[test]
    fn unbalanced_span_end_unwinds_to_token() {
        let mut m = Metrics::new();
        let outer = m.span_begin_at("outer", 0);
        let _leaked = m.span_begin_at("leaked", 10);
        // Ending the outer token also closes the leaked inner span.
        m.span_end_at(outer, 50);
        assert_eq!(m.span_agg("leaked").unwrap().count, 1);
        assert_eq!(m.span_agg("outer").unwrap().count, 1);
        assert!(m.span_timeline().len() == 2);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let build = || {
            let mut m = Metrics::new();
            m.incr("z.last");
            m.incr("a.first");
            m.observe("lat", 7);
            m.gauge_set("g", 2);
            let t = m.span_begin_at("phase", 5);
            m.span_end_at(t, 25);
            m.snapshot(1234).to_json()
        };
        let a = build();
        assert_eq!(a, build(), "same history must render byte-identically");
        assert!(a.find("a.first").unwrap() < a.find("z.last").unwrap());
        assert!(a.contains("\"at_cycles\":1234"));
    }

    #[test]
    fn timeline_caps_but_aggregates_keep_counting() {
        let mut m = Metrics::new();
        for i in 0..(TIMELINE_CAP as u64 + 10) {
            let t = m.span_begin_at("hot", i);
            m.span_end_at(t, i + 1);
        }
        assert_eq!(m.span_timeline().len(), TIMELINE_CAP);
        assert_eq!(m.span_agg("hot").unwrap().count, TIMELINE_CAP as u64 + 10);
        assert_eq!(m.snapshot(0).timeline_dropped, 10);
    }

    #[test]
    fn restore_methods_rebuild_an_identical_registry() {
        let mut m = Metrics::new();
        m.add("c", 41);
        m.gauge_set("g", 7);
        m.gauge_set("g", 3);
        m.observe("h", 9);
        m.observe("h", 1 << 40);
        let t = m.span_begin_at("s", 10);
        m.span_end_at(t, 30);
        m.restore_timeline_dropped(5);

        let mut r = Metrics::new();
        r.restore_counter("c", m.counter("c"));
        r.restore_gauge("g", m.gauge("g").unwrap());
        r.restore_histogram("h", m.histogram("h").unwrap().clone());
        r.restore_span_agg("s", m.span_agg("s").unwrap());
        r.restore_timeline_dropped(5);
        assert_eq!(
            m.snapshot(0).to_json(),
            r.snapshot(0).to_json(),
            "restored registry must render byte-identically"
        );
    }

    #[test]
    fn render_text_lists_every_table() {
        let mut m = Metrics::new();
        m.incr("c");
        m.gauge_set("g", 1);
        m.observe("h", 2);
        let t = m.span_begin_at("s", 0);
        m.span_end_at(t, 1);
        let txt = m.snapshot(9).render_text();
        for needle in ["counters:", "gauges:", "histograms:", "spans:", "9 cycles"] {
            assert!(txt.contains(needle), "missing {needle} in:\n{txt}");
        }
    }

    fn busy_registry() -> Metrics {
        let mut m = Metrics::new();
        m.add("pkts", 3);
        m.incr("drops");
        m.gauge_set("ring", 7);
        m.gauge_set("ring", 2);
        m.observe("lat", 1);
        m.observe("lat", 900);
        m.observe("lat", 1 << 40); // overflow bucket
        let t = m.span_begin_at("rx", 10);
        m.span_end_at(t, 40);
        m.restore_timeline_dropped(4);
        m
    }

    #[test]
    fn snapshot_json_round_trips_exactly() {
        let snap = busy_registry().snapshot(123);
        let back = Snapshot::from_json(&snap.to_json()).expect("parse own rendering");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), snap.to_json());
    }

    #[test]
    fn snapshot_from_json_rejects_garbage() {
        assert!(Snapshot::from_json("").is_none());
        assert!(Snapshot::from_json("{}").is_none());
        assert!(Snapshot::from_json("[1,2]").is_none());
        // A bucket bound that is not a power of two is not ours.
        let bad = r#"{"at_cycles":0,"counters":{},"gauges":{},
            "histograms":{"h":{"count":1,"sum":3,"max":3,"mean":3.000,
            "buckets":[[3,1]]}},"spans":{},"timeline_dropped":0}"#;
        assert!(Snapshot::from_json(bad).is_none());
    }

    #[test]
    fn diff_reports_only_changed_metrics() {
        let mut m = busy_registry();
        let before = m.snapshot(100);
        m.add("pkts", 5);
        m.incr("fresh");
        m.observe("lat", 16);
        let after = m.snapshot(160);
        let d = after.diff(&before);
        assert_eq!(d.from, 100);
        assert_eq!(d.at, 160);
        let names: Vec<&str> = d.counters.iter().map(|(k, _, _)| k.as_ref()).collect();
        assert_eq!(names, ["fresh", "pkts"], "drops did not change");
        assert!(d.counters.contains(&("pkts".into(), 8, 5)));
        assert!(d.counters.contains(&("fresh".into(), 1, 1)));
        assert!(d.gauges.is_empty() && d.spans.is_empty());
        assert_eq!(d.hists.len(), 1);
        assert_eq!(d.hists[0].1.count_delta, 1);
        assert!(d.regressed_counters().is_empty());
        assert!(after.diff(&after).is_empty());
    }

    #[test]
    fn diff_flags_missing_counters_as_regressions() {
        let mut m = Metrics::new();
        m.add("stable", 2);
        m.add("gone", 9);
        let old = m.snapshot(0);
        let mut n = Metrics::new();
        n.add("stable", 2);
        let new = n.snapshot(10);
        let d = new.diff(&old);
        assert_eq!(d.regressed_counters(), ["gone"]);
        assert!(d.counters.contains(&("gone".into(), 0, -9)));
        let txt = d.render_text();
        assert!(txt.contains("REGRESSED counters: gone"), "{txt}");
    }

    #[test]
    fn diff_flags_vanished_metrics_even_at_value_zero() {
        // A zero-valued counter and a histogram/span/gauge that vanish
        // move no value, so the changed tables alone would miss them.
        let mut m = Metrics::new();
        m.add("zeroed", 0);
        m.observe("lat", 5);
        m.gauge_set("depth", 2);
        let t = m.span_begin_at("phase", 0);
        m.span_end_at(t, 9);
        let old = m.snapshot(0);
        let new = Metrics::new().snapshot(10);
        let d = new.diff(&old);
        assert!(d.has_regressions());
        assert_eq!(d.missing, ["depth", "lat", "phase", "zeroed"]);
        assert!(d.render_text().contains("MISSING metrics:"));
        assert!(d.to_json().contains("\"missing\":[\"depth\""));
        // And an unchanged pair reports none.
        assert!(old.diff(&old).missing.is_empty());
        assert!(!old.diff(&old).has_regressions());
    }

    #[test]
    fn snapshot_merge_adds_deterministically() {
        let shard = |seed: u64| {
            let mut m = Metrics::new();
            m.add("execs", seed);
            m.observe("lat", seed * 3);
            m.gauge_set("ring", seed);
            let t = m.span_begin_at("poll", 0);
            m.span_end_at(t, seed * 10);
            m.snapshot(seed * 100)
        };
        let mut merged = shard(1);
        merged.merge(&shard(2));
        merged.merge(&shard(4));
        assert_eq!(merged.at, 700);
        assert_eq!(merged.counters, [("execs".into(), 7)]);
        let h = &merged.hists[0].1;
        assert_eq!((h.count, h.sum, h.max), (3, 21, 12));
        let g = merged.gauges[0].1;
        assert_eq!((g.value, g.min, g.max, g.sets), (7, 1, 4, 3));
        let s = merged.spans[0].1;
        assert_eq!((s.count, s.total_cycles, s.max_cycles), (3, 70, 40));
        // Identity: merging one snapshot into an empty one is that
        // snapshot with the tables untouched.
        let mut one = Snapshot {
            at: 0,
            counters: vec![],
            gauges: vec![],
            hists: vec![],
            spans: vec![],
            timeline_dropped: 0,
        };
        one.merge(&shard(5));
        assert_eq!(one, shard(5));
        // Associative over this data: (a+b)+c == a+(b+c).
        let mut left = shard(1);
        left.merge(&shard(2));
        left.merge(&shard(4));
        let mut bc = shard(2);
        bc.merge(&shard(4));
        let mut right = shard(1);
        right.merge(&bc);
        assert_eq!(left, right);
    }

    /// Shard merge re-done over `String` keys in a `BTreeMap`, name by
    /// name with the documented rules: the reference `merge` must equal
    /// whether it combines in place or folds.
    fn reference_merge(a: &Snapshot, b: &Snapshot) -> Snapshot {
        fn fold<T: Clone>(
            tables: [&[(Cow<'static, str>, T)]; 2],
            combine: impl Fn(&mut T, &T),
        ) -> Vec<(Cow<'static, str>, T)> {
            let mut map: BTreeMap<String, T> = BTreeMap::new();
            for (k, v) in tables.into_iter().flatten() {
                match map.get_mut(k.as_ref()) {
                    Some(d) => combine(d, v),
                    None => {
                        map.insert(k.to_string(), v.clone());
                    }
                }
            }
            map.into_iter().map(|(k, v)| (Cow::Owned(k), v)).collect()
        }
        Snapshot {
            at: a.at + b.at,
            counters: fold([&a.counters, &b.counters], |d, s| *d += s),
            gauges: fold([&a.gauges, &b.gauges], |d, s| match (d.sets, s.sets) {
                (0, _) => *d = *s,
                (_, 0) => {}
                _ => {
                    *d = Gauge {
                        value: d.value + s.value,
                        min: d.min.min(s.min),
                        max: d.max.max(s.max),
                        sets: d.sets + s.sets,
                    }
                }
            }),
            hists: fold([&a.hists, &b.hists], |d, s| {
                for i in 0..=HIST_BUCKETS {
                    d.buckets[i] += s.buckets[i];
                }
                d.count += s.count;
                d.sum += s.sum;
                d.max = d.max.max(s.max);
            }),
            spans: fold([&a.spans, &b.spans], |d, s| {
                d.count += s.count;
                d.total_cycles += s.total_cycles;
                d.max_cycles = d.max_cycles.max(s.max_cycles);
            }),
            timeline_dropped: a.timeline_dropped + b.timeline_dropped,
        }
    }

    #[test]
    fn merge_equals_a_reference_fold_with_same_or_differing_names() {
        let shard = |seed: u64, extra: bool| {
            let mut m = Metrics::new();
            m.add("execs", seed);
            if extra {
                m.add("drops", seed + 1);
                m.observe("extra.lat", seed * 7);
            }
            m.observe("lat", seed * 3);
            m.observe("lat", 1 << 40);
            m.gauge_set("ring", seed);
            let t = m.span_begin_at("poll", 0);
            m.span_end_at(t, seed * 10);
            m.restore_timeline_dropped(seed);
            m.snapshot(seed * 100)
        };
        // Same names in the same order: the in-place case.
        let (a, b) = (shard(1, false), shard(2, false));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, reference_merge(&a, &b));
        // One shard lacks a counter, the other has an extra histogram:
        // the fold, in either order.
        let (plain, extra) = (shard(3, false), shard(4, true));
        let mut merged = plain.clone();
        merged.merge(&extra);
        assert_eq!(merged, reference_merge(&plain, &extra));
        let names: Vec<&str> = merged.counters.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(names, ["drops", "execs"]);
        let mut merged = extra.clone();
        merged.merge(&plain);
        assert_eq!(merged, reference_merge(&extra, &plain));
    }

    #[test]
    fn an_unsorted_loaded_snapshot_merges_into_sorted_tables() {
        let loaded = Snapshot::from_json(
            r#"{"at_cycles":5,"counters":{"z.last":1,"a.first":2},"gauges":{},
            "histograms":{},"spans":{},"timeline_dropped":0}"#,
        )
        .expect("a valid dump");
        // Same names on both sides, but not in increasing order.
        let mut twice = loaded.clone();
        twice.merge(&loaded);
        assert_eq!(
            twice.counters,
            [("a.first".into(), 4), ("z.last".into(), 2)]
        );
        let mut m = Metrics::new();
        m.add("m.mid", 7);
        m.add("a.first", 1);
        let live = m.snapshot(1);
        let mut live_first = live.clone();
        live_first.merge(&loaded);
        let mut loaded_first = loaded.clone();
        loaded_first.merge(&live);
        for merged in [live_first, loaded_first] {
            assert_eq!(
                merged.counters,
                [
                    ("a.first".into(), 3),
                    ("m.mid".into(), 7),
                    ("z.last".into(), 1)
                ]
            );
        }
    }

    #[test]
    fn diff_compares_a_one_sided_histogram_against_zero() {
        let mut m = Metrics::new();
        m.observe("lat", 5);
        m.observe("lat", 9);
        let with = m.snapshot(10);
        let without = Metrics::new().snapshot(0);
        let grew = with.diff(&without);
        let up = HistDelta {
            count: 2,
            count_delta: 2,
            sum_delta: 14,
            max: 9,
        };
        assert_eq!(grew.hists, [("lat".into(), up)]);
        assert!(grew.missing.is_empty());
        let gone = without.diff(&with);
        let down = HistDelta {
            count: 0,
            count_delta: -2,
            sum_delta: -14,
            max: 0,
        };
        assert_eq!(gone.hists, [("lat".into(), down)]);
        assert_eq!(gone.missing, ["lat"]);
    }

    #[test]
    fn live_snapshots_borrow_names_and_loaded_ones_own_them() {
        fn names(s: &Snapshot) -> Vec<&Cow<'static, str>> {
            let c = s.counters.iter().map(|(k, _)| k);
            let g = s.gauges.iter().map(|(k, _)| k);
            let h = s.hists.iter().map(|(k, _)| k);
            c.chain(g)
                .chain(h)
                .chain(s.spans.iter().map(|(k, _)| k))
                .collect()
        }
        let borrowed = |k: &&Cow<'static, str>| matches!(k, Cow::Borrowed(_));
        let live = busy_registry().snapshot(123);
        assert_eq!(names(&live).len(), 5);
        assert!(names(&live).iter().all(borrowed));
        // Merging and diffing live snapshots keeps borrowing.
        let mut merged = live.clone();
        merged.merge(&live);
        assert!(names(&merged).iter().all(borrowed));
        let d = merged.diff(&live);
        assert!(d
            .counters
            .iter()
            .all(|(k, _, _)| matches!(k, Cow::Borrowed(_))));
        let loaded = Snapshot::from_json(&live.to_json()).expect("parse own rendering");
        assert_eq!(loaded, live);
        assert!(!names(&loaded).iter().any(borrowed));
    }

    #[test]
    fn delta_json_is_deterministic_and_parseable() {
        let mut m = busy_registry();
        let before = m.snapshot(1);
        m.incr("pkts");
        let after = m.snapshot(2);
        let a = after.diff(&before).to_json();
        let b = after.diff(&before).to_json();
        assert_eq!(a, b);
        let v = crate::jsonr::parse(&a).expect("delta json parses");
        assert_eq!(v.u64_field("changed"), Some(1));
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("pkts"))
                .and_then(|p| p.get("delta"))
                .and_then(|d| d.as_i64()),
            Some(1)
        );
    }
}
