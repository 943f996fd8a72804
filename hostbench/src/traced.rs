//! The traced run: the per-layer metrics.
//!
//! It visits all three workloads, the one named by `--workload` for
//! `--seconds` and the other two for their minimum op counts, so every
//! per-layer metric is reported on every traced run; each metric comes
//! from the workload its layer is measured on (the detail line names
//! it, with its sample count).
//!
//! The benchmark can only span calls it makes itself. So next to each
//! real op it drives a replica of that op from outside: the same public
//! calls in the same order, each under its own span. Replicas are
//! deterministic and must reproduce the real op's outputs (corpus
//! signatures, coverage bits, minimizer exec count, merged reports,
//! serve frames); a mismatch fails the op. Replica work runs between
//! ops, off the timed path.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use dma_lab::devsim::{boot_model, BootSpec, DeviceKind};
use dma_lab::dkasan::{investigate, DKasan};
use dma_lab::dma_core::chrome;
use dma_lab::dma_core::{shard_seed, CoverageMap, Event, ProvenanceGraph, Snapshot};
use dma_lab::fuzz::{
    config_device, machine_config, Campaign, ChannelInference, Corpus, ExecContext, ExecOutcome,
    ExecStatus, FuzzInput, ShardOutcome, ShardedCampaign, DEFAULT_WATCHDOG_BUDGET,
    EXEC_RECORDER_CAPACITY, NUM_CONFIGS,
};
use dma_lab::serve::posture_of_config;

use crate::checks::Tally;
use crate::spans::Tracer;
use crate::stats::{median, sorted, tail};
use crate::workloads::{
    frame_bytes, json_list, report_digest, run_for, script, serve_request, serve_session,
    shard_boot_seconds, shard_config, shards_op, step_op, sub_seed, warm_campaign, Req, Scratch,
    CHECKPOINT_EVERY, PERIOD, SERVE_SHARDS, SESSION_DIGEST_REQS, SHARDS, SHARD_ITERS, STEP_N,
    WARM_ITERS,
};
use crate::{Args, Outcome, Workload};

/// Ops a campaign-steady pass makes at least; the simulated-model
/// counts cover exactly these iterations.
const CAMPAIGN_MIN_OPS: u64 = 1000;
/// Clones timed per machine template.
const CLONE_REPS: usize = 16;
/// Quiet boots timed per machine configuration.
const QUIET_BOOT_REPS: usize = 3;
/// Op pairs (one thread, `nproc` threads) behind `shard.thread_speedup`.
const SPEEDUP_PAIRS: usize = 2;

/// Runs the traced run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new(Tally::default());
    let mut tracers = Vec::new();
    for w in Workload::ALL {
        let primary = w == args.workload;
        let seconds = if primary { args.seconds } else { 0.0 };
        let mut tr = Tracer::new();
        let overhead = match w {
            Workload::CampaignSteady => campaign_pass(args.seed, seconds, &mut tr, &mut out)?,
            Workload::ShardsStartup => shards_pass(args.seed, seconds, primary, &mut tr, &mut out)?,
            Workload::ServePoll => serve_pass(args.seed, seconds, &mut tr, &mut out)?,
        };
        if primary {
            let pct = overhead.pct().ok_or("no op with and without spans")?;
            out.metric("trace.overhead_pct", pct, "%", overhead.samples(), w);
            out.fact("overhead_ops_traced", overhead.on.len().to_string());
            out.fact("overhead_ops_untraced", overhead.off.len().to_string());
        }
        tracers.push((w, tr));
    }
    let path = Path::new(".bench_scratch").join(format!("spans-{}.tsv", args.workload.name()));
    write_spans(&path, &tracers).map_err(|e| format!("writing {path:?}: {e}"))?;
    let spans: usize = tracers.iter().map(|(_, t)| t.spans().len()).sum();
    out.fact("spans", spans.to_string());
    out.fact("spans_file", format!("\"{}\"", path.display()));
    out.fact("threads", "1");
    Ok(out)
}

/// Writes every pass's spans, with self times, to one TSV file.
fn write_spans(path: &Path, tracers: &[(Workload, Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "pass\tid\top\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
    for (w, tr) in tracers {
        tr.write_tsv(&mut f, w.name())?;
    }
    f.flush()
}

/// Op latencies with the op's own spans recorded and without, from
/// alternating ops of one pass. Replica work runs after every op either
/// way, so the difference is what the spans cost the op.
#[derive(Default)]
struct Overhead {
    on: Vec<f64>,
    off: Vec<f64>,
}

impl Overhead {
    fn push(&mut self, traced: bool, secs: f64) {
        if traced {
            self.on.push(secs);
        } else {
            self.off.push(secs);
        }
    }

    fn samples(&self) -> usize {
        self.on.len() + self.off.len()
    }

    /// Median traced op latency over median untraced, as a percentage
    /// above 100.
    fn pct(&self) -> Option<f64> {
        (!self.on.is_empty() && !self.off.is_empty())
            .then(|| 100.0 * (median(&self.on) / median(&self.off) - 1.0))
    }
}

/// Adds the median of `xs` as a per-layer metric. A layer that left no
/// samples fails the traced run rather than report a made-up number.
fn med(
    out: &mut Outcome,
    name: &str,
    xs: &[f64],
    unit: &'static str,
    w: Workload,
) -> Result<(), String> {
    if xs.is_empty() {
        return Err(format!("{name}: no samples"));
    }
    out.metric(name, median(xs), unit, xs.len(), w);
    Ok(())
}

/// Adds `num / den` as a per-layer metric drawn from `n` samples.
fn ratio(
    out: &mut Outcome,
    name: &str,
    num: f64,
    den: f64,
    unit: &'static str,
    n: usize,
    w: Workload,
) -> Result<(), String> {
    if den <= 0.0 {
        return Err(format!("{name}: nothing to divide by"));
    }
    out.metric(name, num / den, unit, n, w);
    Ok(())
}

fn ms(us: Vec<f64>) -> Vec<f64> {
    us.into_iter().map(|v| v / 1e3).collect()
}

// ---------------------------------------------------------------- replicas

/// A campaign's generate → execute → consider loop driven from
/// outside, so that each public call gets its own span. It starts at
/// iteration 0 and stays in lock-step with the campaign it mirrors.
struct Split {
    seed: u64,
    next_iter: u64,
    cx: ExecContext,
    corpus: Corpus,
    global: CoverageMap,
    considered: u64,
    admitted: u64,
    replays: u64,
}

/// What one split iteration ran and how long each call took, in ns.
struct SplitIter {
    input: FuzzInput,
    outcome: ExecOutcome,
    generate_ns: u64,
    exec_ns: u64,
    consider_ns: u64,
    admitted: bool,
}

impl Split {
    fn new(seed: u64) -> Split {
        Split {
            seed,
            next_iter: 0,
            cx: ExecContext::new(),
            corpus: Corpus::new(),
            global: CoverageMap::new(),
            considered: 0,
            admitted: 0,
            replays: 0,
        }
    }

    /// Runs the next iteration the way `Campaign::step` does: a
    /// watchdog-aborted exec is quarantined there, never considered.
    fn iterate(&mut self, tr: &mut Tracer, op: u64) -> Result<SplitIter, String> {
        let (seed, it) = (self.seed, self.next_iter);
        self.next_iter += 1;
        let (input, generate_ns) = tr.time("input.generate", op, || FuzzInput::generate(seed, it));
        let (outcome, exec_ns) = tr.time("exec.execute_with_budget", op, || {
            self.cx.execute_with_budget(&input, DEFAULT_WATCHDOG_BUDGET)
        });
        let outcome = outcome.map_err(|e| format!("replica exec of iteration {it}: {e:?}"))?;
        let (mut consider_ns, mut admitted) = (0, false);
        if outcome.status == ExecStatus::Completed {
            let (extra, ns) = tr.time("corpus.consider_with", op, || {
                self.corpus
                    .consider_with(Some(&mut self.cx), &input, &outcome, &mut self.global)
            });
            let extra = extra.map_err(|e| format!("replica consider of iteration {it}: {e:?}"))?;
            consider_ns = ns;
            self.considered += 1;
            if extra > 0 {
                admitted = true;
                self.admitted += 1;
                self.replays += extra as u64;
            }
        }
        Ok(SplitIter {
            input,
            outcome,
            generate_ns,
            exec_ns,
            consider_ns,
            admitted,
        })
    }

    /// Runs `n` iterations under a throwaway tracer.
    fn catch_up(&mut self, n: u64) -> Result<(), String> {
        let mut scratch = Tracer::new();
        for _ in 0..n {
            self.iterate(&mut scratch, 0)?;
        }
        Ok(())
    }

    /// Where the replica's state differs from the campaign's it mirrors.
    fn mismatches(&self, signatures: &[u64], coverage_bits: u32, replays: u64) -> Vec<String> {
        let mut p = Vec::new();
        if self.corpus.signatures() != signatures {
            p.push(format!(
                "replica corpus signatures differ (seed {})",
                self.seed
            ));
        }
        if self.global.count_ones() != coverage_bits {
            p.push(format!("replica coverage bits differ (seed {})", self.seed));
        }
        if self.replays != replays {
            p.push(format!(
                "replica minimizer execs {} != {replays} (seed {})",
                self.replays, self.seed
            ));
        }
        p
    }
}

/// One exec's event stream through the in-process consumers, in ns.
struct Consumed {
    events: u64,
    dkasan_ns: u64,
    infer_ns: u64,
    provenance_ns: u64,
}

/// Re-runs `input` with forensics to get the exec's own event stream,
/// then replays it through `DKasan::process`,
/// `ChannelInference::observe_all`, `ProvenanceGraph::ingest_all` and
/// `investigate`, each under its own span. The forensic re-run must
/// reproduce the exec's signature, and the replayed D-KASAN its
/// incidents.
fn consume(
    cx: &mut ExecContext,
    input: &FuzzInput,
    signature: u64,
    tr: &mut Tracer,
    op: u64,
) -> Result<(Consumed, Vec<String>), String> {
    let run = cx
        .execute_with_forensics(input)
        .map_err(|e| format!("forensic replay of iteration {}: {e:?}", input.iteration))?;
    let mut problems = Vec::new();
    if run.outcome.signature != signature {
        problems.push(format!(
            "forensic replay of iteration {} changed its signature",
            input.iteration
        ));
    }
    let events: Vec<Event> = run.graph.events().to_vec();
    let mut dk = DKasan::new();
    let ((), dkasan_ns) = tr.time("dkasan.process", op, || dk.process(&events));
    let mut inference = ChannelInference::new();
    let ((), infer_ns) = tr.time("infer.observe_all", op, || inference.observe_all(&events));
    let mut graph = ProvenanceGraph::new();
    let owned = events.clone();
    let ((), provenance_ns) = tr.time("provenance.ingest_all", op, || graph.ingest_all(owned));
    for f in dk.findings() {
        tr.time("dkasan.investigate", op, || investigate(&graph, f));
    }
    if dk.findings().len() != run.incidents.len() {
        problems.push(format!(
            "replayed D-KASAN found {} of {} incidents at iteration {}",
            dk.findings().len(),
            run.incidents.len(),
            input.iteration
        ));
    }
    let consumed = Consumed {
        events: events.len() as u64,
        dkasan_ns,
        infer_ns,
        provenance_ns,
    };
    Ok((consumed, problems))
}

/// Times `DeviceModel::clone_model` on each machine template the
/// executor boots for `seed`; returns the median µs per config.
fn clone_times(seed: u64, tr: &mut Tracer) -> Result<Vec<f64>, String> {
    let mut per_config = Vec::new();
    for config in 0..NUM_CONFIGS {
        let template = boot_model(
            machine_config(config, seed),
            BootSpec::Recorded(EXEC_RECORDER_CAPACITY),
        )
        .map_err(|e| format!("boot of config {config}: {e:?}"))?;
        let mut us = Vec::with_capacity(CLONE_REPS);
        for _ in 0..CLONE_REPS {
            let (copy, ns) = tr.time("device.clone_model", 0, || template.clone_model());
            drop(copy);
            us.push(ns as f64 / 1e3);
        }
        per_config.push(median(&us));
    }
    Ok(per_config)
}

// ---------------------------------------------------------------- campaign-steady

/// Sums over a campaign-steady pass.
#[derive(Default)]
struct ExecTotals {
    execs: u64,
    events: u64,
    cycles: u64,
    attributed: u64,
    exec_ns: u64,
    consider_ns: u64,
    dkasan_ns: u64,
    infer_ns: u64,
    provenance_ns: u64,
}

/// The traced campaign-steady pass: the real campaign's steps, and
/// after each its split replica plus the consumer replays.
struct CampaignTrace {
    split: Split,
    clone_us: Vec<f64>,
    /// Per-exec samples: generate ns, exec µs, µs per device family,
    /// ns per event, residual µs, campaign self µs.
    generate_ns: Vec<f64>,
    exec_us: Vec<f64>,
    family_us: [Vec<f64>; 3],
    ns_per_event: Vec<f64>,
    residual_us: Vec<f64>,
    self_us: Vec<f64>,
    all: ExecTotals,
    /// The first [`CAMPAIGN_MIN_OPS`] iterations only, so the
    /// simulated-model counts repeat exactly.
    window: ExecTotals,
}

impl CampaignTrace {
    /// Mirrors one real step that took `step_secs`.
    fn op(&mut self, step_secs: f64, tr: &mut Tracer, op: u64) -> Result<Vec<String>, String> {
        let si = self.split.iterate(tr, op)?;
        let children_ns = si.generate_ns + si.exec_ns + si.consider_ns;
        self.self_us
            .push(step_secs * 1e6 - children_ns as f64 / 1e3);
        self.generate_ns.push(si.generate_ns as f64);
        self.all.consider_ns += si.consider_ns;
        if si.outcome.status != ExecStatus::Completed {
            return Ok(Vec::new());
        }
        let exec_us = si.exec_ns as f64 / 1e3;
        let family = match config_device(si.input.config_id) {
            DeviceKind::Nic => 0,
            DeviceKind::VirtioSplit => 1,
            DeviceKind::NvmeQueuePair => 2,
        };
        self.exec_us.push(exec_us);
        self.family_us[family].push(exec_us);
        let (c, problems) = consume(&mut self.split.cx, &si.input, si.outcome.signature, tr, op)?;
        self.ns_per_event
            .push(si.exec_ns as f64 / c.events.max(1) as f64);
        self.residual_us.push(
            exec_us
                - self.clone_us[si.input.config_id as usize]
                - (c.dkasan_ns + c.infer_ns) as f64 / 1e3,
        );
        let in_window = si.input.iteration < WARM_ITERS + CAMPAIGN_MIN_OPS;
        for t in [Some(&mut self.all), in_window.then_some(&mut self.window)]
            .into_iter()
            .flatten()
        {
            t.execs += 1;
            t.events += c.events;
            t.cycles += si.outcome.cycles;
            t.attributed += si.outcome.profile.attributed_cycles();
            t.exec_ns += si.exec_ns;
            t.dkasan_ns += c.dkasan_ns;
            t.infer_ns += c.infer_ns;
            t.provenance_ns += c.provenance_ns;
        }
        Ok(problems)
    }
}

fn campaign_pass(
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Overhead, String> {
    let w = Workload::CampaignSteady;
    let mut c = warm_campaign(seed)?;
    let mut split = Split::new(seed);
    split.catch_up(WARM_ITERS)?;
    let replays0 = split.replays;
    let mut ct = CampaignTrace {
        split,
        clone_us: clone_times(seed, tr)?,
        generate_ns: Vec::new(),
        exec_us: Vec::new(),
        family_us: Default::default(),
        ns_per_event: Vec::new(),
        residual_us: Vec::new(),
        self_us: Vec::new(),
        all: ExecTotals::default(),
        window: ExecTotals::default(),
    };
    let mut overhead = Overhead::default();
    let mut op = 0;
    let tally = &mut out.tally;
    run_for(seconds, CAMPAIGN_MIN_OPS, || {
        let traced = op % 2 == 0;
        let (secs, mut problems) = step_op(&mut c, traced.then_some(&mut *tr), op);
        overhead.push(traced, secs);
        match ct.op(secs, tr, op) {
            Ok(p) => problems.extend(p),
            Err(e) => problems.push(e),
        }
        tally.record(problems);
        op += 1;
        secs
    });
    let s = c.state();
    tally.check(ct.split.mismatches(
        &s.corpus.signatures(),
        s.global.count_ones(),
        s.minimize_execs,
    ));

    med(out, "input.generate_ns", &ct.generate_ns, "ns", w)?;
    med(out, "exec.us_p50", &ct.exec_us, "us", w)?;
    let (q, p99) = tail(&sorted(&ct.exec_us));
    out.metric("exec.us_p99", p99, "us", ct.exec_us.len(), w);
    out.fact_num("exec.us_p99_quantile", q);
    for (name, xs) in ["exec.nic_us", "exec.virtio_us", "exec.nvme_us"]
        .into_iter()
        .zip(&ct.family_us)
    {
        med(out, name, xs, "us", w)?;
    }
    let all = &ct.all;
    let execs = all.execs + ct.split.replays - replays0;
    let busy_s = (all.exec_ns + all.consider_ns) as f64 / 1e9;
    ratio(
        out,
        "exec.per_sec",
        execs as f64,
        busy_s,
        "1/s",
        execs as usize,
        w,
    )?;
    med(out, "exec.ns_per_event", &ct.ns_per_event, "ns", w)?;
    med(out, "exec.residual_us", &ct.residual_us, "us", w)?;
    med(
        out,
        "device.clone_us",
        &tr.durations_us("device.clone_model"),
        "us",
        w,
    )?;
    med(out, "campaign.self_us", &ct.self_us, "us", w)?;
    let n = all.execs as usize;
    let events = all.events as f64;
    ratio(
        out,
        "dkasan.ns_per_event",
        all.dkasan_ns as f64,
        events,
        "ns",
        n,
        w,
    )?;
    ratio(
        out,
        "infer.ns_per_event",
        all.infer_ns as f64,
        events,
        "ns",
        n,
        w,
    )?;
    ratio(
        out,
        "provenance.ns_per_event",
        all.provenance_ns as f64,
        events,
        "ns",
        n,
        w,
    )?;
    let win = &ct.window;
    let wn = win.execs as usize;
    ratio(
        out,
        "sim.cycles_per_exec",
        win.cycles as f64,
        win.execs as f64,
        "cycles",
        wn,
        w,
    )?;
    ratio(
        out,
        "sim.events_per_exec",
        win.events as f64,
        win.execs as f64,
        "count",
        wn,
        w,
    )?;
    ratio(
        out,
        "sim.attributed_pct",
        100.0 * win.attributed as f64,
        win.cycles as f64,
        "%",
        wn,
        w,
    )?;
    ratio(
        out,
        "sim.mcycles_per_host_s",
        all.cycles as f64 / 1e6,
        all.exec_ns as f64 / 1e9,
        "Mcycles/s",
        n,
        w,
    )?;
    out.fact(
        "sim_window_iterations",
        format!("[{WARM_ITERS},{}]", WARM_ITERS + CAMPAIGN_MIN_OPS),
    );
    out.fact("campaign_pass_ops", op.to_string());
    out.fact("campaign_pass_execs", execs.to_string());
    out.fact("campaign_pass_trace_events", all.events.to_string());
    out.fact("campaign_pass_sim_cycles", all.cycles.to_string());
    Ok(overhead)
}

// ---------------------------------------------------------------- shards-startup

/// Samples from the replicas of shards-startup ops.
#[derive(Default)]
struct ShardSamples {
    capture_ms: Vec<f64>,
    save_ms: Vec<f64>,
    kb: Vec<f64>,
    imbalance_pct: Vec<f64>,
    considered: u64,
    admitted: u64,
    replays: u64,
}

/// One shard of a shards-startup op stepped from outside with its
/// checkpoints under their own spans. Returns what `run_shards` would
/// have returned for it.
fn shard_campaign(
    sc: &ShardedCampaign,
    id: u32,
    tr: &mut Tracer,
    op: u64,
    s: &mut ShardSamples,
) -> Result<(ShardOutcome, f64), String> {
    let mut cfg = sc.shard_campaign_config(id);
    // Checkpoints are taken below at the same iterations `step` would
    // take them, so that they can be spanned.
    cfg.checkpoint_every = 0;
    let err = |e| format!("replica shard {id}: {e:?}");
    let span = tr.begin("shard.campaign", op);
    let mut c = Campaign::new(cfg).map_err(err)?;
    while tr.time("campaign.step", op, || c.step()).0.map_err(err)? {
        if c.next_iter() % CHECKPOINT_EVERY == 0 {
            let (payload, capture_ns) = tr.time("checkpoint.capture", op, || c.snapshot_payload());
            let (saved, save_ns) = tr.time("checkpoint.save", op, || c.checkpoint_now());
            saved.map_err(err)?;
            s.capture_ms.push(capture_ns as f64 / 1e6);
            s.save_ms
                .push(save_ns.saturating_sub(capture_ns) as f64 / 1e6);
            s.kb.push(payload.len() as f64 / 1024.0);
        }
    }
    let coverage = c.state().global.clone();
    let snapshot = c.state().metrics.snapshot(c.state().total_cycles);
    let report = c.finish().map_err(err)?;
    let ns = tr.end(span);
    let outcome = ShardOutcome {
        shard_id: id,
        report,
        coverage,
        snapshot,
    };
    Ok((outcome, ns as f64 / 1e3))
}

/// The traced view of one shards-startup op at `seed`: each shard's
/// campaign and its split replica, then `merge`. Returns the merged
/// report's digest and the self-check problems.
fn shards_replica(
    seed: u64,
    scratch: &mut Scratch,
    tr: &mut Tracer,
    op: u64,
    s: &mut ShardSamples,
) -> Result<(String, Vec<String>), String> {
    let dir = scratch.fresh();
    let sc = ShardedCampaign::new(shard_config(seed, dir.clone(), 1));
    let mut outcomes = Vec::new();
    let mut shard_us = Vec::new();
    let mut problems = Vec::new();
    for id in 0..SHARDS {
        let (o, us) = shard_campaign(&sc, id, tr, op, s)?;
        shard_us.push(us);
        let mut split = Split::new(shard_seed(seed, id));
        for _ in 0..SHARD_ITERS {
            if split.iterate(tr, op)?.admitted {
                // The annotation replay `consider_with` just ran,
                // repeated to span `investigate` per finding.
                let kept = &split.corpus.entries().last().expect("just admitted").input;
                let run = split
                    .cx
                    .execute_with_forensics(kept)
                    .map_err(|e| format!("annotation replay: {e:?}"))?;
                let mut dk = DKasan::new();
                dk.process(run.graph.events());
                for f in dk.findings() {
                    tr.time("dkasan.investigate", op, || investigate(&run.graph, f));
                }
            }
        }
        let r = &o.report;
        let signatures: Vec<u64> = r.corpus.iter().map(|e| e.signature).collect();
        problems.extend(split.mismatches(&signatures, r.coverage_bits, r.minimize_execs));
        s.considered += split.considered;
        s.admitted += split.admitted;
        s.replays += split.replays;
        outcomes.push(o);
    }
    let mean = shard_us.iter().sum::<f64>() / shard_us.len() as f64;
    let slowest = shard_us.iter().copied().fold(0.0, f64::max);
    s.imbalance_pct.push(100.0 * (slowest - mean) / mean);
    let merged = sc
        .merge(outcomes)
        .map_err(|e| format!("replica merge: {e:?}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok((report_digest(&merged), problems))
}

fn shards_pass(
    seed: u64,
    seconds: f64,
    primary: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Overhead, String> {
    let w = Workload::ShardsStartup;
    let mut scratch = Scratch::new("traced-shards")?;
    let setup = shards_op(seed, &mut scratch, 1, None, 0);
    if !setup.problems.is_empty() {
        return Err(format!("set-up op: {:?}", setup.problems));
    }
    let mut s = ShardSamples::default();
    let mut overhead = Overhead::default();
    let mut op_secs = Vec::new();
    let mut j = 0;
    let tally = &mut out.tally;
    run_for(seconds, if primary { 2 } else { 1 }, || {
        let traced = j % 2 == 0;
        let op_seed = sub_seed(seed, j);
        let r = shards_op(op_seed, &mut scratch, 1, traced.then_some(&mut *tr), j);
        overhead.push(traced, r.secs);
        op_secs.push(r.secs);
        let mut problems = r.problems;
        match shards_replica(op_seed, &mut scratch, tr, j, &mut s) {
            Ok((digest, p)) => {
                problems.extend(p);
                if r.report.as_ref().map(report_digest) != Some(digest) {
                    problems.push(format!("replica of op {j} merged a different report"));
                }
            }
            Err(e) => problems.push(e),
        }
        tally.record(problems);
        j += 1;
        r.secs
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut speedups = Vec::new();
    for _ in 0..SPEEDUP_PAIRS {
        let one = shards_op(seed, &mut scratch, 1, None, 0);
        let many = shards_op(seed, &mut scratch, nproc, None, 0);
        out.tally.record(one.problems);
        out.tally.record(many.problems);
        speedups.push(one.secs / many.secs);
    }
    let boots = shard_boot_seconds(seed)?;

    med(
        out,
        "device.boot_ms",
        &boots.iter().map(|b| b * 1e3).collect::<Vec<_>>(),
        "ms",
        w,
    )?;
    let n = s.considered as usize;
    let consider_us = tr.durations_us("corpus.consider_with");
    let total_us: f64 = consider_us.iter().sum();
    let n_consider = consider_us.len();
    ratio(
        out,
        "corpus.consider_us",
        total_us,
        n_consider as f64,
        "us",
        n_consider,
        w,
    )?;
    ratio(
        out,
        "corpus.admit_ratio",
        s.admitted as f64,
        s.considered as f64,
        "ratio",
        n,
        w,
    )?;
    ratio(
        out,
        "corpus.replays_per_admit",
        s.replays as f64,
        s.admitted as f64,
        "count",
        s.admitted as usize,
        w,
    )?;
    med(
        out,
        "dkasan.investigate_us",
        &tr.durations_us("dkasan.investigate"),
        "us",
        w,
    )?;
    med(out, "checkpoint.capture_ms", &s.capture_ms, "ms", w)?;
    med(out, "checkpoint.save_ms", &s.save_ms, "ms", w)?;
    med(out, "checkpoint.kb", &s.kb, "KiB", w)?;
    med(
        out,
        "shard.merge_ms",
        &ms(tr.durations_us("shard.merge")),
        "ms",
        w,
    )?;
    let boot_s: f64 = boots.iter().sum();
    ratio(
        out,
        "shard.boot_share_pct",
        100.0 * boot_s,
        median(&op_secs),
        "%",
        op_secs.len(),
        w,
    )?;
    med(out, "shard.imbalance_pct", &s.imbalance_pct, "%", w)?;
    med(out, "shard.thread_speedup", &speedups, "x", w)?;
    out.fact("shard_thread_speedup_samples", json_list(&speedups));
    out.fact("shard_thread_speedup_threads", nproc.to_string());
    out.fact("shards_pass_ops", j.to_string());
    Ok(overhead)
}

// ---------------------------------------------------------------- serve-poll

/// The serve-poll session's campaigns, stepped exactly as the server
/// steps its own, so that the read path's calls can be spanned on the
/// same state; each rebuilt frame must match the server's.
struct ServeReplica {
    seed: u64,
    shards: Vec<Campaign>,
    rr: usize,
    prev: Option<Snapshot>,
}

impl ServeReplica {
    fn new(seed: u64) -> Result<ServeReplica, String> {
        let mut shards = Vec::new();
        for id in 0..SERVE_SHARDS {
            let mut c = warm_campaign(shard_seed(seed, id))?;
            c.drain_events();
            shards.push(c);
        }
        Ok(ServeReplica {
            seed,
            shards,
            rr: 0,
            prev: None,
        })
    }

    /// Mirrors one request; returns where the server's frames differ
    /// from what the replica rebuilds.
    fn mirror(
        &mut self,
        req: Req,
        frames: &[String],
        tr: &mut Tracer,
        op: u64,
    ) -> Result<Vec<String>, String> {
        let has = |json: &str, idx: usize| -> Vec<String> {
            if frames.get(idx).is_some_and(|f| f.contains(json)) {
                Vec::new()
            } else {
                vec![format!(
                    "{} frame {idx} differs from the replica's",
                    req.name()
                )]
            }
        };
        Ok(match req {
            Req::Step => {
                for _ in 0..STEP_N {
                    let idx = self.rr;
                    self.rr = (idx + 1) % self.shards.len();
                    let c = &mut self.shards[idx];
                    c.step().map_err(|e| format!("replica step: {e:?}"))?;
                    c.drain_events();
                }
                Vec::new()
            }
            Req::StatsFull | Req::StatsDelta => {
                let mut snaps = Vec::new();
                for c in &self.shards {
                    let st = c.state();
                    snaps.push(
                        tr.time("metrics.snapshot", op, || {
                            st.metrics.snapshot(st.total_cycles)
                        })
                        .0,
                    );
                }
                let mut rest = snaps.into_iter();
                let mut snap = rest.next().expect("a session has shards");
                for o in rest {
                    tr.time("metrics.merge", op, || snap.merge(&o));
                }
                let json = match (&self.prev, req == Req::StatsDelta) {
                    (Some(prev), true) => {
                        let d = tr.time("metrics.diff", op, || snap.diff(prev)).0;
                        tr.time("metrics.json", op, || d.to_json()).0
                    }
                    _ => tr.time("metrics.json", op, || snap.to_json()).0,
                };
                self.prev = Some(snap);
                has(&json, 0)
            }
            Req::Profile => {
                let mut profile = self.shards[0].state().profile.clone();
                for c in &self.shards[1..] {
                    tr.time("profile.merge", op, || profile.merge(&c.state().profile));
                }
                has(&tr.time("profile.json", op, || profile.to_json()).0, 0)
            }
            Req::Chrome => {
                let events: Vec<Event> = self
                    .shards
                    .iter()
                    .flat_map(|c| c.state().journal.snapshot())
                    .collect();
                has(
                    &tr.time("chrome.export", op, || chrome::export(&[], &events))
                        .0,
                    0,
                )
            }
            Req::Posture => {
                let mut problems = Vec::new();
                for config in 0..NUM_CONFIGS {
                    let report = tr
                        .time("posture.config", op, || {
                            posture_of_config(config, self.seed)
                        })
                        .0;
                    problems.extend(has(&report.to_json(), config as usize));
                }
                problems
            }
            Req::Health => Vec::new(),
        })
    }
}

fn serve_pass(
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Overhead, String> {
    let w = Workload::ServePoll;
    let (mut server, mut conn) = serve_session(seed)?;
    let mut replica = ServeReplica::new(seed)?;
    let mut bytes: Vec<Vec<f64>> = vec![Vec::new(); Req::ALL.len()];
    let mut overhead = Overhead::default();
    let mut i = 0;
    let tally = &mut out.tally;
    run_for(seconds, SESSION_DIGEST_REQS, || {
        let req = script(i);
        // Whole script periods alternate, so both halves see the same mix.
        let traced = (i / PERIOD).is_multiple_of(2);
        let r = serve_request(&mut server, &mut conn, req, traced.then_some(&mut *tr), i);
        overhead.push(traced, r.secs);
        bytes[req.index()].push(frame_bytes(&r.frames) as f64);
        let mut problems = r.problems;
        match replica.mirror(req, &r.frames, tr, i) {
            Ok(p) => problems.extend(p),
            Err(e) => problems.push(e),
        }
        tally.record(problems);
        i += 1;
        r.secs
    });
    let mut quiet_ms = Vec::new();
    for config in 0..NUM_CONFIGS {
        for _ in 0..QUIET_BOOT_REPS {
            let t = Instant::now();
            let m = boot_model(machine_config(config, seed), BootSpec::Quiet)
                .map_err(|e| format!("quiet boot of config {config}: {e:?}"))?;
            quiet_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(m);
        }
    }

    for req in Req::ALL {
        med(
            out,
            &format!("serve.{}_us", req.name()),
            &tr.durations_us(req.span()),
            "us",
            w,
        )?;
        med(
            out,
            &format!("serve.{}_bytes", req.name()),
            &bytes[req.index()],
            "B",
            w,
        )?;
    }
    for (metric, span) in [
        ("metrics.snapshot_us", "metrics.snapshot"),
        ("metrics.merge_us", "metrics.merge"),
        ("metrics.diff_us", "metrics.diff"),
        ("metrics.json_us", "metrics.json"),
        ("profile.merge_us", "profile.merge"),
        ("profile.json_us", "profile.json"),
        ("chrome.export_us", "chrome.export"),
    ] {
        med(out, metric, &tr.durations_us(span), "us", w)?;
    }
    med(
        out,
        "posture.config_ms",
        &ms(tr.durations_us("posture.config")),
        "ms",
        w,
    )?;
    med(out, "device.boot_quiet_ms", &quiet_ms, "ms", w)?;
    out.fact("serve_pass_requests", i.to_string());
    Ok(overhead)
}
