//! The three end-to-end workloads. Each is a closed loop on one thread:
//! the next op starts when the previous one returned and its outputs
//! were checked. Only the op itself is timed.
//!
//! A run spreads its ops over several seeds derived from `--seed`
//! ([`sub_seed`]): the host cost of a campaign depends on the machine
//! templates its seed boots, so one seed per run would make the run's
//! figures move with the seed more than with the code.

use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use dma_lab::devsim::{boot_model, BootSpec};
use dma_lab::dma_core::{jsonr, shard_seed};
use dma_lab::fuzz::{
    machine_config, Campaign, CampaignConfig, ExecContext, FuzzFinding, FuzzInput, FuzzReport,
    ShardConfig, ShardedCampaign, EXEC_RECORDER_CAPACITY,
};
use dma_lab::serve::{ConnState, Flow, ServeConfig, Server};

use crate::checks::{
    campaign_digest, counter_sum_problems, figure1_missing, serve_frame_problems, Counters, Digest,
    Tally, FIGURE1_SEED,
};
use crate::spans::Tracer;
use crate::stats::{median, quantile, sorted, tail};
use crate::{alloc, Args, Outcome, Workload};

/// Iterations a campaign runs before its steady state is timed.
pub const WARM_ITERS: u64 = 96;
/// Per-campaign iteration budget no run can exhaust.
pub const BUDGET: u64 = 1 << 40;
/// Executions replayed with forensics after a run to count the
/// simulated trace events an exec emits.
const EVENT_SAMPLE: u64 = 96;

/// Campaigns one campaign-steady run sets up and steps in turn.
pub const CAMPAIGNS: u64 = 16;
/// Windows of campaign-steady; every campaign runs at least one tail
/// window.
pub const CAMPAIGN_WINDOWS: Windows = Windows {
    ops: 250,
    tail_ops: 1000,
};
/// Timed iterations after which each campaign's state is digested.
pub const CAMPAIGN_DIGEST_ITERS: u64 = 128;

/// Shards of one shards-startup op.
pub const SHARDS: u32 = 8;
/// Iterations per shard of one shards-startup op.
pub const SHARD_ITERS: u64 = 96;
/// Checkpoint cadence of shards-startup, in iterations.
pub const CHECKPOINT_EVERY: u64 = 32;
/// Ops every shards-startup run makes at least; their reports make up
/// its digest.
pub const SHARD_MIN_OPS: u64 = 11;
/// Set-up ops per shards-startup run.
const SHARD_SETUPS: usize = 3;

/// Sessions one serve-poll run sets up and polls in turn.
pub const SESSIONS: u64 = 10;
/// Campaign shards of a serve-poll session.
pub const SERVE_SHARDS: u32 = 2;
/// Iterations one serve-poll `step` request advances.
pub const STEP_N: u64 = 4;
/// Step/stats-delta/health cycles between two rounds of the periodic
/// requests (full stats, profile, chrome, posture).
pub const PERIOD_CYCLES: u64 = 16;
/// Requests in one period of the script.
pub const PERIOD: u64 = PERIOD_CYCLES * 3 + 4;
/// Windows of serve-poll, in whole script periods; every session polls
/// at least one tail window.
pub const SESSION_WINDOWS: Windows = Windows {
    ops: 4 * PERIOD as usize,
    tail_ops: 20 * PERIOD as usize,
};
/// Requests of each session whose frames make up its transcript
/// digest.
pub const SESSION_DIGEST_REQS: u64 = 4 * PERIOD;

/// Runs the end-to-end run of `args.workload`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        Workload::CampaignSteady => campaign_steady(args),
        Workload::ShardsStartup => shards_startup(args),
        Workload::ServePoll => serve_poll(args),
    }
}

/// The `k`-th seed a run derives from `seed`; the first is `seed`
/// itself.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    shard_seed(seed, u32::try_from(k).expect("fewer than 2^32 sub-seeds"))
}

/// Calls `op` until `seconds` of wall time have passed and at least
/// `min_ops` ops ran; returns what each call returned. `op` times its
/// own timed part; the checks around that part stay untimed.
pub fn run_for<T>(seconds: f64, min_ops: u64, mut op: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut ran = Vec::new();
    while (ran.len() as u64) < min_ops || start.elapsed().as_secs_f64() < seconds {
        ran.push(op());
    }
    ran
}

/// Renders samples as a JSON array.
pub fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|v| crate::num(*v)).collect();
    format!("[{}]", items.join(","))
}

/// One timed op: its latency in seconds and the iterations it
/// completed.
pub type Op = (f64, u64);

/// Figures of a stretch of ops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Figures {
    /// Iterations per second of op time.
    pub iters_per_sec: f64,
    /// Median op latency, ms.
    pub p50_ms: f64,
    /// Tail op latency ([`tail`]), ms.
    pub tail_ms: f64,
    /// The quantile `tail_ms` is.
    pub tail_q: f64,
}

impl Figures {
    /// The figures of `ops`.
    pub fn of(ops: &[Op]) -> Figures {
        let ms = sorted(&ops.iter().map(|o| o.0 * 1e3).collect::<Vec<_>>());
        let secs: f64 = ops.iter().map(|o| o.0).sum();
        let iters: u64 = ops.iter().map(|o| o.1).sum();
        let (tail_q, tail_ms) = tail(&ms);
        Figures {
            iters_per_sec: iters as f64 / secs,
            p50_ms: quantile(&ms, 0.5),
            tail_ms,
            tail_q,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"iters_per_sec\":{},\"op_p50_ms\":{},\"op_p99_ms\":{},\"op_p99_ms_quantile\":{}}}",
            crate::num(self.iters_per_sec),
            crate::num(self.p50_ms),
            crate::num(self.tail_ms),
            crate::num(self.tail_q)
        )
    }
}

/// How a workload cuts each part of its run into windows of
/// consecutive ops; a shorter remainder joins no window.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    /// Ops per window for `iters_per_sec` and `op_p50_ms`.
    pub ops: usize,
    /// Ops per window for `op_p99_ms`: at least 1000 where a part has
    /// that many, so the tail is a true p99.
    pub tail_ops: usize,
}

/// The metrics every workload reports. `parts` are the run's ops, one
/// list per campaign, session or op stream, each at least
/// `win.tail_ops` long.
///
/// Every timing is the run's best: the fastest window's figure and the
/// fastest set-up. Other tenants share this host's cores and only ever
/// slow the code down — on one seed, 1000-op windows switch between
/// two throughput levels about 35% apart within a second — so the
/// least-disturbed window estimates the program's own cost far more
/// steadily than a pooled figure. The pooled and median-window figures
/// go to the detail line.
fn common_metrics(
    out: &mut Outcome,
    w: Workload,
    parts: &[Vec<Op>],
    win: Windows,
    setup_s: &[f64],
) {
    let cut = |n: usize| -> Vec<Figures> {
        parts
            .iter()
            .flat_map(|p| p.chunks_exact(n))
            .map(Figures::of)
            .collect()
    };
    let (wins, tails) = (cut(win.ops), cut(win.tail_ops));
    let all: Vec<Op> = parts.concat();
    let best = |ws: &[Figures], f: fn(&Figures) -> f64, better: fn(f64, f64) -> f64| {
        ws.iter()
            .map(f)
            .reduce(better)
            .expect("every part fills a window")
    };
    out.metric(
        "iters_per_sec",
        best(&wins, |f| f.iters_per_sec, f64::max),
        "1/s",
        all.len(),
        w,
    );
    out.metric(
        "op_p50_ms",
        best(&wins, |f| f.p50_ms, f64::min),
        "ms",
        all.len(),
        w,
    );
    out.metric(
        "op_p99_ms",
        best(&tails, |f| f.tail_ms, f64::min),
        "ms",
        all.len(),
        w,
    );
    let fastest_setup = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric("setup_s", fastest_setup, "s", setup_s.len(), w);
    out.metric("peak_heap_mb", alloc::peak_mb(), "MB", 1, w);
    out.fact_num("op_p99_ms_quantile", best(&tails, |f| f.tail_q, f64::min));
    out.fact("windows", wins.len().to_string());
    out.fact("window_ops", win.ops.to_string());
    out.fact("tail_windows", tails.len().to_string());
    out.fact("tail_window_ops", win.tail_ops.to_string());
    let col = |f: fn(&Figures) -> f64| json_list(&wins.iter().map(f).collect::<Vec<_>>());
    out.fact("window_iters_per_sec", col(|f| f.iters_per_sec));
    out.fact("window_op_p50_ms", col(|f| f.p50_ms));
    let med =
        |ws: &[Figures], f: fn(&Figures) -> f64| median(&ws.iter().map(f).collect::<Vec<_>>());
    let median_window = Figures {
        iters_per_sec: med(&wins, |f| f.iters_per_sec),
        p50_ms: med(&wins, |f| f.p50_ms),
        tail_ms: med(&tails, |f| f.tail_ms),
        tail_q: med(&tails, |f| f.tail_q),
    };
    out.fact("median_window", median_window.json());
    out.fact("pooled", Figures::of(&all).json());
    out.fact("setup_samples_s", json_list(setup_s));
    out.fact_num("setup_s_median", median(setup_s));
    out.fact("ops", all.len().to_string());
    out.fact("threads", "1");
    out.fact(
        "iterations",
        all.iter().map(|o| o.1).sum::<u64>().to_string(),
    );
}

/// Replays iterations with forensics to count the simulated trace
/// events they emit; returns `(execs, events)`.
pub fn sample_trace_events(seed: u64, iters: Range<u64>) -> Result<(u64, u64), String> {
    let mut cx = ExecContext::new();
    let mut events = 0;
    for it in iters.clone() {
        let run = cx
            .execute_with_forensics(&FuzzInput::generate(seed, it))
            .map_err(|e| format!("forensic replay of iteration {it}: {e:?}"))?;
        events += run.graph.events().len() as u64;
    }
    Ok((iters.end - iters.start, events))
}

fn event_facts(out: &mut Outcome, seed: u64, iters: Range<u64>) -> Result<(), String> {
    let (execs, events) = sample_trace_events(seed, iters)?;
    out.fact("trace_events_sampled", events.to_string());
    out.fact("trace_event_sample_execs", execs.to_string());
    Ok(())
}

// ---------------------------------------------------------------- campaign-steady

/// `Campaign::new` plus the seed's first [`WARM_ITERS`] iterations:
/// boots all nine machine templates and builds the initial corpus.
pub fn warm_campaign(seed: u64) -> Result<Campaign, String> {
    let mut c = Campaign::new(CampaignConfig::new(seed, BUDGET))
        .map_err(|e| format!("Campaign::new: {e:?}"))?;
    for _ in 0..WARM_ITERS {
        c.step().map_err(|e| format!("warm-up step: {e:?}"))?;
    }
    Ok(c)
}

/// One campaign-steady op, `Campaign::step`, spanned when traced.
/// Returns its latency in seconds and its problems.
pub fn step_op(c: &mut Campaign, tracer: Option<&mut Tracer>, op: u64) -> (f64, Vec<String>) {
    let t = Instant::now();
    let r = match tracer {
        Some(tr) => tr.time("campaign.step", op, || c.step()).0,
        None => c.step(),
    };
    let secs = t.elapsed().as_secs_f64();
    let problems = match r {
        Ok(true) => Vec::new(),
        Ok(false) => vec!["campaign budget exhausted".to_string()],
        Err(e) => vec![format!("Campaign::step: {e:?}")],
    };
    (secs, problems)
}

fn campaign_steady(args: &Args) -> Result<Outcome, String> {
    let w = Workload::CampaignSteady;
    let mut tally = Tally::default();
    let mut digest = Digest::new();
    let (mut setup_s, mut parts) = (Vec::new(), Vec::new());
    let mut findings: Vec<FuzzFinding> = Vec::new();
    let (mut execs, mut cycles) = (0, 0);
    for k in 0..CAMPAIGNS {
        let t = Instant::now();
        let mut c = warm_campaign(sub_seed(args.seed, k))?;
        setup_s.push(t.elapsed().as_secs_f64());
        let (cycles0, replays0) = (c.state().total_cycles, c.state().minimize_execs);
        let secs = args.seconds / CAMPAIGNS as f64;
        parts.push(run_for(secs, CAMPAIGN_WINDOWS.tail_ops as u64, || {
            let (secs, problems) = step_op(&mut c, None, 0);
            let done = u64::from(problems.is_empty());
            tally.record(problems);
            if c.next_iter() == WARM_ITERS + CAMPAIGN_DIGEST_ITERS {
                digest.bytes(campaign_digest(c.state()).as_bytes());
            }
            (secs, done)
        }));
        let s = c.state();
        execs += s.next_iter - WARM_ITERS + s.minimize_execs - replays0;
        cycles += s.total_cycles - cycles0;
        findings.extend(s.findings.iter().cloned());
    }
    if args.seed == FIGURE1_SEED {
        tally.check(figure1_missing(&findings));
    }
    let mut out = Outcome::new(tally);
    common_metrics(&mut out, w, &parts, CAMPAIGN_WINDOWS, &setup_s);
    out.fact("campaigns", CAMPAIGNS.to_string());
    out.fact("execs", execs.to_string());
    out.fact("sim_cycles", cycles.to_string());
    out.fact("digest", format!("\"{}\"", digest.hex()));
    out.fact(
        "digest_at_iteration",
        (WARM_ITERS + CAMPAIGN_DIGEST_ITERS).to_string(),
    );
    event_facts(&mut out, args.seed, WARM_ITERS..WARM_ITERS + EVENT_SAMPLE)?;
    Ok(out)
}

// ---------------------------------------------------------------- shards-startup

/// Scratch space under `.bench_scratch/` in the working directory, the
/// only place the benchmark writes; removed when dropped.
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    /// A fresh scratch root for this process.
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let root = PathBuf::from(".bench_scratch").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("scratch dir {root:?}: {e}"))?;
        Ok(Scratch { root, next: 0 })
    }

    /// A path under the root that does not exist yet.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("op-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The shards-startup configuration: what `dma-lab fuzz --shards 8
/// --iters 96 --checkpoint-every 32 --checkpoint-dir DIR` runs.
pub fn shard_config(seed: u64, dir: PathBuf, threads: usize) -> ShardConfig {
    let mut cfg = ShardConfig::new(seed, SHARD_ITERS, SHARDS, threads);
    cfg.checkpoint_every = CHECKPOINT_EVERY;
    cfg.checkpoint_dir = Some(dir);
    cfg
}

/// One shards-startup op and what its checks found.
pub struct ShardsRun {
    /// Latency of `run_shards` + `merge`, in seconds.
    pub secs: f64,
    /// The merged report, unless the engine returned an error.
    pub report: Option<FuzzReport>,
    /// Problems found.
    pub problems: Vec<String>,
}

/// One shards-startup op: `run_shards` then `merge` into a fresh
/// checkpoint directory, spanned when traced; the merged counters are
/// checked against the sums over the shard outcomes.
pub fn shards_op(
    seed: u64,
    scratch: &mut Scratch,
    threads: usize,
    mut tracer: Option<&mut Tracer>,
    op: u64,
) -> ShardsRun {
    let dir = scratch.fresh();
    let sc = ShardedCampaign::new(shard_config(seed, dir.clone(), threads));
    let t = Instant::now();
    let span = tracer.as_deref_mut().map(|tr| tr.begin("shards.op", op));
    let shards = match tracer.as_deref_mut() {
        Some(tr) => tr.time("shard.run_shards", op, || sc.run_shards(false)).0,
        None => sc.run_shards(false),
    };
    let res = shards.and_then(|outcomes| {
        let counters: Vec<Counters> = outcomes.iter().map(|o| Counters::of(&o.report)).collect();
        let merged = match tracer.as_deref_mut() {
            Some(tr) => tr.time("shard.merge", op, || sc.merge(outcomes)).0,
            None => sc.merge(outcomes),
        };
        merged.map(|r| (counters, r))
    });
    if let (Some(tr), Some(id)) = (tracer, span) {
        tr.end(id);
    }
    let secs = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    match res {
        Ok((counters, report)) => ShardsRun {
            secs,
            problems: counter_sum_problems(&counters, &Counters::of(&report)),
            report: Some(report),
        },
        Err(e) => ShardsRun {
            secs,
            report: None,
            problems: vec![format!("sharded run: {e:?}")],
        },
    }
}

/// Digest of a merged report: its full `--json` rendering.
pub fn report_digest(r: &FuzzReport) -> String {
    let mut d = Digest::new();
    d.bytes(r.to_json().as_bytes());
    d.hex()
}

/// Wall time of each boot, with the executor's recorded spec, of every
/// machine template the shards of one op boot, in seconds.
pub fn shard_boot_seconds(seed: u64) -> Result<Vec<f64>, String> {
    let mut secs = Vec::new();
    for shard in 0..SHARDS {
        let s = shard_seed(seed, shard);
        let mut used: Vec<u8> = (0..SHARD_ITERS)
            .map(|it| FuzzInput::generate(s, it).config_id)
            .collect();
        used.sort_unstable();
        used.dedup();
        for config in used {
            let t = Instant::now();
            let m = boot_model(
                machine_config(config, s),
                BootSpec::Recorded(EXEC_RECORDER_CAPACITY),
            )
            .map_err(|e| format!("boot of config {config}: {e:?}"))?;
            secs.push(t.elapsed().as_secs_f64());
            drop(m);
        }
    }
    Ok(secs)
}

fn shards_startup(args: &Args) -> Result<Outcome, String> {
    let w = Workload::ShardsStartup;
    let mut scratch = Scratch::new("shards")?;
    let mut setup_s = Vec::with_capacity(SHARD_SETUPS);
    let mut first = None;
    for _ in 0..SHARD_SETUPS {
        drop(first.take());
        let r = shards_op(args.seed, &mut scratch, 1, None, 0);
        setup_s.push(r.secs);
        match r.report {
            Some(rep) if r.problems.is_empty() => first = Some(rep),
            _ => return Err(format!("set-up op: {:?}", r.problems)),
        }
    }
    let first = first.expect("at least one set-up op");
    let expect = report_digest(&first);
    let mut tally = Tally::default();
    if args.seed == FIGURE1_SEED {
        tally.check(figure1_missing(&first.findings));
    }
    drop(first);
    let mut digest = Digest::new();
    let (mut j, mut execs, mut cycles) = (0, 0, 0);
    let ops = run_for(args.seconds, SHARD_MIN_OPS, || {
        // Op 0 repeats the set-up op's seed and must reproduce it.
        let r = shards_op(sub_seed(args.seed, j), &mut scratch, 1, None, j);
        let mut problems = r.problems;
        let mut iters = 0;
        if let Some(rep) = &r.report {
            let d = report_digest(rep);
            if j == 0 && d != expect {
                problems.push("op 0 differs from the set-up op".to_string());
            }
            if j < SHARD_MIN_OPS {
                digest.bytes(d.as_bytes());
            }
            iters = rep.iters;
            execs += rep.execs + rep.minimize_execs;
            cycles += rep.total_cycles;
        }
        tally.record(problems);
        j += 1;
        (r.secs, iters)
    });
    let lat: Vec<f64> = ops.iter().map(|o| o.0).collect();
    let mut out = Outcome::new(tally);
    common_metrics(
        &mut out,
        w,
        &[ops],
        Windows {
            ops: 1,
            tail_ops: 1,
        },
        &setup_s,
    );
    out.fact("shards", SHARDS.to_string());
    out.fact("execs", execs.to_string());
    out.fact("sim_cycles", cycles.to_string());
    out.fact("digest", format!("\"{}\"", digest.hex()));
    out.fact("digest_ops", SHARD_MIN_OPS.to_string());
    let boots = shard_boot_seconds(args.seed)?;
    let boot_s: f64 = boots.iter().sum();
    out.fact("boots_per_op", boots.len().to_string());
    out.fact_num("boot_s_per_op", boot_s);
    out.fact_num("boot_share_pct", 100.0 * boot_s / median(&lat));
    event_facts(&mut out, args.seed, 0..EVENT_SAMPLE)?;
    Ok(out)
}

// ---------------------------------------------------------------- serve-poll

/// The request kinds of the serve-poll script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// `step` of [`STEP_N`] iterations.
    Step,
    /// `stats`, full snapshot.
    StatsFull,
    /// `stats` in delta mode.
    StatsDelta,
    /// `health`.
    Health,
    /// `profile`.
    Profile,
    /// `chrome`.
    Chrome,
    /// `posture`.
    Posture,
}

impl Req {
    /// Every kind, in report order.
    pub const ALL: [Req; 7] = [
        Req::Step,
        Req::StatsFull,
        Req::StatsDelta,
        Req::Health,
        Req::Profile,
        Req::Chrome,
        Req::Posture,
    ];

    /// The request line.
    pub fn line(self) -> &'static str {
        match self {
            Req::Step => "{\"req\":\"step\",\"n\":4}",
            Req::StatsFull => "{\"req\":\"stats\"}",
            Req::StatsDelta => "{\"req\":\"stats\",\"mode\":\"delta\"}",
            Req::Health => "{\"req\":\"health\"}",
            Req::Profile => "{\"req\":\"profile\"}",
            Req::Chrome => "{\"req\":\"chrome\"}",
            Req::Posture => "{\"req\":\"posture\"}",
        }
    }

    /// Name used in metric names (`serve.<kind>_us`).
    pub fn name(self) -> &'static str {
        match self {
            Req::Step => "step",
            Req::StatsFull => "stats_full",
            Req::StatsDelta => "stats_delta",
            Req::Health => "health",
            Req::Profile => "profile",
            Req::Chrome => "chrome",
            Req::Posture => "posture",
        }
    }

    /// Span name of `handle_line` on this kind.
    pub fn span(self) -> &'static str {
        match self {
            Req::Step => "serve.step",
            Req::StatsFull => "serve.stats_full",
            Req::StatsDelta => "serve.stats_delta",
            Req::Health => "serve.health",
            Req::Profile => "serve.profile",
            Req::Chrome => "serve.chrome",
            Req::Posture => "serve.posture",
        }
    }

    /// Position in [`Req::ALL`].
    pub fn index(self) -> usize {
        Req::ALL.iter().position(|k| *k == self).expect("listed")
    }
}

/// The pinned cadence: request `i` of the script. Cycles of step,
/// stats delta, health; after every [`PERIOD_CYCLES`] cycles one full
/// stats, profile, chrome and posture.
pub fn script(i: u64) -> Req {
    let cycle = [Req::Step, Req::StatsDelta, Req::Health];
    let periodic = [Req::StatsFull, Req::Profile, Req::Chrome, Req::Posture];
    let k = i % PERIOD;
    match k.checked_sub(PERIOD_CYCLES * 3) {
        None => cycle[(k % 3) as usize],
        Some(j) => periodic[j as usize],
    }
}

/// `Server::new` on a 2-shard session, `hello`, and a warm-up `step`
/// of [`WARM_ITERS`] iterations per shard.
pub fn serve_session(seed: u64) -> Result<(Server, ConnState), String> {
    let mut cfg = ServeConfig::new(seed, BUDGET);
    cfg.shards = SERVE_SHARDS;
    let mut server = Server::new(cfg).map_err(|e| format!("Server::new: {e:?}"))?;
    let mut conn = ConnState::default();
    let warm = format!(
        "{{\"req\":\"step\",\"n\":{}}}",
        WARM_ITERS * u64::from(SERVE_SHARDS)
    );
    for line in ["{\"req\":\"hello\"}", warm.as_str()] {
        let mut frames = Vec::new();
        server.handle_line(line, &mut conn, &mut frames);
        let problems = serve_frame_problems(&frames);
        if !problems.is_empty() {
            return Err(format!("set-up request {line}: {problems:?}"));
        }
    }
    Ok((server, conn))
}

/// One serve-poll op and what its checks found.
pub struct Reply {
    /// Latency of `handle_line`, in seconds.
    pub secs: f64,
    /// The frames it produced.
    pub frames: Vec<String>,
    /// Iterations a `step` advanced.
    pub ran: u64,
    /// Problems found.
    pub problems: Vec<String>,
}

/// One serve-poll op: `Server::handle_line` on `req`'s line, spanned
/// as `serve.<kind>` when traced.
pub fn serve_request(
    server: &mut Server,
    conn: &mut ConnState,
    req: Req,
    tracer: Option<&mut Tracer>,
    op: u64,
) -> Reply {
    let mut frames = Vec::new();
    let t = Instant::now();
    let flow = match tracer {
        Some(tr) => {
            tr.time(req.span(), op, || {
                server.handle_line(req.line(), conn, &mut frames)
            })
            .0
        }
        None => server.handle_line(req.line(), conn, &mut frames),
    };
    let secs = t.elapsed().as_secs_f64();
    let mut problems = serve_frame_problems(&frames);
    if flow != Flow::Continue {
        problems.push(format!("{} closed the connection", req.name()));
    }
    let ran = if req == Req::Step {
        let ran = frames
            .last()
            .and_then(|f| jsonr::parse(f).ok())
            .and_then(|v| v.u64_field("ran"))
            .unwrap_or(0);
        if ran != STEP_N {
            problems.push(format!("step ran {ran} of {STEP_N} iterations"));
        }
        ran
    } else {
        0
    };
    Reply {
        secs,
        frames,
        ran,
        problems,
    }
}

/// Bytes a request's frames put on the wire, newlines included.
pub fn frame_bytes(frames: &[String]) -> usize {
    frames.iter().map(|f| f.len() + 1).sum()
}

/// A session's `fuzz.execs` counter and simulated-cycle sum, from one
/// more (untimed) full `stats` request.
fn session_totals(server: &mut Server, conn: &mut ConnState) -> (u64, u64) {
    let mut frames = Vec::new();
    server.handle_line(Req::StatsFull.line(), conn, &mut frames);
    let snap = frames
        .first()
        .and_then(|f| jsonr::parse(f).ok())
        .and_then(|v| v.get("snapshot").cloned());
    let execs = snap
        .as_ref()
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.u64_field("fuzz.execs"));
    let cycles = snap
        .as_ref()
        .and_then(|s| s.get("histograms"))
        .and_then(|h| h.get("fuzz.exec.cycles"))
        .and_then(|h| h.u64_field("sum"));
    (execs.unwrap_or(0), cycles.unwrap_or(0))
}

fn serve_poll(args: &Args) -> Result<Outcome, String> {
    let w = Workload::ServePoll;
    let mut tally = Tally::default();
    let mut digest = Digest::new();
    let (mut setup_s, mut parts) = (Vec::new(), Vec::new());
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); Req::ALL.len()];
    let (mut execs, mut cycles) = (0, 0);
    for k in 0..SESSIONS {
        let t = Instant::now();
        let (mut server, mut conn) = serve_session(sub_seed(args.seed, k))?;
        setup_s.push(t.elapsed().as_secs_f64());
        let mut i = 0;
        let secs = args.seconds / SESSIONS as f64;
        parts.push(run_for(secs, SESSION_WINDOWS.tail_ops as u64, || {
            let req = script(i);
            let r = serve_request(&mut server, &mut conn, req, None, i);
            if i < SESSION_DIGEST_REQS {
                for f in &r.frames {
                    digest.bytes(f.as_bytes());
                    digest.bytes(b"\n");
                }
            }
            by_kind[req.index()].push(r.secs * 1e3);
            tally.record(r.problems);
            i += 1;
            (r.secs, r.ran)
        }));
        let (e, c) = session_totals(&mut server, &mut conn);
        execs += e;
        cycles += c;
    }
    let mut out = Outcome::new(tally);
    common_metrics(&mut out, w, &parts, SESSION_WINDOWS, &setup_s);
    out.fact("sessions", SESSIONS.to_string());
    out.fact("shards", SERVE_SHARDS.to_string());
    out.fact("execs_in_sessions", execs.to_string());
    out.fact("sim_cycles_in_sessions", cycles.to_string());
    out.fact("digest", format!("\"{}\"", digest.hex()));
    out.fact(
        "digest_requests_per_session",
        SESSION_DIGEST_REQS.to_string(),
    );
    let kinds: Vec<String> = Req::ALL
        .iter()
        .zip(&by_kind)
        .filter(|(_, v)| !v.is_empty())
        .map(|(k, v)| {
            format!(
                "\"{}\":{{\"n\":{},\"p50_ms\":{}}}",
                k.name(),
                v.len(),
                crate::num(median(v))
            )
        })
        .collect();
    out.fact("requests", format!("{{{}}}", kinds.join(",")));
    event_facts(&mut out, args.seed, 0..EVENT_SAMPLE)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_pins_the_cadence() {
        let period: Vec<Req> = (0..PERIOD).map(script).collect();
        assert_eq!(PERIOD, 52);
        assert_eq!(&period[..3], &[Req::Step, Req::StatsDelta, Req::Health]);
        assert_eq!(
            &period[48..],
            &[Req::StatsFull, Req::Profile, Req::Chrome, Req::Posture]
        );
        assert_eq!(script(PERIOD), Req::Step);
        // Reads outnumber steps, so the median op is a read.
        let reads = period.iter().filter(|r| **r != Req::Step).count();
        assert!(reads * 2 > period.len());
        assert!(Req::Step.line().contains(&format!("\"n\":{STEP_N}")));
    }

    #[test]
    fn timings_are_the_fastest_window() {
        // A part of `n` ops of `ms` each, every op one iteration.
        let part = |ms: f64, n: usize| vec![(ms / 1e3, 1); n];
        // The second part ran while a neighbour slowed it threefold; the
        // third is one op short of a tail window, so its faster ops
        // count for the rate and the median but not for the tail.
        let parts = [part(2.0, 1000), part(6.0, 1002), part(1.0, 999)];
        let mut out = Outcome::new(Tally::default());
        let win = Windows {
            ops: 500,
            tail_ops: 1000,
        };
        common_metrics(
            &mut out,
            Workload::CampaignSteady,
            &parts,
            win,
            &[0.5, 0.7, 0.6],
        );
        let get = |name: &str| {
            let m = out.metrics.iter().find(|m| m.name == name).expect(name);
            (m.value, m.samples)
        };
        assert_eq!(get("op_p50_ms"), (1.0, 3001));
        assert_eq!(get("op_p99_ms"), (2.0, 3001));
        assert!((get("iters_per_sec").0 - 1000.0).abs() < 1e-9);
        assert_eq!(get("setup_s"), (0.5, 3));
        assert!(out
            .facts
            .contains(&("windows".to_string(), "5".to_string())));
        assert!(out
            .facts
            .contains(&("tail_windows".to_string(), "2".to_string())));
    }

    #[test]
    fn a_window_resolves_its_p99_from_a_thousand_ops() {
        let f = Figures::of(&vec![(1.0, 1); 1000]);
        assert_eq!(f.tail_q, 0.99);
        // A shards-startup window is one op: its tail is the op itself.
        let f = Figures::of(&[(0.5, 768)]);
        assert_eq!(
            (f.iters_per_sec, f.p50_ms, f.tail_q, f.tail_ms),
            (1536.0, 500.0, 0.5, 500.0)
        );
    }

    #[test]
    fn the_first_sub_seed_is_the_seed() {
        assert_eq!(sub_seed(7, 0), 7);
        assert_ne!(sub_seed(7, 1), 7);
    }
}
