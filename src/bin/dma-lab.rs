//! The dma-lab command-line interface: one binary driving every
//! experiment in the reproduction.
//!
//! ```text
//! dma-lab layout                          Table 1 + a KASLR sample
//! dma-lab spade [--filter P] [--seed N]   §4.1: Figure 2 + Table 2
//! dma-lab dkasan [--rounds N] [--seed N]  §4.2: Figure 3 report
//! dma-lab survey [--boots N] [--profile 5.0|4.15]   §5.3 reboot survey
//! dma-lab attack <ringflood|poisoned-tx|forward-thinking|single-step>
//!                [--window i|ii|iii] [--seed N]
//! dma-lab surveil [--seed N]              §5.5 arbitrary-page read
//! dma-lab stats [--seed N] [--json]       metrics snapshot of one run
//! dma-lab stats --diff A.json B.json      per-metric delta of two dumps
//! dma-lab trace --spans [--seed N]        span-scoped cycle timeline
//! dma-lab trace --chrome OUT.json         Perfetto/Chrome trace export
//! dma-lab serve [--seed N] [--iters N] [--port P] [--script FILE]
//!               live line-JSON campaign telemetry over TCP
//! dma-lab fuzz [--seed N] [--iters N] [--corpus-dir D] [--json]
//!              [--shards N] [--threads T] [--config ID|NAME]
//!              [--checkpoint-every N] [--checkpoint-dir D] [--resume D]
//!              [--watchdog-budget CYCLES] [--plant-panic K] [--plant-hang K]
//! dma-lab infer [--seed N] [--config ID|NAME]
//!               inferred DMA-channel maps (one JSON line per config)
//! dma-lab forensics [--seed N] [--iters N] [--json]
//! dma-lab help
//! ```
//!
//! Exit codes: `0` success, `1` experiment/run error, `2` usage error
//! (unknown command or malformed arguments).

use dma_lab::attacks::image::KernelImage;
use dma_lab::attacks::ringflood::{self, BootSurvey};
use dma_lab::attacks::{forward_thinking, poisoned_tx, single_step};
use dma_lab::devsim::MaliciousNic;
use dma_lab::dkasan::{run_workload, FindingKind, WorkloadConfig};
use dma_lab::dma_core::jsonw::JsonWriter;
use dma_lab::dma_core::vuln::WindowPath;
use dma_lab::dma_core::{DetRng, KernelLayout, SimCtx};
use dma_lab::obs::{render_timeline, run_observed, ObsConfig};
use dma_lab::sim_iommu::{InvalidationMode, Iommu, IommuConfig};
use dma_lab::sim_mem::{MemConfig, MemorySystem};
use dma_lab::spade::analysis::analyze;
use dma_lab::spade::corpus::{full_corpus, CorpusMix};
use dma_lab::spade::report::{Table2, TraceReport};
use dma_lab::spade::xref::SourceTree;

/// Minimal flag parser: `--key value` pairs after the subcommand.
struct Args {
    positional: Vec<String>,
    flags: std::collections::BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = std::collections::BTreeMap::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(key) = raw[i].strip_prefix("--") {
                // A flag only consumes the next token as its value when
                // that token is not itself a flag, so bare booleans
                // compose: `--json --seed 5` keeps both.
                if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                    flags.insert(key.to_string(), raw[i + 1].clone());
                    i += 2;
                } else {
                    flags.insert(key.to_string(), String::new());
                    i += 1;
                }
            } else {
                positional.push(raw[i].clone());
                i += 1;
            }
        }
        Args { positional, flags }
    }

    /// Parses `--key` as u64, erroring on anything present but
    /// malformed (junk, empty, or overflowing) instead of silently
    /// falling back to the default — a mistyped seed must be a usage
    /// error, not a different experiment.
    fn u64_flag(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} wants an unsigned 64-bit integer, got '{v}'")),
        }
    }

    fn str_flag(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// True when `--key` was given at all (with or without a value).
    fn bool_flag(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

/// Unwraps a hardened numeric flag, turning a parse failure into the
/// documented exit-code-2 usage error.
macro_rules! num_flag {
    ($args:expr, $key:expr, $default:expr) => {
        match $args.u64_flag($key, $default) {
            Ok(v) => v,
            Err(msg) => {
                eprintln!("{msg}\n{HELP}");
                return 2;
            }
        }
    };
}

fn window_of(args: &Args) -> WindowPath {
    match args.str_flag("window") {
        Some("i") => WindowPath::UnmapAfterBuild,
        Some("iii") => WindowPath::NeighborIova,
        _ => WindowPath::DeferredIotlb,
    }
}

/// The flags each command reads. Any other flag is a usage error
/// (exit 2), so a typo such as `--iter` never runs a default-valued
/// experiment.
const FLAGS: &[(&str, &str)] = &[
    ("layout", "seed"),
    ("spade", "filter seed tsv json"),
    ("dkasan", "rounds seed faults json"),
    ("survey", "boots profile"),
    ("attack", "window seed"),
    ("surveil", "seed"),
    ("dos", "seed"),
    ("dump", "seed start frames"),
    ("chaos", "seed runs json"),
    ("stats", "seed rounds faults json checkpoint-dir diff"),
    ("trace", "spans seed rounds faults json chrome"),
    (
        "serve",
        "seed iters port script shards transcript checkpoint-dir checkpoint-every",
    ),
    (
        "fuzz",
        "seed iters corpus-dir json shards threads config checkpoint-every checkpoint-dir resume \
         watchdog-budget plant-panic plant-hang",
    ),
    ("profile", "seed iters config folded json"),
    ("bench", "check"),
    ("infer", "seed config"),
    ("forensics", "seed iters json"),
    ("help", ""),
];

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cmd = raw
        .first()
        .map(|s| s.as_str())
        .unwrap_or("help")
        .to_string();
    let args = Args::parse(&raw[raw.len().min(1)..]);
    if let Some((_, known)) = FLAGS.iter().find(|(name, _)| *name == cmd) {
        for flag in args.flags.keys() {
            if !known.split_whitespace().any(|k| k == flag) {
                eprintln!("{cmd} does not take --{flag}\n{HELP}");
                std::process::exit(2);
            }
        }
    }
    let code = match cmd.as_str() {
        "layout" => cmd_layout(&args),
        "spade" => cmd_spade(&args),
        "dkasan" => cmd_dkasan(&args),
        "survey" => cmd_survey(&args),
        "attack" => cmd_attack(&args),
        "surveil" => cmd_surveil(&args),
        "dos" => cmd_dos(&args),
        "dump" => cmd_dump(&args),
        "chaos" => cmd_chaos(&args),
        "stats" => cmd_stats(&args),
        "trace" => cmd_trace(&args),
        "fuzz" => cmd_fuzz(&args),
        "profile" => cmd_profile(&args),
        "bench" => cmd_bench(&args),
        "infer" => cmd_infer(&args),
        "forensics" => cmd_forensics(&args),
        "serve" => cmd_serve(&args),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            0
        }
        other => {
            eprintln!("unknown command '{other}'\n{HELP}");
            2
        }
    };
    std::process::exit(code);
}

const HELP: &str = "\
dma-lab — reproduction of 'DMA Code Injection Vulnerabilities in the
Presence of an IOMMU' (EuroSys '21)

USAGE:
    dma-lab layout
    dma-lab spade [--filter PATH-SUBSTRING] [--seed N] [--tsv 1] [--json]
    dma-lab survey [--boots N] [--profile 5.0|4.15]
    dma-lab attack <ringflood|poisoned-tx|forward-thinking|single-step>
                   [--window i|ii|iii] [--seed N]
    dma-lab surveil [--seed N]
    dma-lab dos [--seed N]
    dma-lab dump [--seed N] [--start PFN] [--frames N]
    dma-lab dkasan [--rounds N] [--seed N] [--faults SEED] [--json]
    dma-lab chaos [--seed N] [--runs N] [--json]
    dma-lab stats [--seed N] [--rounds N] [--faults SEED] [--json]
                  [--checkpoint-dir DIR]
    dma-lab stats --diff OLD.json NEW.json [--json]
    dma-lab trace --spans [--seed N] [--rounds N] [--json] [--chrome OUT.json]
    dma-lab serve [--seed N] [--iters N] [--port P] [--script FILE] [--shards N]
                  [--transcript OUT] [--checkpoint-dir DIR] [--checkpoint-every N]
    dma-lab fuzz [--seed N] [--iters N] [--corpus-dir DIR] [--json]
                 [--shards N] [--threads T] [--config ID|NAME]
                 [--checkpoint-every N] [--checkpoint-dir DIR] [--resume DIR]
                 [--watchdog-budget CYCLES] [--plant-panic K] [--plant-hang K]
    dma-lab profile [--seed N] [--iters N] [--config ID|NAME] [--folded OUT.txt]
                    [--json]
    dma-lab bench --check BENCH.json [BENCH.json ...]
    dma-lab infer [--seed N] [--config ID|NAME]
    dma-lab forensics [--seed N] [--iters N] [--json]
    dma-lab help

EXIT CODES:
    0 success    1 experiment/run error    2 usage error
";

fn cmd_layout(args: &Args) -> i32 {
    println!(
        "{:<18} {:<18} {:>8}  VM area description",
        "Start Addr", "End Addr", "Size"
    );
    for (start, end, size, desc) in KernelLayout::table1() {
        println!("{start:<18} {end:<18} {size:>8}  {desc}");
    }
    let seed = num_flag!(args, "seed", 1);
    let mut rng = DetRng::new(seed);
    let l = KernelLayout::randomize(&mut rng, 256 << 20);
    println!("\nKASLR sample (seed {seed}):");
    println!("  text_base        = {}", l.text_base);
    println!("  page_offset_base = {}", l.page_offset_base);
    println!("  vmemmap_base     = {}", l.vmemmap_base);
    0
}

fn cmd_spade(args: &Args) -> i32 {
    let seed = num_flag!(args, "seed", 1);
    let corpus = full_corpus(&CorpusMix::default(), seed);
    let tree = SourceTree::load(corpus.iter().map(|(p, s)| (p.as_str(), s.as_str())));
    let findings = analyze(&tree);
    if let Some(pat) = args.str_flag("filter") {
        let mut shown = 0;
        for f in findings.iter().filter(|f| f.file.contains(pat)) {
            println!("--- {}:{} ({}) ---", f.file, f.line, f.caller);
            println!("{}", TraceReport(f));
            shown += 1;
        }
        println!("{shown} finding(s) matched '{pat}'");
        return 0;
    }
    if args.str_flag("tsv").is_some() {
        print!("{}", dma_lab::spade::report::render_tsv(&findings));
        return 0;
    }
    if args.bool_flag("json") {
        let t = Table2::from_findings(&findings);
        let rows = [
            ("callbacks_exposed", &t.callbacks_exposed),
            ("shinfo_mapped", &t.shinfo_mapped),
            ("callbacks_direct", &t.callbacks_direct),
            ("private_data", &t.private_data),
            ("stack_mapped", &t.stack_mapped),
            ("type_c", &t.type_c),
            ("build_skb", &t.build_skb),
            ("total", &t.total),
        ];
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_u64("seed", seed);
            w.field("table2", |w| {
                w.obj(|w| {
                    for (name, row) in rows {
                        w.field(name, |w| {
                            w.obj(|w| {
                                w.field_u64("calls", row.calls as u64);
                                w.field_u64("files", row.files as u64);
                            });
                        });
                    }
                });
            });
            w.field_u64(
                "vulnerable_calls",
                Table2::vulnerable_calls(&findings) as u64,
            );
        });
        println!("{}", w.finish());
        return 0;
    }
    let t = Table2::from_findings(&findings);
    println!("{}", t.render());
    let v = Table2::vulnerable_calls(&findings);
    println!(
        "Potentially vulnerable: {v}/{} ({:.1}%)   [paper: 742/1019 (72.8%)]",
        t.total.calls,
        100.0 * v as f64 / t.total.calls as f64
    );
    0
}

fn cmd_dkasan(args: &Args) -> i32 {
    let cfg = WorkloadConfig {
        rounds: num_flag!(args, "rounds", 200) as usize,
        seed: num_flag!(args, "seed", 0xd0_ca5a),
        fault_seed: match args.str_flag("faults") {
            None => None,
            Some(_) => Some(num_flag!(args, "faults", 0)),
        },
    };
    match run_workload(cfg) {
        Ok(report) => {
            if args.bool_flag("json") {
                let mut w = JsonWriter::new();
                w.obj(|w| {
                    w.field_u64("packets", report.packets);
                    w.field_u64("allocs", report.allocs);
                    w.field_u64("dropped", report.dropped);
                    w.field("counts", |w| {
                        w.obj(|w| {
                            for kind in FindingKind::ALL {
                                w.field_u64(&kind.to_string(), report.count(kind) as u64);
                            }
                        });
                    });
                    w.field("findings", |w| {
                        w.arr(|w| {
                            for f in report.dkasan.findings() {
                                w.elem(|w| {
                                    w.obj(|w| {
                                        w.field_str("kind", &f.kind.to_string());
                                        w.field_u64("size", f.size as u64);
                                        w.field_str("rights", &f.rights.to_string());
                                        w.field_str("site", f.site);
                                        w.field_u64("page", f.page);
                                    });
                                });
                            }
                        });
                    });
                });
                println!("{}", w.finish());
                return 0;
            }
            println!("{}", report.render());
            println!();
            for kind in FindingKind::ALL {
                println!("{:<18} {}", kind.to_string(), report.count(kind));
            }
            0
        }
        Err(e) => {
            eprintln!("workload failed: {e}");
            1
        }
    }
}

fn cmd_chaos(args: &Args) -> i32 {
    // The isolated soak converts a panicking schedule into a reported
    // per-seed failure instead of killing the whole sweep.
    use dma_lab::devsim::chaos::run_soak_isolated as run_soak;
    let base = num_flag!(args, "seed", 1);
    let runs = num_flag!(args, "runs", 8);
    if args.bool_flag("json") {
        let mut failed = 0;
        let mut w = JsonWriter::new();
        w.arr(|w| {
            for seed in base..base + runs {
                w.elem(|w| match run_soak(seed) {
                    Ok(r) => {
                        w.obj(|w| {
                            w.field_u64("seed", r.seed);
                            w.field_u64("delivered", r.delivered);
                            w.field_u64("echoed", r.echoed);
                            w.field_u64("dropped", r.dropped);
                            w.field_u64("injected_total", r.injected_total);
                            w.field("hits_by_site", |w| {
                                w.obj(|w| {
                                    for (site, n) in &r.hits_by_site {
                                        w.field_u64(site, *n);
                                    }
                                });
                            });
                            w.field_u64("leaked_pages", r.leaked_pages as u64);
                            w.field("stats", |w| w.raw(&r.stats_json));
                        });
                        if r.leaked_pages > 0 {
                            failed += 1;
                        }
                    }
                    Err(e) => {
                        w.obj(|w| {
                            w.field_u64("seed", seed);
                            w.field_str("error", &e.to_string());
                        });
                        failed += 1;
                    }
                });
            }
        });
        println!("{}", w.finish());
        return i32::from(failed > 0);
    }
    println!(
        "{:>18}  {:>6} {:>7} {:>8} {:>6}  fault sites hit",
        "seed", "echoed", "dropped", "injected", "leaked"
    );
    let mut failed = 0;
    for seed in base..base + runs {
        match run_soak(seed) {
            Ok(r) => {
                let sites: Vec<String> = r
                    .hits_by_site
                    .iter()
                    .map(|(s, n)| format!("{s}×{n}"))
                    .collect();
                println!(
                    "{seed:>18}  {:>6} {:>7} {:>8} {:>6}  {}",
                    r.delivered + r.echoed,
                    r.dropped,
                    r.injected_total,
                    r.leaked_pages,
                    sites.join(" ")
                );
                if r.leaked_pages > 0 {
                    failed += 1;
                }
            }
            Err(e) => {
                println!("{seed:>18}  SOAK FAILED: {e}");
                failed += 1;
            }
        }
    }
    i32::from(failed > 0)
}

/// Shared config for the `stats` and `trace` observability commands.
/// `Err` carries the usage message of a malformed numeric flag.
fn obs_config(args: &Args) -> Result<ObsConfig, String> {
    Ok(ObsConfig {
        seed: args.u64_flag("seed", ObsConfig::default().seed)?,
        rounds: args.u64_flag("rounds", 200)? as usize,
        fault_seed: match args.str_flag("faults") {
            None => None,
            Some(_) => Some(args.u64_flag("faults", 0)?),
        },
    })
}

/// Unwraps [`obs_config`] into the exit-2 usage path.
macro_rules! obs_config_or_usage {
    ($args:expr) => {
        match obs_config($args) {
            Ok(cfg) => cfg,
            Err(msg) => {
                eprintln!("{msg}\n{HELP}");
                return 2;
            }
        }
    };
}

fn cmd_stats(args: &Args) -> i32 {
    // `--diff OLD.json NEW.json` is a pure file mode: no simulated run,
    // just the per-metric delta of two dumps written by `stats --json`
    // (or fetched from a `serve` stats frame). Exit 1 when any counter
    // regressed — counters are monotone in a live registry, so a drop
    // between dumps always marks a suspect trajectory.
    if args.bool_flag("diff") {
        let old_path = match args.str_flag("diff") {
            Some(p) if !p.is_empty() => p,
            _ => {
                eprintln!("--diff wants two metric dump paths\n{HELP}");
                return 2;
            }
        };
        let Some(new_path) = args.positional.first() else {
            eprintln!("--diff wants a second (newer) dump path\n{HELP}");
            return 2;
        };
        let load = |path: &str| -> Result<dma_lab::dma_core::Snapshot, String> {
            let doc =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            dma_lab::dma_core::Snapshot::from_json(&doc)
                .ok_or_else(|| format!("{path} is not a metrics dump"))
        };
        let (old, new) = match (load(old_path), load(new_path)) {
            (Ok(o), Ok(n)) => (o, n),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return 1;
            }
        };
        let delta = new.diff(&old);
        if args.bool_flag("json") {
            println!("{}", delta.to_json());
        } else {
            print!("{}", delta.render_text());
        }
        // A watched metric that vanished from the newer dump is just as
        // suspect as a counter that went backwards — a zero-valued
        // counter or a dropped histogram would otherwise slip through
        // the value diff unnoticed.
        return i32::from(delta.has_regressions());
    }
    // `--checkpoint-dir DIR` folds the newest campaign checkpoint
    // generation into the report, so long campaigns can audit silent
    // loss (trace.dropped) and checkpoint age from one command.
    let checkpoint = match args.str_flag("checkpoint-dir") {
        None => None,
        Some("") => {
            eprintln!("--checkpoint-dir wants a path\n{HELP}");
            return 2;
        }
        Some(dir) => {
            use dma_lab::dma_core::CheckpointStore;
            let loaded = CheckpointStore::open(dir).and_then(|mut s| s.load());
            match loaded {
                Ok(Some(c)) => {
                    let next_iter = c.payload.u64_field("next_iter").unwrap_or(0);
                    Some((c.sequence, next_iter))
                }
                Ok(None) => {
                    eprintln!("no valid checkpoint generation under {dir}");
                    return 1;
                }
                Err(e) => {
                    eprintln!("cannot open checkpoint dir {dir}: {e}");
                    return 1;
                }
            }
        }
    };
    match run_observed(obs_config_or_usage!(args)) {
        Ok(r) => {
            if args.bool_flag("json") {
                match checkpoint {
                    // The bare shape is unchanged so existing pipelines
                    // keep parsing; the checkpoint wrapper only appears
                    // when explicitly requested.
                    None => println!("{}", r.snapshot.to_json()),
                    Some((sequence, next_iter)) => {
                        let mut w = JsonWriter::new();
                        w.obj(|w| {
                            w.field("snapshot", |w| w.raw(&r.snapshot.to_json()));
                            w.field("checkpoint", |w| {
                                w.obj(|w| {
                                    w.field_u64("sequence", sequence);
                                    w.field_u64("next_iter", next_iter);
                                });
                            });
                        });
                        println!("{}", w.finish());
                    }
                }
            } else {
                print!("{}", r.snapshot.render_text());
                if let Some((sequence, next_iter)) = checkpoint {
                    println!("\ncheckpoint generation {sequence}  next_iter {next_iter}");
                }
                println!(
                    "\npackets {}  dropped {}  leaked_pages {}",
                    r.packets, r.dropped, r.leaked_pages
                );
            }
            0
        }
        Err(e) => {
            eprintln!("stats run failed: {e}");
            1
        }
    }
}

fn cmd_serve(args: &Args) -> i32 {
    use dma_lab::fuzz::silence_quarantined_panics;
    use dma_lab::serve::{run_scripted_session, ServeConfig, Server};
    use std::path::PathBuf;
    silence_quarantined_panics();
    let seed = num_flag!(args, "seed", 7);
    let iters = num_flag!(args, "iters", 10_000);
    let port = num_flag!(args, "port", 0);
    let checkpoint_every = num_flag!(args, "checkpoint-every", 0);
    let shards = num_flag!(args, "shards", 1);
    if iters == 0 {
        eprintln!("--iters must be at least 1\n{HELP}");
        return 2;
    }
    if shards == 0 || shards > 4096 {
        eprintln!("--shards must be between 1 and 4096\n{HELP}");
        return 2;
    }
    if port > u16::MAX as u64 {
        eprintln!("--port must fit in 16 bits\n{HELP}");
        return 2;
    }
    let checkpoint_dir = match args.str_flag("checkpoint-dir") {
        Some("") => {
            eprintln!("--checkpoint-dir wants a path\n{HELP}");
            return 2;
        }
        other => other.map(PathBuf::from),
    };
    if checkpoint_every > 0 && checkpoint_dir.is_none() {
        eprintln!("--checkpoint-every needs --checkpoint-dir\n{HELP}");
        return 2;
    }
    let cfg = ServeConfig {
        seed,
        iters,
        checkpoint_dir,
        checkpoint_every,
        shards: shards as u32,
    };
    if let Some(script_path) = args.str_flag("script") {
        if script_path.is_empty() {
            eprintln!("--script wants a path\n{HELP}");
            return 2;
        }
        let script = match std::fs::read_to_string(script_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {script_path}: {e}");
                return 1;
            }
        };
        let transcript = match run_scripted_session(cfg, &script) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("scripted session failed: {e}");
                return 1;
            }
        };
        match args.str_flag("transcript") {
            Some(out) if !out.is_empty() => {
                if let Err(e) = std::fs::write(out, &transcript) {
                    eprintln!("cannot write {out}: {e}");
                    return 1;
                }
                eprintln!(
                    "wrote {out}: {} frames ({} bytes)",
                    transcript.lines().count(),
                    transcript.len()
                );
            }
            _ => print!("{transcript}"),
        }
        return 0;
    }
    let server = match Server::new(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("campaign setup failed: {e}");
            return 1;
        }
    };
    let listener = match std::net::TcpListener::bind(("127.0.0.1", port as u16)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind 127.0.0.1:{port}: {e}");
            return 1;
        }
    };
    match listener.local_addr() {
        Ok(addr) => eprintln!("listening on {addr} (seed {seed}, {iters} iters)"),
        Err(e) => {
            eprintln!("cannot resolve bound address: {e}");
            return 1;
        }
    }
    match server.serve(listener, None) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve loop failed: {e}");
            1
        }
    }
}

fn cmd_trace(args: &Args) -> i32 {
    // `--spans` selects the default view; `--chrome OUT.json` writes a
    // Perfetto/Chrome `trace_event` file instead. Tolerate the absence
    // of both so `dma-lab trace` alone also works.
    if args.bool_flag("chrome") && args.str_flag("chrome").unwrap_or("").is_empty() {
        eprintln!("--chrome wants an output path\n{HELP}");
        return 2;
    }
    match run_observed(obs_config_or_usage!(args)) {
        Ok(r) => {
            if let Some(path) = args.str_flag("chrome") {
                let json = dma_lab::dma_core::chrome::export(&r.timeline, &r.events);
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("cannot write {path}: {e}");
                    return 1;
                }
                println!(
                    "wrote {path}: {} spans + {} events ({} bytes) — open at ui.perfetto.dev",
                    r.timeline.len(),
                    r.events.len(),
                    json.len()
                );
                return 0;
            }
            if args.bool_flag("json") {
                let mut w = JsonWriter::new();
                w.obj(|w| {
                    w.field("spans", |w| {
                        w.arr(|w| {
                            for rec in &r.timeline {
                                w.elem(|w| {
                                    w.obj(|w| {
                                        w.field_str("name", rec.name);
                                        w.field_u64("start", rec.start);
                                        w.field_u64("end", rec.end);
                                        w.field_u64("depth", rec.depth as u64);
                                    });
                                });
                            }
                        });
                    });
                    w.field_u64("dropped", r.snapshot.timeline_dropped);
                });
                println!("{}", w.finish());
            } else {
                print!("{}", render_timeline(&r.timeline));
                if r.snapshot.timeline_dropped > 0 {
                    println!("({} records past the cap)", r.snapshot.timeline_dropped);
                }
            }
            0
        }
        Err(e) => {
            eprintln!("trace run failed: {e}");
            1
        }
    }
}

fn cmd_fuzz(args: &Args) -> i32 {
    use dma_lab::fuzz::{
        silence_quarantined_panics, Campaign, CampaignConfig, ShardConfig, ShardedCampaign,
        DEFAULT_WATCHDOG_BUDGET,
    };
    use std::path::PathBuf;
    // Contained panics become quarantined findings; their default-hook
    // backtrace spew would only pollute stderr.
    silence_quarantined_panics();
    let seed = num_flag!(args, "seed", 7);
    let iters = num_flag!(args, "iters", 96);
    let checkpoint_every = num_flag!(args, "checkpoint-every", 0);
    let watchdog_budget = num_flag!(args, "watchdog-budget", DEFAULT_WATCHDOG_BUDGET);
    let shards = num_flag!(args, "shards", 1);
    let threads = num_flag!(args, "threads", 1);
    if iters == 0 {
        eprintln!("--iters must be at least 1\n{HELP}");
        return 2;
    }
    if watchdog_budget == 0 {
        eprintln!("--watchdog-budget must be at least 1 cycle\n{HELP}");
        return 2;
    }
    if shards == 0 || shards > 4096 {
        eprintln!("--shards must be between 1 and 4096\n{HELP}");
        return 2;
    }
    if threads == 0 {
        eprintln!("--threads must be at least 1\n{HELP}");
        return 2;
    }
    // `--config` pins every iteration to one machine shape. Out-of-range
    // ids and unknown names are usage errors — never silently aliased
    // into the matrix by a modulo wrap.
    let only_config = match args.str_flag("config") {
        None => None,
        Some(s) => match dma_lab::fuzz::parse_config(s) {
            Some(id) => Some(id),
            None => {
                eprintln!(
                    "--config '{s}' is not a machine config; want an id below {} or a name \
                     (see `dma-lab infer`)\n{HELP}",
                    dma_lab::fuzz::NUM_CONFIGS
                );
                return 2;
            }
        },
    };
    // `--shards` (even `--shards 1`) selects the sharded engine; its
    // 1-shard output is byte-identical to the legacy path, which the
    // scale tests pin.
    let sharded = args.flags.contains_key("shards") || args.flags.contains_key("threads");
    if sharded && (args.str_flag("plant-panic").is_some() || args.str_flag("plant-hang").is_some())
    {
        eprintln!("--plant-panic/--plant-hang only apply to single-shard campaigns\n{HELP}");
        return 2;
    }
    let plant_panic_at = match args.str_flag("plant-panic") {
        None => None,
        Some(_) => Some(num_flag!(args, "plant-panic", 0)),
    };
    let plant_hang_at = match args.str_flag("plant-hang") {
        None => None,
        Some(_) => Some(num_flag!(args, "plant-hang", 0)),
    };
    let corpus_dir = match args.str_flag("corpus-dir") {
        Some("") => {
            eprintln!("--corpus-dir wants a path\n{HELP}");
            return 2;
        }
        other => other.map(PathBuf::from),
    };
    // The corpus dir itself may be fresh (it is created on demand), but
    // a missing parent is almost always a typo — reject it up front.
    if let Some(parent) = corpus_dir.as_deref().and_then(|d| d.parent()) {
        if !parent.as_os_str().is_empty() && !parent.exists() {
            eprintln!(
                "--corpus-dir parent '{}' does not exist\n{HELP}",
                parent.display()
            );
            return 2;
        }
    }
    let resume_dir = match args.str_flag("resume") {
        None => None,
        Some("") => {
            eprintln!("--resume wants a checkpoint directory\n{HELP}");
            return 2;
        }
        Some(d) if !std::path::Path::new(d).is_dir() => {
            eprintln!("--resume '{d}' is not an existing directory\n{HELP}");
            return 2;
        }
        Some(d) => Some(PathBuf::from(d)),
    };
    let checkpoint_dir = match args.str_flag("checkpoint-dir") {
        Some("") => {
            eprintln!("--checkpoint-dir wants a path\n{HELP}");
            return 2;
        }
        other => other.map(PathBuf::from).or_else(|| resume_dir.clone()),
    };
    if checkpoint_every > 0 && checkpoint_dir.is_none() {
        eprintln!("--checkpoint-every needs --checkpoint-dir or --resume\n{HELP}");
        return 2;
    }

    let resuming = resume_dir.is_some();
    let run = if sharded {
        let mut scfg = ShardConfig::new(seed, iters, shards as u32, threads as usize);
        scfg.corpus_dir = corpus_dir;
        scfg.checkpoint_dir = checkpoint_dir;
        scfg.checkpoint_every = checkpoint_every;
        scfg.watchdog_budget = watchdog_budget;
        scfg.only_config = only_config;
        let sc = ShardedCampaign::new(scfg);
        if resuming {
            eprintln!("resuming {shards} shard(s) across {threads} thread(s)");
            sc.resume()
        } else {
            sc.run()
        }
    } else {
        let mut cfg = CampaignConfig::new(seed, iters);
        cfg.corpus_dir = corpus_dir;
        cfg.checkpoint_dir = checkpoint_dir;
        cfg.checkpoint_every = checkpoint_every;
        cfg.watchdog_budget = watchdog_budget;
        cfg.plant_panic_at = plant_panic_at;
        cfg.plant_hang_at = plant_hang_at;
        cfg.only_config = only_config;
        (|| {
            let mut campaign = if resuming {
                let c = Campaign::resume(cfg)?;
                eprintln!(
                    "resumed at iteration {} (seed {})",
                    c.next_iter(),
                    c.config().seed
                );
                c
            } else {
                Campaign::new(cfg)?
            };
            campaign.run_to_end()?;
            if let Some(store) = campaign.store() {
                let writes = store.io_metrics().counter("checkpoint.writes");
                let recovered = store.recovered();
                if writes > 0 || recovered > 0 {
                    eprintln!("checkpoints: {writes} written, {recovered} recovered");
                }
            }
            campaign.finish()
        })()
    };
    match run {
        Ok(report) => {
            if args.bool_flag("json") {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
            0
        }
        Err(e) => {
            eprintln!("fuzz run failed: {e}");
            1
        }
    }
}

/// `dma-lab profile`: runs the deterministic cycle-attribution
/// profiler over the canonical fuzz inputs and prints the merged call
/// tree (text), a speedscope document (`--json`), and/or a folded-stack
/// file (`--folded`, the `flamegraph.pl`/inferno input format). Output
/// is byte-identical across runs.
fn cmd_profile(args: &Args) -> i32 {
    use dma_lab::profiling::{run_profile, ProfileConfig};
    let seed = num_flag!(args, "seed", 7);
    let iters = num_flag!(args, "iters", 96);
    if iters == 0 {
        eprintln!("--iters must be at least 1\n{HELP}");
        return 2;
    }
    let only_config = match args.str_flag("config") {
        None => None,
        Some(s) => match dma_lab::fuzz::parse_config(s) {
            Some(id) => Some(id),
            None => {
                eprintln!(
                    "--config '{s}' is not a machine config; want an id below {} or a name \
                     (see `dma-lab infer`)\n{HELP}",
                    dma_lab::fuzz::NUM_CONFIGS
                );
                return 2;
            }
        },
    };
    let folded_path = match args.str_flag("folded") {
        Some("") => {
            eprintln!("--folded wants an output path\n{HELP}");
            return 2;
        }
        other => other,
    };
    let run = match run_profile(&ProfileConfig {
        seed,
        iters,
        only_config,
    }) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("profile run failed: {e}");
            return 1;
        }
    };
    if let Some(path) = folded_path {
        if let Err(e) = std::fs::write(path, run.profile.folded()) {
            eprintln!("cannot write --folded '{path}': {e}");
            return 1;
        }
    }
    if args.bool_flag("json") {
        println!(
            "{}",
            run.profile
                .speedscope_json(&format!("dma-lab profile seed {seed}"))
        );
    } else {
        print!("{}", run.render_text());
    }
    0
}

/// `dma-lab bench --check`: re-runs the deterministic simulated-cycle
/// workload behind each committed `BENCH_*.json` and exits 1 when any
/// watched metric regresses beyond its tolerance — the trajectory gate
/// CI runs against the committed bench files.
fn cmd_bench(args: &Args) -> i32 {
    use dma_lab::profiling::check_bench_file;
    if !args.bool_flag("check") {
        eprintln!("bench wants --check with at least one BENCH_*.json\n{HELP}");
        return 2;
    }
    // The flag parser hands `--check A B C` over as flag value `A` plus
    // positionals `B C`; fold them back into one file list.
    let mut files: Vec<String> = Vec::new();
    if let Some(first) = args.str_flag("check") {
        if !first.is_empty() {
            files.push(first.to_string());
        }
    }
    files.extend(args.positional.iter().cloned());
    if files.is_empty() {
        eprintln!("--check wants at least one BENCH_*.json path\n{HELP}");
        return 2;
    }
    for f in &files {
        if !std::path::Path::new(f).is_file() {
            eprintln!("--check '{f}' is not an existing file\n{HELP}");
            return 2;
        }
    }
    let mut failed = 0usize;
    for f in &files {
        match check_bench_file(std::path::Path::new(f)) {
            Err(why) => {
                eprintln!("{why}");
                return 1;
            }
            Ok(outcome) => {
                if let Some(why) = &outcome.skipped {
                    println!("{f}: skipped ({why})");
                    continue;
                }
                for row in &outcome.rows {
                    let verdict = if row.ok { "ok" } else { "REGRESSED" };
                    println!(
                        "{f} [{}] {}: committed {} vs {} {verdict}",
                        outcome.report, row.metric, row.expected, row.actual
                    );
                }
                if !outcome.passed() {
                    failed += 1;
                }
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} bench file(s) regressed beyond tolerance");
        1
    } else {
        0
    }
}

/// `dma-lab infer`: boots the selected machine(s) with a traced boot,
/// runs the canonical inference workload, and prints one deterministic
/// `ChannelMap` JSON line per config — the zero-hand-wiring channel
/// discovery the fuzzer's mutation vocabulary is built on.
fn cmd_infer(args: &Args) -> i32 {
    use dma_lab::fuzz::{infer_channels, parse_config, NUM_CONFIGS};
    let seed = num_flag!(args, "seed", 7);
    let configs: Vec<u8> = match args.str_flag("config") {
        None => (0..NUM_CONFIGS).collect(),
        Some(s) => match parse_config(s) {
            Some(id) => vec![id],
            None => {
                eprintln!(
                    "--config '{s}' is not a machine config; want an id below {NUM_CONFIGS} \
                     or a name\n{HELP}"
                );
                return 2;
            }
        },
    };
    for id in configs {
        match infer_channels(seed, id) {
            Ok(map) => println!("{}", map.to_json()),
            Err(e) => {
                eprintln!("inference failed on config {id}: {e}");
                return 1;
            }
        }
    }
    0
}

fn cmd_forensics(args: &Args) -> i32 {
    use dma_lab::fuzz::run_forensics;
    let seed = num_flag!(args, "seed", 7);
    let iters = num_flag!(args, "iters", 96);
    if iters == 0 {
        eprintln!("--iters must be at least 1\n{HELP}");
        return 2;
    }
    match run_forensics(seed, iters) {
        Ok(report) => {
            if args.bool_flag("json") {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
            0
        }
        Err(e) => {
            eprintln!("forensics run failed: {e}");
            1
        }
    }
}

fn cmd_survey(args: &Args) -> i32 {
    let boots = num_flag!(args, "boots", 256) as usize;
    let driver = match args.str_flag("profile") {
        Some("4.15") => ringflood::kernel415_driver(),
        _ => ringflood::kernel50_driver(),
    };
    match BootSurvey::run(driver, boots, 0) {
        Ok(s) => {
            let (pfn, frac) = s.most_common().expect("non-empty survey");
            println!("driver profile : {}", driver.name);
            println!(
                "RX footprint   : {} KiB",
                ringflood::rx_footprint(&driver) / 1024
            );
            println!("boots surveyed : {boots}");
            println!("top PFN        : {pfn} ({:.1}% of boots)", frac * 100.0);
            println!("PFNs >50%      : {}", s.pfns_above(0.5));
            println!("PFNs >95%      : {}", s.pfns_above(0.95));
            0
        }
        Err(e) => {
            eprintln!("survey failed: {e}");
            1
        }
    }
}

fn cmd_attack(args: &Args) -> i32 {
    let which = args.positional.first().map(|s| s.as_str()).unwrap_or("");
    let seed = num_flag!(args, "seed", 42);
    let window = window_of(args);
    let image = KernelImage::build(1, 16 << 20);
    let outcome = match which {
        "ringflood" => {
            let survey = match BootSurvey::run(ringflood::kernel50_driver(), 64, 0) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("survey failed: {e}");
                    return 1;
                }
            };
            ringflood::run(&image, ringflood::kernel50_driver(), window, seed, &survey).map(|r| {
                println!(
                    "guessed PFN {} (resident: {})",
                    r.guessed_pfn, r.guess_was_resident
                );
                r.outcome
            })
        }
        "poisoned-tx" => poisoned_tx::run(&image, window, seed).map(|r| {
            if let Some(k) = r.poison_kva {
                println!("poison KVA read from TX frags: {k}");
            }
            r.outcome
        }),
        "forward-thinking" => forward_thinking::run(&image, window, seed).map(|r| {
            if let Some(k) = r.poison_kva {
                println!("poison KVA from GRO frags: {k}");
            }
            r.outcome
        }),
        "single-step" => {
            let mut ctx = SimCtx::new();
            let mut mem = MemorySystem::new(&MemConfig {
                kaslr_seed: Some(seed),
                ..Default::default()
            });
            mem.install_text(&image.bytes);
            let mut iommu = Iommu::new(IommuConfig {
                mode: InvalidationMode::Strict,
                ..Default::default()
            });
            iommu.attach_device(7);
            let nic = MaliciousNic::new(7);
            single_step::driver_setup_op(&mut ctx, &mut mem, &mut iommu, &image, 7)
                .and_then(|(_, mapping)| {
                    single_step::run(&mut ctx, &mut mem, &mut iommu, &image, &nic, &mapping)
                })
                .map(|r| {
                    println!(
                        "leaked op KVA {} / text base {}",
                        r.leaked_op_kva, r.recovered_text_base
                    );
                    r.outcome
                })
        }
        other => {
            eprintln!("unknown attack '{other}'\n{HELP}");
            return 2;
        }
    };
    match outcome {
        Ok(o) => {
            println!("window : {window}");
            println!("outcome: {o:?}");
            i32::from(!o.succeeded())
        }
        Err(e) => {
            eprintln!("attack errored: {e}");
            1
        }
    }
}

fn cmd_dos(args: &Args) -> i32 {
    use dma_lab::attacks::dos;
    use dma_lab::dma_core::vuln::DmaDirection;
    use dma_lab::sim_iommu::dma_map_single;
    let seed = num_flag!(args, "seed", 9);
    let mut ctx = SimCtx::new();
    let mut mem = MemorySystem::new(&MemConfig {
        kaslr_seed: Some(seed),
        ..Default::default()
    });
    let mut iommu = Iommu::new(IommuConfig {
        mode: InvalidationMode::Strict,
        ..Default::default()
    });
    iommu.attach_device(7);
    let nic = MaliciousNic::new(7);
    let mut run = || -> dma_lab::dma_core::Result<dos::DosReport> {
        let cmdq = mem.kzalloc(&mut ctx, 512, "nic_cmd_queue")?;
        let m = dma_map_single(
            &mut ctx,
            &mut iommu,
            &mem.layout,
            7,
            cmdq,
            512,
            DmaDirection::Bidirectional,
            "m",
        )?;
        dos::run_dos(&nic, &mut ctx, &mut iommu, &mut mem, &m, 512)
    };
    match run() {
        Ok(r) => {
            println!("corrupted freelist slot: {}", r.corrupted_slot);
            println!(
                "kernel panicked: {} (after {} allocations)",
                r.panicked, r.allocations_until_panic
            );
            i32::from(!r.panicked)
        }
        Err(e) => {
            eprintln!("dos failed: {e}");
            1
        }
    }
}

fn cmd_dump(args: &Args) -> i32 {
    use dma_lab::attacks::memory_dump::dump_range;
    use dma_lab::attacks::ringflood::break_kaslr;
    use dma_lab::dma_core::Pfn;
    let seed = num_flag!(args, "seed", 31);
    let start = Pfn(num_flag!(args, "start", 0x400));
    let frames = num_flag!(args, "frames", 4) as usize;
    let image = KernelImage::build(1, 16 << 20);
    let run = || -> dma_lab::dma_core::Result<()> {
        let mut tb = forward_thinking::boot(WindowPath::UnmapAfterBuild, seed)?;
        tb.mem.install_text(&image.bytes);
        let k = break_kaslr(&mut tb)?;
        let k = forward_thinking::leak_vmemmap(&mut tb, &k)?;
        let dump = dump_range(&mut tb, &k, start, frames)?;
        println!(
            "dumped {} frame(s) from {start} ({} failed) in {} simulated cycles",
            dump.frames(),
            dump.failed_frames.len(),
            dump.cycles
        );
        // Hexdump the first 64 bytes of each frame.
        for i in 0..dump.frames() {
            let head = &dump.frame(i)[..64];
            let hex: String = head.iter().map(|b| format!("{b:02x}")).collect();
            println!(
                "  frame {}: {}",
                start.raw() + i as u64,
                &hex[..64.min(hex.len())]
            );
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("dump failed: {e}");
            1
        }
    }
}

fn cmd_surveil(args: &Args) -> i32 {
    let seed = num_flag!(args, "seed", 31);
    let image = KernelImage::build(1, 16 << 20);
    let run = || -> dma_lab::dma_core::Result<()> {
        let mut tb = forward_thinking::boot(WindowPath::UnmapAfterBuild, seed)?;
        tb.mem.install_text(&image.bytes);
        let knowledge = ringflood::break_kaslr(&mut tb)?;
        let knowledge = forward_thinking::leak_vmemmap(&mut tb, &knowledge)?;
        let secret = tb.mem.kmalloc(&mut tb.ctx, 4096, "vault")?;
        tb.mem
            .cpu_write(&mut tb.ctx, secret, b"<secret-demo-bytes>", "vault")?;
        let pfn = tb.mem.layout.kva_to_pfn(secret)?;
        let r = forward_thinking::surveil(&mut tb, &knowledge, pfn, 0, 19)?;
        println!("read frame {pfn}: {:?}", String::from_utf8_lossy(&r.stolen));
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("surveillance failed: {e}");
            1
        }
    }
}
