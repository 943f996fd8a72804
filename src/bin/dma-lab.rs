//! The dma-lab command-line interface. One table, [`COMMANDS`], names,
//! types and bounds every flag of every command; [`parse`] turns argv
//! into typed values before any command runs, and [`help`] renders the
//! USAGE block from the same rows.

use dma_lab::attacks::image::KernelImage;
use dma_lab::attacks::ringflood::{self, BootSurvey};
use dma_lab::attacks::{forward_thinking, poisoned_tx, single_step, AttackerKnowledge};
use dma_lab::devsim::{MaliciousNic, Testbed};
use dma_lab::dkasan::{run_workload, FindingKind, WorkloadConfig};
use dma_lab::dma_core::jsonw::JsonWriter;
use dma_lab::dma_core::vuln::WindowPath;
use dma_lab::dma_core::{DetRng, KernelLayout, SimCtx, Snapshot};
use dma_lab::fuzz::{parse_config, DEFAULT_WATCHDOG_BUDGET, NUM_CONFIGS};
use dma_lab::obs::{render_timeline, run_observed, ObsConfig, ObsReport};
use dma_lab::sim_iommu::{InvalidationMode, Iommu, IommuConfig};
use dma_lab::sim_mem::{MemConfig, MemorySystem};
use dma_lab::spade::analysis::analyze;
use dma_lab::spade::corpus::{full_corpus, CorpusMix};
use dma_lab::spade::report::{Table2, TraceReport};
use dma_lab::spade::xref::SourceTree;
use std::ops::RangeInclusive;

/// How a flag's value is typed and bounded.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Present or absent; never takes a value.
    Switch,
    /// `Num(lo, hi, default)`: a decimal integer in `lo..=hi`, else
    /// `default`. A flag with no default is absent unless given.
    Num(u64, u64, Option<u64>),
    /// A non-empty path (for `--filter`, a path substring).
    Path,
    /// `Word(set, default)`: one word of the set, else `default`.
    Word(&'static [&'static str], &'static str),
    /// A machine config id or name, read by [`parse_config`].
    Config,
}

struct Flag {
    name: &'static str,
    /// What HELP shows as the value (words show their set).
    meta: &'static str,
    kind: Kind,
}

/// The positional arguments of a command row.
enum Args {
    None,
    /// Exactly one word of the set.
    Word(&'static [&'static str]),
    /// As many file paths as the range allows, shown in HELP as the text.
    Files(RangeInclusive<usize>, &'static str),
}

/// One row of [`COMMANDS`].
struct Cmd {
    name: &'static str,
    /// A switch that selects this row over the command's plain row.
    mode: Option<&'static str>,
    args: Args,
    flags: &'static [Flag],
    run: fn(&Parsed) -> Outcome,
}

const MAX: u64 = u64::MAX;
/// The bound of a flag read as a `usize`, so the conversion is lossless.
const USIZE: u64 = usize::MAX as u64;

const fn flag(name: &'static str, meta: &'static str, kind: Kind) -> Flag {
    Flag { name, meta, kind }
}

const fn num(name: &'static str, meta: &'static str, lo: u64, hi: u64, default: u64) -> Flag {
    flag(name, meta, Kind::Num(lo, hi, Some(default)))
}

/// A number flag with no default.
const fn opt(name: &'static str, meta: &'static str, lo: u64, hi: u64) -> Flag {
    flag(name, meta, Kind::Num(lo, hi, None))
}

const fn seed(default: u64) -> Flag {
    num("seed", "N", 0, MAX, default)
}

const fn iters(default: u64) -> Flag {
    num("iters", "N", 1, MAX, default)
}

const fn switch(name: &'static str) -> Flag {
    flag(name, "", Kind::Switch)
}

const fn path(name: &'static str, meta: &'static str) -> Flag {
    flag(name, meta, Kind::Path)
}

const fn word(name: &'static str, set: &'static [&'static str], default: &'static str) -> Flag {
    flag(name, "", Kind::Word(set, default))
}

/// A row with no mode and no positionals.
const fn cmd(name: &'static str, flags: &'static [Flag], run: fn(&Parsed) -> Outcome) -> Cmd {
    Cmd {
        name,
        mode: None,
        args: Args::None,
        flags,
        run,
    }
}

const JSON: Flag = switch("json");
const ROUNDS: Flag = num("rounds", "N", 0, USIZE, 200);
const FAULTS: Flag = opt("faults", "SEED", 0, MAX);
const CONFIG: Flag = flag("config", "ID|NAME", Kind::Config);
const CHECKPOINT_DIR: Flag = path("checkpoint-dir", "DIR");
const CHECKPOINT_EVERY: Flag = num("checkpoint-every", "N", 0, MAX, 0);

/// Every command, flag and positional the CLI accepts, one command per
/// row. Anything else is a usage error (exit 2), so a typo such as
/// `--iter` never runs a default-valued experiment.
#[rustfmt::skip]
static COMMANDS: &[Cmd] = &[
    cmd("layout", &[seed(1)], cmd_layout),
    cmd("spade", &[path("filter", "PATH-SUBSTRING"), seed(1), switch("tsv"), JSON], cmd_spade),
    cmd("survey", &[num("boots", "N", 1, USIZE, 256), word("profile", &["5.0", "4.15"], "5.0")],
        cmd_survey),
    Cmd {
        args: Args::Word(&["ringflood", "poisoned-tx", "forward-thinking", "single-step"]),
        ..cmd("attack", &[word("window", &["i", "ii", "iii"], "ii"), seed(42)], cmd_attack)
    },
    cmd("surveil", &[seed(31)], cmd_surveil),
    cmd("dos", &[seed(9)], cmd_dos),
    cmd("dump", &[seed(31), num("start", "PFN", 0, MAX, 0x400), num("frames", "N", 0, USIZE, 4)],
        cmd_dump),
    cmd("dkasan", &[ROUNDS, seed(0xd0_ca5a), FAULTS, JSON], cmd_dkasan),
    cmd("chaos", &[seed(1), num("runs", "N", 0, MAX, 8), JSON], cmd_chaos),
    // With no `--seed`, `stats` and `trace` run `ObsConfig`'s default.
    cmd("stats", &[opt("seed", "N", 0, MAX), ROUNDS, FAULTS, JSON, CHECKPOINT_DIR], cmd_stats),
    Cmd {
        mode: Some("diff"),
        args: Args::Files(2..=2, "OLD.json NEW.json"),
        ..cmd("stats", &[JSON], cmd_stats_diff)
    },
    cmd("trace", &[switch("spans"), opt("seed", "N", 0, MAX), ROUNDS, FAULTS, JSON,
        path("chrome", "OUT.json")], cmd_trace),
    cmd("serve", &[seed(7), iters(10_000), num("port", "P", 0, u16::MAX as u64, 0),
        path("script", "FILE"), num("shards", "N", 1, 4096, 1), path("transcript", "OUT"),
        CHECKPOINT_DIR, CHECKPOINT_EVERY], cmd_serve),
    // `--shards` or `--threads`, even at 1, selects the sharded engine,
    // so neither has a default. Its 1-shard output is byte-identical to
    // the legacy path, which the scale tests pin.
    cmd("fuzz", &[seed(7), iters(96), path("corpus-dir", "DIR"), JSON, opt("shards", "N", 1, 4096),
        opt("threads", "T", 1, USIZE), CONFIG, CHECKPOINT_EVERY, CHECKPOINT_DIR,
        path("resume", "DIR"), num("watchdog-budget", "CYCLES", 1, MAX, DEFAULT_WATCHDOG_BUDGET),
        opt("plant-panic", "K", 0, MAX), opt("plant-hang", "K", 0, MAX)], cmd_fuzz),
    cmd("profile", &[seed(7), iters(96), CONFIG, path("folded", "OUT.txt"), JSON], cmd_profile),
    Cmd {
        mode: Some("check"),
        args: Args::Files(1..=usize::MAX, "BENCH.json [BENCH.json ...]"),
        ..cmd("bench", &[], cmd_bench)
    },
    cmd("infer", &[seed(7), CONFIG], cmd_infer),
    cmd("forensics", &[seed(7), iters(96), JSON], cmd_forensics),
    cmd("help", &[], cmd_help),
];

/// Why a command ended without an outcome.
#[derive(Debug)]
enum Error {
    /// Bad argv: `main` prints the message and HELP on stderr, exits 2.
    Usage(String),
    /// The run failed: `main` prints the message alone and exits 1.
    Run(String),
}

/// `Ok(true)` exits 0. `Ok(false)` is a negative outcome the command
/// reports on stdout (a failed attack, an allocator that survived, a
/// leak, a regression, a mismatch) and exits 1.
type Outcome = Result<bool, Error>;

/// Fails with a usage error.
fn usage<T>(msg: impl std::fmt::Display) -> Result<T, Error> {
    Err(Error::Usage(msg.to_string()))
}

/// Maps a run failure to its stderr line, `{what}: {e}`.
fn run_error<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> Error {
    move |e| Error::Run(format!("{what}: {e}"))
}

/// A flag's value, inside its bounds: `Num` holds numbers and config
/// ids, `Text` paths and words.
#[derive(Debug)]
enum Value {
    Switch,
    Num(u64),
    Text(String),
}

/// Argv after [`parse`]: the selected row, its positionals, and one slot
/// per flag of the row, holding the value given or else the default.
struct Parsed {
    cmd: &'static Cmd,
    args: Vec<String>,
    values: Vec<Option<Value>>,
}

impl Parsed {
    /// The value of `--name`. A name the row does not declare is a bug
    /// in this file.
    fn get(&self, name: &str) -> Option<&Value> {
        let i = self.cmd.flags.iter().position(|f| f.name == name);
        let i = i.unwrap_or_else(|| panic!("{} declares no --{name}", self.cmd.name));
        self.values[i].as_ref()
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn opt_num(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            Value::Num(n) => Some(*n),
            other => panic!("--{name} holds {other:?}, not a number"),
        }
    }

    fn num(&self, name: &str) -> u64 {
        self.opt_num(name).expect("a number flag with a default")
    }

    /// A path's or a word's value.
    fn text(&self, name: &str) -> Option<&str> {
        match self.get(name)? {
            Value::Text(s) => Some(s),
            other => panic!("--{name} holds {other:?}, not text"),
        }
    }

    fn config(&self) -> Option<u8> {
        let id = self.opt_num("config")?;
        Some(u8::try_from(id).expect("a config id is below NUM_CONFIGS"))
    }
}

impl Flag {
    /// The value's placeholder in HELP and in usage messages.
    fn meta(&self) -> String {
        match self.kind {
            Kind::Word(set, _) => set.join("|"),
            _ => self.meta.to_string(),
        }
    }

    /// Types and bounds `v`, the value given to this flag.
    fn value(&self, v: &str) -> Result<Value, Error> {
        let name = self.name;
        let bad = |want: String| Error::Usage(format!("--{name} wants {want}, got '{v}'"));
        match self.kind {
            Kind::Num(lo, hi, _) => match v.parse() {
                Ok(n) if (lo..=hi).contains(&n) => Ok(Value::Num(n)),
                _ => Err(bad(format!("an integer from {lo} to {hi}"))),
            },
            Kind::Path if !v.is_empty() => Ok(Value::Text(v.to_string())),
            Kind::Word(set, _) if set.contains(&v) => Ok(Value::Text(v.to_string())),
            // Out-of-range ids and unknown names are usage errors, never
            // aliased into the matrix by a modulo wrap.
            Kind::Config => match parse_config(v) {
                Some(id) => Ok(Value::Num(id.into())),
                None => Err(bad(format!(
                    "a config id below {NUM_CONFIGS} or a name (see `dma-lab infer`)"
                ))),
            },
            Kind::Switch | Kind::Path | Kind::Word(..) => Err(bad(self.meta())),
        }
    }
}

impl Args {
    /// How HELP and usage messages show the positionals.
    fn synopsis(&self) -> Option<String> {
        match self {
            Args::None => None,
            Args::Word(set) => Some(format!("<{}>", set.join("|"))),
            Args::Files(_, usage) => Some(usage.to_string()),
        }
    }
}

/// Turns argv (after the program name) into the selected row and its
/// typed values, or a usage error. Runs nothing.
fn parse(argv: &[String]) -> Result<Parsed, Error> {
    let (name, rest) = match argv.split_first() {
        Some((name, rest)) if name != "--help" && name != "-h" => (name.as_str(), rest),
        _ => ("help", argv.get(1..).unwrap_or_default()),
    };
    let given = |mode: &str| rest.iter().any(|a| a.strip_prefix("--") == Some(mode));
    let rows = || COMMANDS.iter().filter(|c| c.name == name);
    let Some(cmd) = rows()
        .find(|c| c.mode.is_some_and(given))
        .or_else(|| rows().find(|c| c.mode.is_none()))
    else {
        return usage(match rows().find_map(|c| c.mode) {
            Some(mode) => format!("{name} wants --{mode}"),
            None => format!("unknown command '{name}'"),
        });
    };
    // A value never starts with `--`, so every such token names a flag.
    let keys: Vec<&str> = rest.iter().filter_map(|t| t.strip_prefix("--")).collect();
    for (i, key) in keys.iter().enumerate() {
        if keys[..i].contains(key) {
            return usage(format!("--{key} given twice"));
        }
    }
    let mut values: Vec<Option<Value>> = cmd
        .flags
        .iter()
        .map(|f| match f.kind {
            Kind::Num(_, _, default) => default.map(Value::Num),
            Kind::Word(_, default) => Some(Value::Text(default.to_string())),
            _ => None,
        })
        .collect();
    let mut args = Vec::new();
    let mut tokens = rest.iter();
    while let Some(token) = tokens.next() {
        let Some(key) = token.strip_prefix("--") else {
            args.push(token.clone());
            continue;
        };
        if cmd.mode == Some(key) {
            continue;
        }
        let i = cmd.flags.iter().position(|f| f.name == key);
        let i = i.ok_or_else(|| Error::Usage(format!("{name} does not take --{key}")))?;
        let flag = &cmd.flags[i];
        values[i] = Some(match flag.kind {
            Kind::Switch => Value::Switch,
            _ => match tokens.next().filter(|v| !v.starts_with("--")) {
                Some(v) => flag.value(v)?,
                None => return usage(format!("--{key} wants {}", flag.meta())),
            },
        });
    }
    let admitted = match &cmd.args {
        Args::None => args.is_empty(),
        Args::Word(set) => matches!(&args[..], [w] if set.contains(&w.as_str())),
        Args::Files(count, _) => count.contains(&args.len()),
    };
    if !admitted {
        let want = cmd.args.synopsis();
        let want = want.as_deref().unwrap_or("no positional argument");
        return usage(format!("{name} wants {want}, got {args:?}"));
    }
    Ok(Parsed { cmd, args, values })
}

const HELP_HEAD: &str = "\
dma-lab — reproduction of 'DMA Code Injection Vulnerabilities in the
Presence of an IOMMU' (EuroSys '21)

USAGE:
";

/// HELP: one USAGE entry per row of [`COMMANDS`], wrapped at 80
/// columns, then the exit codes.
fn help() -> String {
    let mut out = String::from(HELP_HEAD);
    for c in COMMANDS {
        let head = format!("    dma-lab {}", c.name);
        let mode = c.mode.map(|m| format!("--{m}"));
        let flags = c.flags.iter().map(|f| match f.kind {
            Kind::Switch => format!("[--{}]", f.name),
            _ => format!("[--{} {}]", f.name, f.meta()),
        });
        let mut line = head.clone();
        for w in mode.into_iter().chain(c.args.synopsis()).chain(flags) {
            if line.len() > head.len() && line.len() + 1 + w.len() > 80 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(head.len());
            }
            line.push(' ');
            line.push_str(&w);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("\nEXIT CODES:\n    0 success    1 experiment/run error    2 usage error\n");
    out
}

fn main() {
    let outcome = std::env::args_os()
        .skip(1)
        .map(|a| {
            a.into_string()
                .map_err(|a| Error::Usage(format!("argument {a:?} is not UTF-8")))
        })
        .collect::<Result<Vec<String>, Error>>()
        .and_then(|argv| parse(&argv))
        .and_then(|p| (p.cmd.run)(&p));
    std::process::exit(match outcome {
        Ok(passed) => i32::from(!passed),
        Err(Error::Usage(msg)) => {
            eprintln!("{msg}\n{}", help());
            2
        }
        Err(Error::Run(msg)) => {
            eprintln!("{msg}");
            1
        }
    });
}

fn cmd_help(_: &Parsed) -> Outcome {
    print!("{}", help());
    Ok(true)
}

fn cmd_layout(p: &Parsed) -> Outcome {
    println!(
        "{:<18} {:<18} {:>8}  VM area description",
        "Start Addr", "End Addr", "Size"
    );
    for (start, end, size, desc) in KernelLayout::table1() {
        println!("{start:<18} {end:<18} {size:>8}  {desc}");
    }
    let seed = p.num("seed");
    let mut rng = DetRng::new(seed);
    let l = KernelLayout::randomize(&mut rng, 256 << 20);
    println!("\nKASLR sample (seed {seed}):");
    println!("  text_base        = {}", l.text_base);
    println!("  page_offset_base = {}", l.page_offset_base);
    println!("  vmemmap_base     = {}", l.vmemmap_base);
    Ok(true)
}

fn cmd_spade(p: &Parsed) -> Outcome {
    let seed = p.num("seed");
    let corpus = full_corpus(&CorpusMix::default(), seed);
    let tree = SourceTree::load(corpus.iter().map(|(p, s)| (p.as_str(), s.as_str())));
    let findings = analyze(&tree);
    if let Some(pat) = p.text("filter") {
        let mut shown = 0;
        for f in findings.iter().filter(|f| f.file.contains(pat)) {
            println!("--- {}:{} ({}) ---", f.file, f.line, f.caller);
            println!("{}", TraceReport(f));
            shown += 1;
        }
        println!("{shown} finding(s) matched '{pat}'");
        return Ok(true);
    }
    if p.has("tsv") {
        print!("{}", dma_lab::spade::report::render_tsv(&findings));
        return Ok(true);
    }
    if p.has("json") {
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
        return Ok(true);
    }
    let t = Table2::from_findings(&findings);
    println!("{}", t.render());
    let v = Table2::vulnerable_calls(&findings);
    println!(
        "Potentially vulnerable: {v}/{} ({:.1}%)   [paper: 742/1019 (72.8%)]",
        t.total.calls,
        100.0 * v as f64 / t.total.calls as f64
    );
    Ok(true)
}

fn cmd_dkasan(p: &Parsed) -> Outcome {
    let report = run_workload(WorkloadConfig {
        rounds: p.num("rounds") as usize,
        seed: p.num("seed"),
        fault_seed: p.opt_num("faults"),
    })
    .map_err(run_error("workload failed"))?;
    if p.has("json") {
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
        return Ok(true);
    }
    println!("{}", report.render());
    println!();
    for kind in FindingKind::ALL {
        println!("{:<18} {}", kind.to_string(), report.count(kind));
    }
    Ok(true)
}

fn cmd_chaos(p: &Parsed) -> Outcome {
    // The isolated soak converts a panicking schedule into a reported
    // per-seed failure instead of killing the whole sweep.
    use dma_lab::devsim::chaos::run_soak_isolated as run_soak;
    let base = p.num("seed");
    let Some(end) = base.checked_add(p.num("runs")) else {
        return usage("--seed plus --runs overflows a u64");
    };
    let mut failed = 0;
    if p.has("json") {
        let mut w = JsonWriter::new();
        w.arr(|w| {
            for seed in base..end {
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
        return Ok(failed == 0);
    }
    println!(
        "{:>18}  {:>6} {:>7} {:>8} {:>6}  fault sites hit",
        "seed", "echoed", "dropped", "injected", "leaked"
    );
    for seed in base..end {
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
    Ok(failed == 0)
}

/// One observed run for `stats` and `trace`; `what` names the command
/// in the run-error message.
fn observe(p: &Parsed, what: &str) -> Result<ObsReport, Error> {
    run_observed(ObsConfig {
        seed: p.opt_num("seed").unwrap_or(ObsConfig::default().seed),
        rounds: p.num("rounds") as usize,
        fault_seed: p.opt_num("faults"),
    })
    .map_err(|e| Error::Run(format!("{what} run failed: {e}")))
}

fn cmd_stats(p: &Parsed) -> Outcome {
    // `--checkpoint-dir DIR` folds the newest campaign checkpoint
    // generation into the report, so long campaigns can audit silent
    // loss (trace.dropped) and checkpoint age from one command.
    let checkpoint = match p.text("checkpoint-dir") {
        None => None,
        Some(dir) => {
            use dma_lab::dma_core::CheckpointStore;
            let c = CheckpointStore::open(dir)
                .and_then(|mut s| s.load())
                .map_err(|e| Error::Run(format!("cannot open checkpoint dir {dir}: {e}")))?
                .ok_or_else(|| Error::Run(format!("no valid checkpoint generation under {dir}")))?;
            Some((c.sequence, c.payload.u64_field("next_iter").unwrap_or(0)))
        }
    };
    let r = observe(p, "stats")?;
    if p.has("json") {
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
    Ok(true)
}

/// `stats --diff OLD.json NEW.json` is a pure file mode: no simulated
/// run, just the per-metric delta of two dumps written by `stats
/// --json` (or fetched from a `serve` stats frame). The outcome fails
/// when any counter regressed — counters are monotone in a live
/// registry, so a drop between dumps always marks a suspect trajectory.
fn cmd_stats_diff(p: &Parsed) -> Outcome {
    let load = |path: &String| -> Result<Snapshot, Error> {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| Error::Run(format!("cannot read {path}: {e}")))?;
        Snapshot::from_json(&doc).ok_or_else(|| Error::Run(format!("{path} is not a metrics dump")))
    };
    let (old, new) = (load(&p.args[0])?, load(&p.args[1])?);
    let delta = new.diff(&old);
    if p.has("json") {
        println!("{}", delta.to_json());
    } else {
        print!("{}", delta.render_text());
    }
    // A watched metric that vanished from the newer dump is just as
    // suspect as a counter that went backwards — a zero-valued
    // counter or a dropped histogram would otherwise slip through
    // the value diff unnoticed.
    Ok(!delta.has_regressions())
}

fn cmd_serve(p: &Parsed) -> Outcome {
    use dma_lab::fuzz::silence_quarantined_panics;
    use dma_lab::serve::{run_scripted_session, ServeConfig, Server};
    silence_quarantined_panics();
    let (seed, iters, port) = (p.num("seed"), p.num("iters"), p.num("port"));
    let checkpoint_dir = p.text("checkpoint-dir").map(std::path::PathBuf::from);
    let checkpoint_every = p.num("checkpoint-every");
    if checkpoint_every > 0 && checkpoint_dir.is_none() {
        return usage("--checkpoint-every needs --checkpoint-dir");
    }
    if p.has("transcript") && !p.has("script") {
        return usage("--transcript needs --script");
    }
    let cfg = ServeConfig {
        seed,
        iters,
        checkpoint_dir,
        checkpoint_every,
        shards: p.num("shards") as u32,
    };
    if let Some(script_path) = p.text("script") {
        let script = std::fs::read_to_string(script_path)
            .map_err(|e| Error::Run(format!("cannot read {script_path}: {e}")))?;
        let transcript =
            run_scripted_session(cfg, &script).map_err(run_error("scripted session failed"))?;
        match p.text("transcript") {
            Some(out) => {
                std::fs::write(out, &transcript)
                    .map_err(|e| Error::Run(format!("cannot write {out}: {e}")))?;
                eprintln!(
                    "wrote {out}: {} frames ({} bytes)",
                    transcript.lines().count(),
                    transcript.len()
                );
            }
            None => print!("{transcript}"),
        }
        return Ok(true);
    }
    let server = Server::new(cfg).map_err(run_error("campaign setup failed"))?;
    let listener = std::net::TcpListener::bind(("127.0.0.1", port as u16))
        .map_err(|e| Error::Run(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(run_error("cannot resolve bound address"))?;
    eprintln!("listening on {addr} (seed {seed}, {iters} iters)");
    server
        .serve(listener, None)
        .map_err(run_error("serve loop failed"))?;
    Ok(true)
}

fn cmd_trace(p: &Parsed) -> Outcome {
    // `--spans` selects the default view; `--chrome OUT.json` writes a
    // Perfetto/Chrome `trace_event` file instead. Tolerate the absence
    // of both so `dma-lab trace` alone also works.
    let r = observe(p, "trace")?;
    if let Some(path) = p.text("chrome") {
        let json = dma_lab::dma_core::chrome::export(&r.timeline, &r.events);
        std::fs::write(path, &json).map_err(|e| Error::Run(format!("cannot write {path}: {e}")))?;
        println!(
            "wrote {path}: {} spans + {} events ({} bytes) — open at ui.perfetto.dev",
            r.timeline.len(),
            r.events.len(),
            json.len()
        );
        return Ok(true);
    }
    if p.has("json") {
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
    Ok(true)
}

fn cmd_fuzz(p: &Parsed) -> Outcome {
    use dma_lab::fuzz::{
        silence_quarantined_panics, Campaign, CampaignConfig, ShardConfig, ShardedCampaign,
    };
    use std::path::PathBuf;
    // Contained panics become quarantined findings; their default-hook
    // backtrace spew would only pollute stderr.
    silence_quarantined_panics();
    let (shards, threads) = (p.opt_num("shards"), p.opt_num("threads"));
    let sharded = shards.is_some() || threads.is_some();
    let (plant_panic_at, plant_hang_at) = (p.opt_num("plant-panic"), p.opt_num("plant-hang"));
    if sharded && (plant_panic_at.is_some() || plant_hang_at.is_some()) {
        return usage("--plant-panic/--plant-hang only apply to single-shard campaigns");
    }
    let corpus_dir = p.text("corpus-dir").map(PathBuf::from);
    // The corpus dir itself may be fresh (it is created on demand), but
    // a missing parent is almost always a typo — reject it up front.
    let parent = corpus_dir.as_deref().and_then(std::path::Path::parent);
    if let Some(parent) = parent.filter(|d| !d.as_os_str().is_empty() && !d.exists()) {
        let parent = parent.display();
        return usage(format!("--corpus-dir parent '{parent}' does not exist"));
    }
    let resume_dir = p.text("resume").map(PathBuf::from);
    if let Some(d) = resume_dir.as_deref().filter(|d| !d.is_dir()) {
        let d = d.display();
        return usage(format!("--resume '{d}' is not an existing directory"));
    }
    let checkpoint_dir = p
        .text("checkpoint-dir")
        .map(PathBuf::from)
        .or_else(|| resume_dir.clone());
    let checkpoint_every = p.num("checkpoint-every");
    if checkpoint_every > 0 && checkpoint_dir.is_none() {
        return usage("--checkpoint-every needs --checkpoint-dir or --resume");
    }

    let (seed, iters) = (p.num("seed"), p.num("iters"));
    let (watchdog_budget, only_config) = (p.num("watchdog-budget"), p.config());
    let resuming = resume_dir.is_some();
    let run = if sharded {
        let (shards, threads) = (shards.unwrap_or(1), threads.unwrap_or(1));
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
    let report = run.map_err(run_error("fuzz run failed"))?;
    if p.has("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    Ok(true)
}

/// `dma-lab profile`: runs the deterministic cycle-attribution
/// profiler over the canonical fuzz inputs and prints the merged call
/// tree (text), a speedscope document (`--json`), and/or a folded-stack
/// file (`--folded`, the `flamegraph.pl`/inferno input format). Output
/// is byte-identical across runs.
fn cmd_profile(p: &Parsed) -> Outcome {
    use dma_lab::profiling::{run_profile, ProfileConfig};
    let seed = p.num("seed");
    let run = run_profile(&ProfileConfig {
        seed,
        iters: p.num("iters"),
        only_config: p.config(),
    })
    .map_err(run_error("profile run failed"))?;
    if let Some(path) = p.text("folded") {
        std::fs::write(path, run.profile.folded())
            .map_err(|e| Error::Run(format!("cannot write --folded '{path}': {e}")))?;
    }
    if p.has("json") {
        println!(
            "{}",
            run.profile
                .speedscope_json(&format!("dma-lab profile seed {seed}"))
        );
    } else {
        print!("{}", run.render_text());
    }
    Ok(true)
}

/// `dma-lab bench --check`: re-derives the deterministic half of each
/// committed `BENCH_*.json` and compares every value with the committed
/// one. Every file is checked; the outcome fails when any differs or
/// cannot be checked.
fn cmd_bench(p: &Parsed) -> Outcome {
    use dma_lab::benchfile::check_bench_file;
    use std::path::Path;
    if let Some(f) = p.args.iter().find(|f| !Path::new(f).is_file()) {
        return usage(format!("--check '{f}' is not an existing file"));
    }
    let mut failed = 0usize;
    for f in &p.args {
        let outcome = match check_bench_file(Path::new(f)) {
            Ok(outcome) => outcome,
            Err(why) => {
                eprintln!("{why}");
                println!("{f}: FAILED, not checkable");
                failed += 1;
                continue;
            }
        };
        for m in &outcome.mismatches {
            println!(
                "{f} [{}] {}: committed {} vs re-derived {} REGRESSED",
                outcome.report,
                m.path,
                m.committed.as_deref().unwrap_or("(absent)"),
                m.rederived.as_deref().unwrap_or("(absent)")
            );
        }
        if outcome.passed() {
            println!(
                "{f} [{}]: ok, {} values compared",
                outcome.report, outcome.compared
            );
        } else {
            println!(
                "{f} [{}]: REGRESSED, {} path(s) differ ({} values compared)",
                outcome.report,
                outcome.mismatches.len(),
                outcome.compared
            );
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!(
            "{failed} of {} bench file(s) failed the check",
            p.args.len()
        );
    }
    Ok(failed == 0)
}

/// `dma-lab infer`: boots the selected machine(s) with a traced boot,
/// runs the canonical inference workload, and prints one deterministic
/// `ChannelMap` JSON line per config — the zero-hand-wiring channel
/// discovery the fuzzer's mutation vocabulary is built on.
fn cmd_infer(p: &Parsed) -> Outcome {
    let seed = p.num("seed");
    for id in p.config().map_or(0..NUM_CONFIGS, |id| id..id + 1) {
        let map = dma_lab::fuzz::infer_channels(seed, id)
            .map_err(|e| Error::Run(format!("inference failed on config {id}: {e}")))?;
        println!("{}", map.to_json());
    }
    Ok(true)
}

fn cmd_forensics(p: &Parsed) -> Outcome {
    let report = dma_lab::fuzz::run_forensics(p.num("seed"), p.num("iters"))
        .map_err(run_error("forensics run failed"))?;
    if p.has("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    Ok(true)
}

fn cmd_survey(p: &Parsed) -> Outcome {
    let boots = p.num("boots") as usize;
    let driver = match p.text("profile") {
        Some("4.15") => ringflood::kernel415_driver(),
        _ => ringflood::kernel50_driver(),
    };
    let s = BootSurvey::run(driver, boots, 0).map_err(run_error("survey failed"))?;
    let (pfn, frac) = s
        .most_common()
        .expect("--boots is at least 1 and every boot posts RX buffers");
    println!("driver profile : {}", driver.name);
    println!(
        "RX footprint   : {} KiB",
        ringflood::rx_footprint(&driver) / 1024
    );
    println!("boots surveyed : {boots}");
    println!("top PFN        : {pfn} ({:.1}% of boots)", frac * 100.0);
    println!("PFNs >50%      : {}", s.pfns_above(0.5));
    println!("PFNs >95%      : {}", s.pfns_above(0.95));
    Ok(true)
}

fn cmd_attack(p: &Parsed) -> Outcome {
    let seed = p.num("seed");
    let window = match p.text("window") {
        Some("i") => WindowPath::UnmapAfterBuild,
        Some("iii") => WindowPath::NeighborIova,
        _ => WindowPath::DeferredIotlb,
    };
    let image = KernelImage::build(1, 16 << 20);
    let outcome = match p.args[0].as_str() {
        "ringflood" => {
            let survey = BootSurvey::run(ringflood::kernel50_driver(), 64, 0)
                .map_err(run_error("survey failed"))?;
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
            let (mut ctx, mut mem, mut iommu, nic) = strict_rig(seed);
            mem.install_text(&image.bytes);
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
        other => unreachable!("the parser admits no attack '{other}'"),
    };
    let o = outcome.map_err(run_error("attack errored"))?;
    println!("window : {window}");
    println!("outcome: {o:?}");
    Ok(o.succeeded())
}

/// A strict-mode machine booted with KASLR seed `seed`, with device 7
/// attached and the malicious NIC behind it: the rig of `dos` and of
/// the single-step attack.
fn strict_rig(seed: u64) -> (SimCtx, MemorySystem, Iommu, MaliciousNic) {
    let mem = MemorySystem::new(&MemConfig {
        kaslr_seed: Some(seed),
        ..Default::default()
    });
    let mut iommu = Iommu::new(IommuConfig {
        mode: InvalidationMode::Strict,
        ..Default::default()
    });
    iommu.attach_device(7);
    (SimCtx::new(), mem, iommu, MaliciousNic::new(7))
}

fn cmd_dos(p: &Parsed) -> Outcome {
    use dma_lab::attacks::dos;
    use dma_lab::dma_core::vuln::DmaDirection;
    use dma_lab::sim_iommu::dma_map_single;
    let (mut ctx, mut mem, mut iommu, nic) = strict_rig(p.num("seed"));
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
    let r = run().map_err(run_error("dos failed"))?;
    println!("corrupted freelist slot: {}", r.corrupted_slot);
    println!(
        "kernel panicked: {} (after {} allocations)",
        r.panicked, r.allocations_until_panic
    );
    Ok(r.panicked)
}

/// The Forward Thinking machine booted with `seed`, after the KASLR
/// break and the vmemmap leak: the rig of `dump` and `surveil`.
fn surveillance_rig(seed: u64) -> dma_lab::dma_core::Result<(Testbed, AttackerKnowledge)> {
    let image = KernelImage::build(1, 16 << 20);
    let mut tb = forward_thinking::boot(WindowPath::UnmapAfterBuild, seed)?;
    tb.mem.install_text(&image.bytes);
    let knowledge = ringflood::break_kaslr(&mut tb)?;
    let knowledge = forward_thinking::leak_vmemmap(&mut tb, &knowledge)?;
    Ok((tb, knowledge))
}

fn cmd_dump(p: &Parsed) -> Outcome {
    let (seed, start, frames) = (p.num("seed"), p.num("start"), p.num("frames"));
    let (mut tb, k) = surveillance_rig(seed).map_err(run_error("dump failed"))?;
    let pages = tb.mem.num_pages();
    if start.checked_add(frames).is_none_or(|end| end > pages) {
        return usage(format!("--start + --frames exceeds {pages} pages"));
    }
    let start = dma_lab::dma_core::Pfn(start);
    let dump = dma_lab::attacks::memory_dump::dump_range(&mut tb, &k, start, frames as usize)
        .map_err(run_error("dump failed"))?;
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
    Ok(true)
}

fn cmd_surveil(p: &Parsed) -> Outcome {
    let seed = p.num("seed");
    let run = || -> dma_lab::dma_core::Result<()> {
        let (mut tb, knowledge) = surveillance_rig(seed)?;
        let secret = tb.mem.kmalloc(&mut tb.ctx, 4096, "vault")?;
        tb.mem
            .cpu_write(&mut tb.ctx, secret, b"<secret-demo-bytes>", "vault")?;
        let pfn = tb.mem.layout.kva_to_pfn(secret)?;
        let r = forward_thinking::surveil(&mut tb, &knowledge, pfn, 0, 19)?;
        println!("read frame {pfn}: {:?}", String::from_utf8_lossy(&r.stolen));
        Ok(())
    };
    run().map_err(run_error("surveillance failed"))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dma_lab::fuzz::config_name;

    fn pick<'a, T>(rng: &mut DetRng, from: &'a [T]) -> &'a T {
        &from[rng.below(from.len() as u64) as usize]
    }

    /// An argv for `cmd` built only from the table's valid values.
    fn valid_argv(rng: &mut DetRng, cmd: &Cmd) -> Vec<String> {
        let mut argv = vec![cmd.name.to_string()];
        argv.extend(cmd.mode.map(|m| format!("--{m}")));
        for f in cmd.flags {
            if rng.chance(1, 2) {
                continue;
            }
            argv.push(format!("--{}", f.name));
            let (id, any) = (rng.below(NUM_CONFIGS.into()) as u8, rng.next_u64());
            argv.extend(match f.kind {
                Kind::Switch => None,
                Kind::Num(lo, hi, _) => Some(pick(rng, &[lo, hi, any.clamp(lo, hi)]).to_string()),
                Kind::Word(set, _) => Some(pick(rng, set).to_string()),
                Kind::Config => Some(config_name(id).to_string()),
                Kind::Path => Some("out/file".to_string()),
            });
        }
        match &cmd.args {
            Args::None => {}
            Args::Word(set) => argv.push(pick(rng, set).to_string()),
            Args::Files(n, _) => argv.extend((0..*n.start()).map(|i| format!("BENCH_{i}.json"))),
        }
        argv
    }

    #[test]
    fn parser_fuzz_admits_only_the_table() {
        let mut junk = vec!["", "0", "1", "-1", "0x7", "1e3"];
        junk.extend(["18446744073709551615", "18446744073709551616"]);
        let mut rng = DetRng::new(27);
        let mut accepted = 0;
        for _ in 0..10_000 {
            let cmd = pick(&mut rng, COMMANDS);
            let mut argv = valid_argv(&mut rng, cmd);
            let mutations = rng.below(4);
            for _ in 0..mutations {
                // A copy of a token (a repeated flag, a stray value), a near
                // miss of one (`--seeds`, `--iter`), another row's token (a
                // foreign flag, word or config name), junk or random bytes.
                let copy = pick(&mut rng, &argv).clone();
                let mut near = copy.clone();
                near.pop();
                let row = pick(&mut rng, COMMANDS);
                let other = valid_argv(&mut rng, row);
                let token = match rng.below(6) {
                    0 => copy,
                    1 => copy + "s",
                    2 => near,
                    3 => pick(&mut rng, &other).clone(),
                    4 => pick(&mut rng, &junk).to_string(),
                    _ => String::from_utf8_lossy(&rng.next_u64().to_le_bytes()[..3]).into(),
                };
                // Overwrite a flag's value or a positional, or insert.
                let plain: Vec<usize> = (1..argv.len())
                    .filter(|&i| !argv[i].starts_with("--"))
                    .collect();
                if plain.is_empty() || rng.chance(1, 2) {
                    argv.insert(1 + rng.below(argv.len() as u64) as usize, token);
                } else {
                    argv[*pick(&mut rng, &plain)] = token;
                }
            }
            let p = match parse(&argv) {
                Ok(p) => p,
                Err(Error::Usage(_)) if mutations > 0 => continue,
                Err(e) => panic!("{argv:?} is valid, yet {e:?}"),
            };
            assert!(mutations > 0 || std::ptr::eq(p.cmd, cmd), "{argv:?}");
            let mut seen = Vec::new();
            for key in argv[1..].iter().filter_map(|a| a.strip_prefix("--")) {
                let declared = p.cmd.flags.iter().any(|f| f.name == key);
                assert!(declared || p.cmd.mode == Some(key), "{argv:?}: --{key}");
                assert!(!seen.contains(&key), "{argv:?} repeats --{key}");
                seen.push(key);
            }
            for (f, v) in p.cmd.flags.iter().zip(&p.values) {
                let ok = match (f.kind, v) {
                    (Kind::Num(lo, hi, _), Some(Value::Num(n))) => (lo..=hi).contains(n),
                    (Kind::Config, Some(Value::Num(id))) => *id < NUM_CONFIGS.into(),
                    (Kind::Word(set, _), Some(Value::Text(w))) => set.contains(&w.as_str()),
                    (Kind::Path, Some(Value::Text(s))) => !s.is_empty(),
                    (Kind::Switch, Some(Value::Switch)) => true,
                    (Kind::Num(_, _, default), None) => default.is_none(),
                    (Kind::Switch | Kind::Path | Kind::Config, None) => true,
                    _ => false,
                };
                assert!(ok, "{argv:?}: --{} of {:?} holds {v:?}", f.name, f.kind);
            }
            accepted += 1;
        }
        // A quarter of the vectors are unmutated and parse; most of the
        // rest must not.
        assert!((2_000..6_000).contains(&accepted), "{accepted} accepted");
    }
}
