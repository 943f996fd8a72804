//! Host-time benchmark of dma-lab.
//!
//! `hostbench --workload <campaign-steady|shards-startup|serve-poll>
//! --seed N --seconds S --trace <0|1>` runs one workload through the
//! lab's public entry points on one thread, checks its outputs, and
//! prints one JSON detail line (host and run facts, sample counts,
//! digest) followed by the result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced run, which reports
//! the per-layer metrics. See the package's README.md.

mod alloc;
mod checks;
mod spans;
mod stats;
mod traced;
mod workloads;

use dma_lab::dma_core::jsonw::JsonWriter;

use checks::Tally;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: hostbench --workload <campaign-steady|shards-startup|serve-poll> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The three end-to-end workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One `Campaign::step` per op, after a 96-iteration set-up.
    CampaignSteady,
    /// One 8 × 96-iteration checkpointed sharded run per op.
    ShardsStartup,
    /// One serve request line per op on a 2-shard session.
    ServePoll,
}

impl Workload {
    /// Every workload, in the order the traced run visits them.
    pub const ALL: [Workload; 3] = [
        Workload::CampaignSteady,
        Workload::ShardsStartup,
        Workload::ServePoll,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignSteady => "campaign-steady",
            Workload::ShardsStartup => "shards-startup",
            Workload::ServePoll => "serve-poll",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed (default 7).
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 7;
        let mut seconds = 10.0;
        let mut trace = false;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(bad)?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// One reported metric.
pub struct Metric {
    /// Name, as in BENCHMARK.json.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in BENCHMARK.json.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// Workload the value was measured on.
    pub from: &'static str,
}

/// What one run measured and checked.
pub struct Outcome {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Host and run facts for the detail line, as rendered JSON values.
    pub facts: Vec<(String, String)>,
}

/// Renders a measured number with all its digits (`null` if it is not
/// finite, which no metric here can be without a bug).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(tally: Tally) -> Outcome {
        Outcome {
            tally,
            metrics: Vec::new(),
            facts: Vec::new(),
        }
    }

    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        from: Workload,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            from: from.name(),
        });
    }

    /// Adds a fact whose value is already rendered JSON.
    pub fn fact(&mut self, key: impl Into<String>, json: impl Into<String>) {
        self.facts.push((key.into(), json.into()));
    }

    /// Adds a numeric fact.
    pub fn fact_num(&mut self, key: impl Into<String>, v: f64) {
        self.fact(key, num(v));
    }

    fn detail_json(&self, args: &Args) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field("detail", |w| {
                w.obj(|w| {
                    w.field_str("workload", args.workload.name());
                    w.field_u64("seed", args.seed);
                    w.field_bool("trace", args.trace);
                    w.field("seconds", |w| w.raw(&num(args.seconds)));
                    w.field_u64("nproc", nproc as u64);
                    w.field_str(
                        "host",
                        "shared with other tenants; end-to-end ops run on one thread",
                    );
                    for (k, v) in &self.facts {
                        w.field(k, |w| w.raw(v));
                    }
                    w.field("samples", |w| {
                        w.obj(|w| {
                            for m in &self.metrics {
                                w.field(&m.name, |w| {
                                    w.obj(|w| {
                                        w.field_u64("n", m.samples as u64);
                                        w.field_str("from", m.from);
                                    })
                                });
                            }
                        })
                    });
                    w.field("problems", |w| {
                        w.arr(|w| {
                            for p in &self.tally.problems {
                                w.elem(|w| w.str(p));
                            }
                        })
                    });
                })
            });
        });
        w.finish()
    }

    fn result_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_bool("correct", self.tally.failed == 0);
            w.field_u64("attempted", self.tally.attempted.max(1));
            w.field_u64("failed", self.tally.failed);
            w.field("metrics", |w| {
                w.obj(|w| {
                    for m in &self.metrics {
                        w.field(&m.name, |w| {
                            w.obj(|w| {
                                w.field("value", |w| w.raw(&num(m.value)));
                                w.field_str("unit", m.unit);
                            })
                        });
                    }
                })
            });
        });
        w.finish()
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = if args.trace {
        traced::run(&args)
    } else {
        workloads::run(&args)
    };
    match run {
        Ok(out) => {
            println!("{}", out.detail_json(&args));
            println!("{}", out.result_json());
        }
        Err(e) => {
            eprintln!("hostbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload serve-poll --seed 11 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServePoll);
        assert_eq!((a.seed, a.seconds, a.trace), (11, 3.0, true));
        assert_eq!(parse("--workload campaign-steady").unwrap().seed, 7);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload serve-poll --trace 2",
            "--workload serve-poll --seconds 0",
            "--workload serve-poll --seed",
            "--workload serve-poll --color 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
