//! The forensics campaign: fuzz the pinned input space, then explain
//! every D-KASAN finding class causally.
//!
//! [`run_forensics`] sweeps `(seed, 0..iters)` exactly like the fuzzing
//! loop, but where the fuzzer only *counts* findings, this pass
//! re-executes each iteration that produced a new D-KASAN finding class
//! under [`ExecContext::execute_with_forensics`] — event stream into a
//! provenance graph — and investigates the findings into [`Incident`]
//! timelines. Sweep and replays share one context, so each machine
//! shape boots once per campaign.
//! Device-write observations (the `destructor_arg` callback exposures)
//! carry their §5.2 window attributes directly and are reported
//! alongside. Everything is a pure function of `(seed, iters)`: text
//! and JSON renderings are byte-identical across runs.

use std::collections::BTreeSet;

use dkasan::Incident;
use dma_core::jsonw::JsonWriter;
use dma_core::Result;

use crate::exec::{config_name, ExecContext, FuzzFinding};
use crate::input::FuzzInput;

/// One investigated D-KASAN finding class: which iteration produced it,
/// on which machine shape, and the causal story.
pub struct ForensicsCase {
    /// Iteration of the pinned campaign that first hit this class.
    pub iteration: u64,
    /// Machine configuration name ([`config_name`]).
    pub config: &'static str,
    /// The investigated incident.
    pub incident: Incident,
}

/// Everything one forensics campaign produced.
pub struct ForensicsReport {
    /// Campaign seed.
    pub seed: u64,
    /// Iterations swept.
    pub iters: u64,
    /// Forensic re-executions performed (one per iteration that
    /// surfaced a new finding class).
    pub forensic_execs: u64,
    /// One case per D-KASAN `(class, site)` pair, in discovery order.
    pub cases: Vec<ForensicsCase>,
    /// Device-write observations (no oracle report), deduped by class
    /// key, with their §5.2 window attributes.
    pub callbacks: Vec<FuzzFinding>,
    /// Flight-recorder evictions summed across the lean sweep (0 means
    /// the oracle saw every event).
    pub trace_dropped: u64,
}

/// Runs the campaign: a lean sweep to find which iterations matter,
/// then a forensic replay of each of those.
pub fn run_forensics(seed: u64, iters: u64) -> Result<ForensicsReport> {
    let mut seen_classes: BTreeSet<String> = BTreeSet::new();
    let mut seen_callbacks: BTreeSet<String> = BTreeSet::new();
    let mut cases: Vec<ForensicsCase> = Vec::new();
    let mut callbacks: Vec<FuzzFinding> = Vec::new();
    let mut trace_dropped = 0u64;
    let mut forensic_execs = 0u64;
    let mut cx = ExecContext::new();

    for it in 0..iters {
        let input = FuzzInput::generate(seed, it);
        let out = cx.execute(&input)?;
        trace_dropped += out.trace_dropped;

        let mut fresh_class = false;
        for f in &out.findings {
            match f.dkasan {
                Some(kind) => {
                    if !seen_classes.contains(&format!("{kind}|{}", f.site)) {
                        fresh_class = true;
                    }
                }
                None => {
                    if seen_callbacks.insert(f.key()) {
                        callbacks.push(f.clone());
                    }
                }
            }
        }
        if !fresh_class {
            continue;
        }

        forensic_execs += 1;
        let run = cx.execute_with_forensics(&input)?;
        for incident in run.incidents {
            let class = format!("{}|{}", incident.finding.kind, incident.finding.site);
            if seen_classes.insert(class) {
                cases.push(ForensicsCase {
                    iteration: it,
                    config: config_name(input.config_id),
                    incident,
                });
            }
        }
    }

    Ok(ForensicsReport {
        seed,
        iters,
        forensic_execs,
        cases,
        callbacks,
        trace_dropped,
    })
}

impl ForensicsReport {
    /// Human-readable report: header, incident blocks, callback table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "forensics seed {}: {} iterations, {} forensic replays, {} incident classes, {} callback exposures",
            self.seed,
            self.iters,
            self.forensic_execs,
            self.cases.len(),
            self.callbacks.len()
        );
        if self.trace_dropped > 0 {
            let _ = writeln!(
                out,
                "recorder: {} events evicted before the oracle saw them",
                self.trace_dropped
            );
        }
        for (i, case) in self.cases.iter().enumerate() {
            let _ = writeln!(out);
            out.push_str(&case.incident.render(i + 1));
            let _ = writeln!(
                out,
                "  replay: dma-lab fuzz --seed {} (iteration {}, config {})",
                self.seed, case.iteration, case.config
            );
        }
        if !self.callbacks.is_empty() {
            let _ = writeln!(out, "\ncallback exposures (device writes that landed):");
            for f in &self.callbacks {
                let window = f
                    .attrs
                    .window
                    .map(|w| format!("{} open cycles {}..{}", w.path, w.start, w.end))
                    .unwrap_or_else(|| "no timed window".to_string());
                let place = f
                    .attrs
                    .callback
                    .as_ref()
                    .map(|c| format!("iova {} page offset {:#x}", c.iova, c.page_offset))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  iter {:>4}  {}  {}  {}  malicious kva: {}",
                    f.iteration,
                    f.site,
                    window,
                    place,
                    if f.attrs.malicious_kva.is_some() {
                        "yes"
                    } else {
                        "no"
                    }
                );
            }
        }
        out
    }

    /// Deterministic JSON — the `dma-lab forensics --json` schema.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_u64("seed", self.seed);
            w.field_u64("iters", self.iters);
            w.field_u64("forensic_execs", self.forensic_execs);
            w.field_u64("trace_dropped", self.trace_dropped);
            w.field("cases", |w| {
                w.arr(|w| {
                    for case in &self.cases {
                        w.elem(|w| {
                            w.obj(|w| {
                                let inc = &case.incident;
                                w.field_u64("iteration", case.iteration);
                                w.field_str("config", case.config);
                                w.field_str("id", &inc.finding.id());
                                w.field_str("kind", &inc.finding.kind.to_string());
                                w.field_str("site", inc.finding.site);
                                w.field_str(
                                    "taxonomy",
                                    inc.taxonomy.letter().encode_utf8(&mut [0u8; 4]),
                                );
                                w.field_str("window", &inc.window.to_string());
                                w.field_str("page", &format!("{:#x}", inc.finding.page));
                                w.field_u64("at", inc.finding.at);
                                w.field("mapping_sites", |w| {
                                    w.arr(|w| {
                                        for s in &inc.mapping_sites {
                                            w.elem(|w| w.str(s));
                                        }
                                    });
                                });
                                w.field("co_resident", |w| {
                                    w.arr(|w| {
                                        for (site, size) in &inc.co_resident {
                                            w.elem(|w| {
                                                w.obj(|w| {
                                                    w.field_str("site", site);
                                                    w.field_u64("size", *size as u64);
                                                });
                                            });
                                        }
                                    });
                                });
                                w.field("timeline", |w| {
                                    w.arr(|w| {
                                        for step in &inc.steps {
                                            w.elem(|w| {
                                                w.obj(|w| {
                                                    w.field_u64("at", step.at);
                                                    w.field_str("what", &step.what);
                                                    w.field_str("edge", &step.edge);
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
            w.field("callbacks", |w| {
                w.arr(|w| {
                    for f in &self.callbacks {
                        w.elem(|w| {
                            w.obj(|w| {
                                w.field_u64("iteration", f.iteration);
                                w.field_str("site", &f.site);
                                w.field_str(
                                    "window",
                                    &f.attrs
                                        .window
                                        .map(|win| win.path.to_string())
                                        .unwrap_or_default(),
                                );
                                w.field_u64(
                                    "window_start",
                                    f.attrs.window.map(|win| win.start).unwrap_or(0),
                                );
                                w.field_u64(
                                    "window_end",
                                    f.attrs.window.map(|win| win.end).unwrap_or(0),
                                );
                                w.field_bool("malicious_kva", f.attrs.malicious_kva.is_some());
                            });
                        });
                    }
                });
            });
        });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_finds_and_explains_every_oracle_class() {
        let report = run_forensics(7, 24).unwrap();
        assert!(!report.cases.is_empty(), "no incident classes");
        let text = report.render_text();
        // Every rendered incident names taxonomy, window, and sites.
        assert!(text.contains("taxonomy:"), "{text}");
        assert!(text.contains("window:"), "{text}");
        assert!(text.contains("mapping sites:"), "{text}");
        assert!(text.contains("timeline:"), "{text}");
        // The race/stale ops surface the destructor_arg exposure too.
        assert!(text.contains("skb_shared_info.destructor_arg"), "{text}");
    }

    #[test]
    fn forensics_is_byte_deterministic() {
        let a = run_forensics(7, 12).unwrap();
        let b = run_forensics(7, 12).unwrap();
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.to_json(), b.to_json());
    }
}
