//! Corpus store: signature-deduped interesting inputs plus a greedy
//! minimizer.
//!
//! An input is *interesting* when its coverage map sets bits the global
//! map has never seen. Admitted inputs are deduped by coverage
//! signature and shrunk by removing ops one at a time (back to front),
//! re-executing after each removal and keeping it only when the
//! signature — the behavioral fingerprint — is preserved. Everything is
//! deterministic, so two runs with one seed build byte-identical
//! corpora.

use dma_core::jsonw::JsonWriter;
use dma_core::{CoverageMap, Result};
use std::collections::BTreeSet;
use std::path::Path;

use crate::exec::{config_name, ExecContext, ExecOutcome};
use crate::input::FuzzInput;

/// How many causal chains a corpus entry retains at most.
const MAX_CHAINS: usize = 4;

/// One admitted corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Run seed (replay key, with `iteration`).
    pub seed: u64,
    /// Iteration that generated the input.
    pub iteration: u64,
    /// Machine configuration index.
    pub config_id: u8,
    /// Coverage signature of the (original and minimized) input.
    pub signature: u64,
    /// Bits this entry added to the global map on admission.
    pub new_bits: u32,
    /// Op count before minimization.
    pub ops: usize,
    /// The minimized input (its op count is the post-minimization size).
    pub input: FuzzInput,
    /// Causal provenance chains — one per D-KASAN finding the minimized
    /// input still triggers (oldest event → trigger), capped at
    /// [`MAX_CHAINS`]. Empty when the entry was admitted on coverage
    /// novelty alone.
    pub chains: Vec<String>,
}

impl CorpusEntry {
    /// Deterministic JSON rendering (the on-disk corpus format).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_u64("seed", self.seed);
            w.field_u64("iteration", self.iteration);
            w.field_str("config", config_name(self.config_id));
            w.field_str("signature", &format!("{:016x}", self.signature));
            w.field_u64("new_bits", self.new_bits as u64);
            w.field_u64("ops", self.ops as u64);
            w.field_u64("min_ops", self.input.ops.len() as u64);
            w.field("program", |w| {
                w.arr(|w| {
                    for op in &self.input.ops {
                        w.elem(|w| w.str(&op.describe()));
                    }
                });
            });
            w.field("causal_chains", |w| {
                w.arr(|w| {
                    for c in &self.chains {
                        w.elem(|w| w.str(c));
                    }
                });
            });
        });
        w.finish()
    }
}

/// The corpus: admitted entries in discovery order.
#[derive(Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    signatures: BTreeSet<u64>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Rebuilds a corpus from snapshot entries, restoring the signature
    /// dedup set so a resumed campaign admits exactly what the
    /// uninterrupted one would.
    pub fn restore(entries: Vec<CorpusEntry>) -> Self {
        let signatures = entries.iter().map(|e| e.signature).collect();
        Corpus {
            entries,
            signatures,
        }
    }

    /// Entries in discovery order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been admitted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Signatures in discovery order (the determinism fingerprint).
    pub fn signatures(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.signature).collect()
    }

    /// Considers an executed input: merges its coverage into `global`
    /// and admits it (minimized) when it added new bits and its
    /// signature is unseen. The minimizer's replays and one forensic
    /// annotation replay run on `cx`, or on a fresh context when it is
    /// `None` — the admission is the same either way. Returns the number
    /// of extra executions spent (minimizer replays plus the annotation
    /// replay; 0 when not admitted).
    pub fn consider_with(
        &mut self,
        cx: Option<&mut ExecContext>,
        input: &FuzzInput,
        outcome: &ExecOutcome,
        global: &mut CoverageMap,
    ) -> Result<usize> {
        let mut fresh = None;
        let cx = cx.unwrap_or_else(|| fresh.insert(ExecContext::new()));
        let new_bits = global.merge(&outcome.coverage);
        if new_bits == 0 || !self.signatures.insert(outcome.signature) {
            return Ok(0);
        }
        let (minimized, execs) = minimize(cx, input, outcome.signature)?;
        // One forensic replay of the kept input annotates the entry
        // with the causal chains behind its D-KASAN findings.
        let run = cx.execute_with_forensics(&minimized)?;
        let mut chains: Vec<String> = Vec::new();
        for inc in &run.incidents {
            let c = inc.chain();
            if !c.is_empty() && !chains.contains(&c) {
                chains.push(c);
            }
            if chains.len() == MAX_CHAINS {
                break;
            }
        }
        self.entries.push(CorpusEntry {
            seed: input.seed,
            iteration: input.iteration,
            config_id: input.config_id,
            signature: outcome.signature,
            new_bits,
            ops: input.ops.len(),
            input: minimized,
            chains,
        });
        Ok(execs + 1)
    }

    /// Writes every entry as `entry-<idx>-<signature>.json` under
    /// `dir`, creating it if needed. Returns the file count.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        for (idx, e) in self.entries.iter().enumerate() {
            let name = format!("entry-{idx:04}-{:016x}.json", e.signature);
            std::fs::write(dir.join(name), e.to_json())?;
        }
        Ok(self.entries.len())
    }
}

/// Greedy shrink: drop ops back to front, keeping each removal only if
/// the re-executed signature still equals `target`. Returns the
/// minimized input and how many re-executions it took.
fn minimize(cx: &mut ExecContext, input: &FuzzInput, target: u64) -> Result<(FuzzInput, usize)> {
    let mut cur = input.clone();
    let mut execs = 0;
    let mut i = cur.ops.len();
    while i > 0 {
        i -= 1;
        if cur.ops.len() <= 1 {
            break;
        }
        let mut cand = cur.clone();
        cand.ops.remove(i);
        execs += 1;
        if cx.execute(&cand)?.signature == target {
            cur = cand;
        }
    }
    Ok((cur, execs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_requires_new_bits_and_fresh_signature() {
        let input = FuzzInput::generate(11, 0);
        let out = ExecContext::new().execute(&input).unwrap();
        let mut corpus = Corpus::new();
        let mut global = CoverageMap::new();
        corpus
            .consider_with(None, &input, &out, &mut global)
            .unwrap();
        assert_eq!(corpus.len(), 1);
        // Same outcome again: no new bits, no duplicate entry.
        corpus
            .consider_with(None, &input, &out, &mut global)
            .unwrap();
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.signatures(), vec![out.signature]);
    }

    #[test]
    fn minimizer_preserves_signature_and_never_grows() {
        let input = FuzzInput::generate(11, 2);
        let mut cx = ExecContext::new();
        let out = cx.execute(&input).unwrap();
        let (min, _) = minimize(&mut cx, &input, out.signature).unwrap();
        assert!(min.ops.len() <= input.ops.len());
        assert!(!min.ops.is_empty());
        assert_eq!(cx.execute(&min).unwrap().signature, out.signature);
    }

    #[test]
    fn corpus_entry_json_is_deterministic() {
        let input = FuzzInput::generate(11, 1);
        let out = ExecContext::new().execute(&input).unwrap();
        let mut corpus = Corpus::new();
        let mut global = CoverageMap::new();
        corpus
            .consider_with(None, &input, &out, &mut global)
            .unwrap();
        let e = &corpus.entries()[0];
        assert_eq!(e.to_json(), e.to_json());
        assert!(e.to_json().contains("\"signature\""));
        assert!(e.to_json().contains("\"program\""));
    }
}
