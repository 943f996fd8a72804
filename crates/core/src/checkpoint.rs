//! Versioned, checksummed, crash-safe campaign snapshots.
//!
//! A long fuzz or chaos campaign must survive a process kill without
//! losing (or worse, silently changing) its state. This module provides
//! the storage layer: a deterministic snapshot document written through
//! [`crate::jsonw`], wrapped in a versioned + checksummed envelope, and
//! persisted with a **two-generation A/B scheme** — writes alternate
//! between two slot files so a torn write corrupts at most the newest
//! generation and load falls back to the previous one (surfaced via the
//! `checkpoint.recovered` metric).
//!
//! # Envelope format
//!
//! ```json
//! {"magic":"dma-lab-checkpoint","version":1,"sequence":7,
//!  "checksum":"0123456789abcdef","payload":{...}}
//! ```
//!
//! The checksum is FNV-1a-64 over the exact payload byte range, so any
//! flipped or truncated byte in the payload (or a truncated envelope)
//! invalidates the generation. The payload itself is opaque to this
//! layer — the `fuzz` crate's campaign engine defines its schema.
//!
//! Saving picks its slot from each slot's header and checksum alone
//! ([`CheckpointStore::save`]), and writes the envelope around the
//! caller's payload without copying it. Only loading parses a payload
//! ([`validate_envelope`]), so a slot whose checksum matches but whose
//! payload is not JSON still falls back on load.
//!
//! # Fault injection
//!
//! Checkpoint I/O participates in the seeded fault-injection machinery
//! under two new site tags, `checkpoint.write` and `checkpoint.load`
//! (matched by the usual `checkpoint.*` glob). Injected failures are
//! retried up to [`MAX_IO_RETRIES`] times with a deterministic, seeded
//! simulated backoff, accounted under `checkpoint.io.retries` and the
//! `checkpoint.io.backoff_cycles` histogram in the store's private
//! I/O-metric registry. That registry is deliberately **not** part of
//! the snapshot payload: resumed and uninterrupted campaigns must stay
//! byte-identical even when their checkpoint I/O histories differ.
//!
//! This module also hosts the codecs that turn core state into snapshot
//! JSON and back: [`Event`] streams, [`FlightRecorder`] windows,
//! [`CoverageMap`] bitmaps, and whole [`Metrics`] registries (via
//! [`intern`], since metric names are `&'static str`).

use crate::addr::{Iova, Kva, Pfn};
use crate::coverage::CoverageMap;
use crate::error::{DmaError, Result};
use crate::fault::FaultPlan;
use crate::jsonr::{parse, JValue};
use crate::jsonw::JsonWriter;
use crate::metrics::{Metrics, Snapshot};
use crate::recorder::FlightRecorder;
use crate::rng::DetRng;
use crate::trace::Event;
use crate::vuln::DmaDirection;
use std::collections::BTreeSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic string every checkpoint envelope starts with.
pub const CHECKPOINT_MAGIC: &str = "dma-lab-checkpoint";

/// Current snapshot format version. Loaders reject other versions (a
/// mixed-version slot counts as corrupt and falls back).
pub const CHECKPOINT_VERSION: u64 = 1;

/// Attempts per checkpoint I/O operation before giving up.
pub const MAX_IO_RETRIES: u32 = 4;

/// The two generation slot files inside a checkpoint directory.
pub const SLOT_FILES: [&str; 2] = ["gen-a.ckpt", "gen-b.ckpt"];

const PAYLOAD_MARKER: &str = ",\"payload\":";

/// FNV-1a-64 over a byte string — the snapshot checksum primitive.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Interns a string, returning a `&'static str` with the same content.
///
/// Metric names and trace site tags are `&'static str` throughout the
/// workspace (recording is allocation-free); restoring them from a
/// snapshot needs a way back from owned strings. Interned strings are
/// deduplicated and live for the rest of the process — the set of
/// distinct names in a campaign is small and fixed, so this does not
/// grow unboundedly.
pub fn intern(s: &str) -> &'static str {
    let mut set = INTERNED.lock().unwrap();
    if let Some(&hit) = set.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// One validated generation loaded from disk.
#[derive(Clone, Debug)]
pub struct LoadedCheckpoint {
    /// Monotonic write sequence of this generation.
    pub sequence: u64,
    /// The parsed snapshot payload.
    pub payload: JValue,
}

/// A two-generation A/B checkpoint store rooted at a directory.
///
/// Saves alternate between [`SLOT_FILES`]; loads validate both slots
/// and return the highest-sequence valid generation. All I/O faults are
/// injectable (sites `checkpoint.write` / `checkpoint.load`) and
/// retried with seeded backoff.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    faults: FaultPlan,
    backoff: DetRng,
    metrics: Metrics,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store at `dir` with no fault plan.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with_faults(dir, FaultPlan::seeded(0), 0)
    }

    /// Opens a store whose I/O goes through the given fault plan, with
    /// `backoff_seed` driving the simulated retry backoff.
    pub fn open_with_faults(
        dir: impl Into<PathBuf>,
        faults: FaultPlan,
        backoff_seed: u64,
    ) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|_| DmaError::Invariant("checkpoint dir not creatable"))?;
        Ok(CheckpointStore {
            dir,
            faults,
            backoff: DetRng::new(backoff_seed ^ 0x5afe_c0de),
            metrics: Metrics::new(),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's private I/O-metric registry (`checkpoint.writes`,
    /// `checkpoint.loads`, `checkpoint.recovered`, `checkpoint.io.*`).
    /// Never serialized into a snapshot — see the module docs.
    pub fn io_metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Count of loads that had to fall back past a corrupt generation.
    pub fn recovered(&self) -> u64 {
        self.metrics.counter("checkpoint.recovered")
    }

    fn slot_path(&self, slot: usize) -> PathBuf {
        self.dir.join(SLOT_FILES[slot])
    }

    /// Deterministic simulated backoff for retry `attempt` (no real
    /// sleeping — the cost is only recorded, in simulated cycles).
    fn backoff_cycles(&mut self, attempt: u32) -> u64 {
        (1u64 << attempt.min(16)) * 1_000 + self.backoff.below(1_000)
    }

    fn retry_io<T>(
        &mut self,
        site: &'static str,
        err: &'static str,
        mut op: impl FnMut(&Path) -> std::io::Result<T>,
        path: &Path,
    ) -> Result<T> {
        for attempt in 0..=MAX_IO_RETRIES {
            let injected = self.faults.should_fail(site);
            let outcome = if injected { None } else { op(path).ok() };
            match outcome {
                Some(v) => return Ok(v),
                None => {
                    if attempt == MAX_IO_RETRIES {
                        break;
                    }
                    self.metrics.incr("checkpoint.io.retries");
                    let cycles = self.backoff_cycles(attempt);
                    self.metrics.observe("checkpoint.io.backoff_cycles", cycles);
                }
            }
        }
        Err(DmaError::Invariant(err))
    }

    /// Writes `payload` (a complete JSON document) as the next
    /// generation, returning the sequence number it was stamped with.
    ///
    /// The write goes to the slot **not** holding the newest valid
    /// generation, so the previous generation survives a torn write.
    /// Both slots are read from disk on every save (a slot corrupted
    /// during a run cannot cost the last good generation), but only
    /// their headers and checksums are checked; payloads are parsed by
    /// [`CheckpointStore::load`] alone.
    pub fn save(&mut self, payload: &str) -> Result<u64> {
        // Quietly (no fault injection): this read only picks the slot.
        let newest = (0..2)
            .filter_map(|slot| {
                let body = fs::read_to_string(self.slot_path(slot)).ok()?;
                check_envelope(&body).map(|(sequence, _)| (slot, sequence))
            })
            .max_by_key(|&(_, seq)| seq);
        let (slot, sequence) = match newest {
            Some((i, seq)) => (1 - i, seq + 1),
            None => (0, 1),
        };
        let checksum = fnv64(payload.as_bytes());
        let header = format!(
            "{{\"magic\":\"{CHECKPOINT_MAGIC}\",\"version\":{CHECKPOINT_VERSION},\
             \"sequence\":{sequence},\"checksum\":\"{checksum:016x}\"{PAYLOAD_MARKER}"
        );
        let path = self.slot_path(slot);
        self.retry_io(
            "checkpoint.write",
            "checkpoint write failed after retries",
            |p| {
                let mut f = fs::File::create(p)?;
                f.write_all(header.as_bytes())?;
                f.write_all(payload.as_bytes())?;
                f.write_all(b"}")
            },
            &path,
        )?;
        self.metrics.incr("checkpoint.writes");
        Ok(sequence)
    }

    /// Loads the newest valid generation, or `None` when no slot holds
    /// one. A present-but-corrupt slot alongside a valid one bumps
    /// `checkpoint.recovered` — the A/B fallback did its job.
    pub fn load(&mut self) -> Result<Option<LoadedCheckpoint>> {
        let mut best: Option<LoadedCheckpoint> = None;
        let mut corrupt = 0u64;
        for slot in 0..2 {
            let path = self.slot_path(slot);
            if !path.exists() {
                continue;
            }
            let body = self.retry_io(
                "checkpoint.load",
                "checkpoint read failed after retries",
                |p| fs::read_to_string(p),
                &path,
            )?;
            match validate_envelope(&body) {
                Some(loaded) => {
                    if best.as_ref().is_none_or(|b| loaded.sequence > b.sequence) {
                        best = Some(loaded);
                    }
                }
                None => corrupt += 1,
            }
        }
        self.metrics.incr("checkpoint.loads");
        if best.is_some() && corrupt > 0 {
            self.metrics.add("checkpoint.recovered", corrupt);
        }
        Ok(best)
    }
}

// ----------------------------------------------------------------------
// Sharded campaigns: one A/B store per shard under a common root.
// ----------------------------------------------------------------------

/// Name of the checkpoint subdirectory owned by shard `shard_id`.
pub fn shard_dir_name(shard_id: u32) -> String {
    format!("shard-{shard_id:04}")
}

/// Root of shard `shard_id`'s own A/B store under campaign root `base`.
/// Each shard checkpoints independently (its own generation pair, its
/// own sequence numbers); the campaign-level view is the generation
/// vector returned by [`shard_generations`].
pub fn shard_dir(base: &Path, shard_id: u32) -> PathBuf {
    base.join(shard_dir_name(shard_id))
}

/// Scans `base` for per-shard stores and returns the generation vector:
/// `(shard_id, newest_valid_sequence)` for every `shard-NNNN/`
/// subdirectory, sorted by shard id. A shard directory with no valid
/// generation reports sequence 0 — visible in `serve`'s health frame as
/// a shard that has not reached its first checkpoint yet.
pub fn shard_generations(base: &Path) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(base) else {
        return out;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(id) = name
            .to_str()
            .and_then(|n| n.strip_prefix("shard-"))
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        let newest = SLOT_FILES
            .iter()
            .filter_map(|f| fs::read_to_string(e.path().join(f)).ok())
            .filter_map(|body| validate_envelope(&body))
            .map(|l| l.sequence)
            .max()
            .unwrap_or(0);
        out.push((id, newest));
    }
    out.sort_unstable();
    out
}

/// Validates a checkpoint envelope: magic, version, checksum over the
/// exact payload byte range, and well-formed JSON. Returns `None` on
/// any mismatch (the caller treats the generation as corrupt).
pub fn validate_envelope(body: &str) -> Option<LoadedCheckpoint> {
    let (sequence, payload_src) = check_envelope(body)?;
    let payload = parse(payload_src).ok()?;
    Some(LoadedCheckpoint { sequence, payload })
}

/// The header half of [`validate_envelope`]: magic, version, sequence
/// and the checksum over the exact payload byte range, without parsing
/// the payload. Returns the sequence and the payload's source text.
fn check_envelope(body: &str) -> Option<(u64, &str)> {
    let marker = body.find(PAYLOAD_MARKER)?;
    let payload_start = marker + PAYLOAD_MARKER.len();
    if !body.ends_with('}') || payload_start >= body.len() {
        return None;
    }
    let payload_src = &body[payload_start..body.len() - 1];
    let header_src = format!("{}{}", &body[..marker], "}");
    let header = parse(&header_src).ok()?;
    if header.str_field("magic") != Some(CHECKPOINT_MAGIC) {
        return None;
    }
    if header.u64_field("version") != Some(CHECKPOINT_VERSION) {
        return None;
    }
    let sequence = header.u64_field("sequence")?;
    let want = u64::from_str_radix(header.str_field("checksum")?, 16).ok()?;
    if fnv64(payload_src.as_bytes()) != want {
        return None;
    }
    Some((sequence, payload_src))
}

// ----------------------------------------------------------------------
// Codecs: core state <-> snapshot JSON.
// ----------------------------------------------------------------------

/// Snapshot name of a DMA direction.
pub fn dir_name(d: DmaDirection) -> &'static str {
    match d {
        DmaDirection::ToDevice => "to_device",
        DmaDirection::FromDevice => "from_device",
        DmaDirection::Bidirectional => "bidirectional",
    }
}

/// Inverse of [`dir_name`].
pub fn dir_from_name(s: &str) -> Option<DmaDirection> {
    Some(match s {
        "to_device" => DmaDirection::ToDevice,
        "from_device" => DmaDirection::FromDevice,
        "bidirectional" => DmaDirection::Bidirectional,
        _ => return None,
    })
}

/// Serializes one trace event as a tagged JSON object.
pub fn event_to_json(w: &mut JsonWriter, ev: &Event) {
    w.obj(|w| match *ev {
        Event::Alloc {
            at,
            kva,
            size,
            site,
            cache,
        } => {
            w.field_str("t", "alloc");
            w.field_u64("at", at);
            w.field_u64("kva", kva.0);
            w.field_u64("size", size as u64);
            w.field_str("site", site);
            w.field_str("cache", cache);
        }
        Event::Free { at, kva } => {
            w.field_str("t", "free");
            w.field_u64("at", at);
            w.field_u64("kva", kva.0);
        }
        Event::PageAlloc {
            at,
            pfn,
            order,
            site,
        } => {
            w.field_str("t", "page_alloc");
            w.field_u64("at", at);
            w.field_u64("pfn", pfn.0);
            w.field_u64("order", order as u64);
            w.field_str("site", site);
        }
        Event::PageFree { at, pfn, order } => {
            w.field_str("t", "page_free");
            w.field_u64("at", at);
            w.field_u64("pfn", pfn.0);
            w.field_u64("order", order as u64);
        }
        Event::DmaMap {
            at,
            device,
            iova,
            kva,
            len,
            dir,
            site,
        } => {
            w.field_str("t", "dma_map");
            w.field_u64("at", at);
            w.field_u64("device", device as u64);
            w.field_u64("iova", iova.0);
            w.field_u64("kva", kva.0);
            w.field_u64("len", len as u64);
            w.field_str("dir", dir_name(dir));
            w.field_str("site", site);
        }
        Event::DmaUnmap {
            at,
            device,
            iova,
            len,
        } => {
            w.field_str("t", "dma_unmap");
            w.field_u64("at", at);
            w.field_u64("device", device as u64);
            w.field_u64("iova", iova.0);
            w.field_u64("len", len as u64);
        }
        Event::CpuAccess {
            at,
            kva,
            len,
            write,
            site,
        } => {
            w.field_str("t", "cpu_access");
            w.field_u64("at", at);
            w.field_u64("kva", kva.0);
            w.field_u64("len", len as u64);
            w.field_bool("write", write);
            w.field_str("site", site);
        }
        Event::DevAccess {
            at,
            device,
            iova,
            len,
            write,
            allowed,
            stale,
        } => {
            w.field_str("t", "dev_access");
            w.field_u64("at", at);
            w.field_u64("device", device as u64);
            w.field_u64("iova", iova.0);
            w.field_u64("len", len as u64);
            w.field_bool("write", write);
            w.field_bool("allowed", allowed);
            w.field_bool("stale", stale);
        }
        Event::IotlbInvalidate {
            at,
            device,
            iova_page,
        } => {
            w.field_str("t", "iotlb_invalidate");
            w.field_u64("at", at);
            w.field_u64("device", device as u64);
            w.field_u64("iova_page", iova_page.0);
        }
        Event::IotlbGlobalFlush { at, dropped } => {
            w.field_str("t", "iotlb_global_flush");
            w.field_u64("at", at);
            w.field_u64("dropped", dropped as u64);
        }
        Event::FaultInjected { at, site } => {
            w.field_str("t", "fault_injected");
            w.field_u64("at", at);
            w.field_str("site", site);
        }
    });
}

/// Inverse of [`event_to_json`]. Site and cache tags come back via
/// [`intern`].
pub fn event_from_json(v: &JValue) -> Option<Event> {
    let at = v.u64_field("at")?;
    Some(match v.str_field("t")? {
        "alloc" => Event::Alloc {
            at,
            kva: Kva(v.u64_field("kva")?),
            size: v.u64_field("size")? as usize,
            site: intern(v.str_field("site")?),
            cache: intern(v.str_field("cache")?),
        },
        "free" => Event::Free {
            at,
            kva: Kva(v.u64_field("kva")?),
        },
        "page_alloc" => Event::PageAlloc {
            at,
            pfn: Pfn(v.u64_field("pfn")?),
            order: v.u64_field("order")? as u32,
            site: intern(v.str_field("site")?),
        },
        "page_free" => Event::PageFree {
            at,
            pfn: Pfn(v.u64_field("pfn")?),
            order: v.u64_field("order")? as u32,
        },
        "dma_map" => Event::DmaMap {
            at,
            device: v.u64_field("device")? as u32,
            iova: Iova(v.u64_field("iova")?),
            kva: Kva(v.u64_field("kva")?),
            len: v.u64_field("len")? as usize,
            dir: dir_from_name(v.str_field("dir")?)?,
            site: intern(v.str_field("site")?),
        },
        "dma_unmap" => Event::DmaUnmap {
            at,
            device: v.u64_field("device")? as u32,
            iova: Iova(v.u64_field("iova")?),
            len: v.u64_field("len")? as usize,
        },
        "cpu_access" => Event::CpuAccess {
            at,
            kva: Kva(v.u64_field("kva")?),
            len: v.u64_field("len")? as usize,
            write: v.get("write")?.as_bool()?,
            site: intern(v.str_field("site")?),
        },
        "dev_access" => Event::DevAccess {
            at,
            device: v.u64_field("device")? as u32,
            iova: Iova(v.u64_field("iova")?),
            len: v.u64_field("len")? as usize,
            write: v.get("write")?.as_bool()?,
            allowed: v.get("allowed")?.as_bool()?,
            stale: v.get("stale")?.as_bool()?,
        },
        "iotlb_invalidate" => Event::IotlbInvalidate {
            at,
            device: v.u64_field("device")? as u32,
            iova_page: Iova(v.u64_field("iova_page")?),
        },
        "iotlb_global_flush" => Event::IotlbGlobalFlush {
            at,
            dropped: v.u64_field("dropped")? as usize,
        },
        "fault_injected" => Event::FaultInjected {
            at,
            site: intern(v.str_field("site")?),
        },
        _ => return None,
    })
}

/// Serializes a flight recorder: capacity, drop count, and the retained
/// window in chronological order.
pub fn recorder_to_json(w: &mut JsonWriter, r: &FlightRecorder) {
    w.obj(|w| {
        w.field_u64("capacity", r.capacity() as u64);
        w.field_u64("dropped", r.dropped());
        w.field("events", |w| {
            w.arr(|w| {
                for ev in r.snapshot() {
                    w.elem(|w| event_to_json(w, &ev));
                }
            });
        });
    });
}

/// Inverse of [`recorder_to_json`], via [`FlightRecorder::restore`].
pub fn recorder_from_json(v: &JValue) -> Option<FlightRecorder> {
    let capacity = v.u64_field("capacity")? as usize;
    let dropped = v.u64_field("dropped")?;
    let events = v
        .get("events")?
        .as_arr()?
        .iter()
        .map(event_from_json)
        .collect::<Option<Vec<_>>>()?;
    Some(FlightRecorder::restore(capacity, events, dropped))
}

/// Serializes a coverage map as its sorted set-bit index list.
pub fn coverage_to_json(w: &mut JsonWriter, m: &CoverageMap) {
    w.arr(|w| {
        for bit in m.bits() {
            w.elem(|wr| wr.u64(bit as u64));
        }
    });
}

/// Inverse of [`coverage_to_json`].
pub fn coverage_from_json(v: &JValue) -> Option<CoverageMap> {
    let mut m = CoverageMap::new();
    for bit in v.as_arr()? {
        m.set(bit.as_u64()? as usize);
    }
    Some(m)
}

/// Serializes a metric registry (reuses the snapshot JSON shape, cycle
/// stamp pinned to 0 — the campaign's own cycle total is tracked
/// separately).
pub fn metrics_to_json(m: &Metrics) -> String {
    m.snapshot(0).to_json()
}

/// Inverse of [`metrics_to_json`]: rebuilds a registry whose own
/// snapshot renders byte-identically to the serialized one. The shape is
/// read by [`Snapshot::from_jvalue`], which rejects what no registry
/// renders (a bucket bound that is not a power of two in range), and
/// the names are interned. The span timeline is not part of the snapshot
/// shape, so only aggregates and the `timeline_dropped` count survive
/// (documented resume semantics).
pub fn metrics_from_json(v: &JValue) -> Option<Metrics> {
    let s = Snapshot::from_jvalue(v)?;
    let mut m = Metrics::new();
    for (k, c) in s.counters {
        m.restore_counter(intern(&k), c);
    }
    for (k, g) in s.gauges {
        m.restore_gauge(intern(&k), g);
    }
    for (k, h) in s.hists {
        m.restore_histogram(intern(&k), h);
    }
    for (k, a) in s.spans {
        m.restore_span_agg(intern(&k), a);
    }
    m.restore_timeline_dropped(s.timeline_dropped);
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dma-lab-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn fnv64_matches_the_workspace_offset_basis() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }

    #[test]
    fn intern_deduplicates() {
        let a = intern("checkpoint.test.site");
        // A heap copy of the same text must intern to the same pointer.
        let heap = String::from("checkpoint.test.site");
        let b = intern(&heap);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn save_load_roundtrip_alternates_generations() {
        let dir = tmp_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load().unwrap().is_none(), "fresh dir has no state");
        assert_eq!(store.save("{\"n\":1}").unwrap(), 1);
        assert_eq!(store.save("{\"n\":2}").unwrap(), 2);
        assert_eq!(store.save("{\"n\":3}").unwrap(), 3);
        assert!(dir.join(SLOT_FILES[0]).exists());
        assert!(dir.join(SLOT_FILES[1]).exists());
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.sequence, 3);
        assert_eq!(loaded.payload.u64_field("n"), Some(3));
        assert_eq!(store.recovered(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_generation_vector_scans_per_shard_stores() {
        let dir = tmp_dir("shards");
        // Shards 0 and 2 have checkpoints (different depths), shard 1
        // has a directory but no valid generation yet.
        let mut s0 = CheckpointStore::open(shard_dir(&dir, 0)).unwrap();
        s0.save("{\"n\":1}").unwrap();
        fs::create_dir_all(shard_dir(&dir, 1)).unwrap();
        let mut s2 = CheckpointStore::open(shard_dir(&dir, 2)).unwrap();
        s2.save("{\"n\":1}").unwrap();
        s2.save("{\"n\":2}").unwrap();
        // Unrelated files are ignored.
        fs::write(dir.join("notes.txt"), "x").unwrap();
        assert_eq!(shard_generations(&dir), [(0, 1), (1, 0), (2, 2)]);
        // Corrupting shard 2's newest generation drops it to the
        // surviving one — the vector reads through the A/B fallback.
        let newest = shard_dir(&dir, 2).join(SLOT_FILES[1]);
        let body = fs::read_to_string(&newest).unwrap();
        fs::write(&newest, &body[..body.len() / 2]).unwrap();
        assert_eq!(shard_generations(&dir), [(0, 1), (1, 0), (2, 1)]);
        assert!(shard_generations(&dir.join("missing")).is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    fn newest_slot(dir: &Path) -> PathBuf {
        // Sequence 2 always lives in slot B after two saves.
        dir.join(SLOT_FILES[1])
    }

    fn store_with_two_generations(tag: &str) -> (PathBuf, CheckpointStore) {
        let dir = tmp_dir(tag);
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save("{\"n\":1}").unwrap();
        store.save("{\"n\":2}").unwrap();
        (dir, store)
    }

    #[test]
    fn truncated_newest_falls_back_to_previous_generation() {
        let (dir, mut store) = store_with_two_generations("trunc");
        let path = newest_slot(&dir);
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, &body[..body.len() / 2]).unwrap();
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.sequence, 1, "fell back to the A generation");
        assert_eq!(loaded.payload.u64_field("n"), Some(1));
        assert_eq!(store.recovered(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_checksum_byte_falls_back() {
        let (dir, mut store) = store_with_two_generations("flip");
        let path = newest_slot(&dir);
        let mut body = fs::read_to_string(&path).unwrap().into_bytes();
        let at = body
            .windows(11)
            .position(|w| w == b"\"checksum\":")
            .unwrap()
            + 12;
        body[at] = if body[at] == b'0' { b'1' } else { b'0' };
        fs::write(&path, &body).unwrap();
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.sequence, 1);
        assert_eq!(store.recovered(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_payload_byte_falls_back() {
        let (dir, mut store) = store_with_two_generations("payload");
        let path = newest_slot(&dir);
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, body.replace("\"n\":2", "\"n\":9")).unwrap();
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.sequence, 1, "checksum catches the tampered payload");
        assert_eq!(store.recovered(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_version_slot_falls_back() {
        let (dir, mut store) = store_with_two_generations("version");
        let path = newest_slot(&dir);
        // A future-version envelope with an internally consistent
        // checksum must still be rejected by this loader.
        let payload = "{\"n\":99}";
        let checksum = fnv64(payload.as_bytes());
        fs::write(
            &path,
            format!(
                "{{\"magic\":\"{CHECKPOINT_MAGIC}\",\"version\":99,\
                 \"sequence\":9,\"checksum\":\"{checksum:016x}\"\
                 ,\"payload\":{payload}}}"
            ),
        )
        .unwrap();
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.sequence, 1);
        assert_eq!(store.recovered(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksummed_non_json_payload_falls_back_on_load() {
        let (dir, mut store) = store_with_two_generations("notjson");
        // The checksum matches the bytes, so only parsing rejects them.
        let payload = "{\"n\":";
        let checksum = fnv64(payload.as_bytes());
        fs::write(
            newest_slot(&dir),
            format!(
                "{{\"magic\":\"{CHECKPOINT_MAGIC}\",\"version\":{CHECKPOINT_VERSION},\
                 \"sequence\":2,\"checksum\":\"{checksum:016x}\"\
                 ,\"payload\":{payload}}}"
            ),
        )
        .unwrap();
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.sequence, 1, "fell back to the A generation");
        assert_eq!(loaded.payload.u64_field("n"), Some(1));
        assert_eq!(store.recovered(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn both_slots_corrupt_loads_nothing() {
        let (dir, mut store) = store_with_two_generations("allbad");
        for slot in SLOT_FILES {
            fs::write(dir.join(slot), "garbage").unwrap();
        }
        assert!(store.load().unwrap().is_none());
        assert_eq!(store.recovered(), 0, "nothing to recover to");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_preserves_the_previous_generation() {
        // Simulates a kill mid-write: the new generation is half a
        // file, the old one untouched. Save after recovery reuses the
        // torn slot.
        let (dir, mut store) = store_with_two_generations("torn");
        let path = newest_slot(&dir);
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, &body[..10]).unwrap();
        assert_eq!(store.load().unwrap().unwrap().sequence, 1);
        assert_eq!(store.save("{\"n\":3}").unwrap(), 2, "sequence continues");
        assert_eq!(
            store.load().unwrap().unwrap().payload.u64_field("n"),
            Some(3)
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_faults_retry_with_seeded_backoff() {
        let dir = tmp_dir("faults");
        let plan = FaultPlan::seeded(3).fail_nth("checkpoint.write", 1);
        let mut store = CheckpointStore::open_with_faults(&dir, plan, 11).unwrap();
        assert_eq!(store.save("{\"n\":1}").unwrap(), 1, "retry succeeds");
        assert_eq!(store.io_metrics().counter("checkpoint.io.retries"), 1);
        let h = store
            .io_metrics()
            .histogram("checkpoint.io.backoff_cycles")
            .unwrap();
        assert_eq!(h.count, 1);
        assert!(h.sum >= 1_000, "backoff cost recorded");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_write_faults_exhaust_retries() {
        let dir = tmp_dir("exhaust");
        let plan = FaultPlan::seeded(3).fail_always("checkpoint.write");
        let mut store = CheckpointStore::open_with_faults(&dir, plan, 11).unwrap();
        assert_eq!(
            store.save("{\"n\":1}"),
            Err(DmaError::Invariant("checkpoint write failed after retries"))
        );
        assert_eq!(
            store.io_metrics().counter("checkpoint.io.retries"),
            MAX_IO_RETRIES as u64
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_load_faults_retry() {
        let dir = tmp_dir("loadfault");
        let mut w = CheckpointStore::open(&dir).unwrap();
        w.save("{\"n\":1}").unwrap();
        let plan = FaultPlan::seeded(9).fail_nth("checkpoint.load", 1);
        let mut store = CheckpointStore::open_with_faults(&dir, plan, 4).unwrap();
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.payload.u64_field("n"), Some(1));
        assert_eq!(store.io_metrics().counter("checkpoint.io.retries"), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_codec_roundtrips_every_variant() {
        let events = vec![
            Event::Alloc {
                at: 1,
                kva: Kva(0xffff_8880_0001_0000),
                size: 256,
                site: "nic.rx_refill",
                cache: "kmalloc-256",
            },
            Event::Free {
                at: 2,
                kva: Kva(0xffff_8880_0001_0000),
            },
            Event::PageAlloc {
                at: 3,
                pfn: Pfn(0x1234),
                order: 2,
                site: "page_frag",
            },
            Event::PageFree {
                at: 4,
                pfn: Pfn(0x1234),
                order: 2,
            },
            Event::DmaMap {
                at: 5,
                device: 7,
                iova: Iova(0xf000_0000),
                kva: Kva(0xffff_8880_0002_0000),
                len: 1500,
                dir: DmaDirection::FromDevice,
                site: "nic.rx_map",
            },
            Event::DmaUnmap {
                at: 6,
                device: 7,
                iova: Iova(0xf000_0000),
                len: 1500,
            },
            Event::CpuAccess {
                at: 7,
                kva: Kva(0xffff_8880_0002_0040),
                len: 8,
                write: true,
                site: "skb_build",
            },
            Event::DevAccess {
                at: 8,
                device: 7,
                iova: Iova(0xf000_0040),
                len: 64,
                write: true,
                allowed: true,
                stale: true,
            },
            Event::IotlbInvalidate {
                at: 9,
                device: 7,
                iova_page: Iova(0xf000_0000),
            },
            Event::IotlbGlobalFlush { at: 10, dropped: 3 },
            Event::FaultInjected {
                at: 11,
                site: "sim_mem.kmalloc",
            },
        ];
        for ev in &events {
            let mut w = JsonWriter::new();
            event_to_json(&mut w, ev);
            let back = event_from_json(&parse(&w.finish()).unwrap()).unwrap();
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn recorder_codec_roundtrips_window_and_drops() {
        let mut r = FlightRecorder::new(3);
        for at in 0..7 {
            r.push(Event::Free { at, kva: Kva(at) });
        }
        let mut w = JsonWriter::new();
        recorder_to_json(&mut w, &r);
        let back = recorder_from_json(&parse(&w.finish()).unwrap()).unwrap();
        assert_eq!(back.capacity(), 3);
        assert_eq!(back.dropped(), 4);
        assert_eq!(back.snapshot(), r.snapshot());
    }

    #[test]
    fn coverage_codec_roundtrips_the_signature() {
        let mut m = CoverageMap::new();
        for k in ["a", "b", "c", "deliver.ok"] {
            m.add("op", k);
        }
        m.add_site("sim_iommu.dma_map");
        let mut w = JsonWriter::new();
        coverage_to_json(&mut w, &m);
        let back = coverage_from_json(&parse(&w.finish()).unwrap()).unwrap();
        assert_eq!(back.signature(), m.signature());
        assert_eq!(back.count_ones(), m.count_ones());
    }

    #[test]
    fn metrics_codec_roundtrips_byte_identically() {
        let mut m = Metrics::new();
        m.add("fuzz.execs", 96);
        m.gauge_set("fuzz.corpus.size", 4);
        m.gauge_set("fuzz.corpus.size", 9);
        m.observe("fuzz.exec.cycles", 1);
        m.observe("fuzz.exec.cycles", 123_456);
        m.observe("fuzz.exec.cycles", u64::MAX / 2);
        let t = m.span_begin_at("exec", 0);
        m.span_end_at(t, 77);
        let doc = metrics_to_json(&m);
        let back = metrics_from_json(&parse(&doc).unwrap()).unwrap();
        assert_eq!(metrics_to_json(&back), doc);
    }
}
