//! `dma-lab serve` — live campaign telemetry over line-JSON TCP.
//!
//! A resident, dependency-free service (`std::net` only) that runs a
//! fuzz campaign in-process and exposes it live, instead of the
//! batch-only reports every other subcommand prints at exit:
//!
//! - **Pull**: `stats` frames carry full [`Snapshot`]s or — once a
//!   connection has a baseline —
//!   [`SnapshotDelta`](dma_core::metrics::SnapshotDelta)s, so pollers
//!   ship only the metrics that moved since their last request.
//! - **Push**: `step`/`watch` advance the campaign and stream every
//!   [`CampaignEvent`] — `dk-…` findings with their Figure-1 taxonomy
//!   letter, `dq-…` quarantines, coverage growth, checkpoints — the
//!   iteration it happens.
//! - **Audit**: `posture` renders an `iommu_status.py`-style
//!   [`PostureReport`] for every machine configuration in the fuzz
//!   sweep, distinguishing strict from deferred invalidation and
//!   flagging the §5.2.1 stale-translation window.
//! - **Trace**: `chrome` exports the campaign journal as a Perfetto
//!   `trace_event` document via [`dma_core::chrome`].
//! - **Profile**: `profile` returns the merged cycle-attribution call
//!   tree ([`dma_core::Profile`]) of every execution admitted so far,
//!   folded across shards in shard-id order.
//!
//! ## Protocol
//!
//! One request per line: a JSON object with a `"req"` key. Each request
//! yields one or more single-line JSON response frames; the final frame
//! of a request carries `"end":true` as its **last** field, so a client
//! detects completion with `line.ends_with("\"end\":true}")` and never
//! needs a streaming JSON parser. Unknown requests, malformed JSON, and
//! non-object lines are answered with an `error` frame (and the
//! connection stays open); a request line longer than [`MAX_LINE`]
//! bytes is answered with an `error` frame and the connection is
//! closed. A half-sent line followed by disconnect is discarded
//! quietly. The campaign advances *only* in response to requests, and
//! no frame contains a wall-clock or socket-dependent value, so for a
//! fixed `(seed, script)` pair the complete transcript is byte-
//! identical across runs — pinned in `tests/serve.rs` and CI.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use dma_core::checkpoint::{shard_dir, shard_generations};
use dma_core::jsonw::JsonWriter;
use dma_core::metrics::Snapshot;
use dma_core::posture::PostureReport;
use dma_core::{chrome, shard_seed, JValue};
use fuzz::{
    config_device, config_name, machine_config, Campaign, CampaignConfig, CampaignEvent,
    NUM_CONFIGS,
};

/// Protocol version announced by the `hello` frame.
pub const PROTO_VERSION: u64 = 1;

/// Longest accepted request line in bytes. Anything longer gets an
/// `error` frame and the connection is dropped — a line-oriented
/// protocol must bound its framing buffer or a single hostile line
/// becomes an allocation attack.
pub const MAX_LINE: usize = 64 * 1024;

/// Marker suffix of the final frame of every request.
pub const END_MARKER: &str = "\"end\":true}";

/// Packets delivered per machine config by the posture sweep's warmup
/// traffic (enough to open deferred windows without slowing requests).
const POSTURE_WARMUP_PACKETS: u32 = 3;

/// Configuration of one serve session.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Base campaign seed; shard `i` runs under `shard_seed(seed, i)`.
    pub seed: u64,
    /// Iteration budget **per shard** (`step`/`watch` stop once every
    /// shard has exhausted it).
    pub iters: u64,
    /// Checkpoint directory (enables `checkpoint` events and ages).
    /// With more than one shard, each shard checkpoints under its own
    /// `shard-NNNN/` subdirectory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in iterations; 0 disables periodic saves.
    pub checkpoint_every: u64,
    /// Independent campaign shards stepped round-robin (clamped to
    /// ≥ 1). Event frames carry the shard id that produced them.
    pub shards: u32,
}

impl ServeConfig {
    /// A plain session: seed + budget, one shard, no checkpoints.
    pub fn new(seed: u64, iters: u64) -> ServeConfig {
        ServeConfig {
            seed,
            iters,
            checkpoint_dir: None,
            checkpoint_every: 0,
            shards: 1,
        }
    }
}

/// What the connection loop should do after a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Keep reading requests on this connection.
    Continue,
    /// Close this connection; keep serving new ones.
    CloseConn,
    /// Stop the server after flushing the response.
    Shutdown,
}

/// Per-connection state: the delta baseline for `stats` polling.
#[derive(Default)]
pub struct ConnState {
    last_stats: Option<Snapshot>,
}

/// The serve engine. Owns the campaign; [`Server::handle_line`] is the
/// entire protocol, so tests and benches drive it without sockets and
/// the TCP loop stays a thin transport.
pub struct Server {
    cfg: ServeConfig,
    /// One independent campaign per shard, stepped round-robin.
    shards: Vec<Campaign>,
    /// Round-robin cursor: index of the next shard to step.
    rr: usize,
}

impl Server {
    /// Builds the session and its in-process campaign shard(s).
    pub fn new(cfg: ServeConfig) -> dma_core::Result<Server> {
        let n = cfg.shards.max(1);
        let mut shards = Vec::with_capacity(n as usize);
        for id in 0..n {
            let mut ccfg = CampaignConfig::new(shard_seed(cfg.seed, id), cfg.iters);
            // A single shard keeps the flat checkpoint layout so
            // `dma-lab fuzz --resume DIR` still understands it; sharded
            // sessions nest one store per shard.
            ccfg.checkpoint_dir = match (&cfg.checkpoint_dir, n) {
                (None, _) => None,
                (Some(dir), 1) => Some(dir.clone()),
                (Some(dir), _) => Some(shard_dir(dir, id)),
            };
            ccfg.checkpoint_every = cfg.checkpoint_every;
            shards.push(Campaign::new(ccfg)?);
        }
        Ok(Server { cfg, shards, rr: 0 })
    }

    /// The session configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Total iterations executed across all shards.
    fn total_next_iter(&self) -> u64 {
        self.shards.iter().map(|c| c.next_iter()).sum()
    }

    /// Steps the next non-exhausted shard in round-robin order.
    /// Returns the shard index stepped, or `None` when every shard has
    /// exhausted its budget.
    fn step_round_robin(&mut self) -> dma_core::Result<Option<usize>> {
        let n = self.shards.len();
        for _ in 0..n {
            let idx = self.rr;
            self.rr = (self.rr + 1) % n;
            if self.shards[idx].step()? {
                return Ok(Some(idx));
            }
        }
        Ok(None)
    }

    /// Handles one request line, appending response frames to `out`.
    pub fn handle_line(&mut self, line: &str, conn: &mut ConnState, out: &mut Vec<String>) -> Flow {
        if line.len() > MAX_LINE {
            out.push(error_frame("request line exceeds 65536 bytes"));
            return Flow::CloseConn;
        }
        let line = line.trim();
        if line.is_empty() {
            return Flow::Continue;
        }
        let req = match dma_core::jsonr::parse(line) {
            Ok(v) => v,
            Err(_) => {
                out.push(error_frame("malformed JSON request"));
                return Flow::Continue;
            }
        };
        let Some(kind) = req.str_field("req") else {
            out.push(error_frame("request must be an object with a \"req\" key"));
            return Flow::Continue;
        };
        match kind {
            "hello" => {
                out.push(self.hello_frame());
                Flow::Continue
            }
            "stats" => {
                out.push(self.stats_frame(&req, conn));
                Flow::Continue
            }
            "step" => {
                self.step_frames(&req, out);
                Flow::Continue
            }
            "watch" => {
                self.watch_frames(&req, out);
                Flow::Continue
            }
            "health" => {
                out.push(self.health_frame());
                Flow::Continue
            }
            "posture" => {
                self.posture_frames(out);
                Flow::Continue
            }
            "profile" => {
                out.push(self.profile_frame());
                Flow::Continue
            }
            "chrome" => {
                out.push(self.chrome_frame());
                Flow::Continue
            }
            "shutdown" => {
                let mut w = JsonWriter::new();
                w.obj(|w| {
                    w.field_str("frame", "bye");
                    w.field_u64("next_iter", self.total_next_iter());
                    w.field_bool("end", true);
                });
                out.push(w.finish());
                Flow::Shutdown
            }
            other => {
                out.push(error_frame(&format!("unknown request type {other:?}")));
                Flow::Continue
            }
        }
    }

    fn hello_frame(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_str("frame", "hello");
            w.field_u64("proto", PROTO_VERSION);
            w.field_u64("seed", self.cfg.seed);
            w.field_u64("iters", self.cfg.iters);
            w.field_u64("shards", self.shards.len() as u64);
            w.field_u64("next_iter", self.total_next_iter());
            w.field_bool("end", true);
        });
        w.finish()
    }

    /// `stats` — full snapshot, or the delta against this connection's
    /// previous snapshot when `"mode":"delta"` is requested (first
    /// delta request on a connection falls back to a full frame).
    fn stats_frame(&mut self, req: &JValue, conn: &mut ConnState) -> String {
        // The session-wide view: shard snapshots folded with the
        // deterministic merge (identity for a single shard).
        let mut snap = {
            let s = self.shards[0].state();
            s.metrics.snapshot(s.total_cycles)
        };
        for c in &self.shards[1..] {
            let s = c.state();
            snap.merge(&s.metrics.snapshot(s.total_cycles));
        }
        let want_delta = req.str_field("mode") == Some("delta");
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_str("frame", "stats");
            match (&conn.last_stats, want_delta) {
                (Some(prev), true) => {
                    w.field_str("mode", "delta");
                    w.field("delta", |w| w.raw(&snap.diff(prev).to_json()));
                }
                _ => {
                    w.field_str("mode", "full");
                    w.field("snapshot", |w| w.raw(&snap.to_json()));
                }
            }
            w.field_bool("end", true);
        });
        conn.last_stats = Some(snap);
        w.finish()
    }

    /// `step {"n":K}` — advance up to K iterations (default 1) spread
    /// round-robin over the shards, streaming campaign events (tagged
    /// with their shard id), then a `stepped` summary.
    fn step_frames(&mut self, req: &JValue, out: &mut Vec<String>) {
        let n = req.u64_field("n").unwrap_or(1);
        let mut ran = 0u64;
        let mut errors = 0u64;
        for _ in 0..n {
            match self.step_round_robin() {
                Ok(Some(idx)) => {
                    ran += 1;
                    for ev in self.shards[idx].drain_events() {
                        out.push(event_frame(&ev, idx as u64));
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    errors += 1;
                    break;
                }
            }
        }
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_str("frame", "stepped");
            w.field_u64("ran", ran);
            w.field_u64("errors", errors);
            w.field_u64("next_iter", self.total_next_iter());
            w.field_u64("findings", self.total_findings());
            w.field_u64("quarantined", self.total_crashes());
            w.field_bool("end", true);
        });
        out.push(w.finish());
    }

    /// `profile` — the merged cycle-attribution profile of every
    /// execution admitted so far, folded across shards in shard-id
    /// order (the same deterministic merge `stats` uses for
    /// snapshots), so the frame is byte-identical for a fixed
    /// `(seed, script)` regardless of shard count timing.
    fn profile_frame(&self) -> String {
        let mut profile = self.shards[0].state().profile.clone();
        for c in &self.shards[1..] {
            profile.merge(&c.state().profile);
        }
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_str("frame", "profile");
            w.field_u64("next_iter", self.total_next_iter());
            w.field("profile", |w| w.raw(&profile.to_json()));
            w.field_bool("end", true);
        });
        w.finish()
    }

    fn total_findings(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.state().findings.len() as u64)
            .sum()
    }

    fn total_crashes(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.state().crashes.len() as u64)
            .sum()
    }

    /// `watch {"findings":N}` — run until the combined finding +
    /// quarantine count reaches N (or the budget ends), streaming each
    /// discovery the iteration it lands, then a `watched` summary.
    fn watch_frames(&mut self, req: &JValue, out: &mut Vec<String>) {
        let current = self.total_findings() + self.total_crashes();
        let target = req.u64_field("findings").unwrap_or(current + 1);
        let mut ran = 0u64;
        let mut errors = 0u64;
        loop {
            if self.total_findings() + self.total_crashes() >= target {
                break;
            }
            match self.step_round_robin() {
                Ok(Some(idx)) => {
                    ran += 1;
                    for ev in self.shards[idx].drain_events() {
                        out.push(event_frame(&ev, idx as u64));
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    errors += 1;
                    break;
                }
            }
        }
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_str("frame", "watched");
            w.field_u64("target", target);
            w.field_u64("ran", ran);
            w.field_u64("errors", errors);
            w.field_u64("findings", self.total_findings());
            w.field_u64("quarantined", self.total_crashes());
            w.field_u64("next_iter", self.total_next_iter());
            w.field_bool("end", true);
        });
        out.push(w.finish());
    }

    /// `health` — liveness counters, checkpoint age, and silent-loss
    /// indicators (journal evictions, per-exec recorder drops), summed
    /// across shards. Sharded sessions with a checkpoint dir also carry
    /// the per-shard on-disk generation vector.
    fn health_frame(&self) -> String {
        let next_iter = self.total_next_iter();
        let s0 = self.shards[0].state();
        let mut coverage = s0.global.clone();
        for c in &self.shards[1..] {
            coverage.merge(&c.state().global);
        }
        let corpus: u64 = self
            .shards
            .iter()
            .map(|c| c.state().corpus.len() as u64)
            .sum();
        let journal_len: u64 = self
            .shards
            .iter()
            .map(|c| c.state().journal.len() as u64)
            .sum();
        let journal_dropped: u64 = self
            .shards
            .iter()
            .map(|c| c.state().journal.dropped())
            .sum();
        let trace_dropped: u64 = self.shards.iter().map(|c| c.state().trace_dropped).sum();
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_str("frame", "health");
            w.field_u64("next_iter", next_iter);
            w.field_u64("iters", self.cfg.iters * self.shards.len() as u64);
            w.field_u64("shards", self.shards.len() as u64);
            w.field_u64("findings", self.total_findings());
            w.field_u64("quarantined", self.total_crashes());
            w.field_u64("corpus", corpus);
            w.field_u64("coverage_bits", coverage.count_ones() as u64);
            w.field("checkpoint", |w| match self.shards[0].last_checkpoint() {
                None => w.raw("null"),
                Some((sequence, at_iter)) => w.obj(|w| {
                    w.field_u64("sequence", sequence);
                    w.field_u64("at_iter", at_iter);
                    w.field_u64(
                        "age_iters",
                        self.shards[0].next_iter().saturating_sub(at_iter),
                    );
                }),
            });
            // The durable complement of the live ages above: what a
            // resume would actually find on disk, per shard.
            if self.shards.len() > 1 {
                if let Some(dir) = &self.cfg.checkpoint_dir {
                    let gens = shard_generations(dir);
                    w.field("generations", |w| {
                        w.arr(|w| {
                            for (shard, sequence) in gens {
                                w.elem(|w| {
                                    w.obj(|w| {
                                        w.field_u64("shard", u64::from(shard));
                                        w.field_u64("sequence", sequence);
                                    });
                                });
                            }
                        });
                    });
                }
            }
            w.field_u64("journal_len", journal_len);
            w.field_u64("journal_dropped", journal_dropped);
            w.field_u64("trace_dropped", trace_dropped);
            w.field_bool("end", true);
        });
        w.finish()
    }

    /// `posture` — one audit frame per fuzz machine configuration
    /// (tagged with its device family), then per-device-model summary
    /// sections and a sweep total. Each config boots a fresh machine of
    /// its family through the [`devsim::DeviceModel`] trait, gets a
    /// short warmup (RX traffic plus a flush period) so deferred
    /// configs actually open §5.2.1 windows, and an assessed
    /// [`PostureReport`].
    fn posture_frames(&self, out: &mut Vec<String>) {
        let mut exposed = 0u64;
        // (device name, configs swept, exposed count) in matrix order.
        let mut sections: Vec<(&'static str, u64, u64)> = Vec::new();
        for config_id in 0..NUM_CONFIGS {
            let device = config_device(config_id).name();
            let report = posture_of_config(config_id, self.cfg.seed);
            let is_exposed = report.grade == "exposed";
            if is_exposed {
                exposed += 1;
            }
            match sections.iter_mut().find(|(d, ..)| *d == device) {
                Some(s) => {
                    s.1 += 1;
                    s.2 += is_exposed as u64;
                }
                None => sections.push((device, 1, is_exposed as u64)),
            }
            let mut w = JsonWriter::new();
            w.obj(|w| {
                w.field_str("frame", "posture");
                w.field_u64("config", config_id as u64);
                w.field_str("device", device);
                w.field("report", |w| w.raw(&report.to_json()));
            });
            out.push(w.finish());
        }
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_str("frame", "posture_done");
            w.field_u64("configs", NUM_CONFIGS as u64);
            w.field_u64("exposed", exposed);
            w.field("devices", |w| {
                w.arr(|w| {
                    for (device, configs, dev_exposed) in &sections {
                        w.elem(|w| {
                            w.obj(|w| {
                                w.field_str("device", device);
                                w.field_u64("configs", *configs);
                                w.field_u64("exposed", *dev_exposed);
                            });
                        });
                    }
                });
            });
            w.field_bool("end", true);
        });
        out.push(w.finish());
    }

    /// `chrome` — the campaign journal(s), concatenated in shard
    /// order, as a Perfetto trace document.
    fn chrome_frame(&self) -> String {
        let mut events = Vec::new();
        for c in &self.shards {
            events.extend(c.state().journal.snapshot());
        }
        let trace = chrome::export(&[], &events);
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_str("frame", "chrome");
            w.field_u64("events", events.len() as u64);
            w.field("trace", |w| w.raw(&trace));
            w.field_bool("end", true);
        });
        w.finish()
    }

    /// Runs a whole client script in-memory (no sockets): one request
    /// per line, blank lines and `#` comments skipped. Returns the
    /// newline-terminated transcript — exactly what a TCP client would
    /// have read. Tests and the bench harness use this; byte-equality
    /// with two identically-seeded servers is the determinism pin.
    pub fn run_script(&mut self, script: &str) -> String {
        let mut conn = ConnState::default();
        let mut transcript = String::new();
        for line in script.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut out = Vec::new();
            let flow = self.handle_line(line, &mut conn, &mut out);
            for frame in out {
                transcript.push_str(&frame);
                transcript.push('\n');
            }
            match flow {
                Flow::Continue => {}
                Flow::CloseConn => conn = ConnState::default(),
                Flow::Shutdown => break,
            }
        }
        transcript
    }

    /// Serves connections from `listener` until a `shutdown` request
    /// (or, when `max_conns` is set, that many connections have come
    /// and gone). Single-threaded by design: connections are handled
    /// strictly in accept order, which keeps the campaign free of
    /// interleaving nondeterminism.
    pub fn serve(mut self, listener: TcpListener, max_conns: Option<usize>) -> std::io::Result<()> {
        for (served, stream) in listener.incoming().enumerate() {
            let stream = stream?;
            let done = self.serve_conn(stream)?;
            if done || max_conns.is_some_and(|m| served + 1 >= m) {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Handles one TCP connection; `Ok(true)` means shutdown was
    /// requested.
    fn serve_conn(&mut self, stream: TcpStream) -> std::io::Result<bool> {
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut conn = ConnState::default();
        loop {
            let line = match read_capped_line(&mut reader)? {
                ReadLine::Eof => return Ok(false),
                ReadLine::TooLong => {
                    // Answer, then drop the connection: the rest of the
                    // oversized line is unframed garbage.
                    writer.write_all(error_frame("request line exceeds 65536 bytes").as_bytes())?;
                    writer.write_all(b"\n")?;
                    return Ok(false);
                }
                ReadLine::Line(l) => l,
            };
            let mut out = Vec::new();
            let flow = self.handle_line(&line, &mut conn, &mut out);
            for frame in out {
                writer.write_all(frame.as_bytes())?;
                writer.write_all(b"\n")?;
            }
            writer.flush()?;
            match flow {
                Flow::Continue => {}
                Flow::CloseConn => return Ok(false),
                Flow::Shutdown => return Ok(true),
            }
        }
    }
}

/// Builds the assessed posture report for one fuzz machine config:
/// fresh machine of the config's device family, short warmup, one
/// deferred-flush period, then the audit. Pure function of
/// `(config_id, seed)`.
pub fn posture_of_config(config_id: u8, seed: u64) -> PostureReport {
    let name = config_name(config_id);
    let cfg = machine_config(config_id, seed);
    match devsim::boot_model(cfg, devsim::BootSpec::Quiet) {
        Ok(mut m) => {
            for i in 0..POSTURE_WARMUP_PACKETS {
                let _ = m.deliver(64, i as u8);
            }
            // One full flush period so deferred configs retire their
            // unmaps and record §5.2.1 window widths.
            m.tick_ms(11);
            m.posture(name)
        }
        Err(_) => {
            // A config that cannot even boot is its own (worst) answer.
            let mut r = PostureReport::new(name, "strict");
            r.assess();
            r
        }
    }
}

/// Renders one [`CampaignEvent`] as a (non-final) stream frame tagged
/// with the shard that produced it.
fn event_frame(ev: &CampaignEvent, shard: u64) -> String {
    let mut w = JsonWriter::new();
    w.obj(|w| match ev {
        CampaignEvent::Finding {
            iteration,
            id,
            taxonomy,
            class,
            site,
            window,
        } => {
            w.field_str("frame", "finding");
            w.field_u64("shard", shard);
            w.field_u64("iteration", *iteration);
            w.field_str("id", id);
            w.field_str("taxonomy", &taxonomy.to_string());
            w.field_str("class", class);
            w.field_str("site", site);
            w.field("window", |w| match window {
                Some(p) => w.str(p),
                None => w.raw("null"),
            });
        }
        CampaignEvent::Quarantine {
            iteration,
            id,
            kind,
            detail,
        } => {
            w.field_str("frame", "quarantine");
            w.field_u64("shard", shard);
            w.field_u64("iteration", *iteration);
            w.field_str("id", id);
            w.field_str("kind", kind.as_str());
            w.field_str("detail", detail);
        }
        CampaignEvent::CoverageGrew {
            iteration,
            bits,
            corpus,
        } => {
            w.field_str("frame", "coverage");
            w.field_u64("shard", shard);
            w.field_u64("iteration", *iteration);
            w.field_u64("bits", *bits as u64);
            w.field_u64("corpus", *corpus as u64);
        }
        CampaignEvent::Checkpoint {
            iteration,
            sequence,
        } => {
            w.field_str("frame", "checkpoint");
            w.field_u64("shard", shard);
            w.field_u64("iteration", *iteration);
            w.field_u64("sequence", *sequence);
        }
    });
    w.finish()
}

/// The `error` frame every refused request gets.
fn error_frame(msg: &str) -> String {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_str("frame", "error");
        w.field_bool("ok", false);
        w.field_str("error", msg);
        w.field_bool("end", true);
    });
    w.finish()
}

enum ReadLine {
    Line(String),
    TooLong,
    Eof,
}

/// Reads one `\n`-terminated line without ever buffering more than
/// [`MAX_LINE`] bytes of it; the remainder of an over-long line is not
/// consumed (the caller closes the connection).
fn read_capped_line(reader: &mut impl BufRead) -> std::io::Result<ReadLine> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if line.is_empty() {
                ReadLine::Eof
            } else {
                // Partial frame then disconnect: discard quietly.
                ReadLine::Eof
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > MAX_LINE {
                    return Ok(ReadLine::TooLong);
                }
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                return Ok(ReadLine::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            None => {
                let n = buf.len();
                if line.len() + n > MAX_LINE {
                    return Ok(ReadLine::TooLong);
                }
                line.extend_from_slice(buf);
                reader.consume(n);
            }
        }
    }
}

/// The scripted-client front-end: binds an ephemeral local port, serves
/// the campaign on a background thread, and plays `script` against it
/// over real TCP — one request per line, reading frames until the
/// [`END_MARKER`] after each. A `shutdown` request is appended when the
/// script does not end with one, so the server thread always exits.
/// Returns the full transcript (every response line, in order).
pub fn run_scripted_session(cfg: ServeConfig, script: &str) -> std::io::Result<String> {
    let server = Server::new(cfg)
        .map_err(|e| std::io::Error::other(format!("campaign setup failed: {e:?}")))?;
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || server.serve(listener, Some(1)));

    let mut requests: Vec<String> = script
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    if requests.last().map(|l| l.contains("\"shutdown\"")) != Some(true) {
        requests.push("{\"req\":\"shutdown\"}".to_string());
    }

    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut transcript = String::new();
    for req in &requests {
        writer.write_all(req.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        loop {
            let mut frame = String::new();
            if reader.read_line(&mut frame)? == 0 {
                break;
            }
            transcript.push_str(&frame);
            if frame.trim_end().ends_with(END_MARKER) {
                break;
            }
        }
    }
    drop(writer);
    drop(reader);
    handle
        .join()
        .map_err(|_| std::io::Error::other("server thread panicked"))?
        .map(|_| transcript)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(seed: u64, iters: u64) -> Server {
        Server::new(ServeConfig::new(seed, iters)).unwrap()
    }

    #[test]
    fn hello_and_shutdown_frames() {
        let mut s = server(7, 4);
        let t = s.run_script("{\"req\":\"hello\"}\n{\"req\":\"shutdown\"}");
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"frame\":\"hello\",\"proto\":1,\"seed\":7,"));
        assert!(lines[0].ends_with(END_MARKER));
        assert!(lines[1].starts_with("{\"frame\":\"bye\""));
    }

    #[test]
    fn unknown_and_malformed_requests_answer_error_frames() {
        let mut s = server(7, 4);
        let mut conn = ConnState::default();
        for bad in ["{\"req\":\"warp\"}", "{not json", "42", "[]"] {
            let mut out = Vec::new();
            let flow = s.handle_line(bad, &mut conn, &mut out);
            assert_eq!(flow, Flow::Continue, "{bad}");
            assert_eq!(out.len(), 1);
            assert!(
                out[0].starts_with("{\"frame\":\"error\",\"ok\":false,"),
                "{bad}"
            );
            assert!(out[0].ends_with(END_MARKER));
        }
        // The connection survived: a good request still works.
        let mut out = Vec::new();
        s.handle_line("{\"req\":\"hello\"}", &mut conn, &mut out);
        assert!(out[0].starts_with("{\"frame\":\"hello\""));
    }

    #[test]
    fn oversized_request_line_closes_the_connection() {
        let mut s = server(7, 4);
        let mut conn = ConnState::default();
        let mut out = Vec::new();
        let huge = format!("{{\"req\":\"{}\"}}", "x".repeat(MAX_LINE));
        let flow = s.handle_line(&huge, &mut conn, &mut out);
        assert_eq!(flow, Flow::CloseConn);
        assert!(out[0].contains("exceeds"));
    }

    #[test]
    fn stats_delta_needs_a_baseline_then_shrinks() {
        let mut s = server(7, 16);
        let mut conn = ConnState::default();
        let mut out = Vec::new();
        // First delta request has no baseline: falls back to full.
        s.handle_line(
            "{\"req\":\"stats\",\"mode\":\"delta\"}",
            &mut conn,
            &mut out,
        );
        assert!(out[0].contains("\"mode\":\"full\""));
        s.handle_line("{\"req\":\"step\",\"n\":4}", &mut conn, &mut out);
        out.clear();
        s.handle_line(
            "{\"req\":\"stats\",\"mode\":\"delta\"}",
            &mut conn,
            &mut out,
        );
        assert!(out[0].contains("\"mode\":\"delta\""), "{}", out[0]);
        let v = dma_core::jsonr::parse(&out[0]).unwrap();
        let delta = v.get("delta").unwrap();
        assert!(delta.u64_field("changed").unwrap() > 0);
    }

    #[test]
    fn step_streams_finding_frames_with_taxonomy() {
        let mut s = server(7, 96);
        let t = s.run_script("{\"req\":\"step\",\"n\":96}\n{\"req\":\"shutdown\"}");
        let findings: Vec<&str> = t
            .lines()
            .filter(|l| l.starts_with("{\"frame\":\"finding\""))
            .collect();
        assert!(!findings.is_empty(), "seed 7 x 96 must rediscover classes");
        for f in &findings {
            let v = dma_core::jsonr::parse(f).unwrap();
            let id = v.str_field("id").unwrap();
            assert!(id.starts_with("dk-") && id.len() == 19, "{id}");
            let tax = v.str_field("taxonomy").unwrap();
            assert!(["a", "b", "c", "d"].contains(&tax), "{tax}");
        }
        assert!(t.lines().any(|l| l.starts_with("{\"frame\":\"stepped\"")));
    }

    #[test]
    fn watch_reaches_a_finding_target() {
        let mut s = server(7, 96);
        let t = s.run_script("{\"req\":\"watch\",\"findings\":2}\n{\"req\":\"health\"}");
        let summary = t
            .lines()
            .find(|l| l.starts_with("{\"frame\":\"watched\""))
            .expect("watched frame");
        let v = dma_core::jsonr::parse(summary).unwrap();
        assert!(v.u64_field("findings").unwrap() + v.u64_field("quarantined").unwrap() >= 2);
        let health = t
            .lines()
            .find(|l| l.starts_with("{\"frame\":\"health\""))
            .expect("health frame");
        let h = dma_core::jsonr::parse(health).unwrap();
        assert!(h.u64_field("next_iter").unwrap() > 0);
        assert!(matches!(h.get("checkpoint"), Some(JValue::Null)));
    }

    #[test]
    fn posture_sweep_distinguishes_strict_and_deferred() {
        let mut s = server(7, 4);
        let t = s.run_script("{\"req\":\"posture\"}");
        let frames: Vec<&str> = t
            .lines()
            .filter(|l| l.starts_with("{\"frame\":\"posture\","))
            .collect();
        assert_eq!(frames.len(), NUM_CONFIGS as usize);
        let mut grades = Vec::new();
        for f in &frames {
            let v = dma_core::jsonr::parse(f).unwrap();
            let r = v.get("report").unwrap();
            grades.push((
                r.str_field("invalidation").unwrap().to_string(),
                r.str_field("grade").unwrap().to_string(),
            ));
        }
        assert!(grades.iter().any(|(i, _)| i == "strict"));
        assert!(grades.iter().any(|(i, _)| i == "deferred"));
        // Every deferred config is exposed via the Sec. 5.2.1 window.
        for (inval, grade) in &grades {
            if inval == "deferred" {
                assert_eq!(grade, "exposed");
            }
        }
        // The page-per-buffer strict config has no warn/high finding at
        // all — the sweep distinguishes hardened from exposed stacks.
        assert!(grades.contains(&("strict".to_string(), "hardened".to_string())));
        assert!(t.contains("stale-translation-window"));
        assert!(t.contains("5.2.1"));
    }

    #[test]
    fn chrome_frame_embeds_a_trace_document() {
        let mut s = server(7, 32);
        let t = s.run_script("{\"req\":\"step\",\"n\":32}\n{\"req\":\"chrome\"}");
        let frame = t
            .lines()
            .find(|l| l.starts_with("{\"frame\":\"chrome\""))
            .expect("chrome frame");
        let v = dma_core::jsonr::parse(frame).unwrap();
        assert!(v.u64_field("events").unwrap() > 0);
        assert!(v.get("trace").unwrap().get("traceEvents").is_some());
    }

    #[test]
    fn identical_scripts_yield_byte_identical_transcripts() {
        let script = "{\"req\":\"hello\"}\n{\"req\":\"step\",\"n\":48}\n\
                      {\"req\":\"stats\"}\n{\"req\":\"stats\",\"mode\":\"delta\"}\n\
                      {\"req\":\"posture\"}\n{\"req\":\"health\"}\n{\"req\":\"shutdown\"}";
        let a = server(7, 64).run_script(script);
        let b = server(7, 64).run_script(script);
        assert_eq!(a, b);
        let c = server(8, 64).run_script(script);
        assert_ne!(a, c, "different seed must diverge");
    }

    #[test]
    fn tcp_scripted_session_matches_in_memory_transcript() {
        let script = "{\"req\":\"hello\"}\n{\"req\":\"step\",\"n\":8}\n{\"req\":\"health\"}\n{\"req\":\"shutdown\"}";
        let tcp = run_scripted_session(ServeConfig::new(7, 16), script).unwrap();
        let mem = server(7, 16).run_script(script);
        assert_eq!(tcp, mem);
    }

    #[test]
    fn partial_frame_then_disconnect_is_discarded() {
        let server = Server::new(ServeConfig::new(7, 4)).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(listener, Some(2)));
        {
            // Half a request, no newline, then disconnect.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"{\"req\":\"hel").unwrap();
        }
        // The server must still be alive for the next connection.
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        w.write_all(b"{\"req\":\"hello\"}\n{\"req\":\"shutdown\"}\n")
            .unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.starts_with("{\"frame\":\"hello\""), "{line}");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_line_over_tcp_gets_error_then_close() {
        let server = Server::new(ServeConfig::new(7, 4)).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(listener, Some(2)));
        {
            let stream = TcpStream::connect(addr).unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut r = BufReader::new(stream);
            let huge = vec![b'x'; MAX_LINE + 1024];
            w.write_all(&huge).unwrap();
            w.flush().unwrap();
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            assert!(line.contains("\"frame\":\"error\""), "{line}");
            // Connection is closed afterwards.
            let mut rest = String::new();
            assert_eq!(r.read_line(&mut rest).unwrap(), 0);
        }
        // Server accepts a fresh connection and shuts down cleanly.
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        w.write_all(b"{\"req\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.starts_with("{\"frame\":\"bye\""));
        handle.join().unwrap().unwrap();
    }
}
