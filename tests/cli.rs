//! End-to-end CLI tests: every subcommand runs, exits zero, and prints
//! the paper-shaped output it promises.

use dma_lab::dma_core::jsonr::{parse, JValue};
use dma_lab::dma_core::Snapshot;
use std::process::{Command, Output};

fn output(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dma-lab"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn run(args: &[&str]) -> (i32, String) {
    let out = output(args);
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// `doc` read by the lab's own JSON reader; `what` names it on failure.
fn json(what: &str, doc: &str) -> JValue {
    parse(doc).unwrap_or_else(|e| panic!("{what}: {e}\n{doc:.300}"))
}

#[test]
fn help_lists_all_subcommands() {
    let (code, out) = run(&["help"]);
    assert_eq!(code, 0);
    for cmd in [
        "layout",
        "spade",
        "dkasan",
        "survey",
        "attack",
        "surveil",
        "dos",
        "dump",
        "chaos",
        "stats",
        "trace",
        "fuzz",
        "infer",
        "forensics",
        "serve",
        "profile",
        "bench",
    ] {
        assert!(out.contains(cmd), "help missing {cmd}:\n{out}");
    }
    assert!(out.contains("EXIT CODES"), "help documents exit codes");
    // USAGE is rendered from the command table, so every flag a command
    // accepts shows in its entry (the entry runs to the next command).
    let entry = |cmd: &str| {
        let start = out.find(&format!("    dma-lab {cmd} ")).expect(cmd) + 4;
        let len = out[start..]
            .find("\n    dma-lab")
            .expect("more entries follow");
        out[start..start + len].to_string()
    };
    assert!(entry("layout").contains("[--seed N]"), "{out}");
    assert!(entry("trace").contains("[--faults SEED]"), "{out}");
}

#[test]
fn no_args_prints_help_and_exits_zero() {
    let (code, out) = run(&[]);
    assert_eq!(code, 0);
    assert!(out.contains("USAGE"));
}

#[test]
fn unknown_command_exits_two_with_help_on_stderr() {
    let out = output(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command 'frobnicate'"), "{err}");
    assert!(err.contains("USAGE"), "help goes to stderr: {err}");
    assert!(out.stdout.is_empty(), "nothing on stdout for usage errors");
}

#[test]
fn layout_prints_table1() {
    let (code, out) = run(&["layout"]);
    assert_eq!(code, 0);
    assert!(out.contains("direct map of phys memory"));
    assert!(out.contains("ffff888000000000"));
    assert!(out.contains("KASLR sample"));
}

#[test]
fn spade_prints_table2() {
    let (code, out) = run(&["spade"]);
    assert_eq!(code, 0);
    assert!(out.contains("skb_shared_info mapped"));
    assert!(out.contains("Total dma-map calls"));
    assert!(out.contains("72.8%"), "paper reference figure shown");
}

#[test]
fn spade_filter_prints_figure2_trace() {
    let (code, out) = run(&["spade", "--filter", "nvme"]);
    assert_eq!(code, 0);
    assert!(out.contains("EXPOSED: 1 callback pointer"));
    assert!(out.contains("SPOOFABLE"));
}

#[test]
fn dkasan_prints_figure3_lines() {
    let (code, out) = run(&["dkasan", "--rounds", "60"]);
    assert_eq!(code, 0);
    assert!(out.contains("[1] size "));
    assert!(out.contains("alloc-after-map"));
}

#[test]
fn survey_reports_fractions() {
    let (code, out) = run(&["survey", "--boots", "24"]);
    assert_eq!(code, 0);
    assert!(out.contains("top PFN"));
    assert!(out.contains("% of boots"));
}

#[test]
fn attacks_escalate_and_exit_zero() {
    for which in ["poisoned-tx", "forward-thinking", "single-step"] {
        let (code, out) = run(&["attack", which, "--seed", "5"]);
        assert_eq!(code, 0, "{which} failed:\n{out}");
        assert!(out.contains("CodeExecution"), "{which}:\n{out}");
    }
}

#[test]
fn ringflood_attack_via_cli() {
    // RingFlood's success depends on the PFN guess; accept either verdict
    // but demand a well-formed report.
    let (_code, out) = run(&["attack", "ringflood", "--seed", "1001", "--window", "iii"]);
    assert!(out.contains("guessed PFN"));
    assert!(out.contains("outcome:"));
}

#[test]
fn dos_panics_the_allocator() {
    let (code, out) = run(&["dos"]);
    assert_eq!(code, 0);
    assert!(out.contains("kernel panicked: true"));
}

#[test]
fn dump_reads_frames() {
    let (code, out) = run(&["dump", "--frames", "2"]);
    assert_eq!(code, 0);
    assert!(out.contains("dumped 2 frame(s)"));
}

#[test]
fn unknown_attack_exits_nonzero() {
    let (code, _) = run(&["attack", "nonsense"]);
    assert_eq!(code, 2);
}

#[test]
fn fuzz_finds_the_planted_callback_exposure() {
    // The pinned campaign (seed 7, 96 iterations) rediscovers the seeded
    // destructor_arg exposure through both §5.2 windows, and all four
    // Figure-1 classes.
    let (code, out) = run(&["fuzz", "--seed", "7", "--iters", "96"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("coverage bits"), "{out}");
    assert!(
        out.contains("skb_shared_info.destructor_arg"),
        "planted callback exposure not rediscovered:\n{out}"
    );
    assert!(out.contains("dkasan"), "oracle findings missing:\n{out}");
    for class in ["a", "b", "c", "d"] {
        assert!(out.contains(&format!("type ({class})")), "{class}:\n{out}");
    }
    assert!(
        out.contains("window (i) unmap after sk_buff build"),
        "{out}"
    );
    assert!(
        out.contains("window (ii) deferred IOTLB invalidation"),
        "{out}"
    );
}

#[test]
fn fuzz_json_has_the_documented_schema() {
    let (code, out) = run(&["fuzz", "--seed", "7", "--iters", "12", "--json"]);
    assert_eq!(code, 0);
    for key in [
        "\"seed\":7",
        "\"iters\":12",
        "\"execs\":12",
        "\"coverage_bits\":",
        "\"corpus\":[",
        "\"findings\":[",
        "\"series\":",
        "\"stats\":",
        "\"signature\":",
        "\"program\":[",
        "\"taxonomy\":",
        "\"fuzz.execs\"",
    ] {
        assert!(out.contains(key), "missing {key} in:\n{out}");
    }
    let report = json("fuzz --json", &out);
    assert_eq!(report.u64_field("execs"), Some(12));
}

#[test]
fn fuzz_usage_errors_exit_two() {
    for args in [
        &["fuzz", "--iters", "0"][..],
        &["fuzz", "--iters", "banana"][..],
        &["fuzz", "--seed", "0x7"][..],
    ] {
        assert_usage_error(args);
    }
}

#[test]
fn fuzz_config_pins_every_exec_to_one_machine_shape() {
    // By id and by name resolve to the same machine, and the pinned
    // campaign's coverage proves only that shape ran: the config facet
    // carries exactly one machine name. Each non-NIC device rediscovers
    // Figure-1 classes (b) and (d) with no device-specific wiring.
    use dma_lab::fuzz::{config_name, NUM_CONFIGS};
    for (id, name) in [("5", "virtio-split-deferred"), ("7", "nvme-qpair-deferred")] {
        let campaign = |config: &str, shards: &[&str]| {
            let mut args = vec!["fuzz", "--seed", "7", "--iters", "48", "--config", config];
            args.extend(shards);
            args.push("--json");
            let (code, out) = run(&args);
            assert_eq!(code, 0, "{args:?}: {out}");
            out
        };
        let by_id = campaign(id, &[]);
        let by_name = campaign(name, &[]);
        assert_eq!(by_id, by_name, "id and name must select the same machine");
        let facets: Vec<&str> = by_id.split("\"config\":\"").skip(1).collect();
        assert!(!facets.is_empty(), "{by_id}");
        for facet in facets {
            assert!(facet.starts_with(&format!("{name}\"")), "{facet:.60}");
        }
        for other in (0..NUM_CONFIGS).map(config_name).filter(|&n| n != name) {
            assert!(!by_id.contains(other), "{other} leaked in:\n{by_id}");
        }
        let report = json(name, &by_id);
        let findings = report.get("findings").and_then(JValue::as_arr);
        let taxonomy: Vec<_> = findings
            .unwrap_or_default()
            .iter()
            .filter_map(|f| f.str_field("taxonomy"))
            .collect();
        for class in ["b", "d"] {
            assert!(
                taxonomy.contains(&class),
                "{name}: no ({class}) in {taxonomy:?}"
            );
        }
        // Sharded engine honors the restriction identically.
        let sharded = campaign(id, &["--shards", "1"]);
        assert_eq!(sharded, by_id, "1-shard output matches the legacy path");
    }
}

#[test]
fn infer_prints_one_deterministic_channel_map_per_config() {
    let (code, all) = run(&["infer", "--seed", "7"]);
    assert_eq!(code, 0, "{all}");
    assert_eq!(
        all.lines().count(),
        9,
        "one line per machine config:\n{all}"
    );
    for line in all.lines() {
        let map = json("infer line", line);
        assert_eq!(
            map.str_field("schema"),
            Some("dma-infer.channel-map.v1"),
            "{line}"
        );
    }
    let (code, one) = run(&["infer", "--seed", "7", "--config", "nvme-qpair-deferred"]);
    assert_eq!(code, 0);
    assert_eq!(one.lines().count(), 1);
    assert!(one.contains("nvme_sq_map"), "{one}");
    let (_, again) = run(&["infer", "--seed", "7", "--config", "nvme-qpair-deferred"]);
    assert_eq!(one, again, "inference must be byte-deterministic");
}

#[test]
fn forensics_renders_incident_timelines() {
    let (code, out) = run(&["forensics", "--seed", "7", "--iters", "96"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("incident [1] dk-"), "{out}");
    assert!(out.contains("taxonomy:"), "{out}");
    assert!(out.contains("type (b)"), "{out}");
    assert!(out.contains("window:"), "{out}");
    assert!(out.contains("timeline:"), "{out}");
    assert!(out.contains("skb_shared_info.destructor_arg"), "{out}");
    let (code, out) = run(&["forensics", "--seed", "7", "--iters", "96", "--json"]);
    assert_eq!(code, 0, "{out}");
    json("forensics --json", &out);
}

#[test]
fn forensics_usage_errors_exit_two() {
    for args in [
        &["forensics", "--iters", "0"][..],
        &["forensics", "--seed", "banana"][..],
    ] {
        assert_usage_error(args);
    }
}

#[test]
fn trace_chrome_writes_a_trace_event_file() {
    let path = std::env::temp_dir().join(format!("dma-lab-chrome-{}.json", std::process::id()));
    let (code, out) = run(&[
        "trace",
        "--rounds",
        "40",
        "--chrome",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("ui.perfetto.dev"), "{out}");
    let body = std::fs::read_to_string(&path).expect("trace file written");
    let trace = json("trace --chrome", &body);
    let events = trace.get("traceEvents").and_then(JValue::as_arr);
    assert!(events.is_some_and(|e| !e.is_empty()), "{body:.200}");
    assert!(trace.get("displayTimeUnit").is_some(), "{body:.200}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn fuzz_resume_roundtrip_is_byte_identical_to_uninterrupted() {
    // The CLI half of the kill-and-resume contract: a campaign
    // truncated at iteration 6 (the "kill"), resumed from its
    // checkpoint directory, must print the exact bytes an
    // uninterrupted 12-iteration run prints — also after its newest
    // generation is torn, which the A/B store survives by falling back
    // to the older one.
    let dir = std::env::temp_dir().join(format!("dma-lab-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();
    let (code, _) = run(&[
        "fuzz",
        "--seed",
        "7",
        "--iters",
        "6",
        "--checkpoint-every",
        "3",
        "--checkpoint-dir",
        dir_arg,
        "--json",
    ]);
    assert_eq!(code, 0);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["gen-a.ckpt", "gen-b.ckpt"], "one flat A/B pair");
    let (code, uninterrupted) = run(&["fuzz", "--seed", "7", "--iters", "12", "--json"]);
    assert_eq!(code, 0);
    let resume = || output(&["fuzz", "--iters", "12", "--resume", dir_arg, "--json"]);
    let resumed = resume();
    assert_eq!(resumed.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        uninterrupted,
        "resumed --json output diverged from the uninterrupted run"
    );

    let newest = files
        .iter()
        .map(|f| dir.join(f))
        .max_by_key(|p| {
            let body = std::fs::read_to_string(p).unwrap();
            let envelope = json("checkpoint", &body);
            envelope.u64_field("sequence").unwrap()
        })
        .unwrap();
    let body = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &body[..512]).unwrap();
    let recovered = resume();
    assert_eq!(recovered.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&recovered.stdout), uninterrupted);
    let err = String::from_utf8_lossy(&recovered.stderr);
    assert!(err.contains("1 recovered"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_resume_takes_the_campaign_seed_from_its_checkpoints() {
    // A resume names no seed. Shard 0 runs under the base seed, so its
    // newest generation supplies it, also to a shard that must restart
    // because it lost its generations. When shard 0 lost them, the seed
    // must be given, and a wrong one is an error, not a mixed campaign.
    let dir = std::env::temp_dir().join(format!("dma-lab-cli-shard-seed-{}", std::process::id()));
    let dir_arg = dir.to_str().unwrap();
    let sharded = |args: &[&str]| run(&[&["fuzz", "--shards", "2"][..], args].concat());
    let (code, uninterrupted) = sharded(&["--seed", "11", "--iters", "12", "--json"]);
    assert_eq!(code, 0);
    let resume = |seed: &[&str]| {
        sharded(&[&["--iters", "12", "--resume", dir_arg, "--json"], seed].concat())
    };
    for lost in ["shard-0001", "shard-0000"] {
        let _ = std::fs::remove_dir_all(&dir);
        let (code, _) = sharded(&[
            "--seed",
            "11",
            "--iters",
            "6",
            "--checkpoint-every",
            "3",
            "--checkpoint-dir",
            dir_arg,
        ]);
        assert_eq!(code, 0);
        for slot in ["gen-a.ckpt", "gen-b.ckpt"] {
            std::fs::remove_file(dir.join(lost).join(slot)).unwrap();
        }
        if lost == "shard-0000" {
            assert_eq!(resume(&[]).0, 1, "resumed under the default seed");
            assert_eq!(resume(&["--seed", "11"]), (0, uninterrupted.clone()));
        } else {
            assert_eq!(resume(&[]), (0, uninterrupted.clone()));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_plant_panic_quarantines_via_the_cli() {
    let dir = std::env::temp_dir().join(format!("dma-lab-cli-plant-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = output(&[
        "fuzz",
        "--seed",
        "7",
        "--iters",
        "6",
        "--plant-panic",
        "2",
        "--corpus-dir",
        dir.to_str().unwrap(),
    ]);
    let (code, out) = (
        result.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&result.stdout).into_owned(),
    );
    assert_eq!(code, 0, "planted panic must not abort the campaign");
    let err = String::from_utf8_lossy(&result.stderr);
    assert!(
        !err.contains("panicked at"),
        "contained panic leaked hook output to stderr:\n{err}"
    );
    assert!(out.contains("quarantined"), "{out}");
    assert!(out.contains("dq-"), "stable quarantine id missing:\n{out}");
    let quarantined: Vec<_> = std::fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir created")
        .flatten()
        .map(|e| e.path())
        .collect();
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    let name = quarantined[0].file_name().unwrap().to_string_lossy();
    assert!(name.starts_with("dq-") && name.ends_with(".json"), "{name}");
    let entry = std::fs::read_to_string(&quarantined[0]).unwrap();
    assert_eq!(json(&name, &entry).str_field("kind"), Some("panic"));
    std::fs::remove_dir_all(&dir).ok();

    // A planted runaway input trips the deterministic watchdog instead.
    let (code, out) = run(&["fuzz", "--seed", "7", "--iters", "6", "--plant-hang", "2"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("watchdog abort"), "{out}");
}

#[test]
fn hardened_arg_parsing_rejects_malformed_numbers_everywhere() {
    for args in [
        // u64::MAX + 1 overflows --seed
        &["fuzz", "--seed", "18446744073709551616"][..],
        &["fuzz", "--watchdog-budget", "0"][..],
        &["fuzz", "--checkpoint-every", "junk"][..],
        &["fuzz", "--iters", "4", "--checkpoint-every", "2"][..], // no dir
        &["fuzz", "--resume", "/nonexistent/checkpoints"][..],
        &["stats", "--rounds", "junk"][..],
        &["trace", "--spans", "--seed", ""][..],
        &["dkasan", "--rounds", "1e3"][..],
        &["survey", "--boots", "-4"][..],
        &["dump", "--frames", "two"][..],
        &["serve", "--iters", "0"][..],
        &["serve", "--port", "70000"][..],
        &["serve", "--checkpoint-every", "2"][..], // no dir
        &["serve", "--transcript", "/nonexistent/t.jsonl"][..], // no script
        &["stats", "--diff"][..],                  // no dump paths
        // The machine matrix has NUM_CONFIGS entries; anything outside
        // it must be a usage error, never a modulo-wrapped alias.
        &["fuzz", "--config", "9"][..],
        &["fuzz", "--config", "255"][..],
        &["fuzz", "--config", "no-such-machine"][..],
        &["fuzz", "--config", ""][..],
        &["fuzz", "--config", "-1"][..],
        &["infer", "--config", "9"][..],
        &["infer", "--config", "banana"][..],
        &["infer", "--seed", "junk"][..],
        &["profile", "--iters", "0"][..],
        &["profile", "--iters", "banana"][..],
        &["profile", "--seed", "0x7"][..],
        // Flags a command does not read are rejected, never ignored:
        // `--iter` is a typo of `--iters`, and profile has no shards.
        &["fuzz", "--iter", "5"][..],
        &["profile", "--shards", "8"][..],
        &["profile", "--shards", "0"][..],
        &["profile", "--shards", "257"][..],
        &["profile", "--config", "9"][..],
        &["profile", "--config", "no-such-machine"][..],
        &["profile", "--folded", ""][..],
        &["bench"][..],            // --check is mandatory
        &["bench", "--check"][..], // ... with at least one file
        &["bench", "--check", "/nonexistent/BENCH_x.json"][..],
        // Argv that used to panic, abort or quietly run something else.
        &["survey", "--boots", "0"][..],
        &["chaos", "--seed", "18446744073709551615", "--runs", "1"][..],
        &["dump", "--frames", "100000000000"][..],
        &["dump", "--start", "4503599627370496", "--frames", "1"][..],
        &["attack", "ringflood", "--window", "iv"][..],
        &["survey", "--profile", "4.16"][..],
        &["spade", "--tsv", "0"][..],
        &["spade", "--filter"][..],
        &["fuzz", "5", "--iters", "1"][..],
        &["fuzz", "--seed", "1", "--seed", "2", "--iters", "1"][..],
    ] {
        assert_usage_error(args);
    }
    #[cfg(unix)]
    {
        use std::os::unix::ffi::OsStrExt;
        let bad = std::ffi::OsStr::from_bytes(b"\xff");
        assert_usage_error(&["layout".as_ref(), "--seed".as_ref(), bad]);
    }
}

fn assert_usage_error<S: AsRef<std::ffi::OsStr> + std::fmt::Debug>(args: &[S]) {
    let out = Command::new(env!("CARGO_BIN_EXE_dma-lab"))
        .args(args)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(
        out.stdout.is_empty(),
        "usage errors keep stdout clean: {args:?}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("USAGE"), "help on stderr for {args:?}: {err}");
}

#[test]
fn profile_prints_the_call_tree_and_writes_folded_stacks() {
    let path = std::env::temp_dir().join(format!("dma-lab-folded-{}.txt", std::process::id()));
    let (code, out) = run(&[
        "profile",
        "--seed",
        "7",
        "--iters",
        "12",
        "--folded",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("hottest frames"), "{out}");
    assert!(out.contains("exec.deliver"), "{out}");
    assert!(out.contains("iommu."), "IOMMU frames missing:\n{out}");
    let folded = std::fs::read_to_string(&path).expect("folded file written");
    for line in folded.lines() {
        let (stack, cycles) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty(), "{line}");
        cycles.parse::<u64>().expect("folded weight is a number");
    }
    assert!(
        folded.lines().any(|l| l.contains(";iommu.")),
        "no nested IOMMU frame in:\n{folded}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn profile_json_is_valid_speedscope() {
    let (code, out) = run(&["profile", "--seed", "7", "--iters", "8", "--json"]);
    assert_eq!(code, 0);
    for key in [
        "\"$schema\":\"https://www.speedscope.app/file-format-schema.json\"",
        "\"frames\":[",
        "\"type\":\"sampled\"",
        "\"unit\":\"none\"",
    ] {
        assert!(out.contains(key), "missing {key} in:\n{out}");
    }
    json("profile --json", &out);
}

#[test]
fn bench_check_passes_the_committed_zoo_trajectory() {
    // Every committed report whose workload re-derives in about two
    // seconds in a debug build, zoo included; `scale` (four sharded
    // campaigns) is left to CI's release-mode gate over BENCH_*.json.
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let kinds = [
        "zoo",
        "iotlb",
        "dkasan",
        "profile",
        "forensics",
        "fuzz",
        "serve",
        "resilience",
    ];
    let files: Vec<String> = kinds
        .iter()
        .map(|k| repo.join(format!("BENCH_{k}.json")).display().to_string())
        .collect();
    let mut args = vec!["bench", "--check"];
    args.extend(files.iter().map(String::as_str));
    let (code, out) = run(&args);
    assert_eq!(code, 0, "{out}");
    for (kind, file) in kinds.iter().zip(&files) {
        assert!(
            out.contains(&format!("{file} [{kind}]: ok, ")),
            "{kind}: {out}"
        );
    }
    assert_eq!(out.lines().count(), kinds.len(), "{out}");
    assert!(
        !out.contains("REGRESSED") && !out.contains("skipped"),
        "{out}"
    );
}

#[test]
fn bench_check_fails_on_a_planted_regression_and_malformed_files() {
    let dir = std::env::temp_dir().join(format!("dma-lab-cli-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The committed zoo report with one device name changed — a value
    // no hand-picked field list ever watched. The gate compares every
    // value, so it must exit 1 and name the path.
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(repo.join("BENCH_zoo.json")).unwrap();
    let planted = dir.join("BENCH_zoo.json");
    std::fs::write(
        &planted,
        committed.replacen("\"device\":\"nic\"", "\"device\":\"nvme\"", 1),
    )
    .unwrap();
    let result = output(&["bench", "--check", planted.to_str().unwrap()]);
    assert_eq!(result.status.code(), Some(1), "planted regression passes?");
    let out = String::from_utf8_lossy(&result.stdout);
    assert!(
        out.contains(
            "deterministic.devices[0].device: committed \"nvme\" vs re-derived \"nic\" REGRESSED"
        ),
        "{out}"
    );

    // Files the gate cannot check are run errors (1), not regressions.
    let malformed = dir.join("BENCH_malformed.json");
    for (body, why) in [
        ("not json", "not valid JSON"),
        ("{\"deterministic\":{}}", "missing \"report\""),
        ("{\"report\":\"zoo\"}", "missing \"deterministic\""),
    ] {
        std::fs::write(&malformed, body).unwrap();
        let result = output(&["bench", "--check", malformed.to_str().unwrap()]);
        assert_eq!(result.status.code(), Some(1), "{body}");
        let err = String::from_utf8_lossy(&result.stderr);
        assert!(err.contains(why), "{body}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_check_fails_an_unknown_kind_and_still_checks_the_rest() {
    let dir = std::env::temp_dir().join(format!("dma-lab-cli-unknown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let unknown = dir.join("BENCH_observability.json");
    std::fs::write(
        &unknown,
        "{\"report\":\"observability\",\"deterministic\":{},\"timing\":[]}",
    )
    .unwrap();
    let zoo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_zoo.json");
    let result = output(&[
        "bench",
        "--check",
        unknown.to_str().unwrap(),
        zoo.to_str().unwrap(),
    ]);
    assert_eq!(result.status.code(), Some(1), "an unknown kind must fail");
    let out = String::from_utf8_lossy(&result.stdout);
    let err = String::from_utf8_lossy(&result.stderr);
    assert!(err.contains("unknown report kind 'observability'"), "{err}");
    assert!(
        out.contains("[zoo]: ok, "),
        "later files are still checked: {out}"
    );
    assert!(!out.contains("skipped"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_scripted_sessions_are_byte_identical_across_runs() {
    let dir = std::env::temp_dir().join(format!("dma-lab-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("session.jsonl");
    std::fs::write(
        &script,
        "{\"req\":\"hello\"}\n{\"req\":\"step\",\"n\":32}\n{\"req\":\"stats\"}\n\
         {\"req\":\"watch\",\"findings\":2}\n{\"req\":\"stats\",\"mode\":\"delta\"}\n\
         {\"req\":\"health\"}\n{\"req\":\"posture\"}\n{\"req\":\"shutdown\"}\n",
    )
    .unwrap();

    // Each session runs twice, printing and writing through
    // --transcript. At two shards every stats frame merges the shards'
    // snapshots.
    let out = dir.join("transcript.jsonl");
    for shards in ["1", "2"] {
        let args = [
            "serve",
            "--seed",
            "7",
            "--shards",
            shards,
            "--script",
            script.to_str().unwrap(),
        ];
        let (code, a) = run(&args);
        assert_eq!(code, 0);
        let (code, stdout) = run(&[&args[..], &["--transcript", out.to_str().unwrap()]].concat());
        assert_eq!(code, 0);
        assert!(stdout.is_empty(), "the transcript goes to the file");
        let b = std::fs::read_to_string(&out).unwrap();
        assert_eq!(
            a, b,
            "two seeded scripted sessions must match byte-for-byte"
        );
        let frames: Vec<JValue> = a.lines().map(|l| json("transcript line", l)).collect();
        let delta = frames
            .iter()
            .any(|f| f.str_field("frame") == Some("stats") && f.str_field("mode") == Some("delta"));
        assert!(delta, "{shards} shard(s): no delta stats frame in\n{a}");
        assert!(a.contains("\"frame\":\"hello\""), "{a}");
        assert!(a.contains("\"frame\":\"finding\""), "{a}");
        assert!(a.contains("\"frame\":\"posture\""), "{a}");
        assert!(a.contains("stale-translation-window"), "{a}");
        assert!(a.contains("\"frame\":\"bye\""), "{a}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_diff_exits_one_only_on_counter_regressions() {
    let dir = std::env::temp_dir().join(format!("dma-lab-cli-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    let dump = |rounds: &str, path: &std::path::Path| {
        let (code, out) = run(&["stats", "--json", "--seed", "7", "--rounds", rounds]);
        assert_eq!(code, 0);
        std::fs::write(path, out).unwrap();
    };
    dump("40", &old);
    dump("80", &new);

    // Forward diff: counters only grew, exit 0 and report deltas.
    let (code, out) = run(&[
        "stats",
        "--diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("delta") || out.contains("+"), "{out}");
    assert!(!out.contains("REGRESSED"), "{out}");

    // Reversed: every counter drops, exit 1 and name the regression.
    let (code, out) = run(&[
        "stats",
        "--diff",
        new.to_str().unwrap(),
        old.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("REGRESSED"), "{out}");

    // A counter that vanished from the newer dump gates like a drop.
    let mut snapshot = Snapshot::from_json(&std::fs::read_to_string(&new).unwrap()).unwrap();
    let before = snapshot.counters.len();
    snapshot
        .counters
        .retain(|(name, _)| name != "dkasan.events");
    assert_eq!(snapshot.counters.len(), before - 1, "dkasan.events missing");
    let missing = dir.join("missing.json");
    std::fs::write(&missing, snapshot.to_json()).unwrap();
    let (code, out) = run(&[
        "stats",
        "--diff",
        old.to_str().unwrap(),
        missing.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("MISSING"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_output_exposes_trace_dropped() {
    let (code, out) = run(&["stats", "--json", "--rounds", "30"]);
    assert_eq!(code, 0);
    assert!(out.contains("\"trace.dropped\""), "{out}");
}

#[test]
fn fuzz_writes_a_corpus_dir() {
    let dir = std::env::temp_dir().join(format!("dma-lab-corpus-{}", std::process::id()));
    let (code, _) = run(&[
        "fuzz",
        "--seed",
        "7",
        "--iters",
        "8",
        "--corpus-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir created")
        .flatten()
        .collect();
    assert!(!entries.is_empty(), "no corpus files written");
    for e in &entries {
        let name = e.file_name().to_string_lossy().into_owned();
        assert!(
            name.starts_with("entry-") && name.ends_with(".json"),
            "{name}"
        );
        let body = std::fs::read_to_string(e.path()).unwrap();
        assert!(body.contains("\"program\""), "{name} lacks a program");
    }
    std::fs::remove_dir_all(&dir).ok();
}
