//! End-to-end forensics tests: Chrome export determinism and the
//! planted stale-write (RingFlood-style) incident timeline.

use dma_lab::dma_core::{chrome, Event};
use dma_lab::fuzz::{run_forensics, ExecContext, FuzzInput, MutationOp};
use dma_lab::obs::{run_observed, ObsConfig};

#[test]
fn chrome_export_is_byte_identical_across_same_seed_runs() {
    let cfg = ObsConfig {
        seed: 42,
        rounds: 60,
        fault_seed: None,
    };
    let a = run_observed(cfg).unwrap();
    let b = run_observed(cfg).unwrap();
    let ja = chrome::export(&a.timeline, &a.events);
    let jb = chrome::export(&b.timeline, &b.events);
    assert_eq!(ja, jb, "same seed must export byte-identical traces");
    // The file has the trace_event shape Perfetto expects: complete
    // spans, thread-scoped instants, and a process-name record.
    assert!(ja.contains("\"displayTimeUnit\":\"ns\""));
    assert!(ja.contains("\"ph\":\"M\""));
    assert!(ja.contains("\"ph\":\"X\""));
    assert!(ja.contains("\"ph\":\"i\""));
    assert!(ja.contains("\"name\":\"rx.poll\""), "span names exported");
    assert!(ja.contains("\"name\":\"DmaMap\""), "event names exported");
}

#[test]
fn chrome_export_differs_across_seeds() {
    let a = run_observed(ObsConfig {
        seed: 1,
        rounds: 40,
        fault_seed: None,
    })
    .unwrap();
    let b = run_observed(ObsConfig {
        seed: 2,
        rounds: 40,
        fault_seed: None,
    })
    .unwrap();
    assert_ne!(
        chrome::export(&a.timeline, &a.events),
        chrome::export(&b.timeline, &b.events)
    );
}

#[test]
fn forensics_campaign_is_byte_deterministic() {
    let a = run_forensics(7, 24).unwrap();
    let b = run_forensics(7, 24).unwrap();
    assert_eq!(a.render_text(), b.render_text());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn pinned_campaign_names_sites_taxonomy_and_windows() {
    let report = run_forensics(7, 48).unwrap();
    let text = report.render_text();
    // The planted destructor_arg exposure, with both §5.2 window paths.
    assert!(text.contains("skb_shared_info.destructor_arg"), "{text}");
    assert!(text.contains("(ii) deferred IOTLB invalidation"), "{text}");
    assert!(text.contains("(i) unmap after sk_buff build"), "{text}");
    // Incidents name allocation sites, mapping sites, and taxonomy.
    assert!(text.contains("alloc site:"), "{text}");
    assert!(text.contains("nic_rx_map"), "{text}");
    assert!(text.contains("type (a)"), "{text}");
    assert!(text.contains("type (c)"), "{text}");
    assert!(text.contains("type (d)"), "{text}");
    // Every incident carries a cycle-stamped timeline.
    assert_eq!(
        text.matches("incident [").count(),
        text.matches("timeline:").count()
    );
}

#[test]
fn planted_stale_write_produces_the_ringflood_timeline() {
    // The RingFlood preamble by hand: consume the head RX buffer (the
    // driver unmaps it; invalidation is deferred on config 0), then
    // write through the captured IOVA — only a stale IOTLB entry lets
    // the destructor_arg write land.
    let input = FuzzInput {
        seed: 7,
        iteration: 0,
        config_id: 0,
        ops: vec![
            MutationOp::Deliver { len: 64, fill: 7 },
            MutationOp::StaleWrite {
                value: 0xffff_ffff_8100_0000,
            },
        ],
    };
    let run = ExecContext::new().execute_with_forensics(&input).unwrap();

    // The exposure is observed with its §5.2.1 window attributes.
    let f = run
        .outcome
        .findings
        .iter()
        .find(|f| f.site == "skb_shared_info.destructor_arg")
        .expect("stale write lands on config 0");
    let w = f.attrs.window.expect("timed window recorded");
    assert_eq!(w.path.to_string(), "(ii) deferred IOTLB invalidation");
    assert!(w.end > w.start, "window has extent");
    assert!(f.attrs.malicious_kva.is_some(), "value parses as a KVA");

    // The provenance graph saw the stale device write itself.
    assert!(
        run.graph
            .events()
            .iter()
            .any(|e| matches!(e, Event::DevAccess { stale: true, .. })),
        "no stale device access in the graph"
    );

    // And the oracle-backed incidents name the RX mapping site.
    assert!(!run.incidents.is_empty());
    let rendered: String = run
        .incidents
        .iter()
        .enumerate()
        .map(|(i, inc)| inc.render(i + 1))
        .collect();
    assert!(rendered.contains("nic_rx_map"), "{rendered}");
    assert!(rendered.contains("netdev_alloc_frag"), "{rendered}");
}
