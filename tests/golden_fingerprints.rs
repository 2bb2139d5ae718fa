//! Golden-fingerprint regression corpus.
//!
//! `tests/golden_fingerprints.toml` pins two lines per entry: a 64-bit
//! digest of [`Report::fingerprint`] with its `ev=` event-count field
//! removed (`<cc> = "<digest>"`), and that event count on its own
//! (`<cc>.ev = <count>`). A change that runs the same simulation in
//! fewer events moves only `.ev` lines; any change to what the
//! simulation computes moves a digest. Entries cover every canonical
//! scenario × every
//! congestion controller the paper evaluates, plus a transport corpus
//! covering every endpoint kind and data path (SCReAM and UDP Prague
//! both ways, FEC media bonded and single-leg, NADA, the bonded TCP
//! join, the impaired path). The determinism matrix
//! (`tests/determinism.rs`) proves a run reproduces *within* a build;
//! this corpus additionally distinguishes **intentional** fingerprint
//! changes (new metrics, behaviour changes — re-bless and review the
//! diff) from **silent drift** (an RNG stream reassigned, an event
//! reordered, a float path refactored) across PRs.
//!
//! Regenerate after an intentional change with:
//!
//! ```sh
//! L4SPAN_BLESS=1 cargo test -q --test golden_fingerprints
//! ```
//!
//! and commit the rewritten TOML — the diff shows exactly which
//! scenario × CC combinations moved, and whether only their event
//! counts did.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use l4span::core::HandoverPolicy;
use l4span::cc::WanLink;
use l4span::harness::app::AppProfile;
use l4span::harness::scenario::{ChannelMix, FlowSpec, ScenarioConfig, TransportSpec};
use l4span::harness::{self, scenario, ImpairmentSpec, Report, UeSpec};
use l4span::ran::ChannelProfile;
use l4span::sim::{Duration, Instant};

/// Every congestion controller in the paper's evaluation.
const CCS: [&str; 5] = ["reno", "cubic", "prague", "bbr", "bbr2"];

/// The canonical corpus: short (1 simulated second) variants of every
/// canonical scenario family, in a fixed order. The last entry is the
/// bidirectional one; the rest are downlink-only.
fn corpus(cc: &str) -> Vec<(&'static str, scenario::ScenarioConfig)> {
    vec![
        (
            "congested_cell_2ue",
            scenario::congested_cell(
                2,
                cc,
                ChannelMix::Mobile,
                16_384,
                WanLink::east(),
                scenario::l4span_default(),
                7,
                Duration::from_secs(1),
            ),
        ),
        (
            "handover_2cell_2ue",
            scenario::handover_cell(
                2,
                cc,
                Duration::from_millis(400),
                HandoverPolicy::MigrateState,
                scenario::l4span_default(),
                7,
                Duration::from_secs(1),
            ),
        ),
        (
            "interactive_apps_mixed_2g",
            scenario::interactive_apps_mixed(
                2,
                cc,
                scenario::l4span_default(),
                7,
                Duration::from_secs(1),
            ),
        ),
        (
            "video_call_bidir_2",
            scenario::video_call_bidir(
                2,
                cc,
                scenario::l4span_default(),
                7,
                Duration::from_secs(1),
            ),
        ),
    ]
}

/// One UE carrying a single non-TCP flow in `dir`: the SCReAM and UDP
/// Prague endpoints on both the downlink and the uplink data paths.
fn one_ue(transport: TransportSpec, uplink: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(7, Duration::from_secs(2));
    cfg.marker = scenario::l4span_default();
    cfg.ues
        .push(UeSpec::simple(ChannelProfile::Pedestrian, 24.0));
    let app = match transport {
        TransportSpec::Scream => AppProfile::video(25.0, 0.5e6, 2.0e6, 20.0e6),
        _ => AppProfile::bulk(),
    };
    let flow = if uplink {
        FlowSpec::uplink
    } else {
        FlowSpec::new
    };
    cfg.flows.push(flow(
        0,
        app,
        transport,
        WanLink::east(),
        Instant::from_millis(3),
    ));
    cfg
}

/// The transport corpus: every endpoint kind and data path the corpus
/// above does not reach — SCReAM and UDP Prague in both directions,
/// the FEC media endpoint bonded and single-leg, NADA over TCP, the
/// bonded TCP join buffer, and the impaired path (incl. a classic-
/// fallback transition).
/// Entries are (section, key, config).
fn transport_corpus() -> Vec<(&'static str, &'static str, ScenarioConfig)> {
    let xr = |cc: &str, bonded: bool| {
        scenario::xr_bonding_cell(
            4,
            cc,
            scenario::l4span_default(),
            bonded,
            7,
            Duration::from_secs(1),
        )
    };
    let impaired = |cc: &str, bleach: f64| {
        scenario::impaired_path_cell(
            2,
            cc,
            ImpairmentSpec::bleaching(bleach).then_classic_hop(30e6),
            scenario::l4span_default(),
            7,
            Duration::from_secs(1),
        )
    };
    let udp_prague = || TransportSpec::udp_prague(6.25e4, 2.5e5, 2.5e6);
    vec![
        (
            "scream_1ue",
            "downlink",
            one_ue(TransportSpec::scream(), false),
        ),
        (
            "scream_1ue",
            "uplink",
            one_ue(TransportSpec::scream(), true),
        ),
        ("udp_prague_1ue", "downlink", one_ue(udp_prague(), false)),
        ("udp_prague_1ue", "uplink", one_ue(udp_prague(), true)),
        (
            "xr_bonding_cell_4",
            "fec-media-bonded",
            xr("fec-media", true),
        ),
        ("xr_bonding_cell_4", "fec-media", xr("fec-media", false)),
        ("xr_bonding_cell_4", "nada", xr("nada", false)),
        ("xr_bonding_cell_4", "cubic-bonded", xr("cubic", true)),
        (
            "impaired_path_cell_2ue",
            "prague-fallback",
            impaired("prague-fallback", 0.25),
        ),
        ("impaired_path_cell_2ue", "cubic", impaired("cubic", 0.25)),
        // Full bleaching trips Prague's classic fallback in both flows.
        (
            "impaired_path_cell_2ue",
            "prague-fallback-bleached",
            impaired("prague-fallback", 1.0),
        ),
    ]
}

fn toml_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_fingerprints.toml")
}

/// Suffix of the key that pins an entry's event count.
const EV: &str = ".ev";

/// FNV-1a over [`Report::fingerprint`] with its `;ev=<count>` field
/// removed, as 16 lowercase hex digits.
fn digest_without_events(r: &Report) -> String {
    let fp = r
        .fingerprint()
        .replacen(&format!(";ev={}", r.events), "", 1);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in fp.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Compute every entry: scenario name → cc (or variant) → digest, plus
/// `<cc>.ev` → event count. Runs the whole grid through the parallel
/// batch runner (fingerprints are invariant to worker count — that is
/// its contract, asserted in determinism.rs).
fn compute() -> BTreeMap<String, BTreeMap<String, String>> {
    let mut keys = Vec::new();
    let mut cfgs = Vec::new();
    for cc in CCS {
        for (name, cfg) in corpus(cc) {
            keys.push((name.to_string(), cc.to_string()));
            cfgs.push(cfg);
        }
    }
    for (name, key, cfg) in transport_corpus() {
        keys.push((name.to_string(), key.to_string()));
        cfgs.push(cfg);
    }
    let reports = harness::run_batch(cfgs);
    let mut out: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for ((name, cc), r) in keys.into_iter().zip(reports) {
        let entry = out.entry(name).or_default();
        entry.insert(format!("{cc}{EV}"), r.events.to_string());
        entry.insert(cc, digest_without_events(&r));
    }
    out
}

fn render(table: &BTreeMap<String, BTreeMap<String, String>>) -> String {
    let mut s = String::from(
        "# Golden fingerprint digests (FNV-1a of Report::fingerprint() with\n\
         # its ev= field removed) and, on the `.ev` line, the event count.\n\
         # One section per canonical scenario, one key per congestion\n\
         # controller. Regenerate intentionally with:\n\
         #   L4SPAN_BLESS=1 cargo test -q --test golden_fingerprints\n",
    );
    for (name, ccs) in table {
        let _ = write!(s, "\n[{name}]\n");
        // Emit in the paper's CC order, not alphabetical; other keys
        // (transport-corpus variants) follow in key order.
        let others = ccs
            .keys()
            .filter(|k| !k.ends_with(EV) && !CCS.contains(&k.as_str()));
        for key in CCS.iter().copied().chain(others.map(String::as_str)) {
            if let Some(d) = ccs.get(key) {
                let _ = writeln!(s, "{key} = \"{d}\"");
            }
            if let Some(ev) = ccs.get(&format!("{key}{EV}")) {
                let _ = writeln!(s, "{key}{EV} = {ev}");
            }
        }
    }
    s
}

/// Minimal parser for the exact file `render` writes (section headers
/// plus `key = "value"` and `key.ev = count` lines; `#` comments
/// ignored).
fn parse(text: &str) -> BTreeMap<String, BTreeMap<String, String>> {
    let mut out: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.to_string();
            out.entry(section.clone()).or_default();
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            let key = k.trim().to_string();
            let val = v.trim().trim_matches('"').to_string();
            out.entry(section.clone()).or_default().insert(key, val);
        }
    }
    out
}

#[test]
fn golden_fingerprints_match_the_blessed_corpus() {
    let actual = compute();
    let path = toml_path();
    if std::env::var("L4SPAN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, render(&actual)).expect("write corpus");
        eprintln!("blessed {} — review the diff before committing", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}); generate it with L4SPAN_BLESS=1 \
             cargo test -q --test golden_fingerprints"
        , path.display())
    });
    let expected = parse(&text);
    let mut drift = Vec::new();
    for (name, ccs) in &actual {
        for (cc, digest) in ccs {
            match expected.get(name).and_then(|m| m.get(cc)) {
                Some(want) if want == digest => {}
                Some(want) if cc.ends_with(EV) => drift.push(format!(
                    "{name}/{cc}: event count changed ({want} → {digest})"
                )),
                Some(want) => drift.push(format!(
                    "{name}/{cc}: fingerprint drifted ({want} → {digest})"
                )),
                None => drift.push(format!("{name}/{cc}: missing from the corpus")),
            }
        }
    }
    // Stale entries are drift too: a renamed scenario must be re-blessed.
    for (name, ccs) in &expected {
        for cc in ccs.keys() {
            if actual.get(name).and_then(|m| m.get(cc)).is_none() {
                drift.push(format!("{name}/{cc}: in the corpus but no longer produced"));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "golden fingerprints drifted — if this change is intentional, \
         re-bless with L4SPAN_BLESS=1 and review the diff:\n  {}",
        drift.join("\n  ")
    );
}

#[test]
fn corpus_round_trips_through_the_parser() {
    let mut table: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for (i, cc) in CCS.iter().enumerate() {
        table
            .entry("scenario_x".into())
            .or_default()
            .insert(cc.to_string(), format!("{i:016x}"));
    }
    let x = table.entry("scenario_x".into()).or_default();
    x.insert("fec-media-bonded".into(), format!("{:016x}", 99));
    x.insert(format!("reno{EV}"), "14662".into());
    x.insert(format!("fec-media-bonded{EV}"), "7".into());
    let text = render(&table);
    assert!(text.contains("reno.ev = 14662\n"), "{text}");
    assert_eq!(parse(&text), table);
}
