//! Simulator performance gate: runs the canonical scenarios, reports
//! events/sec and wall-ms per simulated second, writes `BENCH_PR10.json`
//! at the repo root, and (with `--check`) fails when the **reference-work
//! rate** on any scenario regresses more than 10 % below the **best
//! prior baseline** —
//! the maximum of the committed constants and the *second-highest*
//! earlier-PR `BENCH_PR*.json` value tracked at the repo root, so a
//! regression can never hide behind a single stale artifact and one
//! lucky recording window can never ratchet the bar above what a
//! clean run reproduces (PR 10 fix; see `gate::fold_best`). Scenarios
//! with no prior
//! baseline (their first appearance) are explicitly skipped, not
//! silently passed at 0. `--check` never rewrites the artifact: the
//! recording run and the gate run are separate concerns.
//!
//! The reference-work rate is the scenario's event count as recorded by
//! the oldest `BENCH_PR*.json` that has it, over the measured wall time
//! (see `gate::reference_rate`). Those counts were equal in every
//! artifact from PR 2 on, so the rate equals events/sec wherever the
//! simulation runs the same events — the committed constants, the fold,
//! the band and the metro floor keep their meaning — while a change that
//! does the same simulation in fewer events no longer reads as a
//! slowdown. Raw events and events/sec are printed beside it.
//!
//! `cargo run --release -p l4span-bench --bin perf_gate [--check]`
//!
//! The committed `BASELINES` constants are the numbers this gate produced
//! on the reference machine at the end of each PR; `PRE_PR2_BASELINE` is
//! the same measurement taken immediately *before* PR 2's allocation-free
//! packet path landed, kept so the speedup trajectory stays on record.
//! Both the table and the artifact also carry each scenario's delta vs
//! the previous PR's `BENCH_PR*.json`, so the per-PR trajectory is
//! visible at a glance.
//!
//! Sharded scenarios (the PR 8 metro world) additionally report the
//! **aggregate** rate — total shard events over the *longest* single
//! shard's busy time, i.e. the throughput the shard set sustains when
//! every shard has its own core — and the per-core rate (aggregate /
//! shards). Both derive from per-shard busy clocks, so they are
//! meaningful on a single-core runner too, where the epochs execute
//! sequentially. The regression band for those rows gates on the
//! aggregate rate (their `events_per_sec` is wall-based and would
//! conflate machine core count with simulator speed); `--check` also
//! enforces the absolute `MIN_METRO_AGGREGATE` floor on the metro row.

use std::time::Instant as WallInstant;

use l4span_bench::gate::{
    baseline_for, canonical_scenarios, check_scenario, delta_pct, fold_best, parse_bench_json,
    parse_bench_pr, reference_events, reference_rate, BenchEntry, GateVerdict, CANONICAL_SECS,
    METRO_SECS,
};
use l4span_harness::{run_sharded, ScenarioConfig};

/// The PR this gate's artifact belongs to.
const PR: u32 = 10;

/// Allowed events/sec regression vs the best prior baseline before
/// `--check` fails (fraction). Tightened from 30 % (PR 2–5) to 10 %:
/// the wide band let three PRs of ~5 % erosion each land unchallenged.
const MAX_REGRESSION: f64 = 0.10;

/// Committed baselines: (scenario name, events/sec) measured on the
/// reference machine (single-core container; a clean run — the box is
/// shared, so these sit slightly below the best observed so the 10 %
/// `--check` band absorbs scheduler noise rather than real
/// regressions). `--check` compares against the max of these and the
/// second-highest per-scenario value across the `BENCH_PR*.json`
/// artifacts at the repo root (see `gate::fold_best`).
const BASELINES: &[(&str, f64)] = &[
    ("congested_cubic_16ue", 1_850_000.0),
    ("prague_l4span_16ue", 1_900_000.0),
    ("bbr2_mobile_8ue", 1_050_000.0),
    ("handover_2cell_cubic_4ue", 2_000_000.0),
    // New in PR 4: the mixed interactive-apps workload (FramedVideo +
    // RequestResponse + Bulk over TCP, with per-unit QoE tracking).
    ("interactive_apps_mixed", 1_500_000.0),
    // New in PR 5: the bidirectional-call workload (paired DL+UL video
    // legs with BSR/grant-driven uplink data and a UE-side marker).
    ("video_call_bidir", 1_500_000.0),
    // New in PR 8: the sharded metro world. Its gated rate is the
    // *aggregate* events/sec across 8 shards (see module docs), so the
    // baseline sits in a different regime than the wall-based rows.
    ("metro_1000ue_50cell", 18_000_000.0),
    // New in PR 10: the bonded XR world (8 devices × 2 legs of
    // FEC/ARQ media under NADA across two cells). The gate requests 2
    // shards and the planner must refuse — bonded legs couple the
    // cells — so this row gates on the classic wall-based rate.
    ("bonded_xr_8ue", 950_000.0),
];

/// Absolute floor on the metro world's aggregate rate — the PR 8
/// acceptance bar (">10M aggregate events/sec on 4+ cores"). Enforced
/// under `--check` in addition to the relative regression band.
const MIN_METRO_AGGREGATE: f64 = 10_000_000.0;

/// The pre-PR-2 measurement (Vec-backed `PacketBuf`, ~112-byte inline
/// heap entries, per-slot Jakes evaluation, SipHash maps): the "pre"
/// numbers of the 2× acceptance bar. Later scenarios did not exist
/// then, and their artifact rows simply omit the pre-PR2 fields.
const PRE_PR2_BASELINE: &[(&str, f64)] = &[
    ("congested_cubic_16ue", 955_942.0),
    ("prague_l4span_16ue", 999_551.0),
    ("bbr2_mobile_8ue", 952_620.0),
];

/// Committed-artifact values are one clean run's *raw* numbers, whereas
/// the `BASELINES` constants are deliberately set slightly below the
/// best observed so the `--check` band absorbs scheduler noise. Folding
/// raw artifact numbers in undiscounted would ratchet the bar tighter
/// every time a lucky fast run lands; this haircut restores the same
/// headroom convention for JSON-derived baselines.
const ARTIFACT_HEADROOM: f64 = 0.90;

/// Shard-derived rates for a multi-shard row. Absent on classic rows,
/// whose JSON stays byte-compatible with the PR 6 artifact format.
struct ShardRates {
    shards: usize,
    /// Longest single shard's busy time — the critical path when every
    /// shard has its own core.
    busy_max_s: f64,
    /// Total shard events / `busy_max_s`.
    aggregate_events_per_sec: f64,
    /// `aggregate_events_per_sec` / `shards`.
    per_core_events_per_sec: f64,
}

struct Row {
    name: &'static str,
    events: u64,
    /// The event count the scenario's reference work is measured in
    /// (`gate::reference_events`); `None` on its first appearance.
    ref_events: Option<u64>,
    wall_s: f64,
    events_per_sec: f64,
    wall_ms_per_sim_s: f64,
    shard_rates: Option<ShardRates>,
    /// Why a requested multi-shard run fell back to the classic path
    /// (`Report::shard_reject`) — printed so a scenario silently losing
    /// its parallel speedup is visible in the gate table.
    shard_reject: Option<&'static str>,
}

impl Row {
    /// The rate the regression band gates on: the reference-work rate
    /// over the aggregate for sharded rows (machine-core-count
    /// independent), over the wall-based rate otherwise.
    fn gate_rate(&self) -> f64 {
        let measured = self
            .shard_rates
            .as_ref()
            .map(|s| s.aggregate_events_per_sec)
            .unwrap_or(self.events_per_sec);
        reference_rate(measured, self.events, self.ref_events)
    }
}

fn measure(name: &'static str, cfg: ScenarioConfig, shards: usize, ref_events: Option<u64>) -> Row {
    let sim_secs = cfg.duration.as_secs_f64();
    let t0 = WallInstant::now();
    let report = run_sharded(cfg, shards);
    let wall_s = t0.elapsed().as_secs_f64();
    let shard_rates = (report.shards.len() > 1).then(|| {
        let total: u64 = report.shards.iter().map(|s| s.events).sum();
        let busy_max_s = report
            .shards
            .iter()
            .map(|s| s.busy_ns)
            .max()
            .unwrap_or(0)
            .max(1) as f64
            / 1e9;
        let aggregate = total as f64 / busy_max_s;
        ShardRates {
            shards: report.shards.len(),
            busy_max_s,
            aggregate_events_per_sec: aggregate,
            per_core_events_per_sec: aggregate / report.shards.len() as f64,
        }
    });
    Row {
        name,
        events: report.events,
        ref_events,
        wall_s,
        events_per_sec: report.events as f64 / wall_s,
        wall_ms_per_sim_s: wall_s * 1e3 / sim_secs,
        shard_rates,
        shard_reject: report.shard_reject,
    }
}

fn pre_pr2_for(name: &str) -> Option<f64> {
    PRE_PR2_BASELINE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
}

/// Read every `BENCH_PR*.json` at the repo root as `(pr, entries)`.
fn read_bench_artifacts(root: &std::path::Path) -> Vec<(Option<u32>, Vec<BenchEntry>)> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root) {
        for e in entries.flatten() {
            let fname = e.file_name();
            let fname = fname.to_string_lossy();
            if !(fname.starts_with("BENCH_PR") && fname.ends_with(".json")) {
                continue;
            }
            if let Ok(text) = std::fs::read_to_string(e.path()) {
                out.push((parse_bench_pr(&text), parse_bench_json(&text)));
            }
        }
    }
    out
}

fn write_json(
    rows: &[Row],
    prev: &[(String, f64)],
    prev_pr: Option<u32>,
    path: &std::path::Path,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(s, "{{\n  \"pr\": {PR},\n  \"sim_secs_per_scenario\": {CANONICAL_SECS}");
    if let Some(p) = prev_pr {
        let _ = write!(s, ",\n  \"delta_vs_pr\": {p}");
    }
    s.push_str(",\n  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"events\": {}, \"wall_s\": {:.3}, \
             \"events_per_sec\": {:.0}, \"wall_ms_per_sim_s\": {:.1}",
            r.name, r.events, r.wall_s, r.events_per_sec, r.wall_ms_per_sim_s,
        );
        // A row whose event count differs from its reference records the
        // reference-work rate too; `parse_bench_json` folds it first.
        if r.ref_events.is_some_and(|e| e != r.events) {
            let _ = write!(s, ", \"ref_events_per_sec\": {:.0}", r.gate_rate());
        }
        // Sharded rows append their shard-derived rates; without a
        // reference-work rate, the aggregate is what `parse_bench_json`
        // will fold as this row's baseline.
        if let Some(sr) = &r.shard_rates {
            let _ = write!(
                s,
                ", \"shards\": {}, \"busy_max_s\": {:.3}, \
                 \"aggregate_events_per_sec\": {:.0}, \"per_core_events_per_sec\": {:.0}",
                sr.shards,
                sr.busy_max_s,
                sr.aggregate_events_per_sec,
                sr.per_core_events_per_sec,
            );
        }
        // A scenario that predates PR 2 carries its speedup-trajectory
        // fields; anything newer omits them entirely (a `0` here used
        // to read as "this scenario got infinitely slower").
        if let Some(pre) = pre_pr2_for(r.name) {
            let _ = write!(
                s,
                ", \"pre_pr2_events_per_sec\": {:.0}, \"speedup_vs_pre_pr2\": {:.2}",
                pre,
                r.gate_rate() / pre,
            );
        }
        if let Some(d) = delta_pct(baseline_for(prev, r.name), r.gate_rate()) {
            let _ = write!(s, ", \"delta_vs_prev_pct\": {d:.1}");
        }
        s.push('}');
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    // BENCH_PR*.json live at the repo root regardless of the cwd the
    // gate was launched from.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    // This PR's own artifact (a previous local run) must not enter the
    // baseline fold: checking a run against its own predecessor would
    // ratchet the bar upward on every lucky fast run.
    let artifacts: Vec<_> = read_bench_artifacts(&root)
        .into_iter()
        .filter(|(pr, _)| pr.is_none_or(|p| p < PR))
        .collect();
    let best = fold_best(
        BASELINES,
        &artifacts.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>(),
        ARTIFACT_HEADROOM,
    );
    // The previous PR's artifact (highest PR number below this one)
    // anchors the per-scenario delta column.
    let prev_pr = artifacts
        .iter()
        .filter_map(|(pr, _)| *pr)
        .filter(|&p| p < PR)
        .max();
    let prev: Vec<(String, f64)> = prev_pr
        .and_then(|p| {
            artifacts
                .iter()
                .find(|(pr, _)| *pr == Some(p))
                .map(|(_, e)| e.iter().map(|b| (b.name.clone(), b.events_per_sec)).collect())
        })
        .unwrap_or_default();

    println!(
        "perf_gate: {CANONICAL_SECS} simulated seconds per scenario \
         ({METRO_SECS} for the metro world)\n"
    );
    println!(
        "{:<26} {:>12} {:>9} {:>14} {:>14} {:>12} {:>10} {:>10}",
        "scenario",
        "events",
        "wall s",
        "events/sec",
        "ref work/sec",
        "ms/sim-s",
        "vs pre-PR2",
        "vs prev PR"
    );

    // In `--check` mode a scenario that lands under the bar is re-run
    // (best of 3) before being declared a regression: shared CI runners
    // see noisy-neighbor slowdowns that a real code regression survives
    // but a scheduling hiccup does not.
    let mut rows: Vec<Row> = Vec::new();
    for c in canonical_scenarios(CANONICAL_SECS) {
        let ref_events = reference_events(&artifacts, c.name);
        let mut best_row = measure(c.name, c.cfg.clone(), c.shards, ref_events);
        if check {
            if let Some(base) = baseline_for(&best, c.name) {
                let bar = base * (1.0 - MAX_REGRESSION);
                for _ in 0..2 {
                    if best_row.gate_rate() >= bar {
                        break;
                    }
                    let retry = measure(c.name, c.cfg.clone(), c.shards, ref_events);
                    if retry.gate_rate() > best_row.gate_rate() {
                        best_row = retry;
                    }
                }
            }
        }
        rows.push(best_row);
    }

    let mut failed = Vec::new();
    for r in &rows {
        let speedup = pre_pr2_for(r.name)
            .map(|pre| format!("{:.2}x", r.gate_rate() / pre))
            .unwrap_or_else(|| "-".into());
        let delta = delta_pct(baseline_for(&prev, r.name), r.gate_rate())
            .map(|d| format!("{d:+.1}%"))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<26} {:>12} {:>9.2} {:>14.0} {:>14.0} {:>12.1} {:>10} {:>10}",
            r.name,
            r.events,
            r.wall_s,
            r.events_per_sec,
            r.gate_rate(),
            r.wall_ms_per_sim_s,
            speedup,
            delta
        );
        if let Some(sr) = &r.shard_rates {
            println!(
                "  └ {} shards: aggregate {:.2}M ev/s, per-core {:.2}M ev/s \
                 (longest shard busy {:.2} s)",
                sr.shards,
                sr.aggregate_events_per_sec / 1e6,
                sr.per_core_events_per_sec / 1e6,
                sr.busy_max_s,
            );
        }
        if let Some(why) = r.shard_reject {
            println!("  └ sharding rejected ({why}) — classic whole-world path");
        }
        if check {
            match check_scenario(&best, r.name, r.gate_rate(), MAX_REGRESSION) {
                GateVerdict::Pass => {}
                GateVerdict::NoBaseline => {
                    println!(
                        "  (no prior baseline for {} — first appearance, check skipped)",
                        r.name
                    );
                }
                GateVerdict::Fail { bar, baseline } => {
                    failed.push(format!(
                        "{}: {:.0} reference events/sec is below the {:.0}% bar {:.0} \
                         (best prior baseline {:.0}, best of 3)",
                        r.name,
                        r.gate_rate(),
                        MAX_REGRESSION * 100.0,
                        bar,
                        baseline
                    ));
                }
            }
            if r.shard_rates.is_some()
                && r.name == "metro_1000ue_50cell"
                && r.gate_rate() < MIN_METRO_AGGREGATE
            {
                failed.push(format!(
                    "{}: aggregate {:.0} reference events/sec is below the absolute \
                     {:.0} floor",
                    r.name,
                    r.gate_rate(),
                    MIN_METRO_AGGREGATE
                ));
            }
        }
    }

    if check {
        // A gate check must not overwrite the recorded artifact with
        // whatever (possibly retried-under-noise) numbers it measured.
        println!("\ncheck mode: BENCH_PR{PR}.json left untouched");
    } else {
        let path = root.join(format!("BENCH_PR{PR}.json"));
        write_json(&rows, &prev, prev_pr, &path).expect("write BENCH_PR json");
        println!("\nwrote {}", path.display());
    }

    if !failed.is_empty() {
        for f in &failed {
            eprintln!("PERF REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}
