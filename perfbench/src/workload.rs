//! The benchmark's three workloads, one run of a workload, its outputs
//! check, and the simulated (seed-deterministic) metrics read from its
//! report.
//!
//! * `cell_dl_mixed` — one 16-UE cell on the mobile channel mix, one
//!   greedy downlink TCP flow per UE alternating Prague / CUBIC, the
//!   L4Span marker with paper defaults on a 16 384-SDU RLC queue behind
//!   `WanLink::east()` (the paper's Figs. 9/12 setting).
//! * `xr_uplink_bonded` — `bonded_xr_8ue`: 8 XR devices × 2 bonded legs
//!   of FEC-media/NADA uplink across two cells, a marker per cell.
//! * `metro_sharded` — `metro_1000ue_50cell("prague")` run on 2 shards,
//!   whose epochs take turns on one thread.

use std::borrow::Cow;

use l4span_cc::{CcKind, EcnMode, WanLink};
use l4span_harness::scenario::{
    bonded_xr_8ue, congested_cell, l4span_default, metro_1000ue_50cell, ChannelMix,
};
use l4span_harness::{
    run_sharded, FecStat, FlowDir, FlowSpec, Report, ScenarioConfig, TransportSpec,
};
use l4span_sim::{CycleStat, Duration};

/// One named workload: a seeded scenario builder, its simulated length,
/// how many independently seeded replicas make up one run, and the
/// shard count each replica runs on.
pub struct Workload {
    /// Name the benchmark's `--workload` flag selects.
    pub name: &'static str,
    /// Simulated seconds of one replica.
    pub sim_secs: u64,
    /// Replicas per run. Their seeds derive from the run's seed, so a
    /// run averages over several channel and traffic realisations and
    /// its figures vary less from one seed to the next.
    pub replicas: u64,
    /// Shards passed to `run_sharded` (1 = the classic whole-world path).
    pub shards: usize,
    /// Delay samples delivered before this many simulated seconds are
    /// the flows' start-up ramp and stay out of the delay metrics: the
    /// tail of the ramp varies far more from seed to seed than the
    /// steady state the metrics describe.
    pub warm_up_s: f64,
    build: fn(u64, Duration) -> ScenarioConfig,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cell_dl_mixed",
        sim_secs: 20,
        replicas: 4,
        shards: 1,
        warm_up_s: 3.0,
        build: cell_dl_mixed,
    },
    Workload {
        name: "xr_uplink_bonded",
        sim_secs: 10,
        replicas: 12,
        shards: 1,
        warm_up_s: 3.0,
        build: bonded_xr_8ue,
    },
    Workload {
        name: "metro_sharded",
        sim_secs: 2,
        replicas: 1,
        shards: 2,
        warm_up_s: 0.5,
        build: metro_sharded,
    },
];

fn cell_dl_mixed(seed: u64, duration: Duration) -> ScenarioConfig {
    let mut cfg = congested_cell(
        16,
        "prague",
        ChannelMix::Mobile,
        16_384,
        WanLink::east(),
        l4span_default(),
        seed,
        duration,
    );
    for flow in cfg.flows.iter_mut().skip(1).step_by(2) {
        flow.transport = TransportSpec::tcp(CcKind::Cubic);
    }
    cfg
}

fn metro_sharded(seed: u64, duration: Duration) -> ScenarioConfig {
    metro_1000ue_50cell("prague", seed, duration)
}

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The replica scenarios of one run for `seed`. Distinct seeds give
    /// disjoint replica seeds.
    pub fn configs(&self, seed: u64) -> Vec<ScenarioConfig> {
        (0..self.replicas)
            .map(|i| {
                let replica_seed = seed.wrapping_mul(self.replicas).wrapping_add(i);
                (self.build)(replica_seed, Duration::from_secs(self.sim_secs))
            })
            .collect()
    }

    /// Simulated seconds covered by one run (all replicas).
    pub fn sim_secs_per_run(&self) -> f64 {
        (self.sim_secs * self.replicas) as f64
    }
}

/// One completed run of a workload (every replica).
pub struct Run {
    /// Wall seconds of each replica's `run_sharded` call, world
    /// construction included.
    pub wall_s: Vec<f64>,
    /// CPU seconds over the same spans.
    pub cpu_s: Vec<f64>,
    /// Peak RSS (MiB) read as the run returned, before any output
    /// processing allocated.
    pub peak_rss_mb: f64,
    /// One report per replica, in replica order.
    pub reports: Vec<Report>,
}

impl Run {
    /// Wall seconds of the whole run.
    pub fn total_wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }
}

/// Run every replica config on `shards` shards with the harness
/// instrumentation on or off. A panic anywhere in the run comes back as
/// `Err`.
pub fn run_once(cfgs: &[ScenarioConfig], shards: usize, traced: bool) -> Result<Run, String> {
    let cfgs: Vec<ScenarioConfig> = cfgs
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.measure_cycles = traced;
            c.measure_marker_time = traced;
            c
        })
        .collect();
    // The run owns its configs and everything it builds; a panic leaves
    // nothing behind that a later run could observe.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut run = Run {
            wall_s: Vec::new(),
            cpu_s: Vec::new(),
            peak_rss_mb: 0.0,
            reports: Vec::new(),
        };
        for cfg in cfgs {
            let cpu0 = crate::host::cpu_seconds();
            let t0 = std::time::Instant::now();
            run.reports.push(run_sharded(cfg, shards));
            run.wall_s.push(t0.elapsed().as_secs_f64());
            run.cpu_s.push(crate::host::cpu_seconds() - cpu0);
        }
        run.peak_rss_mb = crate::host::peak_rss_mb();
        run
    }))
    .map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "run panicked".to_string())
    })
}

/// The run's outputs digest: FNV-1a over each replica's
/// `Report::fingerprint()` in turn, with the `ev=` event-count field
/// removed, so a change that does the same simulation in fewer events
/// keeps its digest. The event count is reported on its own as
/// `sim.events`.
pub fn outputs_digest(reports: &[Report]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for report in reports {
        let fp = report.fingerprint();
        for b in strip_event_count(&fp).as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn strip_event_count(fp: &str) -> Cow<'_, str> {
    let Some(mem) = fp.find(";mem=") else {
        return Cow::Borrowed(fp);
    };
    let Some(rel) = fp[mem..].find(";ev=") else {
        return Cow::Borrowed(fp);
    };
    let start = mem + rel;
    let digits = fp[start + 4..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .count();
    Cow::Owned(format!("{}{}", &fp[..start], &fp[start + 4 + digits..]))
}

/// Conservation of every FEC flow's ledger:
/// delivered + repaired + abandoned == offered.
pub fn fec_ledger_closed(reports: &[Report]) -> bool {
    reports
        .iter()
        .flat_map(|r| &r.fec)
        .all(|f| f.delivered + f.repaired + f.abandoned == f.offered)
}

/// Quantile `q` (0..=1) of `v` by the mid-distribution rule: each
/// distinct value sits at the midpoint of its block of ties in the
/// empirical CDF, and the quantile interpolates linearly between those
/// points. On data without ties this is the usual interpolated
/// quantile; unlike nearest rank it still moves with the shares of tied
/// values, and the simulator's delays come in whole slot steps. Sorts
/// `v`; 0 when empty.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len() as f64;
    let mut prev: Option<(f64, f64)> = None;
    let mut i = 0;
    while i < v.len() {
        let x = v[i];
        let j = i + v[i..].iter().take_while(|&&y| y == x).count();
        let mid = (i + j) as f64 / (2.0 * n);
        if mid >= q {
            return match prev {
                Some((px, pmid)) => px + (q - pmid) / (mid - pmid) * (x - px),
                None => x,
            };
        }
        prev = Some((x, mid));
        i = j;
    }
    prev.map_or(0.0, |(x, _)| x)
}

/// Median of `v` (0 when empty), sorting it.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Data-direction one-way delays delivered after `from_s`, of the flows
/// `keep` selects, pooled over every replica.
fn pooled_owd(
    cfgs: &[ScenarioConfig],
    reports: &[Report],
    from_s: f64,
    keep: fn(&FlowSpec) -> bool,
) -> Vec<f64> {
    let mut all = Vec::new();
    for (cfg, report) in cfgs.iter().zip(reports) {
        for (f, spec) in cfg.flows.iter().enumerate().filter(|(_, s)| keep(s)) {
            let (owd, at) = match spec.dir {
                FlowDir::Uplink => (&report.ul_owd_ms[f], &report.ul_owd_at_s[f]),
                FlowDir::Downlink => (&report.owd_ms[f], &report.owd_at_s[f]),
            };
            all.extend(
                owd.iter()
                    .zip(at)
                    .filter(|(_, &t)| t >= from_s)
                    .map(|(&d, _)| d),
            );
        }
    }
    all
}

fn is_classic(spec: &FlowSpec) -> bool {
    match &spec.transport {
        TransportSpec::Tcp { cc } => cc.make(1400).ecn_mode() == EcnMode::Classic,
        _ => false,
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// One simulated metric: `(name, value, unit)`.
pub type SimMetric = (&'static str, f64, &'static str);

/// Simulated metrics of one run: delays are
/// pooled over the replicas' steady state, goodput is the mean per
/// replica, counts are summed. They depend only on the scenario and
/// seed, never on the host.
pub fn sim_metrics(w: &Workload, cfgs: &[ScenarioConfig], reports: &[Report]) -> Vec<SimMetric> {
    let sum = |f: &dyn Fn(&Report) -> u64| reports.iter().map(f).sum::<u64>();
    let fec_sum = |f: fn(&FecStat) -> u64| reports.iter().flat_map(|r| &r.fec).map(f).sum::<u64>();
    let sim_s: f64 = reports.iter().map(|r| r.duration.as_secs_f64()).sum();
    let mut owd = pooled_owd(cfgs, reports, w.warm_up_s, |_| true);
    let owd_samples = owd.len() as f64;
    let owd_p50 = percentile(&mut owd, 0.50);
    let owd_p99 = percentile(&mut owd, 0.99);
    let classic_p99 = percentile(
        &mut pooled_owd(cfgs, reports, w.warm_up_s, is_classic),
        0.99,
    );
    let bytes = sum(&|r| r.thr_bins.iter().flatten().sum());
    let events = sum(&|r| r.events);
    let offered = fec_sum(|f| f.offered);
    let abandoned = fec_sum(|f| f.abandoned);
    let repairs = fec_sum(|f| f.repairs);
    let repair_useful = if repairs == 0 {
        0.0
    } else {
        100.0 - pct(fec_sum(|f| f.repairs_unused), repairs)
    };
    vec![
        ("owd_p50_ms", owd_p50, "ms"),
        ("owd_p99_ms", owd_p99, "ms"),
        ("goodput_mbps", bytes as f64 * 8.0 / sim_s / 1e6, "Mbit/s"),
        ("owd.samples", owd_samples, "count"),
        ("classic_owd_p99_ms", classic_p99, "ms"),
        (
            "frame_miss_pct",
            pct(
                sum(&|r| r.frames_missed.iter().sum()),
                sum(&|r| r.frames_generated.iter().sum()),
            ),
            "%",
        ),
        ("media_loss_pct", pct(abandoned, offered), "%"),
        ("sim.events", events as f64, "count"),
        ("sim.events_per_sim_s", events as f64 / sim_s, "1/sim-s"),
        ("ran.rlc_drops", sum(&|r| r.rlc_drops) as f64, "count"),
        ("ran.tbs_lost", sum(&|r| r.tbs_lost) as f64, "count"),
        ("ran.harq_retx", sum(&|r| r.harq_retx) as f64, "count"),
        ("marker.marks", sum(&|r| r.total_marks) as f64, "count"),
        (
            "marker.memory_bytes",
            sum(&|r| r.marker_memory as u64) as f64,
            "bytes",
        ),
        ("fec.offered", offered as f64, "count"),
        ("fec.abandoned", abandoned as f64, "count"),
        ("fec.retx", fec_sum(|f| f.retx) as f64, "count"),
        ("fec.repair_useful_pct", repair_useful, "%"),
        (
            "bond.join_flushed",
            sum(&|r| r.bonds.iter().map(|b| b.join_flushed).sum()) as f64,
            "count",
        ),
    ]
}

/// The run's per-subsystem cycle totals, summed over replicas. A
/// sharded report's merged `cycles` carries only the primary shard
/// world, so its per-shard snapshots are summed instead (as the
/// `fig_breakdown` bin does).
pub fn cycle_totals(reports: &[Report]) -> Vec<CycleStat> {
    let spans = reports.iter().flat_map(|r| {
        if r.shards.len() > 1 {
            r.shards.iter().flat_map(|s| &s.cycles).collect::<Vec<_>>()
        } else {
            r.cycles.iter().collect()
        }
    });
    let mut acc: Vec<CycleStat> = Vec::new();
    for cy in spans {
        match acc.iter_mut().find(|a| a.label == cy.label) {
            Some(a) => {
                a.nanos += cy.nanos;
                a.calls += cy.calls;
            }
            None => acc.push(*cy),
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_count_is_cut_from_the_fingerprint() {
        let fp = "a=1;mem=42;ev=12345;fec=1,2";
        assert_eq!(strip_event_count(fp), "a=1;mem=42;fec=1,2");
        assert_eq!(strip_event_count("mem=1;x=2"), "mem=1;x=2");
    }

    #[test]
    fn mid_distribution_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.5);
        assert_eq!(percentile(&mut v, 0.99), 99.5);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        // Tied slot-step delays: 30 % at 35.0, 50 % at 35.5, 20 % at 36.0
        // put the tie midpoints at 0.15, 0.55 and 0.90.
        let mut ties: Vec<f64> = [(35.0, 30), (35.5, 50), (36.0, 20)]
            .iter()
            .flat_map(|&(x, k)| std::iter::repeat_n(x, k))
            .collect();
        assert_eq!(percentile(&mut ties, 0.5), 35.4375);
        assert_eq!(percentile(&mut ties, 0.1), 35.0);
    }
}
