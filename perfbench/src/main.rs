//! Same-machine benchmark of the L4Span simulator.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload cell_dl_mixed --seed 1 --seconds 30 --trace 0 [--out FILE]
//! ```
//!
//! One workload per process, so `peak_rss_mb` belongs to that workload.
//! Every run of the workload uses the scenarios built from `--seed`;
//! repeats must reproduce the first run's outputs digest.
//!
//! * `--trace 0` measures the end-to-end metrics with the harness
//!   instrumentation off: host wall and CPU per simulated second
//!   (medians over the runs that fit in `--seconds`), set-up time (median
//!   of `World::new` timings interleaved with the runs), peak RSS, and
//!   the simulated delay and goodput of the run.
//! * `--trace 1` interleaves instrumented runs (`measure_cycles`,
//!   `measure_marker_time`) with plain ones and then times the layer
//!   microbenchmarks; it prints the per-layer metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--out FILE` also writes that line to FILE.

mod host;
mod micro;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration as WallDuration, Instant as WallInstant};

use l4span_harness::world::CYCLE_LABELS;
use l4span_harness::{Report, ScenarioConfig, ShardStat, World};
use workload::{median, percentile, run_once, Run, SimMetric, Workload, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--out FILE]";

/// Timed runs per mode never drop below this many, whatever `--seconds`.
const MIN_RUNS: usize = 3;

/// Share of a `--trace 1` run's budget spent on the workload itself;
/// the rest goes to the layer microbenchmarks.
const TRACE_WORKLOAD_SHARE: f64 = 0.75;

/// `World::new` timings taken after each timed run.
const SETUP_SAMPLES_PER_RUN: usize = 5;

/// Per-shard rows printed for every workload (zero where unsharded).
const SHARD_ROWS: usize = 2;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (1u64, 10.0f64, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 60.0) {
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
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Metrics in output order, as `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Every run's outputs check: it must not panic, its FEC ledgers must
/// close, and its outputs digest must equal the first run's.
struct Checker {
    reference: Option<String>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, outcome: Result<Run, String>) -> Option<Run> {
        self.attempted += 1;
        let run = match outcome {
            Ok(run) => run,
            Err(msg) => {
                eprintln!("run {} panicked: {msg}", self.attempted);
                self.failed += 1;
                return None;
            }
        };
        let digest = workload::outputs_digest(&run.reports);
        let reference = self.reference.get_or_insert_with(|| digest.clone());
        if *reference != digest {
            eprintln!(
                "run {}: outputs digest {digest} != {reference}",
                self.attempted
            );
            self.failed += 1;
        } else if !workload::fec_ledger_closed(&run.reports) {
            eprintln!("run {}: an FEC ledger did not close", self.attempted);
            self.failed += 1;
        }
        Some(run)
    }
}

/// Seconds to construct the run's worlds (`World::new` of every replica
/// config), averaged over `reps` constructions so that a cheap world is
/// not timed at clock resolution.
fn setup_sample(cfgs: &[ScenarioConfig], reps: usize) -> f64 {
    let batch: Vec<ScenarioConfig> = (0..reps).flat_map(|_| cfgs.iter().cloned()).collect();
    let t = WallInstant::now();
    let worlds: Vec<World> = batch.into_iter().map(World::new).collect();
    let spent = t.elapsed().as_secs_f64();
    drop(worlds);
    spent / reps as f64
}

/// The first run warms caches and the allocator; its outputs are the
/// reference every later run must reproduce. Returns its peak RSS and
/// simulated metrics.
fn first_run(
    w: &Workload,
    cfgs: &[ScenarioConfig],
    checker: &mut Checker,
) -> Option<(f64, Vec<SimMetric>)> {
    let run = checker.check(run_once(cfgs, w.shards, false))?;
    Some((
        run.peak_rss_mb,
        workload::sim_metrics(w, cfgs, &run.reports),
    ))
}

/// The end-to-end metrics are printed with `--trace 0`; the other
/// simulated metrics are per-layer rows.
fn is_end_to_end(name: &str) -> bool {
    matches!(name, "owd_p50_ms" | "owd_p99_ms" | "goodput_mbps")
}

fn end_to_end(
    w: &Workload,
    args: &Args,
    cfgs: &[ScenarioConfig],
    checker: &mut Checker,
    m: &mut Metrics,
) {
    let Some((peak_rss_mb, sim)) = first_run(w, cfgs, checker) else {
        return;
    };
    // Set-up samples of ~2 ms each, a few after every run, so that they
    // span the same stretch of time as the run samples.
    let setup_reps = (2e-3 / setup_sample(cfgs, 1)).ceil().clamp(1.0, 1000.0) as usize;
    // One sample per replica: replicas do near-equal work, and short
    // samples let the median reject bursts of interference.
    let per_sim_s = 1e3 / w.sim_secs as f64;
    let (mut wall, mut cpu, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut runs = 0;
    let t0 = WallInstant::now();
    while checker.failed == 0 && (runs < MIN_RUNS || t0.elapsed().as_secs_f64() < args.seconds) {
        runs += 1;
        if let Some(run) = checker.check(run_once(cfgs, w.shards, false)) {
            wall.extend(run.wall_s.iter().map(|s| s * per_sim_s));
            cpu.extend(run.cpu_s.iter().map(|s| s * per_sim_s));
        }
        setup.extend((0..SETUP_SAMPLES_PER_RUN).map(|_| setup_sample(cfgs, setup_reps)));
    }
    m.push("wall_ms_per_sim_s", median(&mut wall), "ms/sim-s");
    m.push("cpu_ms_per_sim_s", median(&mut cpu), "ms/sim-s");
    m.push("setup_s", median(&mut setup), "s");
    m.push("peak_rss_mb", peak_rss_mb, "MiB");
    for (name, value, unit) in sim.into_iter().filter(|(n, _, _)| is_end_to_end(n)) {
        m.push(name, value, unit);
    }
}

/// Per-run samples of one metric each, in first-seen order.
#[derive(Default)]
struct Samples(Vec<(String, &'static str, Vec<f64>)>);

impl Samples {
    fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, v)) => v.push(value),
            None => self.0.push((name, unit, vec![value])),
        }
    }
}

/// Shard-runner figures of an untraced run: busy time per shard, its
/// sum and maximum, the barrier idle share and the mailbox drain time.
fn shard_samples(run: &Run, sim_s: f64, out: &mut Samples) {
    let shards: Vec<&ShardStat> = run.reports.iter().flat_map(|r| &r.shards).collect();
    let ms = |ns: u64| ns as f64 / 1e6 / sim_s;
    let busy_max = shards.iter().map(|s| ms(s.busy_ns)).fold(0.0, f64::max);
    let busy_sum = ms(shards.iter().map(|s| s.busy_ns).sum());
    let idle = if shards.is_empty() {
        0.0
    } else {
        100.0 * (1.0 - busy_sum / (shards.len() as f64 * busy_max))
    };
    out.add("shard.busy_max_ms", "ms/sim-s", busy_max);
    out.add("shard.busy_sum_ms", "ms/sim-s", busy_sum);
    out.add("shard.idle_pct", "%", idle);
    out.add(
        "shard.drain_ms",
        "ms/sim-s",
        ms(shards.iter().map(|s| s.drain_ns).sum()),
    );
    out.add(
        "shard.mailed",
        "count",
        shards.iter().map(|s| s.mailed).sum::<u64>() as f64,
    );
    for i in 0..SHARD_ROWS {
        let busy = shards
            .iter()
            .filter(|s| s.shard == i)
            .map(|s| s.busy_ns)
            .sum();
        out.add(format!("shard.{i}.busy_ms"), "ms/sim-s", ms(busy));
        let events = shards
            .iter()
            .filter(|s| s.shard == i)
            .map(|s| s.events)
            .sum::<u64>();
        out.add(format!("shard.{i}.events"), "count", events as f64);
    }
}

/// Cycle-scope figures of a traced run: ms per simulated second, calls
/// and ns per call of every `CYCLE_LABELS` entry, and the untracked
/// share of the run loop.
fn cycle_samples(w: &Workload, run: &Run, sim_s: f64, out: &mut Samples) {
    let cycles = workload::cycle_totals(&run.reports);
    for label in CYCLE_LABELS {
        let c = cycles.iter().find(|c| c.label == *label);
        let (nanos, calls, mean) = c.map_or((0, 0, 0.0), |c| (c.nanos, c.calls, c.mean_ns()));
        out.add(
            format!("{label}.ms"),
            "ms/sim-s",
            nanos as f64 / 1e6 / sim_s,
        );
        out.add(format!("{label}.calls"), "count", calls as f64);
        out.add(format!("{label}.ns_per_call"), "ns", mean);
    }
    // Untracked: run time no span covers. A sharded run's spans are
    // summed over its shards, so they are set against the summed shard
    // busy time rather than wall time.
    let tracked_ns: u64 = cycles.iter().map(|c| c.nanos).sum();
    let denom_ns = if w.shards > 1 {
        let busy: u64 = run
            .reports
            .iter()
            .flat_map(|r| &r.shards)
            .map(|s| s.busy_ns)
            .sum();
        busy as f64
    } else {
        run.total_wall_s() * 1e9
    };
    out.add(
        "untracked_pct",
        "%",
        100.0 * (1.0 - tracked_ns as f64 / denom_ns),
    );
}

/// Percentiles of a traced run's per-call marker times (Fig. 21),
/// pooled over its replicas.
fn marker_samples(run: &Run, out: &mut Samples) {
    let pool = |pick: fn(&Report) -> &Vec<u64>| -> Vec<f64> {
        run.reports
            .iter()
            .flat_map(pick)
            .map(|&ns| ns as f64)
            .collect()
    };
    let mut dl = pool(|r| &r.marker_time_ns.0);
    out.add("marker.dl_ns_p50", "ns", percentile(&mut dl, 0.50));
    out.add("marker.dl_ns_p99", "ns", percentile(&mut dl, 0.99));
    let mut fb = pool(|r| &r.marker_time_ns.2);
    out.add("marker.feedback_ns_p50", "ns", percentile(&mut fb, 0.50));
    let mut ul = pool(|r| &r.marker_time_ns.1);
    out.add("marker.ul_ns_p50", "ns", percentile(&mut ul, 0.50));
}

fn per_layer(
    w: &Workload,
    args: &Args,
    cfgs: &[ScenarioConfig],
    checker: &mut Checker,
    m: &mut Metrics,
) {
    let Some((_, sim)) = first_run(w, cfgs, checker) else {
        return;
    };
    let sim_s = w.sim_secs_per_run();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut samples = Samples::default();
    let budget = args.seconds * TRACE_WORKLOAD_SHARE;
    let t0 = WallInstant::now();
    while checker.failed == 0 && (traced.len() < 2 || t0.elapsed().as_secs_f64() < budget) {
        // Alternate so drift in machine speed hits both sides alike.
        let is_traced = plain.len() > traced.len();
        let Some(run) = checker.check(run_once(cfgs, w.shards, is_traced)) else {
            continue;
        };
        if !is_traced {
            plain.push(run.total_wall_s() * 1e3 / sim_s);
            shard_samples(&run, sim_s, &mut samples);
            continue;
        }
        traced.push(run.total_wall_s() * 1e3 / sim_s);
        cycle_samples(w, &run, sim_s, &mut samples);
        marker_samples(&run, &mut samples);
    }
    let micro_budget = WallDuration::from_secs_f64(args.seconds * (1.0 - TRACE_WORKLOAD_SHARE));

    let plain_wall = median(&mut plain);
    let traced_wall = median(&mut traced);
    m.push("traced_wall_ms_per_sim_s", traced_wall, "ms/sim-s");
    m.push(
        "trace_overhead_pct",
        100.0 * (traced_wall / plain_wall - 1.0),
        "%",
    );
    for (name, unit, mut v) in samples.0 {
        m.push(name, median(&mut v), unit);
    }
    for (name, value, unit) in sim.into_iter().filter(|(n, _, _)| !is_end_to_end(n)) {
        m.push(name, value, unit);
    }
    for (name, ns) in micro::run_all(micro_budget, args.seed) {
        m.push(name, ns, "ns");
    }
    // The end-to-end mode carries the same count in `failed`.
    m.push(
        "failed_runs_pct",
        100.0 * checker.failed as f64 / checker.attempted.max(1) as f64,
        "%",
    );
}

fn json(correct: bool, checker: &Checker, m: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.attempted, checker.failed
    );
    for (i, (name, value, unit)) in m.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    // One thread: the sharded workload runs its shards' epochs in turn.
    // Parallel epochs made its wall time depend on whatever else held
    // the machine's other cores. Read by the harness's shard runner; set
    // before any thread exists.
    std::env::set_var("L4SPAN_THREADS", "1");

    let cfgs = w.configs(args.seed);
    let mut checker = Checker {
        reference: None,
        attempted: 0,
        failed: 0,
    };
    let mut m = Metrics::default();
    if args.trace {
        per_layer(w, &args, &cfgs, &mut checker, &mut m);
    } else {
        end_to_end(w, &args, &cfgs, &mut checker, &mut m);
    }
    let finite = m.0.iter().all(|(_, v, _)| v.is_finite());
    let correct = checker.failed == 0 && checker.attempted > 0 && finite;
    println!(
        "# {} seed={} trace={} runs={} failed={} digest={}",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        checker.attempted,
        checker.failed,
        checker.reference.as_deref().unwrap_or("-"),
    );
    for (name, value, unit) in &m.0 {
        println!("# {name:<28} {value:>16.4} {unit}");
    }
    let line = json(correct, &checker, &m);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}
