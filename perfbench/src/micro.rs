//! Layer microbenchmarks: each times calls into one layer crate's
//! public functions, sized at the input shape of the workload that
//! exercises the layer (16 UEs or 1000 PF candidates, 1400 B SDUs and
//! segments, queue depths like a busy cell's). Every benchmark samples
//! batches of calls until its time budget is spent and reports the
//! median nanoseconds per call over the batches.

use std::hint::black_box;
use std::time::{Duration as WallDuration, Instant as WallInstant};

use l4span_aqm::{DualPi2, Router, RouterAqm};
use l4span_cc::tcp::TcpConfig;
use l4span_cc::{CcKind, TcpReceiver, TcpSender};
use l4span_core::{L4SpanConfig, L4SpanLayer};
use l4span_net::{Ecn, PacketBuf, TcpFlags, TcpHeader};
use l4span_ran::mac::{
    allocate_proportional_fair_into, allocate_round_robin_into, AllocScratch, Candidate,
};
use l4span_ran::rlc::{RlcStatus, RlcTx};
use l4span_ran::{CellConfig, DlDataDeliveryStatus, DrbId, RlcMode, UeId};
use l4span_sim::{Duration, EventQueue, Instant, SimRng};

use crate::workload::median;

const SDU_BYTES: usize = 1400;

/// Run `batch` until `budget` has elapsed (and at least five times);
/// each call returns the time spent in the measured calls and how many
/// calls it made. Returns the median ns per call across batches.
fn sample(budget: WallDuration, mut batch: impl FnMut() -> (WallDuration, u64)) -> f64 {
    let t0 = WallInstant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || t0.elapsed() < budget {
        let (spent, calls) = batch();
        per_call.push(spent.as_nanos() as f64 / calls.max(1) as f64);
    }
    median(&mut per_call)
}

fn data_header(ue: u16) -> TcpHeader {
    TcpHeader {
        src_port: 443,
        dst_port: 50_000 + ue,
        flags: TcpFlags::new().with(TcpFlags::ACK),
        ..TcpHeader::default()
    }
}

/// L4Span's downlink hook and F1-U feedback handler over 16 UEs whose
/// flows alternate L4S (ECT(1)) and classic (ECT(0)), as in
/// `cell_dl_mixed`. Returns (dl ns/call, feedback ns/call).
fn core_marker(budget: WallDuration, seed: u64) -> (f64, f64) {
    const UES: u16 = 16;
    const PER_UE: usize = 4;
    let mut layer = L4SpanLayer::new(L4SpanConfig::default(), SimRng::new(seed));
    let headers: Vec<TcpHeader> = (0..UES).map(data_header).collect();
    let mut sn = [0u64; UES as usize];
    let mut t_us = 0u64;
    let mut round = |layer: &mut L4SpanLayer| {
        let mut pkts = Vec::with_capacity(UES as usize * PER_UE);
        for _ in 0..PER_UE {
            for ue in 0..UES {
                let ecn = if ue % 2 == 0 { Ecn::Ect1 } else { Ecn::Ect0 };
                let id = sn[ue as usize] as u16;
                let p = PacketBuf::tcp(
                    0x0A00_0000 + u32::from(ue),
                    0xC0A8_0000 + u32::from(ue),
                    ecn,
                    id,
                    &headers[ue as usize],
                    SDU_BYTES,
                );
                pkts.push((ue, p));
                sn[ue as usize] += 1;
            }
        }
        let t_dl = WallInstant::now();
        for (ue, p) in &mut pkts {
            t_us += 30;
            black_box(layer.on_dl_packet(UeId(*ue), DrbId(0), p, Instant::from_micros(t_us)));
        }
        let dl = t_dl.elapsed();
        let msgs: Vec<DlDataDeliveryStatus> = (0..UES)
            .map(|ue| {
                let next = sn[ue as usize];
                DlDataDeliveryStatus {
                    ue: UeId(ue),
                    drb: DrbId(0),
                    highest_txed_sn: Some(next - 1),
                    highest_delivered_sn: Some(next.saturating_sub(1 + PER_UE as u64)),
                    timestamp: Instant::from_micros(t_us),
                    desired_buffer_size: 0,
                }
            })
            .collect();
        let t_fb = WallInstant::now();
        for m in &msgs {
            layer.on_ran_feedback(m, Instant::from_micros(t_us));
        }
        (dl, t_fb.elapsed())
    };
    // Warm the tables (flow entries, rate estimates) before sampling.
    for _ in 0..200 {
        round(&mut layer);
    }
    let mut dl = Vec::new();
    let mut fb = Vec::new();
    let t0 = WallInstant::now();
    while dl.len() < 5 || t0.elapsed() < budget {
        let (d, f) = round(&mut layer);
        dl.push(d.as_nanos() as f64 / (UES as usize * PER_UE) as f64);
        fb.push(f.as_nanos() as f64 / UES as f64);
    }
    (median(&mut dl), median(&mut fb))
}

/// Downlink RLC AM entity at a standing depth of 256 SDUs: enqueue one
/// 1400 B SDU and pull one SDU's worth of transport block per call,
/// with a status report acknowledging everything pulled every 32 SDUs.
fn rlc_enqueue_pull(budget: WallDuration) -> f64 {
    const DEPTH: u64 = 256;
    const BATCH: u64 = 32;
    let cell = CellConfig::default();
    let mut tx = RlcTx::new(RlcMode::Am, cell.rlc_queue_sdus, cell.segment_overhead);
    let pkt = PacketBuf::tcp(
        0x0A00_0000,
        0xC0A8_0000,
        Ecn::Ect1,
        0,
        &data_header(0),
        SDU_BYTES,
    );
    let mut next_sn = 0u64;
    let mut now = Instant::ZERO;
    for _ in 0..DEPTH {
        tx.enqueue(next_sn, pkt, now);
        next_sn += 1;
    }
    let mut txed = Vec::new();
    let budget_bytes = pkt.wire_len() + cell.segment_overhead;
    sample(budget, || {
        let t = WallInstant::now();
        for _ in 0..BATCH {
            now += Duration::from_micros(500);
            tx.enqueue(next_sn, pkt, now);
            next_sn += 1;
            txed.clear();
            black_box(tx.pull_with(budget_bytes, now, &mut txed, |s| {
                black_box(s);
            }));
        }
        let status = RlcStatus {
            ack_sn: next_sn - DEPTH,
            nacks: Vec::new(),
        };
        black_box(tx.on_status(&status, now));
        (t.elapsed(), BATCH)
    })
}

fn candidates(n: usize, rng: &mut SimRng) -> Vec<Candidate> {
    (0..n)
        .map(|i| Candidate {
            ue: UeId(i as u16),
            backlog: rng.range_u64(1_000, 2_000_000) as usize,
            bytes_per_rbg: rng.range_u64(20, 400) as usize,
            avg_throughput: rng.range_f64(100.0, 20_000.0),
        })
        .collect()
}

/// One slot's allocation over `n` backlogged candidates. Each call
/// first nudges one candidate's throughput average, as the EWMA update
/// between slots does, so the ranking keeps changing.
fn alloc(budget: WallDuration, n: usize, seed: u64, pf: bool) -> f64 {
    const BATCH: u64 = 64;
    let mut rng = SimRng::new(seed);
    let mut cands = candidates(n, &mut rng);
    let n_rbgs = CellConfig::default().n_rbgs();
    let mut scratch = AllocScratch::default();
    let mut out = Vec::new();
    let mut cursor = 0usize;
    let mut k = 0usize;
    sample(budget, || {
        let t = WallInstant::now();
        for _ in 0..BATCH {
            k = (k + 7) % n;
            cands[k].avg_throughput = cands[k].avg_throughput * 0.99 + 37.0;
            if pf {
                allocate_proportional_fair_into(&cands, n_rbgs, &mut scratch, &mut out);
            } else {
                allocate_round_robin_into(&cands, n_rbgs, &mut cursor, &mut scratch, &mut out);
            }
            black_box(&out);
        }
        (t.elapsed(), BATCH)
    })
}

/// The simulator's event queue at a standing depth of 4096 pending
/// events: pop the earliest, schedule one new event a pseudo-random
/// 0–50 ms later.
fn queue_push_pop(budget: WallDuration, seed: u64) -> f64 {
    const DEPTH: usize = 4096;
    const BATCH: u64 = 256;
    let mut rng = SimRng::new(seed);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(DEPTH + 1);
    for i in 0..DEPTH as u64 {
        q.schedule(Instant::from_micros(rng.range_u64(0, 50_000)), i);
    }
    let deltas: Vec<Duration> = (0..1024)
        .map(|_| Duration::from_micros(rng.range_u64(1, 50_000)))
        .collect();
    let mut k = 0usize;
    sample(budget, || {
        let t = WallInstant::now();
        for _ in 0..BATCH {
            let (at, ev) = q.pop().expect("queue stays at its standing depth");
            k = (k + 1) % deltas.len();
            q.schedule(at + deltas[k], black_box(ev));
        }
        (t.elapsed(), BATCH)
    })
}

/// One TCP connection driven in memory: data reaches the receiver in
/// send order, 120 µs apart, the receiver's ACKs go back to the sender,
/// and a step marker sets CE above a standing queue of `MARK_ABOVE`
/// packets so the window stays bounded.
struct TcpLoop {
    sender: TcpSender,
    receiver: TcpReceiver,
    in_flight: std::collections::VecDeque<PacketBuf>,
    now: Instant,
    out: Vec<PacketBuf>,
    acks: Vec<PacketBuf>,
}

impl TcpLoop {
    const MARK_ABOVE: usize = 64;

    fn new(cc: CcKind, port: u16) -> TcpLoop {
        let cfg = TcpConfig::new(0x0A00_0001, 0xC0A8_0001, 443, port);
        let cc = cc.make(SDU_BYTES);
        let mode = cc.ecn_mode();
        let mut sender = TcpSender::new(cfg, cc);
        let mut receiver = TcpReceiver::new(cfg, mode);
        let now = Instant::ZERO;
        let syn = receiver.start(now);
        let synack = sender.on_packet(&syn, now);
        let ack = receiver
            .on_packet(&synack[0], now)
            .expect("the handshake ACK answers the SYN-ACK");
        let in_flight = sender.on_packet(&ack, now).into();
        TcpLoop {
            sender,
            receiver,
            in_flight,
            now,
            out: Vec::new(),
            acks: Vec::new(),
        }
    }

    /// Deliver up to 32 data packets, then hand their ACKs to the
    /// sender; returns the time spent in the sender's ACK processing.
    fn step(&mut self) -> (WallDuration, u64) {
        self.acks.clear();
        for _ in 0..32 {
            let Some(mut p) = self.in_flight.pop_front() else {
                break;
            };
            if self.in_flight.len() > Self::MARK_ABOVE && p.ecn() != Ecn::NotEct {
                p.set_ecn(Ecn::Ce);
            }
            self.now += Duration::from_micros(120);
            if let Some(ack) = self.receiver.on_packet(&p, self.now) {
                self.acks.push(ack);
            }
        }
        self.out.clear();
        let t = WallInstant::now();
        for ack in &self.acks {
            self.sender.on_packet_into(ack, self.now, &mut self.out);
        }
        let spent = t.elapsed();
        self.out.extend(self.sender.poll(self.now));
        self.in_flight.extend(self.out.drain(..));
        if self.in_flight.is_empty() {
            // Pacing or a timer holds data back: let time pass.
            self.now += Duration::from_millis(5);
            self.in_flight.extend(self.sender.poll(self.now));
        }
        (spent, self.acks.len() as u64)
    }
}

/// The TCP sender's ACK path (`TcpSender::on_packet_into` with an ACK),
/// alternating a Prague and a CUBIC connection as `cell_dl_mixed` does.
fn tcp_on_ack(budget: WallDuration) -> f64 {
    let mut loops = [
        TcpLoop::new(CcKind::Prague, 50_000),
        TcpLoop::new(CcKind::Cubic, 50_001),
    ];
    for _ in 0..200 {
        for l in &mut loops {
            l.step();
        }
    }
    let mut i = 0usize;
    sample(budget, || {
        i += 1;
        let (mut spent, mut calls) = (WallDuration::ZERO, 0);
        while calls < 16 {
            let (s, c) = loops[i % 2].step();
            spent += s;
            calls += c;
        }
        (spent, calls)
    })
}

/// A 100 Mbit/s DualPi2 router at a standing depth of 64 packets:
/// enqueue one 1400 B packet (alternately L4S and classic) and poll the
/// wire one serialization time later.
fn router_enqueue_poll(budget: WallDuration, seed: u64) -> f64 {
    const BATCH: u64 = 64;
    const RATE: f64 = 100e6;
    let mut r = Router::new(
        RATE,
        4 << 20,
        RouterAqm::DualPi2(DualPi2::default()),
        SimRng::new(seed),
    );
    let pkts = [Ecn::Ect1, Ecn::Ect0]
        .map(|ecn| PacketBuf::tcp(0x0A00_0000, 0xC0A8_0000, ecn, 0, &data_header(0), SDU_BYTES));
    let gap = Duration::from_secs_f64(pkts[0].wire_len() as f64 * 8.0 / RATE);
    let mut now = Instant::ZERO;
    for i in 0..64 {
        r.enqueue(pkts[i % 2], now);
    }
    let mut k = 0usize;
    sample(budget, || {
        let t = WallInstant::now();
        for _ in 0..BATCH {
            k += 1;
            now += gap;
            r.enqueue(pkts[k % 2], now);
            black_box(r.poll(now));
        }
        (t.elapsed(), BATCH)
    })
}

/// Run every microbenchmark, sharing `total` time between them equally;
/// returns `(metric name, ns per call)` in a fixed order.
pub fn run_all(total: WallDuration, seed: u64) -> Vec<(&'static str, f64)> {
    const BENCHES: u32 = 8;
    let budget = total / BENCHES;
    let (dl, fb) = core_marker(budget, seed);
    vec![
        ("core.on_dl_packet_ns", dl),
        ("core.on_ran_feedback_ns", fb),
        ("ran.rlc_enqueue_pull_ns", rlc_enqueue_pull(budget)),
        ("ran.pf_alloc_16ue_ns", alloc(budget, 16, seed, true)),
        ("ran.pf_alloc_1000ue_ns", alloc(budget, 1000, seed, true)),
        ("ran.rr_alloc_16ue_ns", alloc(budget, 16, seed, false)),
        ("sim.queue_push_pop_ns", queue_push_pop(budget, seed)),
        ("cc.tcp_on_ack_ns", tcp_on_ack(budget)),
        (
            "aqm.router_enqueue_poll_ns",
            router_enqueue_poll(budget, seed),
        ),
    ]
}
