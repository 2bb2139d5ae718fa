//! One interface for a flow's sender–receiver pair: the [`Transport`]
//! trait the harness drives every flow through, whatever protocol it
//! runs, plus its implementations for TCP, SCReAM, UDP Prague and the
//! FEC media endpoint.
//!
//! The harness only moves packets: it carries what the sender releases
//! toward the receiver and what the receiver emits back toward the
//! sender, in whichever direction the flow's data travels. Everything
//! protocol-specific stays behind the trait — including the out-of-band
//! feedback payloads of the UDP protocols, which each implementation
//! keeps keyed by the IP ident of the feedback packet carrying them (the
//! payload is opaque on the wire) until that packet reaches the sender.

use l4span_net::PacketBuf;
use l4span_sim::{Duration, FxHashMap, Instant};

use crate::cc::CcEvent;
use crate::fec::{FecFeedback, FecMediaReceiver, FecMediaSender, FecReceiverCore, FecSenderCore};
use crate::scream::{FrameMark, ScreamFeedback, ScreamReceiver, ScreamSender};
use crate::tcp::{TcpReceiver, TcpSender};
use crate::udp_prague::{PragueFeedback, UdpPragueReceiver, UdpPragueSender};

/// What a sender released in one call. The buffers are drained by the
/// caller and reused across calls.
#[derive(Debug, Default)]
pub struct Released {
    /// Data packets for the flow's data path. On a bonded flow the
    /// harness picks each packet's leg.
    pub pkts: Vec<PacketBuf>,
    /// Data packets the sender striped itself, tagged with their leg.
    pub legs: Vec<(u8, PacketBuf)>,
    /// Encoder frame marks: which data packet closes which frame.
    pub marks: Vec<FrameMark>,
}

/// How a transport rides a bonded (two-leg) path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bonding {
    /// The transport cannot be bonded.
    Unsupported,
    /// A byte stream: the harness stripes [`Released::pkts`] across the
    /// legs and restores transmission order before the receiver.
    Striped,
    /// The sender stripes its own releases ([`Released::legs`]) and the
    /// receiver sequences arrivals itself.
    SelfStriped,
}

/// A flow's sender and receiver, driven by the harness.
///
/// "Data" travels from sender to receiver, "feedback" (ACKs, SYNs,
/// reports) from receiver to sender. Methods with a default body are
/// capabilities only some transports have.
pub trait Transport: Send {
    /// Open the flow. Returns a receiver-side packet to carry to the
    /// sender (a TCP SYN), or `None` when the sender is self-clocked and
    /// wants its first [`Transport::poll`] right away.
    fn start(&mut self, _now: Instant) -> Option<PacketBuf> {
        None
    }

    /// Quiesce the sender.
    fn stop(&mut self);

    /// Sender timer: release whatever is due.
    fn poll(&mut self, now: Instant, out: &mut Released);

    /// When the sender next wants [`Transport::poll`].
    fn next_activity(&self) -> Option<Instant>;

    /// A feedback packet reaches the sender. Releases what it unblocks
    /// and returns an RTT sample when the feedback produced one.
    fn on_feedback(
        &mut self,
        pkt: &PacketBuf,
        now: Instant,
        out: &mut Released,
    ) -> Option<Duration>;

    /// A data packet reaches the receiver over bond leg `leg` (0 when
    /// unbonded). Returns the feedback packet it triggers, if any.
    fn on_data(&mut self, pkt: &PacketBuf, leg: u8, now: Instant) -> Option<PacketBuf>;

    /// Whether the receiver needs [`Transport::poll_feedback`] ticks.
    fn flushes_feedback(&self) -> bool {
        false
    }

    /// Receiver timer: flush feedback the receiver held back.
    fn poll_feedback(&mut self, _now: Instant) -> Option<PacketBuf> {
        None
    }

    /// In-order bytes the receiver has delivered, for byte-stream
    /// transports (completes the application's stream units).
    fn stream_watermark(&self) -> Option<u64> {
        None
    }

    /// The sender delivered everything its application offered.
    fn finished(&self) -> bool {
        false
    }

    /// The sender's sustainable rate in bit/s, for application rate
    /// adaptation.
    fn rate_estimate_bps(&self) -> Option<f64> {
        None
    }

    /// Offer application bytes. `false` when the transport takes no
    /// application input or its stream is sealed.
    fn offer(&mut self, _bytes: u64) -> bool {
        false
    }

    /// The application will offer nothing more.
    fn close_app(&mut self) {}

    /// Frames the transport's built-in media source generated.
    fn frames_generated(&self) -> Option<u64> {
        None
    }

    /// The shared-bottleneck verdict over a bonded flow's legs.
    fn set_coupled(&mut self, _coupled: bool) {}

    /// How this transport rides a bonded path.
    fn bonding(&self) -> Bonding {
        Bonding::Unsupported
    }

    /// Drain the sender's congestion-control transitions.
    fn take_cc_events(&mut self) -> Vec<CcEvent> {
        Vec::new()
    }

    /// Close the FEC/ARQ ledger at `end` and return the sender's and
    /// receiver's codec counters.
    fn close_fec(&mut self, _end: Instant) -> Option<(&FecSenderCore, &FecReceiverCore)> {
        None
    }
}

/// Feedback payloads held until the packet carrying them (keyed by its
/// IP ident) reaches the sender.
struct Pending<F>(FxHashMap<u16, F>);

impl<F> Pending<F> {
    fn new() -> Pending<F> {
        Pending(FxHashMap::default())
    }

    /// Hold a receiver's payload; the packet goes on the wire.
    fn hold(&mut self, (pkt, fb): (PacketBuf, F)) -> PacketBuf {
        self.0.insert(pkt.identification(), fb);
        pkt
    }

    /// The payload riding `pkt`, if it carries one.
    fn take(&mut self, pkt: &PacketBuf) -> Option<F> {
        self.0.remove(&pkt.identification())
    }
}

/// TCP: a byte-stream sender and its ACK-clocked receiver.
pub struct TcpTransport {
    sender: TcpSender,
    receiver: TcpReceiver,
}

impl TcpTransport {
    /// Pair `sender` with a receiver for its connection, in the ECN
    /// mode its congestion controller speaks.
    pub fn new(sender: TcpSender) -> TcpTransport {
        let receiver = TcpReceiver::new(*sender.config(), sender.cc().ecn_mode());
        TcpTransport { sender, receiver }
    }
}

impl Transport for TcpTransport {
    fn start(&mut self, now: Instant) -> Option<PacketBuf> {
        // The receiver opens the connection.
        Some(self.receiver.start(now))
    }

    fn stop(&mut self) {
        self.sender.stop();
    }

    fn poll(&mut self, now: Instant, out: &mut Released) {
        self.sender.poll_into(now, &mut out.pkts);
    }

    fn next_activity(&self) -> Option<Instant> {
        self.sender.next_activity()
    }

    fn on_feedback(
        &mut self,
        pkt: &PacketBuf,
        now: Instant,
        out: &mut Released,
    ) -> Option<Duration> {
        self.sender.on_packet_into(pkt, now, &mut out.pkts);
        self.sender.srtt()
    }

    fn on_data(&mut self, pkt: &PacketBuf, _leg: u8, now: Instant) -> Option<PacketBuf> {
        self.receiver.on_packet(pkt, now)
    }

    fn stream_watermark(&self) -> Option<u64> {
        Some(self.receiver.received)
    }

    fn finished(&self) -> bool {
        self.sender.finished()
    }

    fn rate_estimate_bps(&self) -> Option<f64> {
        self.sender.rate_estimate_bps()
    }

    fn offer(&mut self, bytes: u64) -> bool {
        self.sender.offer(bytes)
    }

    fn close_app(&mut self) {
        self.sender.close_app();
    }

    fn bonding(&self) -> Bonding {
        Bonding::Striped
    }

    fn take_cc_events(&mut self) -> Vec<CcEvent> {
        self.sender.take_cc_events()
    }
}

/// SCReAM media over RTP/UDP: the sender runs its own encoder.
pub struct ScreamTransport {
    sender: ScreamSender,
    receiver: ScreamReceiver,
    pending: Pending<ScreamFeedback>,
}

impl ScreamTransport {
    /// Pair a sender with its receiver.
    pub fn new(sender: ScreamSender, receiver: ScreamReceiver) -> ScreamTransport {
        ScreamTransport {
            sender,
            receiver,
            pending: Pending::new(),
        }
    }
}

impl Transport for ScreamTransport {
    fn stop(&mut self) {
        self.sender.stop();
    }

    fn poll(&mut self, now: Instant, out: &mut Released) {
        self.sender.poll_into(now, &mut out.pkts);
        self.sender.take_frame_marks_into(&mut out.marks);
    }

    fn next_activity(&self) -> Option<Instant> {
        Some(self.sender.next_activity())
    }

    fn on_feedback(
        &mut self,
        pkt: &PacketBuf,
        now: Instant,
        out: &mut Released,
    ) -> Option<Duration> {
        let rtt = self.pending.take(pkt).map(|fb| {
            self.sender.on_feedback(&fb, now);
            self.sender.srtt()
        });
        self.poll(now, out);
        rtt
    }

    fn on_data(&mut self, pkt: &PacketBuf, _leg: u8, now: Instant) -> Option<PacketBuf> {
        let fb = self.receiver.on_packet(pkt, now)?;
        Some(self.pending.hold(fb))
    }

    fn flushes_feedback(&self) -> bool {
        true
    }

    fn poll_feedback(&mut self, now: Instant) -> Option<PacketBuf> {
        let fb = self.receiver.poll(now)?;
        Some(self.pending.hold(fb))
    }

    fn frames_generated(&self) -> Option<u64> {
        Some(self.sender.frames_generated)
    }
}

/// Self-clocked UDP Prague.
pub struct UdpPragueTransport {
    sender: UdpPragueSender,
    receiver: UdpPragueReceiver,
    pending: Pending<PragueFeedback>,
}

impl UdpPragueTransport {
    /// Pair a sender with its receiver.
    pub fn new(sender: UdpPragueSender, receiver: UdpPragueReceiver) -> UdpPragueTransport {
        UdpPragueTransport {
            sender,
            receiver,
            pending: Pending::new(),
        }
    }
}

impl Transport for UdpPragueTransport {
    fn stop(&mut self) {
        self.sender.stop();
    }

    fn poll(&mut self, now: Instant, out: &mut Released) {
        self.sender.poll_into(now, &mut out.pkts);
    }

    fn next_activity(&self) -> Option<Instant> {
        Some(self.sender.next_activity())
    }

    fn on_feedback(
        &mut self,
        pkt: &PacketBuf,
        now: Instant,
        out: &mut Released,
    ) -> Option<Duration> {
        let rtt = self.pending.take(pkt).and_then(|fb| {
            self.sender.on_feedback(&fb, now);
            self.sender.srtt()
        });
        self.poll(now, out);
        rtt
    }

    fn on_data(&mut self, pkt: &PacketBuf, _leg: u8, now: Instant) -> Option<PacketBuf> {
        let fb = self.receiver.on_packet(pkt, now)?;
        Some(self.pending.hold(fb))
    }

    fn flushes_feedback(&self) -> bool {
        true
    }

    fn poll_feedback(&mut self, now: Instant) -> Option<PacketBuf> {
        let fb = self.receiver.poll(now)?;
        Some(self.pending.hold(fb))
    }

    fn take_cc_events(&mut self) -> Vec<CcEvent> {
        self.sender.take_events()
    }
}

/// The sliding-window FEC/ARQ media endpoint (uplink only in the
/// harness); on a bonded flow it stripes and sequences for itself.
pub struct FecMediaTransport {
    sender: FecMediaSender,
    receiver: FecMediaReceiver,
    pending: Pending<FecFeedback>,
}

impl FecMediaTransport {
    /// Pair a sender with its receiver.
    pub fn new(sender: FecMediaSender, receiver: FecMediaReceiver) -> FecMediaTransport {
        FecMediaTransport {
            sender,
            receiver,
            pending: Pending::new(),
        }
    }
}

impl Transport for FecMediaTransport {
    fn stop(&mut self) {
        self.sender.stop();
    }

    fn poll(&mut self, now: Instant, out: &mut Released) {
        self.sender.poll_into(now, &mut out.legs);
    }

    fn next_activity(&self) -> Option<Instant> {
        Some(self.sender.next_activity())
    }

    fn on_feedback(
        &mut self,
        pkt: &PacketBuf,
        now: Instant,
        out: &mut Released,
    ) -> Option<Duration> {
        let rtt = self.pending.take(pkt).and_then(|fb| {
            self.sender.on_feedback(&fb, now);
            self.sender.leg_srtt(0)
        });
        self.poll(now, out);
        rtt
    }

    fn on_data(&mut self, pkt: &PacketBuf, leg: u8, now: Instant) -> Option<PacketBuf> {
        let fb = self.receiver.on_packet(pkt, leg, now)?;
        Some(self.pending.hold(fb))
    }

    fn flushes_feedback(&self) -> bool {
        true
    }

    fn poll_feedback(&mut self, now: Instant) -> Option<PacketBuf> {
        let fb = self.receiver.poll(now)?;
        Some(self.pending.hold(fb))
    }

    fn set_coupled(&mut self, coupled: bool) {
        self.receiver.set_coupled(coupled);
    }

    fn bonding(&self) -> Bonding {
        Bonding::SelfStriped
    }

    fn close_fec(&mut self, end: Instant) -> Option<(&FecSenderCore, &FecReceiverCore)> {
        self.receiver.close(self.sender.codec().offered, end);
        Some((self.sender.codec(), self.receiver.codec()))
    }
}
