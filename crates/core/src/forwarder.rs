//! The chain ingress element (paper §5.1).
//!
//! The forwarder "receives incoming packets from the outside world and
//! piggyback messages from the buffer" and "adds state updates from the
//! buffer to incoming packets before forwarding the packets to the first
//! middlebox". When no carrier comes for pending logs it emits a
//! *propagating packet* so held state keeps flowing.
//!
//! The propagation timer is event-driven and lives in the thread that
//! ingests feedback: it sleeps on the feedback link only until
//! `max(oldest pending arrival, last ingress) + propagate_timeout`, and
//! not at all for the timer while nothing is pending. The ingress loop
//! does no timer work.

use crate::journal::{EventKind, EventSource};
use crate::metrics::ChainMetrics;
use crate::probe::{ProbePoint, ProbeSlot};
use bytes::BytesMut;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use ftc_net::nic::Nic;
use ftc_net::server::AliveToken;
use ftc_packet::ether::MacAddr;
use ftc_packet::piggyback::{PiggybackLog, PiggybackMessage, TrailerView};
use ftc_packet::pool::{log_vec_pool, Checkout, Pool};
use ftc_packet::{packet, Packet};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum feedback logs attached to a single packet; the rest wait for the
/// next packet (bounds trailer growth).
pub const MAX_LOGS_PER_PACKET: usize = 32;

/// How long the forwarder threads block before re-checking that their
/// server is alive. Not a protocol timer.
const LIVENESS_POLL: Duration = Duration::from_millis(1);

/// Feedback logs awaiting a carrier, with the stamps the propagation
/// timer is counted from.
#[derive(Default)]
struct Pending {
    logs: VecDeque<PiggybackLog>,
    /// Arrival of the oldest log still pending; `None` while empty. After
    /// a partial drain the stamp stays, so it may be older than the oldest
    /// remaining log: the timer then fires early, never late.
    since: Option<Instant>,
    /// When the last ingress packet passed (it carried whatever was
    /// pending then).
    last_ingress: Option<Instant>,
}

impl Pending {
    /// When a propagating packet is due: `timeout` after the later of the
    /// oldest pending arrival and the last ingress packet. `None` while
    /// nothing is pending.
    fn due(&self, timeout: Duration) -> Option<Instant> {
        let since = self.since?;
        Some(self.last_ingress.map_or(since, |t| t.max(since)) + timeout)
    }
}

/// Shared forwarder state.
pub struct ForwarderState {
    pending: Mutex<Pending>,
    /// Recycled staging vectors for attaching pending logs to carriers:
    /// steady state drains into a pooled vector and returns it after the
    /// trailer is encoded, so per-packet attachment allocates nothing.
    staging: Pool<Vec<PiggybackLog>>,
    metrics: Arc<ChainMetrics>,
    /// Model-checker hook: observes feedback ingestion (the wrapped-log leg
    /// of the ring the I1/I4 invariants reason over).
    pub probe: ProbeSlot,
}

impl ForwarderState {
    /// Creates forwarder state.
    pub fn new(metrics: Arc<ChainMetrics>) -> Arc<ForwarderState> {
        Arc::new(ForwarderState {
            pending: Mutex::new(Pending::default()),
            staging: log_vec_pool(8),
            metrics,
            probe: ProbeSlot::new(),
        })
    }

    /// Ingests a feedback message from the buffer.
    ///
    /// The frame is validated with a borrowed [`TrailerView`] first (garbage
    /// never reaches the allocator), then decoded zero-copy: the pended
    /// logs' keys/values share the frame's allocation.
    pub fn ingest_feedback(&self, frame: BytesMut) {
        self.ingest_feedback_at(frame, Instant::now());
    }

    fn ingest_feedback_at(&self, frame: BytesMut, now: Instant) {
        if !matches!(TrailerView::parse_trailing(&frame), Ok(Some(_))) {
            return;
        }
        let frame = frame.freeze();
        if let Ok(Some((msg, _))) = PiggybackMessage::decode_trailing_shared(&frame) {
            let mut pending = self.pending.lock();
            pending.logs.extend(msg.logs);
            let logs = pending.logs.len();
            if logs > 0 && pending.since.is_none() {
                pending.since = Some(now);
            }
            drop(pending);
            self.probe
                .observe_with(|| ProbePoint::ForwarderFeedback { logs });
        }
    }

    /// Number of feedback logs waiting for a carrier.
    pub fn pending_len(&self) -> usize {
        self.pending.lock().logs.len()
    }

    /// When a propagating packet is due if no carrier comes first:
    /// `timeout` after the later of the oldest pending log's arrival and
    /// the last ingress packet. `None` while nothing is pending.
    fn propagate_due(&self, timeout: Duration) -> Option<Instant> {
        self.pending.lock().due(timeout)
    }

    /// Discards pending feedback logs. Called when the buffer is respawned
    /// after a last-server failure: the old logs belong to transactions of
    /// the dead replica whose packets were never released, and their
    /// sequence numbers will be reissued by the replacement — mixing the
    /// two histories would race stale content against fresh content.
    pub fn clear_pending(&self) {
        let mut pending = self.pending.lock();
        pending.logs.clear();
        pending.since = None;
    }

    /// Drains up to [`MAX_LOGS_PER_PACKET`] pending logs into a pooled
    /// staging vector for the next carrier packet.
    fn stage(&self, pending: &mut Pending) -> Checkout<Vec<PiggybackLog>> {
        let mut staged = self.staging.checkout();
        let take = pending.logs.len().min(MAX_LOGS_PER_PACKET);
        staged.extend(pending.logs.drain(..take));
        if pending.logs.is_empty() {
            pending.since = None;
        }
        staged
    }

    /// Processes one external packet: attach pending feedback and dispatch
    /// into the first replica's NIC.
    pub fn handle_ingress(&self, frame: BytesMut, nic: &Nic) {
        self.handle_ingress_at(frame, nic, Instant::now());
    }

    fn handle_ingress_at(&self, frame: BytesMut, nic: &Nic, now: Instant) {
        let t0 = Instant::now();
        let Ok(mut pkt) = Packet::from_frame(frame) else {
            return; // not IPv4: drop at ingress
        };
        // Drain and dispatch under one lock, as propagating packets do:
        // logs enter the NIC in the order they left the queue.
        let mut pending = self.pending.lock();
        pending.last_ingress = Some(now);
        let staged = self.stage(&mut pending);
        if pkt.attach_piggyback_parts(0, &staged, &[]).is_err() {
            return; // staged logs die with the packet (resent by the buffer)
        }
        drop(staged); // back to the pool, cleared
        self.metrics.injected.fetch_add(1, Ordering::Relaxed);
        self.metrics.t_forwarder.record(t0.elapsed());
        self.metrics
            .journal
            .record(EventSource::Forwarder, EventKind::PacketInjected);
        nic.dispatch(pkt.into_bytes());
    }

    /// Emits a propagating packet if one is due at `now`: logs are
    /// pending and `timeout` has passed since the later of the oldest
    /// pending log's arrival and the last ingress packet. A zero
    /// `timeout` sends whatever is pending. The due check, the drain and the dispatch
    /// happen under one lock, so a carrier can neither take the logs in
    /// between nor overtake the propagating packet into the NIC.
    pub fn propagate_if_due(&self, now: Instant, timeout: Duration, nic: &Nic) -> bool {
        let mut pending = self.pending.lock();
        match pending.due(timeout) {
            Some(due) if due <= now => {}
            _ => return false,
        }
        let staged = self.stage(&mut pending);
        debug_assert!(!staged.is_empty(), "a due time implies pending logs");
        let prop = packet::propagating_packet_from_logs(
            MacAddr::from_index(0xF0),
            MacAddr::from_index(0xF1),
            &staged,
        );
        self.metrics.propagating.fetch_add(1, Ordering::Relaxed);
        nic.dispatch(prop.into_bytes());
        true
    }
}

/// Spawns the forwarder threads onto the first server.
///
/// `ingress` carries external traffic; `feedback` carries encoded piggyback
/// messages from the buffer; both feed `nic` (the first replica's NIC).
/// The feedback thread also owns the propagation timer (§5.1): "upon the
/// timeout, the forwarder sends a propagating packet carrying a piggyback
/// message it has received from the buffer."
pub fn spawn_forwarder(
    server: &mut ftc_net::Server,
    state: Arc<ForwarderState>,
    ingress: Receiver<BytesMut>,
    feedback: Arc<crate::control::InPort>,
    nic: Arc<Nic>,
    propagate_timeout: Duration,
) {
    {
        let state = Arc::clone(&state);
        let nic = Arc::clone(&nic);
        server.spawn("forwarder", move |alive: AliveToken| {
            while alive.is_alive() {
                match ingress.recv_timeout(LIVENESS_POLL) {
                    Ok(frame) => state.handle_ingress(frame, &nic),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        });
    }
    server.spawn("forwarder-feedback", move |alive: AliveToken| {
        while alive.is_alive() {
            let wait = match state.propagate_due(propagate_timeout) {
                None => LIVENESS_POLL,
                Some(due) => {
                    let now = Instant::now();
                    if due <= now {
                        state.propagate_if_due(now, propagate_timeout, &nic);
                        continue;
                    }
                    (due - now).min(LIVENESS_POLL)
                }
            };
            if let Some(frame) = feedback.recv_timeout(wait) {
                state.ingest_feedback(frame);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_packet::builder::UdpPacketBuilder;
    use ftc_packet::piggyback::{DepVector, MboxId};

    fn feedback_frame(n_logs: usize) -> BytesMut {
        let logs = (0..n_logs)
            .map(|i| PiggybackLog {
                mbox: MboxId(7),
                deps: DepVector::from_entries(vec![(0, i as u64)]).unwrap(),
                writes: vec![],
            })
            .collect();
        let msg = PiggybackMessage {
            flags: 0,
            logs,
            commits: vec![],
        };
        let mut b = BytesMut::new();
        msg.encode(&mut b);
        b
    }

    fn take_one(nic_rx: &crossbeam::channel::Receiver<BytesMut>) -> (Packet, PiggybackMessage) {
        let frame = nic_rx.recv_timeout(Duration::from_millis(100)).unwrap();
        let mut pkt = Packet::from_frame(frame).unwrap();
        let msg = pkt.detach_piggyback().unwrap().unwrap_or_default();
        (pkt, msg)
    }

    #[test]
    fn ingress_attaches_pending_feedback() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(metrics);
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        fwd.ingest_feedback(feedback_frame(3));
        assert_eq!(fwd.pending_len(), 3);
        fwd.handle_ingress(UdpPacketBuilder::new().build().into_bytes(), &nic);
        let (_, msg) = take_one(&rx);
        assert_eq!(msg.logs.len(), 3);
        assert!(!msg.is_propagating());
        assert_eq!(fwd.pending_len(), 0);
    }

    #[test]
    fn feedback_overflow_spreads_across_packets() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(metrics);
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        fwd.ingest_feedback(feedback_frame(MAX_LOGS_PER_PACKET + 5));
        fwd.handle_ingress(UdpPacketBuilder::new().build().into_bytes(), &nic);
        let (_, m1) = take_one(&rx);
        assert_eq!(m1.logs.len(), MAX_LOGS_PER_PACKET);
        fwd.handle_ingress(UdpPacketBuilder::new().build().into_bytes(), &nic);
        let (_, m2) = take_one(&rx);
        assert_eq!(m2.logs.len(), 5);
    }

    #[test]
    fn idle_propagating_packet_carries_feedback() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(Arc::clone(&metrics));
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        let now = Instant::now;
        assert!(
            !fwd.propagate_if_due(now(), Duration::ZERO, &nic),
            "nothing pending: no packet"
        );
        fwd.ingest_feedback(feedback_frame(2));
        assert!(fwd.propagate_if_due(now(), Duration::ZERO, &nic));
        let (_, msg) = take_one(&rx);
        assert!(msg.is_propagating());
        assert_eq!(msg.logs.len(), 2);
        assert_eq!(metrics.propagating.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn emit_on_pre_drained_queue_sends_nothing() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(Arc::clone(&metrics));
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        let t0 = Instant::now();
        let timeout = Duration::from_micros(20);
        fwd.ingest_feedback_at(feedback_frame(2), t0);
        // A carrier drains the queue before the timer gets to it.
        fwd.handle_ingress_at(UdpPacketBuilder::new().build().into_bytes(), &nic, t0);
        let (_, carried) = take_one(&rx);
        assert_eq!(carried.logs.len(), 2);
        assert!(!fwd.propagate_if_due(t0, Duration::ZERO, &nic));
        assert!(!fwd.propagate_if_due(t0 + 10 * timeout, timeout, &nic));
        assert!(rx.try_recv().is_err(), "no empty propagating packet");
        assert_eq!(metrics.propagating.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn due_time_counts_from_later_of_arrival_and_last_ingress() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(Arc::clone(&metrics));
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        let t0 = Instant::now();
        let timeout = Duration::from_micros(20);
        let us = Duration::from_micros;

        // Ingress before the log arrived: the arrival is the later stamp.
        fwd.handle_ingress_at(UdpPacketBuilder::new().build().into_bytes(), &nic, t0);
        let _ = take_one(&rx);
        fwd.ingest_feedback_at(feedback_frame(3), t0 + us(10));
        assert_eq!(fwd.propagate_due(timeout), Some(t0 + us(10) + timeout));
        assert!(fwd.propagate_if_due(t0 + us(10) + timeout, timeout, &nic));
        let _ = take_one(&rx);
        assert_eq!(fwd.propagate_due(timeout), None);

        // A carrier that leaves a remainder: the ingress is the later
        // stamp, so the timer restarts from it.
        fwd.ingest_feedback_at(feedback_frame(MAX_LOGS_PER_PACKET + 8), t0 + us(100));
        fwd.handle_ingress_at(
            UdpPacketBuilder::new().build().into_bytes(),
            &nic,
            t0 + us(150),
        );
        let _ = take_one(&rx);
        let due = t0 + us(150) + timeout;
        assert_eq!(fwd.propagate_due(timeout), Some(due));
        assert!(!fwd.propagate_if_due(due - Duration::from_nanos(1), timeout, &nic));
        assert!(fwd.propagate_if_due(due, timeout, &nic));
        let (_, msg) = take_one(&rx);
        assert!(msg.is_propagating());
        assert_eq!(msg.logs.len(), 8);
        assert_eq!(metrics.propagating.load(Ordering::Relaxed), 2);
        assert_eq!(fwd.propagate_due(timeout), None);
    }

    #[test]
    fn carrier_inside_window_preempts_propagation() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(Arc::clone(&metrics));
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        let t0 = Instant::now();
        let timeout = Duration::from_micros(20);
        fwd.ingest_feedback_at(feedback_frame(2), t0);
        fwd.handle_ingress_at(
            UdpPacketBuilder::new().build().into_bytes(),
            &nic,
            t0 + timeout / 2,
        );
        let (_, msg) = take_one(&rx);
        assert!(!msg.is_propagating());
        assert_eq!(msg.logs.len(), 2);
        for late in [timeout, 10 * timeout] {
            assert!(!fwd.propagate_if_due(t0 + late, timeout, &nic));
        }
        assert!(rx.try_recv().is_err());
        assert_eq!(metrics.propagating.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn clear_pending_clears_arrival_stamp() {
        let fwd = ForwarderState::new(Arc::new(ChainMetrics::default()));
        let t0 = Instant::now();
        let timeout = Duration::from_micros(20);
        fwd.ingest_feedback_at(feedback_frame(2), t0);
        fwd.clear_pending();
        assert_eq!(fwd.propagate_due(timeout), None);
        let t1 = t0 + Duration::from_millis(5);
        fwd.ingest_feedback_at(feedback_frame(1), t1);
        assert_eq!(fwd.propagate_due(timeout), Some(t1 + timeout));
    }

    #[test]
    fn nothing_pending_has_no_due_time() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(Arc::clone(&metrics));
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        let t0 = Instant::now();
        let timeout = Duration::from_micros(20);
        assert_eq!(fwd.propagate_due(timeout), None);
        fwd.handle_ingress_at(UdpPacketBuilder::new().build().into_bytes(), &nic, t0);
        let _ = take_one(&rx);
        assert_eq!(fwd.propagate_due(timeout), None);
        assert!(!fwd.propagate_if_due(t0 + Duration::from_secs(1), timeout, &nic));
        assert_eq!(metrics.propagating.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn garbage_ingress_dropped() {
        let metrics = Arc::new(ChainMetrics::default());
        let fwd = ForwarderState::new(Arc::clone(&metrics));
        let mut nic = Nic::new(1, 64);
        let rx = nic.take_queue(0);
        fwd.handle_ingress(BytesMut::from(&b"junk"[..]), &nic);
        assert!(rx.try_recv().is_err());
        assert_eq!(metrics.injected.load(Ordering::Relaxed), 0);
    }
}
