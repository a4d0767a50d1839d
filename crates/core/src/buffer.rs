//! The chain egress element (paper §5.1).
//!
//! The buffer "holds a packet until the state updates associated with all
//! middleboxes of the chain have been replicated" and "forwards state
//! updates to the forwarder for middleboxes with replicas at the beginning
//! of the chain". Concretely: a packet arriving at the buffer still carries
//! the piggyback logs of the *wrapped* middleboxes (the last `f`); the
//! buffer extracts those logs, sends them to the forwarder (to ride
//! incoming packets around the ring), and withholds the packet until later
//! commit vectors dominate its logs' dependency vectors.

use crate::config::RingMath;
use crate::control::{InPort, OutPort};
use crate::journal::{EventKind, EventSource};
use crate::metrics::ChainMetrics;
use crate::probe::{ProbePoint, ProbeSlot};
use bytes::BytesMut;
use crossbeam::channel::Sender;
use ftc_net::server::AliveToken;
use ftc_packet::piggyback::{
    batch_wire_len, encode_batch, DepVector, PiggybackLog, PiggybackMessage,
};
use ftc_packet::Packet;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum logs per feedback message.
const MAX_FEEDBACK_LOGS: usize = 32;

struct HeldPacket {
    pkt: Packet,
    /// `(mbox, deps)` pairs that must be committed before release.
    reqs: Vec<(usize, DepVector)>,
}

struct BufInner {
    held: VecDeque<HeldPacket>,
    /// Merged commit `MAX` per wrapped middlebox.
    commits: HashMap<usize, Vec<u64>>,
    /// Wrapped logs not yet confirmed committed — kept for periodic resend
    /// so in-flight loss (including replica failure) self-heals; replicas
    /// deduplicate via the stale rule.
    uncommitted: Vec<PiggybackLog>,
    /// Logs to ship to the forwarder on the next flush.
    fresh: Vec<PiggybackLog>,
}

/// Shared buffer state.
pub struct BufferState {
    ring: RingMath,
    inner: Mutex<BufInner>,
    egress: Sender<Packet>,
    feedback: Arc<OutPort>,
    metrics: Arc<ChainMetrics>,
    /// Model-checker hook: observes every release decision (the `f+1`
    /// replication proof point for invariant I1).
    pub probe: ProbeSlot,
    /// Negative-fixture switch: when set, the release rule is off by one
    /// (`MAX[p] >= seq` instead of `> seq`). Never set in production; the
    /// audit crate uses it to prove the model checker catches I1 bugs.
    sabotage_early: std::sync::atomic::AtomicBool,
}

impl BufferState {
    /// Creates buffer state. Released packets go to `egress`; feedback
    /// messages go out through `feedback` (a reliable link to the
    /// forwarder).
    pub fn new(
        ring: RingMath,
        egress: Sender<Packet>,
        feedback: Arc<OutPort>,
        metrics: Arc<ChainMetrics>,
    ) -> Arc<BufferState> {
        Arc::new(BufferState {
            ring,
            inner: Mutex::new(BufInner {
                held: VecDeque::new(),
                commits: HashMap::new(),
                uncommitted: Vec::new(),
                fresh: Vec::new(),
            }),
            egress,
            feedback,
            metrics,
            probe: ProbeSlot::new(),
            sabotage_early: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Intentionally breaks the release rule by one commit-vector entry
    /// (`MAX[p] >= seq` instead of the paper's strict `> seq`): a packet can
    /// then egress before its own state update is `f+1`-replicated. Test
    /// fixture for the protocol model checker's I1 witness; never called by
    /// production code.
    #[doc(hidden)]
    pub fn sabotage_early_release(&self) {
        self.sabotage_early.store(true, Ordering::Release);
    }

    /// Number of packets currently withheld.
    pub fn held_len(&self) -> usize {
        self.inner.lock().held.len()
    }

    /// Number of wrapped logs awaiting commit confirmation.
    pub fn uncommitted_len(&self) -> usize {
        self.inner.lock().uncommitted.len()
    }

    /// Processes one frame arriving from the last replica.
    pub fn handle_frame(&self, frame: BytesMut) {
        let t0 = Instant::now();
        let Ok(mut pkt) = Packet::from_frame(frame) else {
            return;
        };
        let msg = match pkt.detach_piggyback() {
            Ok(Some(m)) => m,
            Ok(None) => PiggybackMessage::default(),
            Err(_) => return,
        };
        let mut inner = self.inner.lock();

        // 1. Merge commit vectors.
        for c in &msg.commits {
            let entry = inner.commits.entry(c.mbox.0 as usize).or_default();
            if c.max.len() > entry.len() {
                entry.resize(c.max.len(), 0);
            }
            for (i, &v) in c.max.iter().enumerate() {
                if v > entry[i] {
                    entry[i] = v;
                }
            }
        }

        // 2. Extract wrapped logs: they become release requirements for this
        //    packet and feedback for the forwarder. Logs are MOVED into the
        //    fresh set (flush sends them, then shifts them into the
        //    uncommitted backlog) — no per-log clone on this path.
        let is_propagating = msg.is_propagating();
        let mut reqs = Vec::new();
        for log in msg.logs {
            let m = log.mbox.0 as usize;
            if !log.deps.is_empty() {
                reqs.push((m, log.deps.clone()));
            }
            inner.fresh.push(log);
        }

        // 3. Hold or release this packet.
        if !is_propagating {
            if reqs.is_empty() {
                // Fully replicated (or read-only): release immediately.
                drop(inner);
                self.metrics.t_buffer.record(t0.elapsed());
                self.probe
                    .observe_with(|| ProbePoint::BufferRelease { reqs: Vec::new() });
                self.release(pkt);
                let mut inner = self.inner.lock();
                self.sweep(&mut inner);
                self.flush_feedback(&mut inner);
                return;
            }
            inner.held.push_back(HeldPacket { pkt, reqs });
            self.metrics
                .held
                .store(inner.held.len() as u64, Ordering::Relaxed);
        }

        // 4. Release whatever the merged commits now cover, prune, flush.
        self.sweep(&mut inner);
        self.flush_feedback(&mut inner);
        self.metrics.t_buffer.record(t0.elapsed());
    }

    /// Re-sends uncommitted logs (timer path) so that logs lost in flight —
    /// e.g. during a failure — eventually replicate; also polls the
    /// feedback link for ACK/NACK processing.
    pub fn tick(&self) {
        let mut inner = self.inner.lock();
        self.sweep(&mut inner);
        // Resend *everything* uncommitted: completion order at the last
        // replica can diverge arbitrarily from commit order, so any
        // fixed-size prefix could miss the gap log and livelock the ring.
        // Replicas drop duplicates via the stale rule. The batch encoder
        // serializes straight from the backlog slice — the old path deep-
        // cloned the whole backlog every tick.
        for chunk in inner.uncommitted.chunks(MAX_FEEDBACK_LOGS) {
            let mut b = BytesMut::with_capacity(batch_wire_len(chunk));
            encode_batch(chunk, &mut b);
            self.feedback.send(b);
        }
        drop(inner);
        self.feedback.poll();
    }

    fn committed(&self, commits: &HashMap<usize, Vec<u64>>, m: usize, deps: &DepVector) -> bool {
        let Some(max) = commits.get(&m) else {
            return false;
        };
        if self.sabotage_early.load(Ordering::Acquire) {
            // Off-by-one fixture: accepts `MAX[p] == seq`, which only proves
            // the *previous* update replicated, not this one.
            return deps
                .entries()
                .iter()
                .all(|&(p, seq)| max.get(p as usize).copied().unwrap_or(0) >= seq);
        }
        deps.committed_under(max)
    }

    /// Releases held packets whose requirements are met and prunes the
    /// uncommitted set.
    ///
    /// One in-order pass: the merged commits do not change while it runs,
    /// and releasing a packet cannot make an earlier one ready, so the
    /// release order stays FIFO among ready packets.
    fn sweep(&self, inner: &mut BufInner) {
        for _ in 0..inner.held.len() {
            let h = inner.held.pop_front().expect("counted");
            let ready = h
                .reqs
                .iter()
                .all(|(m, deps)| self.committed(&inner.commits, *m, deps));
            if !ready {
                inner.held.push_back(h);
                continue;
            }
            // I1 observation point: the release rule just claimed every
            // requirement is f+1-replicated.
            self.probe.observe_with(|| ProbePoint::BufferRelease {
                reqs: h
                    .reqs
                    .iter()
                    .map(|(m, deps)| (*m, deps.entries().to_vec()))
                    .collect(),
            });
            self.release(h.pkt);
        }
        self.metrics
            .held
            .store(inner.held.len() as u64, Ordering::Relaxed);
        let commits = std::mem::take(&mut inner.commits);
        inner
            .uncommitted
            .retain(|log| !self.committed(&commits, log.mbox.0 as usize, &log.deps));
        inner.commits = commits;
    }

    /// Ships fresh wrapped logs to the forwarder as batch frames (one
    /// amortized header per [`MAX_FEEDBACK_LOGS`] logs, encoded straight
    /// from the staging slice), then shifts them into the uncommitted
    /// backlog for periodic resend. No log is cloned anywhere on this path.
    fn flush_feedback(&self, inner: &mut BufInner) {
        if inner.fresh.is_empty() {
            return;
        }
        for chunk in inner.fresh.chunks(MAX_FEEDBACK_LOGS) {
            let mut b = BytesMut::with_capacity(batch_wire_len(chunk));
            encode_batch(chunk, &mut b);
            self.feedback.send(b);
        }
        let mut fresh = std::mem::take(&mut inner.fresh);
        inner.uncommitted.append(&mut fresh);
        inner.fresh = fresh; // keep the (drained) staging allocation
    }

    fn release(&self, pkt: Packet) {
        self.metrics.released.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .journal
            .record(EventSource::Buffer, EventKind::PacketReleased);
        let _ = self.egress.send(pkt);
    }

    /// Diagnostics: the dependency entries of uncommitted logs.
    #[doc(hidden)]
    pub fn debug_uncommitted(&self) -> Vec<(u16, Vec<(u16, u64)>)> {
        self.inner
            .lock()
            .uncommitted
            .iter()
            .map(|l| (l.mbox.0, l.deps.entries().to_vec()))
            .collect()
    }

    /// Diagnostics: merged commit vectors.
    #[doc(hidden)]
    pub fn debug_commits(&self) -> Vec<(usize, Vec<u64>)> {
        let inner = self.inner.lock();
        inner.commits.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// The ring this buffer serves (used by diagnostics).
    pub fn ring(&self) -> RingMath {
        self.ring
    }
}

/// Spawns the buffer threads onto the last server.
pub fn spawn_buffer(
    server: &mut ftc_net::Server,
    state: Arc<BufferState>,
    in_port: Arc<InPort>,
    resend_period: Duration,
) {
    let st = Arc::clone(&state);
    server.spawn("buffer", move |alive: AliveToken| {
        let mut last_tick = Instant::now();
        while alive.is_alive() {
            if let Some(frame) = in_port.recv_timeout(Duration::from_millis(1)) {
                st.handle_frame(frame);
            }
            if last_tick.elapsed() >= resend_period {
                st.tick();
                last_tick = Instant::now();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;
    use ftc_net::{reliable_pair, Endpoint};
    use ftc_packet::builder::UdpPacketBuilder;
    use ftc_packet::piggyback::{CommitVector, MboxId};

    struct Rig {
        buf: Arc<BufferState>,
        egress: crossbeam::channel::Receiver<Packet>,
        feedback_rx: InPort,
        metrics: Arc<ChainMetrics>,
    }

    fn rig(n: usize, f: usize) -> Rig {
        let (etx, erx) = channel::unbounded();
        let (ftx, frx) = reliable_pair(&Endpoint::in_proc());
        let metrics = Arc::new(ChainMetrics::default());
        let buf = BufferState::new(
            RingMath { n, f },
            etx,
            Arc::new(OutPort::wired(ftx)),
            Arc::clone(&metrics),
        );
        Rig {
            buf,
            egress: erx,
            feedback_rx: InPort::wired(frx),
            metrics,
        }
    }

    fn frame_with(msg: &PiggybackMessage) -> BytesMut {
        let mut pkt = UdpPacketBuilder::new().build();
        pkt.attach_piggyback(msg).unwrap();
        pkt.into_bytes()
    }

    fn log(m: u16, part: u16, seq: u64) -> PiggybackLog {
        PiggybackLog {
            mbox: MboxId(m),
            deps: DepVector::from_entries(vec![(part, seq)]).unwrap(),
            writes: vec![],
        }
    }

    #[test]
    fn clean_packet_released_immediately() {
        let r = rig(3, 1);
        r.buf.handle_frame(frame_with(&PiggybackMessage::default()));
        assert!(r.egress.recv_timeout(Duration::from_millis(100)).is_ok());
        assert_eq!(r.buf.held_len(), 0);
        assert_eq!(r.metrics.released.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn wrapped_log_holds_until_commit() {
        let r = rig(3, 1);
        // Packet carrying m2's log (wrapped in a 3-chain with f=1).
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 0)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&msg));
        assert_eq!(r.buf.held_len(), 1);
        assert!(r.egress.try_recv().is_err());
        assert_eq!(r.buf.uncommitted_len(), 1);

        // A later packet carries m2's commit vector covering seq 0.
        let msg2 = PiggybackMessage {
            flags: 0,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(2),
                max: vec![1],
            }],
        };
        r.buf.handle_frame(frame_with(&msg2));
        // Both packets now out (second had no requirements).
        assert_eq!(r.buf.held_len(), 0);
        assert_eq!(r.metrics.released.load(Ordering::Relaxed), 2);
        assert_eq!(r.buf.uncommitted_len(), 0, "committed logs pruned");
    }

    #[test]
    fn insufficient_commit_keeps_holding() {
        let r = rig(3, 1);
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 5)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&msg));
        let weak = PiggybackMessage {
            flags: 0,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(2),
                max: vec![5],
            }], // needs > 5
        };
        r.buf.handle_frame(frame_with(&weak));
        assert_eq!(r.buf.held_len(), 1, "MAX[p]=5 does not commit seq 5");
    }

    #[test]
    fn sabotaged_release_rule_frees_packets_one_entry_early() {
        // The negative fixture inverts `insufficient_commit_keeps_holding`:
        // with the off-by-one rule, MAX[p]=5 wrongly releases seq 5.
        let r = rig(3, 1);
        r.buf.sabotage_early_release();
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 5)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&msg));
        let weak = PiggybackMessage {
            flags: 0,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(2),
                max: vec![5],
            }],
        };
        r.buf.handle_frame(frame_with(&weak));
        assert_eq!(r.buf.held_len(), 0, "broken rule accepts MAX[p] == seq");
    }

    #[test]
    fn wrapped_logs_go_to_feedback() {
        let r = rig(3, 1);
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 0)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&msg));
        let f = r
            .feedback_rx
            .recv_timeout(Duration::from_millis(100))
            .expect("feedback sent");
        let (fb, _) = PiggybackMessage::decode_trailing(&f).unwrap().unwrap();
        assert_eq!(fb.logs.len(), 1);
        assert_eq!(fb.logs[0].mbox, MboxId(2));
    }

    #[test]
    fn tick_resends_uncommitted() {
        let r = rig(3, 1);
        let msg = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 0)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&msg));
        // Drain the initial feedback.
        let _ = r.feedback_rx.recv_timeout(Duration::from_millis(100));
        // Simulate loss: the log never committed; tick must resend.
        r.buf.tick();
        let f = r
            .feedback_rx
            .recv_timeout(Duration::from_millis(100))
            .expect("resend");
        let (fb, _) = PiggybackMessage::decode_trailing(&f).unwrap().unwrap();
        assert_eq!(fb.logs.len(), 1);
    }

    #[test]
    fn propagating_packets_are_consumed_not_released() {
        let r = rig(3, 1);
        let msg = PiggybackMessage {
            flags: ftc_packet::piggyback::flags::PROPAGATING,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(2),
                max: vec![3],
            }],
        };
        let prop = ftc_packet::packet::propagating_packet(
            ftc_packet::ether::MacAddr::from_index(1),
            ftc_packet::ether::MacAddr::from_index(2),
            &msg,
        );
        r.buf.handle_frame(prop.into_bytes());
        assert!(
            r.egress.try_recv().is_err(),
            "propagating packets never egress"
        );
        // But their commits took effect.
        let held = PiggybackMessage {
            flags: 0,
            logs: vec![log(2, 0, 2)],
            commits: vec![],
        };
        r.buf.handle_frame(frame_with(&held));
        assert_eq!(
            r.buf.held_len(),
            0,
            "already-committed log releases instantly"
        );
    }

    #[test]
    fn sweep_releases_ready_packets_past_a_blocked_one() {
        let r = rig(2, 1);
        // Held in order: seq 0 (ready), seq 5 (blocked), seq 1 (ready).
        for (ident, seq) in [(1, 0), (2, 5), (3, 1)] {
            let msg = PiggybackMessage {
                flags: 0,
                logs: vec![log(1, 0, seq)],
                commits: vec![],
            };
            let mut p = UdpPacketBuilder::new().ident(ident).build();
            p.attach_piggyback(&msg).unwrap();
            r.buf.handle_frame(p.into_bytes());
        }
        let commit = PiggybackMessage {
            flags: ftc_packet::piggyback::flags::PROPAGATING,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(1),
                max: vec![2],
            }],
        };
        let prop = ftc_packet::packet::propagating_packet(
            ftc_packet::ether::MacAddr::from_index(1),
            ftc_packet::ether::MacAddr::from_index(2),
            &commit,
        );
        r.buf.handle_frame(prop.into_bytes());
        let idents: Vec<u16> = std::iter::from_fn(|| r.egress.try_recv().ok())
            .map(|p| p.ipv4().unwrap().ident())
            .collect();
        assert_eq!(idents, vec![1, 3]);
        assert_eq!(r.buf.held_len(), 1, "seq 5 still waits");
    }

    #[test]
    fn release_order_is_fifo_among_ready() {
        let r = rig(2, 1);
        // Hold two packets needing m1 seq 0 and seq 1.
        let m1 = PiggybackMessage {
            flags: 0,
            logs: vec![log(1, 0, 0)],
            commits: vec![],
        };
        let m2 = PiggybackMessage {
            flags: 0,
            logs: vec![log(1, 0, 1)],
            commits: vec![],
        };
        let mut p1 = UdpPacketBuilder::new().ident(1).build();
        p1.attach_piggyback(&m1).unwrap();
        let mut p2 = UdpPacketBuilder::new().ident(2).build();
        p2.attach_piggyback(&m2).unwrap();
        r.buf.handle_frame(p1.into_bytes());
        r.buf.handle_frame(p2.into_bytes());
        assert_eq!(r.buf.held_len(), 2);
        // Commit both at once via a propagating packet (so the carrier
        // itself is not released ahead of the held packets).
        let commit = PiggybackMessage {
            flags: ftc_packet::piggyback::flags::PROPAGATING,
            logs: vec![],
            commits: vec![CommitVector {
                mbox: MboxId(1),
                max: vec![2],
            }],
        };
        let prop = ftc_packet::packet::propagating_packet(
            ftc_packet::ether::MacAddr::from_index(1),
            ftc_packet::ether::MacAddr::from_index(2),
            &commit,
        );
        r.buf.handle_frame(prop.into_bytes());
        let a = r.egress.recv_timeout(Duration::from_millis(100)).unwrap();
        let b = r.egress.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(a.ipv4().unwrap().ident(), 1);
        assert_eq!(b.ipv4().unwrap().ident(), 2);
    }
}
