//! The benchmark's own closed and open loops, and its packet accounting.
//!
//! Every packet the benchmark sends carries a sequence number in its UDP
//! payload (after the generator's timestamp), so the [`Ledger`] can check
//! that each one is released exactly once, without a piggyback trailer,
//! and with the output the workload expects. Latency is timed from each
//! packet's *due* time: in the open loop that is its slot on the fixed
//! schedule, so a stall is charged to every packet it delays.

use crate::trace::Trace;
use ftc::prelude::*;
use ftc::traffic::FlowMix;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Offset of the sequence number within the UDP payload (the generator's
/// timestamp occupies the first 8 bytes).
const SEQ_OFFSET: usize = ftc::packet::l4::UDP_HEADER_LEN + 8;

/// The two calls the generator makes into a chain. In-process chains,
/// multi-process chains and a chain owned by another thread (failover)
/// all reduce to this.
pub struct Port<'a> {
    pub inject: Box<dyn Fn(Packet) + 'a>,
    pub egress: Egress,
}

/// What the workload expects of every released packet, beyond being
/// released exactly once without a trailer.
pub enum Expect {
    /// No per-packet output check (Monitor chains: their check is on the
    /// replicated counters).
    Nothing,
    /// The source address is this NAT's external IP.
    Source(Ipv4Addr),
    /// Each flow keeps the translated (address, port) it was first
    /// released with, across every recovery.
    StableMapping,
}

/// Per-packet accounting for one run.
pub struct Ledger {
    epoch: Instant,
    /// Due time (ns since `epoch`) of each sent packet, by sequence number.
    due_ns: Vec<u64>,
    /// Original source port (= flow) of each sent packet.
    flow: Vec<u16>,
    /// Times each packet was released.
    released: Vec<u8>,
    expect: Expect,
    mapping: HashMap<u16, (Ipv4Addr, u16)>,
    /// Packets released but failing a check (trailer, duplicate, unknown
    /// sequence number, wrong translation).
    pub bad: u64,
    /// Every failed check, described once per kind.
    pub failures: Vec<String>,
}

impl Ledger {
    pub fn new(epoch: Instant, expect: Expect) -> Ledger {
        Ledger {
            epoch,
            due_ns: Vec::new(),
            flow: Vec::new(),
            released: Vec::new(),
            expect,
            mapping: HashMap::new(),
            bad: 0,
            failures: Vec::new(),
        }
    }

    pub fn sent(&self) -> u64 {
        self.due_ns.len() as u64
    }

    pub fn released_total(&self) -> u64 {
        self.released.iter().map(|&n| u64::from(n.min(1))).sum()
    }

    /// Packets never released.
    pub fn lost(&self) -> u64 {
        self.released.iter().filter(|&&n| n == 0).count() as u64
    }

    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Stamps `pkt` with the next sequence number, due at `due`.
    pub fn stamp(&mut self, pkt: Packet, due: Instant) -> (u64, Packet) {
        let seq = self.sent();
        let flow = pkt.flow_key().map(|k| k.src_port).unwrap_or(0);
        let l4 = pkt.l4_offset().expect("generated frames are IPv4");
        let mut frame = pkt.into_bytes();
        frame[l4 + SEQ_OFFSET..l4 + SEQ_OFFSET + 8].copy_from_slice(&seq.to_be_bytes());
        self.due_ns.push(self.ns(due));
        self.flow.push(flow);
        self.released.push(0);
        (seq, Packet::from_frame_unchecked(frame))
    }

    /// Checks one released packet. Returns its sequence number and its
    /// latency from due time, if it is a packet this ledger sent.
    pub fn release(&mut self, pkt: &Packet, at: Instant) -> Option<(u64, u64)> {
        if pkt.has_piggyback() {
            self.bad += 1;
            self.fail("a released packet still carries a piggyback trailer".into());
        }
        let seq = pkt
            .l4()
            .ok()
            .and_then(|l4| l4.get(SEQ_OFFSET..SEQ_OFFSET + 8))
            .map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")));
        let Some(seq) = seq.filter(|&s| s < self.sent()) else {
            self.bad += 1;
            self.fail("released a packet that was never sent".into());
            return None;
        };
        let i = seq as usize;
        self.released[i] = self.released[i].saturating_add(1);
        if self.released[i] > 1 {
            self.bad += 1;
            self.fail(format!("packet {seq} released more than once"));
            return None;
        }
        if let Err(e) = self.check(pkt, i) {
            self.bad += 1;
            self.fail(e);
        }
        Some((seq, self.ns(at).saturating_sub(self.due_ns[i])))
    }

    fn check(&mut self, pkt: &Packet, i: usize) -> Result<(), String> {
        let key = pkt
            .flow_key()
            .map_err(|e| format!("released packet unparseable: {e:?}"))?;
        match self.expect {
            Expect::Nothing => Ok(()),
            Expect::Source(ip) if key.src_ip == ip => Ok(()),
            Expect::Source(ip) => Err(format!(
                "packet {i} left with source {}, expected the NAT's {ip}",
                key.src_ip
            )),
            Expect::StableMapping => {
                let now = (key.src_ip, key.src_port);
                let first = *self.mapping.entry(self.flow[i]).or_insert(now);
                if first == now {
                    Ok(())
                } else {
                    Err(format!(
                        "flow {} remapped from {first:?} to {now:?}",
                        self.flow[i]
                    ))
                }
            }
        }
    }
}

/// The generated traffic: the traffic crate's generator, flows chosen at
/// random from the seed with uniform popularity.
pub fn workload(flows: usize, seed: u64) -> Workload {
    Workload::new(WorkloadConfig {
        flows,
        frame_len: 256,
        mix: FlowMix::Zipf(0.0),
        seed,
        ftc_option: true,
    })
}

/// Sends one packet of every flow in order and waits for all of them:
/// installs per-flow state (NAT mappings) before measuring.
pub fn install_flows(port: &Port, ledger: &mut Ledger, flows: usize) {
    let mut wl = Workload::new(WorkloadConfig {
        flows,
        frame_len: 256,
        ..Default::default()
    });
    let mut pending = 0usize;
    for _ in 0..flows {
        let (_, pkt) = ledger.stamp(wl.next_packet(), Instant::now());
        (port.inject)(pkt);
        pending += 1;
        if pending >= 32 {
            pending -= drain(port, ledger, 32, Duration::from_secs(2));
        }
    }
    // Whatever is not released within the deadline counts as lost.
    drain(port, ledger, pending, Duration::from_secs(2));
}

/// Waits for up to `count` releases; returns how many arrived.
pub fn drain(port: &Port, ledger: &mut Ledger, count: usize, deadline: Duration) -> usize {
    let end = Instant::now() + deadline;
    let mut got = 0;
    while got < count {
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        if let Some(p) = port.egress.recv(left) {
            ledger.release(&p, Instant::now());
            got += 1;
        }
    }
    got
}

/// Sends one packet and waits for its release: the time from `since` to
/// that release.
pub fn first_release(
    port: &Port,
    ledger: &mut Ledger,
    wl: &mut Workload,
    since: Instant,
) -> Result<Duration, String> {
    let (_, pkt) = ledger.stamp(wl.next_packet(), Instant::now());
    (port.inject)(pkt);
    match port.egress.recv(Duration::from_secs(5)) {
        Some(p) => {
            let at = Instant::now();
            ledger.release(&p, at);
            Ok(at - since)
        }
        None => Err("no packet released within 5 s".into()),
    }
}

/// Closed-loop rates are taken per window of this length, so a stall of
/// the machine spoils one window instead of the whole figure.
const RATE_WINDOW: Duration = Duration::from_millis(500);

/// Closed loop: keeps `window` packets in flight for `dur`, then drains.
/// Returns the release rate (packets/s) of each whole [`RATE_WINDOW`].
pub fn closed_loop(
    port: &Port,
    ledger: &mut Ledger,
    wl: &mut Workload,
    window: usize,
    dur: Duration,
    mut trace: Option<&mut Trace>,
) -> Vec<f64> {
    let start = Instant::now();
    let end = start + dur;
    let mut in_flight = 0usize;
    let mut window_pps = Vec::new();
    let mut mark = start + RATE_WINDOW;
    let mut released = 0u64;
    loop {
        let now = Instant::now();
        if now >= mark {
            window_pps.push(released as f64 / (now - (mark - RATE_WINDOW)).as_secs_f64());
            released = 0;
            mark = now + RATE_WINDOW;
        }
        if now >= end {
            break;
        }
        while in_flight < window {
            send(port, ledger, wl, Instant::now(), trace.as_deref_mut());
            in_flight += 1;
        }
        if let Some(p) = port.egress.recv(Duration::from_millis(1)) {
            let at = Instant::now();
            in_flight -= 1;
            released += 1;
            on_release(ledger, &p, at, trace.as_deref_mut());
        }
    }
    // Whatever is not released within the drain deadline counts as lost.
    drain(port, ledger, in_flight, Duration::from_secs(2));
    window_pps
}

/// The traced run records the spans of one packet in this many, which
/// keeps the trace small and its cost on the measured path low.
const SPAN_EVERY: u64 = 16;

fn sampled(trace: Option<&mut Trace>, seq: u64) -> Option<&mut Trace> {
    trace.filter(|_| seq.is_multiple_of(SPAN_EVERY))
}

fn send(
    port: &Port,
    ledger: &mut Ledger,
    wl: &mut Workload,
    due: Instant,
    trace: Option<&mut Trace>,
) -> Instant {
    match sampled(trace, ledger.sent()) {
        None => {
            let (_, pkt) = ledger.stamp(wl.next_packet(), due);
            (port.inject)(pkt);
            Instant::now()
        }
        Some(t) => {
            let g0 = Instant::now();
            let pkt = wl.next_packet();
            let g1 = Instant::now();
            let (seq, pkt) = ledger.stamp(pkt, due);
            let i0 = Instant::now();
            (port.inject)(pkt);
            let i1 = Instant::now();
            t.child("traffic.gen", g0, g1, "packet", seq);
            t.child("core.inject", i0, i1, "packet", seq);
            i1
        }
    }
}

/// Checks one released packet; returns its sequence number and latency.
fn on_release(
    ledger: &mut Ledger,
    pkt: &Packet,
    at: Instant,
    trace: Option<&mut Trace>,
) -> Option<(u64, u64)> {
    let (seq, lat) = ledger.release(pkt, at)?;
    if let Some(t) = sampled(trace, seq) {
        t.root("packet", at - Duration::from_nanos(lat), at, seq);
    }
    Some((seq, lat))
}

/// Lets another thread stop the open-loop generator at a point where the
/// chain holds no packet (failover: a fail-stop loses what is in flight,
/// so the benchmark kills only a drained chain and holds the sends that
/// fall due meanwhile; they are sent late, never skipped).
///
/// `epoch` is odd while a hold is requested; the generator acknowledges a
/// drained chain by echoing the epoch it saw, so a stale acknowledgement
/// can never satisfy a later hold.
#[derive(Default)]
pub struct Gate {
    epoch: AtomicU64,
    drained: AtomicU64,
    done: AtomicBool,
}

impl Gate {
    /// Asks the generator to stop sending; returns once nothing is in
    /// flight (or the generator has finished), or `false` if the chain did
    /// not drain within 2 s.
    pub fn hold(&self) -> bool {
        let e = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let end = Instant::now() + Duration::from_secs(2);
        while self.drained.load(Ordering::SeqCst) != e && !self.done.load(Ordering::SeqCst) {
            if Instant::now() > end {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    pub fn release(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// The generator's view: `Some(epoch)` while a hold is requested.
    fn requested(&self) -> Option<u64> {
        let e = self.epoch.load(Ordering::SeqCst);
        (e % 2 == 1).then_some(e)
    }
}

/// Latencies are grouped by due time into slices of this length, so a
/// transient stall can be told from a shift of the whole distribution.
const LAT_SLICE: Duration = Duration::from_secs(1);

/// Result of an open-loop phase.
pub struct Open {
    /// Latency from due time (ns) of every packet sent in the phase, by
    /// [`LAT_SLICE`] of due time.
    pub lat_ns: Vec<Vec<u64>>,
    /// How late each send was against its due time (ns).
    pub late_ns: Vec<u64>,
}

/// Open loop at a fixed absolute rate: packet `i` is due at
/// `start + i / rate`. A late generator sends every owed packet at once;
/// it never skips or re-anchors the schedule.
pub fn open_loop(
    port: &Port,
    ledger: &mut Ledger,
    wl: &mut Workload,
    rate_pps: f64,
    dur: Duration,
    gate: Option<&Gate>,
    mut trace: Option<&mut Trace>,
) -> Open {
    let gap = Duration::from_secs_f64(1.0 / rate_pps);
    let first_seq = ledger.sent();
    let start = Instant::now();
    let total = (dur.as_secs_f64() * rate_pps) as u64;
    let mut sent = 0u64;
    let mut in_flight = 0usize;
    let per_slice = (rate_pps * LAT_SLICE.as_secs_f64()) as u64;
    let mut lat_ns = vec![Vec::new(); total.div_ceil(per_slice.max(1)) as usize];
    let mut late_ns = Vec::with_capacity(total as usize);
    let mut due = start;
    while sent < total || in_flight > 0 {
        let held = gate.and_then(|g| g.requested().map(|e| (g, e)));
        if let (Some((g, e)), 0) = (held, in_flight) {
            g.drained.store(e, Ordering::SeqCst);
        }
        let holding = held.is_some();
        let now = Instant::now();
        if !holding {
            while sent < total && due <= now {
                let at = send(port, ledger, wl, due, trace.as_deref_mut());
                late_ns.push((at - due).as_nanos() as u64);
                sent += 1;
                in_flight += 1;
                due = start + gap.mul_f64(sent as f64);
            }
        }
        let wait = if sent < total && !holding {
            due.saturating_duration_since(Instant::now())
        } else {
            Duration::from_micros(200)
        };
        if let Some(p) = port.egress.recv(wait.min(Duration::from_millis(1))) {
            let at = Instant::now();
            in_flight = in_flight.saturating_sub(1);
            if let Some((seq, lat)) = on_release(ledger, &p, at, trace.as_deref_mut()) {
                let slice = seq.saturating_sub(first_seq) / per_slice.max(1);
                if let Some(s) = lat_ns.get_mut(slice as usize) {
                    s.push(lat);
                }
            }
        }
        if sent == total && Instant::now() > start + dur + Duration::from_secs(2) {
            break; // the ledger counts the rest as lost
        }
    }
    if let Some(g) = gate {
        // Nothing more will be sent: a pending or later hold may proceed.
        g.done.store(true, Ordering::SeqCst);
    }
    debug_assert_eq!(ledger.sent() - first_seq, sent);
    Open { lat_ns, late_ns }
}
