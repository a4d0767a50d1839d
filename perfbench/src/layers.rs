//! Per-layer probes the traced run makes outside the chain: each times the
//! public call of one layer on inputs taken from the workload.

use crate::stats::{mean, median};
use crate::trace::Trace;
use bytes::BytesMut;
use ftc::mbox::{Action, MbSpec, ProcCtx};
use ftc::net::sock::{SockNode, SockTransport};
use ftc::net::{reliable_pair, Transport};
use ftc::packet::piggyback::MboxId;
use ftc::packet::{PiggybackLog, PiggybackMessage};
use ftc::prelude::*;
use ftc::stm::StateBackendExt;
use std::path::Path;
use std::time::{Duration, Instant};

/// What the standalone state-engine probe measured.
pub struct StmProbe {
    pub txn_ns: f64,
    pub log_bytes: f64,
    /// Piggyback logs the transactions produced, as the heads would attach
    /// them.
    pub logs: Vec<PiggybackLog>,
}

/// Runs `packets` packets of `wl` through the chain's middleboxes, each in
/// a transaction on its own 2PL store, as the replicas' heads would.
pub fn stm_probe(
    chain: &[MbSpec],
    workers: usize,
    wl: &mut Workload,
    packets: u64,
    trace: &mut Trace,
) -> StmProbe {
    let stores: Vec<_> = chain.iter().map(|_| EngineKind::TwoPl.build(32)).collect();
    let boxes: Vec<_> = chain.iter().map(MbSpec::build).collect();
    let mut txn_ns = Vec::new();
    let mut logs = Vec::new();
    for id in 0..packets {
        let mut pkt = wl.next_packet();
        let ctx = ProcCtx {
            worker: (id as usize) % workers,
            workers,
        };
        for (i, (store, mb)) in stores.iter().zip(&boxes).enumerate() {
            let t0 = Instant::now();
            let out = store.transaction(|txn| mb.process(&mut pkt, txn, ctx));
            let t1 = Instant::now();
            trace.root("stm.txn", t0, t1, id);
            txn_ns.push((t1 - t0).as_nanos() as u64);
            if let Some(log) = out.log {
                logs.push(PiggybackLog {
                    mbox: MboxId(i as u16),
                    deps: log.deps,
                    writes: log.writes,
                });
            }
            if out.value != Action::Forward {
                break;
            }
        }
    }
    let sizes: Vec<f64> = logs.iter().map(|l| l.wire_len() as f64).collect();
    StmProbe {
        txn_ns: median(&txn_ns),
        log_bytes: mean(&sizes),
        logs,
    }
}

/// Times encoding and decoding a trailer carrying each log `stm` produced.
/// Returns the median encode and decode times (ns).
pub fn piggyback_probe(logs: &[PiggybackLog], rounds: usize, trace: &mut Trace) -> (f64, f64) {
    let mut enc = Vec::with_capacity(rounds);
    let mut dec = Vec::with_capacity(rounds);
    let mut buf = BytesMut::with_capacity(4096);
    for r in 0..rounds {
        let msg = PiggybackMessage {
            flags: 0,
            logs: logs
                .get(r % logs.len().max(1))
                .cloned()
                .into_iter()
                .collect(),
            commits: Vec::new(),
        };
        buf.clear();
        let t0 = Instant::now();
        msg.encode(&mut buf);
        let t1 = Instant::now();
        let decoded = PiggybackMessage::decode_trailing(&buf);
        let t2 = Instant::now();
        assert!(
            matches!(decoded, Ok(Some((ref m, _))) if *m == msg),
            "piggyback trailer must decode to what was encoded"
        );
        trace.root("packet.pgb_encode", t0, t1, r as u64);
        trace.root("packet.pgb_decode", t1, t2, r as u64);
        enc.push((t1 - t0).as_nanos() as u64);
        dec.push((t2 - t1).as_nanos() as u64);
    }
    (median(&enc), median(&dec))
}

/// Ping-pongs one frame between this thread and an echo thread over two
/// reliable links; returns the median round trip (ns).
fn ping_pong(
    mut tx: Box<dyn ftc::net::FrameTx>,
    mut rx: Box<dyn ftc::net::FrameRx>,
    mut echo_tx: Box<dyn ftc::net::FrameTx>,
    mut echo_rx: Box<dyn ftc::net::FrameRx>,
    rounds: usize,
    name: &'static str,
    trace: &mut Trace,
) -> Result<f64, String> {
    let frame = BytesMut::from(&[7u8; 256][..]);
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            for _ in 0..rounds {
                match echo_rx.recv_timeout(Duration::from_secs(2)) {
                    Ok(Some(f)) => {
                        let _ = echo_tx.send(f);
                        let _ = echo_tx.poll();
                    }
                    _ => return false,
                }
            }
            true
        });
        let mut rtt = Vec::with_capacity(rounds);
        for r in 0..rounds {
            let t0 = Instant::now();
            let _ = tx.send(frame.clone());
            let _ = tx.poll();
            match rx.recv_timeout(Duration::from_secs(2)) {
                Ok(Some(_)) => {}
                _ => return Err(format!("{name}: echo lost")),
            }
            let t1 = Instant::now();
            trace.root(name, t0, t1, r as u64);
            rtt.push((t1 - t0).as_nanos() as u64);
        }
        if !echo.join().expect("echo thread") {
            return Err(format!("{name}: echo thread timed out"));
        }
        Ok(median(&rtt))
    })
}

/// One frame handed between two threads over in-process reliable links
/// (the links between a chain's servers): half the median round trip, µs.
pub fn handoff_probe(rounds: usize, trace: &mut Trace) -> Result<f64, String> {
    let (tx, echo_rx) = reliable_pair(&Endpoint::in_proc());
    let (echo_tx, rx) = reliable_pair(&Endpoint::in_proc());
    let rtt = ping_pong(
        Box::new(tx),
        Box::new(rx),
        Box::new(echo_tx),
        Box::new(echo_rx),
        rounds,
        "net.handoff_rtt",
        trace,
    )?;
    Ok(rtt / 2.0 / 1e3)
}

/// One frame round trip over the Unix-socket transport between two
/// socket nodes bound in `dir`, µs.
pub fn sock_probe(dir: &Path, rounds: usize, trace: &mut Trace) -> Result<f64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
    let a_addr = PeerAddr::Uds(dir.join("probe-a.sock"));
    let b_addr = PeerAddr::Uds(dir.join("probe-b.sock"));
    let a = SockTransport::new(SockNode::bind(&a_addr).map_err(|e| format!("bind: {e}"))?);
    let b = SockTransport::new(SockNode::bind(&b_addr).map_err(|e| format!("bind: {e}"))?);
    let (a_ep, b_ep) = (Endpoint::sock(a_addr), Endpoint::sock(b_addr));
    let rtt = ping_pong(
        a.open_tx(&b_ep, 1),
        a.open_rx(&a_ep, 2),
        b.open_tx(&a_ep, 2),
        b.open_rx(&b_ep, 1),
        rounds,
        "net.sock_rtt",
        trace,
    )?;
    Ok(rtt / 1e3)
}
