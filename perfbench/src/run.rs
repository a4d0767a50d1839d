//! One benchmark run: deploy, warm up, measure, check, summarise.

use crate::drive::{self, Expect, Gate, Ledger, Port};
use crate::layers;
use crate::stats::{median, median_f, quantile, trimmed_mean, Metrics};
use crate::trace::Trace;
use crate::{Kind, Opts};
use ftc::mbox::Monitor;
use ftc::orch::RecoveryReport;
use ftc::prelude::*;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop offered rate.
const RATE_PPS: f64 = 10_000.0;
/// Closed-loop packets in flight.
const WINDOW: usize = 32;
/// External address of the Table-2 chain's second NAT.
const NAT2: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 3);

/// Deploy cycles `setup_s` is the median of.
const SETUPS: u64 = 15;
/// The replica the recovery cycles kill. Killing the tail replica, which
/// also hosts the buffer, spends tens of milliseconds to seconds in
/// rerouting, too erratic to measure (see `NOTES.md`).
const VICTIM: usize = 0;

/// A workload's fixed shape.
struct Shape {
    specs: Vec<MbSpec>,
    workers: usize,
    flows: usize,
}

fn shape(kind: Kind) -> Shape {
    let table2 = vec![
        MbSpec::MazuNat {
            external_ip: Ipv4Addr::new(203, 0, 113, 2),
        },
        MbSpec::MazuNat { external_ip: NAT2 },
    ];
    match kind {
        Kind::NatRead => Shape {
            specs: table2,
            workers: 2,
            flows: 64,
        },
        Kind::MonWrite => Shape {
            specs: ChainConfig::ch_n(2, 2).middleboxes,
            workers: 2,
            flows: 64,
        },
        // Replica 0 also holds the NAT's replicated table (the NAT's ring
        // group is {2, 0}), so each recovery of [`VICTIM`] restores
        // thousands of flows.
        Kind::Failover => Shape {
            specs: ChainConfig::ch_rec(Ipv4Addr::new(198, 51, 100, 1)).middleboxes,
            workers: 1,
            flows: 2048,
        },
    }
}

fn expect(kind: Kind) -> Expect {
    match kind {
        Kind::NatRead => Expect::Source(NAT2),
        Kind::MonWrite => Expect::Nothing,
        Kind::Failover => Expect::StableMapping,
    }
}

/// The latency quantile `q` of each slice of the open loop, then the
/// median over the slices (µs): a stall that spoils one slice does not
/// move it.
fn sliced(slices: &[Vec<u64>], q: f64) -> f64 {
    let per: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| quantile(s, q))
        .collect();
    median_f(&per) / 1e3
}

/// One kill + recover cycle.
struct Recovery {
    kill: Duration,
    total: Duration,
    report: RecoveryReport,
}

fn deploy(shape: &Shape) -> Orchestrator {
    let cfg = ChainConfig::new(shape.specs.clone())
        .with_f(1)
        .with_workers(shape.workers)
        .with_engine(EngineKind::TwoPl);
    Orchestrator::new(FtcChain::deploy(cfg), OrchestratorConfig::default())
}

fn port(o: &Orchestrator) -> Port<'_> {
    Port {
        inject: Box::new(move |p| o.chain.inject(p)),
        egress: o.chain.egress(),
    }
}

/// Fail-stops replica `idx` and recovers it (paper §5.2).
fn recover(o: &mut Orchestrator, idx: usize) -> Result<Recovery, String> {
    let region = o.chain.replicas[idx].region;
    let t0 = Instant::now();
    o.chain.kill(idx);
    let kill = t0.elapsed();
    let report = o
        .recover(idx, region)
        .map_err(|e| format!("recovering replica {idx}: {e:?}"))?;
    Ok(Recovery {
        kill,
        total: t0.elapsed(),
        report,
    })
}

fn trace_recovery(t: &mut Trace, r: &Recovery, end: Instant, id: u64) {
    let start = end - r.total;
    t.root("orch.cycle", start, end, id);
    t.child("orch.kill", start, start + r.kill, "orch.cycle", id);
    t.child("orch.recover", start + r.kill, end, "orch.cycle", id);
    let init = start + r.kill;
    let fetch = init + r.report.initialization;
    let reroute = fetch + r.report.state_recovery;
    t.child("orch.init", init, fetch, "orch.recover", id);
    t.child("orch.fetch", fetch, reroute, "orch.recover", id);
    t.child(
        "orch.reroute",
        reroute,
        reroute + r.report.rerouting,
        "orch.recover",
        id,
    );
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Phase lengths of one run.
struct Plan {
    closed: Duration,
    open: Duration,
    /// Idle kill/recover cycles (failover kills during the open loop).
    recover: Duration,
}

impl Plan {
    fn of(kind: Kind, seconds: Duration) -> Plan {
        let (closed, open, recover) = match kind {
            Kind::Failover => (0.5, 0.5, 0.0),
            _ => (0.5, 0.3, 0.2),
        };
        Plan {
            closed: seconds.mul_f64(closed),
            open: seconds.mul_f64(open),
            recover: seconds.mul_f64(recover),
        }
    }
}

/// Where runs leave their artifacts, relative to the working directory
/// (which keeps socket paths short).
const ARTIFACTS: &str = ".perfbench";

/// Runtime directory for this run's sockets.
fn run_dir() -> PathBuf {
    Path::new(ARTIFACTS).join(format!("run-{}", std::process::id()))
}

pub fn run(o: &Opts) -> Result<Report, String> {
    let dir = run_dir();
    let out = measure(o, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Everything the untraced half of a run measured.
struct EndToEnd {
    setup_s: Vec<f64>,
    deploy_ms: Vec<f64>,
    window_pps: Vec<f64>,
    lat_ns: Vec<Vec<u64>>,
    late_ns: Vec<u64>,
    recoveries: Vec<Recovery>,
}

fn measure(o: &Opts, dir: &Path) -> Result<Report, String> {
    let shape = shape(o.kind);
    let plan = Plan::of(o.kind, o.seconds);
    let epoch = Instant::now();
    let mut ledger = Ledger::new(epoch, expect(o.kind));
    let mut trace = Trace::new(epoch);
    let mut wl = drive::workload(shape.flows, o.seed);
    // Set-up packets all belong to flow 0, which is therefore the first
    // flow every fresh chain maps (same translation on every deployment).
    let mut first_flow = Workload::new(WorkloadConfig {
        flows: 1,
        frame_len: 256,
        ..Default::default()
    });

    let mut e2e = EndToEnd {
        setup_s: Vec::new(),
        deploy_ms: Vec::new(),
        window_pps: Vec::new(),
        lat_ns: Vec::new(),
        late_ns: Vec::new(),
        recoveries: Vec::new(),
    };
    // Set-up: deploy → first release, several times; keep the last chain.
    // `base` counts the packets released by the chains torn down.
    let mut chain = None;
    let mut base = 0;
    for cycle in 0..SETUPS {
        drop(chain.take());
        base = ledger.released_total();
        let t0 = Instant::now();
        let c = deploy(&shape);
        let t1 = Instant::now();
        let setup = drive::first_release(&port(&c), &mut ledger, &mut first_flow, t0)?;
        if o.trace {
            trace.root("orch.setup", t0, t0 + setup, cycle);
            trace.child("orch.deploy", t0, t1, "orch.setup", cycle);
        }
        e2e.setup_s.push(setup.as_secs_f64());
        e2e.deploy_ms.push((t1 - t0).as_secs_f64() * 1e3);
        chain = Some(c);
    }
    let mut chain = chain.ok_or("no set-up cycle ran")?;

    // Warm-up: install every flow, then run the closed loop unmeasured.
    {
        let port = port(&chain);
        drive::install_flows(&port, &mut ledger, shape.flows);
        drive::closed_loop(
            &port,
            &mut ledger,
            &mut wl,
            WINDOW,
            Duration::from_millis(500),
            None,
        );
    }

    // With tracing, each measured phase runs twice: untraced (the
    // end-to-end figures and the overhead baseline) and traced.
    let halve = |d: Duration| if o.trace { d / 2 } else { d };
    let p = port(&chain);
    e2e.window_pps = drive::closed_loop(&p, &mut ledger, &mut wl, WINDOW, halve(plan.closed), None);
    let traced_tput = o.trace.then(|| {
        median_f(&drive::closed_loop(
            &p,
            &mut ledger,
            &mut wl,
            WINDOW,
            plan.closed / 2,
            Some(&mut trace),
        ))
    });
    drop(p);

    let (open, recs) = open_phase(o, &mut chain, &mut ledger, &mut wl, halve(plan.open), None)?;
    e2e.lat_ns = open.lat_ns;
    e2e.late_ns = open.late_ns;
    e2e.recoveries = recs;
    let traced_lat = if o.trace {
        let (open, recs) = open_phase(
            o,
            &mut chain,
            &mut ledger,
            &mut wl,
            plan.open / 2,
            Some(&mut trace),
        )?;
        e2e.recoveries.extend(recs);
        open.lat_ns
    } else {
        Vec::new()
    };
    if o.kind != Kind::Failover {
        e2e.recoveries = idle_recoveries(
            &mut chain,
            &mut ledger,
            &mut wl,
            o.seed,
            plan.recover,
            o.trace.then_some(&mut trace),
        )?;
    }

    // Let stragglers (duplicates) surface before the books close.
    drive::drain(
        &port(&chain),
        &mut ledger,
        usize::MAX,
        Duration::from_millis(100),
    );
    let mut failed = ledger.bad + ledger.lost();
    if o.kind == Kind::MonWrite {
        if let Err(e) = check_counters(&chain, &shape, ledger.released_total() - base) {
            failed += 1;
            ledger.fail(e);
        }
    }
    for f in &ledger.failures {
        eprintln!("check failed: {f}");
    }

    let mut m = Metrics::default();
    let recovery_ms: Vec<f64> = e2e
        .recoveries
        .iter()
        .map(|r| r.total.as_secs_f64() * 1e3)
        .collect();
    if recovery_ms.is_empty() {
        return Err("no recovery cycle completed".into());
    }
    if o.trace {
        per_layer(
            o,
            &shape,
            &chain,
            &e2e,
            traced_tput.unwrap_or(0.0),
            &traced_lat,
            &mut trace,
            dir,
            &mut m,
        )?;
        let path = Path::new(ARTIFACTS).join(format!("trace-{}.csv", o.kind.name()));
        trace
            .dump(&path)
            .map_err(|e| format!("writing {path:?}: {e}"))?;
    } else {
        m.put("setup_s", median_f(&e2e.setup_s), "s");
        m.put("tput_pps", median_f(&e2e.window_pps), "1/s");
        m.put("lat_p50_us", sliced(&e2e.lat_ns, 0.5), "us");
        m.put("lat_p75_us", sliced(&e2e.lat_ns, 0.75), "us");
        m.put("recovery_ms", trimmed_mean(&recovery_ms), "ms");
    }
    Ok(Report {
        attempted: ledger.sent(),
        failed,
        metrics: m,
    })
}

/// The open-loop phase at [`RATE_PPS`]; on failover, with kills.
fn open_phase(
    o: &Opts,
    chain: &mut Orchestrator,
    ledger: &mut Ledger,
    wl: &mut Workload,
    dur: Duration,
    trace: Option<&mut Trace>,
) -> Result<(drive::Open, Vec<Recovery>), String> {
    if o.kind == Kind::Failover {
        return open_with_kills(chain, ledger, wl, o.seed, dur, trace);
    }
    let open = drive::open_loop(&port(chain), ledger, wl, RATE_PPS, dur, None, trace);
    Ok((open, Vec::new()))
}

/// Kill/recover cycles on a quiet chain, each followed by one packet that
/// must come out of the recovered chain.
fn idle_recoveries(
    chain: &mut Orchestrator,
    ledger: &mut Ledger,
    wl: &mut Workload,
    seed: u64,
    dur: Duration,
    mut trace: Option<&mut Trace>,
) -> Result<Vec<Recovery>, String> {
    let end = Instant::now() + dur;
    let mut out = Vec::new();
    let mut dither = Dither(seed);
    while Instant::now() < end || out.is_empty() {
        let r = recover(chain, VICTIM)?;
        let done = Instant::now();
        drive::first_release(&port(chain), ledger, wl, done)
            .map_err(|e| format!("after recovering replica {VICTIM}: {e}"))?;
        if let Some(t) = trace.as_deref_mut() {
            trace_recovery(t, &r, done, out.len() as u64);
        }
        out.push(r);
        std::thread::sleep(dither.up_to(Duration::from_millis(2)));
    }
    Ok(out)
}

/// Seeded random delays (SplitMix64). The chain's threads poll on 1 ms
/// timeouts, so a recovery's duration depends on where in that quantum it
/// starts; starting each one at a random offset makes a run's average
/// cover the quantum evenly instead of locking onto one phase.
struct Dither(u64);

impl Dither {
    fn up_to(&mut self, max: Duration) -> Duration {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        max.mul_f64((z >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The failover open loop: one generator thread at the fixed rate while a
/// second thread repeatedly kills the victim replica and recovers it. The
/// generator holds its sends while the chain is killed (see [`Gate`]).
fn open_with_kills(
    orch: &mut Orchestrator,
    ledger: &mut Ledger,
    wl: &mut Workload,
    seed: u64,
    dur: Duration,
    mut trace: Option<&mut Trace>,
) -> Result<(drive::Open, Vec<Recovery>), String> {
    /// Time between kills: long enough that the packets held across a
    /// recovery stay a few percent of the load.
    const PERIOD: Duration = Duration::from_millis(250);
    let ingress = Arc::clone(&orch.chain.ingress);
    let port = Port {
        inject: Box::new(move |p: Packet| {
            let _ = ingress.lock().send(p.into_bytes());
        }),
        egress: orch.chain.egress(),
    };
    let gate = Gate::default();
    let traced = trace.is_some();
    let start = Instant::now();
    let (open, killer) = std::thread::scope(|s| {
        let gate = &gate;
        let killer = s.spawn(move || -> Result<(Vec<Recovery>, Trace), String> {
            let mut recs = Vec::new();
            let mut spans = Trace::new(start);
            let mut dither = Dither(seed);
            let mut next = start + PERIOD;
            while next + PERIOD < start + dur {
                let at = next + dither.up_to(Duration::from_millis(2));
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                next += PERIOD;
                if !gate.hold() {
                    gate.release();
                    return Err("the chain did not drain before a kill".into());
                }
                let r = recover(orch, VICTIM);
                let done = Instant::now();
                gate.release();
                let r = r?;
                if traced {
                    trace_recovery(&mut spans, &r, done, recs.len() as u64);
                }
                recs.push(r);
            }
            Ok((recs, spans))
        });
        let open = drive::open_loop(
            &port,
            ledger,
            wl,
            RATE_PPS,
            dur,
            Some(gate),
            trace.as_deref_mut(),
        );
        (open, killer.join().expect("killer thread panicked"))
    });
    let (recs, spans) = killer?;
    if let Some(t) = trace {
        t.extend(spans);
    }
    Ok((open, recs))
}

/// `mon:packets:*` summed over the counter groups, on every own store and
/// every replicated copy, must equal the packets the chain released: each
/// Monitor's count exists f + 1 times.
fn check_counters(o: &Orchestrator, shape: &Shape, released: u64) -> Result<(), String> {
    let sharing = match shape.specs[0] {
        MbSpec::Monitor { sharing_level } => sharing_level,
        _ => 1,
    };
    let mut keys: Vec<_> = (0..shape.workers)
        .map(|w| Monitor::new(sharing).counter_key(w))
        .collect();
    keys.dedup();
    let count = |store: &Arc<dyn StateBackend>| -> u64 {
        keys.iter().filter_map(|k| store.peek_u64(k)).sum()
    };
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let mut copies = Vec::new();
        for slot in &o.chain.replicas {
            copies.push((slot.state.idx, slot.state.idx, count(&slot.state.own_store)));
            for (m, g) in &slot.state.replicated {
                copies.push((slot.state.idx, *m, count(&g.store)));
            }
        }
        let wrong: Vec<_> = copies.iter().filter(|c| c.2 != released).collect();
        if wrong.is_empty() && copies.len() == 2 * o.chain.replicas.len() {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "monitor counters disagree with {released} released packets: \
                 (replica, monitor, count) {wrong:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The traced run's report: every per-layer metric, the layer
/// reconciliation, and the tracing overhead.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    o: &Opts,
    shape: &Shape,
    chain: &Orchestrator,
    e2e: &EndToEnd,
    traced_tput: f64,
    traced_lat: &[Vec<u64>],
    trace: &mut Trace,
    dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let snap = chain.chain.metrics.snapshot();
    let n = shape.specs.len() as f64;
    let released = snap.released.max(1) as f64;

    m.put(
        "traffic.gen_ns",
        median(&trace.self_ns("traffic.gen")),
        "ns",
    );
    m.put(
        "traffic.late_p99_us",
        quantile(&e2e.late_ns, 0.99) / 1e3,
        "us",
    );
    m.put(
        "traffic.late_max_us",
        quantile(&e2e.late_ns, 1.0) / 1e3,
        "us",
    );
    let pooled = e2e.lat_ns.concat();
    m.put("traffic.lat_p90_us", quantile(&pooled, 0.9) / 1e3, "us");
    m.put("traffic.lat_p99_us", quantile(&pooled, 0.99) / 1e3, "us");
    m.put("traffic.lat_samples", pooled.len() as f64, "count");

    let inject_ns = median(&trace.self_ns("core.inject"));
    m.put("core.inject_ns", inject_ns, "ns");
    let stages = [
        ("forwarder", snap.forwarder),
        ("transaction", snap.transaction),
        ("piggyback", snap.piggyback),
        ("apply", snap.apply),
        ("buffer", snap.buffer),
    ];
    let (mut path_ns, mut work_ns) = (0.0, 0.0);
    for (name, s) in stages {
        m.put(&format!("core.{name}_ns"), s.p50_ns as f64, "ns");
        m.put(&format!("core.{name}_samples"), s.samples as f64, "count");
        // Samples per released packet: how often one packet's path
        // crosses the stage.
        let per_pkt = s.samples as f64 / released;
        path_ns += s.p50_ns as f64 * per_pkt;
        work_ns += s.mean_ns as f64 * per_pkt;
    }
    let lat_p50_us = sliced(&e2e.lat_ns, 0.5);
    let stage_sum_us = path_ns / 1e3;
    m.put("core.stage_sum_us", stage_sum_us, "us");
    m.put("core.unattributed_us", lat_p50_us - stage_sum_us, "us");
    let per_pkt = |v: u64| v as f64 / released;
    m.put(
        "core.logs_applied_per_pkt",
        per_pkt(snap.logs_applied),
        "count",
    );
    m.put(
        "core.logs_parked_per_pkt",
        per_pkt(snap.logs_parked),
        "count",
    );
    m.put("core.logs_stale_per_pkt", per_pkt(snap.logs_stale), "count");
    m.put(
        "core.propagating_per_pkt",
        per_pkt(snap.propagating),
        "count",
    );
    m.put("core.trailer_bytes_mean", snap.mean_piggyback_bytes, "B");

    let mut probe_wl = drive::workload(shape.flows, o.seed);
    let stm = layers::stm_probe(&shape.specs, shape.workers, &mut probe_wl, 20_000, trace);
    m.put("stm.txn_ns", stm.txn_ns, "ns");
    m.put("stm.log_bytes", stm.log_bytes, "B");
    let (mut commits, mut aborts) = (0, 0);
    for slot in &chain.chain.replicas {
        let stores = std::iter::once(&slot.state.own_store)
            .chain(slot.state.replicated.values().map(|g| &g.store));
        for store in stores {
            let (c, a, _) = store.stats_snapshot();
            commits += c;
            aborts += a;
        }
    }
    m.put(
        "stm.aborts_per_commit",
        aborts as f64 / commits.max(1) as f64,
        "ratio",
    );

    let (enc, dec) = layers::piggyback_probe(&stm.logs, 20_000, trace);
    m.put("packet.pgb_encode_ns", enc, "ns");
    m.put("packet.pgb_decode_ns", dec, "ns");

    let handoff_us = layers::handoff_probe(5_000, trace)?;
    let sock_rtt_us = layers::sock_probe(&dir.join("probe"), 2_000, trace)?;
    m.put("net.handoff_us", handoff_us, "us");
    m.put("net.sock_rtt_us", sock_rtt_us, "us");

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let recs = &e2e.recoveries;
    let med = |f: &dyn Fn(&Recovery) -> f64| median_f(&recs.iter().map(f).collect::<Vec<_>>());
    let phase = |f: fn(&RecoveryReport) -> Duration| med(&|r: &Recovery| ms(f(&r.report)));
    m.put("orch.deploy_ms", median_f(&e2e.deploy_ms), "ms");
    m.put("orch.kill_ms", med(&|r| ms(r.kill)), "ms");
    m.put("orch.recover_ms", med(&|r| ms(r.total - r.kill)), "ms");
    m.put("orch.init_ms", phase(|p| p.initialization), "ms");
    m.put("orch.fetch_ms", phase(|p| p.state_recovery), "ms");
    m.put("orch.reroute_ms", phase(|p| p.rerouting), "ms");
    m.put(
        "orch.state_bytes",
        med(&|r| r.report.bytes_transferred as f64),
        "B",
    );

    // Reconciliation: the layers along one packet's path against the
    // measured latency, and all attributed work against the core time
    // each packet gets at the measured throughput.
    // Queues a packet crosses: ingress, one NIC queue and one link per
    // replica, egress.
    let handoffs = 2.0 * n + 2.0;
    let path_us = inject_ns / 1e3 + stage_sum_us + handoffs * handoff_us;
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get()) as f64;
    let tput_pps = median_f(&e2e.window_pps);
    let core_us = cores * 1e6 / tput_pps.max(1.0);
    let work_us = inject_ns / 1e3 + work_ns / 1e3;
    m.put("reconcile.path_sum_us", path_us, "us");
    m.put("reconcile.path_share", path_us / lat_p50_us, "ratio");
    m.put("reconcile.core_us_per_pkt", core_us, "us");
    m.put("reconcile.work_us_per_pkt", work_us, "us");
    m.put("reconcile.work_share", work_us / core_us, "ratio");
    println!(
        "reconciliation ({}): path = inject {:.2} + stages {:.2} + {handoffs} hand-offs x {:.2} \
         = {:.2} us of lat_p50 {:.2} us ({:.0}%)",
        o.kind.name(),
        inject_ns / 1e3,
        stage_sum_us,
        handoff_us,
        path_us,
        lat_p50_us,
        100.0 * path_us / lat_p50_us
    );
    println!(
        "reconciliation ({}): work = {:.2} us per packet of {:.2} us core time \
         ({cores} cores / {:.0} pps) ({:.0}%)",
        o.kind.name(),
        work_us,
        core_us,
        tput_pps,
        100.0 * work_us / core_us
    );

    let traced_p50 = sliced(traced_lat, 0.5);
    m.put("trace.tput_pps", traced_tput, "1/s");
    m.put("trace.lat_p50_us", traced_p50, "us");
    m.put(
        "trace.overhead_tput_pct",
        100.0 * (tput_pps - traced_tput) / tput_pps.max(1.0),
        "%",
    );
    m.put(
        "trace.overhead_lat_pct",
        100.0 * (traced_p50 - lat_p50_us) / lat_p50_us.max(1e-9),
        "%",
    );
    m.put("trace.spans", trace.spans.len() as f64, "count");
    println!(
        "tracing overhead ({}): tput {:.0} -> {:.0} pps, lat_p50 {:.2} -> {:.2} us, {} spans",
        o.kind.name(),
        tput_pps,
        traced_tput,
        lat_p50_us,
        traced_p50,
        trace.spans.len()
    );
    Ok(())
}
