//! The simulation proper: per-packet walks over FIFO resource timelines.

use crate::cost::CostModel;
use crate::model::{Ablation, MbKind, SimConfig, SystemKind};
use crate::report::SimReport;
use crate::resource::{Resource, SimNs, StallSchedule};
use ftc_traffic::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of state partitions assumed for NAT-style flow-keyed locks.
const NAT_PARTITIONS: usize = 32;

/// Runs one simulation and reports throughput + latency.
///
/// ```
/// use ftc_sim::{simulate, MbKind, SimConfig, SystemKind};
///
/// // Maximum throughput of a 2-middlebox FTC chain.
/// let cfg = SimConfig::saturated(
///     SystemKind::Ftc { f: 1 },
///     vec![MbKind::Monitor { sharing: 1 }; 2],
/// )
/// .with_duration(0.005);
/// let report = simulate(&cfg);
/// assert!(report.mpps() > 5.0);
/// ```
pub fn simulate(cfg: &SimConfig) -> SimReport {
    assert!(!cfg.chain.is_empty());
    assert!(cfg.workers >= 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Arrival process: constant bit rate with ±2% jitter, uniform flows.
    let gap = 1e9 / cfg.offered_pps;
    let total = (cfg.offered_pps * cfg.duration_s) as usize;
    let mut arrivals: Vec<SimNs> = Vec::with_capacity(total);
    let mut flows: Vec<u64> = Vec::with_capacity(total);
    let mut t = 0.0;
    for _ in 0..total {
        t += gap * (1.0 + 0.04 * (rng.gen::<f64>() - 0.5));
        arrivals.push(t);
        flows.push(rng.gen_range(0..cfg.flows as u64));
    }

    let (exits, trailer_mean) = match cfg.system {
        SystemKind::Nf => (walk_nf(cfg, &arrivals, &flows, &mut rng), 0.0),
        SystemKind::Ftmb { snapshot } => {
            (walk_ftmb(cfg, &arrivals, &flows, snapshot, &mut rng), 0.0)
        }
        SystemKind::Ftc { f } => walk_ftc(cfg, &arrivals, &flows, f, &mut rng),
    };

    // FTC: resolve buffer releases; others release at exit.
    let releases = match cfg.system {
        SystemKind::Ftc { f } => ftc_releases(cfg, f, &arrivals, &exits),
        _ => exits.clone(),
    };

    // Measurement window: discard warmup, stop at the virtual end.
    let t_lo = cfg.duration_s * 1e9 * cfg.warmup_frac;
    let t_hi = cfg.duration_s * 1e9;
    let mut latency = Histogram::new();
    let mut released = 0u64;
    let mut injected = 0u64;
    for i in 0..arrivals.len() {
        if arrivals[i] >= t_lo && arrivals[i] < t_hi {
            injected += 1;
        }
        let r = releases[i];
        if r >= t_lo && r < t_hi {
            released += 1;
            latency.record_ns((r - arrivals[i]).max(0.0) as u64);
        }
    }
    let window_s = (t_hi - t_lo) / 1e9;
    SimReport {
        system: cfg.system.name(),
        offered_pps: cfg.offered_pps,
        achieved_pps: released as f64 / window_s,
        injected,
        released,
        latency,
        trailer_bytes: trailer_mean,
    }
}

fn rss(flow: u64, workers: usize) -> usize {
    (flow % workers as u64) as usize
}

/// Jittered per-server IO latency.
fn io_ns(c: &CostModel, rng: &mut StdRng) -> f64 {
    c.hop_io_latency_ns * (1.0 + c.io_jitter * (2.0 * rng.gen::<f64>() - 1.0))
}

/// Parallel (per-core, uncontended) processing time of a middlebox.
fn mb_parallel_ns(kind: MbKind, c: &CostModel) -> f64 {
    match kind {
        MbKind::MazuNat => c.cy(c.mazu_proc_cy),
        MbKind::SimpleNat => c.cy(c.snat_proc_cy),
        MbKind::Monitor { .. } => c.cy(c.monitor_proc_cy),
        MbKind::Gen { state } => c.cy(c.gen_proc_cy + c.gen_per_byte_cy * state as f64),
        MbKind::Firewall => c.cy(c.firewall_proc_cy),
        MbKind::Passthrough => 0.0,
    }
}

/// Critical-section time (serialized on the middlebox's lock).
fn mb_cs_ns(kind: MbKind, c: &CostModel) -> f64 {
    match kind {
        MbKind::MazuNat => c.cy(c.mazu_cs_cy),
        MbKind::SimpleNat => c.cy(c.snat_cs_cy),
        MbKind::Monitor { .. } => c.cy(c.monitor_cs_cy),
        MbKind::Gen { .. } => 0.0, // per-worker state: no sharing
        MbKind::Firewall | MbKind::Passthrough => 0.0,
    }
}

/// Number of locks a middlebox's shared state fans out over, and the lock a
/// given (worker, flow) uses.
fn lock_of(kind: MbKind, workers: usize, w: usize, flow: u64) -> Option<(usize, usize)> {
    match kind {
        MbKind::Monitor { sharing } => {
            let groups = workers.div_ceil(sharing);
            Some((groups, w / sharing))
        }
        MbKind::MazuNat | MbKind::SimpleNat => {
            Some((NAT_PARTITIONS, (flow % NAT_PARTITIONS as u64) as usize))
        }
        MbKind::Gen { .. } | MbKind::Firewall | MbKind::Passthrough => None,
    }
}

/// Serialized log-apply streams a predecessor's piggyback logs arrive on
/// (mirrors `lock_of`: one stream per upstream lock group / writer).
fn stream_of(kind: MbKind, workers: usize, flow: u64) -> (usize, usize) {
    match kind {
        MbKind::Monitor { sharing } => {
            let groups = workers.div_ceil(sharing);
            (groups, rss(flow, workers) / sharing)
        }
        MbKind::Gen { .. } => (workers, rss(flow, workers)),
        _ => (NAT_PARTITIONS, (flow % NAT_PARTITIONS as u64) as usize),
    }
}

struct Hop {
    link: Resource,
}

// ---------------------------------------------------------------- NF ----

fn walk_nf(cfg: &SimConfig, arrivals: &[SimNs], flows: &[u64], rng: &mut StdRng) -> Vec<SimNs> {
    let c = &cfg.cost;
    let n = cfg.chain.len();
    let mut nics: Vec<Resource> = (0..n).map(|_| Resource::new()).collect();
    let mut workers: Vec<Vec<SimNs>> = vec![vec![0.0; cfg.workers]; n];
    let mut locks: Vec<Vec<Resource>> = cfg
        .chain
        .iter()
        .map(|&k| {
            let cnt = lock_of(k, cfg.workers, 0, 0).map(|(c, _)| c).unwrap_or(0);
            (0..cnt).map(|_| Resource::new()).collect()
        })
        .collect();
    let mut hops: Vec<Hop> = (0..n)
        .map(|_| Hop {
            link: Resource::new(),
        })
        .collect();

    let max_backlog = c.nic_queue_frames as f64 * c.nic_ns(cfg.packet_bytes);
    let mut exits = Vec::with_capacity(arrivals.len());
    for (i, &a) in arrivals.iter().enumerate() {
        let fl = flows[i];
        let mut t = a;
        let mut dropped = false;
        for s in 0..n {
            let kind = cfg.chain[s];
            if nics[s].backlog_at(t) > max_backlog {
                dropped = true; // RX-ring overrun at an overloaded stage
                break;
            }
            t = nics[s].serve(t, c.nic_ns(cfg.packet_bytes));
            t += io_ns(c, rng);
            let w = rss(fl, cfg.workers);
            if workers[s][w] - t > c.worker_queue_ns {
                dropped = true; // RSS ring overrun
                break;
            }
            t = t.max(workers[s][w]);
            t += mb_parallel_ns(kind, c);
            if let Some((_, li)) = lock_of(kind, cfg.workers, w, fl) {
                t = locks[s][li].serve(t, mb_cs_ns(kind, c));
            }
            workers[s][w] = t;
            t = hops[s].link.serve(t, c.wire_ns(cfg.packet_bytes)) + c.link_prop_ns;
        }
        exits.push(if dropped { f64::INFINITY } else { t });
    }
    exits
}

// -------------------------------------------------------------- FTMB ----

fn walk_ftmb(
    cfg: &SimConfig,
    arrivals: &[SimNs],
    flows: &[u64],
    snapshot: Option<(f64, f64)>,
    rng: &mut StdRng,
) -> Vec<SimNs> {
    let c = &cfg.cost;
    let n = cfg.chain.len();
    let mut il_nics: Vec<Resource> = (0..n).map(|_| Resource::new()).collect();
    let mut links_il_m: Vec<Resource> = (0..n).map(|_| Resource::new()).collect();
    let mut m_nics: Vec<Resource> = (0..n).map(|_| Resource::new()).collect();
    let mut workers: Vec<Vec<SimNs>> = vec![vec![0.0; cfg.workers]; n];
    let mut locks: Vec<Vec<Resource>> = cfg
        .chain
        .iter()
        .map(|&k| {
            let cnt = lock_of(k, cfg.workers, 0, 0).map(|(c, _)| c).unwrap_or(0);
            (0..cnt).map(|_| Resource::new()).collect()
        })
        .collect();
    let mut links_m_ol: Vec<Resource> = (0..n).map(|_| Resource::new()).collect();
    let mut ols: Vec<Resource> = (0..n).map(|_| Resource::new()).collect();
    let mut links_out: Vec<Resource> = (0..n).map(|_| Resource::new()).collect();
    let stalls: Vec<Option<StallSchedule>> = (0..n)
        .map(|s| {
            snapshot.map(|(period, pause)| StallSchedule {
                period,
                pause,
                // Chained middleboxes checkpoint unsynchronized (§7.4:
                // "non-overlapping snapshots cause higher throughput drops").
                phase: period * (s as f64) / (n as f64),
            })
        })
        .collect();

    let max_backlog = c.nic_queue_frames as f64 * c.nic_ns(cfg.packet_bytes);
    let mut exits = Vec::with_capacity(arrivals.len());
    for (i, &a) in arrivals.iter().enumerate() {
        let fl = flows[i];
        let mut t = a;
        let mut dropped = false;
        for s in 0..n {
            let kind = cfg.chain[s];
            // IL on the logger server.
            if il_nics[s].backlog_at(t) > max_backlog {
                dropped = true;
                break;
            }
            t = il_nics[s].serve(t, c.nic_ns(cfg.packet_bytes));
            t += io_ns(c, rng) + c.cy(c.ftmb_il_cy);
            t = links_il_m[s].serve(t, c.wire_ns(cfg.packet_bytes)) + c.link_prop_ns;
            // Master.
            if m_nics[s].backlog_at(t) > max_backlog {
                dropped = true;
                break;
            }
            t = m_nics[s].serve(t, c.nic_ns(cfg.packet_bytes));
            t += io_ns(c, rng);
            let w = rss(fl, cfg.workers);
            if workers[s][w] - t > c.worker_queue_ns {
                dropped = true;
                break;
            }
            let mut start = t.max(workers[s][w]);
            if let Some(stall) = &stalls[s] {
                start = stall.next_available(start);
            }
            t = start + mb_parallel_ns(kind, c);
            if let Some((_, li)) = lock_of(kind, cfg.workers, w, fl) {
                // The PAL records the *order* of shared-state accesses, so
                // it is generated while the lock is held.
                let pal = if kind.is_stateful() {
                    c.cy(c.ftmb_pal_cy)
                } else {
                    0.0
                };
                t = locks[s][li].serve(t, mb_cs_ns(kind, c) + pal);
            } else if kind.is_stateful() {
                t += c.cy(c.ftmb_pal_cy); // unshared state: PAL off the lock
            }
            workers[s][w] = t;
            // Data and PAL race to the OL on separate links.
            let pal_done = if kind.is_stateful() {
                t + c.wire_ns(c.ftmb_pal_bytes) + c.link_prop_ns
            } else {
                t
            };
            t = links_m_ol[s].serve(t, c.wire_ns(cfg.packet_bytes)) + c.link_prop_ns;
            t = t.max(pal_done);
            // The OL's own queue overruns if it is the bottleneck.
            if ols[s].backlog_at(t) > max_backlog {
                dropped = true;
                break;
            }
            t = ols[s].serve(t, c.ftmb_ol_ns) + io_ns(c, rng);
            t = links_out[s].serve(t, c.wire_ns(cfg.packet_bytes)) + c.link_prop_ns;
        }
        exits.push(if dropped { f64::INFINITY } else { t });
    }
    exits
}

// --------------------------------------------------------------- FTC ----

/// Per-hop piggyback trailer bytes for an FTC chain (steady state): logs of
/// writing middleboxes ride from their head to their tail (f hops, wrapping
/// through the buffer→forwarder feedback); commit vectors of wrapped
/// middleboxes ride from their tail to the buffer.
fn ftc_trailer_bytes(cfg: &SimConfig, f: usize, hop: usize) -> usize {
    let n = cfg.chain.len();
    let c = &cfg.cost;
    let mut bytes = c.ftc_framing_bytes;
    for (m, kind) in cfg.chain.iter().enumerate() {
        if !kind.writes_per_packet() {
            continue;
        }
        let log = c.ftc_log_overhead_bytes + kind.state_bytes();
        let tail = m + f; // may exceed n-1: wrapped
                          // Pre-wrap hops: stage m .. min(tail, n-1)-1 → hop index h carries
                          // the log when m <= h < min(tail, n).
        if m <= hop && hop < tail.min(n) {
            bytes += log;
        }
        // Post-wrap hops (feedback-attached logs): carried into stages
        // 0..=(tail - n), i.e. hops 0..(tail - n).
        if tail >= n && hop < tail - n {
            bytes += log;
        }
        // Commit vector from a wrapped tail to the buffer.
        if tail >= n && hop >= tail - n {
            bytes += c.ftc_commit_bytes;
        }
    }
    bytes
}

fn walk_ftc(
    cfg: &SimConfig,
    arrivals: &[SimNs],
    flows: &[u64],
    f: usize,
    rng: &mut StdRng,
) -> (Vec<SimNs>, f64) {
    let c = &cfg.cost;
    let n = cfg.chain.len();
    let mut nics: Vec<Resource> = (0..n).map(|_| Resource::new()).collect();
    let mut workers: Vec<Vec<SimNs>> = vec![vec![0.0; cfg.workers]; n];
    let mut locks: Vec<Vec<Resource>> = cfg
        .chain
        .iter()
        .map(|&k| {
            let cnt = lock_of(k, cfg.workers, 0, 0).map(|(c, _)| c).unwrap_or(0);
            (0..cnt).map(|_| Resource::new()).collect()
        })
        .collect();
    // Apply streams at stage s for predecessor slot d (1..=f): one resource
    // per upstream writer stream. The total-order ablation collapses them
    // to a single stream (no dependency vectors, §4.2's single sequence
    // number).
    let total_order = cfg.ablation == Some(Ablation::TotalOrderReplication);
    let mut streams: Vec<Vec<Vec<Resource>>> = (0..n)
        .map(|s| {
            (1..=f)
                .map(|d| {
                    let pred = (s + n - (d % n)) % n;
                    let cnt = if total_order {
                        1
                    } else {
                        stream_of(cfg.chain[pred], cfg.workers, 0).0
                    };
                    (0..cnt).map(|_| Resource::new()).collect()
                })
                .collect()
        })
        .collect();
    let mut hops: Vec<Hop> = (0..n)
        .map(|_| Hop {
            link: Resource::new(),
        })
        .collect();
    let mut buffer_cpu = Resource::new();
    // Ablation: per-stage replication channel (the successor's message-
    // processing capacity on a separate queue).
    let mut repl_ch: Vec<Resource> = (0..n).map(|_| Resource::new()).collect();

    let trailer: Vec<usize> = (0..n).map(|h| ftc_trailer_bytes(cfg, f, h)).collect();
    let trailer_mean = trailer.iter().map(|&b| b as f64).sum::<f64>() / n as f64;

    let max_backlog = c.nic_queue_frames as f64 * c.nic_ns(cfg.packet_bytes);
    let mut exits = Vec::with_capacity(arrivals.len());
    for (i, &a) in arrivals.iter().enumerate() {
        let fl = flows[i];
        let mut t = a;
        let mut dropped = false;
        for s in 0..n {
            let kind = cfg.chain[s];
            // The frame entering stage s still carries hop s-1's trailer.
            let rx_bytes = if s == 0 {
                cfg.packet_bytes
            } else {
                cfg.packet_bytes + trailer[s - 1]
            };
            if nics[s].backlog_at(t) > max_backlog {
                dropped = true;
                break;
            }
            t = nics[s].serve(t, c.nic_ns(rx_bytes));
            t += io_ns(c, rng);
            if s == 0 {
                t += c.cy(c.ftc_forwarder_cy); // forwarder shares server 0
            }
            let w = rss(fl, cfg.workers);
            if workers[s][w] - t > c.worker_queue_ns {
                dropped = true;
                break;
            }
            t = t.max(workers[s][w]);
            // Apply the piggybacked logs of the f predecessors (in steady
            // state: one log per writing predecessor per packet).
            for d in 1..=f {
                let pred = (s + n - (d % n)) % n;
                let pk = cfg.chain[pred];
                if !pk.writes_per_packet() {
                    continue;
                }
                let apply_ns =
                    c.cy(c.ftc_apply_cy + c.ftc_apply_per_byte_cy * pk.state_bytes() as f64);
                let si = if total_order {
                    0
                } else {
                    stream_of(pk, cfg.workers, fl).1
                };
                t = streams[s][d - 1][si].serve(t, apply_ns);
            }
            // The packet transaction + piggyback construction. Writes are
            // copied into the log at commit, while the partition locks are
            // still held — so the piggyback cost extends the critical
            // section for shared state (and the parallel part otherwise).
            t += mb_parallel_ns(kind, c);
            let mut pb = 0.0;
            if kind.writes_per_packet() && f > 0 {
                pb = c
                    .cy(c.ftc_piggyback_cy
                        + c.ftc_piggyback_per_byte_cy * kind.state_bytes() as f64);
                if cfg.ablation == Some(Ablation::NoPiggyback) {
                    // Separate replication message per update instead of
                    // piggybacking: the head builds and sends it…
                    pb += c.cy(c.ftmb_pal_cy);
                }
            }
            if let Some((_, li)) = lock_of(kind, cfg.workers, w, fl) {
                t = locks[s][li].serve(t, mb_cs_ns(kind, c) + pb);
            } else {
                t += pb;
            }
            if cfg.ablation == Some(Ablation::NoPiggyback)
                && kind.writes_per_packet()
                && f > 0
                && s + 1 < n
            {
                // …and waits for the replica's acknowledgment before
                // releasing the packet (§2.2: "a middlebox can release a
                // packet only when it receives an acknowledgement that
                // relevant state updates are replicated"): the message is
                // processed by the successor's replication channel and the
                // ack pays a round trip.
                t = repl_ch[s + 1].serve(t, c.nic_ns(c.ftmb_pal_bytes + kind.state_bytes()))
                    + 2.0 * c.link_prop_ns;
            }
            workers[s][w] = t;
            let frame = cfg.packet_bytes + trailer[s];
            t = hops[s].link.serve(t, c.wire_ns(frame)) + c.link_prop_ns;
        }
        if dropped {
            exits.push(f64::INFINITY);
        } else {
            t = buffer_cpu.serve(t, c.cy(c.ftc_buffer_cy));
            exits.push(t);
        }
    }
    (exits, trailer_mean)
}

/// Resolves FTC buffer releases: a packet carrying wrapped writers' logs is
/// withheld until a later *carrier* packet (or a propagating packet) brings
/// the commit vector back around the ring (paper §5.1).
/// Same rule as the runtime forwarder: a carrier within the timeout of the
/// feedback takes the logs, else a propagating packet goes (the 1 ms
/// timeout models the paper's testbed).
fn ftc_releases(cfg: &SimConfig, f: usize, arrivals: &[SimNs], exits: &[SimNs]) -> Vec<SimNs> {
    let n = cfg.chain.len();
    let c = &cfg.cost;
    // Does any wrapped middlebox write per packet?
    let any_wrapped_writes = (0..n).any(|m| m + f >= n && cfg.chain[m].writes_per_packet());
    if !any_wrapped_writes || f == 0 {
        return exits.to_vec();
    }
    // Feedback delay buffer→forwarder (the paper's separate 10 GbE link).
    let fb_delay = c.link_prop_ns + 40.0;
    // A propagating packet's traversal time on an idle chain.
    let prop_traverse: f64 = (0..n)
        .map(|h| {
            c.nic_ns(128)
                + c.hop_io_latency_ns
                + c.cy(c.ftc_apply_cy)
                + c.wire_ns(128 + ftc_trailer_bytes(cfg, f, h))
                + c.link_prop_ns
        })
        .sum();

    // Carriers must be *admitted* packets: collect (arrival, exit) of
    // non-dropped packets for the carrier search.
    let admitted: Vec<(SimNs, SimNs)> = arrivals
        .iter()
        .zip(exits)
        .filter(|&(_, &e)| e.is_finite())
        .map(|(&a, &e)| (a, e))
        .collect();
    let mut releases = Vec::with_capacity(exits.len());
    for &exit in exits {
        if !exit.is_finite() {
            releases.push(f64::INFINITY);
            continue;
        }
        let fb_ready = exit + fb_delay;
        // First admitted packet injected after the feedback arrived.
        let j = admitted.partition_point(|&(a, _)| a < fb_ready);
        let rel = if j < admitted.len() && admitted[j].0 - fb_ready <= c.ftc_propagate_timeout_ns {
            admitted[j].1.max(exit)
        } else {
            // Idle chain: the forwarder's timer emits a propagating packet.
            fb_ready + c.ftc_propagate_timeout_ns + prop_traverse
        };
        releases.push(rel);
    }
    releases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MbKind, SimConfig, SystemKind};

    fn monitors(n: usize, sharing: usize) -> Vec<MbKind> {
        vec![MbKind::Monitor { sharing }; n]
    }

    #[test]
    fn nf_single_monitor_hits_nic_cap_at_sharing_1() {
        let cfg = SimConfig::saturated(SystemKind::Nf, monitors(1, 1)).with_duration(0.02);
        let r = simulate(&cfg);
        assert!(
            (9.0..=10.8).contains(&r.mpps()),
            "NF Monitor sharing 1 must be NIC-capped: {} Mpps",
            r.mpps()
        );
    }

    #[test]
    fn sharing_reduces_throughput() {
        let lo =
            simulate(&SimConfig::saturated(SystemKind::Nf, monitors(1, 1)).with_duration(0.02));
        let hi =
            simulate(&SimConfig::saturated(SystemKind::Nf, monitors(1, 8)).with_duration(0.02));
        assert!(
            hi.mpps() < lo.mpps() * 0.6,
            "full sharing must cost throughput: {} vs {}",
            hi.mpps(),
            lo.mpps()
        );
        // Fully shared Monitor ≈ 1/cs ≈ 4.5 Mpps.
        assert!((3.5..=5.5).contains(&hi.mpps()), "{}", hi.mpps());
    }

    #[test]
    fn system_ordering_nf_ftc_ftmb() {
        let chain = monitors(2, 1);
        let nf = simulate(&SimConfig::saturated(SystemKind::Nf, chain.clone()).with_duration(0.02));
        let ftc = simulate(
            &SimConfig::saturated(SystemKind::Ftc { f: 1 }, chain.clone()).with_duration(0.02),
        );
        let ftmb = simulate(
            &SimConfig::saturated(SystemKind::Ftmb { snapshot: None }, chain).with_duration(0.02),
        );
        assert!(
            nf.mpps() >= ftc.mpps() * 0.99,
            "NF ≥ FTC: {} vs {}",
            nf.mpps(),
            ftc.mpps()
        );
        assert!(
            ftc.mpps() > ftmb.mpps() * 1.15,
            "FTC must beat FTMB clearly: {} vs {}",
            ftc.mpps(),
            ftmb.mpps()
        );
        // FTMB capped near 5.26 Mpps by per-packet PALs + OL.
        assert!((4.0..=5.6).contains(&ftmb.mpps()), "{}", ftmb.mpps());
    }

    #[test]
    fn ftc_latency_grows_with_chain_length() {
        let mut means = Vec::new();
        for n in [2usize, 5] {
            let cfg = SimConfig::at_rate(SystemKind::Ftc { f: 1 }, monitors(n, 1), 2e6)
                .with_workers(1)
                .with_duration(0.02);
            let r = simulate(&cfg);
            assert!(r.released > 0);
            means.push(r.mean_latency().unwrap());
        }
        assert!(
            means[1] > means[0],
            "latency must grow with chain length: {means:?}"
        );
    }

    #[test]
    fn ftc_buffer_holds_cost_latency_but_not_throughput() {
        let chain = monitors(3, 1);
        let nf = SimConfig::at_rate(SystemKind::Nf, chain.clone(), 2e6)
            .with_workers(1)
            .with_duration(0.02);
        let ftc = SimConfig::at_rate(SystemKind::Ftc { f: 1 }, chain, 2e6)
            .with_workers(1)
            .with_duration(0.02);
        let rn = simulate(&nf);
        let rf = simulate(&ftc);
        assert!(rf.mean_latency().unwrap() > rn.mean_latency().unwrap());
        // Sustained load at 2 Mpps for both.
        assert!((1.8e6..2.2e6).contains(&rn.achieved_pps));
        assert!((1.8e6..2.2e6).contains(&rf.achieved_pps));
    }

    #[test]
    fn snapshots_hurt_long_chains_more() {
        let snap = Some((50e6, 6e6));
        let short = simulate(
            &SimConfig::saturated(SystemKind::Ftmb { snapshot: snap }, monitors(2, 1))
                .with_duration(0.3),
        );
        let long = simulate(
            &SimConfig::saturated(SystemKind::Ftmb { snapshot: snap }, monitors(5, 1))
                .with_duration(0.3),
        );
        let plain = simulate(
            &SimConfig::saturated(SystemKind::Ftmb { snapshot: None }, monitors(5, 1))
                .with_duration(0.3),
        );
        assert!(
            short.mpps() > long.mpps(),
            "{} vs {}",
            short.mpps(),
            long.mpps()
        );
        assert!(plain.mpps() > long.mpps());
    }

    #[test]
    fn latency_spikes_past_saturation() {
        let chain = monitors(1, 8);
        let under =
            simulate(&SimConfig::at_rate(SystemKind::Nf, chain.clone(), 2e6).with_duration(0.02));
        let over = simulate(&SimConfig::at_rate(SystemKind::Nf, chain, 8e6).with_duration(0.02));
        // Queue residency is ring-bounded, so the spike is finite but must
        // still dwarf the uncongested latency.
        assert!(
            over.mean_latency().unwrap() > under.mean_latency().unwrap() * 5,
            "saturation must blow up latency: {:?} vs {:?}",
            over.mean_latency(),
            under.mean_latency()
        );
    }

    #[test]
    fn gen_state_size_reduces_throughput_modestly() {
        let small = simulate(
            &SimConfig::saturated(
                SystemKind::Ftc { f: 1 },
                vec![MbKind::Gen { state: 16 }, MbKind::Passthrough],
            )
            .with_workers(1)
            .with_duration(0.02),
        );
        let big = simulate(
            &SimConfig::saturated(
                SystemKind::Ftc { f: 1 },
                vec![MbKind::Gen { state: 256 }, MbKind::Passthrough],
            )
            .with_workers(1)
            .with_duration(0.02),
        );
        assert!(big.mpps() < small.mpps());
        assert!(
            big.mpps() > small.mpps() * 0.75,
            "state growth must cost only modest throughput: {} vs {}",
            big.mpps(),
            small.mpps()
        );
        assert!(big.trailer_bytes > small.trailer_bytes);
    }

    #[test]
    fn replication_factor_grows_trailer_and_costs_little_throughput() {
        let chain = monitors(5, 1);
        let f1 = simulate(
            &SimConfig::saturated(SystemKind::Ftc { f: 1 }, chain.clone()).with_duration(0.02),
        );
        let f4 =
            simulate(&SimConfig::saturated(SystemKind::Ftc { f: 4 }, chain).with_duration(0.02));
        assert!(f4.trailer_bytes > f1.trailer_bytes * 2.0);
        assert!(
            f4.mpps() > f1.mpps() * 0.8,
            "higher f must cost only a few percent: {} vs {}",
            f4.mpps(),
            f1.mpps()
        );
    }
}
