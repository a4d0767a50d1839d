//! A deterministic, single-threaded chain harness for protocol testing.
//!
//! The production runtime ([`crate::chain::FtcChain`]) runs replicas on
//! real threads, which makes interleavings uncontrollable. [`SyncChain`]
//! wires the *same* protocol state objects ([`crate::replica::ReplicaState`],
//! [`crate::forwarder::ForwarderState`], [`crate::buffer::BufferState`])
//! with synchronous stepping instead of threads, so property-based tests
//! can drive arbitrary schedules — "step replica 2, then the buffer, then
//! replica 0 twice…" — and check protocol invariants under every explored
//! interleaving, deterministically.

use crate::buffer::BufferState;
use crate::chain::Egress;
use crate::config::ChainConfig;
use crate::control::{InPort, OutPort};
use crate::forwarder::ForwarderState;
use crate::metrics::ChainMetrics;
use crate::probe::{ProbeVerdict, ProtocolProbe};
use crate::reconfig::{
    ClaimSample, ClaimView, ReconfigActor, ReconfigFailure, ReconfigOp, ReconfigPhase, ReconfigRun,
    ReconfigStats, SealRecord, TransferInterrupt,
};
use crate::recovery::RecoveryError;
use crate::replica::ReplicaState;
use bytes::BytesMut;
use crossbeam::channel::{self, Receiver, Sender};
use ftc_mbox::MbSpec;
use ftc_net::nic::Nic;
use ftc_net::{reliable_pair, Endpoint};
use ftc_packet::Packet;
use ftc_stm::PartitionExport;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Components that can be stepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Move frames from replica `i`'s in-port through its NIC and process
    /// one queued frame.
    Replica(usize),
    /// Deliver pending feedback to the forwarder.
    ForwarderFeedback,
    /// Fire the forwarder's propagation timer: send a propagating packet
    /// whenever logs are pending. This over-approximates the runtime rule
    /// (which sends only once the logs have waited `propagate_timeout`
    /// past the later of their arrival and the last ingress packet), so
    /// the explored schedules include every runtime one.
    ForwarderTimer,
    /// Process one frame at the buffer.
    Buffer,
    /// Fire the buffer's resend timer.
    BufferTimer,
}

/// A synchronous, deterministic FTC chain.
pub struct SyncChain {
    /// The chain's replicas (single worker each).
    pub replicas: Vec<Arc<ReplicaState>>,
    /// Chain-wide metrics (shared with the components).
    pub metrics: Arc<ChainMetrics>,
    forwarder: Arc<ForwarderState>,
    buffer: Arc<BufferState>,
    nics: Vec<Arc<Nic>>,
    worker_queues: Vec<Receiver<BytesMut>>,
    in_ports: Vec<Arc<InPort>>,
    buffer_in: Arc<InPort>,
    feedback_in: Arc<InPort>,
    egress: Receiver<Packet>,
    /// Sender side of the egress channel, kept so a splice can carry
    /// undrained egress packets across the topology swap.
    egress_tx: Sender<Packet>,
    /// Fail-stopped replicas: stepping them is a no-op until recovered.
    dead: Vec<AtomicBool>,
    /// Instances decommissioned by a reconfiguration. Kept (not dropped)
    /// because the I5 single-owner invariant must observe their claim
    /// tables: a retired-but-alive instance that still claims partitions
    /// is exactly the bug class the checker exists for.
    retired: Vec<Arc<ReplicaState>>,
    /// The chain-wide probe, re-installed on replacement replicas.
    probe: parking_lot::Mutex<Option<Arc<dyn ProtocolProbe>>>,
}

impl SyncChain {
    /// Builds a synchronous chain for `cfg` (worker count forced to 1; all
    /// links ideal — loss/reorder schedules are expressed through `Step`
    /// ordering instead).
    pub fn new(cfg: ChainConfig) -> SyncChain {
        let cfg = cfg.with_workers(1).with_link(Endpoint::in_proc());
        cfg.validate();
        let cfg = Arc::new(cfg);
        let specs = cfg.effective_middleboxes();
        let n = specs.len();
        let metrics = Arc::new(ChainMetrics::default());

        let mut in_ports: Vec<Arc<InPort>> = Vec::with_capacity(n);
        let mut out_ports: Vec<Arc<OutPort>> = Vec::with_capacity(n);
        in_ports.push(Arc::new(InPort::empty()));
        for _ in 0..n - 1 {
            let (tx, rx) = reliable_pair(&Endpoint::in_proc());
            out_ports.push(Arc::new(OutPort::wired(tx)));
            in_ports.push(Arc::new(InPort::wired(rx)));
        }
        let (tail_tx, buffer_rx) = reliable_pair(&Endpoint::in_proc());
        out_ports.push(Arc::new(OutPort::wired(tail_tx)));
        let buffer_in = Arc::new(InPort::wired(buffer_rx));
        let (fb_tx, fb_rx) = reliable_pair(&Endpoint::in_proc());
        let feedback_out = Arc::new(OutPort::wired(fb_tx));
        let feedback_in = Arc::new(InPort::wired(fb_rx));

        let (egress_tx, egress_rx) = channel::unbounded();
        let forwarder = ForwarderState::new(Arc::clone(&metrics));
        let buffer = BufferState::new(
            cfg.ring(),
            egress_tx.clone(),
            feedback_out,
            Arc::clone(&metrics),
        );

        let mut replicas = Vec::with_capacity(n);
        let mut nics = Vec::with_capacity(n);
        let mut worker_queues = Vec::with_capacity(n);
        for (i, spec) in specs.iter().enumerate() {
            let state = ReplicaState::new(
                i,
                Arc::clone(&cfg),
                spec.build(),
                Arc::clone(&out_ports[i]),
                Arc::clone(&metrics),
            );
            let mut nic = Nic::new(1, cfg.nic_queue_depth);
            worker_queues.push(nic.take_queue(0));
            nics.push(Arc::new(nic));
            replicas.push(state);
        }

        SyncChain {
            replicas,
            metrics,
            forwarder,
            buffer,
            nics,
            worker_queues,
            in_ports,
            buffer_in,
            feedback_in,
            egress: egress_rx,
            egress_tx,
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            retired: Vec::new(),
            probe: parking_lot::Mutex::new(None),
        }
    }

    /// Installs `probe` on every component (replicas, buffer, forwarder)
    /// and remembers it so replacement replicas built by
    /// [`Self::try_fail_and_recover`] are instrumented too.
    pub fn install_probe(&self, probe: Arc<dyn ProtocolProbe>) {
        for r in &self.replicas {
            r.probe.install(Arc::clone(&probe));
        }
        self.buffer.probe.install(Arc::clone(&probe));
        self.forwarder.probe.install(Arc::clone(&probe));
        *self.probe.lock() = Some(probe);
    }

    /// The buffer (e.g. for `sabotage_early_release` in negative fixtures).
    pub fn buffer(&self) -> &Arc<BufferState> {
        &self.buffer
    }

    /// The forwarder.
    pub fn forwarder(&self) -> &Arc<ForwarderState> {
        &self.forwarder
    }

    /// True while replica `idx` is fail-stopped.
    pub fn is_dead(&self, idx: usize) -> bool {
        self.dead[idx].load(Ordering::Acquire)
    }

    /// Fail-stops replica `idx` without recovering it: queued frames die
    /// with it and stepping it is a no-op until
    /// [`Self::try_fail_and_recover`] succeeds. Idempotent.
    pub fn mark_dead(&self, idx: usize) {
        self.dead[idx].store(true, Ordering::Release);
        while self.worker_queues[idx].try_recv().is_ok() {}
        while self.in_ports[idx].recv_timeout(Duration::ZERO).is_some() {}
    }

    /// Injects a packet at the forwarder (processed immediately into the
    /// first replica's NIC queue, like the ingress thread would).
    pub fn inject(&self, pkt: Packet) {
        self.forwarder
            .handle_ingress(pkt.into_bytes(), &self.nics[0]);
    }

    /// Executes one scheduling step. Returns true if any work happened.
    pub fn step(&self, step: Step) -> bool {
        match step {
            Step::Replica(i) => {
                let i = i % self.replicas.len();
                if self.is_dead(i) {
                    // Fail-stopped: frames headed here die with the server
                    // (the rewire on recovery discards the stale ports).
                    return false;
                }
                if self.replicas[i].is_paused() {
                    // Quiesced (§4.1 / a handover prepare): frames back up
                    // in the in-port, exactly like the threaded rx loop.
                    return false;
                }
                let mut progressed = false;
                // Link → NIC (one frame).
                if let Some(frame) = self.in_ports[i].recv_timeout(Duration::ZERO) {
                    self.nics[i].dispatch(frame);
                    progressed = true;
                }
                // NIC queue → protocol (one frame).
                if let Ok(frame) = self.worker_queues[i].try_recv() {
                    self.replicas[i].handle_frame(0, frame);
                    progressed = true;
                }
                progressed
            }
            Step::ForwarderFeedback => match self.feedback_in.recv_timeout(Duration::ZERO) {
                Some(frame) => {
                    self.forwarder.ingest_feedback(frame);
                    true
                }
                None => false,
            },
            Step::ForwarderTimer => {
                self.forwarder
                    .propagate_if_due(Instant::now(), Duration::ZERO, &self.nics[0])
            }
            Step::Buffer => match self.buffer_in.recv_timeout(Duration::ZERO) {
                Some(frame) => {
                    self.buffer.handle_frame(frame);
                    true
                }
                None => false,
            },
            Step::BufferTimer => {
                self.buffer.tick();
                true
            }
        }
    }

    /// Round-robin steps everything until nothing progresses and all
    /// injected packets are accounted for, or `max_rounds` is exhausted.
    /// Timer steps fire once per idle round, mirroring the real timers.
    pub fn run_to_quiescence(&self, max_rounds: usize) {
        let n = self.replicas.len();
        for _ in 0..max_rounds {
            let mut progressed = false;
            for i in 0..n {
                while self.step(Step::Replica(i)) {
                    progressed = true;
                }
            }
            progressed |= self.step(Step::Buffer);
            while self.step(Step::Buffer) {}
            progressed |= self.step(Step::ForwarderFeedback);
            while self.step(Step::ForwarderFeedback) {}
            if !progressed {
                // Idle: fire the timers once; if that creates no new work
                // either, the chain is quiescent.
                self.step(Step::BufferTimer);
                let timer_work = self.step(Step::ForwarderTimer);
                let more = self.step(Step::Buffer) || self.step(Step::Replica(0));
                if !timer_work && !more {
                    return;
                }
            }
        }
    }

    /// Deterministically fail-stops replica `idx` and rebuilds it via the
    /// §4.1/§5.2 recovery procedure, fetching state synchronously from the
    /// surviving group members. In-flight frames queued at the dead replica
    /// are discarded (fail-stop loses them); the wrapped-log resend path
    /// re-replicates whatever the buffer still owes.
    pub fn fail_and_recover(&mut self, idx: usize) {
        self.try_fail_and_recover(idx, &|_, _| true)
            .expect("sync recovery");
    }

    /// Fallible variant of [`Self::fail_and_recover`] for failure-schedule
    /// exploration: `source_ok(src, mbox)` gates each per-source fetch (a
    /// `false` models that source dying mid-fetch, forcing the §4.1
    /// fallback order), and an installed chain probe can crash the
    /// *recovering* replica at any [`RecoveryFetch`](crate::ProbePoint)
    /// point. On error the victim stays fail-stopped — nothing is rewired —
    /// and the call can simply be retried (a fresh replacement is built
    /// each attempt, exactly like the orchestrator respawning). On success
    /// returns the bytes transferred.
    pub fn try_fail_and_recover(
        &mut self,
        idx: usize,
        source_ok: &dyn Fn(usize, usize) -> bool,
    ) -> Result<usize, RecoveryError> {
        use crate::journal::{EventKind, EventSource};
        use crate::recovery::recover_replica_state;
        let n = self.replicas.len();
        let cfg = Arc::clone(&self.replicas[idx].cfg);
        let spec = cfg.effective_middleboxes()[idx].clone();
        self.metrics.journal.record(
            EventSource::Orchestrator,
            EventKind::RespawnIssued {
                replica: idx as u16,
            },
        );

        // Fail-stop: drop queued frames at the victim.
        self.mark_dead(idx);

        // Fresh replacement, instrumented like the rest of the chain.
        let state = ReplicaState::new(
            idx,
            cfg,
            spec.build(),
            Arc::new(OutPort::empty()),
            Arc::clone(&self.metrics),
        );
        if let Some(probe) = self.probe.lock().as_ref() {
            state.probe.install(Arc::clone(probe));
        }

        // Synchronous state fetch from live replicas, following the same
        // source-selection rule the orchestrator uses.
        let replicas = &self.replicas;
        let dead = &self.dead;
        let fetcher = |src: usize, mbox: usize| {
            if dead[src].load(Ordering::Acquire) || !source_ok(src, mbox) {
                return None;
            }
            let r = &replicas[src];
            r.discard_parked();
            if mbox == src {
                Some((r.own_store.snapshot(), r.own_store.seq_vector()))
            } else {
                r.replicated
                    .get(&mbox)
                    .map(|g| (g.store.snapshot(), g.max.vector()))
            }
        };
        let transferred = recover_replica_state(&state, &fetcher)?;

        // Rewire: predecessor → new replica → successor (or buffer).
        let in_port = Arc::new(InPort::empty());
        if idx > 0 {
            let (tx, rx) = reliable_pair(&Endpoint::in_proc());
            in_port.install(rx);
            self.replicas[idx - 1].out.install(tx);
        }
        if idx < n - 1 {
            let (tx, rx) = reliable_pair(&Endpoint::in_proc());
            state.out.install(tx);
            self.in_ports[idx + 1].install(rx);
        } else {
            let (tx, rx) = reliable_pair(&Endpoint::in_proc());
            state.out.install(tx);
            self.buffer_in.install(rx);
        }
        let mut nic = Nic::new(1, state.cfg.nic_queue_depth);
        self.worker_queues[idx] = nic.take_queue(0);
        self.nics[idx] = Arc::new(nic);
        self.in_ports[idx] = in_port;
        self.replicas[idx] = state;
        self.dead[idx].store(false, Ordering::Release);
        self.metrics.journal.record(
            EventSource::Orchestrator,
            EventKind::TrafficResumed {
                replica: idx as u16,
            },
        );
        Ok(transferred)
    }

    /// Every instance's [`ClaimView`] — the chain's current replicas,
    /// retired instances, and any `extra` in-flight ones — for the I5
    /// single-serviceable-owner fold.
    fn reconfig_views(&self, extra: &[(&'static str, &Arc<ReplicaState>)]) -> Vec<ClaimView> {
        let mut views = Vec::with_capacity(self.replicas.len() + self.retired.len() + extra.len());
        for (i, r) in self.replicas.iter().enumerate() {
            views.push(ClaimView {
                position: r.idx,
                tag: "chain",
                alive: !self.is_dead(i),
                flags: r.claims.view(),
            });
        }
        for r in &self.retired {
            views.push(ClaimView {
                position: r.idx,
                tag: "retired",
                alive: true,
                flags: r.claims.view(),
            });
        }
        for (tag, r) in extra {
            views.push(ClaimView {
                position: r.idx,
                tag,
                alive: true,
                flags: r.claims.view(),
            });
        }
        views
    }

    /// Reports one reconfiguration probe point and appends the claim-table
    /// state *at that point* to `trace`. The verdict decides whether the
    /// named actor fail-stops there.
    // audit: the signature mirrors ProbePoint::Reconfig plus trace + extras
    #[allow(clippy::too_many_arguments)]
    fn reconfig_point(
        &self,
        trace: &mut Vec<ClaimSample>,
        op: ReconfigOp,
        phase: ReconfigPhase,
        role: ReconfigActor,
        mbox: usize,
        extra: &[(&'static str, &Arc<ReplicaState>)],
    ) -> ProbeVerdict {
        let verdict = match self.probe.lock().as_ref() {
            Some(p) => p.on_step(crate::probe::ProbePoint::Reconfig {
                op,
                phase,
                role,
                mbox,
            }),
            None => ProbeVerdict::Continue,
        };
        trace.push(ClaimSample {
            op,
            phase,
            role,
            views: self.reconfig_views(extra),
        });
        verdict
    }

    /// Migrates the instance at ring position `idx` onto a fresh replica
    /// via the four-phase handover of [`crate::reconfig`]. See
    /// [`Self::scale_mbox`] for the scale flavor of the same handshake.
    ///
    /// Unlike [`Self::fail_and_recover`], this is a *planned* handover: the
    /// source is drained, not killed, so no frame is lost — the position's
    /// ports, NIC and queue carry straight over to the new instance. An
    /// installed probe can crash any participant at any
    /// [`Reconfig`](crate::ProbePoint::Reconfig) point; each failure leaves
    /// the chain in the defined state documented on
    /// [`ReconfigFailure`].
    pub fn migrate_mbox(&mut self, idx: usize) -> ReconfigRun {
        self.handover(idx, ReconfigOp::Migrate)
    }

    /// Scales the instance at `idx` through the same handover as
    /// [`Self::migrate_mbox`]. `SyncChain` pins every instance to one
    /// worker (determinism), so here the operation exercises the protocol
    /// only; the threaded orchestrator engine applies the real
    /// worker-count change with this same phase structure.
    pub fn scale_mbox(&mut self, idx: usize) -> ReconfigRun {
        self.handover(idx, ReconfigOp::Scale)
    }

    fn handover(&mut self, idx: usize, op: ReconfigOp) -> ReconfigRun {
        use crate::journal::{EventKind, EventSource};
        let mut trace: Vec<ClaimSample> = Vec::new();
        let fail = |outcome: ReconfigFailure, trace: Vec<ClaimSample>, seal| ReconfigRun {
            op,
            position: idx,
            outcome: Err(outcome),
            trace,
            seal,
        };

        // --- Prepare ---
        if self.reconfig_point(
            &mut trace,
            op,
            ReconfigPhase::Prepare,
            ReconfigActor::Orchestrator,
            idx,
            &[],
        ) == ProbeVerdict::Crash
        {
            // The driver died before touching the chain: nothing to undo.
            return fail(
                ReconfigFailure::OrchestratorCrashed {
                    phase: ReconfigPhase::Prepare,
                },
                trace,
                None,
            );
        }
        self.metrics.journal.record(
            EventSource::Orchestrator,
            EventKind::RespawnIssued {
                replica: idx as u16,
            },
        );
        let src = Arc::clone(&self.replicas[idx]);
        src.begin_handover();
        if self.reconfig_point(
            &mut trace,
            op,
            ReconfigPhase::Prepare,
            ReconfigActor::Source,
            idx,
            &[],
        ) == ProbeVerdict::Crash
        {
            // The freshly quiesced source died: the position fail-stops
            // and standard §5.2 recovery (from the group) applies.
            self.mark_dead(idx);
            return fail(
                ReconfigFailure::SourceCrashed {
                    phase: ReconfigPhase::Prepare,
                },
                trace,
                None,
            );
        }
        // The committed prefix at the seal: what I6 says must arrive.
        let seal = SealRecord {
            snapshot: src.own_store.snapshot(),
            seqs: src.own_store.seq_vector(),
        };

        // Fresh destination at the same position, sharing the source's
        // wired out-port (a planned handover loses no frames). It claims
        // nothing until the switch commits.
        let cfg = Arc::clone(&src.cfg);
        let spec = cfg.effective_middleboxes()[idx].clone();
        let dest = ReplicaState::new(
            idx,
            cfg,
            spec.build(),
            Arc::clone(&src.out),
            Arc::clone(&self.metrics),
        );
        dest.claims.unclaim_all();
        if let Some(p) = self.probe.lock().as_ref() {
            dest.probe.install(Arc::clone(p));
        }

        // --- Transfer --- the own store moves one partition at a time
        // through the wire codec; either side can die after each chunk.
        let mut transferred = 0usize;
        let mut interrupt: Option<TransferInterrupt> = None;
        for p in 0..src.own_store.partitions() as u16 {
            let wire = src.own_store.export_partition(p).encode();
            transferred += wire.len();
            if self.reconfig_point(
                &mut trace,
                op,
                ReconfigPhase::Transfer,
                ReconfigActor::Source,
                idx,
                &[("incoming", &dest)],
            ) == ProbeVerdict::Crash
            {
                interrupt = Some(TransferInterrupt::Source(p));
                break;
            }
            let ex = PartitionExport::decode(&wire).expect("self-encoded export");
            dest.own_store.import_partition(&ex);
            if self.reconfig_point(
                &mut trace,
                op,
                ReconfigPhase::Transfer,
                ReconfigActor::Destination,
                idx,
                &[("incoming", &dest)],
            ) == ProbeVerdict::Crash
            {
                interrupt = Some(TransferInterrupt::Destination(p));
                break;
            }
        }
        match interrupt {
            Some(TransferInterrupt::Source(_)) => {
                // Half-exported source dies: the abandoned destination is
                // discarded and the position fail-stops; §5.2 recovery
                // rebuilds it from the replication group.
                self.mark_dead(idx);
                return fail(
                    ReconfigFailure::SourceCrashed {
                        phase: ReconfigPhase::Transfer,
                    },
                    trace,
                    Some(seal),
                );
            }
            Some(TransferInterrupt::Destination(_)) => {
                // Half-imported destination dies: discard it and resume
                // the source — old configuration intact, retry at will.
                src.abort_handover();
                return fail(
                    ReconfigFailure::DestinationCrashed {
                        phase: ReconfigPhase::Transfer,
                    },
                    trace,
                    Some(seal),
                );
            }
            None => {}
        }
        // The f replicated groups move as snapshots + MAX vectors, exactly
        // what a recovery fetch would serve.
        for (m, g) in &src.replicated {
            dest.restore_replicated(*m, &g.store.snapshot(), g.max.vector());
        }

        // --- Switch: the commit point ---
        if self.reconfig_point(
            &mut trace,
            op,
            ReconfigPhase::Switch,
            ReconfigActor::Orchestrator,
            idx,
            &[("incoming", &dest)],
        ) == ProbeVerdict::Crash
        {
            // Before the commit point the operation rolls back.
            src.abort_handover();
            return fail(
                ReconfigFailure::OrchestratorCrashed {
                    phase: ReconfigPhase::Switch,
                },
                trace,
                Some(seal),
            );
        }
        dest.claims.claim_all();
        self.replicas[idx] = Arc::clone(&dest);
        if self.reconfig_point(
            &mut trace,
            op,
            ReconfigPhase::Switch,
            ReconfigActor::Destination,
            idx,
            &[("outgoing", &src)],
        ) == ProbeVerdict::Crash
        {
            // The new owner died right after the commit point: roll
            // forward — retire the superseded source, fail-stop the
            // position on the *new* configuration, recover per §5.2.
            src.retire();
            self.retired.push(src);
            self.mark_dead(idx);
            return fail(
                ReconfigFailure::DestinationCrashed {
                    phase: ReconfigPhase::Switch,
                },
                trace,
                Some(seal),
            );
        }

        // --- Release ---
        if self.reconfig_point(
            &mut trace,
            op,
            ReconfigPhase::Release,
            ReconfigActor::Orchestrator,
            idx,
            &[("outgoing", &src)],
        ) == ProbeVerdict::Crash
        {
            // Past the commit point: roll forward. The destination
            // serves; the sealed source is merely never decommissioned —
            // sealed claims are not serviceable, so I5 holds.
            self.retired.push(src);
            return fail(
                ReconfigFailure::OrchestratorCrashed {
                    phase: ReconfigPhase::Release,
                },
                trace,
                Some(seal),
            );
        }
        #[cfg(feature = "sabotage-skip-release")]
        {
            // Sabotage: the release message is lost and the source's
            // failure-assumption timeout treats the migration as failed —
            // it re-opens its claims and resumes — while the destination
            // has already switched. Two serviceable owners: I5 must fire.
            src.abort_handover();
            self.retired.push(src);
            trace.push(ClaimSample {
                op,
                phase: ReconfigPhase::Release,
                role: ReconfigActor::Source,
                views: self.reconfig_views(&[]),
            });
            return ReconfigRun {
                op,
                position: idx,
                outcome: Ok(ReconfigStats {
                    transferred,
                    partitions: self.replicas[idx].own_store.partitions(),
                }),
                trace,
                seal: Some(seal),
            };
        }
        #[cfg(not(feature = "sabotage-skip-release"))]
        {
            src.retire();
            self.retired.push(src);
            trace.push(ClaimSample {
                op,
                phase: ReconfigPhase::Release,
                role: ReconfigActor::Orchestrator,
                views: self.reconfig_views(&[]),
            });
            self.metrics.journal.record(
                EventSource::Orchestrator,
                EventKind::TrafficResumed {
                    replica: idx as u16,
                },
            );
            ReconfigRun {
                op,
                position: idx,
                outcome: Ok(ReconfigStats {
                    transferred,
                    partitions: self.replicas[idx].own_store.partitions(),
                }),
                trace,
                seal: Some(seal),
            }
        }
    }

    /// Splices `spec` into the live chain at position `pos` (later
    /// middleboxes shift right). See [`Self::splice_out`].
    pub fn splice_in(&mut self, pos: usize, spec: MbSpec) -> ReconfigRun {
        self.splice(ReconfigOp::SpliceIn, pos, Some(spec))
    }

    /// Splices the middlebox at `pos` out of the live chain (later
    /// middleboxes shift left; the result must still satisfy
    /// `len ≥ f + 1`).
    pub fn splice_out(&mut self, pos: usize) -> ReconfigRun {
        self.splice(ReconfigOp::SpliceOut, pos, None)
    }

    /// A splice re-stitches every ring link, so it runs as a phased
    /// whole-chain rebuild with state carryover: quiesce + seal everyone
    /// (prepare), snapshot each instance's committed prefix (transfer),
    /// build the new topology and restore state by middlebox identity,
    /// re-seeding replicated groups from the own snapshots — consistent
    /// at quiescence (switch), then retire the old instances (release).
    /// Undrained egress packets are carried across the swap.
    fn splice(&mut self, op: ReconfigOp, pos: usize, insert: Option<MbSpec>) -> ReconfigRun {
        let mut trace: Vec<ClaimSample> = Vec::new();
        let fail = |outcome: ReconfigFailure, trace: Vec<ClaimSample>| ReconfigRun {
            op,
            position: pos,
            outcome: Err(outcome),
            trace,
            seal: None,
        };

        // --- Prepare ---
        if self.reconfig_point(
            &mut trace,
            op,
            ReconfigPhase::Prepare,
            ReconfigActor::Orchestrator,
            pos,
            &[],
        ) == ProbeVerdict::Crash
        {
            return fail(
                ReconfigFailure::OrchestratorCrashed {
                    phase: ReconfigPhase::Prepare,
                },
                trace,
            );
        }
        // Drain the whole chain; a splice only proceeds from a fully
        // live, empty-pipeline state (retryable abort otherwise).
        self.run_to_quiescence(5000);
        let n_old = self.replicas.len();
        if (0..n_old).any(|i| self.is_dead(i)) || self.held() != 0 {
            return fail(ReconfigFailure::NotQuiescent, trace);
        }
        for r in &self.replicas {
            r.begin_handover();
        }

        // --- Transfer ---
        let mut snaps = Vec::with_capacity(n_old);
        for i in 0..n_old {
            let r = Arc::clone(&self.replicas[i]);
            snaps.push((r.own_store.snapshot(), r.own_store.seq_vector()));
            if self.reconfig_point(
                &mut trace,
                op,
                ReconfigPhase::Transfer,
                ReconfigActor::Source,
                i,
                &[],
            ) == ProbeVerdict::Crash
            {
                // Old instance `i` died mid-snapshot: abort the splice
                // (everyone else resumes) and fall back to §5.2 recovery
                // for the dead position on the old topology.
                for (j, other) in self.replicas.iter().enumerate() {
                    if j != i {
                        other.abort_handover();
                    }
                }
                self.mark_dead(i);
                return fail(
                    ReconfigFailure::SourceCrashed {
                        phase: ReconfigPhase::Transfer,
                    },
                    trace,
                );
            }
        }

        // --- Switch: the commit point ---
        if self.reconfig_point(
            &mut trace,
            op,
            ReconfigPhase::Switch,
            ReconfigActor::Orchestrator,
            pos,
            &[],
        ) == ProbeVerdict::Crash
        {
            // Before the commit point: roll back, old chain resumes.
            for r in &self.replicas {
                r.abort_handover();
            }
            return fail(
                ReconfigFailure::OrchestratorCrashed {
                    phase: ReconfigPhase::Switch,
                },
                trace,
            );
        }
        // Old position -> new position (None = spliced out).
        let map = |i: usize| -> Option<usize> {
            match op {
                ReconfigOp::SpliceIn => Some(if i < pos { i } else { i + 1 }),
                ReconfigOp::SpliceOut if i == pos => None,
                ReconfigOp::SpliceOut => Some(if i < pos { i } else { i - 1 }),
                _ => unreachable!("splice ops only"),
            }
        };
        let cfg = Arc::clone(&self.replicas[0].cfg);
        let mut specs = cfg.effective_middleboxes();
        match insert {
            Some(spec) => specs.insert(pos, spec),
            None => {
                specs.remove(pos);
            }
        }
        let mut new_cfg = (*cfg).clone();
        new_cfg.middleboxes = specs;
        let fresh = SyncChain::new(new_cfg);
        if let Some(p) = self.probe.lock().as_ref() {
            fresh.install_probe(Arc::clone(p));
        }
        // Carry each surviving instance's committed prefix over, then
        // re-seed the replicated groups from the own snapshots (equal at
        // quiescence: every committed write is in its head's own store).
        let mut transferred = 0usize;
        for (i, (snap, seqs)) in snaps.iter().enumerate() {
            if let Some(ni) = map(i) {
                transferred += snap.byte_size();
                fresh.replicas[ni].own_store.restore(snap);
                fresh.replicas[ni].own_store.restore_seqs(seqs);
            }
        }
        let inv: std::collections::HashMap<usize, usize> = (0..n_old)
            .filter_map(|i| map(i).map(|ni| (ni, i)))
            .collect();
        for r in &fresh.replicas {
            let mboxes: Vec<usize> = r.replicated.keys().copied().collect();
            for m in mboxes {
                if let Some(&oi) = inv.get(&m) {
                    r.restore_replicated(m, &snaps[oi].0, snaps[oi].1.clone());
                }
                // A spliced-in middlebox starts empty: nothing to seed.
            }
        }
        // Swap the topology in; carry undrained egress packets across.
        let old = std::mem::replace(self, fresh);
        self.retired = old.retired;
        while let Ok(pkt) = old.egress.try_recv() {
            let _ = self.egress_tx.send(pkt);
        }
        let old_replicas = old.replicas;
        let extras: Vec<(&'static str, &Arc<ReplicaState>)> =
            old_replicas.iter().map(|r| ("outgoing", r)).collect();
        let dpos = pos.min(self.replicas.len() - 1);
        if self.reconfig_point(
            &mut trace,
            op,
            ReconfigPhase::Switch,
            ReconfigActor::Destination,
            dpos,
            &extras,
        ) == ProbeVerdict::Crash
        {
            // A fresh instance died right at the commit point: roll
            // forward — the restarted driver finishes the release, the
            // dead position is recovered per §5.2 on the new topology.
            for r in &old_replicas {
                r.retire();
            }
            self.retired.extend(old_replicas);
            self.mark_dead(dpos);
            return fail(
                ReconfigFailure::DestinationCrashed {
                    phase: ReconfigPhase::Switch,
                },
                trace,
            );
        }

        // --- Release ---
        if self.reconfig_point(
            &mut trace,
            op,
            ReconfigPhase::Release,
            ReconfigActor::Orchestrator,
            pos,
            &extras,
        ) == ProbeVerdict::Crash
        {
            // Roll forward: the new chain serves; the old instances stay
            // sealed (never serviceable), merely undecommissioned.
            self.retired.extend(old_replicas);
            return fail(
                ReconfigFailure::OrchestratorCrashed {
                    phase: ReconfigPhase::Release,
                },
                trace,
            );
        }
        for r in &old_replicas {
            r.retire();
        }
        self.retired.extend(old_replicas);
        trace.push(ClaimSample {
            op,
            phase: ReconfigPhase::Release,
            role: ReconfigActor::Orchestrator,
            views: self.reconfig_views(&[]),
        });
        let partitions = self.replicas[0].own_store.partitions() * n_old;
        ReconfigRun {
            op,
            position: pos,
            outcome: Ok(ReconfigStats {
                transferred,
                partitions,
            }),
            trace,
            seal: None,
        }
    }

    /// Returns a handle to the chain's egress (same API as
    /// [`FtcChain::egress`](crate::FtcChain::egress)).
    pub fn egress(&self) -> Egress {
        Egress::new(self.egress.clone())
    }

    /// Packets currently withheld by the buffer.
    pub fn held(&self) -> usize {
        self.buffer.held_len()
    }

    /// Every instance's current [`ClaimView`] — the wired chain replicas
    /// plus all retired instances. The reconfiguration model checker folds
    /// this at final quiescence into the I5 completion condition: exactly
    /// one serviceable owner per `(position, partition)`.
    pub fn claim_views(&self) -> Vec<ClaimView> {
        self.reconfig_views(&[])
    }
}

/// Where, relative to the victim's protocol steps, a crash fires.
///
/// The step phases mirror [`crate::ProbePoint`]; `Quiesced` is the classic
/// integration-test case ("kill server N between packets").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// Fail-stop while idle, between packets.
    Quiesced,
    /// §6(a): the victim's transaction committed but its log never left.
    PrePiggyback,
    /// §6(b): the outgoing message was assembled but never sent.
    PostApplyPreForward,
    /// §6(c): the frame was sent, then the server died.
    PostForward,
    /// The *replacement* dies mid-state-fetch; recovery restarts fresh.
    DuringRecovery,
    /// A planned-reconfiguration crash ([`crate::reconfig`]): fail-stop
    /// `role` at its `trigger`-th observation of the `(op, phase)` probe
    /// point. The victim position is the [`CrashPoint::victim`] field, as
    /// for every other phase — this is the one enumeration shared by the
    /// integration-test kill skeletons and the `ftc-audit`
    /// reconfiguration model checker.
    Reconfig {
        /// The operation under way when the crash fires.
        op: crate::reconfig::ReconfigOp,
        /// The handshake phase to crash in.
        phase: crate::reconfig::ReconfigPhase,
        /// The participant to kill.
        role: crate::reconfig::ReconfigActor,
    },
}

/// One crash in a [`CrashSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Ring position of the replica to kill.
    pub victim: usize,
    /// When, within the victim's processing, the crash fires.
    pub phase: CrashPhase,
    /// For step phases: fire at the victim's `trigger`-th observation of
    /// the matching probe point (0-based). Ignored for [`CrashPhase::Quiesced`].
    pub trigger: usize,
}

/// What a [`CrashSchedule`] runs against: any chain that can take traffic,
/// settle, and execute a crash+recovery. Implemented by the integration
/// tests over the threaded [`crate::chain::FtcChain`]/orchestrator stack
/// and reused (as the schedule *vocabulary*) by the `ftc-audit` protocol
/// model checker's step-granular executor.
pub trait CrashTarget {
    /// Injects `n` fresh packets.
    fn inject(&mut self, n: usize);
    /// Runs until quiescent; returns packets released since the last call.
    fn settle(&mut self) -> usize;
    /// Executes one crash (and its recovery). Targets without step-granular
    /// control honor [`CrashPhase::Quiesced`] only and must panic on phases
    /// they cannot express rather than silently reinterpreting them.
    fn crash(&mut self, point: &CrashPoint);
}

/// Release counts observed by [`CrashSchedule::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashOutcome {
    /// Packets released by the warm-up workload, before any crash.
    pub released_before: usize,
    /// Packets released by the post-crash workload (traffic resumed).
    pub released_after: usize,
}

/// The shared "warm up → crash server(s) → assert traffic resumes"
/// skeleton of `tests/failover.rs` / `tests/failure_under_load.rs`, also
/// the schedule descriptor the protocol model checker enumerates.
#[derive(Debug, Clone, Default)]
pub struct CrashSchedule {
    warm: usize,
    crashes: Vec<CrashPoint>,
    post: usize,
    label: String,
}

impl CrashSchedule {
    /// Empty schedule (no traffic, no crashes).
    pub fn new() -> CrashSchedule {
        CrashSchedule::default()
    }

    /// Injects `n` packets and settles before the first crash.
    pub fn warm(mut self, n: usize) -> CrashSchedule {
        self.warm = n;
        self
    }

    /// Adds a quiesced kill of `victim` (the classic integration case).
    pub fn kill(mut self, victim: usize) -> CrashSchedule {
        self.crashes.push(CrashPoint {
            victim,
            phase: CrashPhase::Quiesced,
            trigger: 0,
        });
        self
    }

    /// Adds a step-granular crash of `victim` at its `trigger`-th `phase`
    /// observation.
    pub fn crash_at(mut self, victim: usize, phase: CrashPhase, trigger: usize) -> CrashSchedule {
        self.crashes.push(CrashPoint {
            victim,
            phase,
            trigger,
        });
        self
    }

    /// Injects `n` packets after the crashes (the "traffic resumes" leg).
    pub fn post(mut self, n: usize) -> CrashSchedule {
        self.post = n;
        self
    }

    /// Names the schedule (witness reports and test diagnostics).
    pub fn label(mut self, label: impl Into<String>) -> CrashSchedule {
        self.label = label.into();
        self
    }

    /// The schedule's name.
    pub fn name(&self) -> &str {
        &self.label
    }

    /// The crash points, in execution order.
    pub fn crashes(&self) -> &[CrashPoint] {
        &self.crashes
    }

    /// Warm-up packet count.
    pub fn warm_count(&self) -> usize {
        self.warm
    }

    /// Post-crash packet count.
    pub fn post_count(&self) -> usize {
        self.post
    }

    /// Runs the schedule: warm up, settle, crash each point in order,
    /// inject the post workload, settle again.
    pub fn run(&self, target: &mut dyn CrashTarget) -> CrashOutcome {
        target.inject(self.warm);
        let released_before = target.settle();
        for point in &self.crashes {
            target.crash(point);
        }
        target.inject(self.post);
        let released_after = target.settle();
        CrashOutcome {
            released_before,
            released_after,
        }
    }
}

/// [`CrashTarget`] over a [`SyncChain`]: deterministic, quiesced-kill
/// execution for tests that only need the classic schedule shapes. (The
/// protocol model checker drives `SyncChain` directly for step-granular
/// phases.)
pub struct SyncCrashTarget {
    /// The underlying chain.
    pub chain: SyncChain,
    next_ident: u16,
    settle_rounds: usize,
}

impl SyncCrashTarget {
    /// Wraps `chain`; `settle_rounds` bounds each quiescence run.
    pub fn new(chain: SyncChain, settle_rounds: usize) -> SyncCrashTarget {
        SyncCrashTarget {
            chain,
            next_ident: 0,
            settle_rounds,
        }
    }
}

impl CrashTarget for SyncCrashTarget {
    fn inject(&mut self, n: usize) {
        for _ in 0..n {
            self.next_ident = self.next_ident.wrapping_add(1);
            let pkt = ftc_packet::builder::UdpPacketBuilder::new()
                .ident(self.next_ident)
                .build();
            self.chain.inject(pkt);
        }
    }

    fn settle(&mut self) -> usize {
        self.chain.run_to_quiescence(self.settle_rounds);
        self.chain.egress().drain().len()
    }

    fn crash(&mut self, point: &CrashPoint) {
        assert_eq!(
            point.phase,
            CrashPhase::Quiesced,
            "SyncCrashTarget only executes quiesced kills; step-granular \
             phases belong to the model checker's executor"
        );
        self.chain.fail_and_recover(point.victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_mbox::MbSpec;
    use ftc_packet::builder::UdpPacketBuilder;
    use std::net::Ipv4Addr;

    fn pkt(i: u16) -> Packet {
        UdpPacketBuilder::new()
            .src(Ipv4Addr::new(10, 2, 0, 1), 1000 + i)
            .dst(Ipv4Addr::new(10, 3, 0, 1), 80)
            .ident(i)
            .build()
    }

    #[test]
    fn sync_chain_releases_everything_round_robin() {
        let chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        for i in 0..10 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        let got = chain.egress().drain();
        assert_eq!(got.len(), 10);
        assert_eq!(chain.held(), 0);
        for r in &chain.replicas {
            assert_eq!(r.own_store.peek_u64(b"mon:packets:g0"), Some(10));
        }
        // Full ring replication at quiescence.
        for i in 0..3 {
            let succ = (i + 1) % 3;
            assert_eq!(
                chain.replicas[succ].replicated[&i]
                    .store
                    .peek_u64(b"mon:packets:g0"),
                Some(10)
            );
        }
    }

    #[test]
    fn adversarial_schedule_starving_one_replica_still_converges() {
        let chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        for i in 0..5 {
            chain.inject(pkt(i));
        }
        // Step only replica 0 for a while (1 and 2 starve)…
        for _ in 0..50 {
            chain.step(Step::Replica(0));
        }
        assert!(chain.egress().drain().is_empty(), "nothing can release yet");
        // …then let everything run.
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 5);
    }

    #[test]
    fn crash_schedule_runs_quiesced_kill_on_sync_chain() {
        let chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        let mut target = SyncCrashTarget::new(chain, 2000);
        let outcome = CrashSchedule::new()
            .label("kill r1 quiesced")
            .warm(20)
            .kill(1)
            .post(10)
            .run(&mut target);
        assert_eq!(outcome.released_before, 20);
        assert_eq!(outcome.released_after, 10);
        for r in &target.chain.replicas {
            assert_eq!(r.own_store.peek_u64(b"mon:packets:g0"), Some(30));
        }
    }

    #[test]
    fn failed_recovery_leaves_victim_dead_and_retry_succeeds() {
        let mut chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        for i in 0..5 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 5);
        // First attempt: every source refuses (simulated mid-fetch deaths).
        let err = chain.try_fail_and_recover(1, &|_, _| false).unwrap_err();
        assert!(matches!(
            err,
            crate::recovery::RecoveryError::NoSource { .. }
        ));
        assert!(chain.is_dead(1), "failed recovery leaves the victim dead");
        assert!(!chain.step(Step::Replica(1)), "dead replicas do not step");
        // Retry with sources back: a fresh replacement is built and rewired.
        chain.try_fail_and_recover(1, &|_, _| true).unwrap();
        assert!(!chain.is_dead(1));
        for i in 5..10 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 5, "traffic resumed");
        assert_eq!(
            chain.replicas[1].own_store.peek_u64(b"mon:packets:g0"),
            Some(10)
        );
    }

    #[test]
    fn clean_migrate_preserves_committed_prefix_and_traffic() {
        let mut chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        for i in 0..10 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 10);
        let run = chain.migrate_mbox(1);
        let stats = run.outcome.expect("clean handover succeeds");
        assert!(stats.transferred > 0);
        // I6: the destination holds exactly the sealed committed prefix.
        let seal = run.seal.expect("sealed");
        assert_eq!(chain.replicas[1].own_store.snapshot(), seal.snapshot);
        assert_eq!(chain.replicas[1].own_store.seq_vector(), seal.seqs);
        // I5 at completion: exactly one serviceable owner per partition.
        for sample in &run.trace {
            for p in 0..chain.replicas[1].own_store.partitions() as u16 {
                assert!(sample.serviceable_count(1, p) <= 1, "{sample:?}");
            }
        }
        let last = run.trace.last().unwrap();
        assert_eq!(last.serviceable_count(1, 0), 1);
        // The new instance serves: traffic flows and state continues.
        for i in 10..20 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 10);
        assert_eq!(
            chain.replicas[1].own_store.peek_u64(b"mon:packets:g0"),
            Some(20)
        );
    }

    #[test]
    fn splice_in_then_out_round_trips_the_chain() {
        let mut chain = SyncChain::new(ChainConfig::ch_n(3, 1).with_f(1));
        for i in 0..8 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(1000);
        assert_eq!(chain.egress().drain().len(), 8);
        let run = chain.splice_in(1, MbSpec::Monitor { sharing_level: 1 });
        run.outcome.expect("clean splice-in succeeds");
        assert_eq!(chain.replicas.len(), 4);
        // Carried state: the old position-1 monitor now sits at 2.
        assert_eq!(
            chain.replicas[2].own_store.peek_u64(b"mon:packets:g0"),
            Some(8)
        );
        assert_eq!(
            chain.replicas[1].own_store.peek_u64(b"mon:packets:g0"),
            None
        );
        for i in 8..14 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(2000);
        assert_eq!(chain.egress().drain().len(), 6);
        assert_eq!(
            chain.replicas[1].own_store.peek_u64(b"mon:packets:g0"),
            Some(6),
            "spliced-in middlebox counts from zero"
        );
        assert_eq!(
            chain.replicas[2].own_store.peek_u64(b"mon:packets:g0"),
            Some(14)
        );
        let run = chain.splice_out(1);
        run.outcome.expect("clean splice-out succeeds");
        assert_eq!(chain.replicas.len(), 3);
        for i in 14..20 {
            chain.inject(pkt(i));
        }
        chain.run_to_quiescence(2000);
        assert_eq!(chain.egress().drain().len(), 6);
        assert_eq!(
            chain.replicas[1].own_store.peek_u64(b"mon:packets:g0"),
            Some(20)
        );
    }

    #[test]
    fn f0_chain_needs_no_feedback() {
        let chain = SyncChain::new(
            ChainConfig::new(vec![MbSpec::Monitor { sharing_level: 1 }; 2]).with_f(0),
        );
        chain.inject(pkt(1));
        chain.run_to_quiescence(100);
        assert_eq!(chain.egress().drain().len(), 1);
        assert_eq!(
            chain
                .metrics
                .logs_applied
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }
}
