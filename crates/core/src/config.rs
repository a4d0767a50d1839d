//! Chain configuration and replication-group ring arithmetic.

use ftc_mbox::MbSpec;
use ftc_net::Endpoint;
use ftc_stm::EngineKind;
use std::time::Duration;

/// Configuration of an FTC chain deployment.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// The middleboxes in service-function-chain order.
    pub middleboxes: Vec<MbSpec>,
    /// Number of replica failures to tolerate (replication factor − 1).
    pub f: usize,
    /// State partitions per middlebox store (must exceed worker count).
    pub partitions: usize,
    /// Worker threads per replica.
    pub workers: usize,
    /// Depth of each NIC queue in frames.
    pub nic_queue_depth: usize,
    /// Transport endpoint template for inter-server links: backend choice
    /// plus its knobs (impairments for the in-process backend, socket
    /// options for TCP/UDS).
    pub link: Endpoint,
    /// How long pending feedback logs wait for a carrier before the
    /// forwarder sends them in a propagating packet (§5.1). Counted from
    /// the later of the oldest pending log's arrival and the last ingress
    /// packet, by the thread that ingests the buffer's feedback. Defaults
    /// to [`ChainConfig::default_propagate_timeout`] of `link`.
    pub propagate_timeout: Duration,
    /// Buffer resend period for uncommitted wrapped logs (self-healing after
    /// in-flight loss; duplicates are deduplicated by the apply rule).
    pub resend_period: Duration,
    /// Maximum frame size including the piggyback trailer. The paper
    /// suggests jumbo frames "to encompass larger state sizes exceeding
    /// standard maximum transmission units" (§7.2); frames exceeding this
    /// are still delivered by the in-process substrate but counted in
    /// [`crate::ChainMetrics::oversize_frames`] so deployments can detect
    /// the need for jumbo frames.
    pub mtu: usize,
    /// State engine every store of this chain runs on (head stores and
    /// replica copies alike — mixing engines within a chain would change
    /// commit semantics mid-ring for no benefit). Defaults to the
    /// `FTC_ENGINE` environment variable, falling back to 2PL.
    pub engine: EngineKind,
}

impl ChainConfig {
    /// Table 1's `Ch-n`: a chain of `n` Monitors with the given sharing
    /// level.
    pub fn ch_n(n: usize, sharing_level: usize) -> ChainConfig {
        ChainConfig::new(vec![MbSpec::Monitor { sharing_level }; n])
    }

    /// Table 1's `Ch-Gen`: `Gen1 → Gen2` with the given per-packet state
    /// size.
    pub fn ch_gen(state_size: usize) -> ChainConfig {
        ChainConfig::new(vec![MbSpec::Gen { state_size }, MbSpec::Gen { state_size }])
    }

    /// Table 1's `Ch-Rec`: `Firewall → Monitor → SimpleNAT` (the recovery
    /// experiment's chain).
    pub fn ch_rec(external_ip: std::net::Ipv4Addr) -> ChainConfig {
        ChainConfig::new(vec![
            MbSpec::Firewall { rules: vec![] },
            MbSpec::Monitor { sharing_level: 1 },
            MbSpec::SimpleNat { external_ip },
        ])
    }

    /// A reasonable default configuration for the given middleboxes.
    pub fn new(middleboxes: Vec<MbSpec>) -> ChainConfig {
        ChainConfig {
            middleboxes,
            f: 1,
            partitions: 32,
            workers: 1,
            nic_queue_depth: 4096,
            link: Endpoint::in_proc(),
            propagate_timeout: Self::default_propagate_timeout(&Endpoint::in_proc()),
            resend_period: Duration::from_millis(10),
            mtu: 9000, // jumbo frames, per §7.2
            engine: EngineKind::from_env().unwrap_or_default(),
        }
    }

    /// Sets the number of tolerated failures.
    pub fn with_f(mut self, f: usize) -> Self {
        self.f = f;
        self
    }

    /// Sets the worker thread count per replica.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The propagation timeout a chain whose hops use `link` gets by
    /// default. In-process: 20 µs. A packet crosses an in-process chain in
    /// ~100 µs and a busy ingress brings a carrier every few tens of µs, so
    /// a log that has waited this long with no ingress has no carrier
    /// coming. Sockets: 1 ms. Every propagating packet costs a socket
    /// send and receive in each process it crosses; at 20 µs a
    /// two-Monitor chain over Unix sockets sent ~40× as many of them
    /// (~0.2 per packet) for no gain in throughput.
    pub fn default_propagate_timeout(link: &Endpoint) -> Duration {
        if link.is_sock() {
            Duration::from_millis(1)
        } else {
            Duration::from_micros(20)
        }
    }

    /// Sets the inter-server link endpoint (backend and its knobs). A
    /// propagation timeout still at the old link's default moves to the
    /// new link's; one set explicitly is kept.
    pub fn with_link(mut self, link: Endpoint) -> Self {
        if self.propagate_timeout == Self::default_propagate_timeout(&self.link) {
            self.propagate_timeout = Self::default_propagate_timeout(&link);
        }
        self.link = link;
        self
    }

    /// Sets the number of state partitions.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Selects the state engine for every store of this chain.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the maximum frame size before `oversize_frames` ticks (§7.2).
    pub fn with_mtu(mut self, mtu: usize) -> Self {
        self.mtu = mtu;
        self
    }

    /// Sets the per-worker NIC queue depth.
    pub fn with_nic_queue_depth(mut self, depth: usize) -> Self {
        self.nic_queue_depth = depth;
        self
    }

    /// Sets how long pending feedback logs wait for a carrier before the
    /// forwarder sends a propagating packet (§5.1), counted from the later
    /// of the oldest pending arrival and the last ingress packet.
    pub fn with_propagate_timeout(mut self, timeout: Duration) -> Self {
        self.propagate_timeout = timeout;
        self
    }

    /// Sets the buffer's resend period for unacknowledged feedback.
    pub fn with_resend_period(mut self, period: Duration) -> Self {
        self.resend_period = period;
        self
    }

    /// The *effective* chain: if the chain is shorter than `f + 1`, it is
    /// extended with passthrough pure-replica stages before the buffer so
    /// every state update can reach `f + 1` distinct servers (§5.1: "if the
    /// chain length is less than f + 1, we extend the chain by adding more
    /// replicas prior to the buffer").
    pub fn effective_middleboxes(&self) -> Vec<MbSpec> {
        let mut mbs = self.middleboxes.clone();
        while mbs.len() < self.f + 1 {
            mbs.push(MbSpec::Passthrough);
        }
        mbs
    }

    /// Ring arithmetic for the effective chain.
    pub fn ring(&self) -> RingMath {
        RingMath {
            n: self.effective_middleboxes().len(),
            f: self.f,
        }
    }

    /// Validates invariants, panicking with a descriptive message otherwise.
    pub fn validate(&self) {
        assert!(!self.middleboxes.is_empty(), "chain must have middleboxes");
        assert!(self.partitions >= 1);
        assert!(self.workers >= 1);
        let n = self.effective_middleboxes().len();
        assert!(
            self.f < n,
            "f = {} requires a (padded) chain longer than f ({n})",
            self.f
        );
    }
}

/// Replication-group arithmetic over the logical ring of `n` replicas with
/// `f` tolerated failures (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingMath {
    /// Number of replicas (= effective middleboxes).
    pub n: usize,
    /// Failures tolerated.
    pub f: usize,
}

impl RingMath {
    /// The replicas in middlebox `m`'s replication group: `r_m` (the head)
    /// and its `f` successors on the ring.
    pub fn group(&self, m: usize) -> Vec<usize> {
        (0..=self.f).map(|k| (m + k) % self.n).collect()
    }

    /// The head replica of middlebox `m` (co-located with it).
    pub fn head_of(&self, m: usize) -> usize {
        m
    }

    /// The tail replica of middlebox `m`'s group.
    pub fn tail_of(&self, m: usize) -> usize {
        (m + self.f) % self.n
    }

    /// The middlebox for which replica `r` is the tail.
    pub fn tail_for(&self, r: usize) -> usize {
        (r + self.n - self.f % self.n) % self.n
    }

    /// The middleboxes replica `r` replicates (its `f` predecessors on the
    /// ring, excluding its own middlebox), ordered from most distant to the
    /// immediate predecessor — i.e. `[r-f, …, r-1] mod n`.
    pub fn replicated_by(&self, r: usize) -> Vec<usize> {
        (1..=self.f)
            .rev()
            .map(|k| (r + self.n - (k % self.n)) % self.n)
            .collect()
    }

    /// True if replica `r` is in middlebox `m`'s replication group.
    pub fn is_member(&self, r: usize, m: usize) -> bool {
        let dist = (r + self.n - m) % self.n;
        dist <= self.f
    }

    /// True if a log of middlebox `m` *wraps*: its tail lies at or before
    /// its head in chain order, so the buffer must hold packets carrying it
    /// until commit vectors come back around (§5.1).
    pub fn wraps(&self, m: usize) -> bool {
        m + self.f >= self.n
    }

    /// The middleboxes whose logs are still attached when a packet exits the
    /// chain (i.e. the wrapped ones: the last `f` middleboxes).
    pub fn wrapped_mboxes(&self) -> Vec<usize> {
        (0..self.n).filter(|&m| self.wraps(m)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_groups() {
        // §5: "if f = 1 then the replica r1 is in the replication groups of
        // middleboxes m1 and mn, and r2 is in the replication groups of m1
        // and m2. The replicas rn and r1 are the head and the tail of mn."
        // (1-based in the paper; 0-based here.)
        let ring = RingMath { n: 5, f: 1 };
        assert_eq!(ring.group(0), vec![0, 1]);
        assert_eq!(ring.group(4), vec![4, 0]);
        assert_eq!(ring.head_of(4), 4);
        assert_eq!(ring.tail_of(4), 0);
        assert!(ring.is_member(0, 4));
        assert!(ring.is_member(0, 0));
        assert!(!ring.is_member(0, 1));
        assert_eq!(ring.replicated_by(0), vec![4]);
        assert_eq!(ring.replicated_by(2), vec![1]);
    }

    #[test]
    fn f2_groups() {
        let ring = RingMath { n: 5, f: 2 };
        assert_eq!(ring.group(3), vec![3, 4, 0]);
        assert_eq!(ring.group(4), vec![4, 0, 1]);
        assert_eq!(ring.tail_of(3), 0);
        assert_eq!(ring.tail_of(4), 1);
        assert_eq!(ring.replicated_by(0), vec![3, 4]);
        assert_eq!(ring.replicated_by(1), vec![4, 0]);
        assert_eq!(ring.tail_for(0), 3);
        assert_eq!(ring.tail_for(1), 4);
        assert_eq!(ring.wrapped_mboxes(), vec![3, 4]);
        assert!(!ring.wraps(2));
    }

    #[test]
    fn tail_for_inverts_tail_of() {
        for n in 2..8 {
            for f in 0..n {
                let ring = RingMath { n, f };
                for m in 0..n {
                    assert_eq!(ring.tail_for(ring.tail_of(m)), m, "n={n} f={f} m={m}");
                }
            }
        }
    }

    #[test]
    fn short_chain_is_padded() {
        let cfg = ChainConfig::new(vec![MbSpec::Monitor { sharing_level: 1 }]).with_f(2);
        let mbs = cfg.effective_middleboxes();
        assert_eq!(mbs.len(), 3);
        assert!(matches!(mbs[1], MbSpec::Passthrough));
        assert!(matches!(mbs[2], MbSpec::Passthrough));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "chain must have middleboxes")]
    fn empty_chain_rejected() {
        ChainConfig::new(vec![]).validate();
    }

    #[test]
    fn fluent_builders_compose() {
        let cfg = ChainConfig::new(vec![MbSpec::Monitor { sharing_level: 1 }; 3])
            .with_f(2)
            .with_workers(4)
            .with_partitions(16)
            .with_mtu(1500)
            .with_nic_queue_depth(128)
            .with_propagate_timeout(Duration::from_millis(2))
            .with_resend_period(Duration::from_millis(20))
            .with_link(Endpoint::in_proc().with_loss(0.01).with_seed(7))
            .with_engine(EngineKind::Batched);
        assert_eq!(cfg.engine, EngineKind::Batched);
        assert_eq!(cfg.f, 2);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.partitions, 16);
        assert_eq!(cfg.mtu, 1500);
        assert_eq!(cfg.nic_queue_depth, 128);
        assert_eq!(cfg.propagate_timeout, Duration::from_millis(2));
        assert_eq!(cfg.resend_period, Duration::from_millis(20));
        assert_eq!(cfg.link.loss(), 0.01);
        assert_eq!(cfg.link.seed(), 7);
    }

    #[test]
    fn propagate_timeout_follows_link_kind_unless_set() {
        let sock = Endpoint::sock(ftc_net::PeerAddr::Uds("/nonexistent/ftc.sock".into()));
        let cfg = ChainConfig::ch_n(2, 1);
        assert_eq!(cfg.propagate_timeout, Duration::from_micros(20));
        let cfg = cfg.with_link(sock.clone());
        assert_eq!(cfg.propagate_timeout, Duration::from_millis(1));
        let cfg = cfg.with_link(Endpoint::in_proc());
        assert_eq!(cfg.propagate_timeout, Duration::from_micros(20));
        let cfg = ChainConfig::ch_n(2, 1)
            .with_propagate_timeout(Duration::from_micros(300))
            .with_link(sock);
        assert_eq!(cfg.propagate_timeout, Duration::from_micros(300));
    }

    #[test]
    fn f_zero_has_no_replication() {
        let ring = RingMath { n: 3, f: 0 };
        assert_eq!(ring.group(1), vec![1]);
        assert_eq!(ring.tail_of(1), 1);
        assert!(ring.replicated_by(2).is_empty());
        assert!(ring.wrapped_mboxes().is_empty());
    }
}
