//! The three workloads. A *round* builds a fresh two-node deployment
//! (timed as set-up), runs its transfers (the run phase: from the first
//! submit to an empty engine), checks every delivered byte outside the
//! timed window, and collects the layers' public counters.
//!
//! The closed loops submit the next transfer from the previous one's
//! completion callback, inside the engine, so a traced run cut into
//! sim-time windows executes exactly the same events as an untraced one.
//! Their byte checks therefore also run inside the engine; each check is
//! timed and subtracted from the run phase.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use sdr_core::{SdrConfig, SdrContext, SdrQp, SdrStats};
use sdr_reliability::{
    AdaptConfig, AdaptRecvReport, AdaptReport, AdaptiveController, AdaptiveReceiver,
    AdaptiveSender, ControlEndpoint, FlowCfg, FlowManager, FlowReport, FlowStats, RxFlowDone,
    SchemeSpec, SrProtoConfig, SrReceiver, SrReport, SrSender, TelemetryConfig, TransferOutcome,
};
use sdr_sim::{
    Engine, Fabric, LinkConfig, LinkStats, LossModel, Memory, NodeId, NodeStats, QueueKind, SimTime,
};

use crate::util::{splitmix, Pattern, Stopwatch, BLOCK};

/// Safety valve against a protocol livelock; no healthy round gets close.
const EVENT_LIMIT: u64 = 400_000_000;
/// Byte written over a checked receive buffer, so the next transfer into
/// it must overwrite every byte to pass its own check.
const POISON: u8 = 0xA5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BulkSr,
    AdaptiveStep,
    FlowFanout,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BulkSr,
        Workload::AdaptiveStep,
        Workload::FlowFanout,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkSr => "bulk_sr",
            Workload::AdaptiveStep => "adaptive_step",
            Workload::FlowFanout => "flow_fanout",
        }
    }

    /// Rounds whose transfers feed the sim-time metrics. Every run
    /// completes at least these, so the sim metrics depend on the seed
    /// alone, never on how fast the host is.
    pub fn sim_rounds(self) -> usize {
        match self {
            Workload::BulkSr => 16,
            Workload::AdaptiveStep => 15,
            Workload::FlowFanout => 1,
        }
    }

    /// Sim-time slice of the traced run's host-time profile.
    pub fn window(self) -> SimTime {
        match self {
            Workload::BulkSr => SimTime::from_millis(1),
            Workload::AdaptiveStep | Workload::FlowFanout => SimTime::from_millis(10),
        }
    }

    pub fn round(self, cfg: &RoundCfg) -> Round {
        match self {
            Workload::BulkSr => bulk_round(cfg, BULK_P, BULK_MSGS),
            Workload::AdaptiveStep => adaptive_round(cfg),
            Workload::FlowFanout => flow_round(cfg),
        }
    }
}

/// The link seed of round `r`: round 0 runs on the run's seed itself (so
/// a default-seed round 0 replays the figure binaries' deployments).
pub fn round_seed(seed: u64, r: usize) -> u64 {
    if r == 0 {
        seed
    } else {
        splitmix(seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// How one round is run. The switches are ones the program already has.
#[derive(Clone, Copy, Debug)]
pub struct RoundCfg {
    pub seed: u64,
    /// `SdrConfig::payload_checksums`.
    pub checksums: bool,
    /// `Engine::with_queue`.
    pub queue: QueueKind,
    /// Cut the run phase into windows of this much sim time.
    pub window: Option<SimTime>,
}

impl RoundCfg {
    pub fn new(seed: u64) -> RoundCfg {
        RoundCfg {
            seed,
            checksums: true,
            queue: QueueKind::Wheel,
            window: None,
        }
    }
}

/// One transfer: when it was due, when it completed (sim time), its size,
/// and whether every byte arrived intact with a delivered outcome.
#[derive(Clone, Copy, Debug)]
pub struct Xfer {
    pub due: SimTime,
    pub done: SimTime,
    pub bytes: u64,
    pub ok: bool,
}

/// One sim-time slice of a traced run phase.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub host_s: f64,
    pub events: u64,
    /// Events still queued at the slice's end.
    pub pending: usize,
}

/// The layers' public counters after a round.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub link_fwd: LinkStats,
    pub link_rev: LinkStats,
    pub node_tx: NodeStats,
    pub node_rx: NodeStats,
    /// The benchmark-owned data QPs' stats; empty when the program owns
    /// the QPs (the flow manager's shards).
    pub sdr: Vec<SdrStats>,
    pub flow_tx: Option<FlowStats>,
    pub flow_rx: Option<FlowStats>,
    pub adapt: Vec<AdaptReport>,
    pub retransmits: u64,
    /// Fabric and engine registry counters, by name.
    pub registry: BTreeMap<String, u64>,
    pub flow_completion_p99_us: u64,
    /// Distinct data packets the transfers needed (`ceil(bytes / MTU)`).
    pub unique_pkts: u64,
    pub mtu: u64,
    pub chunk: u64,
    pub rtt: SimTime,
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_fabric_s: f64,
    pub setup_memory_s: f64,
    pub setup_endpoints_s: f64,
    /// First submit to an empty engine, byte checks excluded.
    pub run: Stopwatch,
    pub verify_s: f64,
    pub xfers: Vec<Xfer>,
    /// Broken invariants (each fails the run).
    pub problems: Vec<String>,
    pub events: u64,
    pub windows: Vec<Window>,
    pub counts: Counts,
}

impl Round {
    pub fn setup_s(&self) -> f64 {
        self.setup_fabric_s + self.setup_memory_s + self.setup_endpoints_s
    }

    pub fn bytes_ok(&self) -> u64 {
        self.xfers.iter().filter(|x| x.ok).map(|x| x.bytes).sum()
    }
}

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

/// Runs the engine to an empty queue. With a window, the run is cut at
/// multiples of it in sim time via `run_until`, and each slice's host
/// time (less the byte checks inside it), events and leftover queue depth
/// are recorded. `checks` is the stopwatch the in-engine byte checks
/// accumulate into.
fn drive(eng: &mut Engine, cfg: &RoundCfg, checks: &RefCell<Stopwatch>, round: &mut Round) {
    eng.set_event_limit(EVENT_LIMIT);
    let checks_before = *checks.borrow();
    match cfg.window {
        None => round.run.time(|| {
            eng.run();
        }),
        Some(w) => {
            let t0 = (Instant::now(), crate::util::cpu_time_s());
            while eng.pending_events() > 0 && eng.executed_events() < EVENT_LIMIT {
                let (ev0, ck0, w0) = (
                    eng.executed_events(),
                    checks.borrow().wall_s,
                    Instant::now(),
                );
                let deadline = SimTime((eng.now().0 / w.0 + 1) * w.0);
                eng.run_until(deadline);
                round.windows.push(Window {
                    host_s: w0.elapsed().as_secs_f64() - (checks.borrow().wall_s - ck0),
                    events: eng.executed_events() - ev0,
                    pending: eng.pending_events(),
                });
            }
            round.run.wall_s += t0.0.elapsed().as_secs_f64();
            round.run.cpu_s += crate::util::cpu_time_s() - t0.1;
        }
    }
    let checks = *checks.borrow();
    round.run.wall_s -= checks.wall_s - checks_before.wall_s;
    round.run.cpu_s -= checks.cpu_s - checks_before.cpu_s;
    round.verify_s += checks.wall_s - checks_before.wall_s;
    round.events = eng.executed_events();
    if round.events >= EVENT_LIMIT {
        round
            .problems
            .push("event limit hit before the engine drained".into());
    }
    if eng.pending_events() != 0 {
        round.problems.push(format!(
            "{} events left in the engine",
            eng.pending_events()
        ));
    }
}

/// Writes `len` bytes of pattern `seed` into node memory at `addr`.
fn write_pattern(fabric: &Fabric, node: NodeId, addr: u64, len: u64, seed: u64) {
    let mut pat = Pattern::new(seed);
    let mut block = vec![0u8; BLOCK];
    let mut off = 0u64;
    while off < len {
        let n = (len - off).min(BLOCK as u64) as usize;
        pat.fill(&mut block[..n]);
        fabric.node_mut(node, |nd| nd.mem_mut().write(addr + off, &block[..n]));
        off += n as u64;
    }
}

/// Whether node memory at `addr` holds `len` bytes of pattern `seed`.
fn holds_pattern(fabric: &Fabric, node: NodeId, addr: u64, len: u64, seed: u64) -> bool {
    let mut pat = Pattern::new(seed);
    let mut block = vec![0u8; BLOCK];
    let mut off = 0u64;
    while off < len {
        let n = (len - off).min(BLOCK as u64) as usize;
        pat.fill(&mut block[..n]);
        if fabric.node(node, |nd| nd.mem().read(addr + off, n) != &block[..n]) {
            return false;
        }
        off += n as u64;
    }
    true
}

/// Checks a closed-loop transfer's receive buffer, then poisons it.
fn check_and_poison(
    fabric: &Fabric,
    node: NodeId,
    addr: u64,
    len: u64,
    seed: u64,
    sw: &RefCell<Stopwatch>,
) -> bool {
    sw.borrow_mut().time(|| {
        let ok = holds_pattern(fabric, node, addr, len, seed);
        fabric.node_mut(node, |nd| nd.mem_mut().fill(addr, len as usize, POISON));
        ok
    })
}

/// Reads the counters every workload shares.
fn base_counts(eng: &Engine, fabric: &Fabric, a: NodeId, b: NodeId, xfers: &[Xfer]) -> Counts {
    let mut registry = BTreeMap::new();
    for (name, v) in fabric
        .metrics()
        .snapshot()
        .counters
        .into_iter()
        .chain(eng.metrics().snapshot().counters)
    {
        registry.insert(name, v);
    }
    let mtu = fabric.mtu(a, b).expect("linked") as u64;
    Counts {
        link_fwd: fabric.link_stats(a, b).expect("linked"),
        link_rev: fabric.link_stats(b, a).expect("linked"),
        node_tx: fabric.node(a, |n| n.stats()),
        node_rx: fabric.node(b, |n| n.stats()),
        registry,
        unique_pkts: xfers.iter().map(|x| x.bytes.div_ceil(mtu)).sum(),
        mtu,
        rtt: fabric.rtt(a, b).expect("linked"),
        ..Counts::default()
    }
}

/// Frees both nodes' memory. Every `Fabric` sits in reference cycles
/// through its completion wakers, so a dropped deployment is never freed;
/// without this each round would leak its node memory into the next.
pub fn release_memory(fabric: &Fabric, a: NodeId, b: NodeId) {
    for n in [a, b] {
        fabric.node_mut(n, |nd| *nd.mem_mut() = Memory::new(0));
    }
}

fn ctrl_pair(fabric: &Fabric, a: NodeId, b: NodeId) -> (Rc<ControlEndpoint>, Rc<ControlEndpoint>) {
    (
        Rc::new(ControlEndpoint::new(fabric, a)),
        Rc::new(ControlEndpoint::new(fabric, b)),
    )
}

fn delivered(o: &TransferOutcome) -> bool {
    matches!(o, TransferOutcome::Delivered)
}

// ---------------------------------------------------------------------------
// bulk_sr: back-to-back 64 MiB SR-NACK messages, 400 Gb/s × 100 km
// ---------------------------------------------------------------------------

pub const BULK_MSG: u64 = 64 << 20;
pub const BULK_BW: f64 = 400e9;
pub const BULK_KM: f64 = 100.0;
pub const BULK_P: f64 = 1e-4;
const BULK_MSGS: usize = 8;
/// Control-endpoint pairs the loop rotates through. SR ACKs carry no
/// message id, so a receiver still repeating its final ACK must not share
/// an endpoint with its successor's sender; the linger (25 ACKs at RTT/4)
/// outlasts about three messages here.
const BULK_CTRL_PAIRS: usize = 4;

pub fn bulk_qp_cfg(checksums: bool) -> SdrConfig {
    SdrConfig {
        max_msg_bytes: BULK_MSG,
        msg_slots: 16,
        mtu_bytes: 4096,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        payload_checksums: checksums,
        ..SdrConfig::default()
    }
}

/// Node memory for the two alternating sources (A) or the one receive
/// buffer (B), plus room for the control endpoints' rings.
fn bulk_mem(buffers: u64) -> usize {
    (buffers * BULK_MSG + (8 << 20)) as usize
}

/// Set-up shared by the bulk round and the ladder's raw-fabric levels.
pub struct BulkDeployment {
    pub eng: Engine,
    pub fabric: Fabric,
    pub a: NodeId,
    pub b: NodeId,
    pub src: [u64; 2],
    pub dst: u64,
    pub src_seed: [u64; 2],
}

pub fn bulk_deploy(cfg: &RoundCfg, p: f64, round: &mut Round) -> BulkDeployment {
    let t = Instant::now();
    let eng = Engine::with_queue(cfg.queue);
    let fabric = Fabric::new();
    let a = fabric.add_node(bulk_mem(2));
    let b = fabric.add_node(bulk_mem(1));
    fabric.link_duplex(
        a,
        b,
        LinkConfig::wan(BULK_KM, BULK_BW, p).with_seed(cfg.seed),
    );
    round.setup_fabric_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let src = [0, 1].map(|_| fabric.node_mut(a, |n| n.mem_mut().alloc(BULK_MSG)));
    let dst = fabric.node_mut(b, |n| n.mem_mut().alloc(BULK_MSG));
    let src_seed = [0u64, 1].map(|k| splitmix(cfg.seed ^ (0xB01C + k)));
    for k in 0..2 {
        write_pattern(&fabric, a, src[k], BULK_MSG, src_seed[k]);
    }
    // Touch the receive buffer, as registering it for RDMA would pin it,
    // so no message pays first-touch page faults in the run phase.
    fabric.node_mut(b, |n| n.mem_mut().fill(dst, BULK_MSG as usize, POISON));
    round.setup_memory_s = t.elapsed().as_secs_f64();
    BulkDeployment {
        eng,
        fabric,
        a,
        b,
        src,
        dst,
        src_seed,
    }
}

struct BulkLoop {
    fabric: Fabric,
    b: NodeId,
    qp_a: SdrQp,
    qp_b: SdrQp,
    ctrls: Vec<(Rc<ControlEndpoint>, Rc<ControlEndpoint>)>,
    proto: SrProtoConfig,
    src: [u64; 2],
    src_seed: [u64; 2],
    dst: u64,
    msgs: usize,
    checks: RefCell<Stopwatch>,
    xfers: RefCell<Vec<Xfer>>,
    /// The message in flight: its due instant and each end's report.
    tx_done: RefCell<Option<SrReport>>,
    rx_done: Cell<Option<SimTime>>,
    retransmits: Cell<u64>,
}

impl BulkLoop {
    fn submit(me: &Rc<BulkLoop>, eng: &mut Engine, i: usize) {
        let due = eng.now();
        let (ca, cb) = &me.ctrls[i % me.ctrls.len()];
        let m = me.clone();
        SrSender::start(
            eng,
            &me.qp_a,
            ca.clone(),
            cb.addr(),
            me.src[i % 2],
            BULK_MSG,
            me.proto,
            move |eng, rep| {
                *m.tx_done.borrow_mut() = Some(rep);
                BulkLoop::settle(&m, eng, i, due);
            },
        );
        let m = me.clone();
        SrReceiver::start(
            eng,
            &me.qp_b,
            cb.clone(),
            ca.addr(),
            me.dst,
            BULK_MSG,
            me.proto,
            move |eng, t| {
                m.rx_done.set(Some(t));
                BulkLoop::settle(&m, eng, i, due);
            },
        );
    }

    /// Once both ends of message `i` have reported: check its bytes,
    /// record it and submit the next.
    fn settle(me: &Rc<BulkLoop>, eng: &mut Engine, i: usize, due: SimTime) {
        if me.tx_done.borrow().is_none() || me.rx_done.get().is_none() {
            return;
        }
        let rep = me.tx_done.take().expect("checked above");
        let done = me.rx_done.take().expect("checked above");
        me.retransmits.set(me.retransmits.get() + rep.retransmitted);
        let bytes_ok = check_and_poison(
            &me.fabric,
            me.b,
            me.dst,
            BULK_MSG,
            me.src_seed[i % 2],
            &me.checks,
        );
        me.xfers.borrow_mut().push(Xfer {
            due,
            done,
            bytes: BULK_MSG,
            ok: bytes_ok && delivered(&rep.outcome),
        });
        if i + 1 < me.msgs {
            BulkLoop::submit(me, eng, i + 1);
        }
    }
}

/// One bulk round: `msgs` back-to-back 64 MiB SR-NACK messages at loss
/// `p` (the ladder reuses it at `p = 0`).
pub fn bulk_round(cfg: &RoundCfg, p: f64, msgs: usize) -> Round {
    let mut round = Round::default();
    let BulkDeployment {
        mut eng,
        fabric,
        a,
        b,
        src,
        dst,
        src_seed,
    } = bulk_deploy(cfg, p, &mut round);

    let t = Instant::now();
    let ctx_a = SdrContext::new(&fabric, a);
    let ctx_b = SdrContext::new(&fabric, b);
    let qp_a = ctx_a
        .qp_create(bulk_qp_cfg(cfg.checksums))
        .expect("valid config");
    let qp_b = ctx_b
        .qp_create(bulk_qp_cfg(cfg.checksums))
        .expect("valid config");
    qp_a.connect(qp_b.info()).expect("shape matches");
    qp_b.connect(qp_a.info()).expect("shape matches");
    let ctrls = (0..BULK_CTRL_PAIRS)
        .map(|_| ctrl_pair(&fabric, a, b))
        .collect();
    let rtt = fabric.rtt(a, b).expect("linked");
    let lp = Rc::new(BulkLoop {
        fabric: fabric.clone(),
        b,
        qp_a: qp_a.clone(),
        qp_b: qp_b.clone(),
        ctrls,
        proto: SrProtoConfig::nack(rtt),
        src,
        src_seed,
        dst,
        msgs,
        checks: RefCell::new(Stopwatch::default()),
        xfers: RefCell::new(Vec::new()),
        tx_done: RefCell::new(None),
        rx_done: Cell::new(None),
        retransmits: Cell::new(0),
    });
    round.setup_endpoints_s = t.elapsed().as_secs_f64();

    round.run.time(|| BulkLoop::submit(&lp, &mut eng, 0));
    drive(&mut eng, cfg, &lp.checks, &mut round);

    round.xfers = lp.xfers.take();
    if round.xfers.len() != msgs {
        round.problems.push(format!(
            "{} of {msgs} messages completed",
            round.xfers.len()
        ));
    }
    round.counts = base_counts(&eng, &fabric, a, b, &round.xfers);
    round.counts.sdr = vec![qp_a.stats(), qp_b.stats()];
    round.counts.retransmits = lp.retransmits.get();
    round.counts.chunk = bulk_qp_cfg(true).chunk_bytes;
    release_memory(&fabric, a, b);
    round
}

// ---------------------------------------------------------------------------
// adaptive_step: 40 MiB adaptive transfers, 8 Gb/s × 1000 km, loss steps
// 1e-6 → 1e-2 8 ms into each transfer (fig09_adaptive's last row)
// ---------------------------------------------------------------------------

pub const ADAPT_BW: f64 = 8e9;
pub const ADAPT_KM: f64 = 1000.0;
pub const ADAPT_MSG: u64 = 40 << 20;
pub const ADAPT_SEG: u64 = 2 << 20;
pub const ADAPT_P_BEFORE: f64 = 1e-6;
pub const ADAPT_P_AFTER: f64 = 1e-2;
/// Seconds into each transfer at which the loss steps up.
pub const ADAPT_STEP_AT_S: f64 = 0.008;
const ADAPT_TRANSFERS: usize = 4;
/// The receiver's linger (25 ACKs at RTT/4) is shorter than a transfer,
/// so two alternating control pairs keep each transfer's ACKs apart.
const ADAPT_CTRL_PAIRS: usize = 2;

pub fn adapt_qp_cfg(checksums: bool) -> SdrConfig {
    SdrConfig {
        max_msg_bytes: ADAPT_SEG * 2,
        msg_slots: 64,
        mtu_bytes: 4096,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        payload_checksums: checksums,
        ..SdrConfig::default()
    }
}

/// `fig09_adaptive`'s controller configuration.
pub fn adapt_cfg(rtt: SimTime) -> AdaptConfig {
    let mut acfg = AdaptConfig::new(ADAPT_BW, rtt, ADAPT_SEG);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets: 768,
        ..TelemetryConfig::default()
    };
    acfg
}

struct AdaptLoop {
    fabric: Fabric,
    a: NodeId,
    b: NodeId,
    ctx_a: SdrContext,
    ctx_b: SdrContext,
    qp_a: SdrQp,
    qp_b: SdrQp,
    ctrls: Vec<(Rc<ControlEndpoint>, Rc<ControlEndpoint>)>,
    rtt: SimTime,
    src: [u64; 2],
    src_seed: [u64; 2],
    dst: u64,
    transfers: usize,
    checks: RefCell<Stopwatch>,
    xfers: RefCell<Vec<Xfer>>,
    reports: RefCell<Vec<AdaptReport>>,
    /// Each end's report of the transfer in flight.
    tx_done: RefCell<Option<AdaptReport>>,
    rx_done: RefCell<Option<(SimTime, AdaptRecvReport)>>,
    handles: RefCell<Vec<(AdaptiveSender, AdaptiveReceiver)>>,
}

impl AdaptLoop {
    fn submit(me: &Rc<AdaptLoop>, eng: &mut Engine, i: usize) {
        let due = eng.now();
        let (fab, a, b) = (me.fabric.clone(), me.a, me.b);
        if i > 0 {
            fab.set_loss_duplex(a, b, LossModel::Iid { p: ADAPT_P_BEFORE });
        }
        // `from_secs_f64` as in fig09_adaptive: the step's exact picosecond
        // decides which packets it claims.
        eng.schedule_at(due + SimTime::from_secs_f64(ADAPT_STEP_AT_S), move |_eng| {
            fab.set_loss_duplex(a, b, LossModel::Iid { p: ADAPT_P_AFTER });
        });
        let (ca, cb) = &me.ctrls[i % me.ctrls.len()];
        let acfg = adapt_cfg(me.rtt);
        let m = me.clone();
        let tx = AdaptiveController::start_sender(
            eng,
            &me.qp_a,
            &me.ctx_a,
            ca.clone(),
            cb.addr(),
            me.src[i % 2],
            ADAPT_MSG,
            SchemeSpec::SrNack,
            acfg.clone(),
            move |eng, rep| {
                *m.tx_done.borrow_mut() = Some(rep);
                AdaptLoop::settle(&m, eng, i, due);
            },
        );
        let m = me.clone();
        let rx = AdaptiveController::start_receiver(
            eng,
            &me.qp_b,
            &me.ctx_b,
            cb.clone(),
            ca.addr(),
            me.dst,
            ADAPT_MSG,
            SchemeSpec::SrNack,
            acfg,
            move |eng, t, rep| {
                *m.rx_done.borrow_mut() = Some((t, rep));
                AdaptLoop::settle(&m, eng, i, due);
            },
        );
        me.handles.borrow_mut().push((tx, rx));
    }

    /// Once both ends of transfer `i` have reported — the sender's
    /// delivery rides the final ACK, which can precede the receiver's
    /// digest verdict — check its bytes, record it and submit the next.
    fn settle(me: &Rc<AdaptLoop>, eng: &mut Engine, i: usize, due: SimTime) {
        if me.tx_done.borrow().is_none() || me.rx_done.borrow().is_none() {
            return;
        }
        let rep = me.tx_done.take().expect("checked above");
        let (done, rx) = me.rx_done.take().expect("checked above");
        let bytes_ok = check_and_poison(
            &me.fabric,
            me.b,
            me.dst,
            ADAPT_MSG,
            me.src_seed[i % 2],
            &me.checks,
        );
        me.xfers.borrow_mut().push(Xfer {
            due,
            done,
            bytes: ADAPT_MSG,
            ok: bytes_ok && delivered(&rx.outcome) && delivered(&rep.outcome),
        });
        me.reports.borrow_mut().push(rep);
        if i + 1 < me.transfers {
            AdaptLoop::submit(me, eng, i + 1);
        }
    }
}

fn adaptive_round(cfg: &RoundCfg) -> Round {
    let mut round = Round::default();
    // The deployment mirrors fig09_adaptive's `deploy` step by step, so
    // round 0 at the default seed replays its 1e-2 row exactly.
    let t = Instant::now();
    let mut eng = Engine::with_queue(cfg.queue);
    let fabric = Fabric::new();
    let a = fabric.add_node(128 << 20);
    let b = fabric.add_node(128 << 20);
    let link = LinkConfig::wan(ADAPT_KM, ADAPT_BW, ADAPT_P_BEFORE).with_seed(cfg.seed);
    fabric.link_duplex(a, b, link);
    round.setup_fabric_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ctx_a = SdrContext::new(&fabric, a);
    let ctx_b = SdrContext::new(&fabric, b);
    let qp_a = ctx_a
        .qp_create(adapt_qp_cfg(cfg.checksums))
        .expect("valid config");
    let qp_b = ctx_b
        .qp_create(adapt_qp_cfg(cfg.checksums))
        .expect("valid config");
    qp_a.connect(qp_b.info()).expect("shape matches");
    qp_b.connect(qp_a.info()).expect("shape matches");
    let endpoints_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let rtt = fabric.rtt(a, b).expect("linked");
    let src = [0, 1].map(|_| ctx_a.alloc_buffer(ADAPT_MSG));
    let dst = ctx_b.alloc_buffer(ADAPT_MSG);
    let src_seed = [0u64, 1].map(|k| splitmix(cfg.seed ^ (0xF19 + k)));
    for k in 0..2 {
        write_pattern(&fabric, a, src[k], ADAPT_MSG, src_seed[k]);
    }
    round.setup_memory_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ctrls = (0..ADAPT_CTRL_PAIRS)
        .map(|_| ctrl_pair(&fabric, a, b))
        .collect();
    let lp = Rc::new(AdaptLoop {
        fabric: fabric.clone(),
        a,
        b,
        ctx_a,
        ctx_b,
        qp_a: qp_a.clone(),
        qp_b: qp_b.clone(),
        ctrls,
        rtt,
        src,
        src_seed,
        dst,
        transfers: ADAPT_TRANSFERS,
        checks: RefCell::new(Stopwatch::default()),
        xfers: RefCell::new(Vec::new()),
        reports: RefCell::new(Vec::new()),
        tx_done: RefCell::new(None),
        rx_done: RefCell::new(None),
        handles: RefCell::new(Vec::new()),
    });
    round.setup_endpoints_s = endpoints_s + t.elapsed().as_secs_f64();

    round.run.time(|| AdaptLoop::submit(&lp, &mut eng, 0));
    drive(&mut eng, cfg, &lp.checks, &mut round);
    // The handles' callbacks hold the loop: drop them to free the round.
    lp.handles.borrow_mut().clear();

    round.xfers = lp.xfers.take();
    if round.xfers.len() != ADAPT_TRANSFERS {
        round.problems.push(format!(
            "{} of {ADAPT_TRANSFERS} transfers completed",
            round.xfers.len()
        ));
    }
    round.counts = base_counts(&eng, &fabric, a, b, &round.xfers);
    round.counts.sdr = vec![qp_a.stats(), qp_b.stats()];
    round.counts.adapt = lp.reports.take();
    round.counts.retransmits = round.counts.adapt.iter().map(|r| r.retransmits).sum();
    round.counts.chunk = adapt_qp_cfg(true).chunk_bytes;
    release_memory(&fabric, a, b);
    round
}

// ---------------------------------------------------------------------------
// flow_fanout: 10,000 × 32 KiB flows opened at t = 0, 10 Gb/s × 10 km
// (flow_sweep's 10k row)
// ---------------------------------------------------------------------------

pub const FLOW_BW: f64 = 10e9;
pub const FLOW_KM: f64 = 10.0;
pub const FLOW_P: f64 = 1e-4;
pub const FLOW_N: u64 = 10_000;
pub const FLOW_BYTES: u64 = 32 << 10;
const FLOW_NODE_MEM: usize = 1 << 30;

fn flow_seed(seed: u64, i: u64) -> u64 {
    splitmix(seed ^ 0xF10 ^ (i << 20))
}

fn flow_round(cfg: &RoundCfg) -> Round {
    let mut round = Round::default();
    let t = Instant::now();
    let mut eng = Engine::with_queue(cfg.queue);
    let fabric = Fabric::new();
    let a = fabric.add_node(FLOW_NODE_MEM);
    let b = fabric.add_node(FLOW_NODE_MEM);
    fabric.link_duplex(
        a,
        b,
        LinkConfig::wan(FLOW_KM, FLOW_BW, FLOW_P).with_seed(cfg.seed),
    );
    let rtt = fabric.rtt(a, b).expect("linked");
    round.setup_fabric_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ctx_a = SdrContext::new(&fabric, a);
    let ctx_b = SdrContext::new(&fabric, b);
    let ctrl_a = Rc::new(ControlEndpoint::new(&fabric, a));
    let ctrl_b = Rc::new(ControlEndpoint::new(&fabric, b));
    let qp = SdrConfig {
        msg_slots: 64,
        payload_checksums: cfg.checksums,
        ..SdrConfig::default()
    };
    let mut fcfg = FlowCfg::new(qp, FLOW_BW, rtt);
    fcfg.shards = 16;
    let mgr_a = FlowManager::new(&fabric, a, ctrl_a, fcfg.clone());
    let mgr_b = FlowManager::new(&fabric, b, ctrl_b, fcfg);
    FlowManager::connect(&mgr_a, &mgr_b);
    let reports: Rc<RefCell<Vec<FlowReport>>> = Rc::new(RefCell::new(Vec::new()));
    let rx: Rc<RefCell<Vec<RxFlowDone>>> = Rc::new(RefCell::new(Vec::new()));
    let r = rx.clone();
    mgr_b.on_rx_done(move |_eng, d| r.borrow_mut().push(d));
    let endpoints_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut pattern = vec![0u8; FLOW_BYTES as usize];
    let srcs: Vec<u64> = (0..FLOW_N)
        .map(|i| {
            let src = ctx_a.alloc_buffer(FLOW_BYTES);
            Pattern::new(flow_seed(cfg.seed, i)).fill(&mut pattern);
            ctx_a.write_buffer(src, &pattern);
            src
        })
        .collect();
    round.setup_memory_s = t.elapsed().as_secs_f64();
    round.setup_endpoints_s = endpoints_s;

    let no_checks = RefCell::new(Stopwatch::default());
    round.run.time(|| {
        for &src in &srcs {
            let rep = reports.clone();
            mgr_a.open_flow(&mut eng, b, src, FLOW_BYTES, move |_e, r| {
                rep.borrow_mut().push(r)
            });
        }
    });
    drive(&mut eng, cfg, &no_checks, &mut round);

    // Every byte of every flow, outside the timed window. Flow ids are
    // assigned from 1 in open order, so the id names the pattern.
    let t = Instant::now();
    let rx = rx.take();
    let mut rx_ok = vec![false; FLOW_N as usize];
    for d in &rx {
        let i = d.id.wrapping_sub(1);
        if i < FLOW_N && d.bytes == FLOW_BYTES {
            Pattern::new(flow_seed(cfg.seed, i)).fill(&mut pattern);
            rx_ok[i as usize] = ctx_b.read_buffer(d.addr, FLOW_BYTES as usize) == pattern;
        }
    }
    let reports = reports.take();
    round.xfers = reports
        .iter()
        .map(|r| Xfer {
            due: r.opened_at,
            done: r.done_at,
            bytes: r.bytes,
            ok: r.delivered
                && r.bytes == FLOW_BYTES
                && rx_ok.get(r.id.wrapping_sub(1) as usize) == Some(&true),
        })
        .collect();
    round.verify_s = t.elapsed().as_secs_f64();

    let (st_a, st_b) = (mgr_a.stats(), mgr_b.stats());
    let problems = &mut round.problems;
    if reports.len() as u64 != FLOW_N || rx.len() as u64 != FLOW_N {
        problems.push(format!(
            "{} sender reports and {} receiver notices for {FLOW_N} flows",
            reports.len(),
            rx.len()
        ));
    }
    let delivered_reports = reports.iter().filter(|r| r.delivered).count() as u64;
    let bytes_reports: u64 = reports
        .iter()
        .filter(|r| r.delivered)
        .map(|r| r.bytes)
        .sum();
    if st_a.delivered != delivered_reports || st_a.bytes_delivered != bytes_reports {
        problems.push(format!(
            "FlowStats says {} flows / {} B delivered, the reports {} / {} B",
            st_a.delivered, st_a.bytes_delivered, delivered_reports, bytes_reports
        ));
    }
    if mgr_b.parked_opens() != 0 {
        problems.push(format!("{} opens still parked", mgr_b.parked_opens()));
    }
    if mgr_a.live_flows() != (0, 0) || mgr_b.live_flows() != (0, 0) {
        problems.push("flows still live after the engine drained".into());
    }

    round.counts = base_counts(&eng, &fabric, a, b, &round.xfers);
    round.counts.flow_tx = Some(st_a);
    round.counts.flow_rx = Some(st_b);
    round.counts.retransmits = st_a.retransmits;
    round.counts.chunk = qp.chunk_bytes;
    round.counts.flow_completion_p99_us = fabric.metrics().histogram("flow.completion_us").p99();
    release_memory(&fabric, a, b);
    round
}
