//! The traced run: per-layer numbers, each taken from outside the
//! program.
//!
//! * Counters: the layers' public stats after a round, per delivered MiB.
//! * Host time by layer: the same round rerun with a switch the program
//!   already has (payload checksums off, the trace kill switch off, the
//!   binary-heap queue), and a sim-time-windowed profile via `run_until`.
//! * Layers that only run inside engine callbacks (RS encode/decode, the
//!   advisor): isolated calls timed here, multiplied by the call counts
//!   the workload's own reports imply — labelled estimates.
//! * The ladder: the same bytes over the same link at four stack depths;
//!   adjacent differences are each layer's own host time per packet.

use std::collections::BTreeMap;
use std::time::Instant;

use bytes::Bytes;
use sdr_core::{SdrContext, SdrStats};
use sdr_erasure::{ErasureCode, ReedSolomon};
use sdr_model::Channel;
use sdr_reliability::recommend;
use sdr_sim::{set_trace_enabled, QpAddr, QpType, QueueKind, WriteWr};

use crate::util::{median, wall};
use crate::workloads::{
    adapt_cfg, bulk_deploy, bulk_qp_cfg, bulk_round, release_memory, round_seed, BulkDeployment,
    Round, RoundCfg, Workload, ADAPT_BW, ADAPT_P_AFTER, ADAPT_P_BEFORE, ADAPT_SEG, ADAPT_STEP_AT_S,
    BULK_MSG, BULK_P,
};

const MIB: f64 = (1u64 << 20) as f64;

/// One per-layer number.
pub struct Metric {
    pub layer: &'static str,
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(layer: &'static str, name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        layer,
        name,
        value,
        unit,
    }
}

/// Reported for a counter the program keeps but does not expose on this
/// workload (the flow manager owns its QPs, so their `SdrStats` are out
/// of reach).
pub const NOT_OBSERVABLE: f64 = -1.0;

/// Round configurations of one traced cycle. Every one runs the same
/// seed, so their host times compare the same work.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    Plain,
    Windowed,
    NoChecksums,
    NoTrace,
    Heap,
}

const VARIANTS: [Variant; 5] = [
    Variant::Plain,
    Variant::Windowed,
    Variant::NoChecksums,
    Variant::NoTrace,
    Variant::Heap,
];

fn run_variant(w: Workload, seed: u64, v: Variant) -> Round {
    let mut cfg = RoundCfg::new(seed);
    match v {
        Variant::Plain | Variant::NoTrace => {}
        Variant::Windowed => cfg.window = Some(w.window()),
        Variant::NoChecksums => cfg.checksums = false,
        Variant::Heap => cfg.queue = QueueKind::Heap,
    }
    if v == Variant::NoTrace {
        set_trace_enabled(false);
    }
    let round = w.round(&cfg);
    set_trace_enabled(true);
    round
}

/// Output of the traced run.
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Every workload round run (for attempted / failed).
    pub rounds: Vec<Round>,
    /// Broken invariants beyond the rounds' own.
    pub problems: Vec<String>,
    /// Findings that do not fail the run.
    pub notes: Vec<String>,
    /// Human-readable span and window log, one line each.
    pub log: Vec<String>,
}

/// Runs the traced measurement of `w` within roughly `budget_s` seconds.
pub fn traced_run(w: Workload, seed: u64, budget_s: f64) -> Traced {
    let t0 = Instant::now();
    let seed = round_seed(seed, 0);
    let mut by_variant: Vec<(Variant, Round)> = Vec::new();
    let (mut problems, mut notes) = (Vec::new(), Vec::new());
    // Whole cycles while most of the budget remains; the ladder and the
    // isolated-call estimates take the rest.
    loop {
        for v in VARIANTS {
            by_variant.push((v, run_variant(w, seed, v)));
        }
        if t0.elapsed().as_secs_f64() > budget_s * 0.6 {
            break;
        }
    }
    let plain: Vec<&Round> = rounds_of(&by_variant, Variant::Plain);
    let reference = plain[0];
    for (v, r) in &by_variant {
        let same = r.xfers.len() == reference.xfers.len()
            && r.xfers
                .iter()
                .zip(&reference.xfers)
                .all(|(x, y)| x.due == y.due && x.done == y.done && x.ok == y.ok);
        if same {
            continue;
        }
        let msg = format!(
            "variant {} changed the simulated schedule",
            variant_name(*v)
        );
        // Without payload checksums the adaptive receiver declares
        // delivery at bitmap completion, skipping the digest handshake:
        // a designed difference, so its host share compares slightly
        // different work. Any other variant must not move sim time.
        let (list, msg) = if *v == Variant::NoChecksums {
            (
                &mut notes,
                format!("{msg} (no digest handshake without checksums)"),
            )
        } else {
            (&mut problems, msg)
        };
        if !list.contains(&msg) {
            list.push(msg);
        }
    }
    let run_s = |v: Variant| median(&times(&by_variant, v));
    let (t_plain, t_windowed) = (run_s(Variant::Plain), run_s(Variant::Windowed));

    let windowed = rounds_of(&by_variant, Variant::Windowed)[0];
    let mut metrics = counter_metrics(windowed);
    let win_host: f64 = windowed.windows.iter().map(|x| x.host_s).sum();
    let win_events: u64 = windowed.windows.iter().map(|x| x.events).sum();
    metrics.extend([
        m(
            "sdr-sim engine",
            "engine.ns_per_event",
            win_host / win_events.max(1) as f64 * 1e9,
            "ns",
        ),
        m(
            "sdr-sim engine",
            "engine.pending_peak",
            windowed
                .windows
                .iter()
                .map(|x| x.pending)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        m(
            "sdr-sim engine",
            "engine.heap_ratio",
            run_s(Variant::Heap) / t_plain,
            "ratio",
        ),
        m(
            "sdr-core",
            "crc.host_share",
            1.0 - run_s(Variant::NoChecksums) / t_plain,
            "ratio",
        ),
        m(
            "sdr-trace",
            "trace.host_share",
            1.0 - run_s(Variant::NoTrace) / t_plain,
            "ratio",
        ),
        m(
            "benchmark",
            "bench.trace_overhead_frac",
            1.0 - t_plain / t_windowed,
            "ratio",
        ),
    ]);
    let span = |f: fn(&Round) -> f64| median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    metrics.extend([
        m(
            "spans",
            "span.setup_fabric_s",
            span(|r| r.setup_fabric_s),
            "s",
        ),
        m(
            "spans",
            "span.setup_memory_s",
            span(|r| r.setup_memory_s),
            "s",
        ),
        m(
            "spans",
            "span.setup_endpoints_s",
            span(|r| r.setup_endpoints_s),
            "s",
        ),
        m("spans", "span.run_s", span(|r| r.run.wall_s), "s"),
        m("spans", "span.verify_s", span(|r| r.verify_s), "s"),
    ]);
    metrics.extend(estimates(windowed));
    // The ladder drives bulk_sr's link and message size, so it splits that
    // workload's host time only; the other two bypass it and read 0.
    if w == Workload::BulkSr {
        metrics.extend(ladder(seed, &mut problems, &mut notes));
    } else {
        metrics.extend(LADDER_METRICS.map(|name| m("ladder", name, 0.0, "ns")));
    }

    let mut log = Vec::new();
    for (i, (v, r)) in by_variant.iter().enumerate() {
        log.push(format!(
            "round {i:>2} {:<12} setup fabric {:.4} s, memory {:.4} s, endpoints {:.4} s; \
             run {:.4} s ({:.4} s CPU); verify {:.4} s; {} events",
            variant_name(*v),
            r.setup_fabric_s,
            r.setup_memory_s,
            r.setup_endpoints_s,
            r.run.wall_s,
            r.run.cpu_s,
            r.verify_s,
            r.events
        ));
    }
    let wsz = w.window().as_secs_f64() * 1e3;
    for (i, x) in windowed.windows.iter().enumerate() {
        log.push(format!(
            "window {:>8.1} ms: host {:>9.3} ms, {:>7} events, {:>7} pending",
            (i + 1) as f64 * wsz,
            x.host_s * 1e3,
            x.events,
            x.pending
        ));
    }
    Traced {
        metrics,
        rounds: by_variant.into_iter().map(|(_, r)| r).collect(),
        problems,
        notes,
        log,
    }
}

fn variant_name(v: Variant) -> &'static str {
    match v {
        Variant::Plain => "plain",
        Variant::Windowed => "windowed",
        Variant::NoChecksums => "no-checksums",
        Variant::NoTrace => "trace-off",
        Variant::Heap => "heap-queue",
    }
}

fn rounds_of(all: &[(Variant, Round)], v: Variant) -> Vec<&Round> {
    all.iter()
        .filter(|(x, _)| *x == v)
        .map(|(_, r)| r)
        .collect()
}

fn times(all: &[(Variant, Round)], v: Variant) -> Vec<f64> {
    rounds_of(all, v).iter().map(|r| r.run.wall_s).collect()
}

/// The layers' public counters, normalised per delivered MiB.
fn counter_metrics(r: &Round) -> Vec<Metric> {
    let c = &r.counts;
    let mib = (r.bytes_ok() as f64 / MIB).max(f64::MIN_POSITIVE);
    let transfers = r.xfers.len().max(1) as f64;
    let reg = |name: &str| c.registry.get(name).copied().unwrap_or(0) as f64;
    let (f, v) = (&c.link_fwd, &c.link_rev);
    let sdr = |f: fn(&SdrStats) -> u64| c.sdr.iter().map(f).sum::<u64>() as f64;
    let (core_dup, core_gen, core_corrupt, core_cts) = if c.sdr.is_empty() {
        // The flow manager's QPs are private: fall back to the NIC's view
        // of redundant data arrivals for the duplicate share.
        let arrivals = c.node_rx.writes_landed + c.node_rx.null_writes + c.node_rx.crc_skipped;
        (
            arrivals.saturating_sub(c.unique_pkts) as f64 / arrivals.max(1) as f64,
            NOT_OBSERVABLE,
            NOT_OBSERVABLE,
            NOT_OBSERVABLE,
        )
    } else {
        (
            sdr(|s| s.duplicate_packets) / sdr(|s| s.packets_received).max(1.0),
            sdr(|s| s.generation_filtered),
            sdr(|s| s.payload_corrupt),
            sdr(|s| s.cts_sent) / sdr(|s| s.recvs_posted).max(1.0),
        )
    };
    let (segments, ec_segments) = c.adapt.iter().fold((0usize, 0usize), |(s, e), rep| {
        (
            s + rep.history.len(),
            e + rep.history.iter().filter(|h| h.2.is_ec()).count(),
        )
    });
    vec![
        m(
            "sdr-sim engine",
            "engine.events_per_mib",
            r.events as f64 / mib,
            "1/MiB",
        ),
        m(
            "sdr-sim link",
            "link.fwd_pkts_per_mib",
            f.sent as f64 / mib,
            "1/MiB",
        ),
        m(
            "sdr-sim link",
            "link.rev_pkts_per_mib",
            v.sent as f64 / mib,
            "1/MiB",
        ),
        m(
            "sdr-sim link",
            "link.drop_frac",
            (f.dropped + v.dropped) as f64 / (f.sent + v.sent).max(1) as f64,
            "ratio",
        ),
        m(
            "sdr-sim link",
            "link.wire_bytes_per_byte",
            (f.bytes + v.bytes) as f64 / r.bytes_ok().max(1) as f64,
            "ratio",
        ),
        m(
            "sdr-sim nic",
            "nic.cqes_per_mib",
            (c.node_tx.cqes + c.node_rx.cqes) as f64 / mib,
            "1/MiB",
        ),
        m(
            "sdr-sim nic",
            "nic.crc_skipped",
            (c.node_tx.crc_skipped + c.node_rx.crc_skipped) as f64,
            "count",
        ),
        m(
            "sdr-sim nic",
            "nic.null_writes",
            (c.node_tx.null_writes + c.node_rx.null_writes) as f64,
            "count",
        ),
        m("sdr-core", "core.dup_frac", core_dup, "ratio"),
        m("sdr-core", "core.gen_filtered", core_gen, "count"),
        m("sdr-core", "core.payload_corrupt", core_corrupt, "count"),
        m("sdr-core", "core.cts_per_msg", core_cts, "count"),
        m(
            "sdr-reliability",
            "rel.retransmits_per_mib",
            c.retransmits as f64 / mib,
            "1/MiB",
        ),
        m("sdr-reliability", "ctrl.stale", reg("ctrl.stale"), "count"),
        m(
            "sdr-reliability",
            "ctrl.duplicates",
            reg("ctrl.duplicates"),
            "count",
        ),
        m(
            "sdr-reliability",
            "ctrl.malformed",
            reg("ctrl.malformed"),
            "count",
        ),
        m(
            "sdr-reliability",
            "ctrl.corrupt",
            reg("ctrl.corrupt"),
            "count",
        ),
        m(
            "sdr-reliability",
            "adapt.proposals",
            c.adapt.iter().map(|a| a.proposals).sum::<u64>() as f64 / transfers,
            "count",
        ),
        m(
            "sdr-reliability",
            "adapt.switches",
            c.adapt.iter().map(|a| a.switches).sum::<u64>() as f64 / transfers,
            "count",
        ),
        m(
            "sdr-reliability",
            "adapt.ec_segment_frac",
            ec_segments as f64 / segments.max(1) as f64,
            "ratio",
        ),
        m(
            "sdr-reliability",
            "flow.parked_opens",
            c.flow_rx.map_or(0.0, |s| s.parked_opens as f64),
            "count",
        ),
        m(
            "sdr-reliability",
            "flow.open_retries",
            c.flow_tx.map_or(0.0, |s| s.open_retries as f64),
            "count",
        ),
        m(
            "sdr-reliability",
            "flow.injected_per_mib",
            c.flow_tx.map_or(0.0, |s| s.injected as f64) / mib,
            "1/MiB",
        ),
        m(
            "sdr-reliability",
            "flow.urgent",
            reg("flow.urgent"),
            "count",
        ),
        m(
            "sdr-reliability",
            "flow.completion_p99_us",
            c.flow_completion_p99_us as f64,
            "us",
        ),
    ]
}

/// Median wall seconds of `reps` calls of `f`.
fn time_call(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..reps).map(|_| wall(&mut f).1).collect::<Vec<_>>())
}

/// RS encode/decode and advisor cost per transfer, estimated from
/// isolated calls times the call counts the adaptive reports imply:
/// one encode per EC submessage, one decode per EC submessage (an upper
/// bound: at 1e-2 loss about nine in ten submessages lose a data chunk),
/// and one advisor call per controller tick (`decide_interval`) from the
/// transfer's start until its last segment started (an upper bound: a
/// cold estimator skips the call). The other workloads
/// run no EC segments and no controller, so their estimates are 0.
fn estimates(r: &Round) -> Vec<Metric> {
    let c = &r.counts;
    let (mut enc_ms, mut dec_ms, mut adv_ms) = (0.0, 0.0, 0.0);
    if !c.adapt.is_empty() {
        let chunk = c.chunk as usize;
        let seg_chunks = (ADAPT_SEG / c.chunk) as usize;
        let mut splits: Vec<(usize, usize)> = Vec::new();
        for rep in &c.adapt {
            for h in &rep.history {
                if let sdr_reliability::SchemeSpec::EcMds { k, m } = h.2 {
                    for s in 0..seg_chunks.div_ceil(k as usize) {
                        let k_eff = (seg_chunks - s * k as usize).min(k as usize);
                        splits.push((k_eff, m as usize));
                    }
                }
            }
        }
        let mut distinct = splits.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for (k, mm) in distinct {
            let code = ReedSolomon::new(k, mm);
            let data: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8 ^ 0x5A; chunk]).collect();
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let mut parity = vec![vec![0u8; chunk]; mm];
            let enc = time_call(5, || {
                let mut views: Vec<&mut [u8]> =
                    parity.iter_mut().map(|p| p.as_mut_slice()).collect();
                code.encode_into(&refs, &mut views);
            });
            let lost = mm.min(2).min(k);
            let dec = median(
                &(0..5)
                    .map(|_| {
                        let mut shards: Vec<Option<Vec<u8>>> = data
                            .iter()
                            .chain(&parity)
                            .enumerate()
                            .map(|(i, d)| (i >= lost).then(|| d.clone()))
                            .collect();
                        wall(|| {
                            code.reconstruct(&mut shards)
                                .expect("within the parity budget")
                        })
                        .1
                    })
                    .collect::<Vec<_>>(),
            );
            let n = splits.iter().filter(|&&s| s == (k, mm)).count() as f64;
            enc_ms += n * enc * 1e3;
            dec_ms += n * dec * 1e3;
        }
        // One advisor call per controller tick while segments remain
        // unstarted, priced at that tick's channel (before or after the
        // step) and remaining bytes.
        let acfg = adapt_cfg(c.rtt);
        let tick = acfg.decide_interval.as_secs_f64();
        let mut cost: BTreeMap<(bool, u64), f64> = BTreeMap::new();
        for (rep, due) in c.adapt.iter().zip(r.xfers.iter().map(|x| x.due)) {
            let starts: Vec<f64> = rep
                .history
                .iter()
                .map(|h| h.0.saturating_sub(due).as_secs_f64())
                .collect();
            let last = starts.last().copied().unwrap_or(0.0);
            for k in 1..=(last / tick).floor() as u64 {
                let t = k as f64 * tick;
                let remaining = starts.iter().filter(|&&s| s > t).count() as u64 * ADAPT_SEG;
                let after = t >= ADAPT_STEP_AT_S;
                adv_ms += 1e3
                    * *cost.entry((after, remaining)).or_insert_with(|| {
                        let p = if after { ADAPT_P_AFTER } else { ADAPT_P_BEFORE };
                        let ch = Channel::new(ADAPT_BW, c.rtt.as_secs_f64(), p)
                            .with_mtu_bytes(c.mtu)
                            .with_chunk_bytes(c.chunk);
                        time_call(1, || {
                            std::hint::black_box(recommend(&ch, remaining, acfg.trials, acfg.seed));
                        })
                    });
            }
        }
        let n = c.adapt.len() as f64;
        enc_ms /= n;
        dec_ms /= n;
        adv_ms /= n;
    }
    vec![
        m("sdr-erasure", "erasure.encode_ms_est", enc_ms, "ms"),
        m("sdr-erasure", "erasure.decode_ms_est", dec_ms, "ms"),
        m("sdr-model", "model.advisor_ms_est", adv_ms, "ms"),
    ]
}

const LADDER_MSGS: usize = 3;
const LADDER_REPS: usize = 3;

const LADDER_METRICS: [&str; 4] = [
    "ladder.sim_ns_per_pkt",
    "ladder.core_ns_per_pkt",
    "ladder.rel_ns_per_pkt",
    "ladder.repair_ns_per_pkt",
];

/// Host ns per packet at four stack depths over `bulk_sr`'s link (median
/// of interleaved repetitions), and the differences between adjacent
/// depths.
fn ladder(seed: u64, problems: &mut Vec<String>, notes: &mut Vec<String>) -> Vec<Metric> {
    let pkts = (LADDER_MSGS as u64 * BULK_MSG / bulk_qp_cfg(true).mtu_bytes) as f64;
    let cfg = RoundCfg::new(seed);
    let mut levels: [Vec<f64>; 4] = Default::default();
    let mut lossless_retransmits = 0;
    for _ in 0..LADDER_REPS {
        levels[0].push(ladder_fabric(&cfg, problems));
        levels[1].push(ladder_core(&cfg, problems));
        for (level, p) in [(2, 0.0), (3, BULK_P)] {
            let r = bulk_round(&cfg, p, LADDER_MSGS);
            problems.extend(r.problems.iter().cloned());
            if r.xfers.iter().any(|x| !x.ok) {
                problems.push(format!("ladder SR level at p={p} lost bytes"));
            }
            if level == 2 {
                lossless_retransmits = r.counts.retransmits;
            }
            levels[level].push(r.run.wall_s);
        }
    }
    // On a lossless link every retransmit is spurious: the RTO (3 RTT)
    // expires on a 64 MiB message's tail before its ACKs can return.
    notes.push(format!(
        "lossless SR level retransmitted {:.1} chunks per 64 MiB message",
        lossless_retransmits as f64 / LADDER_MSGS as f64
    ));
    let ns = levels.map(|l| median(&l) / pkts * 1e9);
    let diffs = [ns[0], ns[1] - ns[0], ns[2] - ns[1], ns[3] - ns[2]];
    LADDER_METRICS
        .iter()
        .zip(diffs)
        .map(|(name, v)| m("ladder", name, v, "ns"))
        .collect()
}

/// Level 1, `sdr-sim` alone: per-packet UC Writes straight onto the
/// fabric, lossless. Returns the run phase's host seconds.
fn ladder_fabric(cfg: &RoundCfg, problems: &mut Vec<String>) -> f64 {
    let mut round = Round::default();
    let BulkDeployment {
        mut eng,
        fabric,
        a,
        b,
        src,
        dst,
        ..
    } = bulk_deploy(cfg, 0.0, &mut round);
    let (qa, qb) = (
        fabric.node_mut(a, |n| {
            let cq = n.create_cq();
            n.create_qp(QpType::Uc, cq, cq)
        }),
        fabric.node_mut(b, |n| {
            let cq = n.create_cq();
            n.create_qp(QpType::Uc, cq, cq)
        }),
    );
    fabric.node_mut(a, |n| n.connect_qp(qa, QpAddr { node: b, qp: qb }));
    fabric.node_mut(b, |n| n.connect_qp(qb, QpAddr { node: a, qp: qa }));
    let mkey = fabric.node_mut(b, |n| n.reg_mr(dst, BULK_MSG));
    let payload =
        src.map(|s| Bytes::from(fabric.node(a, |n| n.mem().read(s, BULK_MSG as usize).to_vec())));
    let (_, secs) = wall(|| {
        for i in 0..LADDER_MSGS {
            let wr = WriteWr {
                remote_mkey: mkey,
                remote_offset: 0,
                data: payload[i % 2].clone(),
                imm: Some(i as u32),
                crc: None,
                wr_id: i as u64,
                signaled: false,
            };
            fabric
                .post_uc_write_per_packet(&mut eng, QpAddr { node: a, qp: qa }, wr)
                .expect("connected UC QP");
        }
        eng.run();
    });
    let last = fabric.node(b, |n| n.mem().read(dst, BULK_MSG as usize).to_vec());
    if last[..] != payload[(LADDER_MSGS - 1) % 2][..] {
        problems.push("ladder fabric level: receive buffer does not hold the last write".into());
    }
    release_memory(&fabric, a, b);
    secs
}

/// Level 2, adding `sdr-core`: lossless `send_post` / `recv_post`
/// messages. Returns the run phase's host seconds.
fn ladder_core(cfg: &RoundCfg, problems: &mut Vec<String>) -> f64 {
    let mut round = Round::default();
    let BulkDeployment {
        mut eng,
        fabric,
        a,
        b,
        src,
        dst,
        ..
    } = bulk_deploy(cfg, 0.0, &mut round);
    let ctx_a = SdrContext::new(&fabric, a);
    let ctx_b = SdrContext::new(&fabric, b);
    let qp_a = ctx_a.qp_create(bulk_qp_cfg(true)).expect("valid config");
    let qp_b = ctx_b.qp_create(bulk_qp_cfg(true)).expect("valid config");
    qp_a.connect(qp_b.info()).expect("shape matches");
    qp_b.connect(qp_a.info()).expect("shape matches");
    let (complete, secs) = wall(|| {
        let mut complete = 0;
        for i in 0..LADDER_MSGS {
            let h = qp_b
                .recv_post(&mut eng, dst, BULK_MSG)
                .expect("free receive slot");
            let s = qp_a
                .send_post(&mut eng, src[i % 2], BULK_MSG, None)
                .expect("valid send");
            eng.run();
            if qp_b.recv_is_complete(&h) == Ok(true) {
                complete += 1;
            }
            qp_b.recv_complete(&mut eng, &h).expect("posted receive");
            qp_a.send_release(s);
        }
        complete
    });
    if complete != LADDER_MSGS {
        problems.push(format!(
            "ladder core level: {complete} of {LADDER_MSGS} lossless messages completed"
        ));
    }
    release_memory(&fabric, a, b);
    secs
}
