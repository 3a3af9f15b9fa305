//! End-to-end data-integrity scenarios: the checksummed planes under a
//! corrupting wire and under post-DMA memory damage.
//!
//! * the **acceptance transfer** — 40 MiB adaptive over a 1e-5 bit-flip
//!   link delivers byte-identical, digest-verified, with every corrupt
//!   packet stopped before the DMA and repaired as a loss;
//! * a **digest mismatch** — the sender's source buffer mutates after its
//!   bytes went out, so bitmaps complete but the whole-message digest
//!   disagrees: the receiver refuses delivery with `AbortReason::Corrupt`;
//! * **EC stale shards** — post-DMA corruption of landed chunks is caught
//!   by the arrival-CRC audit before decode, then repaired either by
//!   decoding around the stale shard or (when too many shards are dirty
//!   for the code) by the fallback NACK whose clean re-arrivals heal the
//!   memory in place;
//! * **flow-engine EC stale shards** — the same audit on a
//!   [`FlowManager`] EC flow: decoded around, or re-NACKed chunk by chunk.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{capture, took, ProtoHarness};
use sdr_core::testkit::pattern;
use sdr_core::{SdrConfig, SdrContext};
use sdr_reliability::{
    AbortReason, AdaptConfig, AdaptRecvReport, AdaptReport, AdaptiveController, ControlEndpoint,
    EcCodeChoice, EcProtoConfig, EcReceiver, EcSender, FlowCfg, FlowManager, FlowReport, FlowStats,
    RxFlowDone, SchemeSpec, TelemetryConfig, TransferOutcome,
};
use sdr_sim::{Engine, Fabric, LinkConfig, SimTime};

const BW: f64 = 8e9;
const KM: f64 = 1000.0;

fn cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: 4 << 20,
        msg_slots: 64,
        mtu_bytes: 4096,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

/// The PR's acceptance bar: a 40 MiB adaptive transfer over a WAN link
/// flipping bits at 1e-5 per bit (~28% of data packets corrupted) must
/// deliver byte-identical. Corrupt payloads are stopped before the DMA
/// (`crc_skipped`), observed by the verbs layer as losses
/// (`payload_corrupt`), repaired by the ordinary NACK/RTO machinery, and
/// the delivery verdict is digest-verified end to end.
#[test]
fn adaptive_40mib_delivers_byte_identical_over_corrupting_wire() {
    let msg: u64 = 40 << 20;
    let link = LinkConfig::wan(KM, BW, 0.0)
        .with_corruption(1e-5)
        .with_seed(41);
    let mut h = ProtoHarness::new(link, cfg(), msg, 0xC0DE);
    let rtt = h.rtt;
    let mut acfg = AdaptConfig::new(BW, rtt, 2 << 20);
    acfg.telemetry = TelemetryConfig {
        loss_alpha: 1.0 / 1024.0,
        min_packets: 768,
        ..TelemetryConfig::default()
    };
    let (tx_cell, tx_cb) = capture::<AdaptReport>();
    let _tx = AdaptiveController::start_sender(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        SchemeSpec::SrNack,
        acfg.clone(),
        tx_cb,
    );
    let rx_cell: Rc<RefCell<Option<AdaptRecvReport>>> = Rc::new(RefCell::new(None));
    let rc = rx_cell.clone();
    let _rx = AdaptiveController::start_receiver(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        SchemeSpec::SrNack,
        acfg,
        move |_eng, _t, rep| *rc.borrow_mut() = Some(rep),
    );
    h.run(400_000_000);

    let tx_rep = took(&tx_cell, "adaptive sender");
    let rx_rep = rx_cell.borrow_mut().take().expect("receiver reported");
    assert_eq!(tx_rep.outcome, TransferOutcome::Delivered);
    assert_eq!(
        rx_rep.outcome,
        TransferOutcome::Delivered,
        "the digest verdict must accept an honestly repaired transfer"
    );
    assert!(h.delivered_ok(), "delivery must be byte-identical");

    let wire = h.p.fabric.link_stats(h.p.node_a, h.p.node_b).unwrap();
    assert!(wire.corrupted > 0, "the link must actually have corrupted");
    let skipped = h.p.fabric.node(h.p.node_b, |n| n.stats().crc_skipped);
    assert!(skipped > 0, "corrupt payloads must be stopped pre-DMA");
    assert!(
        h.p.qp_b.stats().payload_corrupt > 0,
        "the verbs layer must have reclassified corrupt packets as losses"
    );
}

/// Whole-message digest mismatch: one source byte mutates *after* its
/// segment went out. Every bitmap completes — the wire was clean — but
/// the sender's lazily computed digest covers the mutated buffer, so the
/// receiver's verification round trip ends in `AbortReason::Corrupt`
/// instead of a silently wrong "Delivered".
#[test]
fn source_mutation_after_send_fails_the_delivery_digest() {
    let msg: u64 = 8 << 20;
    let link = LinkConfig::wan(KM, BW, 0.0).with_seed(43);
    let mut h = ProtoHarness::new(link, cfg(), msg, 0xD16E);
    let rtt = h.rtt;
    let acfg = AdaptConfig::new(BW, rtt, 2 << 20);
    let (tx_cell, tx_cb) = capture::<AdaptReport>();
    let _tx = AdaptiveController::start_sender(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        SchemeSpec::SrNack,
        acfg.clone(),
        tx_cb,
    );
    let rx_cell: Rc<RefCell<Option<AdaptRecvReport>>> = Rc::new(RefCell::new(None));
    let rc = rx_cell.clone();
    let _rx = AdaptiveController::start_receiver(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        SchemeSpec::SrNack,
        acfg,
        move |_eng, _t, rep| *rc.borrow_mut() = Some(rep),
    );
    // 8 MiB serializes in ~8.4 ms; at 4 ms the first segment's bytes are
    // long gone. Flip one bit of source byte 0.
    let ctx = h.p.ctx_a.clone();
    let (src, flipped) = (h.src, h.data[0] ^ 0x20);
    h.p.eng
        .schedule_at(SimTime::from_secs_f64(0.004), move |_eng| {
            ctx.write_buffer(src, &[flipped]);
        });
    h.run(120_000_000);

    let tx_rep = took(&tx_cell, "adaptive sender");
    let rx_rep = rx_cell.borrow_mut().take().expect("receiver reported");
    // The sender's Delivered rides the final scheme ACK, which precedes
    // the digest round trip — it legitimately reports success here; the
    // *receiver* is the end that must refuse.
    match tx_rep.outcome {
        TransferOutcome::Delivered => {}
        TransferOutcome::Aborted { reason: r, .. } => assert_eq!(r, AbortReason::Corrupt),
    }
    assert_eq!(
        rx_rep.outcome.abort_reason(),
        Some(AbortReason::Corrupt),
        "a digest mismatch must never be reported as Delivered"
    );
    // The landed bytes themselves match what was originally sent — the
    // digest protects against the *source* no longer vouching for them.
    assert!(h.delivered_ok());
}

/// Stands up a 1 MiB EC transfer over a clean fast link and returns the
/// harness plus the started receiver (for stats polling) and the sender
/// completion flag.
fn ec_deploy(k: usize, m: usize, seed: u64) -> (ProtoHarness, Rc<EcReceiver>, Rc<RefCell<bool>>) {
    let msg: u64 = 1 << 20;
    let cfg = SdrConfig {
        max_msg_bytes: 1 << 20,
        msg_slots: 64,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    };
    let link = LinkConfig::wan(50.0, BW, 0.0).with_seed(seed);
    let mut h = ProtoHarness::new(link, cfg, msg, seed ^ 0xEC);
    let model_ch = h.model_channel(BW, 0.0);
    let proto = EcProtoConfig::for_channel(k, m, EcCodeChoice::Mds, &model_ch, msg, h.rtt);
    let done = Rc::new(RefCell::new(false));
    let d = done.clone();
    let _tx = EcSender::start(
        &mut h.p.eng,
        &h.p.qp_a,
        &h.p.ctx_a,
        h.ctrl_a.clone(),
        h.ctrl_b.addr(),
        h.src,
        msg,
        proto,
        move |_e, _rep| *d.borrow_mut() = true,
    );
    let rx = Rc::new(EcReceiver::start(
        &mut h.p.eng,
        &h.p.qp_b,
        &h.p.ctx_b,
        h.ctrl_b.clone(),
        h.ctrl_a.addr(),
        h.dst,
        msg,
        proto,
        |_e, _t, _st| {},
    ));
    (h, rx, done)
}

/// One landed data chunk is corrupted in receiver memory (post-DMA — a
/// stray local write, not the wire). The arrival-CRC audit demotes the
/// stale shard to absent *before* decode reads it, and the code decodes
/// around it from parity — delivery stays byte-identical and the decode
/// never consumes poisoned bytes.
#[test]
fn ec_stale_shard_is_demoted_and_decoded_around() {
    let (mut h, rx, done) = ec_deploy(4, 2, 51);
    // Poke one byte of chunk 0 every 2 µs. Pokes before the chunk lands
    // are overwritten by the arriving write; the first poke *after* it
    // lands goes stale at the next audit, at which point we stop so the
    // decode's repair is not re-corrupted.
    let ctx = h.p.ctx_b.clone();
    let (addr, bad) = (h.dst + 7, h.data[7] ^ 0x80);
    let rxp = rx.clone();
    h.p.eng
        .schedule_recurring_at(SimTime::from_nanos(500), move |eng: &mut Engine| {
            if rxp.stats().stale_chunks > 0 || rxp.is_complete() {
                return None;
            }
            ctx.write_buffer(addr, &[bad]);
            Some(eng.now() + SimTime::from_nanos(2_000))
        });
    h.run(80_000_000);

    assert!(*done.borrow(), "sender completed");
    assert!(rx.is_complete() && rx.is_released());
    let st = rx.stats();
    assert!(st.stale_chunks > 0, "the audit must catch the stale shard");
    assert!(
        st.decoded_submessages >= 1,
        "the stale shard is decoded around, not trusted"
    );
    assert!(h.delivered_ok(), "decode repaired the poisoned chunk");
}

/// Too many stale shards for the code (three data chunks of a k=4, m=1
/// submessage kept dirty): decode is impossible, so the fallback timeout
/// NACKs the submessage and the sender's clean re-transmission heals both
/// the memory and the recorded arrival CRCs in place.
#[test]
fn ec_stale_shards_beyond_code_strength_are_renacked_and_healed() {
    let (mut h, rx, done) = ec_deploy(4, 1, 53);
    // Keep bytes of chunks 0, 1 and 2 dirty until the first fallback
    // NACK is on the wire, then stop so the re-sent chunks land clean.
    // With three shards dirty at every audit (a freshly landed chunk is
    // clean for at most one 2 µs poke gap), at most data chunk 3 + the
    // parity chunk + one in-gap chunk are present: under k=4 the decode
    // can never proceed, so the FTO path *must* repair.
    let ctx = h.p.ctx_b.clone();
    let chunk = 64 * 1024u64;
    let pokes: Vec<(u64, u8)> = (0..3)
        .map(|c| {
            let off = c * chunk + 7;
            (h.dst + off, h.data[off as usize] ^ 0x80)
        })
        .collect();
    let rxp = rx.clone();
    h.p.eng
        .schedule_recurring_at(SimTime::from_nanos(500), move |eng: &mut Engine| {
            if rxp.stats().fallback_nacks > 0 || rxp.is_complete() {
                return None;
            }
            for &(addr, bad) in &pokes {
                ctx.write_buffer(addr, &[bad]);
            }
            Some(eng.now() + SimTime::from_nanos(2_000))
        });
    h.run(80_000_000);

    assert!(*done.borrow(), "sender completed");
    assert!(rx.is_complete() && rx.is_released());
    let st = rx.stats();
    assert!(st.stale_chunks > 0, "the audit must catch the stale shards");
    assert!(
        st.fallback_nacks >= 1,
        "with decode impossible, the FTO NACK must fire"
    );
    assert!(h.delivered_ok(), "clean re-arrivals healed the memory");
}

/// Sends one `EcMds { k, m }` flow through a pair of flow managers over a
/// clean link — the flow-engine twin of [`ec_deploy`] — while keeping
/// byte 7 of each data chunk in `dirty` damaged in the receiver's buffer
/// (one poke every 2 µs) until the flow resolves or `stop(tx, rx)` holds
/// on the managers' stats. Checks byte-identical delivery and returns the
/// final `(tx, rx)` stats and the receive notice.
fn flow_ec_poked(
    (k, m): (u16, u16),
    seed: u64,
    dirty: &[u64],
    stop: fn(&FlowStats, &FlowStats) -> bool,
) -> (FlowStats, FlowStats, RxFlowDone) {
    let (chunk, len) = (64u64 << 10, k as u64 * (64 << 10));
    let mut eng = Engine::new();
    let fabric = Fabric::new();
    let (a, b) = (fabric.add_node(16 << 20), fabric.add_node(16 << 20));
    fabric.link_duplex(a, b, LinkConfig::wan(50.0, BW, 0.0).with_seed(seed));
    let (ctx_a, ctx_b) = (SdrContext::new(&fabric, a), SdrContext::new(&fabric, b));
    let qp = SdrConfig::default();
    assert!(qp.payload_checksums, "the audit needs arrival CRCs");
    let cfg = FlowCfg::new(qp, BW, fabric.rtt(a, b).unwrap());
    let mgr = |n| {
        let ctrl = Rc::new(ControlEndpoint::new(&fabric, n));
        Rc::new(FlowManager::new(&fabric, n, ctrl, cfg.clone()))
    };
    let (tx, rx) = (mgr(a), mgr(b));
    FlowManager::connect(&tx, &rx);
    let dst = ctx_b.alloc_buffer(len);
    rx.set_rx_allocator(move |_| dst);
    let arrived = Rc::new(RefCell::new(None));
    let arr = arrived.clone();
    rx.on_rx_done(move |_, d| *arr.borrow_mut() = Some(d));
    let data = pattern(len as usize, seed);
    let src = ctx_a.alloc_buffer(len);
    ctx_a.write_buffer(src, &data);
    let (report, rep) = capture::<FlowReport>();
    let spec = SchemeSpec::EcMds { k, m };
    tx.open_flow_with_spec(&mut eng, b, src, len, spec, rep);
    let pokes: Vec<(u64, u8)> = (dirty.iter().map(|c| c * chunk + 7))
        .map(|off| (dst + off, data[off as usize] ^ 0x80))
        .collect();
    let (t, r, arr, ctx) = (tx.clone(), rx.clone(), arrived.clone(), ctx_b.clone());
    eng.schedule_recurring_at(SimTime::from_nanos(500), move |eng: &mut Engine| {
        if stop(&t.stats(), &r.stats()) || arr.borrow().is_some() {
            return None;
        }
        for &(addr, bad) in &pokes {
            ctx.write_buffer(addr, &[bad]);
        }
        Some(eng.now() + SimTime::from_nanos(2_000))
    });
    eng.set_event_limit(20_000_000);
    eng.run();
    assert!(took(&report, "flow sender").delivered, "sender completed");
    let done = arrived.borrow_mut().take().expect("receiver resolved");
    assert!(
        ctx_b.read_buffer(dst, len as usize) == data,
        "delivered bytes differ"
    );
    (tx.stats(), rx.stats(), done)
}

/// The flow engine's EC receive path runs the same arrival-CRC audit as
/// [`EcReceiver`]: a landed data chunk damaged in receiver memory is
/// demoted to absent and decoded around from parity, never delivered.
#[test]
fn flow_ec_stale_shard_is_demoted_and_decoded_around() {
    let (_, rx, done) = flow_ec_poked((4, 2), 61, &[0], |_, rx| rx.stale_chunks > 0);
    assert!(rx.stale_chunks > 0, "the audit must catch the stale shard");
    assert!(
        done.decoded,
        "the stale shard is decoded around, not trusted"
    );
}

/// More stale data chunks than the flow's parity covers: decode is
/// impossible, so the fallback NACK lists the stale chunks (their bitmap
/// bits are set — only the audit knows they are bad) and the clean
/// resends heal the memory in place.
#[test]
fn flow_ec_stale_shards_beyond_code_strength_are_renacked_and_healed() {
    let (tx, rx, _) = flow_ec_poked((4, 1), 63, &[0, 1, 2], |tx, _| tx.retransmits > 0);
    assert!(rx.stale_chunks > 0, "the audit must fire");
    assert!(tx.retransmits > 0, "the NACK must repair the stale chunks");
}
