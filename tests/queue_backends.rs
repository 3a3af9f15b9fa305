//! The binary-heap event queue is kept as a reference for the timing
//! wheel ([`Engine::with_queue`]); whole SDR stacks must not be able to
//! tell them apart. Each scenario runs once per backend from the same
//! seeds and compares everything it can observe: sender and receiver
//! reports, QP, link and node counters, the final instant, the number of
//! executed events and the delivered bytes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use sdr_rdma::core::testkit::{pattern, sdr_pair, SdrPair};
use sdr_rdma::core::{SdrConfig, SdrContext};
use sdr_rdma::reliability::{
    AdaptConfig, AdaptiveController, ControlEndpoint, FlowCfg, FlowManager, SchemeSpec,
    SrProtoConfig, SrReceiver, SrSender, TelemetryConfig,
};
use sdr_rdma::sim::{Engine, Fabric, LinkConfig, LossModel, NodeId, QueueKind, SimTime};

/// Everything one run observed, in `Debug` form.
#[derive(Debug, PartialEq)]
struct Observed {
    reports: Vec<String>,
    counters: Vec<String>,
    end: SimTime,
    events: u64,
    delivered: Vec<Vec<u8>>,
}

fn assert_backends_agree(run: impl Fn(QueueKind) -> Observed) {
    let wheel = run(QueueKind::Wheel);
    let heap = run(QueueKind::Heap);
    assert!(
        wheel.delivered.iter().all(|d| !d.is_empty()),
        "every transfer delivered something"
    );
    assert_eq!(wheel, heap, "the heap backend diverged from the wheel");
}

/// Swaps the pair's (still empty) engine for one on `kind`.
fn on_backend(p: &mut SdrPair, kind: QueueKind) {
    assert_eq!(p.eng.pending_events(), 0, "setup scheduled nothing");
    p.eng = Engine::with_queue(kind);
}

fn fabric_counters(fabric: &Fabric, a: NodeId, b: NodeId) -> Vec<String> {
    vec![
        format!("{:?}", fabric.link_stats(a, b)),
        format!("{:?}", fabric.link_stats(b, a)),
        format!("{:?}", fabric.node(a, |n| n.stats())),
        format!("{:?}", fabric.node(b, |n| n.stats())),
    ]
}

fn pair_cfg() -> SdrConfig {
    SdrConfig {
        max_msg_bytes: 2 << 20,
        msg_slots: 64,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    }
}

/// One SR-NACK transfer staged in a fresh pair; returns the pair and the
/// source pattern.
fn staged_pair(link: LinkConfig, msg: u64, seed: u64, kind: QueueKind) -> (SdrPair, u64, u64) {
    let mut p = sdr_pair(link, pair_cfg(), 64 << 20);
    on_backend(&mut p, kind);
    let src = p.ctx_a.alloc_buffer(msg);
    let dst = p.ctx_b.alloc_buffer(msg);
    p.ctx_a.write_buffer(src, &pattern(msg as usize, seed));
    (p, src, dst)
}

#[test]
fn sr_nack_transfer_is_identical_on_both_backends() {
    assert_backends_agree(|kind| {
        let msg = 2u64 << 20;
        let link = LinkConfig::wan(100.0, 8e9, 1e-3).with_seed(11);
        let (mut p, src, dst) = staged_pair(link, msg, 1, kind);
        let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
        let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
        let proto = SrProtoConfig::nack(rtt);
        let reports = Rc::new(RefCell::new(Vec::new()));
        let r = reports.clone();
        SrSender::start(
            &mut p.eng,
            &p.qp_a,
            ctrl_a.clone(),
            ctrl_b.addr(),
            src,
            msg,
            proto,
            move |_e, rep| r.borrow_mut().push(format!("{rep:?}")),
        );
        let r = reports.clone();
        SrReceiver::start(
            &mut p.eng,
            &p.qp_b,
            ctrl_b.clone(),
            ctrl_a.addr(),
            dst,
            msg,
            proto,
            move |_e, t| r.borrow_mut().push(format!("rx done at {t:?}")),
        );
        p.eng.set_event_limit(20_000_000);
        p.eng.run();
        let mut counters = fabric_counters(&p.fabric, p.node_a, p.node_b);
        counters.push(format!("{:?}", p.qp_a.stats()));
        counters.push(format!("{:?}", p.qp_b.stats()));
        let reports = reports.borrow().clone();
        assert_eq!(reports.len(), 2, "both ends completed");
        Observed {
            reports,
            counters,
            end: p.eng.now(),
            events: p.eng.executed_events(),
            delivered: vec![p.ctx_b.read_buffer(dst, msg as usize)],
        }
    });
}

#[test]
fn adaptive_transfer_is_identical_on_both_backends() {
    assert_backends_agree(|kind| {
        let msg = 4u64 << 20;
        let link = LinkConfig::wan(1000.0, 8e9, 1e-6).with_seed(5);
        let (mut p, src, dst) = staged_pair(link, msg, 2, kind);
        let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
        // A loss step mid-transfer, so the advisor has a reason to hand
        // over to another scheme.
        let (fab, a, b) = (p.fabric.clone(), p.node_a, p.node_b);
        p.eng
            .schedule_at(SimTime::from_secs_f64(4e-3), move |_eng| {
                fab.set_loss_duplex(a, b, LossModel::Iid { p: 1e-2 });
            });
        let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
        let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
        let mut acfg = AdaptConfig::new(8e9, rtt, 512 << 10);
        acfg.telemetry = TelemetryConfig {
            loss_alpha: 1.0 / 256.0,
            min_packets: 256,
            ..TelemetryConfig::default()
        };
        let reports = Rc::new(RefCell::new(Vec::new()));
        let r = reports.clone();
        let _tx = AdaptiveController::start_sender(
            &mut p.eng,
            &p.qp_a,
            &p.ctx_a,
            ctrl_a.clone(),
            ctrl_b.addr(),
            src,
            msg,
            SchemeSpec::SrNack,
            acfg.clone(),
            move |_e, rep| r.borrow_mut().push(format!("{rep:?}")),
        );
        let r = reports.clone();
        let _rx = AdaptiveController::start_receiver(
            &mut p.eng,
            &p.qp_b,
            &p.ctx_b,
            ctrl_b.clone(),
            ctrl_a.addr(),
            dst,
            msg,
            SchemeSpec::SrNack,
            acfg,
            move |_e, t, rep| r.borrow_mut().push(format!("{t:?} {rep:?}")),
        );
        p.eng.set_event_limit(50_000_000);
        p.eng.run();
        let mut counters = fabric_counters(&p.fabric, p.node_a, p.node_b);
        counters.push(format!("{:?}", p.qp_a.stats()));
        counters.push(format!("{:?}", p.qp_b.stats()));
        counters.push(format!("{:?}", ctrl_a.filter_stats()));
        counters.push(format!("{:?}", ctrl_b.filter_stats()));
        let reports = reports.borrow().clone();
        assert_eq!(reports.len(), 2, "both ends completed");
        Observed {
            reports,
            counters,
            end: p.eng.now(),
            events: p.eng.executed_events(),
            delivered: vec![p.ctx_b.read_buffer(dst, msg as usize)],
        }
    });
}

#[test]
fn flow_population_is_identical_on_both_backends() {
    assert_backends_agree(|kind| {
        let mut eng = Engine::with_queue(kind);
        let fabric = Fabric::new();
        let node_a = fabric.add_node(64 << 20);
        let node_b = fabric.add_node(64 << 20);
        fabric.link_duplex(
            node_a,
            node_b,
            LinkConfig::wan(10.0, 10e9, 1e-3).with_seed(3),
        );
        let rtt = fabric.rtt(node_a, node_b).unwrap();
        let ctx_a = SdrContext::new(&fabric, node_a);
        let ctx_b = SdrContext::new(&fabric, node_b);
        let cfg = FlowCfg::new(SdrConfig::default(), 10e9, rtt);
        let mgr_a = FlowManager::new(
            &fabric,
            node_a,
            Rc::new(ControlEndpoint::new(&fabric, node_a)),
            cfg.clone(),
        );
        let mgr_b = FlowManager::new(
            &fabric,
            node_b,
            Rc::new(ControlEndpoint::new(&fabric, node_b)),
            cfg,
        );
        FlowManager::connect(&mgr_a, &mgr_b);
        let arrived = Rc::new(RefCell::new(BTreeMap::new()));
        let arr = arrived.clone();
        mgr_b.on_rx_done(move |_e, d| {
            arr.borrow_mut().insert(d.id, d);
        });
        let reports = Rc::new(RefCell::new(BTreeMap::new()));
        // Mice, elephants and two erasure-coded flows (EC flows carry
        // whole chunks: 4 × 64 KiB).
        let sizes = [32u64 << 10, 256 << 10, 1 << 20, 4096, 256 << 10, 100_000];
        for i in 0..12u64 {
            let len = sizes[i as usize % sizes.len()];
            let src = ctx_a.alloc_buffer(len);
            ctx_a.write_buffer(src, &pattern(len as usize, i));
            let r = reports.clone();
            let done = move |_e: &mut Engine, rep: sdr_rdma::reliability::FlowReport| {
                r.borrow_mut().insert(rep.id, format!("{rep:?}"));
            };
            if i % 6 == 1 {
                let spec = SchemeSpec::EcMds { k: 4, m: 2 };
                mgr_a.open_flow_with_spec(&mut eng, node_b, src, len, spec, done);
            } else {
                mgr_a.open_flow(&mut eng, node_b, src, len, done);
            }
        }
        eng.set_event_limit(20_000_000);
        eng.run();
        let arrived = arrived.borrow();
        assert_eq!(arrived.len(), 12, "every flow arrived");
        let mut reports: Vec<String> = reports.borrow().values().cloned().collect();
        reports.extend(arrived.values().map(|d| format!("{d:?}")));
        let mut counters = fabric_counters(&fabric, node_a, node_b);
        counters.push(format!("{:?}", mgr_a.stats()));
        counters.push(format!("{:?}", mgr_b.stats()));
        Observed {
            reports,
            counters,
            end: eng.now(),
            events: eng.executed_events(),
            delivered: arrived
                .values()
                .map(|d| ctx_b.read_buffer(d.addr, d.bytes as usize))
                .collect(),
        }
    });
}
