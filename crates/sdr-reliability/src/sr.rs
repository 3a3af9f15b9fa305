//! Selective Repeat reliability over SDR (§4.1.1) — a policy over the
//! [`runtime`](crate::runtime) building blocks.
//!
//! Sender: streaming SDR sends inject message chunks; each unacknowledged
//! chunk carries a retransmission timeout (`RTO = RTT + α·RTT`) in a
//! [`ChunkTimers`] table; expiry retransmits the chunk via the
//! [`StreamTx`] slot. ACKs remove acknowledged ranges from the
//! retransmission scan; in NACK mode reported holes retransmit immediately
//! through the timers' claim guard (1-RTT repair instead of an RTO, §5.2.1).
//!
//! Receiver: an [`RxScheme`] that, per poll, encodes the SDR chunk bitmap
//! into a cumulative + selective ACK (plus holes in NACK mode). Poll
//! cadence, CTS healing, completion, linger-ACK repeats and buffer release
//! all come from the shared [`RxDriver`].

use std::cell::RefCell;
use std::rc::Rc;

use sdr_core::SdrQp;
use sdr_sim::{Engine, FlightRecorder, QpAddr, SimTime, TimerHandle};

use crate::ack::{build_sr_ack, CtrlMsg};
use crate::control::CtrlPath;
use crate::runtime::{
    begin_on_cts, tick_loop, wire_ctrl, AbortReason, ChunkTimers, Completion, RxCommon, RxDriver,
    RxScheme, StreamTx, Tick, TransferOutcome,
};
use crate::telemetry::ChannelEstimator;

/// Selective Repeat protocol tuning.
#[derive(Clone, Copy, Debug)]
pub struct SrProtoConfig {
    /// Chunk retransmission timeout.
    pub rto: SimTime,
    /// Receiver bitmap-poll / ACK cadence.
    pub ack_interval: SimTime,
    /// Sender retransmission-scan cadence.
    pub tick: SimTime,
    /// Enable the NACK optimization (receiver reports holes; sender
    /// retransmits without waiting for the RTO).
    pub nack: bool,
    /// How many extra final ACKs the receiver repeats before releasing the
    /// buffer (tolerates ACK loss on the control path).
    pub linger_acks: u32,
}

impl SrProtoConfig {
    /// The paper's `SR RTO` scenario: `RTO = 3 RTT`.
    pub fn rto_3rtt(rtt: SimTime) -> Self {
        SrProtoConfig {
            rto: rtt * 3,
            ack_interval: rtt / 4,
            tick: rtt / 4,
            nack: false,
            linger_acks: 25,
        }
    }

    /// The paper's `SR NACK` scenario: hole reports enable 1-RTT repair.
    pub fn nack(rtt: SimTime) -> Self {
        SrProtoConfig {
            rto: rtt * 3, // RTO stays as a safety net; NACKs do the work
            ack_interval: rtt / 4,
            tick: rtt / 4,
            nack: true,
            linger_acks: 25,
        }
    }
}

/// Sender-side transfer outcome.
#[derive(Clone, Debug)]
pub struct SrReport {
    /// Write completion time: first injection to final-ACK reception
    /// (§4.2.1's `T_protocol`).
    pub duration: SimTime,
    /// Chunks retransmitted.
    pub retransmitted: u64,
    /// ACK datagrams processed.
    pub acks: u64,
    /// How the transfer ended ([`TransferOutcome::Aborted`] after
    /// [`SrSender::abort`]; `duration` then covers start → abort).
    pub outcome: TransferOutcome,
}

struct SenderInner {
    stream: StreamTx,
    timers: ChunkTimers,
    cfg: SrProtoConfig,
    retransmitted: u64,
    acks: u64,
    completion: Completion<SrReport>,
    /// The retransmission-scan loop, once armed: it sleeps to the earliest
    /// chunk RTO ([`Tick::Until`]) and is cancelled the moment the final
    /// ACK lands, so no stale scan event outlives the transfer.
    tick: Option<TimerHandle>,
    /// When bound, newly acked never-retransmitted chunks feed ACK
    /// round-trip RTT samples into the estimator (Karn's rule applied by
    /// [`ChunkTimers::rtt_sample`]).
    telemetry: Option<Rc<RefCell<ChannelEstimator>>>,
}

/// The SR sender protocol object.
pub struct SrSender {
    inner: Rc<RefCell<SenderInner>>,
}

impl SrSender {
    /// Starts an SR-protected transfer of `[local_addr, local_addr +
    /// msg_bytes)` to the connected peer. `done` fires at completion with
    /// the sender-side report. The receiver must run [`SrReceiver`].
    pub fn start(
        eng: &mut Engine,
        qp: &SdrQp,
        ctrl: Rc<dyn CtrlPath>,
        peer_ctrl: QpAddr,
        local_addr: u64,
        msg_bytes: u64,
        cfg: SrProtoConfig,
        done: impl FnOnce(&mut Engine, SrReport) + 'static,
    ) -> SrSender {
        Self::start_with_telemetry(
            eng, qp, ctrl, peer_ctrl, local_addr, msg_bytes, cfg, None, done,
        )
    }

    /// [`start`](Self::start) with an optional channel estimator bound:
    /// ACK round-trips then feed RTT samples into it (the sender half of
    /// the adaptive telemetry loop).
    #[allow(clippy::too_many_arguments)]
    pub fn start_with_telemetry(
        eng: &mut Engine,
        qp: &SdrQp,
        ctrl: Rc<dyn CtrlPath>,
        _peer_ctrl: QpAddr,
        local_addr: u64,
        msg_bytes: u64,
        cfg: SrProtoConfig,
        telemetry: Option<Rc<RefCell<ChannelEstimator>>>,
        done: impl FnOnce(&mut Engine, SrReport) + 'static,
    ) -> SrSender {
        let stream = StreamTx::new(qp, local_addr, msg_bytes);
        let total_chunks = stream.total_chunks();
        let inner = Rc::new(RefCell::new(SenderInner {
            stream,
            timers: ChunkTimers::new(total_chunks),
            cfg,
            retransmitted: 0,
            acks: 0,
            completion: Completion::new(done),
            tick: None,
            telemetry,
        }));

        // Control-path handler: apply ACKs.
        wire_ctrl(&ctrl, &inner, |me, eng, _src, msg| {
            Self::on_ack(me, eng, msg)
        });

        // Begin now if the CTS credit is already here; otherwise hook it.
        begin_on_cts(eng, qp, &inner, Self::try_begin);
        SrSender { inner }
    }

    /// True once the final ACK has been processed.
    pub fn is_done(&self) -> bool {
        self.inner.borrow().completion.is_done()
    }

    /// Binds a flight recorder to the retransmission timers: RTO scans
    /// that fire record `rto-fire`/`rto-backoff` events under transfer
    /// `id` (see [`ChunkTimers::set_trace`]).
    pub fn bind_trace(&self, rec: FlightRecorder, id: u64) {
        self.inner.borrow_mut().timers.set_trace(rec, id);
    }

    /// Tears the transfer down now: the retransmission scan is cancelled,
    /// the stream slot is quiesced (exactly once), and the done callback
    /// fires with [`TransferOutcome::Aborted`]. Idempotent — returns
    /// `false` when the transfer already completed or aborted. Local only:
    /// propagating the abort to the peer is the control plane's job (the
    /// adaptive layer announces it via `CtrlMsg::Abort`).
    pub fn abort(&self, eng: &mut Engine, reason: AbortReason) -> bool {
        let (cb, report) = {
            let mut i = self.inner.borrow_mut();
            if i.completion.is_done() {
                return false;
            }
            i.stream.quiesce();
            if let Some(h) = i.tick.take() {
                eng.cancel(h);
            }
            let report = SrReport {
                duration: i.completion.elapsed(eng.now()),
                retransmitted: i.retransmitted,
                acks: i.acks,
                outcome: TransferOutcome::aborted(reason),
            };
            let Some(cb) = i.completion.finish() else {
                return false;
            };
            (cb, report)
        };
        cb(eng, report);
        true
    }

    fn try_begin(inner: &Rc<RefCell<SenderInner>>, eng: &mut Engine) -> bool {
        let rto = {
            let mut i = inner.borrow_mut();
            // A stale CTS hook may re-fire after completion (the stream is
            // quiesced by then) — it must never re-open the stream and
            // consume a send sequence that belongs to a later transfer.
            if i.completion.is_done() || i.stream.is_open() {
                return true;
            }
            if !i.stream.try_begin(eng) {
                return false;
            }
            let now = eng.now();
            i.completion.mark_started(now);
            i.timers.all_sent_at(now);
            i.cfg.rto
        };
        // Retransmission scan: the whole message was just injected, so the
        // first deadline is one RTO out; after that every wake sleeps to
        // the earliest unacked chunk's expiry. ACKs (and the NACK fast
        // path) are event-driven and never wait on this loop.
        let me = inner.clone();
        let h = tick_loop(eng, rto, move |eng| Self::tick(&me, eng));
        inner.borrow_mut().tick = Some(h);
        true
    }

    fn tick(inner: &Rc<RefCell<SenderInner>>, eng: &mut Engine) -> Tick {
        let mut i = inner.borrow_mut();
        if i.completion.is_done() {
            return Tick::Stop;
        }
        let now = eng.now();
        let rto = i.cfg.rto;
        let SenderInner {
            stream,
            timers,
            retransmitted,
            ..
        } = &mut *i;
        let deadline = timers.take_expired(now, rto, |c| {
            stream.resend_chunk(eng, c);
            *retransmitted += 1;
        });
        match deadline {
            Some(d) => Tick::Until(d),
            // Everything acked: completion is about to run (the ACK
            // handler fires it and cancels this loop).
            None => Tick::Stop,
        }
    }

    fn on_ack(inner: &Rc<RefCell<SenderInner>>, eng: &mut Engine, msg: CtrlMsg) {
        let CtrlMsg::SrAck {
            cumulative,
            window_start,
            sack_bits,
            sack_len,
            nacks,
        } = msg
        else {
            return;
        };
        let mut i = inner.borrow_mut();
        if i.completion.is_done() {
            return;
        }
        i.acks += 1;
        let backoff_before = i.timers.backoff();
        let rtt_sample =
            i.timers
                .absorb_sr_ack(cumulative, window_start, &sack_bits, sack_len, eng.now());
        if let (Some(sample), Some(est)) = (rtt_sample, &i.telemetry) {
            est.borrow_mut().observe_rtt(sample);
        }
        // NACK fast path: retransmit reported holes immediately, guarded so
        // duplicate NACKs within a tick don't double-send.
        if i.cfg.nack && i.stream.is_open() {
            let now = eng.now();
            let guard = i.cfg.tick;
            let SenderInner {
                stream,
                timers,
                retransmitted,
                ..
            } = &mut *i;
            for &c in &nacks {
                if timers.claim_for_resend(c as usize, now, guard) {
                    stream.resend_chunk(eng, c as usize);
                    *retransmitted += 1;
                }
            }
        }
        // Backoff heal: this ACK made progress after backed-off silence (a
        // blackout just ended), so the scan loop may be parked at a far
        // backed-off deadline — pull it back to one base RTO from now.
        if backoff_before > 0 && i.timers.backoff() == 0 && !i.timers.is_complete() {
            if let Some(h) = i.tick {
                let _ = eng.reschedule(h, eng.now().saturating_add(i.cfg.rto));
            }
        }
        if i.timers.is_complete() {
            i.stream.quiesce();
            // The scan loop may be asleep until a far RTO deadline: cancel
            // it so the drained simulation ends with the transfer.
            if let Some(h) = i.tick.take() {
                eng.cancel(h);
            }
            let report = SrReport {
                duration: i.completion.elapsed(eng.now()),
                retransmitted: i.retransmitted,
                acks: i.acks,
                outcome: TransferOutcome::Delivered,
            };
            if let Some(cb) = i.completion.finish() {
                drop(i);
                cb(eng, report);
            }
        }
    }
}

/// The SR receive policy: one bitmap, one cumulative + selective ACK per
/// poll (with holes in NACK mode).
struct SrRxScheme {
    total_chunks: usize,
    nack: bool,
}

impl RxScheme for SrRxScheme {
    type Done = ();

    fn poll(&mut self, eng: &mut Engine, rx: &mut RxCommon) -> bool {
        let bitmap = rx.bitmap(0);
        // Nothing arrived yet? The CTS may have been lost on the
        // unreliable control path — re-issue it.
        rx.heal_cts(eng, 0, &bitmap);
        let ack = build_sr_ack(bitmap.chunks(), self.total_chunks, self.nack);
        rx.send(eng, &ack);
        bitmap.is_complete()
    }

    fn done_payload(&self) {}
}

/// The SR receiver protocol object.
pub struct SrReceiver {
    driver: RxDriver<SrRxScheme>,
}

impl SrReceiver {
    /// Posts the receive buffer and starts the poll/ACK loop. `done` fires
    /// when all chunks have arrived (receiver-side completion instant).
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        eng: &mut Engine,
        qp: &SdrQp,
        ctrl: Rc<dyn CtrlPath>,
        peer_ctrl: QpAddr,
        buf_addr: u64,
        msg_bytes: u64,
        cfg: SrProtoConfig,
        done: impl FnOnce(&mut Engine, SimTime) + 'static,
    ) -> SrReceiver {
        Self::start_with_telemetry(
            eng, qp, ctrl, peer_ctrl, buf_addr, msg_bytes, cfg, None, done,
        )
    }

    /// [`start`](Self::start) with an optional channel estimator bound to
    /// the driver: every poll then feeds first-pass gap counts into it
    /// (the receiver half of the adaptive telemetry loop).
    #[allow(clippy::too_many_arguments)]
    pub fn start_with_telemetry(
        eng: &mut Engine,
        qp: &SdrQp,
        ctrl: Rc<dyn CtrlPath>,
        peer_ctrl: QpAddr,
        buf_addr: u64,
        msg_bytes: u64,
        cfg: SrProtoConfig,
        telemetry: Option<Rc<RefCell<ChannelEstimator>>>,
        done: impl FnOnce(&mut Engine, SimTime) + 'static,
    ) -> SrReceiver {
        let mut common = RxCommon::new(qp, ctrl, peer_ctrl);
        common.post(eng, buf_addr, msg_bytes);
        if let Some(est) = telemetry {
            common.bind_estimator(est);
        }
        let scheme = SrRxScheme {
            total_chunks: qp.config().chunks_for(msg_bytes) as usize,
            nack: cfg.nack,
        };
        let driver = RxDriver::start(
            eng,
            cfg.ack_interval,
            common,
            scheme,
            cfg.linger_acks,
            move |eng, t, ()| done(eng, t),
        );
        SrReceiver { driver }
    }

    /// True once every chunk has arrived.
    pub fn is_complete(&self) -> bool {
        self.driver.is_complete()
    }

    /// True once the receive buffer has been released back to the QP.
    pub fn is_released(&self) -> bool {
        self.driver.is_released()
    }

    /// Releases the receive slot now (exactly once) and stops the loop —
    /// the adaptive layer's quiesce-and-rebind path.
    pub fn quiesce(&self, eng: &mut Engine) -> bool {
        self.driver.quiesce(eng)
    }

    /// True once any packet of this transfer has arrived.
    pub fn any_packet(&self) -> bool {
        self.driver.any_packet()
    }

    /// `(observed, total)` packets (the injection frontier; see
    /// [`RxDriver::frontier`]).
    pub fn frontier(&self) -> (u64, u64) {
        self.driver.frontier()
    }
}
