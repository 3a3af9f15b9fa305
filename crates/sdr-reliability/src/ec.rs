//! Erasure-coding reliability over SDR (§4.1.2) — a policy over the
//! [`runtime`](crate::runtime) building blocks.
//!
//! The sender splits the message into `L = M/k` data submessages of `k`
//! bitmap chunks each, erasure-codes each into a parity submessage of `m`
//! chunks, and transmits all `2L` as SDR messages (data as streaming sends —
//! so failed submessages can be selective-repeated — parity as one-shots).
//! Encoding uses the `sdr-erasure` MDS (Reed–Solomon) or XOR codes.
//!
//! The receiver is an [`RxScheme`]: per poll it resolves submessages (all
//! data chunks present, or enough data+parity chunks for in-place
//! decoding). On the first observed packet it arms the fallback timeout
//! `FTO = (M + ⌈M/R⌉)·T_INJ + β·RTT`; expiry NACKs the unresolved
//! submessages, switching them to Selective Repeat (the paper's fallback
//! scheme). Poll cadence, CTS healing, the positive-ACK linger and the
//! exactly-once buffer release come from the shared [`RxDriver`].
//!
//! # The streaming encode→inject pipeline
//!
//! The sender no longer stages all parity before the first send. Encoding
//! runs on the persistent [`EncodePool`] (the paper's spare-core model,
//! Fig 11) one submessage ahead of staging, while the protocol thread keeps
//! injecting:
//!
//! ```text
//!  sim thread      │ inject D0 D1 … D(L-1) │ stage+inject P0 │ P1 │ P2 │ …
//!                  │      ▲                │     ▲           │
//!  encode pool     │ [enc P0]──────────────┘ [enc P1]────────┘ [enc P2] …
//!                  │
//!  time-to-first-byte ≈ 0 (data needs no encode; parity i+1 encodes
//!  while parity i injects — was: O(total parity) before the first byte)
//! ```
//!
//! Two pooled buffer sets cycle through the pipeline (double buffering):
//! while submessage *i*'s buffers travel through the pool, submessage
//! *i−1*'s set is harvested, its parity copied to the staging region, and
//! the set resubmitted for submessage *i+1*. [`EcStaging::Upfront`] keeps
//! the stage-everything-first behavior as the measurable A/B baseline; both
//! modes stage byte-identical parity. `encode_stripes` additionally splits
//! each in-flight submessage's shard length across the pool's workers
//! (`EncodePool::submit(job, n)`), shortening the per-submessage encode
//! latency on multi-core hosts.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdr_core::{SdrContext, SdrQp, SendHandle, TwoLevelBitmap};
use sdr_erasure::{EncodeJob, EncodePool, ErasureCode, PendingEncode, ReedSolomon, XorCode};
use sdr_sim::{Engine, QpAddr, SimTime};

use crate::ack::CtrlMsg;
use crate::control::CtrlPath;
use crate::runtime::{
    begin_on_cts, wire_ctrl, AbortReason, Completion, RxCommon, RxDriver, RxScheme, TransferOutcome,
};
use crate::telemetry::ChannelEstimator;

/// Which erasure code protects the submessages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EcCodeChoice {
    /// Reed–Solomon MDS: any ≤ m chunk drops per submessage recoverable.
    Mds,
    /// XOR modulo-group code: one drop per group recoverable.
    Xor,
}

/// How the sender stages parity relative to injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EcStaging {
    /// Encode every submessage before the first injection — the
    /// pre-pipeline behavior, kept as the A/B baseline. Time-to-first-byte
    /// is O(total parity encode).
    Upfront,
    /// Stream: submit submessage *i+1*'s encode to the [`EncodePool`]
    /// while submessage *i* injects. Time-to-first-byte is O(1) — data
    /// needs no encoding and the first parity encode overlaps the data
    /// injections.
    Streamed,
}

/// EC protocol tuning.
#[derive(Clone, Copy, Debug)]
pub struct EcProtoConfig {
    /// Data chunks per submessage (`k`).
    pub k: usize,
    /// Parity chunks per submessage (`m`).
    pub m: usize,
    /// Code family.
    pub code: EcCodeChoice,
    /// Receiver bitmap-poll cadence.
    pub poll_interval: SimTime,
    /// Fallback timeout armed at first chunk arrival.
    pub fto: SimTime,
    /// Final-ACK repeats before releasing buffers.
    pub linger_acks: u32,
    /// Parity staging discipline (default: [`EcStaging::Streamed`]).
    pub staging: EcStaging,
    /// Stripes per in-flight submessage encode: `> 1` splits each
    /// submessage's shard length across the [`EncodePool`] workers,
    /// shortening the per-submessage encode latency the fig11 TTFB row
    /// measures. `1` (the default) encodes each submessage on one worker.
    pub encode_stripes: usize,
}

impl EcProtoConfig {
    /// Builds a config with the paper's FTO formula
    /// `(M + ⌈M/R⌉)·T_INJ + β·RTT` (β = 0.5) for a given deployment.
    pub fn for_channel(
        k: usize,
        m: usize,
        code: EcCodeChoice,
        ch: &sdr_model::Channel,
        msg_bytes: u64,
        rtt: SimTime,
    ) -> Self {
        let m_chunks = ch.chunks_for(msg_bytes);
        let parity = m_chunks.div_ceil(k as u64) * m as u64;
        let fto_s = (m_chunks + parity) as f64 * ch.t_inj() + 0.5 * ch.rtt_s;
        EcProtoConfig {
            k,
            m,
            code,
            poll_interval: rtt / 8,
            fto: SimTime::from_secs_f64(fto_s),
            linger_acks: 25,
            staging: EcStaging::Streamed,
            encode_stripes: 1,
        }
    }
}

/// Geometry of one submessage.
#[derive(Clone, Copy, Debug)]
struct SubGeom {
    /// First data chunk (message-global index).
    chunk_start: u64,
    /// Data chunks in this submessage (`k`, shorter for the tail).
    k_eff: usize,
    /// Parity chunks (`m`, clamped for XOR tails).
    m_eff: usize,
}

fn geometry(total_chunks: u64, k: usize, m: usize, code: EcCodeChoice) -> Vec<SubGeom> {
    let l = total_chunks.div_ceil(k as u64);
    (0..l)
        .map(|i| {
            let chunk_start = i * k as u64;
            let k_eff = (total_chunks - chunk_start).min(k as u64) as usize;
            let m_eff = match code {
                EcCodeChoice::Mds => m,
                EcCodeChoice::Xor => m.min(k_eff),
            };
            SubGeom {
                chunk_start,
                k_eff,
                m_eff,
            }
        })
        .collect()
}

fn make_code(choice: EcCodeChoice, k: usize, m: usize) -> Arc<dyn ErasureCode> {
    match choice {
        EcCodeChoice::Mds => Arc::new(ReedSolomon::new(k, m)),
        EcCodeChoice::Xor => Arc::new(XorCode::new(k, m)),
    }
}

/// One shared code instance per distinct `(family, k, m)` shape: building
/// a [`ReedSolomon`] involves a Vandermonde construction plus a matrix
/// inversion that must not run per submessage (or per flow), let alone per
/// bitmap poll. (`Arc`, not `Rc`: senders ship codes to the encode pool's
/// workers.)
#[derive(Default)]
pub(crate) struct CodeCache(HashMap<(EcCodeChoice, usize, usize), Arc<dyn ErasureCode>>);

impl CodeCache {
    /// The code for `k` data and `m` parity chunks, built on first use.
    pub(crate) fn get(&mut self, choice: EcCodeChoice, k: usize, m: usize) -> Arc<dyn ErasureCode> {
        self.0
            .entry((choice, k, m))
            .or_insert_with(|| make_code(choice, k, m))
            .clone()
    }
}

/// The code of every submessage — a message has at most two shapes (full
/// submessages and the tail), so it builds at most two codes.
fn codes_for(choice: EcCodeChoice, geoms: &[SubGeom]) -> Vec<Arc<dyn ErasureCode>> {
    let mut cache = CodeCache::default();
    geoms
        .iter()
        .map(|g| cache.get(choice, g.k_eff, g.m_eff))
        .collect()
}

/// A capped pool of chunk-sized byte buffers. Split out of [`EcScratch`]
/// so a decode can rent buffers (via [`ErasureCode::reconstruct_into`])
/// while the scratch's shard table is mutably borrowed.
#[derive(Default)]
pub(crate) struct BufPool {
    /// Pooled chunk buffers, capped at [`Self::cap`] entries.
    free: Vec<Vec<u8>>,
    /// Upper bound on pooled buffers (the cap keeps the pool from growing
    /// without bound when losses are frequent).
    cap: usize,
}

impl BufPool {
    /// Rents a zeroed `len`-byte buffer, reusing a pooled one when
    /// available.
    pub(crate) fn take(&mut self, len: usize) -> Vec<u8> {
        match self.free.pop() {
            Some(mut b) => {
                b.clear();
                b.resize(len, 0);
                b
            }
            None => vec![0u8; len],
        }
    }

    /// Returns a buffer to the pool (dropped when the pool is at cap).
    pub(crate) fn put(&mut self, b: Vec<u8>) {
        if self.free.len() < self.cap {
            self.free.push(b);
        }
    }
}

/// Reusable staging for the EC hot paths. Chunk-sized buffers are rented
/// for the duration of one decode (or one submessage encode) and returned,
/// so the steady state performs no per-chunk heap allocation; presence
/// flags live in a retained `Vec` that is cleared, never reallocated.
/// Loss-path decodes rent their missing-shard buffers from the same pool
/// through [`ErasureCode::reconstruct_into`], so even the reconstruction
/// of dropped chunks allocates nothing once the pool is warm.
#[derive(Default)]
pub struct EcScratch {
    /// The chunk-buffer pool decode rents from.
    pub(crate) pool: BufPool,
    /// Shard table reused across decodes.
    shards: Vec<Option<Vec<u8>>>,
    /// Per-shard presence flags (data chunks, then parity) reused across
    /// polls.
    present: Vec<bool>,
}

impl EcScratch {
    /// A pool sized for submessages of `k + m` chunks.
    pub fn new(k: usize, m: usize) -> Self {
        EcScratch {
            pool: BufPool {
                free: Vec::new(),
                cap: 2 * (k + m),
            },
            ..EcScratch::default()
        }
    }

    /// Buffers currently pooled (test observability).
    pub fn pooled(&self) -> usize {
        self.pool.free.len()
    }

    /// Resolves one submessage — the receive half every EC receiver shares
    /// (the [`EcReceiver`] per submessage, the flow engine per EC flow):
    /// scans both bitmaps for present chunks, audits them when `audit` is
    /// given, and, if a data chunk is missing, decodes in place — stages
    /// the present shards in pooled buffers, reconstructs, writes the
    /// rebuilt data chunks back and returns every buffer to the pool.
    /// Returns the outcome and the number of chunks the audit demoted;
    /// after [`EcResolution::Pending`], [`data_present`](Self::data_present)
    /// holds the audited presence of the data chunks.
    ///
    /// `audit(parity, chunk, bytes)` re-checks a present chunk's bytes
    /// against the CRCs recorded when its packets landed. Under payload
    /// checksums a set bit only proves a clean packet landed *once* — a
    /// corrupted duplicate may have overwritten it since — so the audit
    /// demotes a stale chunk to absent before any decision reads the
    /// flags: stale bytes never feed a decode or resolve a submessage.
    pub(crate) fn resolve(
        &mut self,
        ctx: &SdrContext,
        sub: &EcSubmsg<'_>,
        audit: Option<ChunkAudit<'_>>,
    ) -> (EcResolution, u64) {
        let (k, m, chunk_len) = (sub.k, sub.m, sub.chunk_bytes as usize);
        // Shard `c` is data chunk `c` below `k`, parity chunk `c - k` above.
        let addr = |c: usize| match c.checked_sub(k) {
            None => sub.data_addr + c as u64 * sub.chunk_bytes,
            Some(p) => sub.parity_addr + p as u64 * sub.chunk_bytes,
        };
        // Word-level scans (one atomic load per 64 chunks) into the
        // retained flags: the no-loss steady state allocates nothing.
        if audit.is_none() && sub.data_bm.chunks().first_n_set(k) {
            return (EcResolution::Complete, 0);
        }
        self.present.clear();
        self.present.resize(k + m, true);
        let (data, parity) = self.present.split_at_mut(k);
        let (data_bm, parity_bm) = (sub.data_bm.chunks(), sub.parity_bm.chunks());
        data_bm.for_each_missing_in_first_n(k, |c| data[c] = false);
        parity_bm.for_each_missing_in_first_n(m, |c| parity[c] = false);
        let mut stale = 0;
        if let Some(verify) = audit {
            let mut b = self.pool.take(chunk_len);
            for c in 0..k + m {
                if self.present[c] {
                    ctx.read_buffer_into(addr(c), &mut b);
                    let ok = match c.checked_sub(k) {
                        None => verify(false, c, &b),
                        Some(p) => verify(true, p, &b),
                    };
                    if !ok {
                        self.present[c] = false;
                        stale += 1;
                    }
                }
            }
            self.pool.put(b);
            if self.data_present(k).iter().all(|&p| p) {
                return (EcResolution::Complete, stale);
            }
        }
        if !sub.code.can_recover(&self.present) {
            return (EcResolution::Pending, stale);
        }
        debug_assert!(self.shards.is_empty());
        for c in 0..k + m {
            let shard = self.present[c].then(|| {
                let mut b = self.pool.take(chunk_len);
                ctx.read_buffer_into(addr(c), &mut b);
                b
            });
            self.shards.push(shard);
        }
        // Missing shards are rebuilt into buffers rented from the same
        // pool, so the loss path allocates nothing once the pool is warm.
        let EcScratch { pool, shards, .. } = self;
        sub.code
            .reconstruct_into(shards, &mut |len| pool.take(len))
            .expect("can_recover checked");
        for c in (0..k).filter(|&c| !self.present[c]) {
            ctx.write_buffer(addr(c), self.shards[c].as_ref().expect("reconstructed"));
        }
        // Every staged buffer (rebuilt ones included) goes back to the
        // pool; the table keeps its capacity.
        for b in self.shards.drain(..).flatten() {
            self.pool.put(b);
        }
        (EcResolution::Decoded, stale)
    }

    /// Audited presence of the first `k` data chunks of the submessage
    /// [`resolve`](Self::resolve) last left [`EcResolution::Pending`].
    pub(crate) fn data_present(&self, k: usize) -> &[bool] {
        &self.present[..k]
    }
}
/// Where one EC submessage lives: `k` data chunks from `data_addr` and `m`
/// parity chunks from `parity_addr`, each `chunk_bytes` long, plus the
/// bitmaps that record their arrival.
pub(crate) struct EcSubmsg<'a> {
    pub(crate) code: &'a dyn ErasureCode,
    pub(crate) k: usize,
    pub(crate) m: usize,
    pub(crate) chunk_bytes: u64,
    pub(crate) data_addr: u64,
    pub(crate) parity_addr: u64,
    pub(crate) data_bm: &'a TwoLevelBitmap,
    pub(crate) parity_bm: &'a TwoLevelBitmap,
}

/// `audit(parity, chunk, bytes)`: whether a present data (or parity) chunk's
/// bytes still match the CRCs recorded when its packets landed.
pub(crate) type ChunkAudit<'a> = &'a mut dyn FnMut(bool, usize, &[u8]) -> bool;

/// What one [`EcScratch::resolve`] call made of a submessage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EcResolution {
    /// Every data chunk landed (and passed the audit): nothing to decode.
    Complete,
    /// Missing or stale data chunks were rebuilt from parity in place.
    Decoded,
    /// Too few clean chunks so far.
    Pending,
}

/// Sender-side transfer outcome.
#[derive(Clone, Debug)]
pub struct EcReport {
    /// First injection to positive-ACK reception.
    pub duration: SimTime,
    /// Fallback NACK rounds served.
    pub fallback_rounds: u64,
    /// Wall-clock time from `EcSender::start` entry to the first data
    /// injection — the host-side cost paid before the first byte leaves.
    /// [`EcStaging::Upfront`] pays the full parity encode here;
    /// [`EcStaging::Streamed`] pays ~one pool submission.
    pub ttfb_wall: Duration,
    /// How the transfer ended ([`TransferOutcome::Aborted`] after
    /// [`EcSender::abort`]; `duration` then covers start → abort).
    pub outcome: TransferOutcome,
}

struct EcSenderInner {
    qp: SdrQp,
    ctx: SdrContext,
    cfg: EcProtoConfig,
    local_addr: u64,
    chunk_bytes: u64,
    geoms: Vec<SubGeom>,
    /// One code instance per submessage, shared across identical shapes.
    codes: Vec<Arc<dyn ErasureCode>>,
    parity_addr: u64,
    parity_offsets: Vec<u64>,
    parity_total_bytes: u64,
    data_hdls: Vec<Option<SendHandle>>,
    parity_sent: Vec<bool>,
    next_send_seq: u64,
    started_wall: Instant,
    ttfb_wall: Option<Duration>,
    fallback_rounds: u64,
    completion: Completion<EcReport>,
    // --- streaming encode pipeline state ---
    /// Parity submessages already copied into the staging region.
    pl_staged: Vec<bool>,
    /// Next submessage index to submit to the encode pool.
    pl_next_submit: usize,
    /// The (single) in-flight encode: submessage index + pool handle.
    pl_pending: Option<(usize, PendingEncode)>,
    /// Recycled chunk-sized buffers cycling through encode jobs
    /// (double-buffered: one set in flight, one being staged).
    pl_chunks: Vec<Vec<u8>>,
    /// Recycled `Vec<Vec<u8>>` containers for job data/parity tables.
    pl_containers: Vec<Vec<Vec<u8>>>,
}

impl EcSenderInner {
    /// Submits the next submessage's encode to the pool: rent buffers,
    /// snapshot the data chunks, ship the job. No-op once all submitted.
    fn submit_next_encode(&mut self) {
        let idx = self.pl_next_submit;
        if idx >= self.geoms.len() {
            return;
        }
        debug_assert!(self.pl_pending.is_none(), "single in-flight encode");
        let g = self.geoms[idx];
        let chunk_len = self.chunk_bytes as usize;
        let mut data = self.pl_containers.pop().unwrap_or_default();
        for j in 0..g.k_eff {
            let mut b = self.pl_chunks.pop().unwrap_or_default();
            b.resize(chunk_len, 0);
            self.ctx.read_buffer_into(
                self.local_addr + (g.chunk_start + j as u64) * self.chunk_bytes,
                &mut b,
            );
            data.push(b);
        }
        let mut parity = self.pl_containers.pop().unwrap_or_default();
        for _ in 0..g.m_eff {
            let mut b = self.pl_chunks.pop().unwrap_or_default();
            b.resize(chunk_len, 0);
            parity.push(b);
        }
        let job = EncodeJob {
            code: self.codes[idx].clone(),
            data,
            parity,
        };
        let stripes = self.cfg.encode_stripes.max(1);
        self.pl_pending = Some((idx, EncodePool::global().submit(job, stripes)));
        self.pl_next_submit = idx + 1;
    }

    /// Harvests the in-flight encode: wait for the pool, copy parity into
    /// the staging region, recycle the buffers, and immediately submit the
    /// next submessage so its encode overlaps the injection of this one.
    fn harvest_one(&mut self) {
        let (idx, pending) = self.pl_pending.take().expect("an encode is in flight");
        let EncodeJob {
            code: _,
            mut data,
            mut parity,
        } = pending.wait();
        let off = self.parity_offsets[idx];
        for (p, shard) in parity.iter().enumerate() {
            self.ctx
                .write_buffer(self.parity_addr + off + p as u64 * self.chunk_bytes, shard);
        }
        self.pl_staged[idx] = true;
        self.pl_chunks.append(&mut data);
        self.pl_chunks.append(&mut parity);
        self.pl_containers.push(data);
        self.pl_containers.push(parity);
        self.submit_next_encode();
    }

    /// Drains the pipeline until submessage `p`'s parity is staged.
    /// Submissions are strictly in order, so this harvests at most
    /// `p − staged_count + 1` encodes.
    fn ensure_parity_staged(&mut self, p: usize) {
        while !self.pl_staged[p] {
            self.harvest_one();
        }
    }
}

/// The EC sender protocol object.
pub struct EcSender {
    inner: Rc<RefCell<EcSenderInner>>,
}

impl EcSender {
    /// Starts an EC-protected transfer. `msg_bytes` must be a multiple of
    /// the QP's bitmap chunk size (chunk-granular shards). The receiver
    /// must run [`EcReceiver`] with the same configuration.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        eng: &mut Engine,
        qp: &SdrQp,
        ctx: &SdrContext,
        ctrl: Rc<dyn CtrlPath>,
        _peer_ctrl: QpAddr,
        local_addr: u64,
        msg_bytes: u64,
        cfg: EcProtoConfig,
        done: impl FnOnce(&mut Engine, EcReport) + 'static,
    ) -> EcSender {
        let started_wall = Instant::now();
        let chunk_bytes = qp.config().chunk_bytes;
        assert!(
            msg_bytes.is_multiple_of(chunk_bytes),
            "EC layer requires chunk-aligned messages"
        );
        let total_chunks = msg_bytes / chunk_bytes;
        let geoms = geometry(total_chunks, cfg.k, cfg.m, cfg.code);
        assert!(
            geoms.len() * 2 <= qp.config().msg_slots,
            "need 2L ≤ msg_slots in-flight descriptors"
        );

        // Parity staging region in local memory. Parity lands here as the
        // pipeline harvests encodes — streamed one submessage ahead of the
        // sends by default, or all up front under `EcStaging::Upfront`.
        let codes = codes_for(cfg.code, &geoms);
        let total_parity_chunks: u64 = geoms.iter().map(|g| g.m_eff as u64).sum();
        let parity_addr = ctx.alloc_buffer(total_parity_chunks * chunk_bytes);
        let mut parity_offsets = Vec::with_capacity(geoms.len());
        let mut off = 0u64;
        for g in &geoms {
            parity_offsets.push(off);
            off += g.m_eff as u64 * chunk_bytes;
        }

        let l = geoms.len();
        let inner = Rc::new(RefCell::new(EcSenderInner {
            qp: qp.clone(),
            ctx: ctx.clone(),
            cfg,
            local_addr,
            chunk_bytes,
            geoms,
            codes,
            parity_addr,
            parity_offsets,
            parity_total_bytes: total_parity_chunks * chunk_bytes,
            data_hdls: vec![None; l],
            parity_sent: vec![false; l],
            next_send_seq: qp.next_send_seq(),
            started_wall,
            ttfb_wall: None,
            fallback_rounds: 0,
            completion: Completion::new(done),
            pl_staged: vec![false; l],
            pl_next_submit: 0,
            pl_pending: None,
            pl_chunks: Vec::new(),
            pl_containers: Vec::new(),
        }));

        // Prime the pipeline: submessage 0's encode starts on the pool
        // before any CTS lands. Upfront mode drains it all here (the
        // pre-pipeline behavior): the first byte then waits on the entire
        // parity encode.
        {
            let mut i = inner.borrow_mut();
            i.submit_next_encode();
            if cfg.staging == EcStaging::Upfront && l > 0 {
                i.ensure_parity_staged(l - 1);
            }
        }

        // Control handler: positive ACK finishes; NACK selective-repeats.
        wire_ctrl(&ctrl, &inner, |me, eng, _src, msg| match msg {
            CtrlMsg::EcAck => Self::on_ack(me, eng),
            CtrlMsg::EcNack { failed } => Self::on_nack(me, eng, &failed),
            _ => {}
        });
        // CTS pump: create sends strictly in sequence order as credits land
        // (never "begun" from the hook's view — every credit re-pumps).
        begin_on_cts(eng, qp, &inner, |me, eng| {
            Self::pump_sends(me, eng);
            false
        });
        EcSender { inner }
    }

    /// True once the positive ACK has been processed.
    pub fn is_done(&self) -> bool {
        self.inner.borrow().completion.is_done()
    }

    /// Raw bytes of the whole parity staging region, draining the encode
    /// pipeline first so every submessage's parity is staged. Test
    /// observability: the streamed and upfront senders must stage
    /// byte-identical parity.
    pub fn staged_parity(&self) -> Vec<u8> {
        let mut i = self.inner.borrow_mut();
        while i.pl_pending.is_some() || i.pl_next_submit < i.geoms.len() {
            if i.pl_pending.is_none() {
                i.submit_next_encode();
            }
            i.harvest_one();
        }
        let (addr, len) = (i.parity_addr, i.parity_total_bytes);
        i.ctx.read_buffer(addr, len as usize)
    }

    fn pump_sends(inner: &Rc<RefCell<EcSenderInner>>, eng: &mut Engine) {
        let mut i = inner.borrow_mut();
        if i.completion.is_done() {
            return;
        }
        let l = i.geoms.len();
        let base_seq = i.next_send_seq
            + (i.data_hdls.iter().filter(|h| h.is_some()).count()
                + i.parity_sent.iter().filter(|&&s| s).count()) as u64;
        let mut seq = base_seq;
        loop {
            let idx = (seq - i.next_send_seq) as usize;
            if idx >= 2 * l || !i.qp.has_cts(seq) {
                break;
            }
            if idx < l {
                // Data submessage idx as a streaming send. Data needs no
                // encoding, so the first byte leaves while submessage 0's
                // parity is still encoding on the pool.
                let g = i.geoms[idx];
                let addr = i.local_addr + g.chunk_start * i.chunk_bytes;
                let len = g.k_eff as u64 * i.chunk_bytes;
                let hdl =
                    i.qp.send_stream_start(eng, addr, len, None)
                        .expect("CTS checked");
                i.qp.send_stream_continue(eng, &hdl, 0, len)
                    .expect("initial injection");
                i.data_hdls[idx] = Some(hdl);
                if i.completion.started().is_none() {
                    i.completion.mark_started(eng.now());
                    i.ttfb_wall = Some(i.started_wall.elapsed());
                }
            } else {
                // Parity submessage as a one-shot send; harvest the
                // pipeline up to it first (streamed mode stages parity p
                // here while p+1 encodes on the pool).
                let p = idx - l;
                i.ensure_parity_staged(p);
                let g = i.geoms[p];
                let addr = i.parity_addr + i.parity_offsets[p];
                let len = g.m_eff as u64 * i.chunk_bytes;
                i.qp.send_post(eng, addr, len, None).expect("CTS checked");
                i.parity_sent[p] = true;
            }
            seq += 1;
        }
    }

    fn on_nack(inner: &Rc<RefCell<EcSenderInner>>, eng: &mut Engine, failed: &[u32]) {
        let mut i = inner.borrow_mut();
        if i.completion.is_done() {
            return;
        }
        i.fallback_rounds += 1;
        for &f in failed {
            let f = f as usize;
            if f >= i.geoms.len() {
                continue;
            }
            if let Some(hdl) = i.data_hdls[f] {
                let g = i.geoms[f];
                let len = g.k_eff as u64 * i.chunk_bytes;
                i.qp.send_stream_continue(eng, &hdl, 0, len)
                    .expect("fallback retransmission");
            }
        }
    }

    fn on_ack(inner: &Rc<RefCell<EcSenderInner>>, eng: &mut Engine) {
        let mut i = inner.borrow_mut();
        if i.completion.is_done() {
            return;
        }
        for hdl in i.data_hdls.iter().flatten() {
            let _ = i.qp.send_stream_end(hdl);
        }
        let report = EcReport {
            duration: i.completion.elapsed(eng.now()),
            fallback_rounds: i.fallback_rounds,
            ttfb_wall: i.ttfb_wall.unwrap_or_default(),
            outcome: TransferOutcome::Delivered,
        };
        let _ = &i.ctx; // staging buffer lives for the simulation's duration
        if let Some(cb) = i.completion.finish() {
            drop(i);
            cb(eng, report);
        }
    }

    /// Tears the transfer down now: every open data stream is ended, no
    /// further CTS credit will pump a send, and the done callback fires
    /// with [`TransferOutcome::Aborted`]. Idempotent — returns `false`
    /// when the transfer already completed or aborted. (EC keeps no
    /// sender-side retransmission timer; the FTO lives on the receiver,
    /// whose teardown is [`EcReceiver::quiesce`].)
    pub fn abort(&self, eng: &mut Engine, reason: AbortReason) -> bool {
        let (cb, report) = {
            let mut i = self.inner.borrow_mut();
            if i.completion.is_done() {
                return false;
            }
            for hdl in i.data_hdls.iter().flatten() {
                let _ = i.qp.send_stream_end(hdl);
            }
            let report = EcReport {
                duration: i.completion.elapsed(eng.now()),
                fallback_rounds: i.fallback_rounds,
                ttfb_wall: i.ttfb_wall.unwrap_or_default(),
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
}

/// Receiver-side statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EcRecvStats {
    /// Submessages completed without decoding (all data chunks arrived).
    pub complete_submessages: u64,
    /// Submessages recovered by erasure decoding.
    pub decoded_submessages: u64,
    /// Fallback NACK rounds sent.
    pub fallback_nacks: u64,
    /// Staged chunks rejected by the arrival-CRC audit: a corrupted
    /// duplicate overwrote recorded memory after the chunk's bits were
    /// set, so the staged bytes no longer match what the NIC verified on
    /// arrival. The chunk is treated as absent — decoded around or
    /// re-delivered via the fallback NACK (clean re-arrivals heal the
    /// memory and the recorded CRCs in place).
    pub stale_chunks: u64,
}

/// The EC receive policy: per poll, resolve submessages (directly or by
/// in-place decoding), arm/serve the FTO fallback, and emit the positive
/// ACK once everything is resolved. Slots `0..L` are the data submessages,
/// `L..2L` the parity scratch buffers.
struct EcRxScheme {
    ctx: SdrContext,
    cfg: EcProtoConfig,
    buf_addr: u64,
    chunk_bytes: u64,
    geoms: Vec<SubGeom>,
    /// One code instance per submessage, shared across identical shapes.
    codes: Vec<Arc<dyn ErasureCode>>,
    /// Pooled shard staging for the decode hot path.
    scratch: EcScratch,
    parity_addrs: Vec<u64>,
    resolved: Vec<bool>,
    fto_deadline: Option<SimTime>,
    stats: EcRecvStats,
}

impl RxScheme for EcRxScheme {
    type Done = EcRecvStats;

    fn poll(&mut self, eng: &mut Engine, rx: &mut RxCommon) -> bool {
        self.poll_once(eng, rx);
        if self.resolved.iter().all(|&r| r) {
            rx.send(eng, &CtrlMsg::EcAck);
            return true;
        }
        // Fallback timeout handling (§4.1.2): NACK the unresolved
        // submessages so the sender selective-repeats them.
        if let Some(d) = self.fto_deadline {
            if eng.now() >= d {
                let failed: Vec<u32> = self
                    .resolved
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| !r)
                    .map(|(idx, _)| idx as u32)
                    .collect();
                self.stats.fallback_nacks += 1;
                rx.send(eng, &CtrlMsg::EcNack { failed });
                self.fto_deadline = Some(eng.now() + self.cfg.fto);
            }
        }
        false
    }

    fn done_payload(&self) -> EcRecvStats {
        self.stats
    }
}

impl EcRxScheme {
    fn poll_once(&mut self, eng: &mut Engine, rx: &mut RxCommon) {
        let mut any_packet = false;
        let l = self.geoms.len();
        let audit = rx.payload_checksums();
        for s in 0..l {
            if self.resolved[s] {
                continue;
            }
            let g = self.geoms[s];
            let data_bm = rx.bitmap(s);
            let parity_bm = rx.bitmap(l + s);
            // Possible lost CTS for this submessage — heal it. The FTO
            // arms off *packet* observation, not chunk completion: under
            // heavy loss a 16-packet chunk may never complete on the first
            // pass at all, and a chunk-armed FTO would then never fire —
            // no NACK, no retransmission, a livelock the conformance
            // suite's heavy-loss rows exercise.
            any_packet |= rx.heal_cts(eng, s, &data_bm);
            any_packet |= rx.heal_cts(eng, l + s, &parity_bm);
            let sub = EcSubmsg {
                code: &*self.codes[s],
                k: g.k_eff,
                m: g.m_eff,
                chunk_bytes: self.chunk_bytes,
                data_addr: self.buf_addr + g.chunk_start * self.chunk_bytes,
                parity_addr: self.parity_addrs[s],
                data_bm: &data_bm,
                parity_bm: &parity_bm,
            };
            let mut verify = |parity: bool, c: usize, b: &[u8]| {
                rx.verify_chunk(if parity { l + s } else { s }, c, b)
            };
            let audit = audit.then_some(&mut verify as ChunkAudit);
            let (outcome, stale) = self.scratch.resolve(&self.ctx, &sub, audit);
            self.stats.stale_chunks += stale;
            match outcome {
                EcResolution::Complete => self.stats.complete_submessages += 1,
                EcResolution::Decoded => self.stats.decoded_submessages += 1,
                EcResolution::Pending => continue,
            }
            self.resolved[s] = true;
        }
        // Arm the FTO at the first observed arrival (§4.1.2).
        if any_packet && self.fto_deadline.is_none() {
            self.fto_deadline = Some(eng.now() + self.cfg.fto);
        }
    }
}

/// The EC receiver protocol object.
pub struct EcReceiver {
    driver: RxDriver<EcRxScheme>,
}

impl EcReceiver {
    /// Posts all data and parity buffers and starts the poll loop. `done`
    /// fires when every data submessage is present or decoded.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        eng: &mut Engine,
        qp: &SdrQp,
        ctx: &SdrContext,
        ctrl: Rc<dyn CtrlPath>,
        peer_ctrl: QpAddr,
        buf_addr: u64,
        msg_bytes: u64,
        cfg: EcProtoConfig,
        done: impl FnOnce(&mut Engine, SimTime, EcRecvStats) + 'static,
    ) -> EcReceiver {
        Self::start_with_telemetry(
            eng, qp, ctx, ctrl, peer_ctrl, buf_addr, msg_bytes, cfg, None, done,
        )
    }

    /// [`start`](Self::start) with an optional channel estimator bound to
    /// the driver (first-pass gap counts per poll across all data and
    /// parity slots — the receiver half of the adaptive telemetry loop).
    #[allow(clippy::too_many_arguments)]
    pub fn start_with_telemetry(
        eng: &mut Engine,
        qp: &SdrQp,
        ctx: &SdrContext,
        ctrl: Rc<dyn CtrlPath>,
        peer_ctrl: QpAddr,
        buf_addr: u64,
        msg_bytes: u64,
        cfg: EcProtoConfig,
        telemetry: Option<Rc<RefCell<ChannelEstimator>>>,
        done: impl FnOnce(&mut Engine, SimTime, EcRecvStats) + 'static,
    ) -> EcReceiver {
        let chunk_bytes = qp.config().chunk_bytes;
        assert!(msg_bytes.is_multiple_of(chunk_bytes));
        let total_chunks = msg_bytes / chunk_bytes;
        let geoms = geometry(total_chunks, cfg.k, cfg.m, cfg.code);
        let codes = codes_for(cfg.code, &geoms);

        // Post data buffers (slices of the user buffer), then parity
        // scratch buffers — the same order the sender issues sends.
        let mut common = RxCommon::new(qp, ctrl, peer_ctrl);
        for g in &geoms {
            let addr = buf_addr + g.chunk_start * chunk_bytes;
            let len = g.k_eff as u64 * chunk_bytes;
            common.post(eng, addr, len);
        }
        let mut parity_addrs = Vec::with_capacity(geoms.len());
        for g in &geoms {
            let len = g.m_eff as u64 * chunk_bytes;
            let addr = ctx.alloc_buffer(len);
            parity_addrs.push(addr);
            common.post(eng, addr, len);
        }
        if let Some(est) = telemetry {
            common.bind_estimator(est);
        }

        let l = geoms.len();
        let scheme = EcRxScheme {
            ctx: ctx.clone(),
            cfg,
            buf_addr,
            chunk_bytes,
            geoms,
            codes,
            scratch: EcScratch::new(cfg.k, cfg.m),
            parity_addrs,
            resolved: vec![false; l],
            fto_deadline: None,
            stats: EcRecvStats::default(),
        };
        let driver = RxDriver::start(
            eng,
            cfg.poll_interval,
            common,
            scheme,
            cfg.linger_acks,
            done,
        );
        EcReceiver { driver }
    }

    /// True once every data submessage is present or decoded.
    pub fn is_complete(&self) -> bool {
        self.driver.is_complete()
    }

    /// True once every posted buffer has been released back to the QP.
    pub fn is_released(&self) -> bool {
        self.driver.is_released()
    }

    /// Receiver statistics so far.
    pub fn stats(&self) -> EcRecvStats {
        self.driver.scheme(|s| s.stats)
    }

    /// Releases every posted slot now (exactly once) and stops the loop —
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_pool_reuses_buffers_and_caps_growth() {
        let mut s = EcScratch::new(4, 2);
        // Rent and return: the pool grows to what was returned...
        let bufs: Vec<Vec<u8>> = (0..3).map(|_| s.pool.take(64)).collect();
        assert_eq!(s.pooled(), 0);
        for b in bufs {
            s.pool.put(b);
        }
        assert_eq!(s.pooled(), 3);
        // ...subsequent rents come from the pool (and are re-zeroed even
        // after length changes).
        let mut b = s.pool.take(128);
        assert_eq!(s.pooled(), 2);
        assert_eq!(b.len(), 128);
        assert!(b.iter().all(|&x| x == 0));
        b[0] = 0xFF;
        s.pool.put(b);
        let b = s.pool.take(16);
        assert!(b.iter().all(|&x| x == 0), "rented buffers are zeroed");
        s.pool.put(b);
        // The cap (2·(k+m) = 12) bounds growth under decode-heavy load.
        for _ in 0..100 {
            s.pool.put(vec![0u8; 8]);
        }
        assert_eq!(s.pooled(), 12);
    }

    #[test]
    fn codes_are_shared_across_equal_shapes() {
        // 10 chunks, k=4 → geometries (4,2), (4,2), (2,2): the first two
        // submessages must share one ReedSolomon instance (one matrix
        // inversion), the tail gets its own.
        let geoms = geometry(10, 4, 2, EcCodeChoice::Mds);
        let codes = codes_for(EcCodeChoice::Mds, &geoms);
        assert_eq!(codes.len(), 3);
        assert!(Arc::ptr_eq(&codes[0], &codes[1]));
        assert!(!Arc::ptr_eq(&codes[0], &codes[2]));
    }

    #[test]
    fn geometry_handles_tails() {
        // 10 chunks, k = 4, m = 2 → submessages of 4, 4, 2.
        let g = geometry(10, 4, 2, EcCodeChoice::Mds);
        assert_eq!(g.len(), 3);
        assert_eq!((g[0].k_eff, g[0].m_eff, g[0].chunk_start), (4, 2, 0));
        assert_eq!((g[2].k_eff, g[2].m_eff, g[2].chunk_start), (2, 2, 8));
        // XOR clamps parity to the tail size.
        let g = geometry(9, 4, 2, EcCodeChoice::Xor);
        assert_eq!(g[2].k_eff, 1);
        assert_eq!(g[2].m_eff, 1);
    }
}
