//! The receive table: SDR's one receive-completion backend (§3.2.4, §3.4.2).
//!
//! Per message-ID slot it holds the generation and activity state and the
//! two-level bitmap — the per-packet bitmap "in DPA memory" and the chunk
//! bitmap "in host memory". Every data completion runs the same filters in
//! the same order, each counted in [`RecvStats`]: NULL-key write (stage 1)
//! → message id out of range → inactive slot → generation mismatch
//! (stage 2) → packet offset out of range → failed checksum verdict
//! (corruption becomes loss). A survivor sets its packet bit and publishes
//! the chunk bit when it completes a chunk.
//!
//! [`SdrQp`](crate::SdrQp) feeds its CQEs one at a time through
//! [`process`](RecvTable::process); the `sdr-dpa` worker threads drain
//! their rings through [`process_batch`](RecvTable::process_batch). Both
//! run the same code. All datapath accesses are atomic; only a repost
//! takes the slot's write lock to swap in a fresh bitmap.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use crate::bitmap::TwoLevelBitmap;
use crate::imm::ImmLayout;

/// A data-packet completion as the table sees it: the 32-bit transport
/// immediate plus what the CQE and the delivering QP's context tell the
/// receive backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvCqe {
    /// Transport immediate (msg id | packet offset | user fragment).
    pub imm: u32,
    /// Generation of the QP that delivered the packet.
    pub generation: u32,
    /// Payload was discarded by the NULL memory key (late packet).
    pub null_write: bool,
    /// The NIC's checksum verdict: the destination holds bytes matching
    /// the packet's header CRC (always true when no CRC was carried).
    pub crc_ok: bool,
}

impl RecvCqe {
    /// A completion whose payload landed intact: not NULL-keyed, checksum
    /// verdict passed.
    pub fn landed(imm: u32, generation: u32) -> Self {
        RecvCqe {
            imm,
            generation,
            null_write: false,
            crc_ok: true,
        }
    }
}

/// Receive-path counters, one per filter stage plus the bitmap outcomes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecvStats {
    /// Packets whose bitmap bit was set.
    pub packets: u64,
    /// Duplicate packet completions.
    pub duplicates: u64,
    /// Chunks completed (host chunk-bitmap publications).
    pub chunks: u64,
    /// Completions filtered by the NULL-key flag (stage 1).
    pub null_filtered: u64,
    /// Completions filtered by the generation check (stage 2).
    pub generation_filtered: u64,
    /// Completions for inactive slots.
    pub inactive: u64,
    /// Out-of-range message ids or packet offsets.
    pub bad_offset: u64,
    /// Completions whose checksum verdict failed (left as losses).
    pub corrupt: u64,
}

impl RecvStats {
    /// Element-wise sum of two stats records.
    pub fn merge(&self, other: &RecvStats) -> RecvStats {
        RecvStats {
            packets: self.packets + other.packets,
            duplicates: self.duplicates + other.duplicates,
            chunks: self.chunks + other.chunks,
            null_filtered: self.null_filtered + other.null_filtered,
            generation_filtered: self.generation_filtered + other.generation_filtered,
            inactive: self.inactive + other.inactive,
            bad_offset: self.bad_offset + other.bad_offset,
            corrupt: self.corrupt + other.corrupt,
        }
    }
}

/// One slot repost request for [`RecvTable::post_batch`].
#[derive(Clone, Copy, Debug)]
pub struct SlotPost {
    /// Message-ID slot to repost.
    pub slot: usize,
    /// New generation tag.
    pub generation: u32,
    /// Packets in the new message.
    pub total_packets: usize,
    /// Packets per frontend chunk.
    pub pkts_per_chunk: u32,
}

/// One message-ID slot.
struct Slot {
    generation: AtomicU32,
    active: AtomicBool,
    bitmap: RwLock<Arc<TwoLevelBitmap>>,
}

/// Reposts only swap or reset the bitmap under the write lock, which
/// cannot panic halfway; a poisoned lock is a bug.
const POISONED: &str = "receive-table slot lock poisoned";

impl Slot {
    fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    fn read(&self) -> RwLockReadGuard<'_, Arc<TwoLevelBitmap>> {
        self.bitmap.read().expect(POISONED)
    }
}

/// The receive message table.
pub struct RecvTable {
    slots: Vec<Slot>,
    layout: ImmLayout,
}

impl RecvTable {
    /// Creates a table with `slots` inactive message slots.
    pub fn new(slots: usize, layout: ImmLayout) -> Self {
        RecvTable {
            slots: (0..slots)
                .map(|_| Slot {
                    generation: AtomicU32::new(0),
                    active: AtomicBool::new(false),
                    // Placeholder bitmap; replaced on first post.
                    bitmap: RwLock::new(Arc::new(TwoLevelBitmap::new(1, 1))),
                })
                .collect(),
            layout,
        }
    }

    /// Number of message slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The immediate layout completions are decoded with.
    pub fn layout(&self) -> ImmLayout {
        self.layout
    }

    /// Posts a message into `slot` at `generation` with a fresh bitmap —
    /// the repost work whose cost dominates small-message throughput
    /// (§5.4.1: slot reallocation, key-table update, bitmap cleanup).
    ///
    /// This is the one-at-a-time baseline: every post allocates a new
    /// bitmap. The batched path ([`post_batch`](Self::post_batch)) reuses
    /// retired bitmaps in place; fig16's repost A/B row contrasts them.
    ///
    /// # Panics
    /// Panics when the slot is still active.
    pub fn post(&self, slot: usize, generation: u32, total_packets: usize, pkts_per_chunk: u32) {
        let s = &self.slots[slot];
        assert!(!s.is_active(), "slot {slot} still active");
        *s.bitmap.write().expect(POISONED) =
            Arc::new(TwoLevelBitmap::new(total_packets, pkts_per_chunk));
        s.generation.store(generation, Ordering::Release);
        s.active.store(true, Ordering::Release);
    }

    /// The batched repost path (§5.4.1's symmetric follow-up to
    /// [`process_batch`](Self::process_batch)): reposts every completed
    /// slot of a drain in one sweep. Two costs amortize versus calling
    /// [`post`](Self::post) per slot:
    ///
    /// * **bitmap recycling** — when the retired bitmap has the same shape
    ///   and no other holder (`Arc::get_mut` under the slot's write lock
    ///   proves exclusivity), it is [`reset`](TwoLevelBitmap::reset) in
    ///   place instead of reallocated, eliminating the per-repost
    ///   allocation + packet/chunk/counter array zero-fill round trip
    ///   through the allocator;
    /// * **one sweep per drain** — the host frontend retires a whole batch
    ///   of completed slots between ring polls instead of interleaving one
    ///   repost per poll iteration.
    ///
    /// Observationally identical to per-slot posts: each slot still takes
    /// its own write lock (so in-flight worker runs on *other* slots are
    /// never stalled), the generation/activity publication order is
    /// unchanged, and stale-generation filtering behaves exactly as
    /// before.
    ///
    /// # Panics
    /// Panics when any requested slot is still active, like `post`.
    pub fn post_batch(&self, posts: &[SlotPost]) {
        for p in posts {
            let s = &self.slots[p.slot];
            assert!(!s.is_active(), "slot {} still active", p.slot);
            {
                let mut bm = s.bitmap.write().expect(POISONED);
                match Arc::get_mut(&mut bm) {
                    Some(old)
                        if old.total_packets() == p.total_packets
                            && old.packets_per_chunk() == p.pkts_per_chunk =>
                    {
                        old.reset();
                    }
                    _ => {
                        *bm = Arc::new(TwoLevelBitmap::new(p.total_packets, p.pkts_per_chunk));
                    }
                }
            }
            s.generation.store(p.generation, Ordering::Release);
            s.active.store(true, Ordering::Release);
        }
    }

    /// Marks `slot` complete/inactive (host called `recv_complete`).
    pub fn complete(&self, slot: usize) {
        self.slots[slot].active.store(false, Ordering::Release);
    }

    /// True while `slot` holds a posted, not yet completed message.
    pub fn is_active(&self, slot: usize) -> bool {
        self.slots[slot].is_active()
    }

    /// The bitmap of the message most recently posted into `slot`.
    pub fn bitmap(&self, slot: usize) -> Arc<TwoLevelBitmap> {
        self.slots[slot].read().clone()
    }

    /// True when every chunk of the slot's message has arrived.
    pub fn is_complete(&self, slot: usize) -> bool {
        let s = &self.slots[slot];
        s.is_active() && s.read().is_complete()
    }

    /// Packet indices still missing in the slot's message.
    pub fn missing_packets(&self, slot: usize) -> Vec<usize> {
        let bm = self.slots[slot].read();
        bm.packets().missing_in_first_n(bm.total_packets())
    }

    /// The single-CQE datapath: filters one completion and records it.
    /// Returns `true` when it passed every filter — a new packet or a
    /// duplicate — so the caller can absorb per-packet side data (the
    /// user-immediate fragment, the arrival CRC).
    ///
    /// The same code as [`process_batch`](Self::process_batch), run on a
    /// batch of one.
    #[inline]
    pub fn process(&self, cqe: RecvCqe, stats: &mut RecvStats) -> bool {
        let mut passed = false;
        self.run(std::slice::from_ref(&cqe), stats, || passed = true);
        passed
    }

    /// The batched worker datapath (§3.4.2): processes a drained run of
    /// completions in one pass, amortizing the per-packet costs the
    /// one-at-a-time path pays 4096 times per ring poll:
    ///
    /// * **one bitmap read-lock per message run** — consecutive CQEs for
    ///   the same message slot share a single lock acquisition (packets
    ///   arrive in bursts per message, so runs are long);
    /// * **one atomic `fetch_or` per bitmap word** — packet bits landing in
    ///   the same 64-bit word coalesce into a mask before the RMW;
    /// * **one `fetch_add` per chunk** — chunk arrival counters advance by
    ///   the batch's per-chunk count, and the chunk bit publishes at most
    ///   once per chunk per batch.
    ///
    /// Holding a slot's bitmap read-lock across the run also pins its
    /// generation: a repost takes the write lock, so it cannot swap the
    /// bitmap out mid-run, and per-CQE generation checks keep filtering
    /// stale retransmissions exactly like the single-CQE path. Statistics
    /// are identical to processing the CQEs one at a time.
    pub fn process_batch(&self, cqes: &[RecvCqe], stats: &mut RecvStats) {
        self.run(cqes, stats, || {});
    }

    /// The filters and bitmap recording behind both entry points;
    /// `on_pass` fires for every completion that passes all filters.
    fn run(&self, cqes: &[RecvCqe], stats: &mut RecvStats, mut on_pass: impl FnMut()) {
        let mut idx = 0;
        while idx < cqes.len() {
            let head = cqes[idx];
            if head.null_write {
                stats.null_filtered += 1;
                idx += 1;
                continue;
            }
            let (msg_id, _, _) = self.layout.decode(head.imm);
            let Some(slot) = self.slots.get(msg_id as usize) else {
                stats.bad_offset += 1;
                idx += 1;
                continue;
            };
            // A message run: every following CQE for the same slot,
            // starting with `head`, shares this read guard and the
            // word/chunk coalescing below.
            let bm = slot.read();
            let total = bm.total_packets();
            let mut word = usize::MAX;
            let mut mask = 0u64;
            let flush = |word: usize, mask: u64, st: &mut RecvStats| {
                if mask == 0 {
                    return;
                }
                let mut chunks = 0u64;
                let (new, dup) = bm.record_packet_word(word, mask, |_| chunks += 1);
                st.packets += new as u64;
                st.duplicates += dup as u64;
                st.chunks += chunks;
            };
            while idx < cqes.len() {
                let cqe = cqes[idx];
                if cqe.null_write {
                    stats.null_filtered += 1;
                    idx += 1;
                    continue;
                }
                let (mid, pkt_offset, _frag) = self.layout.decode(cqe.imm);
                if mid != msg_id {
                    break; // next run (different message slot)
                }
                idx += 1;
                // `complete()` stores active=false without the write lock,
                // so it can land mid-run: check activity per CQE.
                if !slot.is_active() {
                    stats.inactive += 1;
                    continue;
                }
                if slot.generation.load(Ordering::Acquire) != cqe.generation {
                    stats.generation_filtered += 1;
                    continue;
                }
                let pkt = pkt_offset as usize;
                if pkt >= total {
                    stats.bad_offset += 1;
                    continue;
                }
                if !cqe.crc_ok {
                    stats.corrupt += 1;
                    continue;
                }
                on_pass();
                let (w, bit) = (pkt / 64, 1u64 << (pkt % 64));
                if w != word {
                    flush(word, mask, stats);
                    (word, mask) = (w, 0);
                }
                if mask & bit != 0 {
                    // Duplicate within the batch window itself.
                    stats.duplicates += 1;
                } else {
                    mask |= bit;
                }
            }
            flush(word, mask, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RecvTable {
        RecvTable::new(4, ImmLayout::default())
    }

    fn cqe(layout: &ImmLayout, msg: u32, pkt: u32, generation: u32) -> RecvCqe {
        RecvCqe::landed(layout.encode(msg, pkt, 0), generation)
    }

    #[test]
    fn packets_complete_chunks_and_messages() {
        let t = table();
        let l = t.layout();
        t.post(0, 0, 32, 16);
        let mut st = RecvStats::default();
        for pkt in 0..32 {
            assert!(t.process(cqe(&l, 0, pkt, 0), &mut st));
        }
        assert_eq!(st.packets, 32);
        assert_eq!(st.chunks, 2);
        assert!(t.is_complete(0));
    }

    #[test]
    fn generation_mismatch_is_filtered() {
        let t = table();
        let l = t.layout();
        t.post(1, 3, 8, 4);
        let mut st = RecvStats::default();
        assert!(!t.process(cqe(&l, 1, 0, 2), &mut st)); // stale generation
        assert_eq!(st.generation_filtered, 1);
        assert_eq!(st.packets, 0);
        t.process(cqe(&l, 1, 0, 3), &mut st);
        assert_eq!(st.packets, 1);
    }

    #[test]
    fn null_and_inactive_are_filtered() {
        let t = table();
        let l = t.layout();
        let mut st = RecvStats::default();
        t.process(
            RecvCqe {
                null_write: true,
                ..cqe(&l, 2, 0, 0)
            },
            &mut st,
        );
        assert_eq!(st.null_filtered, 1);
        t.process(cqe(&l, 2, 0, 0), &mut st); // slot never posted
        assert_eq!(st.inactive, 1);
    }

    #[test]
    fn duplicates_and_bad_offsets_counted() {
        let t = table();
        let l = t.layout();
        t.post(0, 0, 4, 2);
        let mut st = RecvStats::default();
        t.process(cqe(&l, 0, 1, 0), &mut st);
        assert!(t.process(cqe(&l, 0, 1, 0), &mut st), "duplicates pass");
        assert_eq!(st.duplicates, 1);
        t.process(cqe(&l, 0, 9, 0), &mut st); // beyond the 4-packet message
        assert_eq!(st.bad_offset, 1);
    }

    #[test]
    fn failed_checksum_verdict_is_a_loss() {
        // The verdict is the last filter: a bad offset wins over it, and
        // a failed verdict leaves the packet bit clear.
        let t = table();
        let l = t.layout();
        t.post(0, 0, 4, 2);
        let mut st = RecvStats::default();
        let corrupt = |pkt| RecvCqe {
            crc_ok: false,
            ..cqe(&l, 0, pkt, 0)
        };
        assert!(!t.process(corrupt(9), &mut st));
        assert_eq!((st.bad_offset, st.corrupt), (1, 0));
        assert!(!t.process(corrupt(2), &mut st));
        assert_eq!(st.corrupt, 1);
        assert_eq!(t.missing_packets(0), vec![0, 1, 2, 3]);
        assert!(t.process(cqe(&l, 0, 2, 0), &mut st));
        assert_eq!(t.missing_packets(0), vec![0, 1, 3]);
    }

    #[test]
    fn repost_resets_state() {
        let t = table();
        let l = t.layout();
        t.post(0, 0, 4, 2);
        let mut st = RecvStats::default();
        for pkt in 0..4 {
            t.process(cqe(&l, 0, pkt, 0), &mut st);
        }
        assert!(t.is_complete(0));
        t.complete(0);
        assert!(!t.is_complete(0));
        t.post(0, 1, 4, 2);
        assert_eq!(t.missing_packets(0).len(), 4);
        // Old-generation completions for the reposted slot are filtered.
        t.process(cqe(&l, 0, 0, 0), &mut st);
        assert_eq!(st.generation_filtered, 1);
    }

    #[test]
    #[should_panic(expected = "still active")]
    fn double_post_panics() {
        let t = table();
        t.post(0, 0, 4, 2);
        t.post(0, 1, 4, 2);
    }

    #[test]
    #[should_panic(expected = "still active")]
    fn batched_double_post_panics() {
        let t = table();
        t.post(0, 0, 4, 2);
        t.post_batch(&[SlotPost {
            slot: 0,
            generation: 1,
            total_packets: 4,
            pkts_per_chunk: 2,
        }]);
    }

    #[test]
    fn post_batch_recycles_bitmaps_cleanly() {
        // A batched repost over a dirtied same-shape slot must behave like
        // a fresh post: clean bitmaps, reset chunk counters, new
        // generation filtering — whether the in-place reset or the realloc
        // path was taken.
        let t = table();
        let l = t.layout();
        let mut st = RecvStats::default();
        for round in 0..3u32 {
            t.post_batch(&[
                SlotPost {
                    slot: 0,
                    generation: round,
                    total_packets: 32,
                    pkts_per_chunk: 16,
                },
                SlotPost {
                    slot: 1,
                    generation: round,
                    total_packets: 8,
                    pkts_per_chunk: 4,
                },
            ]);
            assert_eq!(t.missing_packets(0).len(), 32, "round {round}: clean");
            assert_eq!(t.missing_packets(1).len(), 8, "round {round}: clean");
            // Stale completions from the previous round are filtered.
            if round > 0 {
                let before = st.generation_filtered;
                t.process(cqe(&l, 0, 0, round - 1), &mut st);
                assert_eq!(st.generation_filtered, before + 1);
            }
            for pkt in 0..32 {
                t.process(cqe(&l, 0, pkt, round), &mut st);
            }
            for pkt in 0..8 {
                t.process(cqe(&l, 1, pkt, round), &mut st);
            }
            assert!(t.is_complete(0) && t.is_complete(1), "round {round}");
            t.complete(0);
            t.complete(1);
        }
        assert_eq!(st.packets, 3 * 40);
        assert_eq!(st.chunks, 3 * 4);
    }

    #[test]
    fn post_batch_reshapes_slots() {
        // Shape changes force the realloc path; the new shape must win.
        let t = table();
        t.post(2, 0, 32, 16);
        t.complete(2);
        t.post_batch(&[SlotPost {
            slot: 2,
            generation: 1,
            total_packets: 6,
            pkts_per_chunk: 2,
        }]);
        assert_eq!(t.missing_packets(2), vec![0, 1, 2, 3, 4, 5]);
        let mut st = RecvStats::default();
        let l = t.layout();
        for pkt in 0..6 {
            t.process(cqe(&l, 2, pkt, 1), &mut st);
        }
        assert_eq!(st.chunks, 3);
        assert!(t.is_complete(2));
    }
}
