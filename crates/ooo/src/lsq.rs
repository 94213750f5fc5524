//! Load/store queue with store-to-load forwarding.
//!
//! The LSQ keeps loads and stores in program order. A load about to
//! access memory scans the older stores:
//!
//! - an older *issued* store overlapping its address forwards the data
//!   (L1-hit-like latency, no cache access);
//! - an older *un-issued* store overlapping its address blocks the load
//!   until the store's operands arrive;
//! - otherwise the load goes to the cache.
//!
//! Non-overlapping un-issued stores do not block — perfect memory
//! disambiguation, the standard idealization for trace-driven simulation
//! where every address is architecturally known (`DESIGN.md` §5).
//!
//! The scan is the per-load hot path, so two early-outs sit in front of
//! it: a count of resident stores (loads in a store-free window never
//! scan at all) and a small counting filter over 64-byte address
//! granules (a load whose granules hold no store skips the scan even
//! when stores are resident). Both are conservative — a filter hit only
//! means "scan", never "forward" — so they cannot change the scan's
//! answer, only avoid it.
//!
//! Each entry also gets an allocation ordinal (entry `i` of the queue
//! has ordinal `base + i`), recorded in a ring indexed by `dyn_seq`
//! modulo a power of two at least as large as the ROB, so
//! [`Lsq::mark_issued`] finds its entry by index instead of searching.

use crate::types::DynSeq;
use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::MemRef;
use std::collections::VecDeque;

/// What a load should do, per the disambiguation scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadCheck {
    /// Forward from the youngest older overlapping (issued) store,
    /// identified by its `DynSeq` (so the consumer can inherit its INV
    /// status during runahead).
    Forward(DynSeq),
    /// Wait: an older overlapping store has not produced its data yet.
    Blocked,
    /// Access the cache hierarchy.
    Access,
}

#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    dyn_seq: DynSeq,
    is_store: bool,
    mem: MemRef,
    issued: bool,
}

/// log2 of the address-filter granule (64 bytes: one cache line).
const FILTER_SHIFT: u32 = 6;
/// Number of counting-filter buckets (granule address, low 8 bits).
const FILTER_BUCKETS: usize = 256;

/// The load/store queue.
#[derive(Debug, Clone)]
pub struct Lsq {
    entries: VecDeque<LsqEntry>,
    /// Allocation ordinal of `entries[0]`.
    base: u64,
    /// Allocation ordinal of the entry last allocated for each
    /// `dyn_seq & mask`; allocated with the first entry, like the event
    /// wheels' slot tables.
    ordinals: Box<[u64]>,
    /// Ring slots minus one (a power of two ≥ the largest ROB).
    mask: u64,
    /// Resident stores (issued or not); loads skip disambiguation
    /// entirely while this is zero.
    stores: usize,
    /// Counting filter: for each resident store, every 64-byte granule
    /// its reference touches increments one bucket. A load whose
    /// granules all read zero provably overlaps no resident store.
    store_filter: [u16; FILTER_BUCKETS],
}

/// Calls `f` with the filter bucket of every granule `mem` touches.
/// References are at most a few bytes wide, so this is one bucket, or
/// two when the access straddles a granule boundary.
fn for_each_bucket(mem: &MemRef, mut f: impl FnMut(usize)) {
    let first = mem.addr >> FILTER_SHIFT;
    let last = mem.addr.wrapping_add(mem.size.max(1) as u64 - 1) >> FILTER_SHIFT;
    let mut g = first;
    loop {
        f((g as usize) & (FILTER_BUCKETS - 1));
        if g == last {
            break;
        }
        g += 1;
    }
}

impl Lsq {
    /// Creates an empty queue whose resident entries' `dyn_seq`s always
    /// lie within `capacity` consecutive numbers (true of any LSQ inside
    /// a ROB of at most `capacity` entries).
    ///
    /// [`Lsq::allocate`] panics if an entry would break that bound.
    pub fn new(capacity: usize) -> Lsq {
        let slots = capacity.next_power_of_two().max(64);
        Lsq {
            entries: VecDeque::new(),
            base: 0,
            ordinals: Box::default(),
            mask: (slots - 1) as u64,
            stores: 0,
            store_filter: [0; FILTER_BUCKETS],
        }
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    fn filter_add(&mut self, mem: &MemRef) {
        for_each_bucket(mem, |b| self.store_filter[b] += 1);
    }

    fn filter_remove(&mut self, mem: &MemRef) {
        for_each_bucket(mem, |b| {
            debug_assert!(self.store_filter[b] > 0, "filter underflow");
            self.store_filter[b] -= 1;
        });
    }

    /// Whether any filter bucket touched by `mem` holds a store.
    fn filter_hit(&self, mem: &MemRef) -> bool {
        let mut hit = false;
        for_each_bucket(mem, |b| hit |= self.store_filter[b] != 0);
        hit
    }

    /// Appends a memory operation (program order).
    ///
    /// # Panics
    ///
    /// Panics if `dyn_seq` is not younger than every current entry, or
    /// lies `capacity` or more past the oldest.
    pub fn allocate(&mut self, dyn_seq: DynSeq, is_store: bool, mem: MemRef) {
        if let Some(back) = self.entries.back() {
            assert!(back.dyn_seq < dyn_seq, "LSQ allocation out of order");
        }
        assert!(
            self.entries
                .front()
                .is_none_or(|f| dyn_seq - f.dyn_seq <= self.mask),
            "LSQ window exceeds its ordinal ring"
        );
        if self.ordinals.is_empty() {
            self.ordinals = vec![0; self.mask as usize + 1].into_boxed_slice();
        }
        self.ordinals[(dyn_seq & self.mask) as usize] = self.base + self.entries.len() as u64;
        if is_store {
            self.stores += 1;
            self.filter_add(&mem);
        }
        self.entries.push_back(LsqEntry {
            dyn_seq,
            is_store,
            mem,
            issued: false,
        });
    }

    /// Marks the entry's address/data as produced (store executed or load
    /// access performed).
    pub fn mark_issued(&mut self, dyn_seq: DynSeq) {
        // The ring slot may name an entry since committed or squashed
        // (or whose ordinal was handed out again): the seq check rejects
        // it, exactly as a search that finds nothing.
        let Some(&ordinal) = self.ordinals.get((dyn_seq & self.mask) as usize) else {
            return; // nothing was ever allocated
        };
        let i = ordinal.wrapping_sub(self.base) as usize;
        if let Some(e) = self.entries.get_mut(i) {
            if e.dyn_seq == dyn_seq {
                e.issued = true;
            }
        }
    }

    /// The binary-search `mark_issued` the ordinal ring replaced, kept as
    /// the reference model.
    #[cfg(test)]
    fn mark_issued_by_search(&mut self, dyn_seq: DynSeq) {
        if let Ok(i) = self.entries.binary_search_by_key(&dyn_seq, |e| e.dyn_seq) {
            self.entries[i].issued = true;
        }
    }

    /// Disambiguation scan for the load `dyn_seq` with reference `mem`.
    pub fn check_load(&self, dyn_seq: DynSeq, mem: &MemRef) -> LoadCheck {
        // Early-outs: no resident store at all, or none in this load's
        // address granules.
        if self.stores == 0 || !self.filter_hit(mem) {
            return LoadCheck::Access;
        }
        // Scan only the entries older than the load (entries are in
        // program order), youngest-first so the nearest store wins.
        let older = self.entries.partition_point(|e| e.dyn_seq < dyn_seq);
        for e in self.entries.range(..older).rev() {
            if e.is_store && e.mem.overlaps(mem) {
                return if e.issued {
                    LoadCheck::Forward(e.dyn_seq)
                } else {
                    LoadCheck::Blocked
                };
            }
        }
        LoadCheck::Access
    }

    /// Removes the committed (oldest) entry.
    ///
    /// # Panics
    ///
    /// Panics if the head is not `dyn_seq` (commit must be in order).
    pub fn commit(&mut self, dyn_seq: DynSeq) {
        let head = self.entries.pop_front().expect("commit from empty LSQ");
        assert_eq!(head.dyn_seq, dyn_seq, "LSQ commit out of order");
        self.base += 1;
        if head.is_store {
            self.stores -= 1;
            self.filter_remove(&head.mem);
        }
    }

    /// Drops every entry younger than `dyn_seq` (squash).
    pub fn squash_younger(&mut self, dyn_seq: DynSeq) {
        while let Some(back) = self.entries.back() {
            if back.dyn_seq > dyn_seq {
                let dropped = self.entries.pop_back().unwrap();
                if dropped.is_store {
                    self.stores -= 1;
                    self.filter_remove(&dropped.mem);
                }
            } else {
                break;
            }
        }
    }

    /// Drops everything (runahead exit).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stores = 0;
        self.store_filter = [0; FILTER_BUCKETS];
    }

    /// Serializes the queue entries; the store count and address filter
    /// are derived state and are rebuilt on restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_seq(self.entries.iter(), |w, e| {
            w.put_u64(e.dyn_seq);
            w.put_bool(e.is_store);
            w.put_u64(e.mem.addr);
            w.put_u8(e.mem.size);
            w.put_bool(e.issued);
        });
    }

    /// Restores the queue written by [`Lsq::save_state`], replaying each
    /// store into the counting filter.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let entries = r.get_seq(|r| {
            let dyn_seq = r.get_u64()?;
            let is_store = r.get_bool()?;
            let addr = r.get_u64()?;
            let offset = r.offset();
            let size = r.get_u8()?;
            if !matches!(size, 1 | 2 | 4 | 8) {
                return Err(SnapError::BadTag {
                    offset,
                    tag: size,
                    what: "LSQ mem size",
                });
            }
            let issued = r.get_bool()?;
            Ok(LsqEntry {
                dyn_seq,
                is_store,
                mem: MemRef { addr, size },
                issued,
            })
        })?;
        let ordered = entries.windows(2).all(|w| w[0].dyn_seq < w[1].dyn_seq);
        let span = match (entries.first(), entries.last()) {
            (Some(f), Some(b)) => b.dyn_seq.wrapping_sub(f.dyn_seq),
            _ => 0,
        };
        if !ordered || span > self.mask {
            return Err(SnapError::Mismatch {
                what: "LSQ entry order or span",
            });
        }
        self.clear();
        if self.ordinals.is_empty() {
            self.ordinals = vec![0; self.mask as usize + 1].into_boxed_slice();
        }
        for e in entries {
            self.ordinals[(e.dyn_seq & self.mask) as usize] = self.base + self.entries.len() as u64;
            if e.is_store {
                self.stores += 1;
                let mem = e.mem;
                self.filter_add(&mem);
            }
            self.entries.push_back(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(addr: u64) -> MemRef {
        MemRef::new(addr, 8)
    }

    #[test]
    fn load_with_no_stores_accesses_cache() {
        let mut q = Lsq::new(64);
        q.allocate(1, false, m(0x100));
        assert_eq!(q.check_load(1, &m(0x100)), LoadCheck::Access);
    }

    #[test]
    fn issued_store_forwards() {
        let mut q = Lsq::new(64);
        q.allocate(1, true, m(0x100));
        q.allocate(2, false, m(0x100));
        assert_eq!(q.check_load(2, &m(0x100)), LoadCheck::Blocked);
        q.mark_issued(1);
        assert_eq!(q.check_load(2, &m(0x100)), LoadCheck::Forward(1));
    }

    #[test]
    fn nearest_older_store_wins() {
        let mut q = Lsq::new(64);
        q.allocate(1, true, m(0x100));
        q.mark_issued(1);
        q.allocate(2, true, m(0x100)); // younger, un-issued
        q.allocate(3, false, m(0x100));
        // Store 2 is nearer: load must block on it even though store 1
        // could forward.
        assert_eq!(q.check_load(3, &m(0x100)), LoadCheck::Blocked);
    }

    #[test]
    fn younger_stores_do_not_affect_the_load() {
        let mut q = Lsq::new(64);
        q.allocate(1, false, m(0x100));
        q.allocate(2, true, m(0x100));
        assert_eq!(q.check_load(1, &m(0x100)), LoadCheck::Access);
    }

    #[test]
    fn disjoint_stores_do_not_block() {
        let mut q = Lsq::new(64);
        q.allocate(1, true, m(0x200));
        q.allocate(2, false, m(0x100));
        assert_eq!(q.check_load(2, &m(0x100)), LoadCheck::Access);
    }

    #[test]
    fn partial_overlap_blocks() {
        let mut q = Lsq::new(64);
        q.allocate(1, true, MemRef::new(0x104, 8));
        q.allocate(2, false, MemRef::new(0x100, 8));
        assert_eq!(q.check_load(2, &m(0x100)), LoadCheck::Blocked);
    }

    #[test]
    fn commit_pops_in_order() {
        let mut q = Lsq::new(64);
        q.allocate(1, false, m(0x100));
        q.allocate(2, true, m(0x108));
        q.commit(1);
        q.commit(2);
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn commit_out_of_order_panics() {
        let mut q = Lsq::new(64);
        q.allocate(1, false, m(0x100));
        q.allocate(2, false, m(0x108));
        q.commit(2);
    }

    #[test]
    fn squash_drops_younger_only() {
        let mut q = Lsq::new(64);
        q.allocate(1, false, m(0x100));
        q.allocate(2, true, m(0x108));
        q.allocate(3, false, m(0x110));
        q.squash_younger(1);
        assert_eq!(q.occupancy(), 1);
        assert_eq!(q.check_load(5, &m(0x100)), LoadCheck::Access);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn allocation_must_be_in_order() {
        let mut q = Lsq::new(64);
        q.allocate(5, false, m(0x100));
        q.allocate(3, false, m(0x108));
    }

    #[test]
    fn filter_stays_consistent_through_commit_squash_clear() {
        let mut q = Lsq::new(64);
        // Committing and squashing stores must re-open the fast path.
        q.allocate(1, true, m(0x100));
        q.allocate(2, true, m(0x300));
        assert_eq!(q.check_load(3, &m(0x100)), LoadCheck::Blocked);
        q.commit(1);
        assert_eq!(
            q.check_load(3, &m(0x100)),
            LoadCheck::Access,
            "committed store must leave the filter"
        );
        q.squash_younger(1);
        assert_eq!(
            q.check_load(3, &m(0x300)),
            LoadCheck::Access,
            "squashed store must leave the filter"
        );
        q.allocate(4, true, m(0x500));
        q.clear();
        assert_eq!(q.occupancy(), 0);
        assert_eq!(q.check_load(9, &m(0x500)), LoadCheck::Access);
    }

    #[test]
    fn filter_bucket_collision_still_scans_and_allows_access() {
        // 0x100 and 0x100 + 256*64 granules collide in the 256-bucket
        // filter; the scan behind the filter must still say Access.
        let mut q = Lsq::new(64);
        q.allocate(1, true, m(0x100 + 256 * 64));
        assert_eq!(
            q.check_load(2, &m(0x100)),
            LoadCheck::Access,
            "a filter collision may force the scan but not a false block"
        );
    }

    #[test]
    fn restore_rejects_unordered_or_overlong_queues() {
        let image = |seqs: &[DynSeq]| {
            let mut q = Lsq::new(1024);
            for &s in seqs {
                q.allocate(s, true, m(0x100));
            }
            let mut w = SnapWriter::new();
            q.save_state(&mut w);
            w.into_bytes()
        };
        let mut q = Lsq::new(64);
        let ok = image(&[3, 66]);
        q.load_state(&mut SnapReader::new(&ok))
            .expect("span 63 fits");
        q.mark_issued(66);
        assert_eq!(q.check_load(70, &m(0x100)), LoadCheck::Forward(66));
        let long = image(&[3, 67]);
        assert!(q.load_state(&mut SnapReader::new(&long)).is_err());
        // Swap the two seqs of a valid image: out of order.
        let mut swapped = ok.clone();
        let first = swapped.iter().position(|&b| b == 3).expect("seq 3 encoded");
        let second = first
            + swapped[first..]
                .iter()
                .position(|&b| b == 66)
                .expect("seq 66");
        swapped.swap(first, second);
        assert!(q.load_state(&mut SnapReader::new(&swapped)).is_err());
    }

    /// Observable state: every entry with its issued flag.
    fn contents(q: &Lsq) -> Vec<(DynSeq, bool, u64, bool)> {
        q.entries
            .iter()
            .map(|e| (e.dyn_seq, e.is_store, e.mem.addr, e.issued))
            .collect()
    }

    #[test]
    fn mark_issued_ignores_absent_and_stale_seqs() {
        let mut q = Lsq::new(64);
        q.allocate(1, true, m(0x100));
        q.commit(1);
        q.allocate(65, true, m(0x100)); // shares seq 1's ring slot
        q.mark_issued(1); // committed: must not touch 65
        q.mark_issued(7); // never allocated
        assert_eq!(q.check_load(70, &m(0x100)), LoadCheck::Blocked);
        q.squash_younger(64);
        q.allocate(66, true, m(0x200)); // reuses 65's ordinal
        q.mark_issued(65);
        assert_eq!(q.check_load(70, &m(0x200)), LoadCheck::Blocked);
        q.mark_issued(66);
        assert_eq!(q.check_load(70, &m(0x200)), LoadCheck::Forward(66));
    }

    /// An LCG drives the same allocate / mark_issued / check_load /
    /// commit / squash_younger / clear traffic into a queue issuing by
    /// ordinal and one issuing by binary search (the reference), with a
    /// 64-slot ring so seqs wrap it and stale ring slots abound, and
    /// demands identical load checks and contents throughout.
    #[test]
    fn lcg_fuzz_ordinal_mark_issued_against_binary_search() {
        let mut lcg: u64 = 0x2545F4914F6CDD1D;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let (mut fast, mut slow) = (Lsq::new(64), Lsq::new(64));
        // Live ROB window [head, end); the LSQ holds some of its seqs.
        let (mut head, mut end): (DynSeq, DynSeq) = (1, 1);
        let (mut forwards, mut blocks) = (0, 0);
        for step in 0..100_000 {
            match next() % 40 {
                0..=11 => {
                    if end - head < 64 {
                        if next() % 3 != 0 {
                            let mem = MemRef::new((next() % 8) * 8, 8);
                            let is_store = next() % 2 == 0;
                            fast.allocate(end, is_store, mem);
                            slow.allocate(end, is_store, mem);
                        }
                        end += 1;
                    }
                }
                12..=19 => {
                    let seq = if next() % 4 == 0 {
                        (head + next() % 80).saturating_sub(8) // often stale
                    } else {
                        head + next() % (end - head + 1)
                    };
                    fast.mark_issued(seq);
                    slow.mark_issued_by_search(seq);
                }
                20..=29 => {
                    let seq = head + next() % (end - head + 1);
                    let mem = MemRef::new((next() % 8) * 8, 4);
                    let got = fast.check_load(seq, &mem);
                    assert_eq!(got, slow.check_load(seq, &mem), "check_load at {step}");
                    forwards += matches!(got, LoadCheck::Forward(_)) as u32;
                    blocks += (got == LoadCheck::Blocked) as u32;
                }
                30..=37 => {
                    if head < end {
                        if fast.entries.front().is_some_and(|e| e.dyn_seq == head) {
                            fast.commit(head);
                            slow.commit(head);
                        }
                        head += 1;
                    }
                }
                38 => {
                    let keep = head + next() % (end - head + 1);
                    fast.squash_younger(keep.saturating_sub(1));
                    slow.squash_younger(keep.saturating_sub(1));
                    end = keep.max(head);
                }
                _ => {
                    if next() % 4 == 0 {
                        fast.clear();
                        slow.clear();
                        head = end;
                    }
                }
            }
            assert_eq!(fast.occupancy(), slow.occupancy());
            assert_eq!(contents(&fast), contents(&slow), "contents at {step}");
        }
        assert!(head > 100 * 64, "seqs must wrap the ring many times");
        assert!(
            forwards > 500 && blocks > 1_000,
            "both outcomes must occur: {forwards} forwards, {blocks} blocks"
        );
    }

    #[test]
    fn straddling_reference_touches_both_granules() {
        // A store crossing a 64-byte boundary must be visible to loads
        // in either granule.
        let mut q = Lsq::new(64);
        q.allocate(1, true, MemRef::new(0x13c, 8)); // spans 0x100 and 0x140 granules
        assert_eq!(q.check_load(2, &MemRef::new(0x140, 4)), LoadCheck::Blocked);
        assert_eq!(q.check_load(3, &MemRef::new(0x138, 8)), LoadCheck::Blocked);
    }
}
