//! The core's event wheels: timing wheels whose slots are bitmaps over
//! ROB slots, holding `(cycle, dyn_seq)` wake-up events.
//!
//! The scheduler keeps two of these (operand-ready promotions and
//! execution completions), and the stall fast-forward reads their
//! [`next_time`](EventWheel::next_time) as two legs of its next-event
//! bound — the same wheel serves single-step drains and bulk skips, so
//! there is exactly one source of truth for "when does the pipeline
//! wake next".
//!
//! # Structure
//!
//! [`HORIZON`] single-cycle slots cover the window `[cursor, cursor +
//! HORIZON)`; the window never spans more than one lap, so slot
//! `t % HORIZON` maps to exactly one cycle and no per-event time is
//! stored. Each slot is a bitmap over ROB slots, bit `seq & mask` — the
//! geometry of [`ReadyRing`](crate::ready::ReadyRing), a power of two at
//! least as large as the biggest ROB — so a post sets one bit plus the
//! slot's occupancy bit and allocates nothing. A cached earliest time
//! makes [`next_time`](EventWheel::next_time) O(1) and a drain with
//! nothing due one compare. Events at or past the horizon wait in an
//! overflow list and join the wheel when a drain brings them inside it.
//!
//! # What a bit means
//!
//! A bit names a ROB slot, not a sequence number: a drain reports each
//! set bit as the one sequence number in `[head, head + slots)` that
//! maps to it, the ROB head being the caller's. Two posts of the same
//! `(time, seq)` collapse into one bit, and a post naming a seq that
//! has since been squashed, retired or pseudo-retired reads back as
//! whatever instruction holds that slot at drain time. Neither changes
//! what the core does, because both drain sites re-check the
//! instruction against the slot's time (the argument is spelled out at
//! each site in `core.rs`).
//!
//! # Ordering contract
//!
//! Drains yield slots in ascending time and, within a slot, seqs in
//! ascending (age) order from the ROB head — the `(time, seq)` order a
//! `BinaryHeap<Reverse<(Cycle, DynSeq)>>` would pop, which writeback's
//! squash handling depends on.

use crate::types::DynSeq;
use mlpwin_isa::Cycle;

/// Wheel span in cycles (and slots). Covers an unloaded memory round
/// trip with generous queueing margin, so only deeply backed-up DRAM
/// bursts ever reach the overflow list.
pub const HORIZON: usize = 1024;

const OCC_WORDS: usize = HORIZON / 64;

/// Every distinct wake-up source the scheduler tracks. The wheels carry
/// the first two as posted events; the rest are scalar horizons the
/// [`next_wake`](crate::core::Core::next_wake) plan folds in. Carried
/// alongside the bound so telemetry can say *what* ends each coast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeSource {
    /// An instruction's operands arrive (pending-ready wheel).
    OperandReady,
    /// A function unit finishes executing (completion wheel).
    Completion,
    /// An in-flight memory-side fill completes ([`next_event_at`]
    /// contract; consulted in event-driven mode).
    ///
    /// [`next_event_at`]: mlpwin_memsys::MemSystem::next_event_at
    MemSystem,
    /// A runahead episode ends.
    EpisodeEnd,
    /// The post-transition allocation stall expires.
    AllocStall,
    /// The window policy's quiet promise runs out.
    PolicyQuiet,
    /// The front end resumes (queued head decodes, or recovery ends).
    FrontEnd,
    /// An interval-series epoch boundary must be sampled.
    IntervalEpoch,
    /// A snapshot-cadence point must land on a real step.
    SnapshotCadence,
    /// The commit watchdog would trip.
    Watchdog,
    /// The armed run deadline would trip.
    Deadline,
}

impl WakeSource {
    /// Number of distinct sources (histogram width).
    pub const COUNT: usize = 11;

    /// Every source, in [`index`](WakeSource::index) order.
    pub const ALL: [WakeSource; WakeSource::COUNT] = [
        WakeSource::OperandReady,
        WakeSource::Completion,
        WakeSource::MemSystem,
        WakeSource::EpisodeEnd,
        WakeSource::AllocStall,
        WakeSource::PolicyQuiet,
        WakeSource::FrontEnd,
        WakeSource::IntervalEpoch,
        WakeSource::SnapshotCadence,
        WakeSource::Watchdog,
        WakeSource::Deadline,
    ];

    /// Dense histogram index.
    pub fn index(self) -> usize {
        match self {
            WakeSource::OperandReady => 0,
            WakeSource::Completion => 1,
            WakeSource::MemSystem => 2,
            WakeSource::EpisodeEnd => 3,
            WakeSource::AllocStall => 4,
            WakeSource::PolicyQuiet => 5,
            WakeSource::FrontEnd => 6,
            WakeSource::IntervalEpoch => 7,
            WakeSource::SnapshotCadence => 8,
            WakeSource::Watchdog => 9,
            WakeSource::Deadline => 10,
        }
    }

    /// Snake-case label for metric names and reports.
    pub fn label(self) -> &'static str {
        match self {
            WakeSource::OperandReady => "operand_ready",
            WakeSource::Completion => "completion",
            WakeSource::MemSystem => "mem_system",
            WakeSource::EpisodeEnd => "episode_end",
            WakeSource::AllocStall => "alloc_stall",
            WakeSource::PolicyQuiet => "policy_quiet",
            WakeSource::FrontEnd => "front_end",
            WakeSource::IntervalEpoch => "interval_epoch",
            WakeSource::SnapshotCadence => "snapshot_cadence",
            WakeSource::Watchdog => "watchdog",
            WakeSource::Deadline => "deadline",
        }
    }
}

/// Event-engine telemetry totals over a core's lifetime: event-wheel
/// traffic and how the cycle clock advanced (bulk skips versus real
/// steps). Host-side diagnostics — never part of stats or snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events posted into both event wheels.
    pub events_posted: u64,
    /// Events drained from both event wheels (duplicate posts of one
    /// `(time, seq)` drain once).
    pub events_popped: u64,
    /// Cycles advanced in bulk by the stall fast-forward.
    pub skipped_cycles: u64,
    /// Cycles executed as real pipeline steps.
    pub stepped_cycles: u64,
}

impl EngineCounters {
    /// Fraction of all cycles advanced in bulk, in `[0, 1]`.
    pub fn skip_fraction(&self) -> f64 {
        let total = self.skipped_cycles + self.stepped_cycles;
        if total == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / total as f64
        }
    }
}

/// A timing wheel of `(cycle, seq)` wake-up events, one bitmap over ROB
/// slots per cycle.
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// [`HORIZON`] slot bitmaps of `words` words each; slot `t % HORIZON`.
    /// Empty until the first post (see [`EventWheel::with_capacity`]).
    bits: Box<[u64]>,
    /// Words per slot bitmap.
    words: usize,
    /// Ring slots minus one; the slot count is a power of two at least
    /// as large as the biggest ROB.
    mask: u64,
    /// One bit per non-empty slot.
    occupied: [u64; OCC_WORDS],
    /// Every cycle below `cursor` has drained; the slots cover
    /// `[cursor, cursor + HORIZON)`.
    cursor: Cycle,
    /// Earliest queued time, or `Cycle::MAX` when the wheel is empty.
    earliest: Cycle,
    /// Events at or past the horizon when posted, unsorted.
    overflow: Vec<(Cycle, DynSeq)>,
    /// Earliest time in `overflow`, or `Cycle::MAX` when it is empty.
    overflow_min: Cycle,
    /// Host-side telemetry: lifetime posts and drained events.
    /// Deliberately not snapshotted (like the fast-forward's skip
    /// counter): restoring a core resets them to the restored session's
    /// own activity.
    posted: u64,
    popped: u64,
}

impl EventWheel {
    /// An empty wheel with its window starting at cycle 0, able to tell
    /// apart any `capacity` consecutive sequence numbers (rounded up to
    /// a power of two, minimum 64).
    ///
    /// The slot table (`HORIZON × capacity` bits, 64 KB at 512) is
    /// allocated on the first post, so building a core that never
    /// simulates grows the heap no more than the bucket wheel this
    /// replaced did; see `set_bit`.
    pub fn with_capacity(capacity: usize) -> EventWheel {
        let slots = capacity.next_power_of_two().max(64);
        let words = slots / 64;
        EventWheel {
            bits: Box::default(),
            words,
            mask: (slots - 1) as u64,
            occupied: [0; OCC_WORDS],
            cursor: 0,
            earliest: Cycle::MAX,
            overflow: Vec::new(),
            overflow_min: Cycle::MAX,
            posted: 0,
            popped: 0,
        }
    }

    /// Whether no event is queued.
    pub fn is_empty(&self) -> bool {
        self.earliest == Cycle::MAX
    }

    /// Lifetime events posted (telemetry).
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Lifetime events drained (telemetry).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Earliest queued event time, if any.
    pub fn next_time(&self) -> Option<Cycle> {
        (self.earliest != Cycle::MAX).then_some(self.earliest)
    }

    /// Queues an event.
    ///
    /// # Panics
    ///
    /// Panics if `t` is below the wheel's floor (a cycle already
    /// drained: scheduler posts are always strictly in the future).
    #[inline]
    pub fn post(&mut self, t: Cycle, seq: DynSeq) {
        assert!(
            t >= self.cursor,
            "event at {t} posted below floor {}",
            self.cursor
        );
        debug_assert!(t != Cycle::MAX, "Cycle::MAX marks an empty wheel");
        self.posted += 1;
        self.earliest = self.earliest.min(t);
        if t - self.cursor < HORIZON as Cycle {
            self.set_bit(t, seq);
        } else {
            self.overflow.push((t, seq));
            self.overflow_min = self.overflow_min.min(t);
        }
    }

    #[inline]
    fn set_bit(&mut self, t: Cycle, seq: DynSeq) {
        if self.bits.is_empty() {
            // Allocated here rather than at construction: code that builds
            // and drops cores back to back (set-up timing) otherwise pushes
            // the freed heap top past glibc's trim threshold, and every
            // build then pays page faults to regrow the heap.
            self.bits = vec![0; HORIZON * self.words].into_boxed_slice();
        }
        let slot = t as usize & (HORIZON - 1);
        let p = (seq & self.mask) as usize;
        self.bits[slot * self.words + (p >> 6)] |= 1 << (p & 63);
        self.occupied[slot >> 6] |= 1 << (slot & 63);
    }

    /// Drains the earliest slot if it is due (`time <= now`): appends
    /// its events to `out` in age order — each bit as the sequence
    /// number in `[head, head + slots)` holding that ROB slot — and
    /// returns the slot's time. Returns `None` and leaves `out` alone
    /// when nothing is due; call again until it does to drain every due
    /// slot.
    #[inline]
    pub fn drain_due(&mut self, now: Cycle, head: DynSeq, out: &mut Vec<DynSeq>) -> Option<Cycle> {
        if self.earliest > now {
            // Every event lies past `now`, so the window may start at
            // `now + 1`: keeps posts after a long coast inside the wheel.
            self.cursor = self.cursor.max(now + 1);
            return None;
        }
        Some(self.drain_earliest(head, out))
    }

    fn drain_earliest(&mut self, head: DynSeq, out: &mut Vec<DynSeq>) -> Cycle {
        let t = self.earliest;
        self.cursor = t;
        if self.overflow_min < t + HORIZON as Cycle {
            self.migrate_overflow();
        }
        let slot = t as usize & (HORIZON - 1);
        debug_assert!(
            self.occupied[slot >> 6] & (1 << (slot & 63)) != 0,
            "earliest time names an empty slot"
        );
        self.occupied[slot >> 6] &= !(1 << (slot & 63));
        let before = out.len();
        let words = &mut self.bits[slot * self.words..(slot + 1) * self.words];
        let start = (head & self.mask) as usize;
        let (sw, sb) = (start >> 6, start & 63);
        let n = words.len();
        // From the head's bit to the ring's end, then the wrapped arc
        // below it: ascending age.
        for k in 0..=n {
            let w = (sw + k) & (n - 1);
            let mut word = words[w];
            if k == 0 {
                word &= !0u64 << sb;
            } else if k == n {
                word &= !(!0u64 << sb);
            }
            while word != 0 {
                let p = ((w << 6) | word.trailing_zeros() as usize) as u64;
                out.push(head + (p.wrapping_sub(start as u64) & self.mask));
                word &= word - 1;
            }
        }
        words.fill(0);
        self.popped += (out.len() - before) as u64;
        self.cursor = t + 1;
        self.earliest = self.scan_earliest();
        t
    }

    /// Moves overflow events inside `[cursor, cursor + HORIZON)` into
    /// their slots.
    fn migrate_overflow(&mut self) {
        let end = self.cursor + HORIZON as Cycle;
        self.overflow_min = Cycle::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let (t, seq) = self.overflow[i];
            if t < end {
                self.overflow.swap_remove(i);
                self.set_bit(t, seq);
            } else {
                self.overflow_min = self.overflow_min.min(t);
                i += 1;
            }
        }
    }

    /// The exact earliest queued time: the first occupied slot from the
    /// cursor's, wrapping once, against the overflow list.
    fn scan_earliest(&self) -> Cycle {
        let start = self.cursor as usize & (HORIZON - 1);
        let (sw, sb) = (start >> 6, start & 63);
        let mut near = Cycle::MAX;
        for k in 0..=OCC_WORDS {
            let w = (sw + k) % OCC_WORDS;
            let mut word = self.occupied[w];
            if k == 0 {
                word &= !0u64 << sb;
            } else if k == OCC_WORDS {
                word &= !(!0u64 << sb);
            }
            if word != 0 {
                near = self.slot_time(w * 64 + word.trailing_zeros() as usize);
                break;
            }
        }
        near.min(self.overflow_min)
    }

    /// The unique time in `[cursor, cursor + HORIZON)` congruent to
    /// `slot`.
    fn slot_time(&self, slot: usize) -> Cycle {
        let offset = (slot as Cycle).wrapping_sub(self.cursor) & (HORIZON as Cycle - 1);
        self.cursor + offset
    }

    /// Drops every queued event (runahead exit), zeroing only the
    /// occupied slots. The floor — and the telemetry counters — are
    /// unaffected.
    pub fn clear(&mut self) {
        for w in 0..OCC_WORDS {
            let mut occ = self.occupied[w];
            while occ != 0 {
                let slot = w * 64 + occ.trailing_zeros() as usize;
                self.bits[slot * self.words..(slot + 1) * self.words].fill(0);
                occ &= occ - 1;
            }
            self.occupied[w] = 0;
        }
        self.overflow.clear();
        self.overflow_min = Cycle::MAX;
        self.earliest = Cycle::MAX;
    }

    /// Every queued event as ascending, duplicate-free `(time, seq)`
    /// pairs, each seq read back from the ROB head as a drain would —
    /// the serialized form, independent of how events were posted.
    pub fn sorted_events(&self, head: DynSeq) -> Vec<(Cycle, DynSeq)> {
        let live = |seq: DynSeq| head + (seq.wrapping_sub(head) & self.mask);
        let mut out = Vec::new();
        for w in 0..OCC_WORDS {
            let mut occ = self.occupied[w];
            while occ != 0 {
                let slot = w * 64 + occ.trailing_zeros() as usize;
                let t = self.slot_time(slot);
                for (i, &word) in self.bits[slot * self.words..(slot + 1) * self.words]
                    .iter()
                    .enumerate()
                {
                    let mut word = word;
                    while word != 0 {
                        out.push((t, live(((i << 6) | word.trailing_zeros() as usize) as u64)));
                        word &= word - 1;
                    }
                }
                occ &= occ - 1;
            }
        }
        out.extend(self.overflow.iter().map(|&(t, s)| (t, live(s))));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Rebuilds the wheel from serialized events with the window
    /// starting at `floor`. The list may hold duplicates and stale
    /// seqs (as images written by the older sorted-bucket wheel do).
    /// Returns `false` (leaving the wheel cleared) when any event lies
    /// below the floor — a corrupt image, since snapshots are only
    /// taken at step boundaries where every queued event is strictly in
    /// the future.
    #[must_use]
    pub fn restore(&mut self, floor: Cycle, events: &[(Cycle, DynSeq)]) -> bool {
        self.clear();
        self.cursor = floor;
        if events.iter().any(|&(t, _)| t < floor) {
            return false;
        }
        for &(t, seq) in events {
            self.post(t, seq);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Drains every due slot as `(time, seq)` pairs.
    fn drain(w: &mut EventWheel, now: Cycle, head: DynSeq) -> Vec<(Cycle, DynSeq)> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while let Some(t) = w.drain_due(now, head, &mut buf) {
            out.extend(buf.drain(..).map(|s| (t, s)));
        }
        out
    }

    #[test]
    fn drains_ascending_time_then_seq() {
        let mut w = EventWheel::with_capacity(128);
        w.post(5, 30);
        w.post(3, 99);
        w.post(5, 10);
        w.post(3, 1);
        assert_eq!(w.next_time(), Some(3));
        assert_eq!(
            drain(&mut w, 100, 0),
            vec![(3, 1), (3, 99), (5, 10), (5, 30)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn drain_due_respects_now() {
        let mut w = EventWheel::with_capacity(64);
        w.post(10, 1);
        w.post(20, 2);
        assert_eq!(drain(&mut w, 9, 0), vec![]);
        assert_eq!(drain(&mut w, 10, 0), vec![(10, 1)]);
        assert_eq!(drain(&mut w, 19, 0), vec![]);
        assert_eq!(w.next_time(), Some(20));
        assert_eq!(drain(&mut w, 20, 0), vec![(20, 2)]);
        assert_eq!(w.next_time(), None);
    }

    #[test]
    fn duplicate_posts_drain_once() {
        let mut w = EventWheel::with_capacity(64);
        w.post(7, 4);
        w.post(7, 4);
        assert_eq!(drain(&mut w, 7, 0), vec![(7, 4)]);
        assert_eq!((w.posted(), w.popped()), (2, 1));
    }

    #[test]
    fn bits_read_back_from_the_head_in_age_order() {
        // Ring of 64: the live window [100, 164) wraps the ring at 128.
        let mut w = EventWheel::with_capacity(64);
        for seq in [130, 101, 163, 3] {
            w.post(9, seq);
        }
        // Seq 3 shares slot 3 with the live seq 131; 163 is the youngest.
        assert_eq!(
            drain(&mut w, 9, 100),
            vec![(9, 101), (9, 130), (9, 131), (9, 163)]
        );
    }

    #[test]
    fn overflow_events_join_the_wheel_within_the_horizon() {
        let mut w = EventWheel::with_capacity(64);
        let far = HORIZON as Cycle * 3 + 17;
        w.post(far, 8);
        w.post(far, 9);
        w.post(2, 1);
        assert_eq!(w.next_time(), Some(2));
        assert_eq!(drain(&mut w, 2, 0), vec![(2, 1)]);
        assert_eq!(drain(&mut w, far - 1, 0), vec![]);
        // Inside the window now: a post at the same time merges with
        // the overflowed events.
        w.post(far, 10);
        assert_eq!(w.next_time(), Some(far));
        assert_eq!(drain(&mut w, far, 0), vec![(far, 8), (far, 9), (far, 10)]);
        assert!(w.is_empty());
    }

    #[test]
    fn a_long_catch_up_drains_every_slot_in_order() {
        let mut w = EventWheel::with_capacity(64);
        let base = HORIZON as Cycle;
        w.post(base - 1, 1);
        w.post(base + 1, 2);
        w.post(base + 2, 3);
        w.post(base * 2 + 5, 4);
        assert_eq!(
            drain(&mut w, base * 3, 0),
            vec![
                (base - 1, 1),
                (base + 1, 2),
                (base + 2, 3),
                (base * 2 + 5, 4)
            ]
        );
    }

    #[test]
    fn clear_empties_without_moving_the_floor() {
        let mut w = EventWheel::with_capacity(64);
        w.post(100, 1);
        assert_eq!(drain(&mut w, 100, 0), vec![(100, 1)]);
        w.post(150, 2);
        w.post(HORIZON as Cycle * 2, 3);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.next_time(), None);
        assert_eq!(w.sorted_events(0), vec![]);
        // Still usable after clear, with the floor where drains left it.
        w.post(150, 9);
        assert_eq!(drain(&mut w, 150, 0), vec![(150, 9)]);
    }

    #[test]
    #[should_panic(expected = "below floor")]
    fn posting_into_the_past_is_a_bug() {
        let mut w = EventWheel::with_capacity(64);
        w.post(50, 1);
        let _ = drain(&mut w, 50, 0);
        w.post(49, 2);
    }

    #[test]
    fn snapshot_round_trip_preserves_events_and_order() {
        let mut w = EventWheel::with_capacity(64);
        w.post(900, 1);
        let _ = drain(&mut w, 900, 0); // the window now wraps the slots
        for (t, s) in [(901, 5), (1500, 2), (999_999, 7), (901, 3), (901, 67)] {
            w.post(t, s);
        }
        // 67 shares 3's slot and reads back as 3 from head 0.
        let events = w.sorted_events(0);
        assert_eq!(events, vec![(901, 3), (901, 5), (1500, 2), (999_999, 7)]);
        let mut r = EventWheel::with_capacity(64);
        assert!(r.restore(901, &events));
        assert_eq!(r.sorted_events(0), events);
        assert_eq!(drain(&mut r, Cycle::MAX - 1, 0), events);
    }

    #[test]
    fn restore_rejects_events_below_the_floor() {
        let mut w = EventWheel::with_capacity(64);
        assert!(!w.restore(100, &[(99, 1)]));
        assert!(w.is_empty(), "rejected restore leaves the wheel empty");
        assert!(w.restore(100, &[(100, 1)]));
    }

    #[test]
    fn telemetry_counts_posts_and_drained_events() {
        let mut w = EventWheel::with_capacity(64);
        w.post(1, 1);
        w.post(2, 2);
        let _ = drain(&mut w, 1, 0);
        assert_eq!((w.posted(), w.popped()), (2, 1));
        w.clear();
        assert_eq!((w.posted(), w.popped()), (2, 1), "clear keeps telemetry");
    }

    /// An LCG drives post / dispatch / retire / squash / drain / clear /
    /// snapshot traffic against the sorted `(time, seq)` list the old
    /// sorted-bucket wheel kept, with the core's drain filters applied
    /// on both sides: a drained seq acts only if it is live and its
    /// filter time equals the slot's time. The ring is 64 slots, so
    /// heads wrap it constantly and retired, squashed and never-live
    /// seqs alias live ones; some posts land past the horizon. Every
    /// drain must act on the same seqs in the same order (duplicate acts
    /// collapsed), and `next_time` and `sorted_events` must agree.
    #[test]
    fn lcg_fuzz_against_reference_model() {
        const CAP: u64 = 64;
        let mut lcg: u64 = 0x2545F4914F6CDD1D;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut w = EventWheel::with_capacity(CAP as usize);
        let mut model: Vec<(Cycle, DynSeq)> = Vec::new();
        // Filter time per live seq (`ready_time` / `complete_at`).
        let mut key: BTreeMap<DynSeq, Cycle> = BTreeMap::new();
        let (mut head, mut end): (DynSeq, DynSeq) = (1, 1);
        let mut now: Cycle = 0;
        let mut buf = Vec::new();
        let mut acted_overflow = false;
        let mut acts = 0;
        for step in 0..100_000 {
            match next() % 16 {
                // Post: usually for a live seq (setting its filter
                // time), sometimes for any seq nearby (a stale post).
                0..=5 => {
                    let spread = match next() % 8 {
                        0 => 5_000,
                        1 | 2 => 300,
                        _ => 8,
                    };
                    let t = now + 1 + next() % spread;
                    acted_overflow |= t - now > HORIZON as Cycle;
                    if end > head && next() % 4 != 0 {
                        let seq = head + next() % (end - head);
                        key.insert(seq, t);
                        w.post(t, seq);
                        model.push((t, seq));
                    } else {
                        let seq = (head + next() % (3 * CAP)).saturating_sub(CAP);
                        w.post(t, seq);
                        model.push((t, seq));
                    }
                    model.sort_unstable();
                }
                // Dispatch fresh instructions (reusing squashed seqs).
                6 => {
                    let k = (next() % 8).min(CAP - (end - head));
                    for seq in end..end + k {
                        key.remove(&seq);
                    }
                    end += k;
                }
                // Retire (or pseudo-retire) from the head.
                7 => {
                    let k = next() % 8;
                    head = (head + k).min(end);
                    key.retain(|&s, _| s >= head);
                }
                // Squash a younger tail.
                8 => {
                    end = head + next() % (end - head + 1);
                    key.retain(|&s, _| s < end);
                }
                // Advance time and drain, completion-style (an act
                // consumes the filter time) or ready-style (it does not),
                // with branch-like acts squashing everything younger.
                9..=11 => {
                    now += if next() % 4 == 0 {
                        next() % 700
                    } else {
                        next() % 3
                    };
                    let consume = next() % 2 == 0;
                    let act = |seq: DynSeq,
                               t: Cycle,
                               key: &mut BTreeMap<DynSeq, Cycle>,
                               end: &mut DynSeq,
                               acts: &mut Vec<(Cycle, DynSeq)>| {
                        if seq < head || seq >= *end || key.get(&seq) != Some(&t) {
                            return;
                        }
                        acts.push((t, seq));
                        if consume {
                            key.remove(&seq);
                        }
                        if seq % 16 == 3 {
                            *end = seq + 1;
                            key.retain(|&s, _| s < *end);
                        }
                    };
                    let (mut key_ref, mut end_ref) = (key.clone(), end);
                    let mut want = Vec::new();
                    let due = model.partition_point(|&(t, _)| t <= now);
                    for (t, seq) in model.drain(..due) {
                        act(seq, t, &mut key_ref, &mut end_ref, &mut want);
                    }
                    let mut got = Vec::new();
                    while let Some(t) = w.drain_due(now, head, &mut buf) {
                        for seq in buf.drain(..) {
                            act(seq, t, &mut key, &mut end, &mut got);
                        }
                    }
                    want.dedup();
                    assert_eq!(got, want, "drain at {now} diverged (step {step})");
                    acts += got.len();
                    assert_eq!((key.clone(), end), (key_ref, end_ref));
                    assert_eq!(w.next_time(), model.first().map(|&(t, _)| t));
                }
                // Runahead exit: the window and every event go.
                12 => {
                    if next() % 4 == 0 {
                        w.clear();
                        model.clear();
                        head = end;
                        key.clear();
                    }
                }
                // Snapshot: the serialized list is the model read back
                // from the head; restore either it or the model's raw
                // list (as an older image would hold) into a fresh wheel.
                13 => {
                    let live = |s: DynSeq| head + (s.wrapping_sub(head) & (CAP - 1));
                    let mut expect: Vec<_> = model.iter().map(|&(t, s)| (t, live(s))).collect();
                    expect.sort_unstable();
                    expect.dedup();
                    let events = w.sorted_events(head);
                    assert_eq!(events, expect, "serialized form diverged (step {step})");
                    let mut r = EventWheel::with_capacity(CAP as usize);
                    let src = if next() % 2 == 0 { &events } else { &model };
                    assert!(r.restore(now + 1, src));
                    w = r;
                }
                _ => {
                    assert_eq!(w.next_time(), model.first().map(|&(t, _)| t));
                    assert_eq!(w.is_empty(), model.is_empty());
                }
            }
        }
        assert!(acts > 2_500, "the filters must pass often: {acts} acts");
        assert!(acted_overflow, "the run must post past the horizon");
        assert!(head > 20 * CAP, "heads must wrap the ring many times");
    }
}
