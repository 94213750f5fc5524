//! Miss-status holding registers (MSHRs) — the structure that makes the
//! caches non-blocking.
//!
//! Each entry tracks one in-flight line fill. A second access to the same
//! line *merges* into the existing entry (returning the same completion
//! time) instead of issuing a duplicate request. When the file is full,
//! new misses are rejected and the requester must retry — bounding the
//! number of outstanding misses the cache level supports.
//!
//! Every L1D hit asks whether its line is still in flight, and every
//! miss first reclaims completed entries, so two early-outs sit in front
//! of the entry scans: a counting filter over line-address hashes (a
//! line whose bucket reads zero has no entry, so the lookup skips the
//! scan) and the cached earliest completion time (reclaiming does work
//! only once some fill is due). Both are exact shortcuts: they decide
//! whether to scan, never what the scan finds.

use mlpwin_isa::{Addr, Cycle};

/// Outcome of asking the MSHR file to track a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must issue the fill request.
    Allocated,
    /// The line is already in flight; data arrives at the given cycle.
    Merged(Cycle),
    /// No free entry; the access must retry later.
    Full,
}

#[derive(Debug, Clone, Copy)]
struct MshrEntry {
    line_addr: Addr,
    complete_at: Cycle,
}

/// log2 of the number of counting-filter buckets.
const FILTER_BITS: u32 = 11;

/// The filter bucket of `line_addr`: a Fibonacci hash, so line strides
/// of any power of two spread over every bucket.
#[inline]
fn bucket(line_addr: Addr) -> usize {
    (line_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FILTER_BITS)) as usize
}

/// A file of MSHRs for one cache level.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    /// Counting filter: each entry increments its line's bucket. A
    /// lookup whose bucket reads zero provably has no entry. Allocated
    /// with the first entry, like the event wheels' slot tables.
    filter: Box<[u16]>,
    /// Earliest `complete_at` among the entries; `Cycle::MAX` when
    /// there are none (or all still await [`MshrFile::set_completion`]).
    earliest: Cycle,
    /// Peak simultaneous occupancy, for reporting.
    peak: usize,
    merges: u64,
    allocations: u64,
    rejections: u64,
}

impl MshrFile {
    /// Creates an empty file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above `u16::MAX` (the filter's
    /// counter width).
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        assert!(capacity <= u16::MAX as usize, "MSHR filter counts in u16");
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            filter: Box::default(),
            earliest: Cycle::MAX,
            peak: 0,
            merges: 0,
            allocations: 0,
            rejections: 0,
        }
    }

    /// Drops entries whose fills have completed as of `now`.
    #[inline]
    pub fn expire(&mut self, now: Cycle) {
        if self.earliest > now {
            return; // nothing due
        }
        let (filter, mut earliest) = (&mut self.filter, Cycle::MAX);
        self.entries.retain(|e| {
            let keep = e.complete_at > now;
            if keep {
                earliest = earliest.min(e.complete_at);
            } else {
                filter[bucket(e.line_addr)] -= 1;
            }
            keep
        });
        self.earliest = earliest;
    }

    fn min_completion(&self) -> Cycle {
        self.entries
            .iter()
            .map(|e| e.complete_at)
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Looks up an in-flight fill for `line_addr` (without expiring).
    #[inline]
    pub fn pending(&self, line_addr: Addr) -> Option<Cycle> {
        if self.filter.get(bucket(line_addr)).is_none_or(|&c| c == 0) {
            return None;
        }
        self.entries
            .iter()
            .find(|e| e.line_addr == line_addr)
            .map(|e| e.complete_at)
    }

    /// Tries to track a miss on `line_addr` at cycle `now`. Expired
    /// entries are reclaimed first. On [`MshrOutcome::Allocated`] the
    /// caller must follow up with [`MshrFile::set_completion`] once it
    /// knows the fill's completion time.
    pub fn begin_miss(&mut self, line_addr: Addr, now: Cycle) -> MshrOutcome {
        self.expire(now);
        if let Some(t) = self.pending(line_addr) {
            self.merges += 1;
            return MshrOutcome::Merged(t);
        }
        if self.entries.len() >= self.capacity {
            self.rejections += 1;
            return MshrOutcome::Full;
        }
        self.entries.push(MshrEntry {
            line_addr,
            complete_at: Cycle::MAX, // patched by set_completion
        });
        if self.filter.is_empty() {
            self.filter = vec![0; 1 << FILTER_BITS].into_boxed_slice();
        }
        self.filter[bucket(line_addr)] += 1;
        self.allocations += 1;
        self.peak = self.peak.max(self.entries.len());
        MshrOutcome::Allocated
    }

    /// Records the completion time of the most recently allocated entry
    /// for `line_addr`.
    ///
    /// # Panics
    ///
    /// Panics if no entry exists for `line_addr` (misuse of the API).
    pub fn set_completion(&mut self, line_addr: Addr, complete_at: Cycle) {
        // `begin_miss` merges into an existing entry, so a line has at
        // most one entry; searching from the newest finds the entry just
        // allocated first.
        let e = self
            .entries
            .iter_mut()
            .rev()
            .find(|e| e.line_addr == line_addr)
            .expect("set_completion without begin_miss");
        let old = std::mem::replace(&mut e.complete_at, complete_at);
        if complete_at <= self.earliest {
            self.earliest = complete_at;
        } else if old == self.earliest {
            self.earliest = self.min_completion(); // the minimum moved later
        }
    }

    /// Earliest completion time among tracked fills, if any — the retry
    /// horizon when the file is full.
    pub fn earliest_completion(&self) -> Option<Cycle> {
        (!self.entries.is_empty()).then_some(self.earliest)
    }

    /// Number of currently tracked in-flight fills (including expired ones
    /// not yet reclaimed).
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Peak simultaneous occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// (allocations, merges, rejections) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.allocations, self.merges, self.rejections)
    }

    /// Serializes the in-flight entries and counters.
    pub fn save_state(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        w.put_seq(self.entries.iter(), |w, e| {
            w.put_u64(e.line_addr);
            w.put_u64(e.complete_at);
        });
        w.put_usize(self.peak);
        w.put_u64(self.merges);
        w.put_u64(self.allocations);
        w.put_u64(self.rejections);
    }

    /// Restores the state written by [`MshrFile::save_state`]; capacity
    /// stays as constructed, and the filter and earliest completion time
    /// are rebuilt from the entries.
    pub fn load_state(
        &mut self,
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<(), mlpwin_isa::snap::SnapError> {
        let entries = r.get_seq(|r| {
            Ok(MshrEntry {
                line_addr: r.get_u64()?,
                complete_at: r.get_u64()?,
            })
        })?;
        if entries.len() > self.capacity {
            return Err(mlpwin_isa::snap::SnapError::Mismatch {
                what: "MSHR capacity",
            });
        }
        self.filter = vec![0; 1 << FILTER_BITS].into_boxed_slice();
        for e in &entries {
            self.filter[bucket(e.line_addr)] += 1;
        }
        self.entries = entries;
        self.earliest = self.min_completion();
        self.peak = r.get_usize()?;
        self.merges = r.get_u64()?;
        self.allocations = r.get_u64()?;
        self.rejections = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.begin_miss(0x100, 0), MshrOutcome::Allocated);
        m.set_completion(0x100, 300);
        assert_eq!(m.begin_miss(0x100, 10), MshrOutcome::Merged(300));
        assert_eq!(m.counters(), (1, 1, 0));
    }

    #[test]
    fn full_file_rejects() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.begin_miss(0x100, 0), MshrOutcome::Allocated);
        m.set_completion(0x100, 300);
        assert_eq!(m.begin_miss(0x200, 0), MshrOutcome::Allocated);
        m.set_completion(0x200, 300);
        assert_eq!(m.begin_miss(0x300, 0), MshrOutcome::Full);
        assert_eq!(m.counters().2, 1);
    }

    #[test]
    fn expiry_frees_entries() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.begin_miss(0x100, 0), MshrOutcome::Allocated);
        m.set_completion(0x100, 300);
        // Still in flight at 299.
        assert_eq!(m.begin_miss(0x200, 299), MshrOutcome::Full);
        // Free at 300 (completion cycle means data available).
        assert_eq!(m.begin_miss(0x200, 300), MshrOutcome::Allocated);
    }

    #[test]
    fn peak_occupancy_tracks_high_water_mark() {
        let mut m = MshrFile::new(4);
        for (i, a) in [0x0u64, 0x40, 0x80].iter().enumerate() {
            assert_eq!(m.begin_miss(*a, 0), MshrOutcome::Allocated);
            m.set_completion(*a, 500);
            assert_eq!(m.peak_occupancy(), i + 1);
        }
        m.expire(1000);
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.peak_occupancy(), 3);
    }

    #[test]
    #[should_panic(expected = "set_completion without begin_miss")]
    fn set_completion_requires_entry() {
        let mut m = MshrFile::new(1);
        m.set_completion(0xdead, 1);
    }

    #[test]
    fn lookups_skip_the_scan_only_for_absent_lines() {
        let mut m = MshrFile::new(8);
        assert_eq!(m.pending(0x100), None);
        assert_eq!(m.begin_miss(0x100, 0), MshrOutcome::Allocated);
        m.set_completion(0x100, 50);
        assert_eq!(m.pending(0x100), Some(50));
        // A completed but unreclaimed fill is still found.
        assert_eq!(m.pending(0x100), Some(50));
        m.expire(50);
        assert_eq!(m.pending(0x100), None, "reclaimed entries leave the filter");
        assert_eq!(m.earliest_completion(), None);
    }

    #[test]
    fn earliest_completion_follows_set_and_expire() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.begin_miss(0x100, 0), MshrOutcome::Allocated);
        assert_eq!(m.earliest_completion(), Some(Cycle::MAX), "awaiting set");
        m.set_completion(0x100, 300);
        assert_eq!(m.begin_miss(0x200, 0), MshrOutcome::Allocated);
        m.set_completion(0x200, 100);
        assert_eq!(m.earliest_completion(), Some(100));
        // Moving the minimum later re-derives it.
        m.set_completion(0x200, 400);
        assert_eq!(m.earliest_completion(), Some(300));
        m.expire(300);
        assert_eq!(m.earliest_completion(), Some(400));
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn snapshot_restore_rebuilds_filter_and_earliest() {
        let mut m = MshrFile::new(4);
        for (a, t) in [(0x100, 90), (0x200, 40)] {
            assert_eq!(m.begin_miss(a, 0), MshrOutcome::Allocated);
            m.set_completion(a, t);
        }
        let mut w = mlpwin_isa::snap::SnapWriter::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = MshrFile::new(4);
        r.load_state(&mut mlpwin_isa::snap::SnapReader::new(&bytes))
            .expect("restore");
        assert_eq!(r.pending(0x200), Some(40));
        assert_eq!(r.earliest_completion(), Some(40));
        r.expire(40);
        assert_eq!((r.pending(0x200), r.occupancy()), (None, 1));
    }

    /// The linear MSHR file this one replaced: every lookup scans, every
    /// miss retains. Kept as the reference model for the shortcuts.
    mod reference {
        use super::*;

        pub struct LinearMshrFile {
            entries: Vec<MshrEntry>,
            capacity: usize,
            pub peak: usize,
            pub merges: u64,
            pub allocations: u64,
            pub rejections: u64,
        }

        impl LinearMshrFile {
            pub fn new(capacity: usize) -> LinearMshrFile {
                LinearMshrFile {
                    entries: Vec::new(),
                    capacity,
                    peak: 0,
                    merges: 0,
                    allocations: 0,
                    rejections: 0,
                }
            }

            pub fn expire(&mut self, now: Cycle) {
                self.entries.retain(|e| e.complete_at > now);
            }

            pub fn pending(&self, line_addr: Addr) -> Option<Cycle> {
                self.entries
                    .iter()
                    .find(|e| e.line_addr == line_addr)
                    .map(|e| e.complete_at)
            }

            pub fn begin_miss(&mut self, line_addr: Addr, now: Cycle) -> MshrOutcome {
                self.expire(now);
                if let Some(t) = self.pending(line_addr) {
                    self.merges += 1;
                    return MshrOutcome::Merged(t);
                }
                if self.entries.len() >= self.capacity {
                    self.rejections += 1;
                    return MshrOutcome::Full;
                }
                self.entries.push(MshrEntry {
                    line_addr,
                    complete_at: Cycle::MAX,
                });
                self.allocations += 1;
                self.peak = self.peak.max(self.entries.len());
                MshrOutcome::Allocated
            }

            pub fn set_completion(&mut self, line_addr: Addr, complete_at: Cycle) {
                let e = self
                    .entries
                    .iter_mut()
                    .find(|e| e.line_addr == line_addr)
                    .expect("set_completion without begin_miss");
                e.complete_at = complete_at;
            }

            pub fn earliest_completion(&self) -> Option<Cycle> {
                self.entries.iter().map(|e| e.complete_at).min()
            }

            pub fn occupancy(&self) -> usize {
                self.entries.len()
            }
        }
    }

    /// An LCG drives the same begin_miss / set_completion / pending /
    /// expire / earliest_completion traffic into this file and the
    /// linear reference, over a line set small enough to merge often and
    /// large enough to fill the file and collide in the filter, and
    /// demands identical answers, occupancy, peak and counters.
    #[test]
    fn lcg_fuzz_against_the_linear_reference() {
        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut m = MshrFile::new(48);
        let mut r = reference::LinearMshrFile::new(48);
        let mut now: Cycle = 0;
        let (mut merges, mut fulls, mut hits) = (0, 0, 0);
        for step in 0..200_000 {
            let line = (next() % 160) * 64 + if next() % 16 == 0 { 1 << 40 } else { 0 };
            match next() % 8 {
                0..=2 => {
                    let got = m.begin_miss(line, now);
                    assert_eq!(got, r.begin_miss(line, now), "begin_miss at step {step}");
                    match got {
                        MshrOutcome::Allocated => {
                            // Usually patched at once, sometimes left
                            // pending (an unset entry never expires).
                            if next() % 8 != 0 {
                                let t = now + 1 + next() % 400;
                                m.set_completion(line, t);
                                r.set_completion(line, t);
                            }
                        }
                        MshrOutcome::Merged(_) => merges += 1,
                        MshrOutcome::Full => fulls += 1,
                    }
                }
                3 => {
                    // Re-time a tracked fill, earlier or later.
                    if r.pending(line).is_some() {
                        let t = now + next() % 400;
                        m.set_completion(line, t);
                        r.set_completion(line, t);
                    }
                }
                4..=5 => {
                    let got = m.pending(line);
                    hits += got.is_some() as u32;
                    assert_eq!(got, r.pending(line), "pending at step {step}");
                }
                6 => {
                    m.expire(now);
                    r.expire(now);
                }
                _ => now += next() % 40,
            }
            assert_eq!(m.earliest_completion(), r.earliest_completion());
            assert_eq!(m.occupancy(), r.occupancy());
        }
        assert_eq!(m.peak_occupancy(), r.peak);
        assert_eq!(m.counters(), (r.allocations, r.merges, r.rejections));
        assert!(merges > 1_000 && fulls > 1_000 && hits > 1_000);
    }
}
