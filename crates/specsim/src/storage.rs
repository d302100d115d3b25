//! Speculative storage buffers.
//!
//! Each in-flight segment owns one bounded [`SpecBuffer`] (HOSE Property 4:
//! "Each segment has its own speculative storage. It is empty at the
//! beginning of each segment's execution and after each roll-back").
//! Entries hold both data values and the reference-tracking information the
//! speculation engine needs (HOSE Property 5): whether the location was
//! written, whether it was read *exposed* (the value came from outside the
//! segment — the reads that can violate cross-segment flow dependences), and
//! when the first exposed read happened.
//!
//! The buffer is a **dense, epoch-versioned shadow array** over the
//! procedure's flat address space: [`Layout`](refidem_ir::memory::Layout)
//! assigns every data word a dense address in `0..total_words`, so lookup
//! and allocation are direct array indexing instead of a `BTreeMap`
//! traversal. A per-buffer epoch counter plus per-address generation
//! stamps make [`SpecBuffer::clear`] (roll-back/commit) O(1) — stale
//! entries are invalidated by bumping the epoch, not by touching them —
//! and a journal of the addresses touched in the current epoch makes
//! occupancy tracking, overflow checks and the commit drain
//! ([`SpecBuffer::dirty`], an unsorted iterator over the journal)
//! proportional to the number of *touched* entries, never to the address
//! space.

use refidem_ir::memory::Addr;

/// One speculative-storage entry.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpecEntry {
    /// Latest value written or read into the entry.
    pub value: f64,
    /// The segment wrote this location (the entry is dirty and will be
    /// committed).
    pub written: bool,
    /// The segment performed an exposed read of this location (the value
    /// was consumed from an ancestor segment or from non-speculative
    /// storage before any local write).
    pub exposed_read: bool,
    /// Time of the first exposed read (for diagnostics; any exposed read is
    /// premature with respect to a later older-segment write).
    pub first_read_time: u64,
    /// Time of the most recent write (used to detect reads that execute
    /// before an older segment's write in simulated time even though the
    /// write was processed first).
    pub last_write_time: u64,
}

/// Per-address slot of the dense index: the epoch the address was last
/// touched in, and where its entry lives in the compact journal.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct IndexSlot {
    stamp: u32,
    pos: u32,
}

/// Where one address stands in a [`SpecBuffer`], from one probe of its
/// dense index ([`SpecBuffer::probe`]).
///
/// A probe stays valid until the buffer next changes, so an access probes
/// once and reuses the answer: a hit reads or updates the entry it found,
/// `Full` is the overflow check, and `Vacant` lets
/// [`SpecBuffer::record_write`] or [`SpecBuffer::record_exposed_read`]
/// allocate the entry without probing the index again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The address has an entry in the current epoch, at this journal
    /// position.
    Hit(u32),
    /// No entry, and one more fits.
    Vacant,
    /// No entry, and the buffer is full: allocating one would overflow.
    Full,
}

/// A bounded, per-segment speculative storage buffer over a dense address
/// space of `0..address_words`.
///
/// Layout: a dense 8-byte-per-word *index* (`(epoch stamp, position)`),
/// plus a compact journal of `(address, entry)` pairs in touch order whose
/// length is bounded by the buffer capacity. A [`probe`](Self::probe) is
/// one array read; allocation appends to the journal; `clear` bumps the
/// epoch (O(1)) so a fresh segment pays only the index allocation — and
/// the engine pools buffers across segments, regions and calls, so even
/// that happens once per processor.
///
/// ```
/// use refidem_specsim::{Probe, SpecBuffer};
/// use refidem_ir::memory::Addr;
///
/// let mut buf = SpecBuffer::new(2, 16);
/// let at = buf.probe(Addr(3)); // one probe: the miss, then the insert
/// assert_eq!(at, Probe::Vacant);
/// buf.record_exposed_read(Addr(3), at, 1.5, 10);
/// buf.record_write(Addr(7), buf.probe(Addr(7)), 2.0, 11);
/// assert!(buf.has_exposed_read(Addr(3)));
/// assert!(buf.entry(buf.probe(Addr(7))).is_some_and(|e| e.written));
/// assert_eq!(buf.probe(Addr(9)), Probe::Full, "capacity 2 is full");
/// assert_eq!(buf.dirty().collect::<Vec<_>>(), [(Addr(7), 2.0)]);
/// buf.clear(); // O(1) epoch bump, e.g. on roll-back
/// assert!(buf.is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpecBuffer {
    index: Vec<IndexSlot>,
    journal: Vec<(u64, SpecEntry)>,
    epoch: u32,
    capacity: usize,
    peak: usize,
}

impl SpecBuffer {
    /// Creates an empty buffer with the given capacity (in entries) over an
    /// address space of `address_words` words (the owning procedure's
    /// [`Layout::total_words`](refidem_ir::memory::Layout::total_words)).
    pub fn new(capacity: usize, address_words: u64) -> Self {
        let words = address_words as usize;
        SpecBuffer {
            index: vec![IndexSlot::default(); words],
            journal: Vec::with_capacity(capacity.min(words)),
            epoch: 1,
            capacity,
            peak: 0,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.journal.len()
    }

    /// True when no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The address-space size (in words) the buffer was created over.
    pub fn address_words(&self) -> u64 {
        self.index.len() as u64
    }

    /// Re-targets an **empty** buffer at a different capacity, so a pooled
    /// buffer can be reused across sweep points without reallocating its
    /// dense index. Panics when entries are occupied (capacity changes
    /// mid-segment have no meaning).
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(
            self.journal.is_empty(),
            "capacity can only change on an empty buffer"
        );
        self.capacity = capacity;
    }

    /// Highest occupancy observed since the last clear.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Probes the dense index once for `addr`: where its entry is, or
    /// whether one more would fit. Reuse the answer for the access (see
    /// [`Probe`]).
    #[inline]
    pub fn probe(&self, addr: Addr) -> Probe {
        let slot = self.index[addr.0 as usize];
        if slot.stamp == self.epoch {
            Probe::Hit(slot.pos)
        } else if self.journal.len() >= self.capacity {
            Probe::Full
        } else {
            Probe::Vacant
        }
    }

    /// The entry a [`Probe::Hit`] found; `None` for a miss.
    #[inline]
    pub fn entry(&self, probe: Probe) -> Option<&SpecEntry> {
        match probe {
            Probe::Hit(pos) => Some(&self.journal[pos as usize].1),
            Probe::Vacant | Probe::Full => None,
        }
    }

    /// Looks an entry up.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<&SpecEntry> {
        let slot = self.index[addr.0 as usize];
        if slot.stamp == self.epoch {
            Some(&self.journal[slot.pos as usize].1)
        } else {
            None
        }
    }

    /// True when the buffer records an exposed read of `addr`.
    #[inline]
    pub fn has_exposed_read(&self, addr: Addr) -> bool {
        self.get(addr).is_some_and(|e| e.exposed_read)
    }

    /// The entry for `addr` that `probe` (this buffer's current probe of
    /// `addr`) located, allocated in the current epoch when vacant. Panics
    /// on [`Probe::Full`]: the caller handles overflow first.
    #[inline]
    fn entry_at(&mut self, addr: Addr, probe: Probe) -> &mut SpecEntry {
        debug_assert_eq!(probe, self.probe(addr), "stale probe of {addr:?}");
        let pos = match probe {
            Probe::Hit(pos) => pos as usize,
            Probe::Vacant => {
                let pos = self.journal.len();
                self.index[addr.0 as usize] = IndexSlot {
                    stamp: self.epoch,
                    pos: pos as u32,
                };
                self.journal.push((addr.0, SpecEntry::default()));
                self.peak = self.peak.max(pos + 1);
                pos
            }
            Probe::Full => panic!("speculative buffer overflow at {addr:?}: handle Probe::Full"),
        };
        &mut self.journal[pos].1
    }

    /// Records a write performed at time `now`, at `probe` — this buffer's
    /// current [`probe`](Self::probe) of `addr`, which must not be
    /// [`Probe::Full`].
    pub fn record_write(&mut self, addr: Addr, probe: Probe, value: f64, now: u64) {
        let entry = self.entry_at(addr, probe);
        entry.value = value;
        entry.written = true;
        entry.last_write_time = now;
    }

    /// Records an exposed read that obtained `value` from outside the
    /// segment at time `now`, at `probe` (as for
    /// [`record_write`](Self::record_write)).
    pub fn record_exposed_read(&mut self, addr: Addr, probe: Probe, value: f64, now: u64) {
        let entry = self.entry_at(addr, probe);
        if !entry.exposed_read {
            entry.exposed_read = true;
            entry.first_read_time = now;
        }
        if !entry.written {
            entry.value = value;
        }
    }

    /// Values written by the segment, in touch order: what a commit drains
    /// into non-speculative storage. Each address appears at most once, so
    /// the drain order cannot change the resulting memory. Iterates the
    /// journal, never the address space, and allocates nothing.
    pub fn dirty(&self) -> impl Iterator<Item = (Addr, f64)> + '_ {
        self.journal
            .iter()
            .filter(|(_, e)| e.written)
            .map(|(a, e)| (Addr(*a), e.value))
    }

    /// Addresses touched in the current epoch, in touch order (the engine
    /// uses this to retract its per-address dependence masks before a
    /// clear).
    pub fn touched_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.journal.iter().map(|(a, _)| Addr(*a))
    }

    /// The addresses of the index and journal allocations (pool-reuse
    /// tests compare them).
    #[cfg(test)]
    pub(crate) fn heap_addrs(&self) -> [usize; 2] {
        [self.index.as_ptr() as usize, self.journal.as_ptr() as usize]
    }

    /// Clears the buffer (roll-back or commit), keeping the capacity and
    /// resetting the peak statistic. O(1): the epoch bump invalidates every
    /// stale index slot at once.
    pub fn clear(&mut self) {
        self.journal.clear();
        self.peak = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped: physically reset the index once every
            // ~4 billion clears so stale stamps can never alias the new
            // epoch.
            self.index.fill(IndexSlot::default());
            self.epoch = 1;
        }
    }
}

/// Per-segment private storage (the per-segment private stacks of
/// Section 5), dense and epoch-versioned like [`SpecBuffer`]: a private
/// read hits the shadow array when the segment has privately written the
/// address in the current epoch, and `clear` is an O(1) epoch bump on
/// roll-back or commit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrivateStore {
    index: Vec<IndexSlot>,
    values: Vec<f64>,
    epoch: u32,
}

impl PrivateStore {
    /// Creates an empty private store over `address_words` words.
    pub fn new(address_words: u64) -> Self {
        PrivateStore {
            index: vec![IndexSlot::default(); address_words as usize],
            values: Vec::new(),
            epoch: 1,
        }
    }

    /// The privately written value of `addr`, if any.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<f64> {
        let slot = self.index[addr.0 as usize];
        if slot.stamp == self.epoch {
            Some(self.values[slot.pos as usize])
        } else {
            None
        }
    }

    /// Records a private write.
    #[inline]
    pub fn insert(&mut self, addr: Addr, value: f64) {
        let i = addr.0 as usize;
        if self.index[i].stamp == self.epoch {
            self.values[self.index[i].pos as usize] = value;
        } else {
            self.index[i] = IndexSlot {
                stamp: self.epoch,
                pos: self.values.len() as u32,
            };
            self.values.push(value);
        }
    }

    /// The addresses of the index and value allocations (pool-reuse tests
    /// compare them).
    #[cfg(test)]
    pub(crate) fn heap_addrs(&self) -> [usize; 2] {
        [self.index.as_ptr() as usize, self.values.as_ptr() as usize]
    }

    /// Discards every private value (roll-back or commit).
    pub fn clear(&mut self) {
        self.values.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.index.fill(IndexSlot::default());
            self.epoch = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Address-space size used by most tests.
    const WORDS: u64 = 64;

    /// Probes once and records a write there.
    fn write(b: &mut SpecBuffer, addr: Addr, value: f64, now: u64) {
        let at = b.probe(addr);
        b.record_write(addr, at, value, now);
    }

    /// Probes once and records an exposed read there.
    fn read(b: &mut SpecBuffer, addr: Addr, value: f64, now: u64) {
        let at = b.probe(addr);
        b.record_exposed_read(addr, at, value, now);
    }

    fn written(b: &SpecBuffer, addr: Addr) -> bool {
        b.get(addr).is_some_and(|e| e.written)
    }

    #[test]
    fn writes_and_exposed_reads_are_tracked_separately() {
        let mut b = SpecBuffer::new(4, WORDS);
        read(&mut b, Addr(10), 1.5, 7);
        assert!(b.has_exposed_read(Addr(10)));
        assert!(!written(&b, Addr(10)));
        assert_eq!(b.get(Addr(10)).unwrap().value, 1.5);
        assert_eq!(b.get(Addr(10)).unwrap().first_read_time, 7);
        // A later write to the same address marks it dirty but keeps the
        // exposed-read flag (the premature read already happened).
        write(&mut b, Addr(10), 2.0, 8);
        assert!(written(&b, Addr(10)));
        assert!(b.has_exposed_read(Addr(10)));
        assert_eq!(b.get(Addr(10)).unwrap().value, 2.0);
        assert_eq!(b.get(Addr(10)).unwrap().last_write_time, 8);
        // A covered read (after a local write) does not set the exposed flag:
        // the engine simply does not call record_exposed_read in that case.
        assert_eq!(b.dirty().count(), 1);
    }

    #[test]
    fn exposed_read_does_not_clobber_written_value() {
        let mut b = SpecBuffer::new(4, WORDS);
        write(&mut b, Addr(3), 9.0, 1);
        read(&mut b, Addr(3), 1.0, 2);
        assert_eq!(b.get(Addr(3)).unwrap().value, 9.0);
    }

    #[test]
    fn capacity_and_peak_tracking() {
        let mut b = SpecBuffer::new(2, WORDS);
        assert!(b.probe(Addr(1)) != Probe::Full);
        write(&mut b, Addr(1), 1.0, 1);
        write(&mut b, Addr(2), 2.0, 2);
        assert!(b.probe(Addr(3)) == Probe::Full);
        assert!(
            b.probe(Addr(1)) != Probe::Full,
            "existing entries never overflow"
        );
        assert_eq!(b.peak(), 2);
        assert_eq!(b.len(), 2);
        let dirty: Vec<_> = b.dirty().collect();
        assert_eq!(dirty, [(Addr(1), 1.0), (Addr(2), 2.0)]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.peak(), 0);
        assert_eq!(b.capacity(), 2);
    }

    #[test]
    fn first_read_time_is_preserved_across_repeated_reads() {
        let mut b = SpecBuffer::new(4, WORDS);
        read(&mut b, Addr(5), 1.0, 10);
        read(&mut b, Addr(5), 1.0, 99);
        assert_eq!(b.get(Addr(5)).unwrap().first_read_time, 10);
    }

    #[test]
    fn clear_invalidates_stale_entries_without_touching_them() {
        let mut b = SpecBuffer::new(4, WORDS);
        write(&mut b, Addr(7), 1.0, 1);
        read(&mut b, Addr(9), 2.0, 2);
        b.clear();
        // Epoch bump: every previous entry is invisible.
        assert_eq!(b.get(Addr(7)), None);
        assert!(!written(&b, Addr(7)));
        assert!(!b.has_exposed_read(Addr(9)));
        assert_eq!(b.dirty().count(), 0);
        // Re-touching a stale address yields a fresh default entry.
        read(&mut b, Addr(7), 5.0, 3);
        let e = b.get(Addr(7)).unwrap();
        assert!(!e.written, "stale written flag must not leak across epochs");
        assert_eq!(e.value, 5.0);
        assert_eq!(e.first_read_time, 3);
    }

    #[test]
    fn dirty_yields_each_written_address_once_in_touch_order() {
        let mut b = SpecBuffer::new(8, WORDS);
        write(&mut b, Addr(30), 3.0, 1);
        write(&mut b, Addr(5), 1.0, 2);
        read(&mut b, Addr(12), 9.0, 3);
        write(&mut b, Addr(20), 2.0, 4);
        // Rewrites and a later exposed read update the one entry in place.
        write(&mut b, Addr(30), 4.0, 5);
        read(&mut b, Addr(5), 8.0, 6);
        let dirty: Vec<_> = b.dirty().collect();
        assert_eq!(dirty, [(Addr(30), 4.0), (Addr(5), 1.0), (Addr(20), 2.0)]);
    }

    #[test]
    fn capacity_one_boundary_overflow_and_rollback() {
        // The smallest rung of the testkit's capacity ladder: one entry.
        let mut b = SpecBuffer::new(1, WORDS);
        assert!(
            b.probe(Addr(0)) != Probe::Full,
            "first allocation always fits"
        );
        write(&mut b, Addr(0), 1.0, 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.peak(), 1);
        // Any *other* address overflows; the resident one never does.
        assert!(b.probe(Addr(1)) == Probe::Full);
        assert!(b.probe(Addr(63)) == Probe::Full);
        assert!(b.probe(Addr(0)) != Probe::Full);
        read(&mut b, Addr(0), 2.0, 2);
        assert_eq!(
            b.len(),
            1,
            "re-touching the resident entry allocates nothing"
        );
        // Roll-back: the buffer is empty again and the *other* address can
        // now take the single slot.
        b.clear();
        assert!(b.probe(Addr(1)) != Probe::Full);
        write(&mut b, Addr(1), 7.0, 3);
        assert!(b.probe(Addr(0)) == Probe::Full);
        assert_eq!(b.dirty().collect::<Vec<_>>(), [(Addr(1), 7.0)]);
    }

    #[test]
    fn capacity_equal_to_address_space_never_overflows() {
        // The other boundary: capacity == total_words. Every address can be
        // resident simultaneously, so no access may ever overflow.
        let words = 16u64;
        let mut b = SpecBuffer::new(words as usize, words);
        for a in 0..words {
            assert!(b.probe(Addr(a)) != Probe::Full, "address {a} must fit");
            write(&mut b, Addr(a), a as f64, a);
        }
        assert_eq!(b.len(), words as usize);
        assert_eq!(b.peak(), words as usize);
        // Full but every address is resident: still no overflow anywhere.
        for a in 0..words {
            assert!(b.probe(Addr(a)) != Probe::Full);
        }
        let dirty: Vec<_> = b.dirty().collect();
        assert_eq!(dirty.len(), words as usize);
        assert!(
            dirty
                .iter()
                .enumerate()
                .all(|(i, &d)| d == (Addr(i as u64), i as f64)),
            "one entry per address, in touch order"
        );
        b.clear();
        assert!(b.is_empty());
        assert!(b.probe(Addr(0)) != Probe::Full);
    }

    #[test]
    fn private_store_is_epoch_versioned() {
        let mut p = PrivateStore::new(WORDS);
        assert_eq!(p.get(Addr(4)), None);
        p.insert(Addr(4), 2.5);
        assert_eq!(p.get(Addr(4)), Some(2.5));
        p.insert(Addr(4), 3.5);
        assert_eq!(p.get(Addr(4)), Some(3.5));
        p.clear();
        assert_eq!(p.get(Addr(4)), None, "cleared values are invisible");
        p.insert(Addr(4), 1.0);
        assert_eq!(p.get(Addr(4)), Some(1.0));
    }

    #[test]
    fn epoch_wraparound_resets_stamps_safely() {
        let mut b = SpecBuffer::new(2, 4);
        // Force the epoch counter all the way around.
        write(&mut b, Addr(0), 1.0, 1);
        b.epoch = u32::MAX;
        b.journal.clear();
        b.peak = 0;
        // Entry live in the last pre-wrap epoch.
        b.index[1] = IndexSlot {
            stamp: u32::MAX,
            pos: 0,
        };
        b.journal.push((
            1,
            SpecEntry {
                written: true,
                ..SpecEntry::default()
            },
        ));
        assert!(written(&b, Addr(1)));
        b.clear();
        assert_eq!(b.epoch, 1, "wrapped past 0 back to 1");
        assert!(!written(&b, Addr(1)), "pre-wrap entries are invisible");
        assert!(
            !written(&b, Addr(0)),
            "stamps were physically reset, no aliasing with earlier epochs"
        );
    }
}
