//! Interning of token streams.
//!
//! The dependence analysis names each reference site's access signature,
//! and the body summary each canonical location, by a stream of `i64`
//! tokens; two sites (locations) are the same exactly when their streams
//! are equal. [`Interner`] gives each distinct stream a dense id in
//! first-seen order. The streams live concatenated in one arena and the
//! ids in an open-addressing table. A stream is written straight onto the
//! arena's end and looked up there, and stays only when it is new and
//! interned, so naming a stream copies nothing and allocates only as the
//! arena grows. The hash is fast rather than collision-resistant: the
//! streams describe the program under analysis, and colliding streams
//! cost probes, never a wrong id.

/// A set of token streams, each with a dense id in first-seen order.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    /// The interned streams, concatenated in id order — and, while a
    /// stream is being looked up, that stream after them.
    tokens: Vec<i64>,
    /// Per id: the end of its stream in `tokens` and the stream's hash.
    keys: Vec<(u32, u64)>,
    /// Open-addressing slots holding ids, [`Interner::EMPTY`] where none;
    /// a power of two in length, at most half full.
    slots: Vec<u32>,
}

impl Interner {
    /// An unused slot.
    const EMPTY: u32 = u32::MAX;

    /// An interner with room for `streams` streams before it grows.
    pub(crate) fn with_capacity(streams: usize) -> Self {
        Interner {
            slots: vec![Self::EMPTY; Self::slots_for(streams)],
            keys: Vec::with_capacity(streams),
            ..Interner::default()
        }
    }

    /// Slots for `streams` streams at most half full (none for none).
    fn slots_for(streams: usize) -> usize {
        if streams == 0 {
            0
        } else {
            (2 * streams).next_power_of_two().max(8)
        }
    }

    /// The id of the stream `write` appends to the buffer it is handed,
    /// interning the stream first when it is new; the flag is true for a
    /// new stream. `None`, with nothing interned, when `write` returns
    /// false: what is being named has no stream.
    pub(crate) fn intern_with(
        &mut self,
        write: impl FnOnce(&mut Vec<i64>) -> bool,
    ) -> Option<(u32, bool)> {
        if 2 * (self.keys.len() + 1) > self.slots.len() {
            self.grow();
        }
        let (start, h, found) = self.append(write)?;
        match found {
            Ok(id) => {
                self.tokens.truncate(start);
                Some((id, false))
            }
            Err(slot) => {
                let id = u32::try_from(self.keys.len()).expect("fewer than 2^32 streams");
                let end = u32::try_from(self.tokens.len()).expect("fewer than 2^32 tokens");
                self.keys.push((end, h));
                self.slots[slot] = id;
                Some((id, true))
            }
        }
    }

    /// The id of the stream `write` appends, when it was interned; `None`
    /// for a new stream and when `write` returns false. Interns nothing.
    pub(crate) fn get_with(&mut self, write: impl FnOnce(&mut Vec<i64>) -> bool) -> Option<u32> {
        let (start, _, found) = self.append(write)?;
        self.tokens.truncate(start);
        found.ok()
    }

    /// Appends a stream with `write` and looks it up: where it starts, its
    /// hash, and its id or the empty slot it would take. Nothing stays
    /// appended when `write` returns false.
    fn append(
        &mut self,
        write: impl FnOnce(&mut Vec<i64>) -> bool,
    ) -> Option<(usize, u64, Result<u32, usize>)> {
        let start = self.tokens.len();
        if !write(&mut self.tokens) {
            self.tokens.truncate(start);
            return None;
        }
        let stream = &self.tokens[start..];
        let h = hash(stream);
        Some((start, h, self.find(stream, h)))
    }

    /// The stream of `id`.
    fn stream(&self, id: u32) -> &[i64] {
        let start = match id.checked_sub(1) {
            Some(prev) => self.keys[prev as usize].0 as usize,
            None => 0,
        };
        &self.tokens[start..self.keys[id as usize].0 as usize]
    }

    /// The id of `stream` (hash `h`), or the empty slot it would take.
    fn find(&self, stream: &[i64], h: u64) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = start_slot(h, self.slots.len());
        loop {
            match self.slots[slot] {
                Self::EMPTY => return Err(slot),
                id if self.keys[id as usize].1 == h && self.stream(id) == stream => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the slot table and re-enters every id.
    fn grow(&mut self) {
        let len = Self::slots_for(self.keys.len() + 1).max(2 * self.slots.len());
        self.slots.clear();
        self.slots.resize(len, Self::EMPTY);
        let mask = len - 1;
        for (id, &(_, h)) in self.keys.iter().enumerate() {
            let mut slot = start_slot(h, len);
            while self.slots[slot] != Self::EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }
}

/// A multiplicative hash of a token stream (the rotate-xor-multiply step
/// of rustc's `FxHasher`, one token at a time).
fn hash(stream: &[i64]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    stream.iter().fold(stream.len() as u64, |h, &t| {
        (h.rotate_left(5) ^ t as u64).wrapping_mul(K)
    })
}

/// The first slot probed for hash `h` in a table of `len` slots (a power
/// of two): the hash's top bits, the best mixed ones.
fn start_slot(h: u64, len: usize) -> usize {
    (h >> (64 - len.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intern(interner: &mut Interner, stream: &[i64]) -> (u32, bool) {
        let write = |t: &mut Vec<i64>| {
            t.extend_from_slice(stream);
            true
        };
        interner.intern_with(write).expect("a stream")
    }

    fn get(interner: &mut Interner, stream: &[i64]) -> Option<u32> {
        interner.get_with(|t| {
            t.extend_from_slice(stream);
            true
        })
    }

    #[test]
    fn ids_are_dense_in_first_seen_order_across_growth() {
        let mut interner = Interner::default();
        assert_eq!(get(&mut interner, &[1, 2]), None);
        let streams: Vec<Vec<i64>> = (0..300)
            .map(|i| (0..=i % 7).map(|t| t * 1000 + i).collect())
            .collect();
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(intern(&mut interner, s), (i as u32, true));
        }
        // Again: every stream is found, nothing is added.
        let tokens = interner.tokens.len();
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(intern(&mut interner, s), (i as u32, false));
            assert_eq!(get(&mut interner, s), Some(i as u32));
        }
        assert_eq!(get(&mut interner, &[-1, -1, -1]), None);
        assert_eq!(interner.keys.len(), streams.len());
        assert_eq!(interner.tokens.len(), tokens);
        // A sized interner holds the same ids without growing.
        let mut sized = Interner::with_capacity(streams.len());
        let slots = sized.slots.len();
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(intern(&mut sized, s), (i as u32, true));
        }
        assert_eq!(sized.slots.len(), slots);
    }

    /// The empty stream and streams that differ only in length are
    /// distinct; a declined stream is neither interned nor left behind.
    #[test]
    fn prefixes_the_empty_stream_and_declined_streams() {
        let mut interner = Interner::with_capacity(0);
        assert_eq!(intern(&mut interner, &[]), (0, true));
        assert_eq!(intern(&mut interner, &[0]), (1, true));
        assert_eq!(intern(&mut interner, &[0, 0]), (2, true));
        assert_eq!(intern(&mut interner, &[]), (0, false));
        assert_eq!(get(&mut interner, &[0]), Some(1));
        let declined = |t: &mut Vec<i64>| {
            t.extend([7, 7, 7]);
            false
        };
        assert_eq!(interner.intern_with(declined), None);
        assert_eq!(interner.get_with(declined), None);
        assert_eq!(interner.tokens, [0, 0, 0]);
        assert_eq!(interner.keys.len(), 3);
    }
}
