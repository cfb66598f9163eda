//! Bitsets over small dense indices (VCs, tiles, nodes), scanned in
//! ascending order with one `trailing_zeros` per set bit. The cycle
//! kernel uses them to visit only the busy entries of a per-slot array.

/// The first set bit of `words` at or after `from`, if any.
#[inline]
pub(crate) fn next_set(words: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = *words.get(w)? & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        word = *words.get(w)?;
    }
}

/// The set bits of `words` in ascending order.
#[inline]
pub(crate) fn set_bits(words: &[u64]) -> SetBits<'_> {
    SetBits {
        words,
        word: 0,
        bits: words.first().copied().unwrap_or(0),
    }
}

/// Iterator over the set bits of a word slice, lowest first.
#[derive(Debug, Clone)]
pub(crate) struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from.
    word: usize,
    /// The not yet visited bits of that word.
    bits: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let i = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

/// A set of indices below a fixed bound, one bit each.
///
/// ```
/// use disco_noc::BitSet;
///
/// let mut set = BitSet::new(130);
/// set.insert(3);
/// set.insert(129);
/// assert_eq!(set.next_from(4), Some(129));
/// set.remove(129);
/// assert_eq!(set.next_from(4), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set for indices `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Adds `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the bound the set was built for.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the bound the set was built for.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// True if no index is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member at or after `from`, if any.
    #[inline]
    pub fn next_from(&self, from: usize) -> Option<usize> {
        next_set(&self.words, from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_ascend_across_words() {
        let words = [1 << 63, 0, 1 | 1 << 5];
        assert_eq!(set_bits(&words).collect::<Vec<_>>(), vec![63, 128, 133]);
        assert_eq!(set_bits(&[]).next(), None);
        assert_eq!(next_set(&words, 0), Some(63));
        assert_eq!(next_set(&words, 64), Some(128));
        assert_eq!(next_set(&words, 129), Some(133));
        assert_eq!(next_set(&words, 134), None);
        assert_eq!(next_set(&words, 500), None);
    }
}
