//! A compact bit set over CAM entry indices, used for entry-level power
//! gating (only entries whose bit is set participate in a search).

use serde::{Deserialize, Serialize};

/// A fixed-length bit set addressing CAM entries.
///
/// Besides the bits, a mask keeps a word span `[lo, hi)` holding every
/// nonzero word. Every constructor and mutator maintains it, so the span
/// is read in O(1), and counting, clearing, copying and OR-ing cost the
/// span's words instead of the whole mask's — the software analogue of
/// the hardware lighting only the successors of the last cycle's
/// matches. The span is a cache, not state: equality compares length and
/// bits only.
///
/// ```
/// use casa_cam::EntryMask;
///
/// let mut mask = EntryMask::new(100);
/// mask.set(3);
/// mask.set(99);
/// assert_eq!(mask.count(), 2);
/// assert!(mask.get(3) && !mask.get(4));
/// assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![3, 99]);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EntryMask {
    words: Vec<u64>,
    len: usize,
    /// Word span `[lo, hi)` outside which every word is zero (words inside
    /// may be zero too). An empty span is stored inverted, `lo =
    /// words.len()` and `hi = 0`, so widening it to cover word `w` is
    /// `lo = lo.min(w); hi = hi.max(w + 1)` whether it was empty or not.
    lo: usize,
    hi: usize,
}

impl EntryMask {
    /// Creates an all-zero mask over `len` entries.
    pub fn new(len: usize) -> EntryMask {
        let n = len.div_ceil(64);
        EntryMask {
            words: vec![0; n],
            len,
            lo: n,
            hi: 0,
        }
    }

    /// Creates an all-one mask over `len` entries.
    pub fn all(len: usize) -> EntryMask {
        let mut mask = EntryMask::new(len);
        for (i, w) in mask.words.iter_mut().enumerate() {
            let remaining = len - (i * 64).min(len);
            *w = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
        }
        mask.lo = 0;
        mask.hi = mask.words.len();
        mask
    }

    /// Number of addressable entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask addresses zero entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        let w = i / 64;
        self.words[w] |= 1 << (i % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
    }

    /// Clears bit `i`. The span is not narrowed: it only has to hold
    /// every nonzero word.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Reads bit `i` (out-of-range reads are `false`).
    pub fn get(&self, i: usize) -> bool {
        i < self.len && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits (entries that would be enabled), counted over
    /// the span.
    pub fn count(&self) -> usize {
        self.words[self.span()]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Clears every bit, touching only the span.
    pub fn clear_all(&mut self) {
        let span = self.span();
        self.words[span].fill(0);
        self.lo = self.words.len();
        self.hi = 0;
    }

    /// Sets all bits in `range` (clamped to the mask length).
    pub fn set_range(&mut self, range: std::ops::Range<usize>) {
        for i in range.start..range.end.min(self.len) {
            self.set(i);
        }
    }

    /// Iterates over set bit indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let span = self.span();
        let lo = span.start;
        self.words[span]
            .iter()
            .enumerate()
            .flat_map(move |(wi, &w)| {
                let mut w = w;
                std::iter::from_fn(move || {
                    if w == 0 {
                        None
                    } else {
                        let bit = w.trailing_zeros() as usize;
                        w &= w - 1;
                        Some((lo + wi) * 64 + bit)
                    }
                })
            })
    }

    /// Bitwise OR with another mask of the same length over `other`'s
    /// span, through the process-default word kernel (the indicator
    /// word-OR of the seeding hot path; see [`crate::kernel`]).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn union_with(&mut self, other: &EntryMask) {
        assert_eq!(self.len, other.len, "mask lengths differ");
        let span = other.span();
        crate::kernel::default_backend()
            .ops()
            .or_into(&mut self.words[span.clone()], &other.words[span]);
        // Same length, so an empty `other` (inverted at the shared word
        // count) leaves the span unchanged.
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
    }

    /// The backing `u64` words, 64 entries per word, bit `i % 64` of word
    /// `i / 64` for entry `i`. Bits at or above `len` are always zero.
    /// This is the representation the bit-parallel CAM kernel consumes
    /// directly.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the backing words (see [`EntryMask::words`]).
    pub fn iter_words(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().copied()
    }

    /// The word span: a range of [`EntryMask::words`] outside which every
    /// word is zero (words inside it may be zero too), `0..0` when no
    /// word has been set since the mask was built or last cleared.
    #[inline]
    pub(crate) fn span(&self) -> std::ops::Range<usize> {
        self.lo.min(self.hi)..self.hi
    }

    /// Becomes a copy of `other` (length and bits), reusing this mask's
    /// word allocation when it is large enough. Touches only the two
    /// masks' spans (plus any words the length change adds).
    pub fn copy_from(&mut self, other: &EntryMask) {
        let span = self.span();
        self.words[span].fill(0);
        self.words.resize(other.words.len(), 0);
        let span = other.span();
        self.words[span.clone()].copy_from_slice(&other.words[span]);
        self.len = other.len;
        self.lo = other.lo;
        self.hi = other.hi;
    }

    /// Resets to an all-zero mask over `len` entries, reusing the word
    /// allocation when possible. Touches only the span (plus any words
    /// the length change adds).
    pub fn reset(&mut self, len: usize) {
        let span = self.span();
        self.words[span].fill(0);
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
        self.lo = self.words.len();
        self.hi = 0;
    }
}

impl PartialEq for EntryMask {
    /// Length and bits; the span is a cache and does not take part.
    fn eq(&self, other: &EntryMask) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl Eq for EntryMask {}

impl Default for EntryMask {
    /// An empty mask over zero entries.
    fn default() -> EntryMask {
        EntryMask::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear_round_trip() {
        let mut m = EntryMask::new(130);
        for i in [0, 63, 64, 129] {
            m.set(i);
            assert!(m.get(i));
        }
        assert_eq!(m.count(), 4);
        m.clear(64);
        assert!(!m.get(64));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn all_sets_exactly_len_bits() {
        for len in [0, 1, 63, 64, 65, 200] {
            let m = EntryMask::all(len);
            assert_eq!(m.count(), len, "len {len}");
            assert!(!m.get(len));
        }
    }

    #[test]
    fn iter_ones_is_sorted_and_complete() {
        let mut m = EntryMask::new(300);
        let bits = [5usize, 64, 65, 190, 299];
        for &b in &bits {
            m.set(b);
        }
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), bits);
    }

    #[test]
    fn set_range_clamps() {
        let mut m = EntryMask::new(10);
        m.set_range(7..20);
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn union_merges() {
        let mut a = EntryMask::new(70);
        a.set(1);
        let mut b = EntryMask::new(70);
        b.set(69);
        a.union_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 69]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        EntryMask::new(5).set(5);
    }

    #[test]
    fn words_expose_the_bit_layout() {
        let mut m = EntryMask::new(130);
        m.set(0);
        m.set(64);
        m.set(129);
        assert_eq!(m.words(), &[1, 1, 2]);
        assert_eq!(m.iter_words().collect::<Vec<_>>(), vec![1, 1, 2]);
        // `all` leaves no stray bits above `len` in the last word.
        let a = EntryMask::all(70);
        assert_eq!(a.words(), &[u64::MAX, (1 << 6) - 1]);
    }

    #[test]
    fn copy_from_and_reset_reuse_allocations() {
        let mut src = EntryMask::new(130);
        src.set(5);
        src.set(129);
        let mut dst = EntryMask::new(64);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.reset(10);
        assert_eq!(dst, EntryMask::new(10));
        dst.reset(200);
        assert_eq!(dst, EntryMask::new(200));
    }

    #[test]
    fn get_out_of_range_is_false() {
        assert!(!EntryMask::new(5).get(1000));
    }

    #[test]
    fn equality_ignores_the_span() {
        // Set-then-clear leaves a stale (nonempty) span over zero words;
        // the bits are those of a fresh mask, so the masks are equal.
        let mut a = EntryMask::new(300);
        a.set(200);
        a.clear(200);
        assert!(!a.span().is_empty());
        assert!(EntryMask::new(300).span().is_empty());
        assert_eq!(a, EntryMask::new(300));
        // Same bits reached through a wide and a narrow history.
        let mut wide = EntryMask::all(300);
        wide.clear_all();
        wide.set(5);
        let mut narrow = EntryMask::new(300);
        narrow.set(5);
        assert_eq!(wide, narrow);
        assert_ne!(narrow, EntryMask::new(301));
    }

    #[test]
    fn spans_track_mutations() {
        let mut m = EntryMask::new(1000);
        assert_eq!(m.span(), 0..0);
        m.set(700);
        assert_eq!(m.span(), 10..11);
        m.set(64);
        assert_eq!(m.span(), 1..11);
        m.clear_all();
        assert_eq!(m.span(), 0..0);
        assert_eq!(EntryMask::all(130).span(), 0..3);
        let mut other = EntryMask::new(1000);
        other.set(999);
        m.set(3);
        m.union_with(&other);
        assert_eq!(m.span(), 0..16);
        m.union_with(&EntryMask::new(1000));
        assert_eq!(m.span(), 0..16);
        m.copy_from(&other);
        assert_eq!(m.span(), 15..16);
        m.reset(10);
        assert_eq!(m.span(), 0..0);
    }

    /// Lengths the invariant proptest starts from: the word-boundary
    /// cases, then random ones.
    fn pick_len(choice: usize, random: usize) -> usize {
        [0, 1, 63, 64, 65].get(choice).copied().unwrap_or(random)
    }

    fn mask_of(len: usize, bits: &[usize]) -> EntryMask {
        let mut m = EntryMask::new(len);
        for &b in bits.iter().filter(|_| len > 0) {
            m.set(b % len);
        }
        m
    }

    /// Checks `m` against its `Vec<bool>` model: bits, count, iter_ones,
    /// words, and every nonzero word inside the span.
    fn assert_matches_model(m: &EntryMask, model: &[bool]) {
        assert_eq!(m.len(), model.len());
        let ones: Vec<usize> = (0..model.len()).filter(|&i| model[i]).collect();
        for (i, &bit) in model.iter().enumerate() {
            assert_eq!(m.get(i), bit, "bit {i}");
        }
        assert!(!m.get(model.len()));
        assert_eq!(m.count(), ones.len());
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), ones);
        let mut words = vec![0u64; model.len().div_ceil(64)];
        for &i in &ones {
            words[i / 64] |= 1 << (i % 64);
        }
        assert_eq!(m.words(), &words[..]);
        let span = m.span();
        assert!(span.end <= words.len());
        for (w, &word) in words.iter().enumerate() {
            assert!(word == 0 || span.contains(&w), "word {w} outside {span:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn span_invariant_holds_under_random_ops(
            (len_choice, random_len, start_full) in (0usize..8, 0usize..400, 0u8..2),
            ops in prop::collection::vec(
                (0u8..8, 0usize..100_000, 0usize..100_000, prop::collection::vec(0usize..100_000, 0..4)),
                0..40,
            )
        ) {
            let len = pick_len(len_choice, random_len);
            let (mut m, mut model) = if start_full == 1 {
                (EntryMask::all(len), vec![true; len])
            } else {
                (EntryMask::new(len), vec![false; len])
            };
            assert_matches_model(&m, &model);
            for (op, a, b, bits) in ops {
                let len = model.len();
                match op {
                    0 if len > 0 => {
                        m.set(a % len);
                        model[a % len] = true;
                    }
                    1 if len > 0 => {
                        m.clear(a % len);
                        model[a % len] = false;
                    }
                    2 => {
                        let range = a % (len + 1)..b % (len + 70);
                        if range.start < range.end.min(len) {
                            model[range.start..range.end.min(len)].fill(true);
                        }
                        m.set_range(range);
                    }
                    3 => {
                        let other = mask_of(len, &bits);
                        for i in other.iter_ones() {
                            model[i] = true;
                        }
                        m.union_with(&other);
                    }
                    4 => {
                        // Same length half the time, else a new one.
                        let other_len = if a % 2 == 0 { len } else { pick_len(a % 8, b % 300) };
                        let other = mask_of(other_len, &bits);
                        model = (0..other_len).map(|i| other.get(i)).collect();
                        m.copy_from(&other);
                        prop_assert_eq!(&m, &other);
                    }
                    5 => {
                        m.reset(len);
                        model = vec![false; len];
                    }
                    6 => {
                        let new_len = pick_len(a % 8, b % 300);
                        m.reset(new_len);
                        model = vec![false; new_len];
                    }
                    _ => {
                        m.clear_all();
                        model.fill(false);
                    }
                }
                assert_matches_model(&m, &model);
            }
        }
    }
}
