//! A single 256-bit word line worth of data.

use std::fmt;
use std::ops::Range;

use crate::{COLS, ROW_WORDS};

/// One word line (row) of a 256-column SRAM array: a fixed 256-bit vector.
///
/// Bit `i` of a `BitRow` is the cell on bit line (column) `i`. Bitwise
/// operations apply to all 256 columns at once, mirroring the SIMD nature of
/// bit-line computing.
///
/// # Examples
///
/// ```
/// use nc_sram::BitRow;
///
/// let mut row = BitRow::zero();
/// row.set(7, true);
/// assert!(row.get(7));
/// assert_eq!(row.count_ones(), 1);
/// assert_eq!(row.and(&BitRow::ones()), row);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BitRow {
    words: [u64; ROW_WORDS],
}

impl BitRow {
    /// Returns a row with every bit cleared.
    #[must_use]
    pub const fn zero() -> Self {
        BitRow {
            words: [0; ROW_WORDS],
        }
    }

    /// Returns a row with every bit set.
    #[must_use]
    pub const fn ones() -> Self {
        BitRow {
            words: [u64::MAX; ROW_WORDS],
        }
    }

    /// Builds a row by evaluating `f` for every column index.
    ///
    /// ```
    /// use nc_sram::BitRow;
    /// let evens = BitRow::from_fn(|col| col % 2 == 0);
    /// assert_eq!(evens.count_ones(), 128);
    /// ```
    #[must_use]
    pub fn from_fn(mut f: impl FnMut(usize) -> bool) -> Self {
        let mut row = BitRow::zero();
        for col in 0..COLS {
            if f(col) {
                row.set(col, true);
            }
        }
        row
    }

    /// Reads the bit stored on column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= 256`.
    #[must_use]
    #[inline]
    pub fn get(&self, col: usize) -> bool {
        assert!(col < COLS, "column {col} out of range");
        (self.words[col / 64] >> (col % 64)) & 1 == 1
    }

    /// Writes `bit` to column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= 256`.
    #[inline]
    pub fn set(&mut self, col: usize, bit: bool) {
        assert!(col < COLS, "column {col} out of range");
        let mask = 1u64 << (col % 64);
        if bit {
            self.words[col / 64] |= mask;
        } else {
            self.words[col / 64] &= !mask;
        }
    }

    /// Column-wise AND, the value sensed on the bit line during a two-row
    /// activation.
    #[must_use]
    #[inline]
    pub fn and(&self, other: &BitRow) -> BitRow {
        self.zip(other, |a, b| a & b)
    }

    /// Column-wise OR.
    #[must_use]
    #[inline]
    pub fn or(&self, other: &BitRow) -> BitRow {
        self.zip(other, |a, b| a | b)
    }

    /// Column-wise XOR, produced by the peripheral NOR gate combining the two
    /// sense-amp outputs (`A^B = !(A&B) & !(!A&!B)`).
    #[must_use]
    #[inline]
    pub fn xor(&self, other: &BitRow) -> BitRow {
        self.zip(other, |a, b| a ^ b)
    }

    /// Column-wise NOR, the value sensed on the bit-line complement during a
    /// two-row activation.
    #[must_use]
    #[inline]
    pub fn nor(&self, other: &BitRow) -> BitRow {
        self.zip(other, |a, b| !(a | b))
    }

    /// Column-wise complement.
    #[must_use]
    #[inline]
    pub fn not(&self) -> BitRow {
        let mut out = *self;
        for w in &mut out.words {
            *w = !*w;
        }
        out
    }

    /// Selects `self` where `mask` is set and `other` where it is clear.
    ///
    /// This is the tag-gated write-back behaviour: the new value lands only on
    /// columns whose bit-line driver is enabled.
    #[must_use]
    #[inline]
    pub fn select(&self, other: &BitRow, mask: &BitRow) -> BitRow {
        let mut out = BitRow::zero();
        for i in 0..ROW_WORDS {
            out.words[i] = (self.words[i] & mask.words[i]) | (other.words[i] & !mask.words[i]);
        }
        out
    }

    /// Returns a row with columns `cols` set and every other column clear
    /// (the part of the range past column 255 is dropped).
    ///
    /// ```
    /// use nc_sram::BitRow;
    /// let mask = BitRow::span(60..70);
    /// assert_eq!(mask.count_ones(), 10);
    /// assert!(mask.get(60) && mask.get(69) && !mask.get(70));
    /// ```
    #[must_use]
    pub fn span(cols: Range<usize>) -> Self {
        let mut row = BitRow::zero();
        for (i, w) in row.words.iter_mut().enumerate() {
            // The mask of this word's columns below column `n`.
            let below = |n: usize| ((1u128 << n.saturating_sub(64 * i).min(64)) - 1) as u64;
            *w = below(cols.end) & !below(cols.start);
        }
        row
    }

    /// Shifts every bit `cols` columns toward column 0: column `c` of the
    /// result holds column `c + cols` of `self`, and the top `cols` columns
    /// are clear.
    ///
    /// ```
    /// use nc_sram::BitRow;
    /// let row = BitRow::span(100..101).shift_down(37);
    /// assert!(row.get(63) && row.count_ones() == 1);
    /// ```
    #[must_use]
    #[inline]
    pub fn shift_down(&self, cols: usize) -> BitRow {
        let (skip, bits) = (cols / 64, cols % 64);
        let word = |i: usize| self.words.get(i).copied().unwrap_or(0);
        let mut out = BitRow::zero();
        for (i, w) in out.words.iter_mut().enumerate() {
            // `<< 1 << (63 - bits)` is `<< (64 - bits)`, and 0 for bits == 0.
            *w = (word(i + skip) >> bits) | (word(i + skip + 1) << 1 << (63 - bits));
        }
        out
    }

    /// Shifts every bit `cols` columns away from column 0: column
    /// `c + cols` of the result holds column `c` of `self`, bits pushed past
    /// column 255 are dropped, and the low `cols` columns are clear.
    ///
    /// ```
    /// use nc_sram::BitRow;
    /// let row = BitRow::span(63..64).shift_up(130);
    /// assert!(row.get(193) && row.count_ones() == 1);
    /// ```
    #[must_use]
    #[inline]
    pub fn shift_up(&self, cols: usize) -> BitRow {
        let (skip, bits) = (cols / 64, cols % 64);
        let word = |i: Option<usize>| i.and_then(|i| self.words.get(i)).copied().unwrap_or(0);
        let mut out = BitRow::zero();
        for (i, w) in out.words.iter_mut().enumerate() {
            let lo = i.checked_sub(skip);
            // `>> 1 >> (63 - bits)` is `>> (64 - bits)`, and 0 for bits == 0.
            *w = (word(lo) << bits) | (word(lo.and_then(|j| j.checked_sub(1))) >> 1 >> (63 - bits));
        }
        out
    }

    /// `copies` copies of `self` laid `stride` columns apart: the OR of
    /// `self.shift_up(k * stride)` over `k < copies`.
    ///
    /// ```
    /// use nc_sram::BitRow;
    /// let groups = BitRow::span(0..2).repeat(10, 3);
    /// assert_eq!(groups, BitRow::from_fn(|c| c < 30 && c % 10 < 2));
    /// ```
    #[must_use]
    pub fn repeat(&self, stride: usize, copies: usize) -> BitRow {
        // Binary doubling: `block` holds `2^k` copies spanning
        // `2^k * stride` columns; the set bits of `copies` pick which
        // blocks land, each past the ones already placed.
        if copies <= 1 {
            return if copies == 1 { *self } else { BitRow::zero() };
        }
        let mut out = BitRow::zero();
        let (mut block, mut block_cols, mut placed_cols) = (*self, stride, 0);
        let mut n = copies;
        while n > 0 && placed_cols < COLS {
            if n & 1 == 1 {
                out = out.or(&block.shift_up(placed_cols));
                placed_cols = placed_cols.saturating_add(block_cols);
            }
            n >>= 1;
            if n > 0 {
                block = block.or(&block.shift_up(block_cols));
                block_cols = block_cols.saturating_mul(2);
            }
        }
        out
    }

    /// The four 64-column words of the row, column 0 in bit 0 of word 0.
    #[must_use]
    #[inline]
    pub(crate) fn words(&self) -> &[u64; ROW_WORDS] {
        &self.words
    }

    /// Mutable access to the four 64-column words (see [`BitRow::words`]).
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64; ROW_WORDS] {
        &mut self.words
    }

    /// Number of set bits across all 256 columns.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Returns `true` if every bit is clear.
    #[must_use]
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the 256 column bits, least column first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..COLS).map(move |c| self.get(c))
    }

    #[inline]
    fn zip(&self, other: &BitRow, f: impl Fn(u64, u64) -> u64) -> BitRow {
        let mut out = BitRow::zero();
        for i in 0..ROW_WORDS {
            out.words[i] = f(self.words[i], other.words[i]);
        }
        out
    }
}

impl fmt::Debug for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print as hex words, most-significant column group first, so the
        // representation is compact but never empty.
        write!(
            f,
            "BitRow({:016x}_{:016x}_{:016x}_{:016x})",
            self.words[3], self.words[2], self.words[1], self.words[0]
        )
    }
}

impl fmt::Binary for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for col in (0..COLS).rev() {
            write!(f, "{}", u8::from(self.get(col)))?;
        }
        Ok(())
    }
}

impl std::ops::BitAnd for BitRow {
    type Output = BitRow;
    fn bitand(self, rhs: BitRow) -> BitRow {
        self.and(&rhs)
    }
}

impl std::ops::BitOr for BitRow {
    type Output = BitRow;
    fn bitor(self, rhs: BitRow) -> BitRow {
        self.or(&rhs)
    }
}

impl std::ops::BitXor for BitRow {
    type Output = BitRow;
    fn bitxor(self, rhs: BitRow) -> BitRow {
        self.xor(&rhs)
    }
}

impl std::ops::Not for BitRow {
    type Output = BitRow;
    fn not(self) -> BitRow {
        BitRow::not(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_ones() {
        assert_eq!(BitRow::zero().count_ones(), 0);
        assert_eq!(BitRow::ones().count_ones(), COLS as u32);
        assert!(BitRow::zero().is_zero());
        assert!(!BitRow::ones().is_zero());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut row = BitRow::zero();
        for col in [0, 1, 63, 64, 127, 128, 255] {
            row.set(col, true);
            assert!(row.get(col), "col {col}");
            row.set(col, false);
            assert!(!row.get(col), "col {col}");
        }
    }

    #[test]
    fn logic_matches_column_semantics() {
        let a = BitRow::from_fn(|c| c % 2 == 0);
        let b = BitRow::from_fn(|c| c % 3 == 0);
        for c in 0..COLS {
            let (x, y) = (a.get(c), b.get(c));
            assert_eq!(a.and(&b).get(c), x && y);
            assert_eq!(a.or(&b).get(c), x || y);
            assert_eq!(a.xor(&b).get(c), x ^ y);
            assert_eq!(a.nor(&b).get(c), !(x || y));
            assert_eq!(a.not().get(c), !x);
        }
    }

    #[test]
    fn select_applies_mask_per_column() {
        let a = BitRow::ones();
        let b = BitRow::zero();
        let mask = BitRow::from_fn(|c| c < 10);
        let sel = a.select(&b, &mask);
        assert_eq!(sel.count_ones(), 10);
        for c in 0..10 {
            assert!(sel.get(c));
        }
    }

    #[test]
    fn operators_delegate() {
        let a = BitRow::from_fn(|c| c % 5 == 0);
        let b = BitRow::from_fn(|c| c % 7 == 0);
        assert_eq!(a & b, a.and(&b));
        assert_eq!(a | b, a.or(&b));
        assert_eq!(a ^ b, a.xor(&b));
        assert_eq!(!a, a.not());
    }

    #[test]
    fn debug_is_never_empty() {
        let repr = format!("{:?}", BitRow::zero());
        assert!(repr.contains("BitRow"));
        let bin = format!("{:b}", BitRow::ones());
        assert_eq!(bin.len(), COLS);
    }
}
