//! Transpose Memory Unit (TMU): the 8T-SRAM gateway between bit-parallel and
//! transposed layouts (Section III-F, Figure 8).
//!
//! A TMU is a small SRAM array whose 8T bit cells can be read and written in
//! both the horizontal and the vertical direction. Data arriving from the
//! interconnect in the conventional element-per-row layout is written
//! horizontally and read out vertically as bit slices ready for the compute
//! arrays — or vice versa when results leave the cache. A few TMUs placed in
//! the cache-control box saturate the available interconnect bandwidth.
//!
//! The same layout change is what the simulator's host code does whenever
//! it stages operands into a [`ComputeArray`](crate::ComputeArray) or reads
//! them back, so the module also holds the one host-side transpose kernel
//! both use: [`to_planes`] and [`from_planes`] convert between per-lane
//! values and bit-slice rows eight lanes by eight bits at a time, through
//! an 8×8 bit-matrix transpose of one `u64`.

use std::fmt;

use crate::{BitRow, CycleStats, Result, SramError, COLS, ROWS};

/// Transposes the 8×8 bit matrix held in `x` (byte `i` is row `i`, bit `j`
/// of it column `j`): bit `8i + j` trades places with bit `8j + i`. Three
/// delta swaps, after Hacker's Delight's `transpose8`.
#[inline]
const fn transpose8(x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    let x = x ^ t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    let x = x ^ t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Lane-values-to-bit-slices transpose: column `l < lanes` of `planes[i]`
/// receives bit `i` of `values[l]`, and columns past `lanes` are clear.
/// Bits of a value at or past `planes.len()` are dropped.
///
/// Each 64-lane word of the planes is built from eight groups of eight
/// lanes: byte `k` of a group's values forms one 8×8 matrix whose
/// transpose holds that group's eight lanes of planes `8k..8k + 8`, so the
/// cost grows with the lanes and the planes asked for.
pub(crate) fn to_planes(values: &[u64; COLS], lanes: usize, planes: &mut [BitRow]) {
    assert!(lanes <= COLS && planes.len() <= 64);
    for (w, word_lanes) in values.chunks_exact(64).enumerate() {
        let groups = lanes.saturating_sub(64 * w).div_ceil(8).min(8);
        for k in 0..planes.len().div_ceil(8) {
            let mut slices = [0u64; 8];
            for (g, group) in word_lanes.chunks_exact(8).take(groups).enumerate() {
                let mut x = 0;
                for (i, &v) in group.iter().enumerate() {
                    x |= ((v >> (8 * k)) & 0xFF) << (8 * i);
                }
                let y = transpose8(x);
                for (b, slice) in slices.iter_mut().enumerate() {
                    *slice |= ((y >> (8 * b)) & 0xFF) << (8 * g);
                }
            }
            for (plane, slice) in planes[8 * k..].iter_mut().zip(slices) {
                plane.words_mut()[w] = slice;
            }
        }
    }
    let live = BitRow::span(0..lanes);
    for plane in planes.iter_mut() {
        *plane = plane.and(&live);
    }
}

/// Bit-slices-to-lane-values transpose, the inverse of [`to_planes`]: bit
/// `i` of `values[l]` is column `l` of `planes[i]` for `l < lanes`, and
/// bits at or past `planes.len()` are clear. Entries past `lanes` are left
/// as they were.
pub(crate) fn from_planes(planes: &[BitRow], lanes: usize, values: &mut [u64; COLS]) {
    assert!(lanes <= COLS && planes.len() <= 64);
    for (w, word_lanes) in values.chunks_exact_mut(64).enumerate() {
        let live = lanes.saturating_sub(64 * w).min(64);
        for (g, group) in word_lanes[..live].chunks_mut(8).enumerate() {
            let mut out = [0u64; 8];
            for (k, planes_k) in planes.chunks(8).enumerate() {
                let mut y = 0;
                for (b, plane) in planes_k.iter().enumerate() {
                    y |= ((plane.words()[w] >> (8 * g)) & 0xFF) << (8 * b);
                }
                let x = transpose8(y);
                for (i, v) in out.iter_mut().enumerate() {
                    *v |= ((x >> (8 * i)) & 0xFF) << (8 * k);
                }
            }
            group.copy_from_slice(&out[..group.len()]);
        }
    }
}

/// The loader's value check: `value` fits in `bits` bits.
pub(crate) fn assert_fits(value: u64, bits: usize) {
    assert!(
        bits >= 64 || value >> bits == 0,
        "value {value} does not fit in {bits} bits"
    );
}

/// Up to 256 lane values in transposed form: row `i` is the bit slice
/// holding bit `i` of every lane, lane `l` on column `l`. This is the
/// layout an operand takes in a compute array, computed once on the host
/// so that it can be staged into any number of arrays with
/// [`ComputeArray::poke_slices`](crate::ComputeArray::poke_slices).
///
/// ```
/// use nc_sram::BitSlices;
///
/// let slices = BitSlices::new(4, [0b0011, 0b0101, 0b1000]);
/// assert_eq!((slices.bits(), slices.lanes()), (4, 3));
/// // Slice 0 holds bit 0 of each lane: 1, 1, 0.
/// assert!(slices.rows()[0].get(0) && slices.rows()[0].get(1) && !slices.rows()[0].get(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSlices {
    rows: Vec<BitRow>,
    lanes: usize,
}

impl BitSlices {
    /// Transposes `values` (lane `l` takes the `l`-th) into `bits` bit
    /// slices. Slices past bit 63 are clear, as are the columns past the
    /// last value.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 256 values, `bits` exceeds the 256
    /// word lines, or a value does not fit in `bits` bits.
    #[must_use]
    pub fn new(bits: usize, values: impl IntoIterator<Item = u64>) -> Self {
        assert!(bits <= ROWS, "{bits} bit slices exceed the array");
        let mut buf = [0u64; COLS];
        let mut lanes = 0;
        for value in values {
            assert!(lanes < COLS, "lane {lanes} out of range");
            assert_fits(value, bits);
            buf[lanes] = value;
            lanes += 1;
        }
        let mut rows = vec![BitRow::zero(); bits];
        to_planes(&buf, lanes, &mut rows[..bits.min(64)]);
        BitSlices { rows, lanes }
    }

    /// Number of slices (the width of each value).
    #[must_use]
    pub fn bits(&self) -> usize {
        self.rows.len()
    }

    /// Number of lanes the slices hold values for (lanes `0..lanes()`).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The slices, least-significant bit first.
    #[must_use]
    pub fn rows(&self) -> &[BitRow] {
        &self.rows
    }

    /// `copies` copies of these lanes side by side: lane `k * lanes() + l`
    /// of the result holds lane `l` of `self` for every `k < copies` (how
    /// one streamed input byte is copied to the lanes of every filter in
    /// an array).
    ///
    /// # Panics
    ///
    /// Panics if the copies need more than 256 lanes.
    #[must_use]
    pub fn repeat(&self, copies: usize) -> Self {
        let lanes = self.lanes * copies;
        assert!(lanes <= COLS, "lane {} out of range", lanes - 1);
        BitSlices {
            rows: self
                .rows
                .iter()
                .map(|row| row.repeat(self.lanes, copies))
                .collect(),
            lanes,
        }
    }
}

/// Width (elements) and height (bits) of one hardware TMU tile.
///
/// The Figure 8 design is drawn as an 8T array sized for byte elements; we
/// model a 64x64-bit tile (64 elements of up to 64 bits), matching the
/// 64-bit quadrant buses that feed it.
pub const TMU_TILE_DIM: usize = 64;

/// A transpose memory unit converting between bit-parallel and transposed
/// data layouts.
///
/// # Examples
///
/// ```
/// use nc_sram::TransposeUnit;
///
/// let mut tmu = TransposeUnit::new(8);
/// let elements = [1u64, 2, 3, 250];
/// tmu.load_regular(&elements)?;
/// // Bit-slice 1 holds the second bit of every element: 0,1,1,1.
/// let slice = tmu.read_bit_slice(1)?;
/// assert_eq!((0..4).map(|i| u8::from(slice.get(i))).collect::<Vec<_>>(), vec![0, 1, 1, 1]);
/// # Ok::<(), nc_sram::SramError>(())
/// ```
#[derive(Clone)]
pub struct TransposeUnit {
    bits_per_element: usize,
    /// cells[element][bit]
    cells: [u64; COLS],
    elements: usize,
    stats: CycleStats,
}

impl TransposeUnit {
    /// Creates a TMU handling elements of `bits_per_element` bits (1..=64).
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_element` is 0 or exceeds 64.
    #[must_use]
    pub fn new(bits_per_element: usize) -> Self {
        assert!(
            (1..=64).contains(&bits_per_element),
            "TMU element width must be 1..=64 bits"
        );
        TransposeUnit {
            bits_per_element,
            cells: [0; COLS],
            elements: 0,
            stats: CycleStats::new(),
        }
    }

    /// Element width this TMU was configured for.
    #[must_use]
    pub fn bits_per_element(&self) -> usize {
        self.bits_per_element
    }

    /// Number of elements currently loaded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.elements
    }

    /// Returns `true` when no elements are loaded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elements == 0
    }

    /// Access-cycle statistics of this unit.
    #[must_use]
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// Loads up to 256 elements in the regular (bit-parallel) direction,
    /// one access cycle per element row.
    ///
    /// # Errors
    ///
    /// Fails if more than 256 elements are supplied or an element overflows
    /// the configured width.
    pub fn load_regular(&mut self, elements: &[u64]) -> Result<()> {
        if elements.len() > COLS {
            return Err(SramError::ColOutOfRange {
                col: elements.len(),
            });
        }
        let max = if self.bits_per_element == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits_per_element) - 1
        };
        for (i, &e) in elements.iter().enumerate() {
            if e > max {
                return Err(SramError::DestinationTooNarrow {
                    needed: (64 - e.leading_zeros()) as usize,
                    available: self.bits_per_element,
                });
            }
            self.cells[i] = e;
            self.stats.access_cycles += 1;
        }
        for c in self.cells.iter_mut().skip(elements.len()) {
            *c = 0;
        }
        self.elements = elements.len();
        Ok(())
    }

    /// Reads bit-slice `bit` in the transposed direction: bit `bit` of every
    /// loaded element, packed into a [`BitRow`] (element `i` on column `i`).
    /// One access cycle.
    ///
    /// # Errors
    ///
    /// Fails if `bit` exceeds the configured element width.
    pub fn read_bit_slice(&mut self, bit: usize) -> Result<BitRow> {
        if bit >= self.bits_per_element {
            return Err(SramError::RowOutOfRange { row: bit });
        }
        self.stats.access_cycles += 1;
        let mut shifted = [0u64; COLS];
        for (s, &c) in shifted.iter_mut().zip(&self.cells) {
            *s = c >> bit;
        }
        let mut slice = [BitRow::zero()];
        to_planes(&shifted, COLS, &mut slice);
        Ok(slice[0])
    }

    /// Writes bit-slice `bit` in the transposed direction (one access
    /// cycle), the inverse path used when results leave the compute arrays.
    ///
    /// # Errors
    ///
    /// Fails if `bit` exceeds the configured element width.
    pub fn write_bit_slice(&mut self, bit: usize, slice: &BitRow) -> Result<()> {
        if bit >= self.bits_per_element {
            return Err(SramError::RowOutOfRange { row: bit });
        }
        let mut bits = [0u64; COLS];
        from_planes(std::slice::from_ref(slice), COLS, &mut bits);
        for (c, b) in self.cells.iter_mut().zip(bits) {
            *c = (*c & !(1 << bit)) | (b << bit);
        }
        self.elements = self.elements.max(COLS);
        self.stats.access_cycles += 1;
        Ok(())
    }

    /// Reads element `i` back in the regular direction (one access cycle).
    ///
    /// # Errors
    ///
    /// Fails if `i` exceeds 256 columns.
    pub fn read_regular(&mut self, i: usize) -> Result<u64> {
        if i >= COLS {
            return Err(SramError::ColOutOfRange { col: i });
        }
        self.stats.access_cycles += 1;
        Ok(self.cells[i])
    }

    /// Convenience: transposes a byte slice into `8` bit-slice rows in one
    /// call (used when streaming quantized inputs through the C-BOX).
    ///
    /// # Errors
    ///
    /// Fails if more than 256 bytes are supplied or the unit is not
    /// byte-configured.
    pub fn transpose_bytes(&mut self, bytes: &[u8]) -> Result<Vec<BitRow>> {
        if self.bits_per_element != 8 {
            return Err(SramError::DestinationTooNarrow {
                needed: 8,
                available: self.bits_per_element,
            });
        }
        let words: Vec<u64> = bytes.iter().map(|&b| u64::from(b)).collect();
        self.load_regular(&words)?;
        // One transpose yields all eight slices; each costs its read cycle.
        let mut slices = vec![BitRow::zero(); 8];
        to_planes(&self.cells, COLS, &mut slices);
        self.stats.access_cycles += 8;
        Ok(slices)
    }
}

impl fmt::Debug for TransposeUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TransposeUnit {{ bits_per_element: {}, elements: {} }}",
            self.bits_per_element, self.elements
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_regular_to_transposed_and_back() {
        let mut tmu = TransposeUnit::new(8);
        let data: Vec<u64> = (0..256).map(|i| (i * 7 % 256) as u64).collect();
        tmu.load_regular(&data).unwrap();
        // Reconstruct elements from bit slices.
        let slices: Vec<BitRow> = (0..8).map(|b| tmu.read_bit_slice(b).unwrap()).collect();
        for (i, &want) in data.iter().enumerate() {
            let mut got = 0u64;
            for (b, slice) in slices.iter().enumerate() {
                if slice.get(i) {
                    got |= 1 << b;
                }
            }
            assert_eq!(got, want, "element {i}");
        }
        // And back through the regular port.
        for (i, &want) in data.iter().enumerate() {
            assert_eq!(tmu.read_regular(i).unwrap(), want);
        }
    }

    #[test]
    fn write_bit_slices_then_read_regular() {
        let mut tmu = TransposeUnit::new(4);
        for bit in 0..4 {
            // Value 0b1010 on every even column, 0b0101 on odd.
            let slice = BitRow::from_fn(|c| ((0b1010 >> bit) & 1 == 1) == (c % 2 == 0));
            tmu.write_bit_slice(bit, &slice).unwrap();
        }
        assert_eq!(tmu.read_regular(0).unwrap(), 0b1010);
        assert_eq!(tmu.read_regular(1).unwrap(), 0b0101);
    }

    #[test]
    fn rejects_oversized_elements() {
        let mut tmu = TransposeUnit::new(4);
        assert!(tmu.load_regular(&[16]).is_err());
        assert!(tmu.load_regular(&[15]).is_ok());
        assert!(tmu.read_bit_slice(4).is_err());
    }

    #[test]
    fn transpose_bytes_convenience() {
        let mut tmu = TransposeUnit::new(8);
        let rows = tmu.transpose_bytes(&[0xFF, 0x00, 0xA5]).unwrap();
        assert_eq!(rows.len(), 8);
        assert!(rows[0].get(0));
        assert!(!rows[0].get(1));
        assert!(rows[0].get(2)); // 0xA5 bit 0 = 1
        assert!(!rows[1].get(2)); // 0xA5 bit 1 = 0
    }

    #[test]
    fn counts_access_cycles() {
        let mut tmu = TransposeUnit::new(8);
        tmu.load_regular(&[1, 2, 3]).unwrap();
        let _ = tmu.read_bit_slice(0).unwrap();
        assert_eq!(tmu.stats().access_cycles, 4);
    }
}
