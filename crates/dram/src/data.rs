//! Data patterns and packed row images.
//!
//! The paper tests five data patterns (§3.1): four *fixed* byte-pair
//! patterns (`0x00/0xFF`, `0xAA/0x55`, `0xCC/0x33`, `0x66/0x99`) where each
//! activated row is filled entirely with one byte of the pair, and a
//! uniformly *random* pattern where every activated row gets independent
//! random data. Random is the default everywhere because it is the
//! worst-case pattern observed.

use std::fmt;

use rand::Rng;

/// A packed bit image of one DRAM row (one bit per modelled bitline).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitRow {
    words: Vec<u64>,
    len: usize,
}

impl BitRow {
    /// An all-zeros row of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitRow {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// An all-ones row of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut row = BitRow {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        row.mask_tail();
        row
    }

    /// A row whose bytes all equal `byte` (bit 0 of the row is bit 0 of the
    /// first byte), truncated/cycled to `len` bits.
    pub fn repeat_byte(byte: u8, len: usize) -> Self {
        let mut row = BitRow::zeros(len);
        for i in 0..len {
            let bit = (byte >> (i % 8)) & 1 == 1;
            row.set(i, bit);
        }
        row
    }

    /// A uniformly random row drawn from `rng`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let mut row = BitRow {
            words: (0..len.div_ceil(64)).map(|_| rng.gen()).collect(),
            len,
        };
        row.mask_tail();
        row
    }

    /// Builds a row from an iterator of bits.
    ///
    /// Single pass: bits are packed into words as they are drawn, with
    /// no intermediate buffer — this sits on the per-trial sense hot
    /// path ([`crate::Subarray`] senses resolve one bit per column).
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits = bits.into_iter();
        let mut words = Vec::with_capacity(bits.size_hint().0.div_ceil(64));
        let mut len = 0usize;
        let mut word = 0u64;
        for b in bits {
            word |= (b as u64) << (len % 64);
            len += 1;
            if len.is_multiple_of(64) {
                words.push(word);
                word = 0;
            }
        }
        if !len.is_multiple_of(64) {
            words.push(word);
        }
        BitRow { words, len }
    }

    /// Number of bits in the row.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed image: bit `i` is bit `i % 64` of word `i / 64`, and the
    /// bits past [`len`](Self::len) in the last word are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range ({} bits)",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range ({} bits)",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of positions where `self` and `other` agree.
    ///
    /// # Panics
    ///
    /// Panics if the rows have different lengths.
    pub fn matches(&self, other: &BitRow) -> usize {
        assert_eq!(self.len, other.len, "row length mismatch");
        self.len - self.hamming(other)
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the rows have different lengths.
    pub fn hamming(&self, other: &BitRow) -> usize {
        assert_eq!(self.len, other.len, "row length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Bitwise complement of the row.
    pub fn complement(&self) -> BitRow {
        let mut out = BitRow {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Iterates over the bits of the row.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

macro_rules! bitrow_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait<&BitRow> for &BitRow {
            type Output = BitRow;

            /// Word-wise bitwise operation.
            ///
            /// # Panics
            ///
            /// Panics if the rows have different lengths.
            fn $method(self, rhs: &BitRow) -> BitRow {
                assert_eq!(self.len, rhs.len, "row length mismatch");
                let mut out = BitRow {
                    words: self.words.iter().zip(&rhs.words).map(|(a, b)| a $op b).collect(),
                    len: self.len,
                };
                out.mask_tail();
                out
            }
        }
    };
}

bitrow_binop!(BitAnd, bitand, &);
bitrow_binop!(BitOr, bitor, |);
bitrow_binop!(BitXor, bitxor, ^);

impl std::ops::Not for &BitRow {
    type Output = BitRow;

    /// Word-wise complement (same as [`BitRow::complement`]).
    fn not(self) -> BitRow {
        self.complement()
    }
}

impl fmt::Display for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show at most the first 64 bits; rows are wide.
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > shown {
            write!(f, "… ({} bits)", self.len)?;
        }
        Ok(())
    }
}

/// The data patterns swept in the paper's experiments (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPattern {
    /// Each row all `0x00` or all `0xFF`.
    Solid,
    /// Each row all `0xAA` or all `0x55`.
    Checkered,
    /// Each row all `0xCC` or all `0x33`.
    ColStripe2,
    /// Each row all `0x66` or all `0x99`.
    ColStripe2Shifted,
    /// Uniformly random data, fresh per row (the worst-case pattern).
    Random,
}

impl DataPattern {
    /// All five patterns, in the paper's order.
    pub const ALL: [DataPattern; 5] = [
        DataPattern::Solid,
        DataPattern::Checkered,
        DataPattern::ColStripe2,
        DataPattern::ColStripe2Shifted,
        DataPattern::Random,
    ];

    /// The byte pair for fixed patterns; `None` for [`DataPattern::Random`].
    pub fn byte_pair(self) -> Option<(u8, u8)> {
        match self {
            DataPattern::Solid => Some((0x00, 0xFF)),
            DataPattern::Checkered => Some((0xAA, 0x55)),
            DataPattern::ColStripe2 => Some((0xCC, 0x33)),
            DataPattern::ColStripe2Shifted => Some((0x66, 0x99)),
            DataPattern::Random => None,
        }
    }

    /// Whether this pattern produces per-bitline-uncorrelated data.
    pub fn is_random(self) -> bool {
        self == DataPattern::Random
    }

    /// Produces the image for the `index`-th row of a group.
    ///
    /// For fixed patterns even-indexed rows take the first byte of the pair
    /// and odd-indexed rows the second, matching the paper's "fill each
    /// activated row either with all A or all B".
    pub fn row_image<R: Rng + ?Sized>(self, index: usize, cols: usize, rng: &mut R) -> BitRow {
        match self.byte_pair() {
            Some((a, b)) => BitRow::repeat_byte(if index.is_multiple_of(2) { a } else { b }, cols),
            None => BitRow::random(rng, cols),
        }
    }
}

impl fmt::Display for DataPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataPattern::Solid => "0x00/0xFF",
            DataPattern::Checkered => "0xAA/0x55",
            DataPattern::ColStripe2 => "0xCC/0x33",
            DataPattern::ColStripe2Shifted => "0x66/0x99",
            DataPattern::Random => "random",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_ones() {
        let z = BitRow::zeros(100);
        let o = BitRow::ones(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(z.hamming(&o), 100);
        assert_eq!(z.matches(&o), 0);
        assert_eq!(z.complement(), o);
    }

    #[test]
    fn repeat_byte_patterns() {
        let aa = BitRow::repeat_byte(0xAA, 16);
        // 0xAA = 0b10101010: bit 0 is 0, bit 1 is 1, ...
        assert!(!aa.get(0));
        assert!(aa.get(1));
        assert!(!aa.get(8));
        assert!(aa.get(9));
        assert_eq!(aa.count_ones(), 8);
    }

    #[test]
    fn set_get_roundtrip_and_tail_masking() {
        let mut r = BitRow::zeros(70);
        r.set(69, true);
        assert!(r.get(69));
        r.set(69, false);
        assert_eq!(r.count_ones(), 0);
        let o = BitRow::ones(70);
        assert_eq!(o.count_ones(), 70);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitRow::zeros(8).get(8);
    }

    #[test]
    fn random_rows_are_seed_deterministic() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(BitRow::random(&mut a, 333), BitRow::random(&mut b, 333));
    }

    #[test]
    fn pattern_pairs_match_paper() {
        assert_eq!(DataPattern::Solid.byte_pair(), Some((0x00, 0xFF)));
        assert_eq!(DataPattern::Checkered.byte_pair(), Some((0xAA, 0x55)));
        assert_eq!(DataPattern::ColStripe2.byte_pair(), Some((0xCC, 0x33)));
        assert_eq!(
            DataPattern::ColStripe2Shifted.byte_pair(),
            Some((0x66, 0x99))
        );
        assert_eq!(DataPattern::Random.byte_pair(), None);
    }

    #[test]
    fn fixed_pattern_alternates_pair_by_row_index() {
        let mut rng = StdRng::seed_from_u64(0);
        let r0 = DataPattern::Solid.row_image(0, 64, &mut rng);
        let r1 = DataPattern::Solid.row_image(1, 64, &mut rng);
        assert_eq!(r0.count_ones(), 0);
        assert_eq!(r1.count_ones(), 64);
    }

    #[test]
    fn word_wise_operators_match_bitwise_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = BitRow::random(&mut rng, 130);
        let b = BitRow::random(&mut rng, 130);
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        let not = !&a;
        for i in 0..130 {
            assert_eq!(and.get(i), a.get(i) && b.get(i));
            assert_eq!(or.get(i), a.get(i) || b.get(i));
            assert_eq!(xor.get(i), a.get(i) ^ b.get(i));
            assert_eq!(not.get(i), !a.get(i));
        }
        // Tail bits beyond len stay masked.
        assert_eq!(
            or.count_ones(),
            (0..130).filter(|&i| a.get(i) || b.get(i)).count()
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn operator_length_mismatch_panics() {
        let _ = &BitRow::zeros(8) & &BitRow::zeros(9);
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits = [true, false, true, true, false];
        let r = BitRow::from_bits(bits);
        let back: Vec<bool> = r.iter().collect();
        assert_eq!(back, bits);
    }
}
