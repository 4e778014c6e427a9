//! Sortable key types and order-preserving radix encodings.
//!
//! The paper evaluates 32-bit (`u32`, `i32`, `f32`) and 64-bit (`u64`, `i64`,
//! `f64`) keys (Section 6.3). Radix sorts require an unsigned bit image whose
//! unsigned order equals the key's natural order:
//!
//! * unsigned integers: identity;
//! * signed integers: flip the sign bit;
//! * IEEE-754 floats: flip the sign bit for positive values, flip *all* bits
//!   for negative values (the classic total-order transform used by GPU radix
//!   sorts).
//!
//! All transforms are exact involutions via [`SortKey::from_radix`], so a
//! radix sort on the image followed by decoding yields the totally ordered
//! sequence (for floats this is the IEEE total order: `-NaN < -inf < ... <
//! -0.0 < +0.0 < ... < +inf < +NaN`).

use std::fmt::Debug;

/// Identifies a key type at runtime; used by experiment configs and the
/// Section 6.3 data-type experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit unsigned integer.
    U32,
    /// 32-bit signed integer.
    I32,
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit unsigned integer.
    U64,
    /// 64-bit signed integer.
    I64,
    /// 64-bit IEEE-754 float.
    F64,
    /// 32-bit key + 32-bit payload pair (8 bytes per element); see
    /// [`crate::pairs::Pair`].
    Kv32,
    /// 64-bit key + 32-bit payload pair (12 bytes per element).
    Kv64,
}

impl DataType {
    /// Size of one *element* in bytes (key plus payload for pair types) —
    /// the unit every transfer- and bandwidth-cost model works in.
    #[must_use]
    pub const fn key_bytes(self) -> u64 {
        match self {
            DataType::U32 | DataType::I32 | DataType::F32 => 4,
            DataType::U64 | DataType::I64 | DataType::F64 | DataType::Kv32 => 8,
            DataType::Kv64 => 12,
        }
    }

    /// Human-readable name matching the paper's terminology.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            DataType::U32 => "u32",
            DataType::I32 => "i32",
            DataType::F32 => "f32",
            DataType::U64 => "u64",
            DataType::I64 => "i64",
            DataType::F64 => "f64",
            DataType::Kv32 => "kv32",
            DataType::Kv64 => "kv64",
        }
    }

    /// All supported data types, in the order the paper reports them.
    #[must_use]
    pub const fn all() -> [DataType; 6] {
        [
            DataType::U32,
            DataType::I32,
            DataType::F32,
            DataType::U64,
            DataType::I64,
            DataType::F64,
        ]
    }
}

/// A key type sortable by every algorithm in this workspace.
///
/// `Radix` is the order-preserving unsigned image used by radix sorts; the
/// comparison used by merge phases is `Ord` on that image, which gives floats
/// the IEEE total order without any `PartialOrd` pitfalls.
pub trait SortKey: Copy + Send + Sync + Debug + 'static {
    /// Unsigned integer image type (`u32` or `u64`).
    type Radix: RadixImage;

    /// Runtime tag for this key type.
    const DATA_TYPE: DataType;

    /// Map to the order-preserving unsigned image.
    fn to_radix(self) -> Self::Radix;

    /// Inverse of [`SortKey::to_radix`].
    fn from_radix(bits: Self::Radix) -> Self;

    /// Total-order comparison via the radix image.
    #[inline]
    fn total_cmp_key(&self, other: &Self) -> std::cmp::Ordering {
        self.to_radix().cmp(&other.to_radix())
    }

    /// `true` if `self` sorts at or before `other` in the total order.
    #[inline]
    fn le_key(&self, other: &Self) -> bool {
        self.to_radix() <= other.to_radix()
    }
}

/// Operations required of a radix image: an unsigned integer wide enough to
/// hold the key, supporting digit extraction for LSB/MSB radix sorts.
pub trait RadixImage: Copy + Send + Sync + Ord + Debug + 'static {
    /// Number of bits in the image (32 or 64).
    const BITS: u32;

    /// Extract `width` bits starting at bit `shift` as a `usize` digit.
    fn digit(self, shift: u32, width: u32) -> usize;

    /// The zero image (smallest value).
    fn zero() -> Self;

    /// The all-ones image (largest value).
    fn max_value() -> Self;

    /// Construct an image from a `u64`, truncating high bits for 32-bit
    /// images (used by generators to map entropy/fractions onto the domain).
    fn from_u64_trunc(v: u64) -> Self;

    /// Widen the image to a `u64` (zero-extending).
    fn to_u64(self) -> u64;

    /// An unsigned integer twice the image's width holding the image in its
    /// high half and a 32-bit tag in its low half (`u64` for 32-bit images,
    /// `u128` for 64-bit ones). Word order is image order, ties broken by
    /// tag: the single comparison a loser-tree node makes.
    type Word: Copy + Send + Sync + Ord + Debug + 'static;

    /// Pack the image and `tag` into one [`RadixImage::Word`].
    fn pack(self, tag: u32) -> Self::Word;

    /// Split a word back into its image and tag.
    fn unpack(word: Self::Word) -> (Self, u32);
}

impl RadixImage for u32 {
    const BITS: u32 = 32;
    type Word = u64;

    #[inline]
    fn digit(self, shift: u32, width: u32) -> usize {
        ((self >> shift) & ((1u32 << width) - 1)) as usize
    }

    #[inline]
    fn zero() -> Self {
        0
    }

    #[inline]
    fn max_value() -> Self {
        u32::MAX
    }

    #[inline]
    fn from_u64_trunc(v: u64) -> Self {
        v as u32
    }

    #[inline]
    fn to_u64(self) -> u64 {
        u64::from(self)
    }

    #[inline]
    fn pack(self, tag: u32) -> u64 {
        u64::from(self) << 32 | u64::from(tag)
    }

    #[inline]
    fn unpack(word: u64) -> (Self, u32) {
        ((word >> 32) as u32, word as u32)
    }
}

impl RadixImage for u64 {
    const BITS: u32 = 64;
    type Word = u128;

    #[inline]
    fn digit(self, shift: u32, width: u32) -> usize {
        ((self >> shift) & ((1u64 << width) - 1)) as usize
    }

    #[inline]
    fn zero() -> Self {
        0
    }

    #[inline]
    fn max_value() -> Self {
        u64::MAX
    }

    #[inline]
    fn from_u64_trunc(v: u64) -> Self {
        v
    }

    #[inline]
    fn to_u64(self) -> u64 {
        self
    }

    #[inline]
    fn pack(self, tag: u32) -> u128 {
        u128::from(self) << 32 | u128::from(tag)
    }

    #[inline]
    fn unpack(word: u128) -> (Self, u32) {
        ((word >> 32) as u64, word as u32)
    }
}

impl SortKey for u32 {
    type Radix = u32;
    const DATA_TYPE: DataType = DataType::U32;

    #[inline]
    fn to_radix(self) -> u32 {
        self
    }

    #[inline]
    fn from_radix(bits: u32) -> Self {
        bits
    }
}

impl SortKey for u64 {
    type Radix = u64;
    const DATA_TYPE: DataType = DataType::U64;

    #[inline]
    fn to_radix(self) -> u64 {
        self
    }

    #[inline]
    fn from_radix(bits: u64) -> Self {
        bits
    }
}

impl SortKey for i32 {
    type Radix = u32;
    const DATA_TYPE: DataType = DataType::I32;

    #[inline]
    fn to_radix(self) -> u32 {
        (self as u32) ^ (1 << 31)
    }

    #[inline]
    fn from_radix(bits: u32) -> Self {
        (bits ^ (1 << 31)) as i32
    }
}

impl SortKey for i64 {
    type Radix = u64;
    const DATA_TYPE: DataType = DataType::I64;

    #[inline]
    fn to_radix(self) -> u64 {
        (self as u64) ^ (1 << 63)
    }

    #[inline]
    fn from_radix(bits: u64) -> Self {
        (bits ^ (1 << 63)) as i64
    }
}

impl SortKey for f32 {
    type Radix = u32;
    const DATA_TYPE: DataType = DataType::F32;

    #[inline]
    fn to_radix(self) -> u32 {
        let bits = self.to_bits();
        // Negative floats: flip everything so bigger magnitude sorts first.
        // Non-negative: just set the sign bit so they sort above negatives.
        if bits >> 31 == 1 {
            !bits
        } else {
            bits | (1 << 31)
        }
    }

    #[inline]
    fn from_radix(bits: u32) -> Self {
        let bits = if bits >> 31 == 1 {
            bits & !(1 << 31)
        } else {
            !bits
        };
        f32::from_bits(bits)
    }
}

impl SortKey for f64 {
    type Radix = u64;
    const DATA_TYPE: DataType = DataType::F64;

    #[inline]
    fn to_radix(self) -> u64 {
        let bits = self.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        }
    }

    #[inline]
    fn from_radix(bits: u64) -> Self {
        let bits = if bits >> 63 == 1 {
            bits & !(1 << 63)
        } else {
            !bits
        };
        f64::from_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<K: SortKey + PartialEq>(k: K) {
        assert!(K::from_radix(k.to_radix()) == k);
    }

    #[test]
    fn unsigned_roundtrip() {
        for v in [0u32, 1, 42, u32::MAX, u32::MAX - 1] {
            roundtrip(v);
        }
        for v in [0u64, 1, u64::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn signed_roundtrip_and_order() {
        let vals = [i32::MIN, -100, -1, 0, 1, 100, i32::MAX];
        for v in vals {
            roundtrip(v);
        }
        for w in vals.windows(2) {
            assert!(w[0].to_radix() < w[1].to_radix(), "{} !< {}", w[0], w[1]);
        }
        let vals64 = [i64::MIN, -5, 0, 5, i64::MAX];
        for w in vals64.windows(2) {
            assert!(w[0].to_radix() < w[1].to_radix());
        }
    }

    #[test]
    fn float_roundtrip_and_order() {
        let vals = [
            f32::NEG_INFINITY,
            -1.0e30,
            -2.5,
            -1.0,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            2.5,
            1.0e30,
            f32::INFINITY,
        ];
        for v in vals {
            roundtrip(v);
        }
        for w in vals.windows(2) {
            assert!(w[0].to_radix() <= w[1].to_radix(), "{} !<= {}", w[0], w[1]);
        }
        // -0.0 and 0.0 are distinct in the total order but adjacent.
        assert!((-0.0f32).to_radix() < 0.0f32.to_radix());
    }

    #[test]
    fn float_nan_total_order() {
        let nan = f32::NAN;
        assert!(nan.to_radix() > f32::INFINITY.to_radix());
        let neg_nan = f32::from_bits(f32::NAN.to_bits() | (1 << 31));
        assert!(neg_nan.to_radix() < f32::NEG_INFINITY.to_radix());
    }

    #[test]
    fn f64_order() {
        let vals = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, 1.5, f64::INFINITY];
        for v in vals {
            roundtrip(v);
        }
        for w in vals.windows(2) {
            assert!(w[0].to_radix() <= w[1].to_radix());
        }
    }

    #[test]
    fn digit_extraction() {
        let v: u32 = 0xAB_CD_12_34;
        assert_eq!(v.digit(0, 8), 0x34);
        assert_eq!(v.digit(8, 8), 0x12);
        assert_eq!(v.digit(16, 8), 0xCD);
        assert_eq!(v.digit(24, 8), 0xAB);
        assert_eq!(v.digit(4, 4), 0x3);
        let w: u64 = 0xFF00_0000_0000_00EE;
        assert_eq!(w.digit(0, 8), 0xEE);
        assert_eq!(w.digit(56, 8), 0xFF);
    }

    #[test]
    fn packed_words_order_by_image_then_tag() {
        assert!(5u32.pack(u32::MAX) < 6u32.pack(0));
        assert!(u32::MAX.pack(3) < u32::MAX.pack(1 << 31));
        assert_eq!(u32::unpack(0xDEAD_BEEFu32.pack(7)), (0xDEAD_BEEF, 7));
        assert!(5u64.pack(u32::MAX) < 6u64.pack(0));
        assert!(u64::MAX.pack(3) < u64::MAX.pack(1 << 31));
        assert_eq!(u64::unpack(u64::MAX.pack(u32::MAX)), (u64::MAX, u32::MAX));
    }

    #[test]
    fn data_type_bytes() {
        assert_eq!(DataType::U32.key_bytes(), 4);
        assert_eq!(DataType::F64.key_bytes(), 8);
        assert_eq!(DataType::all().len(), 6);
    }
}
