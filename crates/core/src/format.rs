//! The [`Format`] trait: the uniform interface every 8-bit format
//! (FP8, Posit8, MERSIT8, INT8) implements, plus the shared
//! table-driven round-to-nearest encoder.

use crate::fields::{Decoded, ValueClass};
use crate::quant_lut::FormatCaches;
use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

/// How values below the smallest representable positive magnitude round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UnderflowPolicy {
    /// IEEE-style: round-to-nearest-even against zero — values below half
    /// the minimum positive flush to zero. Used by FP8 and INT8.
    #[default]
    FlushToZero,
    /// Posit-style: a non-zero real never rounds to zero; anything in
    /// `(0, minpos]` becomes `minpos`. Used by Posit and MERSIT
    /// (MERSIT is Posit-like and inherits the convention).
    SaturateToMinPos,
}

/// A fixed-width binary number format with at most 16 bits.
///
/// Implementations must guarantee:
///
/// * `decode` is total over all `2^bits()` codes (returning `f64` values,
///   `±∞`, or NaN as the format prescribes);
/// * positive finite codes decode to *distinct* magnitudes;
/// * `encode` performs round-to-nearest with the format's native tie rule,
///   saturating to the largest finite value and applying the format's
///   [`UnderflowPolicy`] near zero;
/// * `caches` returns a [`FormatCaches`] owned by this instance: created
///   empty with the instance ([`FormatCaches::new`]) and shared only with
///   its clones. The memoized constants derive from the format's own
///   codes, so one cache must never serve two different formats.
///
/// # Examples
///
/// ```
/// use mersit_core::{Format, Mersit, Posit, Fp8};
///
/// let m = Mersit::new(8, 2).unwrap();
/// let x = 0.7_f64;
/// let q = m.quantize(x);
/// assert!((q - x).abs() < x / 16.0); // within one ulp at 4 fraction bits
/// ```
pub trait Format: Debug + Send + Sync {
    /// Human-readable name, e.g. `"MERSIT(8,2)"`.
    fn name(&self) -> String;

    /// Total width of the format in bits (8 for everything in the paper).
    fn bits(&self) -> u32;

    /// Decodes a code word to its represented value.
    ///
    /// Codes wider than [`Format::bits`] must be masked by the caller;
    /// implementations ignore the excess high bits.
    fn decode(&self, code: u16) -> f64;

    /// Classifies a code word.
    fn classify(&self, code: u16) -> ValueClass;

    /// Decoder-output fields for a *finite, non-zero* code;
    /// `None` for zero / infinity / NaN codes.
    fn fields(&self, code: u16) -> Option<Decoded>;

    /// Encodes `x` with round-to-nearest (format-native tie rule),
    /// saturating at the largest finite magnitude.
    fn encode(&self, x: f64) -> u16;

    /// The largest finite representable magnitude.
    fn max_finite(&self) -> f64;

    /// The smallest positive representable magnitude (subnormals included).
    fn min_positive(&self) -> f64;

    /// Underflow behaviour near zero.
    fn underflow_policy(&self) -> UnderflowPolicy {
        UnderflowPolicy::FlushToZero
    }

    /// The maximum number of fraction bits the format can carry
    /// (the `M − 1` of the MAC's fraction multiplier in Fig. 2).
    fn max_frac_bits(&self) -> u32;

    /// Round-trips `x` through the format: `decode(encode(x))`.
    fn quantize(&self, x: f64) -> f64 {
        self.decode(self.encode(x))
    }

    /// This instance's memo of derived constants (see the trait-level
    /// contract); [`Format::scale_anchor`] and [`Format::quant_spec`]
    /// read through it.
    fn caches(&self) -> &FormatCaches;

    /// The scaling anchor: the largest lattice magnitude inside the
    /// highest binade still carrying the format's maximal effective
    /// fraction bits. PTQ maps `max|x|` onto this value. Computed once
    /// per instance.
    fn scale_anchor(&self) -> f64 {
        self.caches().anchor(self)
    }

    /// The scale-independent batched-quantization spec of the format.
    /// Computed once per instance.
    fn quant_spec(&self) -> Arc<crate::quant_lut::QuantSpec> {
        self.caches().spec(self)
    }

    /// All codes of the format, `0..2^bits()`.
    fn codes(&self) -> std::ops::Range<u32> {
        0..(1u32 << self.bits())
    }
}

/// One entry of the positive-magnitude lattice of a format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatticePoint {
    /// The represented magnitude.
    pub value: f64,
    /// The code of the *positive* value.
    pub code: u16,
    /// Raw fraction field (used for even-fraction tie breaking).
    pub frac: u32,
    /// Fraction width at this point.
    pub frac_bits: u32,
}

/// Tie-breaking rule applied when a real lands exactly between two
/// representable magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieRule {
    /// Pick the neighbour with an even fraction field; if both are even
    /// (regime/binade boundary), pick the larger magnitude.
    /// Reproduces IEEE round-to-nearest-even for FP8.
    #[default]
    EvenFraction,
    /// Pick the neighbour whose code is even, treating the positive
    /// code lattice as integers (the Posit-standard rule; valid because
    /// Posit codes are monotone in value).
    EvenCode,
}

/// Shared table-driven codec: the sorted positive-magnitude lattice of a
/// format together with rounding rules, plus the per-code decode table of
/// formats at most 8 bits wide.
///
/// Formats build this once from their own computed `decode`, which keeps
/// `encode` and `decode` consistent by construction. `encode` queries go
/// through a value-space bucket index and a short search of one bucket;
/// `decode` of a narrow format is one table load. Both tables are built
/// on first use, so a format that is parsed but never encodes or decodes
/// (a queued request's assignment) costs no more than before.
#[derive(Debug, Clone)]
pub struct EncodeTable {
    points: Arc<[LatticePoint]>,
    tie: TieRule,
    underflow: UnderflowPolicy,
    /// Codes the per-code decode table covers: `2^bits` for formats at
    /// most [`DECODE_TABLE_MAX_BITS`] wide; 0 for wider formats and while
    /// the format is under construction, which decode by computation.
    table_codes: usize,
    /// `decode(code)` for every code, filled from the computed decode on
    /// first use.
    decoded: OnceLock<Arc<[f64]>>,
    /// The bucket index behind [`EncodeTable::round_positive`].
    index: OnceLock<Arc<LatticeIndex>>,
}

/// Widest format that gets a per-code decode table (`2^bits` entries).
const DECODE_TABLE_MAX_BITS: u32 = 8;

/// Most entries a [`LatticeIndex`] may hold. Narrow formats stay far
/// below it; wide ones trade finer buckets for a bounded table.
const INDEX_MAX_BUCKETS: u64 = 1 << 14;

/// Value-space bucket index over a lattice: positive `f64`s are ordered
/// like their bit patterns, so the exponent and top `52 − shift` mantissa
/// bits of `x` name a bucket, and `first` records which lattice points
/// each bucket holds.
#[derive(Debug)]
struct LatticeIndex {
    /// The lattice magnitudes, ascending, contiguous.
    values: Box<[f64]>,
    /// `first[b]` is the index of the first magnitude at or above bucket
    /// `b`'s lower edge; one terminal entry past the last bucket.
    first: Box<[u16]>,
    /// Bits dropped from `x.to_bits()` to form its bucket key.
    shift: u32,
    /// Key of the smallest magnitude: bucket 0.
    base: u64,
}

impl LatticeIndex {
    fn build(points: &[LatticePoint]) -> Self {
        let values: Box<[f64]> = points.iter().map(|p| p.value).collect();
        let (lo, hi) = (values[0].to_bits(), values[values.len() - 1].to_bits());
        // One bucket per step of the finest fraction grid puts at most one
        // magnitude in each bucket; coarsen while the table would be too big.
        let mut mant_bits = points
            .iter()
            .map(|p| p.frac_bits)
            .max()
            .unwrap_or(0)
            .min(52);
        while mant_bits > 0
            && (hi >> (52 - mant_bits)) - (lo >> (52 - mant_bits)) >= INDEX_MAX_BUCKETS
        {
            mant_bits -= 1;
        }
        let shift = 52 - mant_bits;
        let base = lo >> shift;
        let buckets = ((hi >> shift) - base) as usize + 1;
        let pos = |i: usize| u16::try_from(i).expect("lattice fits u16 indices");
        // `first[b]` is the first magnitude whose key reaches `b`: one
        // merge pass, filling the buckets up to each magnitude's own.
        let mut first = Vec::with_capacity(buckets + 1);
        for (i, v) in values.iter().enumerate() {
            let key = ((v.to_bits() >> shift) - base) as usize;
            if first.len() <= key {
                first.resize(key + 1, pos(i));
            }
        }
        first.resize(buckets + 1, pos(values.len()));
        Self {
            values,
            first: first.into(),
            shift,
            base,
        }
    }

    /// The index of the first magnitude `>= x`, for `x` strictly between
    /// the smallest and the largest magnitude — the same index
    /// `partition_point(|v| v < x)` over the whole lattice returns: every
    /// magnitude before bucket `b` is below `x`, and every one from
    /// bucket `b + 1` on is above it.
    #[inline]
    fn first_at_least(&self, x: f64) -> usize {
        let b = ((x.to_bits() >> self.shift) - self.base) as usize;
        let (lo, end) = (usize::from(self.first[b]), usize::from(self.first[b + 1]));
        lo + self.values[lo..end].partition_point(|&v| v < x)
    }
}

impl EncodeTable {
    /// An empty placeholder table, used during two-phase format construction
    /// (the format is created first, then its own `decode` builds the table).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            points: Vec::new().into(),
            tie: TieRule::EvenFraction,
            underflow: UnderflowPolicy::FlushToZero,
            table_codes: 0,
            decoded: OnceLock::new(),
            index: OnceLock::new(),
        }
    }

    /// Builds the lattice by decoding every code of `fmt` and keeping the
    /// positive finite ones, sorted ascending by magnitude.
    ///
    /// # Panics
    ///
    /// Panics if two positive codes decode to the same magnitude — that
    /// would indicate a broken format implementation.
    #[must_use]
    pub fn build(fmt: &dyn Format, tie: TieRule, underflow: UnderflowPolicy) -> Self {
        let codes = fmt.codes().len();
        // The sign bit leaves at most half the codes positive.
        let mut points = Vec::with_capacity(codes / 2);
        for code in fmt.codes() {
            let code = code as u16;
            let v = fmt.decode(code);
            if v.is_nan() || v <= 0.0 {
                continue;
            }
            // `fields` is `None` exactly for the zero, ∞ and NaN classes.
            let Some(d) = fmt.fields(code) else {
                continue;
            };
            points.push(LatticePoint {
                value: v,
                code,
                frac: d.frac,
                frac_bits: d.frac_bits,
            });
        }
        points.sort_by(|a, b| a.value.partial_cmp(&b.value).expect("finite values"));
        for w in points.windows(2) {
            assert!(
                w[0].value < w[1].value,
                "duplicate magnitude {} for codes {:#x} and {:#x}",
                w[0].value,
                w[0].code,
                w[1].code
            );
        }
        Self {
            points: points.into(),
            tie,
            underflow,
            table_codes: if fmt.bits() <= DECODE_TABLE_MAX_BITS {
                codes
            } else {
                0
            },
            decoded: OnceLock::new(),
            index: OnceLock::new(),
        }
    }

    /// `compute(code)`, the format's computed decode, read through the
    /// per-code table when the format has one (bits above the format's
    /// width are ignored). The first call fills the table from `compute`.
    #[inline]
    pub(crate) fn decode_with(&self, code: u16, compute: impl Fn(u16) -> f64) -> f64 {
        if self.table_codes == 0 {
            return compute(code);
        }
        let table = self
            .decoded
            .get_or_init(|| (0..self.table_codes).map(|c| compute(c as u16)).collect());
        table[usize::from(code) & (self.table_codes - 1)]
    }

    /// Entries in the filled per-code decode table (0 before the first
    /// decode and for formats that decode by computation).
    #[cfg(test)]
    pub(crate) fn decode_table_len(&self) -> usize {
        self.decoded.get().map_or(0, |t| t.len())
    }

    /// The positive-magnitude lattice, ascending.
    #[must_use]
    pub fn points(&self) -> &[LatticePoint] {
        &self.points
    }

    /// Largest finite magnitude.
    #[must_use]
    pub fn max_finite(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.value)
    }

    /// Smallest positive magnitude.
    #[must_use]
    pub fn min_positive(&self) -> f64 {
        self.points.first().map_or(0.0, |p| p.value)
    }

    /// Rounds a positive magnitude to the code of the nearest lattice point,
    /// or `None` when the value rounds to zero under the underflow policy.
    ///
    /// # Panics
    ///
    /// Panics if the lattice is empty or `x` is not a positive finite number.
    #[must_use]
    pub fn round_positive(&self, x: f64) -> Option<u16> {
        assert!(x > 0.0 && x.is_finite(), "round_positive needs 0 < x < inf");
        let pts = &self.points;
        assert!(!pts.is_empty(), "empty lattice");
        let first = &pts[0];
        if x <= first.value {
            return match self.underflow {
                UnderflowPolicy::SaturateToMinPos => Some(first.code),
                UnderflowPolicy::FlushToZero => {
                    let half = first.value / 2.0;
                    // Tie at exactly half of minpos goes to zero (zero is "even").
                    if x > half {
                        Some(first.code)
                    } else {
                        None
                    }
                }
            };
        }
        let last = &pts[pts.len() - 1];
        if x >= last.value {
            return Some(last.code);
        }
        // The first magnitude >= x: pts[hi - 1].value < x <= pts[hi].value.
        let hi = self
            .index
            .get_or_init(|| Arc::new(LatticeIndex::build(pts)))
            .first_at_least(x);
        if pts[hi].value == x {
            return Some(pts[hi].code);
        }
        let (a, b) = (&pts[hi - 1], &pts[hi]);
        let mid = a.value + (b.value - a.value) / 2.0;
        if x < mid {
            Some(a.code)
        } else if x > mid {
            Some(b.code)
        } else {
            Some(self.break_tie(a, b))
        }
    }

    /// The pre-index search, kept as the oracle of
    /// [`EncodeTable::round_positive`]: the same rounding, with a binary
    /// search over the whole lattice.
    #[cfg(test)]
    pub(crate) fn round_positive_reference(&self, x: f64) -> Option<u16> {
        assert!(x > 0.0 && x.is_finite(), "round_positive needs 0 < x < inf");
        let pts = &self.points;
        assert!(!pts.is_empty(), "empty lattice");
        let first = &pts[0];
        if x <= first.value {
            return match self.underflow {
                UnderflowPolicy::SaturateToMinPos => Some(first.code),
                UnderflowPolicy::FlushToZero => {
                    let half = first.value / 2.0;
                    if x > half {
                        Some(first.code)
                    } else {
                        None
                    }
                }
            };
        }
        let last = &pts[pts.len() - 1];
        if x >= last.value {
            return Some(last.code);
        }
        let hi = pts.partition_point(|p| p.value < x);
        if pts[hi].value == x {
            return Some(pts[hi].code);
        }
        let (a, b) = (&pts[hi - 1], &pts[hi]);
        let mid = a.value + (b.value - a.value) / 2.0;
        if x < mid {
            Some(a.code)
        } else if x > mid {
            Some(b.code)
        } else {
            Some(self.break_tie(a, b))
        }
    }

    /// The lower edge of every bucket of the encode index, for tests that
    /// probe the bucket boundaries.
    #[cfg(test)]
    pub(crate) fn bucket_edges(&self) -> Vec<f64> {
        let idx = self
            .index
            .get_or_init(|| Arc::new(LatticeIndex::build(&self.points)));
        (0..idx.first.len() as u64)
            .map(|b| f64::from_bits((idx.base + b) << idx.shift))
            .collect()
    }

    fn break_tie(&self, a: &LatticePoint, b: &LatticePoint) -> u16 {
        match self.tie {
            TieRule::EvenCode => {
                if a.code.is_multiple_of(2) {
                    a.code
                } else {
                    b.code
                }
            }
            TieRule::EvenFraction => {
                let a_even = a.frac.is_multiple_of(2) || a.frac_bits == 0;
                let b_even = b.frac.is_multiple_of(2) || b.frac_bits == 0;
                match (a_even, b_even) {
                    (true, false) => a.code,
                    (false | true, true) => b.code,
                    (false, false) => b.code, // cannot occur on a 1-ulp step
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp8::Fp8;

    #[test]
    fn lattice_is_sorted_and_distinct() {
        let f = Fp8::new(4).unwrap();
        let t = EncodeTable::build(&f, TieRule::EvenFraction, UnderflowPolicy::FlushToZero);
        assert!(t.points().windows(2).all(|w| w[0].value < w[1].value));
        assert_eq!(t.min_positive(), 2.0_f64.powi(-9));
        assert!((t.max_finite() - 1.875 * 128.0).abs() < 1e-12);
    }

    #[test]
    fn round_positive_nearest() {
        let f = Fp8::new(4).unwrap();
        let t = EncodeTable::build(&f, TieRule::EvenFraction, UnderflowPolicy::FlushToZero);
        // 1.0 is representable
        let c = t.round_positive(1.0).unwrap();
        assert_eq!(f.decode(c), 1.0);
        // 1.06 → nearest of {1.0, 1.125}
        let c = t.round_positive(1.06).unwrap();
        assert_eq!(f.decode(c), 1.0);
        let c = t.round_positive(1.07).unwrap();
        assert_eq!(f.decode(c), 1.125);
    }

    #[test]
    fn tie_rounds_to_even_fraction() {
        let f = Fp8::new(4).unwrap();
        let t = EncodeTable::build(&f, TieRule::EvenFraction, UnderflowPolicy::FlushToZero);
        // Between 1.000 and 1.125 (frac 0 and 1): tie at 1.0625 → even frac = 1.0
        let c = t.round_positive(1.0625).unwrap();
        assert_eq!(f.decode(c), 1.0);
        // Between 1.125 and 1.25 (frac 1 and 2): tie → 1.25
        let c = t.round_positive(1.1875).unwrap();
        assert_eq!(f.decode(c), 1.25);
    }

    #[test]
    fn underflow_flush_to_zero() {
        let f = Fp8::new(4).unwrap();
        let t = EncodeTable::build(&f, TieRule::EvenFraction, UnderflowPolicy::FlushToZero);
        let minpos = t.min_positive();
        assert!(t.round_positive(minpos * 0.49).is_none());
        assert!(t.round_positive(minpos * 0.5).is_none()); // tie → zero (even)
        assert!(t.round_positive(minpos * 0.51).is_some());
    }

    #[test]
    fn saturates_at_max() {
        let f = Fp8::new(4).unwrap();
        let t = EncodeTable::build(&f, TieRule::EvenFraction, UnderflowPolicy::FlushToZero);
        let c = t.round_positive(1.0e9).unwrap();
        assert_eq!(f.decode(c), t.max_finite());
    }
}
