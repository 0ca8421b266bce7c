//! MERSIT — the paper's proposed format (§3, Fig. 3, Table 1).
//!
//! A MERSIT(N,E) word is
//!
//! ```text
//! [ sign | ks | EC0 | EC1 | … | EC(G−1) ]      G = (N−2)/E groups of E bits
//! ```
//!
//! The first exponent candidate (EC) that contains a zero bit is the
//! exponent; its group index `g` encodes the regime:
//! `k = g` when `ks = 1`, `k = −(g+1)` when `ks = 0`. The ECs after the
//! exponent hold the fraction. The represented value is
//!
//! ```text
//! (−1)^sign × 2^((2^E−1)·k) × 2^exp × (1 + .frac)
//! ```
//!
//! so the *effective exponent* is `(2^E−1)·k + exp` with `exp ∈ 0..2^E−1`
//! (an EC that is all ones cannot be the exponent), which tiles the integer
//! exponents contiguously. When no EC contains a zero: `ks = 0` is zero and
//! `ks = 1` is ±∞ (Table 1 rows `0111111₂` and `1111111₂`).

use crate::error::InvalidFormatError;
use crate::fields::{exp2i, Decoded, ValueClass};
use crate::format::{EncodeTable, Format, TieRule, UnderflowPolicy};
use crate::quant_lut::FormatCaches;

/// The MERSIT(N,E) format. The paper studies `Mersit::new(8, 2)` and
/// `Mersit::new(8, 3)`.
///
/// # Examples
///
/// ```
/// use mersit_core::{Mersit, Format};
///
/// let m = Mersit::new(8, 2)?;
/// assert_eq!(m.name(), "MERSIT(8,2)");
/// // Table 1: effective exponents span −9 ..= 8
/// assert_eq!(m.min_positive(), 2.0_f64.powi(-9));
/// assert_eq!(m.max_finite(), 2.0_f64.powi(8));
/// // 1 00 xxxx with ks=1 is k=0: 1.0 is 0b0_1_00_0000
/// assert_eq!(m.decode(0b0_1_00_0000), 1.0);
///
/// // Round-to-nearest encode; exactly representable values round-trip.
/// let code = m.encode(0.75);
/// assert_eq!(m.decode(code), 0.75);
/// // Off-lattice inputs land on the nearest representable neighbor.
/// assert!((m.decode(m.encode(0.7)) - 0.7).abs() < 0.05);
/// # Ok::<(), mersit_core::InvalidFormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mersit {
    bits: u32,
    es: u32,
    groups: u32,
    table: EncodeTable,
    caches: FormatCaches,
}

/// Decoded regime/exponent/fraction of a MERSIT body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct McBody {
    g: u32,
    k: i32,
    exp: u32,
    frac: u32,
    frac_bits: u32,
}

impl Mersit {
    /// Creates a MERSIT(N,E) format.
    ///
    /// # Errors
    ///
    /// Returns an error unless `4 <= bits <= 16`, `1 <= es <= 4`, and the
    /// body width `bits − 2` is an exact multiple of `es` (ECs are whole
    /// groups of `es` bits).
    pub fn new(bits: u32, es: u32) -> Result<Self, InvalidFormatError> {
        if !(4..=16).contains(&bits) {
            return Err(InvalidFormatError::new(format!(
                "MERSIT bits must be in 4..=16, got {bits}"
            )));
        }
        if !(1..=4).contains(&es) {
            return Err(InvalidFormatError::new(format!(
                "MERSIT es must be in 1..=4, got {es}"
            )));
        }
        let body = bits - 2;
        if !body.is_multiple_of(es) {
            return Err(InvalidFormatError::new(format!(
                "MERSIT({bits},{es}): body width {body} is not a multiple of es={es}"
            )));
        }
        let mut m = Self {
            bits,
            es,
            groups: body / es,
            table: EncodeTable::empty(),
            caches: FormatCaches::new(),
        };
        m.table = EncodeTable::build(&m, TieRule::EvenFraction, UnderflowPolicy::SaturateToMinPos);
        Ok(m)
    }

    /// The exponent-candidate width `E` (the paper's merge level).
    #[must_use]
    pub fn es(&self) -> u32 {
        self.es
    }

    /// The number of exponent candidates `G = (N−2)/E`.
    #[must_use]
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// The regime scale factor `2^E − 1` (the "×3" unit of Fig. 5b when E=2).
    #[must_use]
    pub fn regime_scale(&self) -> i32 {
        (1 << self.es) - 1
    }

    /// Range of regime values `k`: `−G ..= G−1`.
    #[must_use]
    pub fn regime_range(&self) -> std::ops::RangeInclusive<i32> {
        -(self.groups as i32)..=(self.groups as i32 - 1)
    }

    /// Fraction bits available at regime `k`, `(G − 1 − g)·E`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside [`Mersit::regime_range`].
    #[must_use]
    pub fn frac_bits_at(&self, k: i32) -> u32 {
        let g = self.group_of(k);
        (self.groups - 1 - g) * self.es
    }

    /// Effective exponent `(2^E−1)·k + exp` range of the format.
    #[must_use]
    pub fn exp_eff_range(&self) -> std::ops::RangeInclusive<i32> {
        let s = self.regime_scale();
        let g = self.groups as i32;
        // min: k = −G, exp = 0; max: k = G−1, exp = 2^E − 2.
        (-g * s)..=((g - 1) * s + (s - 1))
    }

    fn group_of(&self, k: i32) -> u32 {
        let g = if k >= 0 { k } else { -k - 1 };
        assert!(
            (g as u32) < self.groups,
            "regime {k} out of range for {}",
            self.name()
        );
        g as u32
    }

    fn body_bits(&self) -> u32 {
        self.bits - 2
    }

    /// Splits a code into (sign, ks, body).
    fn split(&self, code: u16) -> (bool, bool, u32) {
        let code = u32::from(code) & ((1u32 << self.bits) - 1);
        let sign = (code >> (self.bits - 1)) & 1 == 1;
        let ks = (code >> (self.bits - 2)) & 1 == 1;
        let body = code & ((1 << self.body_bits()) - 1);
        (sign, ks, body)
    }

    /// Extracts EC `g` (0 = most significant) from a body.
    fn ec(&self, body: u32, g: u32) -> u32 {
        let shift = (self.groups - 1 - g) * self.es;
        (body >> shift) & ((1 << self.es) - 1)
    }

    /// Finds the exponent EC: the first group that is not all ones.
    /// Returns `None` when every EC is all ones (zero / ±∞ patterns).
    fn find_exponent(&self, body: u32) -> Option<u32> {
        let ones = (1u32 << self.es) - 1;
        (0..self.groups).find(|&g| self.ec(body, g) != ones)
    }

    fn decode_mag(&self, ks: bool, body: u32) -> Option<McBody> {
        let g = self.find_exponent(body)?;
        let exp = self.ec(body, g);
        let k = if ks { g as i32 } else { -(g as i32) - 1 };
        let frac_bits = (self.groups - 1 - g) * self.es;
        let frac = if frac_bits == 0 {
            0
        } else {
            body & ((1 << frac_bits) - 1)
        };
        Some(McBody {
            g,
            k,
            exp,
            frac,
            frac_bits,
        })
    }

    /// Encodes regime/exponent/fraction fields directly to a code word
    /// (the inverse of the decode in Table 1). Used by tests and by the
    /// hardware encoder model.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range, `exp >= 2^E − 1`, or `frac` does not
    /// fit in the fraction bits available at regime `k`.
    #[must_use]
    pub fn pack(&self, sign: bool, k: i32, exp: u32, frac: u32) -> u16 {
        let g = self.group_of(k);
        let ones = (1u32 << self.es) - 1;
        assert!(
            exp < ones,
            "exp {exp} must contain a zero bit (es={})",
            self.es
        );
        let fb = (self.groups - 1 - g) * self.es;
        if fb == 0 {
            assert_eq!(frac, 0, "regime {k} has no fraction bits");
        } else {
            assert!(frac < (1 << fb), "fraction {frac} overflows {fb} bits");
        }
        let mut body = 0u32;
        for lead in 0..g {
            let shift = (self.groups - 1 - lead) * self.es;
            body |= ones << shift;
        }
        body |= exp << ((self.groups - 1 - g) * self.es);
        body |= frac;
        let ks = u32::from(k >= 0);
        let s = u32::from(sign);
        ((s << (self.bits - 1)) | (ks << (self.bits - 2)) | body) as u16
    }

    /// Internal shared encoder table (exposed for analysis tooling).
    #[must_use]
    pub fn encode_table(&self) -> &EncodeTable {
        &self.table
    }

    /// The bit-field decode: fills the per-code table, serves formats
    /// wider than 8 bits, and is the table's test oracle.
    pub(crate) fn decode_computed(&self, code: u16) -> f64 {
        let (sign, ks, body) = self.split(code);
        let Some(b) = self.decode_mag(ks, body) else {
            return if ks {
                if sign {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            } else {
                0.0
            };
        };
        let eff = self.regime_scale() * b.k + b.exp as i32;
        let mag = exp2i(eff) * (1.0 + f64::from(b.frac) * exp2i(-(b.frac_bits as i32)));
        if sign {
            -mag
        } else {
            mag
        }
    }

    /// `encode` with the positive-magnitude rounding passed in, so tests
    /// can swap in the reference search.
    pub(crate) fn encode_by(&self, x: f64, round_positive: impl Fn(f64) -> Option<u16>) -> u16 {
        let sign_bit = 1u16 << (self.bits - 1);
        let inf_body = ((1u32 << (self.bits - 1)) - 1) as u16; // ks=1, all ECs ones
        if x.is_nan() {
            // MERSIT has no NaN; ±∞ is the error value (paper-Posit convention).
            return inf_body;
        }
        if x == 0.0 {
            // Zero pattern: ks = 0, every EC all ones (Table 1 row 0111111₂).
            return ((1u32 << (self.bits - 2)) - 1) as u16;
        }
        let neg = x < 0.0;
        let code = if x.abs().is_infinite() {
            inf_body
        } else {
            round_positive(x.abs()).expect("MERSIT never underflows to zero")
        };
        if neg {
            code | sign_bit
        } else {
            code
        }
    }
}

impl Format for Mersit {
    fn name(&self) -> String {
        format!("MERSIT({},{})", self.bits, self.es)
    }

    fn bits(&self) -> u32 {
        self.bits
    }

    fn classify(&self, code: u16) -> ValueClass {
        let (_, ks, body) = self.split(code);
        if self.find_exponent(body).is_none() {
            if ks {
                ValueClass::Infinite
            } else {
                ValueClass::Zero
            }
        } else {
            ValueClass::Finite
        }
    }

    fn decode(&self, code: u16) -> f64 {
        self.table.decode_with(code, |c| self.decode_computed(c))
    }

    fn fields(&self, code: u16) -> Option<Decoded> {
        if self.classify(code) != ValueClass::Finite {
            return None;
        }
        let (sign, ks, body) = self.split(code);
        let b = self.decode_mag(ks, body)?;
        let max_fb = self.max_frac_bits();
        let sig = ((1 << b.frac_bits) | b.frac) << (max_fb - b.frac_bits);
        Some(Decoded {
            sign,
            regime: Some(b.k),
            exp_raw: b.exp,
            exp_eff: self.regime_scale() * b.k + b.exp as i32,
            sig,
            sig_bits: max_fb + 1,
            frac_bits: b.frac_bits,
            frac: b.frac,
        })
    }

    fn encode(&self, x: f64) -> u16 {
        self.encode_by(x, |m| self.table.round_positive(m))
    }

    fn max_finite(&self) -> f64 {
        self.table.max_finite()
    }

    fn min_positive(&self) -> f64 {
        self.table.min_positive()
    }

    fn underflow_policy(&self) -> UnderflowPolicy {
        UnderflowPolicy::SaturateToMinPos
    }

    fn max_frac_bits(&self) -> u32 {
        (self.groups - 1) * self.es
    }

    fn caches(&self) -> &FormatCaches {
        &self.caches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m82() -> Mersit {
        Mersit::new(8, 2).unwrap()
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(Mersit::new(9, 2).is_err()); // body 7 not divisible by 2
        assert!(Mersit::new(8, 0).is_err());
        assert!(Mersit::new(8, 5).is_err());
        assert!(Mersit::new(3, 1).is_err());
        assert!(Mersit::new(8, 4).is_err()); // body 6 % 4 != 0
        assert!(Mersit::new(10, 4).is_ok()); // body 8 = 2 ECs of 4
    }

    #[test]
    fn table1_special_rows() {
        let m = m82();
        // 0111111₂ → zero ; 1111111₂ → ±∞ (b6..b0 of Table 1)
        assert_eq!(m.classify(0b0_0111111), ValueClass::Zero);
        assert_eq!(m.classify(0b0_1111111), ValueClass::Infinite);
        assert_eq!(m.decode(0b0_1111111), f64::INFINITY);
        assert_eq!(m.decode(0b1_1111111), f64::NEG_INFINITY);
        assert_eq!(m.decode(0b1_0111111), 0.0);
    }

    /// Every (pattern, k, exp, effective exponent, frac bits) row of Table 1.
    #[test]
    fn table1_full_enumeration() {
        let m = m82();
        // (body7 pattern template, k, exp, eff, frac_bits)
        let rows: &[(u32, i32, u32, i32, u32)] = &[
            (0b0111100, -3, 0, -9, 0),
            (0b0111101, -3, 1, -8, 0),
            (0b0111110, -3, 2, -7, 0),
            (0b0110000, -2, 0, -6, 2),
            (0b0110100, -2, 1, -5, 2),
            (0b0111000, -2, 2, -4, 2),
            (0b0000000, -1, 0, -3, 4),
            (0b0010000, -1, 1, -2, 4),
            (0b0100000, -1, 2, -1, 4),
            (0b1000000, 0, 0, 0, 4),
            (0b1010000, 0, 1, 1, 4),
            (0b1100000, 0, 2, 2, 4),
            (0b1110000, 1, 0, 3, 2),
            (0b1110100, 1, 1, 4, 2),
            (0b1111000, 1, 2, 5, 2),
            (0b1111100, 2, 0, 6, 0),
            (0b1111101, 2, 1, 7, 0),
            (0b1111110, 2, 2, 8, 0),
        ];
        for &(pattern, k, exp, eff, fb) in rows {
            let code = pattern as u16; // sign = 0
            let d = m
                .fields(code)
                .unwrap_or_else(|| panic!("pattern {pattern:07b} should be finite"));
            assert_eq!(d.regime, Some(k), "pattern {pattern:07b}");
            assert_eq!(d.exp_raw, exp, "pattern {pattern:07b}");
            assert_eq!(d.exp_eff, eff, "pattern {pattern:07b}");
            assert_eq!(d.frac_bits, fb, "pattern {pattern:07b}");
            assert_eq!(m.decode(code), 2.0_f64.powi(eff), "pattern {pattern:07b}");
        }
    }

    #[test]
    fn fraction_bits_by_regime() {
        let m = m82();
        // Table 1: |k|=3 (neg side) / k=2 → 0 bits; k=±2/1 → 2 bits; k∈{−1,0} → 4 bits
        assert_eq!(m.frac_bits_at(-3), 0);
        assert_eq!(m.frac_bits_at(-2), 2);
        assert_eq!(m.frac_bits_at(-1), 4);
        assert_eq!(m.frac_bits_at(0), 4);
        assert_eq!(m.frac_bits_at(1), 2);
        assert_eq!(m.frac_bits_at(2), 0);
        assert_eq!(m.max_frac_bits(), 4);
    }

    #[test]
    fn mersit83_parameters() {
        let m = Mersit::new(8, 3).unwrap();
        assert_eq!(m.groups(), 2);
        assert_eq!(m.regime_scale(), 7);
        assert_eq!(m.exp_eff_range(), -14..=13);
        assert_eq!(m.min_positive(), 2.0_f64.powi(-14));
        assert_eq!(m.max_finite(), 2.0_f64.powi(13));
        assert_eq!(m.frac_bits_at(0), 3);
        assert_eq!(m.frac_bits_at(1), 0);
        assert_eq!(m.frac_bits_at(-1), 3);
        assert_eq!(m.frac_bits_at(-2), 0);
    }

    #[test]
    fn effective_exponents_tile_contiguously() {
        for (bits, es) in [(8, 2), (8, 3), (8, 1), (10, 2), (12, 2), (16, 2)] {
            let m = Mersit::new(bits, es).unwrap();
            let mut effs: Vec<i32> = m
                .codes()
                .filter_map(|c| m.fields(c as u16))
                .filter(|d| !d.sign && d.frac == 0)
                .map(|d| d.exp_eff)
                .collect();
            effs.sort_unstable();
            effs.dedup();
            let range = m.exp_eff_range();
            let expect: Vec<i32> = range.clone().collect();
            assert_eq!(effs, expect, "MERSIT({bits},{es})");
        }
    }

    #[test]
    fn decode_values_with_fractions() {
        let m = m82();
        // 0 1 00 1010: k=0, exp=0, frac=1010 → 1 + 10/16 = 1.625
        assert_eq!(m.decode(0b0_1_00_1010), 1.625);
        // 0 1 1101 01: k=1, exp=1, frac=01 → 2^4 × 1.25 = 20
        assert_eq!(m.decode(0b0_1_1101_01), 20.0);
        // negative: sign bit set
        assert_eq!(m.decode(0b1_1_00_1010), -1.625);
        // 0 0 00 0001: k=−1, exp=0, frac=0001 → 2^-3 × (1+1/16)
        assert_eq!(
            m.decode(0b0_0_00_0001),
            2.0_f64.powi(-3) * (1.0 + 1.0 / 16.0)
        );
    }

    #[test]
    fn pack_round_trips_fields() {
        let m = m82();
        for code in m.codes() {
            let code = code as u16;
            let Some(d) = m.fields(code) else { continue };
            let packed = m.pack(d.sign, d.regime.unwrap(), d.exp_raw, d.frac);
            assert_eq!(packed, code, "code {code:#010b}");
        }
    }

    #[test]
    fn encode_round_trip_all_finite_codes() {
        for (bits, es) in [(8, 2), (8, 3), (8, 1)] {
            let m = Mersit::new(bits, es).unwrap();
            for code in m.codes() {
                let code = code as u16;
                if m.classify(code) != ValueClass::Finite {
                    continue;
                }
                let v = m.decode(code);
                assert_eq!(m.decode(m.encode(v)), v, "{} code {code:#x}", m.name());
            }
        }
    }

    #[test]
    fn encode_specials_and_saturation() {
        let m = m82();
        assert_eq!(m.decode(m.encode(0.0)), 0.0);
        assert_eq!(m.decode(m.encode(1e9)), m.max_finite());
        assert_eq!(m.decode(m.encode(-1e9)), -m.max_finite());
        assert_eq!(m.decode(m.encode(1e-300)), m.min_positive());
        assert_eq!(m.decode(m.encode(f64::INFINITY)), f64::INFINITY);
        assert_eq!(m.decode(m.encode(f64::NEG_INFINITY)), f64::NEG_INFINITY);
    }

    #[test]
    fn precision_band_wider_than_posit() {
        // §3.2: the range where MERSIT(8,2) keeps 4-bit precision is wider
        // than Posit(8,1)'s 4-bit band.
        let m = m82();
        let p = crate::posit::Posit::new(8, 1).unwrap();
        let band = |effs: Vec<(i32, u32)>| {
            let four: Vec<i32> = effs
                .iter()
                .filter(|&&(_, fb)| fb >= 4)
                .map(|&(e, _)| e)
                .collect();
            (four.iter().min().copied(), four.iter().max().copied())
        };
        let m_effs: Vec<(i32, u32)> = m
            .codes()
            .filter_map(|c| m.fields(c as u16))
            .map(|d| (d.exp_eff, d.frac_bits))
            .collect();
        let p_effs: Vec<(i32, u32)> = p
            .codes()
            .filter_map(|c| p.fields(c as u16))
            .map(|d| (d.exp_eff, d.frac_bits))
            .collect();
        let (m_lo, m_hi) = band(m_effs);
        let (p_lo, p_hi) = band(p_effs);
        let m_w = m_hi.unwrap() - m_lo.unwrap();
        let p_w = p_hi.unwrap() - p_lo.unwrap();
        assert!(m_w > p_w, "MERSIT 4-bit band {m_w} vs Posit {p_w}");
    }
}
