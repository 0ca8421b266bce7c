//! The Posit(N,es) format of Gustafson & Yonemoto (Fig. 1b of the paper).
//!
//! Two flavors are provided:
//!
//! * [`PositFlavor::Paper`] — the variant the MERSIT paper describes:
//!   the MSB is a plain sign bit ("operates identically to that in
//!   floating-point data formats"), and the all-ones regime pattern is
//!   reserved for ±∞, mirroring MERSIT's `1111111₂ → ±∞` row. This gives
//!   the Posit(8,1) dynamic range `2^-12 … 2^10` and the Kulisch width
//!   `W = 2×(12+10)+1 = 45` the paper reports in Fig. 2.
//! * [`PositFlavor::Standard`] — the posit-standard encoding: negative
//!   values are the two's complement of their positive pattern and
//!   `1000…0` is NaR. Included for completeness; both flavors share the
//!   same positive magnitude lattice, so PTQ accuracy is identical.

use crate::error::InvalidFormatError;
use crate::fields::{exp2i, Decoded, ValueClass};
use crate::format::{EncodeTable, Format, TieRule, UnderflowPolicy};
use crate::quant_lut::FormatCaches;

/// Encoding flavor of [`Posit`]; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PositFlavor {
    /// Sign-magnitude, all-ones regime = ±∞ (the paper's description).
    #[default]
    Paper,
    /// Posit™-standard two's complement with NaR.
    Standard,
}

/// The Posit(N,es) number format.
///
/// # Examples
///
/// ```
/// use mersit_core::{Posit, Format};
///
/// let p = Posit::new(8, 1)?; // paper flavor by default
/// assert_eq!(p.name(), "Posit(8,1)");
/// assert_eq!(p.decode(0x40), 1.0);
/// assert_eq!(p.min_positive(), 2.0_f64.powi(-12));
/// assert_eq!(p.max_finite(), 2.0_f64.powi(10));
/// # Ok::<(), mersit_core::InvalidFormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Posit {
    bits: u32,
    es: u32,
    flavor: PositFlavor,
    table: EncodeTable,
    caches: FormatCaches,
}

/// Result of decoding the magnitude body of a posit word.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BodyFields {
    k: i32,
    exp: u32,
    frac: u32,
    frac_bits: u32,
}

impl Posit {
    /// Creates a Posit(N,es) in the paper flavor (the reproduction default).
    ///
    /// # Errors
    ///
    /// Returns an error unless `3 <= bits <= 16` and `es <= 3`.
    pub fn new(bits: u32, es: u32) -> Result<Self, InvalidFormatError> {
        Self::with_flavor(bits, es, PositFlavor::Paper)
    }

    /// Creates a Posit(N,es) in the posit-standard two's-complement flavor.
    ///
    /// # Errors
    ///
    /// Same constraints as [`Posit::new`].
    pub fn standard(bits: u32, es: u32) -> Result<Self, InvalidFormatError> {
        Self::with_flavor(bits, es, PositFlavor::Standard)
    }

    /// Creates a Posit(N,es) with an explicit [`PositFlavor`].
    ///
    /// # Errors
    ///
    /// Returns an error unless `3 <= bits <= 16` and `es <= 3`.
    pub fn with_flavor(
        bits: u32,
        es: u32,
        flavor: PositFlavor,
    ) -> Result<Self, InvalidFormatError> {
        if !(3..=16).contains(&bits) {
            return Err(InvalidFormatError::new(format!(
                "posit bits must be in 3..=16, got {bits}"
            )));
        }
        if es > 3 {
            return Err(InvalidFormatError::new(format!(
                "posit es must be <= 3, got {es}"
            )));
        }
        let mut p = Self {
            bits,
            es,
            flavor,
            table: EncodeTable::empty(),
            caches: FormatCaches::new(),
        };
        p.table = EncodeTable::build(&p, TieRule::EvenCode, UnderflowPolicy::SaturateToMinPos);
        Ok(p)
    }

    /// The exponent-field size `es`.
    #[must_use]
    pub fn es(&self) -> u32 {
        self.es
    }

    /// The encoding flavor.
    #[must_use]
    pub fn flavor(&self) -> PositFlavor {
        self.flavor
    }

    fn body_mask(&self) -> u32 {
        (1u32 << (self.bits - 1)) - 1
    }

    /// Splits a code into (sign, magnitude-body). For the standard flavor a
    /// negative word is two's-complement negated first.
    fn sign_body(&self, code: u16) -> (bool, u32) {
        let mask = (1u32 << self.bits) - 1;
        let code = u32::from(code) & mask;
        let sign = (code >> (self.bits - 1)) & 1 == 1;
        let body = match self.flavor {
            PositFlavor::Paper => code & self.body_mask(),
            PositFlavor::Standard => {
                let mag = if sign {
                    code.wrapping_neg() & mask
                } else {
                    code
                };
                mag & self.body_mask()
            }
        };
        (sign, body)
    }

    /// Decodes the regime/exponent/fraction of a non-special body.
    fn decode_body(&self, body: u32) -> BodyFields {
        let nb = self.bits - 1; // body width
        debug_assert!(body != 0, "zero body is a special value");
        let first = (body >> (nb - 1)) & 1;
        // Length of the leading run of bits equal to `first`.
        let mut run = 0;
        while run < nb && (body >> (nb - 1 - run)) & 1 == first {
            run += 1;
        }
        let k = if first == 1 {
            run as i32 - 1
        } else {
            -(run as i32)
        };
        // Bits after the run and its terminator.
        let rem = nb.saturating_sub(run + 1);
        let tail = if rem == 0 { 0 } else { body & ((1 << rem) - 1) };
        let es_avail = self.es.min(rem);
        let frac_bits = rem - es_avail;
        let exp_hi = if es_avail == 0 {
            0
        } else {
            (tail >> frac_bits) & ((1 << es_avail) - 1)
        };
        // Truncated low exponent bits are zero (posit standard).
        let exp = exp_hi << (self.es - es_avail);
        let frac = if frac_bits == 0 {
            0
        } else {
            tail & ((1 << frac_bits) - 1)
        };
        BodyFields {
            k,
            exp,
            frac,
            frac_bits,
        }
    }

    /// Internal shared encoder table (exposed for analysis tooling).
    #[must_use]
    pub fn encode_table(&self) -> &EncodeTable {
        &self.table
    }

    /// The bit-field decode: fills the per-code table, serves formats
    /// wider than 8 bits, and is the table's test oracle.
    pub(crate) fn decode_computed(&self, code: u16) -> f64 {
        match self.classify(code) {
            ValueClass::Zero => 0.0,
            ValueClass::Nan => f64::NAN,
            ValueClass::Infinite => {
                let (sign, _) = self.sign_body(code);
                if sign {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }
            ValueClass::Finite => {
                let (sign, body) = self.sign_body(code);
                let b = self.decode_body(body);
                let scale = exp2i(b.k * (1 << self.es) + b.exp as i32);
                let mag = scale * (1.0 + f64::from(b.frac) * exp2i(-(b.frac_bits as i32)));
                if sign {
                    -mag
                } else {
                    mag
                }
            }
        }
    }

    /// `encode` with the positive-magnitude rounding passed in, so tests
    /// can swap in the reference search.
    pub(crate) fn encode_by(&self, x: f64, round_positive: impl Fn(f64) -> Option<u16>) -> u16 {
        let mask = (1u32 << self.bits) - 1;
        if x.is_nan() {
            return match self.flavor {
                // The paper flavor has no NaN; use +∞ as the error value.
                PositFlavor::Paper => self.body_mask() as u16,
                PositFlavor::Standard => (1 << (self.bits - 1)) as u16,
            };
        }
        if x == 0.0 {
            return 0;
        }
        let neg = x < 0.0;
        let mag = x.abs();
        let pos_code = if mag.is_infinite() {
            match self.flavor {
                PositFlavor::Paper => self.body_mask() as u16,
                // Standard posit maps ±∞ to NaR.
                PositFlavor::Standard => return (1 << (self.bits - 1)) as u16,
            }
        } else {
            // SaturateToMinPos ⇒ always Some for positive finite input.
            round_positive(mag).expect("posit never underflows to zero")
        };
        if !neg {
            return pos_code;
        }
        match self.flavor {
            PositFlavor::Paper => pos_code | (1 << (self.bits - 1)) as u16,
            PositFlavor::Standard => (u32::from(pos_code).wrapping_neg() & mask) as u16,
        }
    }
}

impl Format for Posit {
    fn name(&self) -> String {
        match self.flavor {
            PositFlavor::Paper => format!("Posit({},{})", self.bits, self.es),
            PositFlavor::Standard => format!("Posit-std({},{})", self.bits, self.es),
        }
    }

    fn bits(&self) -> u32 {
        self.bits
    }

    fn classify(&self, code: u16) -> ValueClass {
        let mask = (1u32 << self.bits) - 1;
        let c = u32::from(code) & mask;
        match self.flavor {
            PositFlavor::Paper => {
                let body = c & self.body_mask();
                if body == 0 {
                    ValueClass::Zero
                } else if body == self.body_mask() {
                    ValueClass::Infinite
                } else {
                    ValueClass::Finite
                }
            }
            PositFlavor::Standard => {
                if c == 0 {
                    ValueClass::Zero
                } else if c == 1 << (self.bits - 1) {
                    ValueClass::Nan // NaR
                } else {
                    ValueClass::Finite
                }
            }
        }
    }

    fn decode(&self, code: u16) -> f64 {
        self.table.decode_with(code, |c| self.decode_computed(c))
    }

    fn fields(&self, code: u16) -> Option<Decoded> {
        if self.classify(code) != ValueClass::Finite {
            return None;
        }
        let (sign, body) = self.sign_body(code);
        let b = self.decode_body(body);
        let max_fb = self.max_frac_bits();
        let sig_bits = max_fb + 1;
        // Left-align: hidden 1 at the MSB, fraction padded with zeros —
        // exactly what the hardware decoder's dynamic shifter produces.
        let sig = ((1 << b.frac_bits) | b.frac) << (max_fb - b.frac_bits);
        Some(Decoded {
            sign,
            regime: Some(b.k),
            exp_raw: b.exp,
            exp_eff: b.k * (1 << self.es) + b.exp as i32,
            sig,
            sig_bits,
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
        // Shortest regime (run of 1) leaves n−3 tail bits, minus es.
        (self.bits - 3).saturating_sub(self.es)
    }

    fn caches(&self) -> &FormatCaches {
        &self.caches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_configs() {
        assert!(Posit::new(2, 1).is_err());
        assert!(Posit::new(17, 1).is_err());
        assert!(Posit::new(8, 4).is_err());
    }

    #[test]
    fn paper_posit81_dynamic_range() {
        let p = Posit::new(8, 1).unwrap();
        // Fig. 2: dynamic range 2^-12 .. 2^10 (all-ones regime reserved for ∞)
        assert_eq!(p.min_positive(), 2.0_f64.powi(-12));
        assert_eq!(p.max_finite(), 2.0_f64.powi(10));
        assert_eq!(p.max_frac_bits(), 4);
    }

    #[test]
    fn standard_posit81_dynamic_range() {
        let p = Posit::standard(8, 1).unwrap();
        // Standard posit keeps the unterminated all-ones regime as maxpos 2^12.
        assert_eq!(p.max_finite(), 2.0_f64.powi(12));
        assert_eq!(p.min_positive(), 2.0_f64.powi(-12));
    }

    #[test]
    fn decode_known_codes() {
        let p = Posit::new(8, 1).unwrap();
        assert_eq!(p.decode(0x40), 1.0); // 0 10 0 0000
        assert_eq!(p.decode(0b0_10_1_0000), 2.0);
        assert_eq!(p.decode(0b0_10_0_1000), 1.5);
        assert_eq!(p.decode(0b0_0000001), 2.0_f64.powi(-12));
        assert_eq!(p.decode(0b0_1111110), 2.0_f64.powi(10));
        assert_eq!(p.decode(0b0_1111111), f64::INFINITY);
        assert_eq!(p.decode(0b1_1111111), f64::NEG_INFINITY);
        assert_eq!(p.decode(0b1_10_0_0000), -1.0);
        assert_eq!(p.decode(0), 0.0);
    }

    #[test]
    fn standard_negatives_are_twos_complement() {
        let p = Posit::standard(8, 1).unwrap();
        assert_eq!(p.decode(0x40), 1.0);
        assert_eq!(p.decode(0xC0), -1.0); // two's complement of 0x40
        assert!(p.decode(0x80).is_nan()); // NaR
        assert_eq!(p.encode(-1.0), 0xC0);
        assert_eq!(p.encode(f64::INFINITY), 0x80);
    }

    #[test]
    fn posit80_and_posit82_ranges() {
        let p0 = Posit::new(8, 0).unwrap();
        assert_eq!(p0.min_positive(), 2.0_f64.powi(-6));
        assert_eq!(p0.max_finite(), 2.0_f64.powi(5));
        let p2 = Posit::new(8, 2).unwrap();
        assert_eq!(p2.min_positive(), 2.0_f64.powi(-24));
        assert_eq!(p2.max_finite(), 2.0_f64.powi(20));
        let p3 = Posit::new(8, 3).unwrap();
        assert_eq!(p3.min_positive(), 2.0_f64.powi(-48));
        assert_eq!(p3.max_finite(), 2.0_f64.powi(40));
    }

    #[test]
    fn round_trip_all_finite_codes_both_flavors() {
        for es in 0..=3 {
            for flavor in [PositFlavor::Paper, PositFlavor::Standard] {
                let p = Posit::with_flavor(8, es, flavor).unwrap();
                for code in p.codes() {
                    let code = code as u16;
                    if p.classify(code) != ValueClass::Finite {
                        continue;
                    }
                    let v = p.decode(code);
                    assert_eq!(p.decode(p.encode(v)), v, "{} code {code:#x}", p.name());
                }
            }
        }
    }

    #[test]
    fn never_underflows_to_zero() {
        let p = Posit::new(8, 1).unwrap();
        assert_eq!(p.quantize(1e-300), 2.0_f64.powi(-12));
        assert_eq!(p.quantize(-1e-300), -(2.0_f64.powi(-12)));
    }

    #[test]
    fn truncated_exponent_field() {
        // Posit(8,2): body 111110x leaves one exponent bit = exp MSB.
        let p = Posit::new(8, 2).unwrap();
        // 0 111110 1 → k=4, es_avail=1, exp = 1<<1 = 2 → 2^(16+2)
        assert_eq!(p.decode(0b0_111110_1), 2.0_f64.powi(18));
        // 0 111110 0 → 2^16
        assert_eq!(p.decode(0b0_111110_0), 2.0_f64.powi(16));
    }

    #[test]
    fn fields_left_aligned_significand() {
        let p = Posit::new(8, 1).unwrap();
        // 1.5 = 0 10 0 1000 : frac=8/16, fb=4, sig = 11000
        let d = p.fields(0b0_10_0_1000).unwrap();
        assert_eq!(d.sig, 0b11000);
        assert_eq!(d.sig_bits, 5);
        assert_eq!(d.exp_eff, 0);
        assert_eq!(d.value(), 1.5);
        // 2^10 (no fraction bits): sig = 10000
        let d = p.fields(0b0_1111110).unwrap();
        assert_eq!(d.sig, 0b10000);
        assert_eq!(d.exp_eff, 10);
        assert_eq!(d.regime, Some(5));
    }

    #[test]
    fn encode_is_nearest_value() {
        let p = Posit::new(8, 1).unwrap();
        // Between 1.0 and 1.0625 (1 + 1/16): 1.03 → 1.0625 is 0.0325 away, 1.0 is 0.03 → 1.0
        assert_eq!(p.quantize(1.03), 1.0);
        assert_eq!(p.quantize(1.04), 1.0625);
    }
}
