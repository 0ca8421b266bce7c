//! Configurable-exponent minifloat: the FP(8,E) family of the paper (Fig. 1a).
//!
//! FP8 is not IEEE-standardized; the paper parameterizes it by the number of
//! exponent bits `E` and writes a configuration as FP(8,E). This module
//! implements the general `FP(N,E)` minifloat with:
//!
//! * bias `2^(E−1) − 1`,
//! * subnormal numbers when the exponent field is zero (this is how FP8
//!   "offers a wider exponent range using subnormal representation"),
//! * the all-ones exponent reserved for ±Inf (fraction 0) and NaN.

use crate::error::InvalidFormatError;
use crate::fields::{exp2i, Decoded, ValueClass};
use crate::format::{EncodeTable, Format, TieRule, UnderflowPolicy};
use crate::quant_lut::FormatCaches;

/// The FP(N,E) minifloat format. `Fp8::new(E)` gives the paper's FP(8,E).
///
/// # Examples
///
/// ```
/// use mersit_core::{Fp8, Format};
///
/// let f = Fp8::new(4)?; // FP(8,4): 1 sign, 4 exponent, 3 fraction bits
/// assert_eq!(f.name(), "FP(8,4)");
/// assert_eq!(f.min_positive(), 2.0_f64.powi(-9)); // min subnormal
/// assert_eq!(f.max_finite(), 1.875 * 2.0_f64.powi(7));
/// # Ok::<(), mersit_core::InvalidFormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fp8 {
    bits: u32,
    exp_bits: u32,
    table: EncodeTable,
    caches: FormatCaches,
}

impl Fp8 {
    /// Creates the 8-bit FP(8,E) format.
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 <= exp_bits <= 6`.
    pub fn new(exp_bits: u32) -> Result<Self, InvalidFormatError> {
        Self::with_bits(8, exp_bits)
    }

    /// Creates a general FP(N,E) minifloat with `bits` total bits.
    ///
    /// # Errors
    ///
    /// Returns an error unless `3 <= bits <= 16` and
    /// `1 <= exp_bits <= bits − 2`.
    pub fn with_bits(bits: u32, exp_bits: u32) -> Result<Self, InvalidFormatError> {
        if !(3..=16).contains(&bits) {
            return Err(InvalidFormatError::new(format!(
                "FP bits must be in 3..=16, got {bits}"
            )));
        }
        if exp_bits == 0 || exp_bits > bits - 2 {
            return Err(InvalidFormatError::new(format!(
                "FP({bits},E) needs 1 <= E <= {}, got {exp_bits}",
                bits - 2
            )));
        }
        let mut f = Self {
            bits,
            exp_bits,
            table: EncodeTable::empty(),
            caches: FormatCaches::new(),
        };
        f.table = EncodeTable::build(&f, TieRule::EvenFraction, UnderflowPolicy::FlushToZero);
        Ok(f)
    }

    /// Number of exponent bits `E`.
    #[must_use]
    pub fn exp_bits(&self) -> u32 {
        self.exp_bits
    }

    /// Number of fraction bits `M = N − 1 − E`.
    #[must_use]
    pub fn frac_bits(&self) -> u32 {
        self.bits - 1 - self.exp_bits
    }

    /// Exponent bias, `2^(E−1) − 1`.
    #[must_use]
    pub fn bias(&self) -> i32 {
        (1i32 << (self.exp_bits - 1)) - 1
    }

    /// The canonical NaN code (all-ones exponent, fraction LSB set, sign 0).
    #[must_use]
    pub fn nan_code(&self) -> u16 {
        let m = self.frac_bits();
        (((1u16 << self.exp_bits) - 1) << m) | 1
    }

    /// The +∞ code (all-ones exponent, zero fraction, sign 0).
    #[must_use]
    pub fn inf_code(&self) -> u16 {
        ((1u16 << self.exp_bits) - 1) << self.frac_bits()
    }

    fn split(&self, code: u16) -> (bool, u32, u32) {
        let code = u32::from(code) & ((1u32 << self.bits) - 1);
        let m = self.frac_bits();
        let sign = (code >> (self.bits - 1)) & 1 == 1;
        let e = (code >> m) & ((1 << self.exp_bits) - 1);
        let f = code & ((1 << m) - 1);
        (sign, e, f)
    }

    /// Internal shared encoder table (exposed for analysis tooling).
    #[must_use]
    pub fn encode_table(&self) -> &EncodeTable {
        &self.table
    }

    /// The bit-field decode: fills the per-code table, serves formats
    /// wider than 8 bits, and is the table's test oracle.
    pub(crate) fn decode_computed(&self, code: u16) -> f64 {
        let (sign, e, f) = self.split(code);
        let m = self.frac_bits();
        let emax = (1u32 << self.exp_bits) - 1;
        let mag = if e == emax {
            if f == 0 {
                f64::INFINITY
            } else {
                return f64::NAN;
            }
        } else if e == 0 {
            // subnormal: 0.f × 2^(1−bias)
            f64::from(f) * exp2i(1 - self.bias() - m as i32)
        } else {
            (1.0 + f64::from(f) * exp2i(-(m as i32))) * exp2i(e as i32 - self.bias())
        };
        if sign {
            -mag
        } else {
            mag
        }
    }

    /// `encode` with the positive-magnitude rounding passed in, so tests
    /// can swap in the reference search.
    pub(crate) fn encode_by(&self, x: f64, round_positive: impl Fn(f64) -> Option<u16>) -> u16 {
        if x.is_nan() {
            return self.nan_code();
        }
        let sign_bit = 1u16 << (self.bits - 1);
        let (neg, mag) = (x.is_sign_negative(), x.abs());
        if mag == 0.0 {
            return 0;
        }
        let code = if mag.is_infinite() {
            self.inf_code()
        } else {
            match round_positive(mag) {
                Some(c) => c,
                None => return if neg { sign_bit } else { 0 },
            }
        };
        if neg {
            code | sign_bit
        } else {
            code
        }
    }
}

impl Format for Fp8 {
    fn name(&self) -> String {
        format!("FP({},{})", self.bits, self.exp_bits)
    }

    fn bits(&self) -> u32 {
        self.bits
    }

    fn classify(&self, code: u16) -> ValueClass {
        let (_, e, f) = self.split(code);
        let emax = (1u32 << self.exp_bits) - 1;
        if e == emax {
            if f == 0 {
                ValueClass::Infinite
            } else {
                ValueClass::Nan
            }
        } else if e == 0 && f == 0 {
            ValueClass::Zero
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
        let (sign, e, f) = self.split(code);
        let m = self.frac_bits();
        let (exp_eff, sig) = if e == 0 {
            (1 - self.bias(), f) // hidden bit 0, unnormalized
        } else {
            (e as i32 - self.bias(), (1 << m) | f)
        };
        Some(Decoded {
            sign,
            regime: None,
            exp_raw: e,
            exp_eff,
            sig,
            sig_bits: m + 1,
            frac_bits: m,
            frac: f,
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

    fn max_frac_bits(&self) -> u32 {
        self.frac_bits()
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
        assert!(Fp8::new(0).is_err());
        assert!(Fp8::new(7).is_err());
        assert!(Fp8::with_bits(2, 1).is_err());
        assert!(Fp8::with_bits(17, 5).is_err());
    }

    #[test]
    fn fp8_e4_parameters() {
        let f = Fp8::new(4).unwrap();
        assert_eq!(f.frac_bits(), 3);
        assert_eq!(f.bias(), 7);
        // Paper Fig. 2: FP(8,4) dynamic range 2^-9 .. 2^7
        assert_eq!(f.min_positive(), 2.0_f64.powi(-9));
        assert_eq!(f.max_finite(), 1.875 * 2.0_f64.powi(7));
    }

    #[test]
    fn fp8_e2_and_e5_ranges() {
        let f2 = Fp8::new(2).unwrap(); // M=5, bias=1
        assert_eq!(f2.min_positive(), 2.0_f64.powi(-5)); // 2^(1-1-5)
        let f5 = Fp8::new(5).unwrap(); // M=2, bias=15
        assert_eq!(f5.min_positive(), 2.0_f64.powi(-16));
        assert_eq!(f5.max_finite(), 1.75 * 2.0_f64.powi(15));
    }

    #[test]
    fn decode_known_codes_fp84() {
        let f = Fp8::new(4).unwrap();
        // 0 0111 000 = 1.0
        assert_eq!(f.decode(0b0_0111_000), 1.0);
        // 0 0111 100 = 1.5
        assert_eq!(f.decode(0b0_0111_100), 1.5);
        // 1 1000 000 = -2.0
        assert_eq!(f.decode(0b1_1000_000), -2.0);
        // subnormal: 0 0000 001 = 2^-9
        assert_eq!(f.decode(0b0_0000_001), 2.0_f64.powi(-9));
        // inf / nan
        assert_eq!(f.decode(0b0_1111_000), f64::INFINITY);
        assert_eq!(f.decode(0b1_1111_000), f64::NEG_INFINITY);
        assert!(f.decode(0b0_1111_001).is_nan());
        // negative zero decodes to -0.0 == 0.0
        assert_eq!(f.decode(0b1_0000_000), 0.0);
    }

    #[test]
    fn classify_covers_all_classes() {
        let f = Fp8::new(4).unwrap();
        assert_eq!(f.classify(0), ValueClass::Zero);
        assert_eq!(f.classify(0b1_0000_000), ValueClass::Zero);
        assert_eq!(f.classify(f.inf_code()), ValueClass::Infinite);
        assert_eq!(f.classify(f.nan_code()), ValueClass::Nan);
        assert_eq!(f.classify(0b0_0111_000), ValueClass::Finite);
        assert_eq!(f.classify(0b0_0000_001), ValueClass::Finite);
    }

    #[test]
    fn fields_subnormal_and_normal() {
        let f = Fp8::new(4).unwrap();
        let d = f.fields(0b0_0111_101).unwrap(); // 1.625
        assert_eq!(d.exp_eff, 0);
        assert_eq!(d.sig, 0b1101);
        assert_eq!(d.sig_bits, 4);
        assert_eq!(d.value(), 1.625);
        let s = f.fields(0b0_0000_011).unwrap(); // subnormal 3 × 2^-9
        assert_eq!(s.exp_eff, -6);
        assert_eq!(s.sig, 0b0011);
        assert_eq!(s.value(), 3.0 * 2.0_f64.powi(-9));
    }

    #[test]
    fn encode_round_trip_all_codes() {
        for e in 1..=6 {
            let f = Fp8::new(e).unwrap();
            for code in f.codes() {
                let code = code as u16;
                if f.classify(code) != ValueClass::Finite {
                    continue;
                }
                let v = f.decode(code);
                let back = f.encode(v);
                assert_eq!(
                    f.decode(back),
                    v,
                    "FP(8,{e}) code {code:#x} value {v} re-encoded to {back:#x}"
                );
            }
        }
    }

    #[test]
    fn encode_specials() {
        let f = Fp8::new(4).unwrap();
        assert_eq!(f.encode(0.0), 0);
        assert_eq!(f.encode(f64::INFINITY), f.inf_code());
        assert_eq!(f.encode(f64::NEG_INFINITY), f.inf_code() | 0x80);
        assert_eq!(f.encode(f64::NAN), f.nan_code());
        // saturation
        assert_eq!(f.decode(f.encode(1e30)), f.max_finite());
        assert_eq!(f.decode(f.encode(-1e30)), -f.max_finite());
        // flush to zero
        assert_eq!(f.decode(f.encode(1e-30)), 0.0);
    }

    #[test]
    fn quantize_monotone_on_samples() {
        let f = Fp8::new(3).unwrap();
        let mut prev = f64::NEG_INFINITY;
        let mut x = -f.max_finite() * 1.1;
        while x < f.max_finite() * 1.1 {
            let q = f.quantize(x);
            assert!(q >= prev, "quantize not monotone at {x}");
            prev = q;
            x += f.max_finite() / 500.0;
        }
    }
}
