//! Symmetric INT8 — the conventional integer quantization baseline.
//!
//! The PTQ convention of the paper (and of common practice) is *symmetric*
//! quantization: codes represent the integers −127…127 and the scaling
//! step maps `max|x| → 127`. The code `0x80` (−128) still decodes to −128
//! for completeness, but the encoder never produces it, keeping the grid
//! symmetric.

use crate::fields::{Decoded, ValueClass};
use crate::format::{Format, UnderflowPolicy};
use crate::quant_lut::FormatCaches;

/// Symmetric two's-complement INT8 (integer lattice −127…127).
///
/// # Examples
///
/// ```
/// use mersit_core::{Int8, Format};
///
/// let i = Int8::new();
/// assert_eq!(i.decode(0x01), 1.0);
/// assert_eq!(i.decode(0xFF), -1.0);
/// assert_eq!(i.quantize(3.4), 3.0);
/// assert_eq!(i.quantize(200.0), 127.0); // saturates
/// ```
#[derive(Debug, Clone, Default)]
pub struct Int8 {
    caches: FormatCaches,
}

impl Int8 {
    /// Creates the symmetric INT8 format.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Format for Int8 {
    fn name(&self) -> String {
        "INT8".to_owned()
    }

    fn bits(&self) -> u32 {
        8
    }

    fn classify(&self, code: u16) -> ValueClass {
        if code as u8 == 0 {
            ValueClass::Zero
        } else {
            ValueClass::Finite
        }
    }

    fn decode(&self, code: u16) -> f64 {
        f64::from(code as u8 as i8)
    }

    fn fields(&self, code: u16) -> Option<Decoded> {
        let v = code as u8 as i8;
        if v == 0 {
            return None;
        }
        let mag = (i32::from(v)).unsigned_abs();
        Some(Decoded {
            sign: v < 0,
            regime: None,
            exp_raw: 0,
            exp_eff: 7,
            sig: mag,
            sig_bits: 8,
            frac_bits: 0,
            frac: 0,
        })
    }

    fn encode(&self, x: f64) -> u16 {
        if x.is_nan() {
            return 0;
        }
        // Round half to even, clamp to the symmetric grid.
        let r = x.round_ties_even().clamp(-127.0, 127.0);
        (r as i8 as u8).into()
    }

    fn max_finite(&self) -> f64 {
        127.0
    }

    fn min_positive(&self) -> f64 {
        1.0
    }

    fn underflow_policy(&self) -> UnderflowPolicy {
        UnderflowPolicy::FlushToZero
    }

    fn max_frac_bits(&self) -> u32 {
        0
    }

    fn caches(&self) -> &FormatCaches {
        &self.caches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_two_complement() {
        let i = Int8::new();
        assert_eq!(i.decode(0x7F), 127.0);
        assert_eq!(i.decode(0x80), -128.0);
        assert_eq!(i.decode(0x81), -127.0);
        assert_eq!(i.decode(0), 0.0);
    }

    #[test]
    fn encode_rounds_ties_to_even() {
        let i = Int8::new();
        assert_eq!(i.quantize(2.5), 2.0);
        assert_eq!(i.quantize(3.5), 4.0);
        assert_eq!(i.quantize(-2.5), -2.0);
        assert_eq!(i.quantize(-3.5), -4.0);
        assert_eq!(i.quantize(0.4), 0.0);
        assert_eq!(i.quantize(0.6), 1.0);
    }

    #[test]
    fn encode_saturates_symmetrically() {
        let i = Int8::new();
        assert_eq!(i.quantize(1e9), 127.0);
        assert_eq!(i.quantize(-1e9), -127.0); // never −128
        assert_eq!(i.encode(f64::INFINITY), 0x7F);
    }

    #[test]
    fn round_trip_symmetric_codes() {
        let i = Int8::new();
        for code in 0..=255u16 {
            if code == 0x80 {
                continue; // encoder never produces −128
            }
            let v = i.decode(code);
            assert_eq!(i.decode(i.encode(v)), v);
        }
    }

    #[test]
    fn fields_magnitude() {
        let i = Int8::new();
        let d = i.fields(0xFB).unwrap(); // −5
        assert!(d.sign);
        assert_eq!(d.sig, 5);
        assert_eq!(d.value(), -5.0);
        assert!(i.fields(0).is_none());
    }
}
