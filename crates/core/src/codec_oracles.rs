//! Oracle tests of the table-driven codecs, each pinned bit for bit
//! against the code it replaced:
//!
//! * the per-code decode table against the computed bit-field decode;
//! * the indexed [`crate::EncodeTable::round_positive`] against the binary
//!   search over the whole lattice, through each format's full `encode`;
//! * the seeded [`QuantLut::build`] against the full-bisection build.
//!
//! Subjects: the eleven Table-2 formats plus MERSIT(10,2), MERSIT(16,2)
//! and Posit-std(16,1), which are wide enough to keep the computed decode
//! (and, at 16 bits, to coarsen the encode index). INT8 has neither table
//! (its codec is arithmetic), so for it the first two oracles hold
//! trivially.

use crate::format::{EncodeTable, Format};
use crate::quant_lut::{reference, QuantLut, QuantSpec};
use crate::{Fp8, Int8, Mersit, Posit};

/// One format under test, typed so the oracles can reach its reference
/// codec.
enum Subject {
    Mersit(Mersit),
    Posit(Posit),
    Fp8(Fp8),
    Int8(Int8),
}

impl Subject {
    fn all() -> Vec<Self> {
        let mut v = vec![Self::Int8(Int8::new())];
        v.extend((2..=5).map(|e| Self::Fp8(Fp8::new(e).unwrap())));
        v.extend((0..=3).map(|es| Self::Posit(Posit::new(8, es).unwrap())));
        v.extend(
            [(8, 2), (8, 3), (10, 2), (16, 2)]
                .map(|(n, e)| Self::Mersit(Mersit::new(n, e).unwrap())),
        );
        v.push(Self::Posit(Posit::standard(16, 1).unwrap()));
        v
    }

    fn fmt(&self) -> &dyn Format {
        match self {
            Self::Mersit(f) => f,
            Self::Posit(f) => f,
            Self::Fp8(f) => f,
            Self::Int8(f) => f,
        }
    }

    fn table(&self) -> Option<&EncodeTable> {
        match self {
            Self::Mersit(f) => Some(f.encode_table()),
            Self::Posit(f) => Some(f.encode_table()),
            Self::Fp8(f) => Some(f.encode_table()),
            Self::Int8(_) => None,
        }
    }

    fn decode_reference(&self, code: u16) -> f64 {
        match self {
            Self::Mersit(f) => f.decode_computed(code),
            Self::Posit(f) => f.decode_computed(code),
            Self::Fp8(f) => f.decode_computed(code),
            Self::Int8(f) => f.decode(code),
        }
    }

    fn encode_reference(&self, x: f64) -> u16 {
        match self {
            Self::Mersit(f) => f.encode_by(x, |m| f.encode_table().round_positive_reference(m)),
            Self::Posit(f) => f.encode_by(x, |m| f.encode_table().round_positive_reference(m)),
            Self::Fp8(f) => f.encode_by(x, |m| f.encode_table().round_positive_reference(m)),
            Self::Int8(f) => f.encode(x),
        }
    }
}

/// Deterministic 64-bit LCG (Knuth's MMIX constants), high bits out.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 ^ (self.0 >> 29)
    }
}

fn with_neighbours(v: f64) -> [f64; 3] {
    [v.next_down(), v, v.next_up()]
}

#[test]
fn table_decode_matches_computed_decode() {
    for s in Subject::all() {
        let f = s.fmt();
        // Every code, and for narrow formats every pattern of the ignored
        // high bits above it.
        for code in 0..=u16::MAX {
            let (got, want) = (f.decode(code), s.decode_reference(code));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{} code {code:#06x}: table {got:?} vs computed {want:?}",
                f.name()
            );
        }
        if let Some(t) = s.table() {
            let want = if f.bits() <= 8 { 1 << f.bits() } else { 0 };
            assert_eq!(
                t.decode_table_len(),
                want,
                "{}: the table exists exactly for 8-bit formats",
                f.name()
            );
        }
    }
}

#[test]
fn indexed_encode_matches_reference_search() {
    for s in Subject::all() {
        let f = s.fmt();
        let mut mags: Vec<f64> = Vec::new();
        if let Some(t) = s.table() {
            let vals: Vec<f64> = t.points().iter().map(|p| p.value).collect();
            for w in vals.windows(2) {
                mags.extend(with_neighbours(w[0] + (w[1] - w[0]) / 2.0));
            }
            for &v in &vals {
                mags.extend(with_neighbours(v));
            }
            for e in t.bucket_edges() {
                mags.extend(with_neighbours(e));
            }
        }
        let (minpos, maxpos) = (f.min_positive(), f.max_finite());
        mags.extend(with_neighbours(minpos / 2.0));
        mags.extend([0.25, 0.75, 0.999].map(|k| minpos * k));
        mags.extend([1.0001, 2.0, 1e10].map(|k| maxpos * k));
        mags.extend([f64::MAX, f64::MIN_POSITIVE, f64::from_bits(1)]);
        mags.extend(with_neighbours(f64::from_bits(0x000f_ffff_ffff_ffff)));
        // Seeded bit patterns: anywhere in f64, and concentrated on the
        // format's range (two binades either side).
        let mut rng = Lcg(0x5EED ^ (u64::from(f.bits()) << 8) ^ f.name().len() as u64);
        let (e_lo, e_hi) = (
            (minpos.to_bits() >> 52).saturating_sub(2),
            (maxpos.to_bits() >> 52) + 2,
        );
        for _ in 0..20_000 {
            let r = rng.next();
            let exp = e_lo + (r >> 52) % (e_hi - e_lo + 1);
            mags.push(f64::from_bits((exp << 52) | (rng.next() & ((1 << 52) - 1))));
        }
        let mut xs: Vec<f64> = (0..10_000).map(|_| f64::from_bits(rng.next())).collect();
        xs.extend([
            0.0,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
        ]);
        xs.extend(mags);
        for x in xs {
            for x in [x, -x] {
                let (got, want) = (f.encode(x), s.encode_reference(x));
                assert_eq!(
                    got,
                    want,
                    "{} x={x:e} ({:#018x}): indexed {got:#06x} vs reference {want:#06x}",
                    f.name(),
                    x.to_bits()
                );
            }
        }
    }
}

#[test]
fn seeded_lut_build_matches_bisection_build() {
    let mut scales = vec![
        // Scales other tests single out: table-2 sweeps, awkward and
        // degenerate ones.
        1.0,
        0.0378,
        1.0 / 127.0,
        3.7e-5,
        128.0,
        0.037,
        0.031_4,
        f64::from(1.0f32.next_down()),
        1e30,
        1e-30,
        f64::from(f32::MIN_POSITIVE),
        4e307,
        0.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        1e-300,
    ];
    for k in -40..40 {
        scales.extend([2f64.powi(k), 3.0 * 2f64.powi(k)]);
    }
    let fixed = scales.len();
    // Seeded random scales, log-uniform over 2^±64 with random mantissas.
    let mut rng = Lcg((1u64 << 40) | 0x5CA1E);
    for _ in 0..3_080 {
        let exp = 1023 - 64 + rng.next() % 129;
        scales.push(f64::from_bits((exp << 52) | (rng.next() & ((1 << 52) - 1))));
    }
    let subjects = Subject::all();
    let specs: Vec<QuantSpec> = subjects.iter().map(|s| QuantSpec::of(s.fmt())).collect();
    for (i, &scale) in scales.iter().enumerate() {
        // Fixed scales go to every format; each random scale to one
        // format in turn (3,080 / 14 = 220 per format).
        for (j, (s, spec)) in subjects.iter().zip(&specs).enumerate() {
            if i >= fixed && (i - fixed) % subjects.len() != j {
                continue;
            }
            let (seeded, bisected) = (QuantLut::build(spec, scale), reference::build(spec, scale));
            match (&seeded, &bisected) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    if let Some(field) = reference::first_difference(a, b) {
                        panic!(
                            "{} scale={scale:e}: seeded build differs in {field}",
                            s.fmt().name()
                        );
                    }
                }
                _ => panic!("{} scale={scale:e}: supports() disagrees", s.fmt().name()),
            }
        }
    }
}
