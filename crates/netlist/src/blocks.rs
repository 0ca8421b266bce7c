//! Parameterized arithmetic blocks: adders, shifters, multipliers,
//! comparators and leading-zero logic — the "widely used circuits" of §3.3
//! that every MAC variant shares.

use crate::netlist::{Bus, NetId, Netlist, CONST0};

impl Netlist {
    /// Ripple-carry adder: returns `(sum, carry_out)`, sum width = operand
    /// width.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or empty operands.
    pub fn ripple_add(&mut self, a: &Bus, b: &Bus, cin: Option<NetId>) -> (Bus, NetId) {
        assert_eq!(a.width(), b.width(), "adder width mismatch");
        assert!(a.width() > 0, "empty adder");
        let mut sum = Vec::with_capacity(a.width());
        let mut carry = cin;
        for i in 0..a.width() {
            let (s, c) = match carry {
                None => self.ha(a.bit(i), b.bit(i)),
                Some(c0) => self.fa(a.bit(i), b.bit(i), c0),
            };
            sum.push(s);
            carry = Some(c);
        }
        (Bus(sum), carry.expect("non-empty adder"))
    }

    /// Two's-complement **signed** adder producing a `max(w)+1`-bit result
    /// (the "Signed Adder (P+1)" of Fig. 2).
    pub fn signed_add(&mut self, a: &Bus, b: &Bus) -> Bus {
        let w = a.width().max(b.width()) + 1;
        let ax = self.sext(a, w);
        let bx = self.sext(b, w);
        let (sum, _) = self.ripple_add(&ax, &bx, None);
        sum
    }

    /// Two's-complement negation.
    pub fn negate(&mut self, a: &Bus) -> Bus {
        let inv = self.not_bus(a);
        self.increment(&inv).slice(0, a.width())
    }

    /// Incrementer: `a + 1`, width extended by one bit.
    pub fn increment(&mut self, a: &Bus) -> Bus {
        let mut out = Vec::with_capacity(a.width() + 1);
        let mut carry = crate::netlist::CONST1;
        for i in 0..a.width() {
            let (s, c) = self.ha(a.bit(i), carry);
            out.push(s);
            carry = c;
        }
        out.push(carry);
        Bus(out)
    }

    /// Subtractor `a − b` (two's complement): returns `(diff, no_borrow)`
    /// where `no_borrow = 1` iff `a >= b` for unsigned operands.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn ripple_sub(&mut self, a: &Bus, b: &Bus) -> (Bus, NetId) {
        let nb = self.not_bus(b);
        self.ripple_add(a, &nb, Some(crate::netlist::CONST1))
    }

    /// `1` iff the bus equals the constant `value`.
    pub fn eq_const(&mut self, a: &Bus, value: u64) -> NetId {
        let terms: Vec<NetId> = (0..a.width())
            .map(|i| {
                if (value >> i) & 1 == 1 {
                    a.bit(i)
                } else {
                    self.not(a.bit(i))
                }
            })
            .collect();
        self.and_reduce(&terms)
    }

    /// `1` iff the bus is all zeros.
    pub fn is_zero(&mut self, a: &Bus) -> NetId {
        let any = self.or_reduce(&a.0);
        self.not(any)
    }

    /// `1` iff the bus is all ones.
    pub fn is_ones(&mut self, a: &Bus) -> NetId {
        self.and_reduce(&a.0)
    }

    /// Logical left barrel shifter: `a << sh`, output width = input width,
    /// vacated bits filled with zero. `sh` is unsigned.
    pub fn barrel_shl(&mut self, a: &Bus, sh: &Bus) -> Bus {
        let mut cur = a.clone();
        for (stage, &sel) in sh.iter().enumerate() {
            let dist = 1usize << stage;
            if dist >= cur.width() {
                // Shifting by >= width zeroes everything when sel is set.
                let zeros = Bus(vec![CONST0; cur.width()]);
                cur = self.mux2_bus(sel, &zeros, &cur);
                continue;
            }
            let mut shifted = vec![CONST0; dist];
            shifted.extend_from_slice(&cur.0[..cur.width() - dist]);
            cur = self.mux2_bus(sel, &Bus(shifted), &cur);
        }
        cur
    }

    /// Logical right barrel shifter: `a >> sh`, zero fill.
    pub fn barrel_shr(&mut self, a: &Bus, sh: &Bus) -> Bus {
        let mut cur = a.clone();
        for (stage, &sel) in sh.iter().enumerate() {
            let dist = 1usize << stage;
            if dist >= cur.width() {
                let zeros = Bus(vec![CONST0; cur.width()]);
                cur = self.mux2_bus(sel, &zeros, &cur);
                continue;
            }
            let mut shifted = cur.0[dist..].to_vec();
            shifted.extend(std::iter::repeat_n(CONST0, dist));
            cur = self.mux2_bus(sel, &Bus(shifted), &cur);
        }
        cur
    }

    /// Unsigned array multiplier: partial-product AND matrix reduced with
    /// half/full adders, result width `a.width() + b.width()`.
    ///
    /// # Panics
    ///
    /// Panics on empty operands.
    pub fn array_mul(&mut self, a: &Bus, b: &Bus) -> Bus {
        assert!(a.width() > 0 && b.width() > 0, "empty multiplier");
        let w = a.width() + b.width();
        // Column-wise partial products.
        let mut cols: Vec<Vec<NetId>> = vec![Vec::new(); w];
        for i in 0..a.width() {
            for j in 0..b.width() {
                let pp = self.and2(a.bit(i), b.bit(j));
                cols[i + j].push(pp);
            }
        }
        // Carry-save reduction: compress each column to <= 2 entries, pushing
        // carries into the next column (Wallace-style, order-insensitive).
        for i in 0..w {
            while cols[i].len() > 2 {
                let x = cols[i].pop().unwrap();
                let y = cols[i].pop().unwrap();
                let z = cols[i].pop().unwrap();
                let (s, c) = self.fa(x, y, z);
                cols[i].push(s);
                if i + 1 < w {
                    cols[i + 1].push(c);
                }
            }
        }
        // Final carry-propagate over the two remaining rows.
        let mut out = Vec::with_capacity(w);
        let mut carry: Option<NetId> = None;
        for i in 0..w {
            let (x, y) = match cols[i].len() {
                0 => (CONST0, CONST0),
                1 => (cols[i][0], CONST0),
                _ => (cols[i][0], cols[i][1]),
            };
            let (s, c) = match carry {
                None => self.ha(x, y),
                Some(c0) => self.fa(x, y, c0),
            };
            out.push(s);
            carry = Some(c);
        }
        Bus(out)
    }

    /// Leading-zero counter over `a` read **MSB first**: returns the number
    /// of consecutive zero bits starting at the MSB, as a
    /// `ceil(log2(w+1))`-bit bus. An all-zero input returns `w`.
    pub fn leading_zero_count(&mut self, a: &Bus) -> Bus {
        let w = a.width();
        let out_w = usize::BITS as usize - w.leading_zeros() as usize; // bits for 0..=w
                                                                       // prefix_zero[i] = 1 iff bits (w-1) ..= (w-i) are all zero.
                                                                       // count = sum over i of prefix_zero up to first one.
                                                                       // Implement as priority chain: sel_i = "first one at position i from MSB".
        let mut not_bits = Vec::with_capacity(w);
        for i in (0..w).rev() {
            not_bits.push(self.not(a.bit(i))); // MSB-first inverted bits
        }
        // prefix[i] = AND of not_bits[0..=i]
        let mut prefix = Vec::with_capacity(w);
        let mut acc = not_bits[0];
        prefix.push(acc);
        for &nb in &not_bits[1..] {
            acc = self.and2(acc, nb);
            prefix.push(acc);
        }
        // count = Σ prefix[i] (number of leading zeros) — adder tree over bits.
        let mut count = self.lit(out_w, 0);
        for &p in &prefix {
            let pb = self.zext(&Bus(vec![p]), out_w);
            let (s, _) = self.ripple_add(&count, &pb, None);
            count = s;
        }
        count
    }

    /// Leading-one position detector (priority encoder from the MSB):
    /// returns one-hot `sel` (LSB of `sel` = MSB of `a`) and a `none`
    /// flag set when the bus is all zeros.
    pub fn priority_from_msb(&mut self, a: &Bus) -> (Vec<NetId>, NetId) {
        let w = a.width();
        let mut sel = Vec::with_capacity(w);
        let mut none_so_far = crate::netlist::CONST1;
        for i in (0..w).rev() {
            let here = self.and2(none_so_far, a.bit(i));
            sel.push(here);
            let nbit = self.not(a.bit(i));
            none_so_far = self.and2(none_so_far, nbit);
        }
        (sel, none_so_far)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    fn run1(nl: &Netlist, sets: &[(&Bus, u64)], out: &str) -> u64 {
        let mut sim = Simulator::new(nl);
        for (b, v) in sets {
            sim.set(b, *v);
        }
        sim.step();
        sim.peek_output(out)
    }

    #[test]
    fn ripple_add_exhaustive_4bit() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let (s, c) = nl.ripple_add(&a, &b, None);
        nl.output("o", &s.concat(&c.into()));
        let mut sim = Simulator::new(&nl);
        for x in 0..16u64 {
            for y in 0..16u64 {
                sim.set(&a, x);
                sim.set(&b, y);
                sim.step();
                assert_eq!(sim.peek_output("o"), x + y);
            }
        }
    }

    #[test]
    fn signed_add_covers_negatives() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 5);
        let b = nl.input("b", 5);
        let s = nl.signed_add(&a, &b);
        nl.output("o", &s);
        let mut sim = Simulator::new(&nl);
        for x in -16i64..16 {
            for y in -16i64..16 {
                sim.set(&a, (x as u64) & 0x1F);
                sim.set(&b, (y as u64) & 0x1F);
                sim.step();
                assert_eq!(sim.get_signed(&s), x + y, "{x}+{y}");
            }
        }
    }

    #[test]
    fn subtract_and_borrow() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let (d, ge) = nl.ripple_sub(&a, &b);
        nl.output("d", &d);
        nl.output("ge", &Bus(vec![ge]));
        let mut sim = Simulator::new(&nl);
        for x in 0..16u64 {
            for y in 0..16u64 {
                sim.set(&a, x);
                sim.set(&b, y);
                sim.step();
                assert_eq!(sim.peek_output("d"), x.wrapping_sub(y) & 0xF);
                assert_eq!(sim.peek_output("ge"), u64::from(x >= y));
            }
        }
    }

    #[test]
    fn negate_two_complement() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let n = nl.negate(&a);
        nl.output("o", &n);
        for x in 0..16u64 {
            assert_eq!(run1(&nl, &[(&a, x)], "o"), x.wrapping_neg() & 0xF);
        }
    }

    #[test]
    fn multiplier_exhaustive_5x5() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 5);
        let b = nl.input("b", 5);
        let p = nl.array_mul(&a, &b);
        assert_eq!(p.width(), 10);
        nl.output("p", &p);
        let mut sim = Simulator::new(&nl);
        for x in 0..32u64 {
            for y in 0..32u64 {
                sim.set(&a, x);
                sim.set(&b, y);
                sim.step();
                assert_eq!(sim.peek_output("p"), x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn multiplier_asymmetric() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 3);
        let b = nl.input("b", 7);
        let p = nl.array_mul(&a, &b);
        nl.output("p", &p);
        let mut sim = Simulator::new(&nl);
        for x in 0..8u64 {
            for y in 0..128u64 {
                sim.set(&a, x);
                sim.set(&b, y);
                sim.step();
                assert_eq!(sim.peek_output("p"), x * y);
            }
        }
    }

    #[test]
    fn barrel_shifters() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 8);
        let sh = nl.input("sh", 3);
        let l = nl.barrel_shl(&a, &sh);
        let r = nl.barrel_shr(&a, &sh);
        nl.output("l", &l);
        nl.output("r", &r);
        let mut sim = Simulator::new(&nl);
        for x in [0x01u64, 0x80, 0xA5, 0xFF, 0x3C] {
            for s in 0..8u64 {
                sim.set(&a, x);
                sim.set(&sh, s);
                sim.step();
                assert_eq!(sim.peek_output("l"), (x << s) & 0xFF, "{x} << {s}");
                assert_eq!(sim.peek_output("r"), x >> s, "{x} >> {s}");
            }
        }
    }

    #[test]
    fn barrel_shift_saturates_beyond_width() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let sh = nl.input("sh", 4); // can encode shift 8..15 >= width
        let l = nl.barrel_shl(&a, &sh);
        nl.output("l", &l);
        let mut sim = Simulator::new(&nl);
        sim.set(&a, 0xF);
        sim.set(&sh, 9);
        sim.step();
        assert_eq!(sim.peek_output("l"), 0);
    }

    #[test]
    fn comparators() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 5);
        let eq7 = nl.eq_const(&a, 7);
        let z = nl.is_zero(&a);
        let o = nl.is_ones(&a);
        nl.output("o", &Bus(vec![eq7, z, o]));
        let mut sim = Simulator::new(&nl);
        for x in 0..32u64 {
            sim.set(&a, x);
            sim.step();
            let got = sim.peek_output("o");
            assert_eq!(got & 1, u64::from(x == 7));
            assert_eq!((got >> 1) & 1, u64::from(x == 0));
            assert_eq!((got >> 2) & 1, u64::from(x == 31));
        }
    }

    #[test]
    fn lzc_matches_reference() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 7);
        let c = nl.leading_zero_count(&a);
        nl.output("c", &c);
        let mut sim = Simulator::new(&nl);
        for x in 0..128u64 {
            sim.set(&a, x);
            sim.step();
            let expect = if x == 0 {
                7
            } else {
                6 - (63 - x.leading_zeros() as u64)
            };
            assert_eq!(sim.peek_output("c"), expect, "lzc({x:07b})");
        }
    }

    #[test]
    fn priority_encoder_first_one() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 6);
        let (sel, none) = nl.priority_from_msb(&a);
        nl.output("sel", &Bus(sel));
        nl.output("none", &Bus(vec![none]));
        let mut sim = Simulator::new(&nl);
        for x in 0..64u64 {
            sim.set(&a, x);
            sim.step();
            let sel = sim.peek_output("sel");
            if x == 0 {
                assert_eq!(sel, 0);
                assert_eq!(sim.peek_output("none"), 1);
            } else {
                // first one from MSB (bit 5) maps to sel bit 0
                let msb_pos = 63 - x.leading_zeros() as u64;
                assert_eq!(sel, 1 << (5 - msb_pos));
                assert_eq!(sim.peek_output("none"), 0);
            }
        }
    }
}
