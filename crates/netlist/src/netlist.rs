//! Netlist construction: nets, gates, buses and hierarchical scopes.

use crate::cell::CellKind;
use std::fmt;

/// Identifier of a single-bit net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifier of a gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateId(pub u32);

/// Identifier of a hierarchical scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScopeId(pub u32);

/// A multi-bit signal: a vector of nets, **least-significant bit first**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bus(pub Vec<NetId>);

impl Bus {
    /// Bus width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// The `i`-th bit (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> NetId {
        self.0[i]
    }

    /// The most significant bit.
    ///
    /// # Panics
    ///
    /// Panics on an empty bus.
    #[must_use]
    pub fn msb(&self) -> NetId {
        *self.0.last().expect("empty bus")
    }

    /// A sub-range `[lo, hi)` of the bus (LSB-relative).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn slice(&self, lo: usize, hi: usize) -> Bus {
        Bus(self.0[lo..hi].to_vec())
    }

    /// Concatenates `self` (low part) with `high`.
    #[must_use]
    pub fn concat(&self, high: &Bus) -> Bus {
        let mut v = self.0.clone();
        v.extend_from_slice(&high.0);
        Bus(v)
    }

    /// Iterator over bits, LSB first.
    pub fn iter(&self) -> std::slice::Iter<'_, NetId> {
        self.0.iter()
    }
}

impl From<NetId> for Bus {
    fn from(n: NetId) -> Self {
        Bus(vec![n])
    }
}

impl<'a> IntoIterator for &'a Bus {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// One gate instance.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Cell kind.
    pub kind: CellKind,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// Output nets, in pin order (`[out]`, or `[sum, carry]` for HA/FA).
    pub outputs: Vec<NetId>,
    /// Scope this gate belongs to.
    pub scope: ScopeId,
}

/// A named port (input or output) of the netlist.
#[derive(Debug, Clone)]
pub struct Port {
    /// Port name (Verilog identifier).
    pub name: String,
    /// The bus carrying the port.
    pub bus: Bus,
}

#[derive(Debug, Clone)]
struct Scope {
    name: String,
    parent: Option<ScopeId>,
}

/// A flat gate-level netlist with hierarchical scope tags.
///
/// Nets `0` and `1` are the constant-zero and constant-one rails.
///
/// # Examples
///
/// ```
/// use mersit_netlist::{Netlist, Simulator};
///
/// let mut nl = Netlist::new("toy");
/// let a = nl.input("a", 4);
/// let b = nl.input("b", 4);
/// let (sum, cout) = nl.ripple_add(&a, &b, None);
/// nl.output("sum", &sum.concat(&cout.into()));
///
/// let mut sim = Simulator::new(&nl);
/// sim.set(&a, 9);
/// sim.set(&b, 11);
/// sim.step();
/// assert_eq!(sim.peek_output("sum"), 20);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    num_nets: u32,
    gates: Vec<Gate>,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    scopes: Vec<Scope>,
    scope_stack: Vec<ScopeId>,
}

/// The constant-0 rail.
pub const CONST0: NetId = NetId(0);
/// The constant-1 rail.
pub const CONST1: NetId = NetId(1);

impl Netlist {
    /// Creates an empty netlist named `name`. The root scope is scope 0.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        Self {
            scopes: vec![Scope {
                name: name.clone(),
                parent: None,
            }],
            name,
            num_nets: 2, // constants
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            scope_stack: vec![ScopeId(0)],
        }
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nets (including the two constant rails).
    #[must_use]
    pub fn num_nets(&self) -> u32 {
        self.num_nets
    }

    /// All gates in creation order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Declared input ports.
    #[must_use]
    pub fn input_ports(&self) -> &[Port] {
        &self.inputs
    }

    /// Declared output ports.
    #[must_use]
    pub fn output_ports(&self) -> &[Port] {
        &self.outputs
    }

    /// Allocates a fresh net.
    pub fn net(&mut self) -> NetId {
        let id = NetId(self.num_nets);
        self.num_nets += 1;
        id
    }

    /// Allocates a fresh bus of `width` nets.
    pub fn bus(&mut self, width: usize) -> Bus {
        Bus((0..width).map(|_| self.net()).collect())
    }

    /// Declares an input port of `width` bits and returns its bus.
    pub fn input(&mut self, name: impl Into<String>, width: usize) -> Bus {
        let bus = self.bus(width);
        self.inputs.push(Port {
            name: name.into(),
            bus: bus.clone(),
        });
        bus
    }

    /// Declares `bus` as an output port.
    pub fn output(&mut self, name: impl Into<String>, bus: &Bus) {
        self.outputs.push(Port {
            name: name.into(),
            bus: bus.clone(),
        });
    }

    /// A `width`-bit bus of constant rails spelling `value` (LSB first).
    pub fn lit(&mut self, width: usize, value: u64) -> Bus {
        Bus((0..width)
            .map(|i| {
                if (value >> i) & 1 == 1 {
                    CONST1
                } else {
                    CONST0
                }
            })
            .collect())
    }

    /// Enters a named child scope; subsequent gates are tagged with it.
    pub fn enter_scope(&mut self, name: impl Into<String>) -> ScopeId {
        let parent = *self.scope_stack.last().expect("scope stack");
        let id = ScopeId(self.scopes.len() as u32);
        self.scopes.push(Scope {
            name: name.into(),
            parent: Some(parent),
        });
        self.scope_stack.push(id);
        id
    }

    /// Leaves the current scope.
    ///
    /// # Panics
    ///
    /// Panics when called at root scope.
    pub fn exit_scope(&mut self) {
        assert!(self.scope_stack.len() > 1, "cannot exit the root scope");
        self.scope_stack.pop();
    }

    /// Runs `f` inside a named scope.
    pub fn scoped<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter_scope(name);
        let r = f(self);
        self.exit_scope();
        r
    }

    /// Full path of a scope, `/`-separated from the root.
    #[must_use]
    pub fn scope_path(&self, id: ScopeId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(s) = cur {
            let sc = &self.scopes[s.0 as usize];
            parts.push(sc.name.clone());
            cur = sc.parent;
        }
        parts.reverse();
        parts.join("/")
    }

    fn push_gate(&mut self, kind: CellKind, inputs: Vec<NetId>, n_out: usize) -> Vec<NetId> {
        debug_assert_eq!(inputs.len(), kind.num_inputs());
        debug_assert_eq!(n_out, kind.num_outputs());
        let outputs: Vec<NetId> = (0..n_out).map(|_| self.net()).collect();
        self.gates.push(Gate {
            kind,
            inputs,
            outputs: outputs.clone(),
            scope: *self.scope_stack.last().expect("scope stack"),
        });
        outputs
    }

    // ---- primitive gates -------------------------------------------------
    //
    // Every primitive folds constant-rail and trivially redundant inputs
    // before instantiating a cell, mirroring the constant propagation a
    // synthesis flow performs. This keeps gate counts honest when blocks
    // are built with partially constant operands (zero-padded buses,
    // constant shift-amount bits, …).

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        match a {
            CONST0 => CONST1,
            CONST1 => CONST0,
            _ => self.push_gate(CellKind::Inv, vec![a], 1)[0],
        }
    }

    /// Buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.push_gate(CellKind::Buf, vec![a], 1)[0]
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST0, _) | (_, CONST0) => CONST0,
            (CONST1, x) | (x, CONST1) => x,
            _ if a == b => a,
            _ => self.push_gate(CellKind::And2, vec![a, b], 1)[0],
        }
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST1, _) | (_, CONST1) => CONST1,
            (CONST0, x) | (x, CONST0) => x,
            _ if a == b => a,
            _ => self.push_gate(CellKind::Or2, vec![a, b], 1)[0],
        }
    }

    /// 2-input NAND.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST0, _) | (_, CONST0) => CONST1,
            (CONST1, x) | (x, CONST1) => self.not(x),
            _ if a == b => self.not(a),
            _ => self.push_gate(CellKind::Nand2, vec![a, b], 1)[0],
        }
    }

    /// 2-input NOR.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST1, _) | (_, CONST1) => CONST0,
            (CONST0, x) | (x, CONST0) => self.not(x),
            _ if a == b => self.not(a),
            _ => self.push_gate(CellKind::Nor2, vec![a, b], 1)[0],
        }
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST0, x) | (x, CONST0) => x,
            (CONST1, x) | (x, CONST1) => self.not(x),
            _ if a == b => CONST0,
            _ => self.push_gate(CellKind::Xor2, vec![a, b], 1)[0],
        }
    }

    /// 2-input XNOR.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (a, b) {
            (CONST1, x) | (x, CONST1) => x,
            (CONST0, x) | (x, CONST0) => self.not(x),
            _ if a == b => CONST1,
            _ => self.push_gate(CellKind::Xnor2, vec![a, b], 1)[0],
        }
    }

    /// 2:1 mux — returns `sel ? d1 : d0`.
    pub fn mux2(&mut self, sel: NetId, d1: NetId, d0: NetId) -> NetId {
        match (sel, d1, d0) {
            (CONST0, _, x) | (CONST1, x, _) => x,
            _ if d1 == d0 => d0,
            (_, CONST1, CONST0) => sel,
            (_, CONST0, CONST1) => self.not(sel),
            (_, CONST0, x) => {
                let ns = self.not(sel);
                self.and2(ns, x)
            }
            (_, CONST1, x) => self.or2(sel, x),
            (_, x, CONST0) => self.and2(sel, x),
            (_, x, CONST1) => {
                let ns = self.not(sel);
                self.or2(ns, x)
            }
            _ => self.push_gate(CellKind::Mux2, vec![d0, d1, sel], 1)[0],
        }
    }

    /// Half adder — returns `(sum, carry)`.
    pub fn ha(&mut self, a: NetId, b: NetId) -> (NetId, NetId) {
        match (a, b) {
            (CONST0, x) | (x, CONST0) => (x, CONST0),
            (CONST1, x) | (x, CONST1) => (self.not(x), x),
            _ if a == b => (CONST0, a),
            _ => {
                let o = self.push_gate(CellKind::Ha, vec![a, b], 2);
                (o[0], o[1])
            }
        }
    }

    /// Full adder — returns `(sum, carry)`.
    pub fn fa(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        // Normalize constants into the carry position, then reduce.
        let (x, y, c) = if a == CONST0 || a == CONST1 {
            (b, cin, a)
        } else if b == CONST0 || b == CONST1 {
            (a, cin, b)
        } else {
            (a, b, cin)
        };
        match c {
            CONST0 => self.ha(x, y),
            CONST1 => {
                // sum = !(x ^ y), carry = x | y
                let s = self.xnor2(x, y);
                let co = self.or2(x, y);
                (s, co)
            }
            _ => {
                let o = self.push_gate(CellKind::Fa, vec![x, y, c], 2);
                (o[0], o[1])
            }
        }
    }

    /// Rising-edge D flip-flop — returns `q`.
    pub fn dff(&mut self, d: NetId) -> NetId {
        self.push_gate(CellKind::Dff, vec![d], 1)[0]
    }

    /// Allocates a DFF whose `D` input is connected later via
    /// [`Netlist::connect_dff`] — needed for feedback loops such as an
    /// accumulator register. Until connected, `D` reads constant zero.
    pub fn dff_uninit(&mut self) -> (GateId, NetId) {
        let out = self.push_gate(CellKind::Dff, vec![CONST0], 1)[0];
        (GateId(self.gates.len() as u32 - 1), out)
    }

    /// Connects the `D` input of a DFF created with [`Netlist::dff_uninit`].
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a DFF.
    pub fn connect_dff(&mut self, g: GateId, d: NetId) {
        let gate = &mut self.gates[g.0 as usize];
        assert_eq!(gate.kind, CellKind::Dff, "connect_dff target is not a DFF");
        gate.inputs[0] = d;
    }

    /// A register bus with deferred input: returns `(gate ids, q bus)`.
    pub fn dff_bus_uninit(&mut self, width: usize) -> (Vec<GateId>, Bus) {
        let mut ids = Vec::with_capacity(width);
        let mut q = Vec::with_capacity(width);
        for _ in 0..width {
            let (g, out) = self.dff_uninit();
            ids.push(g);
            q.push(out);
        }
        (ids, Bus(q))
    }

    /// Connects a deferred register bus to its next-state values.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn connect_dff_bus(&mut self, ids: &[GateId], d: &Bus) {
        assert_eq!(ids.len(), d.width(), "register width mismatch");
        for (&g, &bit) in ids.iter().zip(d.iter()) {
            self.connect_dff(g, bit);
        }
    }

    // ---- multi-input reductions -----------------------------------------

    /// AND-reduction tree over arbitrary fan-in.
    ///
    /// # Panics
    ///
    /// Panics on empty input.
    pub fn and_reduce(&mut self, nets: &[NetId]) -> NetId {
        self.reduce(nets, Self::and2)
    }

    /// OR-reduction tree over arbitrary fan-in.
    ///
    /// # Panics
    ///
    /// Panics on empty input.
    pub fn or_reduce(&mut self, nets: &[NetId]) -> NetId {
        self.reduce(nets, Self::or2)
    }

    fn reduce(&mut self, nets: &[NetId], op: fn(&mut Self, NetId, NetId) -> NetId) -> NetId {
        assert!(!nets.is_empty(), "reduction over empty set");
        let mut layer: Vec<NetId> = nets.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(op(self, pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        layer[0]
    }

    // ---- bus-level helpers ------------------------------------------------

    /// Bitwise NOT of a bus.
    pub fn not_bus(&mut self, a: &Bus) -> Bus {
        Bus(a.iter().map(|&n| self.not(n)).collect())
    }

    /// Bus-wide 2:1 mux: `sel ? d1 : d0` per bit.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn mux2_bus(&mut self, sel: NetId, d1: &Bus, d0: &Bus) -> Bus {
        assert_eq!(d1.width(), d0.width(), "bus width mismatch");
        Bus(d1
            .iter()
            .zip(d0.iter())
            .map(|(&x1, &x0)| self.mux2(sel, x1, x0))
            .collect())
    }

    /// Zero-extends a bus to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width < a.width()`.
    pub fn zext(&mut self, a: &Bus, width: usize) -> Bus {
        assert!(width >= a.width());
        let mut v = a.0.clone();
        v.resize(width, CONST0);
        Bus(v)
    }

    /// Sign-extends a bus to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width < a.width()` or the bus is empty.
    pub fn sext(&mut self, a: &Bus, width: usize) -> Bus {
        assert!(width >= a.width());
        let msb = a.msb();
        let mut v = a.0.clone();
        v.resize(width, msb);
        Bus(v)
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist `{}`: {} gates, {} nets, {} scopes",
            self.name,
            self.gates.len(),
            self.num_nets,
            self.scopes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_preallocated() {
        let nl = Netlist::new("t");
        assert_eq!(nl.num_nets(), 2);
    }

    #[test]
    fn bus_slicing_and_concat() {
        let mut nl = Netlist::new("t");
        let a = nl.bus(8);
        let lo = a.slice(0, 4);
        let hi = a.slice(4, 8);
        assert_eq!(lo.width(), 4);
        assert_eq!(lo.concat(&hi), a);
        assert_eq!(a.msb(), a.bit(7));
    }

    #[test]
    fn scopes_nest() {
        let mut nl = Netlist::new("top");
        let a = nl.net();
        let b = nl.net();
        nl.scoped("decoder", |nl| {
            nl.scoped("lzd", |nl| {
                nl.and2(a, b);
            });
        });
        let g = &nl.gates()[0];
        assert_eq!(nl.scope_path(g.scope), "top/decoder/lzd");
    }

    #[test]
    #[should_panic(expected = "cannot exit the root scope")]
    fn exit_root_scope_panics() {
        let mut nl = Netlist::new("t");
        nl.exit_scope();
    }

    #[test]
    fn reductions_build_trees() {
        let mut nl = Netlist::new("t");
        let a = nl.bus(7);
        let r = nl.and_reduce(&a.0);
        assert!(r.0 >= 2);
        // 7-input AND needs 6 two-input gates.
        assert_eq!(nl.gates().len(), 6);
    }

    #[test]
    fn lit_uses_rails() {
        let mut nl = Netlist::new("t");
        let b = nl.lit(4, 0b1010);
        assert_eq!(b.bit(0), CONST0);
        assert_eq!(b.bit(1), CONST1);
        assert_eq!(b.bit(2), CONST0);
        assert_eq!(b.bit(3), CONST1);
    }

    #[test]
    fn extension_helpers() {
        let mut nl = Netlist::new("t");
        let a = nl.bus(3);
        let z = nl.zext(&a, 5);
        assert_eq!(z.bit(4), CONST0);
        let s = nl.sext(&a, 5);
        assert_eq!(s.bit(4), a.bit(2));
    }
}
