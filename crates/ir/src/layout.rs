//! Packed FRAM machine layout: per-slot byte widths derived from
//! verifier-known value ranges.
//!
//! A type-tagged image would spend a 4-byte state word plus 9 bytes
//! per variable slot (1 tag byte + 8 payload bytes) regardless of what
//! the machine can ever store there. But the documented cost model
//! bills FRAM time/energy *per byte*, and most monitor counters are
//! tiny: a `maxTries: 3`
//! retry counter fits in one byte, a state index over 4 states fits in
//! one byte. This module derives a **packed layout** at compile time:
//!
//! - the state word shrinks to 1/2/4 bytes, sized by the highest state
//!   index any transition can reach;
//! - each `Int` slot shrinks to 1/2/4/8 bytes via an interval analysis
//!   over the machine's bytecode ([`int_bounds`]) — saturating
//!   arithmetic and the coercion rules make the transfer functions
//!   exact enough that common counters collapse to a single byte;
//! - `Bool` slots take 1 byte, `Time`/`Float` slots keep their full
//!   8-byte payload but drop the tag byte (the slot's runtime type is
//!   pinned by the machine's declaration — `coerce` never changes a
//!   slot's variant);
//! - the per-machine done flags pack into a bitmap (see the engine).
//!
//! The layout is **derived data**, recomputed from the (possibly
//! mutated) bytecode in [`crate::compile::CompiledMachine::from_raw`]
//! exactly like access sets, so mutation cannot make it lie. Soundness
//! contract: for every value the verified machine can ever hold in a
//! slot, `decode(encode(v)) == v`. The monitor engine's equivalence
//! suite pins the packed blocks ≡ the interpreter's per-variable
//! cells under power failures.

use crate::compile::{CompiledTransition, Op};
use crate::expr::{BinOp, Value, VarType};

/// How one variable slot is encoded in the machine's FRAM block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotEnc {
    /// 1 byte, `0`/`1`.
    Bool,
    /// Little-endian integer of `width` ∈ {1, 2, 4, 8} bytes;
    /// sign-extended on decode when `signed`.
    Int {
        /// Encoded byte width.
        width: u8,
        /// `true` ⇒ sign-extend on decode; `false` ⇒ zero-extend.
        signed: bool,
    },
    /// 8-byte little-endian `u64` microsecond timestamp.
    Time,
    /// 8-byte little-endian IEEE-754 bits.
    Float,
}

impl SlotEnc {
    /// Encoded width in bytes.
    pub fn width(self) -> usize {
        match self {
            SlotEnc::Bool => 1,
            SlotEnc::Int { width, .. } => width as usize,
            SlotEnc::Time | SlotEnc::Float => 8,
        }
    }
}

/// One slot's position inside the machine block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlotLayout {
    /// Byte offset from the start of the machine block.
    pub offset: usize,
    /// Encoding (and therefore width).
    pub enc: SlotEnc,
}

/// The FRAM image layout of one machine block: the state word followed
/// by every variable slot, contiguous from offset 0.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MachineLayout {
    /// Bytes of the state field at offset 0 (1, 2 or 4).
    pub state_bytes: usize,
    /// Per-slot offsets and encodings, in slot order.
    pub slots: Vec<SlotLayout>,
    /// Total block length in bytes.
    pub block_len: usize,
}

impl MachineLayout {
    /// Derives the packed layout from the machine's compiled parts:
    /// state width from the highest reachable state index, per-slot
    /// `Int` widths from [`int_bounds`], everything else from the
    /// declared type (the slot variant invariant: `coerce` preserves
    /// the slot's runtime type, so the declaration pins the encoding).
    pub fn packed(
        var_inits: &[Value],
        code: &[Op],
        lits: &[Value],
        transitions: &[CompiledTransition],
        initial_state: u32,
    ) -> Self {
        Self::packed_in(
            var_inits,
            code,
            lits,
            transitions,
            initial_state,
            &mut BoundsScratch::default(),
        )
    }

    /// [`MachineLayout::packed`] with the interval analysis run in
    /// `scratch`, which one derivation call reuses across machines.
    pub(crate) fn packed_in(
        var_inits: &[Value],
        code: &[Op],
        lits: &[Value],
        transitions: &[CompiledTransition],
        initial_state: u32,
        scratch: &mut BoundsScratch,
    ) -> Self {
        let max_state = transitions
            .iter()
            .map(|t| t.to)
            .chain(core::iter::once(initial_state))
            .max()
            .unwrap_or(0);
        let state_bytes = uint_width(max_state as u64);
        let bounds = intervals(var_inits, code, lits, scratch);
        let mut slots = Vec::with_capacity(var_inits.len());
        let mut off = state_bytes;
        for (i, init) in var_inits.iter().enumerate() {
            let enc = match init.ty() {
                VarType::Bool => SlotEnc::Bool,
                VarType::Time => SlotEnc::Time,
                VarType::Float => SlotEnc::Float,
                VarType::Int => {
                    let (lo, hi) = bounds[i].int_bounds();
                    int_enc(lo, hi)
                }
            };
            slots.push(SlotLayout { offset: off, enc });
            off += enc.width();
        }
        MachineLayout {
            state_bytes,
            slots,
            block_len: off,
        }
    }

    /// Number of variable slots.
    pub fn var_count(&self) -> usize {
        self.slots.len()
    }

    /// Byte length of the block prefix covering the state word and
    /// slots `0..=max_slot` — the span the sparse delta path loads.
    pub fn span(&self, max_slot: Option<u16>) -> usize {
        match max_slot {
            None => self.state_bytes,
            Some(s) => {
                let s = (s as usize).min(self.slots.len().saturating_sub(1));
                self.slots
                    .get(s)
                    .map(|sl| sl.offset + sl.enc.width())
                    .unwrap_or(self.state_bytes)
            }
        }
    }

    /// Encodes `(state, vars)` into `out` (resized to `block_len`).
    /// Values whose variant disagrees with the slot encoding are
    /// encoded as the slot type's default — unreachable for verified
    /// machines (the engine rejects type-mismatched suites at install).
    pub fn encode(&self, state: u32, vars: &[Value], out: &mut Vec<u8>) {
        out.clear();
        out.resize(self.block_len, 0);
        out[..self.state_bytes].copy_from_slice(&state.to_le_bytes()[..self.state_bytes]);
        for (slot, v) in self.slots.iter().zip(vars) {
            encode_slot(
                slot.enc,
                v,
                &mut out[slot.offset..slot.offset + slot.enc.width()],
            );
        }
    }

    /// Decodes a full block image. `bytes` must be at least
    /// `block_len` long; `vars` is filled to `var_count`.
    pub fn decode(&self, bytes: &[u8], state: &mut u32, vars: &mut Vec<Value>) {
        *state = self.decode_state(bytes);
        vars.clear();
        for slot in &self.slots {
            vars.push(decode_slot(
                slot.enc,
                &bytes[slot.offset..slot.offset + slot.enc.width()],
            ));
        }
    }

    /// Decodes only the state field from a (possibly truncated) image.
    fn decode_state(&self, bytes: &[u8]) -> u32 {
        let mut w = [0u8; 4];
        w[..self.state_bytes].copy_from_slice(&bytes[..self.state_bytes]);
        u32::from_le_bytes(w)
    }

    /// Encodes the block prefix covering the state word and slots
    /// `0..covered` into `out` (resized to the covering span). Values
    /// at `covered..` in `vars` are ignored — the delta path's partial
    /// image, byte-exact against the same prefix of a full `encode`.
    pub fn encode_prefix(&self, state: u32, vars: &[Value], covered: usize, out: &mut Vec<u8>) {
        let span = self.span(covered.checked_sub(1).map(|s| s as u16));
        out.clear();
        out.resize(span, 0);
        out[..self.state_bytes].copy_from_slice(&state.to_le_bytes()[..self.state_bytes]);
        for (slot, v) in self.slots.iter().take(covered).zip(vars) {
            encode_slot(
                slot.enc,
                v,
                &mut out[slot.offset..slot.offset + slot.enc.width()],
            );
        }
    }
}

/// Smallest of {1, 2, 4} covering an unsigned value (state indices).
fn uint_width(v: u64) -> usize {
    if v <= u8::MAX as u64 {
        1
    } else if v <= u16::MAX as u64 {
        2
    } else {
        4
    }
}

/// Picks the narrowest integer encoding covering `[lo, hi]`.
fn int_enc(lo: i64, hi: i64) -> SlotEnc {
    let fits = |l: i64, h: i64| lo >= l && hi <= h;
    if lo >= 0 {
        // Zero-extended unsigned widths.
        if hi <= u8::MAX as i64 {
            SlotEnc::Int {
                width: 1,
                signed: false,
            }
        } else if hi <= u16::MAX as i64 {
            SlotEnc::Int {
                width: 2,
                signed: false,
            }
        } else if hi <= u32::MAX as i64 {
            SlotEnc::Int {
                width: 4,
                signed: false,
            }
        } else {
            SlotEnc::Int {
                width: 8,
                signed: true,
            }
        }
    } else if fits(i8::MIN as i64, i8::MAX as i64) {
        SlotEnc::Int {
            width: 1,
            signed: true,
        }
    } else if fits(i16::MIN as i64, i16::MAX as i64) {
        SlotEnc::Int {
            width: 2,
            signed: true,
        }
    } else if fits(i32::MIN as i64, i32::MAX as i64) {
        SlotEnc::Int {
            width: 4,
            signed: true,
        }
    } else {
        SlotEnc::Int {
            width: 8,
            signed: true,
        }
    }
}

fn encode_slot(enc: SlotEnc, v: &Value, out: &mut [u8]) {
    match enc {
        SlotEnc::Bool => out[0] = matches!(v, Value::Bool(true)) as u8,
        SlotEnc::Int { width, .. } => {
            let i = match v {
                Value::Int(i) => *i,
                _ => 0,
            };
            out.copy_from_slice(&i.to_le_bytes()[..width as usize]);
        }
        SlotEnc::Time => {
            let t = match v {
                Value::Time(t) => *t,
                _ => 0,
            };
            out.copy_from_slice(&t.to_le_bytes());
        }
        SlotEnc::Float => {
            let f = match v {
                Value::Float(f) => *f,
                _ => 0.0,
            };
            out.copy_from_slice(&f.to_bits().to_le_bytes());
        }
    }
}

fn decode_slot(enc: SlotEnc, bytes: &[u8]) -> Value {
    match enc {
        SlotEnc::Bool => Value::Bool(bytes[0] != 0),
        SlotEnc::Int { width, signed } => {
            let w = width as usize;
            let mut b = [0u8; 8];
            b[..w].copy_from_slice(&bytes[..w]);
            if signed && w < 8 && bytes[w - 1] & 0x80 != 0 {
                for byte in b.iter_mut().skip(w) {
                    *byte = 0xFF;
                }
            }
            Value::Int(i64::from_le_bytes(b))
        }
        SlotEnc::Time => Value::Time(u64::from_le_bytes(bytes[..8].try_into().unwrap())),
        SlotEnc::Float => Value::Float(f64::from_bits(u64::from_le_bytes(
            bytes[..8].try_into().unwrap(),
        ))),
    }
}

// ---------------------------------------------------------------------------
// Interval analysis
// ---------------------------------------------------------------------------

/// Abstract value for the interval analysis. Only `Int` carries a
/// range; the other variants exist so coercions (`Int ↔ Time`,
/// `Int → Float`) transfer soundly.
#[derive(Clone, Copy, PartialEq, Debug)]
enum AbsVal {
    /// Unreachable / uninitialised.
    Bot,
    /// An integer in `[lo, hi]`.
    Int(i64, i64),
    /// Any timestamp.
    Time,
    /// Any float.
    Float,
    /// Any bool.
    Bool,
    /// Unknown type.
    Top,
}

impl AbsVal {
    /// The interval of an `Int`; the full range for anything else.
    fn int_bounds(&self) -> (i64, i64) {
        match *self {
            AbsVal::Int(lo, hi) => (lo, hi),
            _ => FULL,
        }
    }

    fn join(self, other: AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (Bot, x) | (x, Bot) => x,
            (Int(a, b), Int(c, d)) => Int(a.min(c), b.max(d)),
            (Time, Time) => Time,
            (Float, Float) => Float,
            (Bool, Bool) => Bool,
            _ => Top,
        }
    }

    fn of(v: &Value) -> AbsVal {
        match v {
            Value::Int(i) => AbsVal::Int(*i, *i),
            Value::Bool(_) => AbsVal::Bool,
            Value::Time(_) => AbsVal::Time,
            Value::Float(_) => AbsVal::Float,
        }
    }
}

const FULL: (i64, i64) = (i64::MIN, i64::MAX);

/// Sound per-slot integer bounds: for each `Int`-typed slot, an
/// interval containing every value the machine can ever store there.
/// Non-`Int` slots get the full range (their encoding ignores it).
///
/// The transfer functions mirror the interpreter's `expr::apply` and
/// `exec::coerce` exactly:
/// - `Int + Int` / `Int - Int` are **saturating**, so interval
///   endpoints saturate too (no wrap to reason about);
/// - comparisons yield `Bool`, which a `StoreVar` into an `Int` slot
///   cannot change (`coerce` type-mismatches leave the slot intact);
/// - `Time → Int` coercion is `try_from` with an `i64::MAX` fallback,
///   hence `[0, i64::MAX]`; `LoadEnergy` is a saturating cast of a
///   non-negative energy, hence `[0, i64::MAX]`.
///
/// Bytecode is scanned in order over the whole code array (a superset
/// of all reachable guard/body ranges — sound, and exactly what keeps
/// mutated raw machines honest), with register state accumulated by
/// join across the pass: the compiler only emits forward jumps, so any
/// execution's register value at an instruction is covered by some
/// in-order prefix's accumulated state.
///
/// **Pass budget.** A store chain moves an interval one slot further
/// per pass, so `n` slots without a growth cycle stop changing within
/// `n` passes; the budget of `n + 2` consecutive changing passes adds
/// slack for a mirror store (`x := c - x` settles on its second
/// application). A slot still moving after that sits on a growth cycle
/// (`x := x + 1`) whose least fixpoint reaches an `i64` bound — an
/// 8-byte encoding either way — so it is widened to the full range
/// there and then. A widened slot never moves again, so each widening
/// retires at least one slot and the analysis ends within
/// `(n + 1) · (n + 2)` passes.
pub fn int_bounds(var_inits: &[Value], code: &[Op], lits: &[Value]) -> Vec<(i64, i64)> {
    intervals(var_inits, code, lits, &mut BoundsScratch::default())
        .iter()
        .map(AbsVal::int_bounds)
        .collect()
}

/// The buffers of [`int_bounds`]' passes, reused across machines.
#[derive(Default)]
pub(crate) struct BoundsScratch {
    slots: Vec<AbsVal>,
    regs: Vec<AbsVal>,
    moved: Vec<bool>,
}

/// [`int_bounds`] in `s`: the per-slot abstract values, whose `Int`
/// intervals are the bounds (any other value reads as the full range).
fn intervals<'s>(
    var_inits: &[Value],
    code: &[Op],
    lits: &[Value],
    s: &'s mut BoundsScratch,
) -> &'s [AbsVal] {
    let n = var_inits.len();
    let BoundsScratch { slots, regs, moved } = s;
    slots.clear();

    // The in-order accumulate-join below is only sound for forward
    // control flow (the verifier's strictly-forward jump rule, which
    // every installed machine has passed). Mutated raw code with a
    // backward jump gets the trivially sound answer instead.
    let backward = code
        .iter()
        .enumerate()
        .any(|(i, op)| op.target().is_some_and(|t| t as usize <= i));
    if backward {
        slots.resize(n, AbsVal::Top);
        return slots;
    }
    slots.extend(var_inits.iter().map(AbsVal::of));

    let regs_len = code.iter().map(Op::reg_span).max().unwrap_or(0).max(1);
    regs.clear();
    regs.resize(regs_len, AbsVal::Bot);
    moved.clear();
    moved.resize(n, false);
    let mut streak = 0;
    while interval_pass(code, lits, slots, regs, moved) {
        streak += 1;
        if streak >= n + 2 {
            for (s, &m) in slots.iter_mut().zip(moved.iter()) {
                if m {
                    // Only `Int` slots ever move (see `store`).
                    *s = AbsVal::Int(FULL.0, FULL.1);
                }
            }
            streak = 0;
        }
    }
    slots
}

/// One in-order pass over `code`, joining every store into `slots`.
/// `moved` flags the slots that grew; returns `true` when any did.
fn interval_pass(
    code: &[Op],
    lits: &[Value],
    slots: &mut [AbsVal],
    regs: &mut [AbsVal],
    moved: &mut [bool],
) -> bool {
    regs.fill(AbsVal::Bot);
    moved.fill(false);
    let lit = |l: u16| lits.get(l as usize).map(AbsVal::of).unwrap_or(AbsVal::Top);
    for op in code {
        match *op {
            Op::Const { dst, lit: l } => regs[dst as usize] = lit(l),
            Op::LoadVar { dst, slot } => {
                regs[dst as usize] = slots.get(slot as usize).copied().unwrap_or(AbsVal::Top)
            }
            Op::LoadEventTime { dst } => regs[dst as usize] = AbsVal::Time,
            Op::LoadDepData { dst } => regs[dst as usize] = AbsVal::Float,
            Op::LoadEnergy { dst } => regs[dst as usize] = AbsVal::Int(0, i64::MAX),
            Op::Bin { op, dst, a, b } => {
                regs[dst as usize] = abs_bin(op, regs[a as usize], regs[b as usize])
            }
            Op::Not { dst, .. } => regs[dst as usize] = AbsVal::Bool,
            Op::AssertBool { .. }
            | Op::Jump { .. }
            | Op::JumpIfFalse { .. }
            | Op::JumpIfTrue { .. } => {}
            Op::StoreVar { slot, src } => store(slots, moved, slot as usize, regs[src as usize]),
            // The fused branches survive only when their result
            // reads as a bool, so `dst` is `Bool` past them — same
            // reasoning as `Not`.
            Op::CmpBranch { dst, .. } | Op::LoadCmpBranch { dst, .. } => {
                regs[dst as usize] = AbsVal::Bool
            }
            Op::ConstStore { slot, lit: l } => store(slots, moved, slot as usize, lit(l)),
        }
    }
    moved.contains(&true)
}

/// Joins a stored value into `slots[slot]` (out-of-range slots are
/// ignored). `StoreVar` runs through `coerce`: the stored value lands
/// in the slot only when it coerces to the slot's type. For an `Int`
/// slot that means `Int` stays as-is, `Time` maps into `[0, i64::MAX]`
/// (`try_from` floor 0 / fallback MAX), anything else leaves the slot
/// unchanged. Non-`Int` slots keep their type by the same rule, so
/// only `Int` slots ever move.
fn store(slots: &mut [AbsVal], moved: &mut [bool], slot: usize, v: AbsVal) {
    let Some(&cur) = slots.get(slot) else {
        return;
    };
    let incoming = match (v, cur) {
        (AbsVal::Int(lo, hi), AbsVal::Int(..)) => AbsVal::Int(lo, hi),
        (AbsVal::Time, AbsVal::Int(..)) => AbsVal::Int(0, i64::MAX),
        (AbsVal::Top, AbsVal::Int(..)) => AbsVal::Int(FULL.0, FULL.1),
        (AbsVal::Bot, _) => return,
        // Same-type (or unknown) stores into non-Int slots keep the
        // slot's abstract type.
        _ => cur,
    };
    let joined = cur.join(incoming);
    if joined != cur {
        slots[slot] = joined;
        moved[slot] = true;
    }
}

/// Abstract transfer of one binary operator, mirroring
/// [`crate::expr::apply`]: only `Int op Int` with saturating `Add`/
/// `Sub` yields an `Int`; comparisons yield `Bool`; mixed `Int`/`Float`
/// promotes to `Float`; `Time` arithmetic stays `Time`; everything
/// else that `apply` would reject is `Top` (the store filter discards
/// it — an `apply` error aborts the body without storing).
fn abs_bin(op: BinOp, a: AbsVal, b: AbsVal) -> AbsVal {
    use AbsVal::*;
    match (op, a, b) {
        (_, Bot, _) | (_, _, Bot) => Bot,
        (BinOp::Add, Int(al, ah), Int(bl, bh)) => Int(al.saturating_add(bl), ah.saturating_add(bh)),
        (BinOp::Sub, Int(al, ah), Int(bl, bh)) => Int(al.saturating_sub(bh), ah.saturating_sub(bl)),
        (
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
            Int(..) | Time | Float | Bool,
            _,
        ) => Bool,
        (BinOp::And | BinOp::Or, _, _) => Bool,
        (BinOp::Add | BinOp::Sub, Time, Time) => Time,
        (BinOp::Add | BinOp::Sub, Float, Float) => Float,
        (BinOp::Add | BinOp::Sub, Int(..), Float) | (BinOp::Add | BinOp::Sub, Float, Int(..)) => {
            Float
        }
        // `Int ± Time` / `Time ± Int` and other mixes error in
        // `apply`; `Top` operands could be anything.
        _ => Top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn encode_decode_roundtrip_all_encodings() {
        for (enc, vals) in [
            (SlotEnc::Bool, vec![Value::Bool(true), Value::Bool(false)]),
            (
                SlotEnc::Int {
                    width: 1,
                    signed: false,
                },
                vec![int(0), int(255)],
            ),
            (
                SlotEnc::Int {
                    width: 1,
                    signed: true,
                },
                vec![int(-128), int(127)],
            ),
            (
                SlotEnc::Int {
                    width: 2,
                    signed: true,
                },
                vec![int(-32768), int(32767)],
            ),
            (
                SlotEnc::Int {
                    width: 4,
                    signed: false,
                },
                vec![int(0), int(u32::MAX as i64)],
            ),
            (
                SlotEnc::Int {
                    width: 8,
                    signed: true,
                },
                vec![int(i64::MIN), int(i64::MAX)],
            ),
            (SlotEnc::Time, vec![Value::Time(0), Value::Time(u64::MAX)]),
            (
                SlotEnc::Float,
                vec![Value::Float(-1.5), Value::Float(f64::MAX)],
            ),
        ] {
            for v in vals {
                let mut buf = vec![0u8; enc.width()];
                encode_slot(enc, &v, &mut buf);
                assert_eq!(decode_slot(enc, &buf), v, "{enc:?} {v:?}");
            }
        }
    }

    #[test]
    fn int_enc_picks_tight_widths() {
        assert_eq!(
            int_enc(0, 200),
            SlotEnc::Int {
                width: 1,
                signed: false
            }
        );
        assert_eq!(
            int_enc(-1, 100),
            SlotEnc::Int {
                width: 1,
                signed: true
            }
        );
        assert_eq!(
            int_enc(0, 60_000),
            SlotEnc::Int {
                width: 2,
                signed: false
            }
        );
        assert_eq!(
            int_enc(-40_000, 10),
            SlotEnc::Int {
                width: 4,
                signed: true
            }
        );
        assert_eq!(
            int_enc(0, i64::MAX),
            SlotEnc::Int {
                width: 8,
                signed: true
            }
        );
    }

    #[test]
    fn bounded_counter_narrows_to_one_byte() {
        // tries := tries + 1, guarded by tries < 3 — but the analysis
        // is guard-insensitive, so simulate the saturating fixpoint:
        // with no guard the interval keeps growing and must widen to
        // full range. With a bounded literal store (tries := 0) and an
        // add of a constant the widening path is exercised; the tight
        // case is a pure reset/compare machine.
        let code = vec![
            Op::Const { dst: 0, lit: 0 },
            Op::StoreVar { slot: 0, src: 0 },
        ];
        let b = int_bounds(&[int(0)], &code, &[int(3)]);
        assert_eq!(b[0], (0, 3));
    }

    #[test]
    fn unbounded_increment_widens_to_full_range() {
        let code = vec![
            Op::LoadVar { dst: 0, slot: 0 },
            Op::Const { dst: 1, lit: 0 },
            Op::Bin {
                op: BinOp::Add,
                dst: 0,
                a: 0,
                b: 1,
            },
            Op::StoreVar { slot: 0, src: 0 },
        ];
        let b = int_bounds(&[int(0)], &code, &[int(1)]);
        assert_eq!(b[0], (i64::MIN, i64::MAX));
    }

    #[test]
    fn packed_layout_shrinks_state_and_counters() {
        let code = vec![
            Op::Const { dst: 0, lit: 0 },
            Op::StoreVar { slot: 0, src: 0 },
        ];
        let transitions = vec![CompiledTransition {
            from: 0,
            to: 1,
            guard: None,
            body: 0..2,
            emit: None,
        }];
        let inits = [
            int(0),
            Value::Bool(false),
            Value::Time(0),
            Value::Float(0.0),
        ];
        let l = MachineLayout::packed(&inits, &code, &[int(5)], &transitions, 0);
        assert_eq!(l.state_bytes, 1);
        assert_eq!(
            l.slots[0].enc,
            SlotEnc::Int {
                width: 1,
                signed: false
            }
        );
        assert_eq!(l.slots[1].enc, SlotEnc::Bool);
        assert_eq!(l.slots[2].enc, SlotEnc::Time);
        assert_eq!(l.slots[3].enc, SlotEnc::Float);
        // 1 (state) + 1 + 1 + 8 + 8
        assert_eq!(l.block_len, 19);

        let vars = vec![
            int(5),
            Value::Bool(true),
            Value::Time(77),
            Value::Float(1.25),
        ];
        let mut img = Vec::new();
        l.encode(1, &vars, &mut img);
        assert_eq!(img.len(), l.block_len);
        let (mut state, mut out) = (0u32, Vec::new());
        l.decode(&img, &mut state, &mut out);
        assert_eq!(state, 1);
        assert_eq!(out, vars);
    }

    #[test]
    fn time_to_int_store_transfers_to_nonnegative_range() {
        let code = vec![
            Op::LoadEventTime { dst: 0 },
            Op::StoreVar { slot: 0, src: 0 },
        ];
        let b = int_bounds(&[int(0)], &code, &[]);
        assert_eq!(b[0], (0, i64::MAX));
    }

    #[test]
    fn long_store_chains_converge_without_widening() {
        // s[k] := s[k-1] for k = n-1 down to 1, then s[0] := 5: each
        // pass pushes the interval one link further, so the chain needs
        // n changing passes before it settles on [0, 5] everywhere.
        let n = 100u16;
        let mut code = Vec::new();
        for k in (1..n).rev() {
            code.push(Op::LoadVar {
                dst: 0,
                slot: k - 1,
            });
            code.push(Op::StoreVar { slot: k, src: 0 });
        }
        code.push(Op::Const { dst: 0, lit: 0 });
        code.push(Op::StoreVar { slot: 0, src: 0 });
        let b = int_bounds(&vec![int(0); n as usize], &code, &[int(5)]);
        assert!(b.iter().all(|&r| r == (0, 5)), "{b:?}");
    }

    #[test]
    fn mirror_store_settles_without_widening() {
        // x := 5 - x settles on [0, 5] at its second application.
        let code = vec![
            Op::Const { dst: 0, lit: 0 },
            Op::LoadVar { dst: 1, slot: 0 },
            Op::Bin {
                op: BinOp::Sub,
                dst: 0,
                a: 0,
                b: 1,
            },
            Op::StoreVar { slot: 0, src: 0 },
        ];
        assert_eq!(int_bounds(&[int(0)], &code, &[int(5)])[0], (0, 5));
    }

    #[test]
    fn analysis_always_terminates_with_sound_widening() {
        // Mutual growth between two slots: a := b + 1; b := a + 1.
        let code = vec![
            Op::LoadVar { dst: 0, slot: 1 },
            Op::Const { dst: 1, lit: 0 },
            Op::Bin {
                op: BinOp::Add,
                dst: 0,
                a: 0,
                b: 1,
            },
            Op::StoreVar { slot: 0, src: 0 },
            Op::LoadVar { dst: 0, slot: 0 },
            Op::Bin {
                op: BinOp::Add,
                dst: 0,
                a: 0,
                b: 1,
            },
            Op::StoreVar { slot: 1, src: 0 },
        ];
        let b = int_bounds(&[int(0), int(0)], &code, &[int(1)]);
        assert_eq!(b[0], (i64::MIN, i64::MAX));
        assert_eq!(b[1], (i64::MIN, i64::MAX));
    }
}
