//! The primitive-operation tables of the SafeTSA machine model.
//!
//! Per §5 of the paper, primitive operations are *subordinate to types*:
//! the instruction set contains only the generic `primitive` and
//! `xprimitive` instructions, and each primitive type brings its own
//! table of named operations. Operations that can raise an exception
//! (e.g. integer division) are marked *exceptional* and may only be
//! referenced through `xprimitive`.
//!
//! These tables are part of the trusted machine model: they are never
//! transmitted and can therefore not be corrupted by a code producer.
//! Each row also carries the operation's semantics over the 64-bit slot
//! encoding of the register planes ([`Eval`]); the VM executes and the
//! constant folder folds through these same evaluators. The baseline
//! bytecode interpreter keeps its own copy as an independent oracle.

use crate::types::PrimKind;
use crate::value::Literal;

/// Index of an operation inside the table of its base type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrimOpId(pub u16);

impl PrimOpId {
    /// Raw index into the per-type operation table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Evaluator of a unary operation over the slot encoding.
pub type UnFn = fn(u64) -> u64;

/// Evaluator of a binary operation over the slot encoding. `None` is
/// returned only by an exceptional `div`/`rem` whose divisor is zero.
pub type BinFn = fn(u64, u64) -> Option<u64>;

/// The semantics of an operation, by arity.
#[derive(Debug, Clone, Copy)]
pub enum Eval {
    /// One operand.
    Un(UnFn),
    /// Two operands.
    Bin(BinFn),
}

/// Signature, exception behaviour and semantics of one primitive
/// operation.
#[derive(Debug, Clone, Copy)]
pub struct PrimOp {
    /// Symbolic name, e.g. `"add"`, `"to_double"`.
    pub name: &'static str,
    /// Parameter planes.
    pub params: &'static [PrimKind],
    /// Result plane.
    pub result: PrimKind,
    /// Whether the operation may raise an exception; if so it must be
    /// invoked through `xprimitive` (§5).
    pub exceptional: bool,
    /// Java semantics over the slot encoding of the parameter and
    /// result planes (wrapping integer arithmetic, `as`-conversions,
    /// int shifts masked to 5 bits, long shifts to 6 bits).
    pub eval: Eval,
}

impl PrimOp {
    /// Applies the operation to slot-encoded `args`; `None` when it
    /// raises (an exceptional `div`/`rem` by zero).
    ///
    /// # Panics
    ///
    /// If `args` does not hold one value per parameter.
    pub fn apply(&self, args: &[u64]) -> Option<u64> {
        match (self.eval, args) {
            (Eval::Un(f), &[a]) => Some(f(a)),
            (Eval::Bin(f), &[a, b]) => f(a, b),
            _ => panic!(
                "{}: {} operands for {} parameters",
                self.name,
                args.len(),
                self.params.len()
            ),
        }
    }
}

// The slot encoding of the primitive planes: every value lives in a
// `u64`, `boolean`/`char`/`int` zero-extended (`int` through `u32`),
// `long` as its bits, `float`/`double` as `to_bits`.

/// Decodes a `boolean` slot.
#[inline]
pub fn as_z(b: u64) -> bool {
    b != 0
}
/// Decodes a `char` slot.
#[inline]
pub fn as_c(b: u64) -> u16 {
    b as u16
}
/// Decodes an `int` slot.
#[inline]
pub fn as_i(b: u64) -> i32 {
    b as u32 as i32
}
/// Decodes a `long` slot.
#[inline]
pub fn as_j(b: u64) -> i64 {
    b as i64
}
/// Decodes a `float` slot.
#[inline]
pub fn as_f(b: u64) -> f32 {
    f32::from_bits(b as u32)
}
/// Decodes a `double` slot.
#[inline]
pub fn as_d(b: u64) -> f64 {
    f64::from_bits(b)
}
/// Encodes a `boolean` slot.
#[inline]
pub fn of_z(x: bool) -> u64 {
    u64::from(x)
}
/// Encodes a `char` slot.
#[inline]
pub fn of_c(x: u16) -> u64 {
    u64::from(x)
}
/// Encodes an `int` slot.
#[inline]
pub fn of_i(x: i32) -> u64 {
    u64::from(x as u32)
}
/// Encodes a `long` slot.
#[inline]
pub fn of_j(x: i64) -> u64 {
    x as u64
}
/// Encodes a `float` slot.
#[inline]
pub fn of_f(x: f32) -> u64 {
    u64::from(x.to_bits())
}
/// Encodes a `double` slot.
#[inline]
pub fn of_d(x: f64) -> u64 {
    x.to_bits()
}

/// The plane and slot encoding of a primitive literal; `None` for
/// `null` and strings, which live on reference planes.
pub fn literal_to_bits(lit: &Literal) -> Option<(PrimKind, u64)> {
    Some(match *lit {
        Literal::Bool(x) => (PrimKind::Bool, of_z(x)),
        Literal::Char(x) => (PrimKind::Char, of_c(x)),
        Literal::Int(x) => (PrimKind::Int, of_i(x)),
        Literal::Long(x) => (PrimKind::Long, of_j(x)),
        Literal::Float(x) => (PrimKind::Float, of_f(x)),
        Literal::Double(x) => (PrimKind::Double, of_d(x)),
        Literal::Str(_) | Literal::Null => return None,
    })
}

/// The literal of plane `kind` whose slot encoding is `b`.
pub fn literal_from_bits(kind: PrimKind, b: u64) -> Literal {
    match kind {
        PrimKind::Bool => Literal::Bool(as_z(b)),
        PrimKind::Char => Literal::Char(as_c(b)),
        PrimKind::Int => Literal::Int(as_i(b)),
        PrimKind::Long => Literal::Long(as_j(b)),
        PrimKind::Float => Literal::Float(as_f(b)),
        PrimKind::Double => Literal::Double(as_d(b)),
    }
}

/// Builds a table. A row is `name (params) -> result = |args| value`;
/// an exceptional row is marked `x` after its result and its closure
/// returns `Option<u64>` itself. Row order is wire format: a row's
/// index is its [`PrimOpId`].
macro_rules! ops {
    ($($name:literal ($($p:ident),*) -> $r:ident $($x:ident)? = $f:expr;)*) => {
        &[$(PrimOp {
            name: $name,
            params: &[$(PrimKind::$p),*],
            result: PrimKind::$r,
            exceptional: ops!(@x $($x)?),
            eval: ops!(@eval ($($p),*) $($x)? $f),
        }),*]
    };
    (@x) => { false };
    (@x x) => { true };
    (@eval ($a:ident) $f:expr) => { Eval::Un($f) };
    (@eval ($a:ident, $b:ident) $f:expr) => { Eval::Bin(|a, b| Some(($f)(a, b))) };
    (@eval ($a:ident, $b:ident) x $f:expr) => { Eval::Bin($f) };
}

/// Operations on `boolean`.
pub const BOOL_OPS: &[PrimOp] = ops! {
    "and" (Bool, Bool) -> Bool = |a, b| of_z(as_z(a) & as_z(b));
    "or"  (Bool, Bool) -> Bool = |a, b| of_z(as_z(a) | as_z(b));
    "xor" (Bool, Bool) -> Bool = |a, b| of_z(as_z(a) ^ as_z(b));
    "not" (Bool) -> Bool = |a| of_z(!as_z(a));
    "eq"  (Bool, Bool) -> Bool = |a, b| of_z(as_z(a) == as_z(b));
    "ne"  (Bool, Bool) -> Bool = |a, b| of_z(as_z(a) != as_z(b));
};

/// Operations on `char`.
pub const CHAR_OPS: &[PrimOp] = ops! {
    "eq" (Char, Char) -> Bool = |a, b| of_z(as_c(a) == as_c(b));
    "ne" (Char, Char) -> Bool = |a, b| of_z(as_c(a) != as_c(b));
    "lt" (Char, Char) -> Bool = |a, b| of_z(as_c(a) < as_c(b));
    "le" (Char, Char) -> Bool = |a, b| of_z(as_c(a) <= as_c(b));
    "gt" (Char, Char) -> Bool = |a, b| of_z(as_c(a) > as_c(b));
    "ge" (Char, Char) -> Bool = |a, b| of_z(as_c(a) >= as_c(b));
    "to_int" (Char) -> Int = |a| of_i(i32::from(as_c(a)));
};

/// Operations on `int`. Division and remainder are exceptional
/// (division by zero), exactly as the paper's example notes.
pub const INT_OPS: &[PrimOp] = ops! {
    "add" (Int, Int) -> Int = |a, b| of_i(as_i(a).wrapping_add(as_i(b)));
    "sub" (Int, Int) -> Int = |a, b| of_i(as_i(a).wrapping_sub(as_i(b)));
    "mul" (Int, Int) -> Int = |a, b| of_i(as_i(a).wrapping_mul(as_i(b)));
    "div" (Int, Int) -> Int x = |a, b| match as_i(b) {
        0 => None,
        y => Some(of_i(as_i(a).wrapping_div(y))),
    };
    "rem" (Int, Int) -> Int x = |a, b| match as_i(b) {
        0 => None,
        y => Some(of_i(as_i(a).wrapping_rem(y))),
    };
    "neg" (Int) -> Int = |a| of_i(as_i(a).wrapping_neg());
    "and" (Int, Int) -> Int = |a, b| of_i(as_i(a) & as_i(b));
    "or"  (Int, Int) -> Int = |a, b| of_i(as_i(a) | as_i(b));
    "xor" (Int, Int) -> Int = |a, b| of_i(as_i(a) ^ as_i(b));
    "not" (Int) -> Int = |a| of_i(!as_i(a));
    "shl" (Int, Int) -> Int = |a, b| of_i(as_i(a).wrapping_shl(as_i(b) as u32 & 31));
    "shr" (Int, Int) -> Int = |a, b| of_i(as_i(a).wrapping_shr(as_i(b) as u32 & 31));
    "ushr" (Int, Int) -> Int = |a, b| of_i(((as_i(a) as u32) >> (as_i(b) as u32 & 31)) as i32);
    "eq" (Int, Int) -> Bool = |a, b| of_z(as_i(a) == as_i(b));
    "ne" (Int, Int) -> Bool = |a, b| of_z(as_i(a) != as_i(b));
    "lt" (Int, Int) -> Bool = |a, b| of_z(as_i(a) < as_i(b));
    "le" (Int, Int) -> Bool = |a, b| of_z(as_i(a) <= as_i(b));
    "gt" (Int, Int) -> Bool = |a, b| of_z(as_i(a) > as_i(b));
    "ge" (Int, Int) -> Bool = |a, b| of_z(as_i(a) >= as_i(b));
    "to_char" (Int) -> Char = |a| of_c(as_i(a) as u16);
    "to_long" (Int) -> Long = |a| of_j(i64::from(as_i(a)));
    "to_float" (Int) -> Float = |a| of_f(as_i(a) as f32);
    "to_double" (Int) -> Double = |a| of_d(f64::from(as_i(a)));
};

/// Operations on `long`.
pub const LONG_OPS: &[PrimOp] = ops! {
    "add" (Long, Long) -> Long = |a, b| of_j(as_j(a).wrapping_add(as_j(b)));
    "sub" (Long, Long) -> Long = |a, b| of_j(as_j(a).wrapping_sub(as_j(b)));
    "mul" (Long, Long) -> Long = |a, b| of_j(as_j(a).wrapping_mul(as_j(b)));
    "div" (Long, Long) -> Long x = |a, b| match as_j(b) {
        0 => None,
        y => Some(of_j(as_j(a).wrapping_div(y))),
    };
    "rem" (Long, Long) -> Long x = |a, b| match as_j(b) {
        0 => None,
        y => Some(of_j(as_j(a).wrapping_rem(y))),
    };
    "neg" (Long) -> Long = |a| of_j(as_j(a).wrapping_neg());
    "and" (Long, Long) -> Long = |a, b| of_j(as_j(a) & as_j(b));
    "or"  (Long, Long) -> Long = |a, b| of_j(as_j(a) | as_j(b));
    "xor" (Long, Long) -> Long = |a, b| of_j(as_j(a) ^ as_j(b));
    "not" (Long) -> Long = |a| of_j(!as_j(a));
    "shl" (Long, Int) -> Long = |a, b| of_j(as_j(a).wrapping_shl(as_i(b) as u32 & 63));
    "shr" (Long, Int) -> Long = |a, b| of_j(as_j(a).wrapping_shr(as_i(b) as u32 & 63));
    "ushr" (Long, Int) -> Long = |a, b| of_j(((as_j(a) as u64) >> (as_i(b) as u32 & 63)) as i64);
    "eq" (Long, Long) -> Bool = |a, b| of_z(as_j(a) == as_j(b));
    "ne" (Long, Long) -> Bool = |a, b| of_z(as_j(a) != as_j(b));
    "lt" (Long, Long) -> Bool = |a, b| of_z(as_j(a) < as_j(b));
    "le" (Long, Long) -> Bool = |a, b| of_z(as_j(a) <= as_j(b));
    "gt" (Long, Long) -> Bool = |a, b| of_z(as_j(a) > as_j(b));
    "ge" (Long, Long) -> Bool = |a, b| of_z(as_j(a) >= as_j(b));
    "to_int" (Long) -> Int = |a| of_i(as_j(a) as i32);
    "to_float" (Long) -> Float = |a| of_f(as_j(a) as f32);
    "to_double" (Long) -> Double = |a| of_d(as_j(a) as f64);
};

/// Operations on `float`. Floating-point division never traps in Java,
/// so all operations are plain primitives.
pub const FLOAT_OPS: &[PrimOp] = ops! {
    "add" (Float, Float) -> Float = |a, b| of_f(as_f(a) + as_f(b));
    "sub" (Float, Float) -> Float = |a, b| of_f(as_f(a) - as_f(b));
    "mul" (Float, Float) -> Float = |a, b| of_f(as_f(a) * as_f(b));
    "div" (Float, Float) -> Float = |a, b| of_f(as_f(a) / as_f(b));
    "rem" (Float, Float) -> Float = |a, b| of_f(as_f(a) % as_f(b));
    "neg" (Float) -> Float = |a| of_f(-as_f(a));
    "eq" (Float, Float) -> Bool = |a, b| of_z(as_f(a) == as_f(b));
    "ne" (Float, Float) -> Bool = |a, b| of_z(as_f(a) != as_f(b));
    "lt" (Float, Float) -> Bool = |a, b| of_z(as_f(a) < as_f(b));
    "le" (Float, Float) -> Bool = |a, b| of_z(as_f(a) <= as_f(b));
    "gt" (Float, Float) -> Bool = |a, b| of_z(as_f(a) > as_f(b));
    "ge" (Float, Float) -> Bool = |a, b| of_z(as_f(a) >= as_f(b));
    "to_int" (Float) -> Int = |a| of_i(as_f(a) as i32);
    "to_long" (Float) -> Long = |a| of_j(as_f(a) as i64);
    "to_double" (Float) -> Double = |a| of_d(f64::from(as_f(a)));
};

/// Operations on `double`.
pub const DOUBLE_OPS: &[PrimOp] = ops! {
    "add" (Double, Double) -> Double = |a, b| of_d(as_d(a) + as_d(b));
    "sub" (Double, Double) -> Double = |a, b| of_d(as_d(a) - as_d(b));
    "mul" (Double, Double) -> Double = |a, b| of_d(as_d(a) * as_d(b));
    "div" (Double, Double) -> Double = |a, b| of_d(as_d(a) / as_d(b));
    "rem" (Double, Double) -> Double = |a, b| of_d(as_d(a) % as_d(b));
    "neg" (Double) -> Double = |a| of_d(-as_d(a));
    "eq" (Double, Double) -> Bool = |a, b| of_z(as_d(a) == as_d(b));
    "ne" (Double, Double) -> Bool = |a, b| of_z(as_d(a) != as_d(b));
    "lt" (Double, Double) -> Bool = |a, b| of_z(as_d(a) < as_d(b));
    "le" (Double, Double) -> Bool = |a, b| of_z(as_d(a) <= as_d(b));
    "gt" (Double, Double) -> Bool = |a, b| of_z(as_d(a) > as_d(b));
    "ge" (Double, Double) -> Bool = |a, b| of_z(as_d(a) >= as_d(b));
    "to_int" (Double) -> Int = |a| of_i(as_d(a) as i32);
    "to_long" (Double) -> Long = |a| of_j(as_d(a) as i64);
    "to_float" (Double) -> Float = |a| of_f(as_d(a) as f32);
};

/// The operation table for `kind`.
pub fn ops_of(kind: PrimKind) -> &'static [PrimOp] {
    match kind {
        PrimKind::Bool => BOOL_OPS,
        PrimKind::Char => CHAR_OPS,
        PrimKind::Int => INT_OPS,
        PrimKind::Long => LONG_OPS,
        PrimKind::Float => FLOAT_OPS,
        PrimKind::Double => DOUBLE_OPS,
    }
}

/// Resolves `(kind, op)` to the operation descriptor, checking bounds.
pub fn resolve(kind: PrimKind, op: PrimOpId) -> Option<&'static PrimOp> {
    ops_of(kind).get(op.index())
}

/// Finds an operation of `kind` by name (used by front-ends and tests).
pub fn find(kind: PrimKind, name: &str) -> Option<PrimOpId> {
    ops_of(kind)
        .iter()
        .position(|o| o.name == name)
        .map(|i| PrimOpId(i as u16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_div_is_exceptional() {
        let id = find(PrimKind::Int, "div").unwrap();
        assert!(resolve(PrimKind::Int, id).unwrap().exceptional);
        let add = find(PrimKind::Int, "add").unwrap();
        assert!(!resolve(PrimKind::Int, add).unwrap().exceptional);
    }

    #[test]
    fn float_div_is_not_exceptional() {
        for kind in [PrimKind::Float, PrimKind::Double] {
            let id = find(kind, "div").unwrap();
            assert!(!resolve(kind, id).unwrap().exceptional);
        }
    }

    #[test]
    fn comparisons_produce_bool() {
        for kind in [
            PrimKind::Int,
            PrimKind::Long,
            PrimKind::Float,
            PrimKind::Double,
            PrimKind::Char,
        ] {
            for name in ["eq", "ne", "lt", "le", "gt", "ge"] {
                let id = find(kind, name).unwrap();
                assert_eq!(resolve(kind, id).unwrap().result, PrimKind::Bool);
            }
        }
    }

    #[test]
    fn shifts_take_int_amounts() {
        let id = find(PrimKind::Long, "shl").unwrap();
        let op = resolve(PrimKind::Long, id).unwrap();
        assert_eq!(op.params, &[PrimKind::Long, PrimKind::Int]);
    }

    #[test]
    fn unknown_ops_are_none() {
        assert!(find(PrimKind::Bool, "add").is_none());
        assert!(resolve(PrimKind::Bool, PrimOpId(999)).is_none());
    }

    /// Edge operands of each plane, slot-encoded.
    fn edges(kind: PrimKind) -> Vec<u64> {
        match kind {
            PrimKind::Bool => vec![of_z(false), of_z(true)],
            PrimKind::Char => [0, 1, 0x7f, 0xffff].map(of_c).to_vec(),
            PrimKind::Int => [i32::MIN, i32::MAX, 0, -1, 1, 31, 32, 63, 64]
                .map(of_i)
                .to_vec(),
            PrimKind::Long => [i64::MIN, i64::MAX, 0, -1, 1, 31, 32, 63, 64]
                .map(of_j)
                .to_vec(),
            PrimKind::Float => [
                f32::NAN,
                -0.0,
                0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MAX,
                f32::MIN_POSITIVE,
                -1.0,
                3e9,
                -1e19,
            ]
            .map(of_f)
            .to_vec(),
            PrimKind::Double => [
                f64::NAN,
                -0.0,
                0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN_POSITIVE,
                -1.0,
                3e9,
                -1e19,
            ]
            .map(of_d)
            .to_vec(),
        }
    }

    /// Constprop folds every non-exceptional row: only an exceptional
    /// row may raise, and only on a zero divisor. Every result is a
    /// canonical encoding of the row's result plane.
    #[test]
    fn evaluators_raise_only_on_exceptional_zero_divisors() {
        for &kind in &PrimKind::ALL {
            for op in ops_of(kind) {
                let operands: Vec<Vec<u64>> = match *op.params {
                    [p] => edges(p).into_iter().map(|a| vec![a]).collect(),
                    [p, q] => edges(p)
                        .into_iter()
                        .flat_map(|a| edges(q).into_iter().map(move |b| vec![a, b]))
                        .collect(),
                    _ => panic!("{kind:?}.{}: arity {}", op.name, op.params.len()),
                };
                for args in operands {
                    let raises = op.exceptional && args.get(1) == Some(&0);
                    match op.apply(&args) {
                        None => assert!(raises, "{kind:?}.{} raised on {args:x?}", op.name),
                        Some(r) => {
                            assert!(!raises, "{kind:?}.{} did not raise on {args:x?}", op.name);
                            let lit = literal_from_bits(op.result, r);
                            assert_eq!(literal_to_bits(&lit), Some((op.result, r)));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn names_unique_within_table() {
        for &kind in &PrimKind::ALL {
            let ops = ops_of(kind);
            for (i, a) in ops.iter().enumerate() {
                for b in &ops[i + 1..] {
                    assert_ne!(a.name, b.name, "duplicate op in {kind:?}");
                }
            }
        }
    }
}
