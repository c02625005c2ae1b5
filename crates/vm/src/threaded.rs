//! The direct-threaded execution core: the only path guest code runs
//! on.
//!
//! At first call, each function's verified SSA stream is *decoded*:
//! the Control Structure Tree is flattened into a linear array of
//! [`Op`]s with branch targets as array indices, operands resolved to
//! dense frame slots, phi parallel-copies pre-resolved per static edge
//! into explicit [`Op::Moves`], and field/method references resolved to
//! layout slots and call targets. The dispatch loop is a single match
//! over a dense op enum (a jump table).
//!
//! Frames are **untagged**: every slot is a `u64` whose meaning the
//! slot's plane fixes (see [`Kind`] and DESIGN.md "Untagged frames").
//! Type separation puts each SSA value on one plane, so the opcode
//! already knows what it reads; the decoder checks each operand's kind
//! once, and tags are re-attached only where a value leaves the frame
//! for tagged storage (heap fields, statics, intrinsic arguments, the
//! result of [`Vm::call`]).
//!
//! Three optimizations ride on the decoded form (see DESIGN.md
//! "Interpreter architecture"):
//!
//! * **Superinstruction fusion** — the top opcode pairs from the corpus
//!   profiler histogram (nullcheck+getfield, indexcheck+getelt, cmp+
//!   branch, …) are fused at decode time into single ops that do both
//!   steps with one dispatch and, for the check fusions, one heap
//!   lookup instead of two. A fused op still writes the check's SSA
//!   result (later instructions may use it) and still counts both
//!   constituents in the opcode histogram.
//! * **Monomorphic inline caches** — each decoded `xdispatch` site
//!   caches (runtime class → resolved target). The guard compares the
//!   receiver's runtime class id; vtables and intrinsic bindings are
//!   immutable after load, so the cache never needs invalidation and a
//!   hit is always sound. Misses fall back to the vtable walk and
//!   re-fill the cache (always-replace, so megamorphic sites degrade to
//!   the old path plus one compare).
//! * **Block-granularity fuel** — fuel is charged once per basic block
//!   (its charged-op count) at block entry instead of per instruction.
//!   A run completes iff fuel ≥ total charged steps; a block that traps
//!   part-way has already paid for all of its instructions, so fuel
//!   stays a hard ceiling.

use crate::interp::{Vm, DEADLINE_SLICE, PROFILE_WINDOW};
use safetsa_core::cst::Cst;
use safetsa_core::function::{Function, ENTRY};
use safetsa_core::instr::Instr;
use safetsa_core::module::FuncId;
use safetsa_core::primops::{
    self, as_c, as_d, as_f, as_i, as_j, as_z, of_c, of_d, of_f, of_i, of_j, of_z, BinFn, Eval, UnFn,
};
use safetsa_core::types::{ClassId, MethodKind, MethodRef, PrimKind, TypeId, TypeKind, TypeTable};
use safetsa_core::value::{BlockId, Literal, ValueId};
use safetsa_rt::heap::{ArrData, Obj};
use safetsa_rt::{intrinsics, HeapRef, Trap, Value};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// A dense frame-slot index (the raw `ValueId`).
type Slot = u32;

/// Sentinel slot for "no receiver" / "no result".
const NO_SLOT: Slot = u32::MAX;

/// Every host intrinsic takes at most this many arguments; call sites
/// stage intrinsic arguments in a fixed array of this size.
const MAX_INTRINSIC_ARGS: usize = 4;

/// The register plane of a frame slot or array element: which of the
/// untagged `u64` encodings the slot holds.
///
/// | kind | encoding |
/// |------|----------|
/// | `Z`, `C`, `I` | zero-extended (`I` through `u32`) |
/// | `J` | the `i64` bits |
/// | `F`, `D` | `f32::to_bits` / `f64::to_bits` |
/// | `R` | `0` for null, `n + 1` for `HeapRef(n)` |
///
/// Safe-index values live on the `I` plane; every reference plane
/// (class, array, safe-ref) shares `R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Z,
    C,
    I,
    J,
    F,
    D,
    R,
}

impl Kind {
    fn of_prim(p: PrimKind) -> Kind {
        match p {
            PrimKind::Bool => Kind::Z,
            PrimKind::Char => Kind::C,
            PrimKind::Int => Kind::I,
            PrimKind::Long => Kind::J,
            PrimKind::Float => Kind::F,
            PrimKind::Double => Kind::D,
        }
    }

    fn of(types: &TypeTable, ty: TypeId) -> Kind {
        match types.kind(ty) {
            TypeKind::Prim(p) => Kind::of_prim(p),
            TypeKind::SafeIndex(_) => Kind::I,
            TypeKind::Class(_) | TypeKind::Array(_) | TypeKind::SafeRef(_) => Kind::R,
        }
    }
}

// Slot codec of the reference plane; the primitive planes' pairs live
// beside the primitive-operation tables in `primops`.
#[inline]
fn as_ref(b: u64) -> Option<HeapRef> {
    b.checked_sub(1).map(|n| HeapRef(n as u32))
}
#[inline]
fn of_ref(r: Option<HeapRef>) -> u64 {
    r.map_or(0, |r| u64::from(r.0) + 1)
}

/// Strips a tagged value to its slot encoding.
pub(crate) fn to_bits(v: Value) -> u64 {
    match v {
        Value::Z(x) => of_z(x),
        Value::C(x) => of_c(x),
        Value::I(x) => of_i(x),
        Value::J(x) => of_j(x),
        Value::F(x) => of_f(x),
        Value::D(x) => of_d(x),
        Value::Ref(r) => of_ref(r),
    }
}

/// Re-attaches the tag of plane `k` to a slot encoding.
pub(crate) fn from_bits(k: Kind, b: u64) -> Value {
    match k {
        Kind::Z => Value::Z(as_z(b)),
        Kind::C => Value::C(as_c(b)),
        Kind::I => Value::I(as_i(b)),
        Kind::J => Value::J(as_j(b)),
        Kind::F => Value::F(as_f(b)),
        Kind::D => Value::D(as_d(b)),
        Kind::R => Value::Ref(as_ref(b)),
    }
}

/// Reads element `i` of a typed array straight into slot encoding.
fn elt_get(data: &ArrData, i: usize) -> Result<u64, Trap> {
    let oob = || Trap::IndexOutOfBounds;
    Ok(match data {
        ArrData::Z(v) => of_z(*v.get(i).ok_or_else(oob)?),
        ArrData::C(v) => of_c(*v.get(i).ok_or_else(oob)?),
        ArrData::I(v) => of_i(*v.get(i).ok_or_else(oob)?),
        ArrData::J(v) => of_j(*v.get(i).ok_or_else(oob)?),
        ArrData::F(v) => of_f(*v.get(i).ok_or_else(oob)?),
        ArrData::D(v) => of_d(*v.get(i).ok_or_else(oob)?),
        ArrData::R(v) => of_ref(*v.get(i).ok_or_else(oob)?),
    })
}

/// Writes slot encoding `b` of plane `k` into element `i` of a typed
/// array. A plane that does not match the array's storage (possible
/// only in unverified code) traps Internal, like `ArrData::set`.
fn elt_set(data: &mut ArrData, i: usize, k: Kind, b: u64) -> Result<(), Trap> {
    fn put<T>(v: &mut [T], i: usize, x: T) -> Result<(), Trap> {
        *v.get_mut(i).ok_or(Trap::IndexOutOfBounds)? = x;
        Ok(())
    }
    match (data, k) {
        (ArrData::Z(v), Kind::Z) => put(v, i, as_z(b)),
        (ArrData::C(v), Kind::C) => put(v, i, as_c(b)),
        (ArrData::I(v), Kind::I) => put(v, i, as_i(b)),
        (ArrData::J(v), Kind::J) => put(v, i, as_j(b)),
        (ArrData::F(v), Kind::F) => put(v, i, as_f(b)),
        (ArrData::D(v), Kind::D) => put(v, i, as_d(b)),
        (ArrData::R(v), Kind::R) => put(v, i, as_ref(b)),
        (data, _) if i >= data.len() => Err(Trap::IndexOutOfBounds),
        _ => Err(Trap::Internal("array element kind mismatch".into())),
    }
}

/// `int` comparison predicate (the cmp half of the fused cmp+branch).
#[derive(Debug, Clone, Copy)]
pub(crate) enum CmpPred {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

fn cmp_pred(name: &str) -> Option<CmpPred> {
    Some(match name {
        "eq" => CmpPred::Eq,
        "ne" => CmpPred::Ne,
        "lt" => CmpPred::Lt,
        "le" => CmpPred::Le,
        "gt" => CmpPred::Gt,
        "ge" => CmpPred::Ge,
        _ => return None,
    })
}

#[inline]
fn cmp_eval(pred: CmpPred, x: i32, y: i32) -> bool {
    match pred {
        CmpPred::Eq => x == y,
        CmpPred::Ne => x != y,
        CmpPred::Lt => x < y,
        CmpPred::Le => x <= y,
        CmpPred::Gt => x > y,
        CmpPred::Ge => x >= y,
    }
}

/// A resolved call target: a guest function body or a host intrinsic.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CallTarget {
    /// Guest function body.
    Func(FuncId),
    /// Host intrinsic; `is_static` drops the receiver before invoke.
    Intrinsic {
        /// The resolved intrinsic.
        id: intrinsics::Intrinsic,
        /// Whether the target method is static.
        is_static: bool,
    },
}

/// Per-block metadata: the *original* (pre-fusion) instruction
/// mnemonics in execution order, both as a list (fed to the profiler
/// ring so pair histograms see the unfused instruction stream) and
/// aggregated (for the stats opcode histogram).
pub(crate) struct BlockMeta {
    /// Original mnemonics in order.
    pub(crate) mnems: Box<[&'static str]>,
    /// Aggregated mnemonic counts.
    pub(crate) counts: Box<[(&'static str, u32)]>,
}

/// The `(dst, src)` parallel copies for one static predecessor block.
type PredMoves = (u32, Box<[(Slot, Slot)]>);

/// One exception-handler region: where to resume, and the handler-entry
/// phi moves keyed by static predecessor block.
#[derive(Default)]
pub(crate) struct HandlerInfo {
    /// Op index of the handler-entry block.
    pub(crate) entry_pc: u32,
    /// Whether the handler entry has phis at all (a faulting block with
    /// no move entry is then an internal error: a phi without an
    /// argument for its predecessor).
    pub(crate) has_phis: bool,
    /// Per-predecessor `(dst, src)` parallel copies.
    pub(crate) moves: Vec<PredMoves>,
}

/// One decoded direct-threaded op.
pub(crate) enum Op {
    /// Basic-block prologue: charges `cost` fuel (the block's charged-op
    /// count), runs the slice/profiler countdown, applies stats.
    Block { cost: u32, bi: u32 },
    /// Unconditional jump.
    Jump { t: u32 },
    /// Fall through when the slot holds `true`, jump to `t` otherwise.
    BranchFalse { cond: Slot, t: u32 },
    /// Fused int-compare + branch: writes the compare result (it is an
    /// SSA value later ops may read), then branches on it.
    CmpBranchFalse {
        pred: CmpPred,
        a: Slot,
        b: Slot,
        dst: Slot,
        t: u32,
    },
    /// Phi copies for one static CFG edge. They are parallel copies;
    /// `staged` is false when no destination is read by a later pair,
    /// so copying in order gives the same result without staging.
    Moves {
        pairs: Box<[(Slot, Slot)]>,
        staged: bool,
    },
    /// Return (`NO_SLOT` = void).
    Ret { src: Slot },
    /// `throw`: null receiver traps NullPointer, else a user trap.
    Throw { src: Slot },
    /// Enter a `try` region.
    PushHandler { h: u32 },
    /// Leave a `try` region on the normal path.
    PopHandler,
    /// Statically safe cast (downcast): a slot copy.
    Copy { src: Slot, dst: Slot },
    /// Unary primitive.
    Prim1 { f: UnFn, a: Slot, dst: Slot },
    /// Binary primitive.
    Prim2 {
        f: BinFn,
        a: Slot,
        b: Slot,
        dst: Slot,
    },
    /// Fused pair of binary primitives (sequential: the first result is
    /// written before the second op's operands are read).
    Prim2Pair {
        f1: BinFn,
        a1: Slot,
        b1: Slot,
        d1: Slot,
        f2: BinFn,
        a2: Slot,
        b2: Slot,
        d2: Slot,
    },
    /// `int` comparison (kept separate so the If flattener can fuse it
    /// into [`Op::CmpBranchFalse`]).
    IntCmp {
        pred: CmpPred,
        a: Slot,
        b: Slot,
        dst: Slot,
    },
    /// Null check.
    NullCheck { v: Slot, dst: Slot },
    /// Field read through a pre-resolved layout slot.
    GetField { obj: Slot, slot: u32, dst: Slot },
    /// Fused nullcheck + getfield: one null test, one heap lookup.
    NullGetField {
        obj: Slot,
        slot: u32,
        chk: Slot,
        dst: Slot,
    },
    /// Field write; `kind` re-tags the value for the tagged field.
    SetField {
        obj: Slot,
        slot: u32,
        val: Slot,
        kind: Kind,
    },
    /// Fused nullcheck + setfield.
    NullSetField {
        obj: Slot,
        slot: u32,
        val: Slot,
        kind: Kind,
        chk: Slot,
    },
    /// Static-field read.
    GetStatic { class: u32, idx: u32, dst: Slot },
    /// Static-field write; `kind` re-tags the value.
    SetStatic {
        class: u32,
        idx: u32,
        val: Slot,
        kind: Kind,
    },
    /// Bounds check.
    IndexCheck { arr: Slot, idx: Slot, dst: Slot },
    /// Array element read.
    GetElt { arr: Slot, idx: Slot, dst: Slot },
    /// Fused indexcheck + getelt: one heap lookup serves both the
    /// bounds test and the element read.
    IdxGetElt {
        arr: Slot,
        idx: Slot,
        chk: Slot,
        dst: Slot,
    },
    /// Array element write; `kind` is the static element plane.
    SetElt {
        arr: Slot,
        idx: Slot,
        val: Slot,
        kind: Kind,
    },
    /// Fused indexcheck + setelt.
    IdxSetElt {
        arr: Slot,
        idx: Slot,
        val: Slot,
        kind: Kind,
        chk: Slot,
    },
    /// Array length read.
    ArrayLength { arr: Slot, dst: Slot },
    /// Class-instance allocation.
    New { class: ClassId, dst: Slot },
    /// Array allocation with pre-resolved element width and kind.
    NewArray {
        elem: Kind,
        width: u64,
        type_tag: u64,
        len: Slot,
        dst: Slot,
    },
    /// Dynamically checked cast.
    Upcast { to: TypeId, v: Slot, dst: Slot },
    /// Runtime type test.
    InstanceOf { target: TypeId, v: Slot, dst: Slot },
    /// Reference identity.
    RefEq { a: Slot, b: Slot, dst: Slot },
    /// Materialize the in-flight exception.
    Catch { dst: Slot },
    /// Statically bound call (`xcall`), target resolved at decode time.
    /// Each argument carries its plane, used only to tag intrinsic
    /// arguments.
    Call {
        target: CallTarget,
        recv: Slot,
        args: Box<[(Slot, Kind)]>,
        dst: Slot,
    },
    /// Dynamic dispatch (`xdispatch`) of `method` with a monomorphic
    /// inline cache keyed by the receiver's runtime class id.
    Dispatch {
        method: MethodRef,
        ic: Cell<Option<(u32, CallTarget)>>,
        recv: Slot,
        args: Box<[(Slot, Kind)]>,
        dst: Slot,
    },
    /// Decode-time-unresolvable or ill-kinded instruction: traps
    /// Internal when (if ever) executed.
    Fail { msg: Box<str> },
}

/// A fully decoded function.
pub(crate) struct TFunc {
    /// Diagnostic name (for the profiler's hot-function table).
    pub(crate) name: String,
    /// Result plane (`None` for void), re-attached at [`Vm::call`].
    pub(crate) ret: Option<Kind>,
    /// Frame image copied into every new frame: zero (null / `0` /
    /// `false`) everywhere except the constant slots. String constant
    /// slots are filled in on the first call (see `strings`).
    pub(crate) template: RefCell<Box<[u64]>>,
    /// String constants `(slot, literal)`, in constant-pool order.
    /// Interned into `template` on the first call, never at decode:
    /// decoding must not touch the heap.
    pub(crate) strings: Box<[(Slot, Literal)]>,
    /// Whether `strings` are already in `template`.
    pub(crate) strings_ready: Cell<bool>,
    /// The decoded op array.
    pub(crate) code: Vec<Op>,
    /// Per-block metadata, indexed by the `bi` field of [`Op::Block`].
    pub(crate) blocks: Vec<BlockMeta>,
    /// `(op index, BlockId.0)` of every emitted block, sorted by op
    /// index — binary-searched during unwinding to find the faulting
    /// block (the dynamic predecessor of the handler entry).
    pub(crate) block_starts: Vec<(u32, u32)>,
    /// Exception-handler regions, indexed by [`Op::PushHandler`].
    pub(crate) handlers: Vec<HandlerInfo>,
}

// ---------------------------------------------------------------------
// Decoding: CST flattening + instruction decode + peephole fusion.
// ---------------------------------------------------------------------

enum Ctx {
    Labeled { join: BlockId, patches: Vec<usize> },
    Loop { header_pc: u32, header: BlockId },
    Try,
}

struct Flattener<'a, 'm> {
    vm: &'a Vm<'m>,
    f: &'m Function,
    code: Vec<Op>,
    blocks: Vec<BlockMeta>,
    block_starts: Vec<(u32, u32)>,
    handlers: Vec<HandlerInfo>,
    ctx: Vec<Ctx>,
    cur: BlockId,
}

impl<'m> Vm<'m> {
    /// The decoded form of `fid`, decoding (and caching) on first use.
    pub(crate) fn tfunc(&mut self, fid: FuncId) -> Rc<TFunc> {
        if let Some(tf) = &self.tcode[fid.index()] {
            return tf.clone();
        }
        let f = self.module.function(fid);
        let tf = Rc::new(decode_function(self, f));
        self.tcode[fid.index()] = Some(tf.clone());
        tf
    }
}

fn decode_function<'m>(vm: &Vm<'m>, f: &'m Function) -> TFunc {
    let types = &vm.module.types;
    let mut fl = Flattener {
        vm,
        f,
        code: Vec::new(),
        blocks: Vec::new(),
        block_starts: Vec::new(),
        handlers: Vec::new(),
        ctx: Vec::new(),
        cur: ENTRY,
    };
    let mut template = vec![0u64; f.values.len()];
    let mut strings = Vec::new();
    for (i, c) in f.consts.iter().enumerate() {
        let slot = f.const_value(i).0;
        let (kind, bits) = match primops::literal_to_bits(&c.lit) {
            Some((k, bits)) => (Kind::of_prim(k), bits),
            None => {
                if let Literal::Str(_) = c.lit {
                    strings.push((slot, c.lit.clone()));
                }
                (Kind::R, 0)
            }
        };
        if fl.kind(ValueId(slot)) != Some(kind) {
            fl.code.push(Op::Fail {
                msg: "constant does not match its plane".into(),
            });
        }
        if let Some(s) = template.get_mut(slot as usize) {
            *s = bits;
        }
    }
    if fl.emit(&f.body) {
        if f.ret.is_none() {
            fl.code.push(Op::Ret { src: NO_SLOT });
        } else {
            fl.code.push(Op::Fail {
                msg: "missing return".into(),
            });
        }
    }
    TFunc {
        name: f.name.clone(),
        ret: f.ret.map(|t| Kind::of(types, t)),
        template: RefCell::new(template.into_boxed_slice()),
        strings_ready: Cell::new(strings.is_empty()),
        strings: strings.into_boxed_slice(),
        code: fl.code,
        blocks: fl.blocks,
        block_starts: fl.block_starts,
        handlers: fl.handlers,
    }
}

impl<'a, 'm> Flattener<'a, 'm> {
    /// The plane of value `v`, or `None` for an id outside the value
    /// table.
    fn kind(&self, v: ValueId) -> Option<Kind> {
        let info = self.f.values.get(v.index())?;
        Some(Kind::of(&self.vm.module.types, info.ty))
    }

    fn is(&self, v: ValueId, k: Kind) -> bool {
        self.kind(v) == Some(k)
    }

    fn push_jump(&mut self) -> usize {
        self.code.push(Op::Jump { t: 0 });
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Op::Jump { t } | Op::BranchFalse { t, .. } | Op::CmpBranchFalse { t, .. } => {
                *t = target;
            }
            _ => unreachable!("patch target is not a branch"),
        }
    }

    /// The `(dst, src)` phi copies into block `to` along the edge from
    /// `from`, or why there are none.
    fn edge_moves(&self, from: BlockId, to: BlockId) -> Result<Vec<(Slot, Slot)>, String> {
        let block = self.f.block(to);
        let mut pairs = Vec::with_capacity(block.phis.len());
        for (k, phi) in block.phis.iter().enumerate() {
            let Some(a) = phi.arg_from(from) else {
                return Err(format!("phi in {to} has no arg from {from}"));
            };
            let dst = self.f.phi_result(to, k);
            if self.kind(dst).is_none() || self.kind(dst) != self.kind(a) {
                return Err(format!(
                    "phi in {to} takes an arg of another plane from {from}"
                ));
            }
            pairs.push((dst.0, a.0));
        }
        Ok(pairs)
    }

    /// Emits the phi parallel copies for the static edge `from → to`.
    fn emit_moves(&mut self, from: BlockId, to: BlockId) {
        if self.f.block(to).phis.is_empty() {
            return;
        }
        self.code.push(match self.edge_moves(from, to) {
            Ok(pairs) => Op::Moves {
                staged: pairs
                    .iter()
                    .enumerate()
                    .any(|(i, &(dst, _))| pairs[i + 1..].iter().any(|&(_, src)| src == dst)),
                pairs: pairs.into_boxed_slice(),
            },
            Err(msg) => Op::Fail { msg: msg.into() },
        });
    }

    /// Emits a block: the [`Op::Block`] prologue, then the decoded
    /// instructions with peephole superinstruction fusion. The block's
    /// fuel cost is its *charged* op count — each fusion folds two
    /// charges into one, which is exactly the vm_steps reduction the
    /// bench gate tracks.
    fn emit_block_body(&mut self, b: BlockId) {
        self.block_starts.push((self.code.len() as u32, b.0));
        let bi = self.blocks.len() as u32;
        let block_op_at = self.code.len();
        self.code.push(Op::Block { cost: 0, bi });
        let block = self.f.block(b);
        let mut charged: u32 = 0;
        for (k, instr) in block.instrs.iter().enumerate() {
            let dst = self.f.instr_result(b, k).map(|v| v.0).unwrap_or(NO_SLOT);
            let op = if self.kinds_ok(instr, dst) {
                self.decode(instr, dst)
            } else {
                Op::Fail {
                    msg: format!("{} operand does not match its plane", instr.mnemonic()).into(),
                }
            };
            charged += 1;
            if charged >= 2 {
                if let Some(fused) = try_fuse(self.code.last().expect("nonempty"), &op) {
                    self.code.pop();
                    self.code.push(fused);
                    charged -= 1;
                    continue;
                }
            }
            self.code.push(op);
        }
        let mnems: Box<[&'static str]> = block.instrs.iter().map(|i| i.mnemonic()).collect();
        let mut counts: Vec<(&'static str, u32)> = Vec::new();
        for &m in mnems.iter() {
            match counts.iter_mut().find(|(n, _)| *n == m) {
                Some((_, c)) => *c += 1,
                None => counts.push((m, 1)),
            }
        }
        self.blocks.push(BlockMeta {
            mnems,
            counts: counts.into_boxed_slice(),
        });
        if let Op::Block { cost, .. } = &mut self.code[block_op_at] {
            *cost = charged;
        }
        self.cur = b;
    }

    /// Emits a CST node; returns whether control falls through it.
    fn emit(&mut self, cst: &'m Cst) -> bool {
        match cst {
            Cst::Basic(b) => {
                self.emit_moves(self.cur, *b);
                self.emit_block_body(*b);
                true
            }
            Cst::Seq(items) => {
                for c in items {
                    if !self.emit(c) {
                        return false;
                    }
                }
                true
            }
            Cst::If {
                cond,
                then_br,
                else_br,
                join,
            } => {
                // cmp+branch fusion: if the preceding op is the int
                // compare producing this condition, merge them. The
                // compare stays charged in its block's cost and still
                // writes its SSA result.
                if let Some(Op::IntCmp { dst, .. }) = self.code.last() {
                    if *dst == cond.0 {
                        let Some(Op::IntCmp { pred, a, b, dst }) = self.code.pop() else {
                            unreachable!()
                        };
                        self.code.push(Op::CmpBranchFalse {
                            pred,
                            a,
                            b,
                            dst,
                            t: 0,
                        });
                    } else {
                        self.push_branch(*cond);
                    }
                } else {
                    self.push_branch(*cond);
                }
                let branch_at = self.code.len() - 1;
                let saved = self.cur;
                let ft_then = self.emit(then_br);
                let mut then_jump = None;
                if ft_then {
                    self.emit_moves(self.cur, *join);
                    then_jump = Some(self.push_jump());
                }
                let else_start = self.code.len() as u32;
                self.patch(branch_at, else_start);
                self.cur = saved;
                let ft_else = self.emit(else_br);
                if ft_else {
                    self.emit_moves(self.cur, *join);
                }
                if ft_then || ft_else {
                    if let Some(j) = then_jump {
                        let here = self.code.len() as u32;
                        self.patch(j, here);
                    }
                    self.emit_block_body(*join);
                    true
                } else {
                    false
                }
            }
            Cst::Loop { header, body } => {
                self.emit_moves(self.cur, *header);
                let header_pc = self.code.len() as u32;
                self.emit_block_body(*header);
                self.ctx.push(Ctx::Loop {
                    header_pc,
                    header: *header,
                });
                if self.emit(body) {
                    self.emit_moves(self.cur, *header);
                    self.code.push(Op::Jump { t: header_pc });
                }
                self.ctx.pop();
                false
            }
            Cst::Labeled { body, join } => {
                self.ctx.push(Ctx::Labeled {
                    join: *join,
                    patches: Vec::new(),
                });
                let ft = self.emit(body);
                if ft {
                    self.emit_moves(self.cur, *join);
                }
                let Some(Ctx::Labeled { patches, .. }) = self.ctx.pop() else {
                    unreachable!()
                };
                if ft || !patches.is_empty() {
                    let here = self.code.len() as u32;
                    for p in patches {
                        self.patch(p, here);
                    }
                    self.emit_block_body(*join);
                    true
                } else {
                    false
                }
            }
            Cst::Break(n) => {
                let mut seen = 0u32;
                let mut target = None;
                for (i, c) in self.ctx.iter().enumerate().rev() {
                    if matches!(c, Ctx::Labeled { .. }) {
                        if seen == *n {
                            target = Some(i);
                            break;
                        }
                        seen += 1;
                    }
                }
                let Some(ti) = target else {
                    self.code.push(Op::Fail {
                        msg: "break without target".into(),
                    });
                    return false;
                };
                // Leaving any try region between here and the target
                // deactivates its handler.
                let pops = self.ctx[ti + 1..]
                    .iter()
                    .filter(|c| matches!(c, Ctx::Try))
                    .count();
                for _ in 0..pops {
                    self.code.push(Op::PopHandler);
                }
                let Ctx::Labeled { join, .. } = self.ctx[ti] else {
                    unreachable!()
                };
                self.emit_moves(self.cur, join);
                let j = self.push_jump();
                let Ctx::Labeled { patches, .. } = &mut self.ctx[ti] else {
                    unreachable!()
                };
                patches.push(j);
                false
            }
            Cst::Continue(n) => {
                let mut seen = 0u32;
                let mut target = None;
                for (i, c) in self.ctx.iter().enumerate().rev() {
                    if matches!(c, Ctx::Loop { .. }) {
                        if seen == *n {
                            target = Some(i);
                            break;
                        }
                        seen += 1;
                    }
                }
                let Some(ti) = target else {
                    self.code.push(Op::Fail {
                        msg: "continue without target".into(),
                    });
                    return false;
                };
                let pops = self.ctx[ti + 1..]
                    .iter()
                    .filter(|c| matches!(c, Ctx::Try))
                    .count();
                for _ in 0..pops {
                    self.code.push(Op::PopHandler);
                }
                let Ctx::Loop { header_pc, header } = self.ctx[ti] else {
                    unreachable!()
                };
                self.emit_moves(self.cur, header);
                self.code.push(Op::Jump { t: header_pc });
                false
            }
            Cst::Return(v) => {
                let ret = self.f.ret.map(|t| Kind::of(&self.vm.module.types, t));
                self.code.push(match v {
                    None if ret.is_none() => Op::Ret { src: NO_SLOT },
                    Some(v) if ret.is_some() && self.kind(*v) == ret => Op::Ret { src: v.0 },
                    _ => Op::Fail {
                        msg: "return value does not match the result plane".into(),
                    },
                });
                false
            }
            Cst::Throw(v) => {
                self.code.push(if self.is(*v, Kind::R) {
                    Op::Throw { src: v.0 }
                } else {
                    Op::Fail {
                        msg: "throw of a non-reference".into(),
                    }
                });
                false
            }
            Cst::Try {
                body,
                handler_entry,
                handler,
                join,
            } => {
                let h = self.handlers.len() as u32;
                self.handlers.push(HandlerInfo::default());
                self.code.push(Op::PushHandler { h });
                self.ctx.push(Ctx::Try);
                let ft_body = self.emit(body);
                self.ctx.pop();
                let mut body_jump = None;
                if ft_body {
                    self.code.push(Op::PopHandler);
                    self.emit_moves(self.cur, *join);
                    body_jump = Some(self.push_jump());
                }
                // Handler entry: control arrives only via unwinding,
                // which applies the phi moves for the faulting block
                // before jumping here. A predecessor whose moves are
                // incomplete or ill-kinded gets no entry, so unwinding
                // from it traps Internal.
                let entry_pc = self.code.len() as u32;
                let hb = self.f.block(*handler_entry);
                let mut preds: Vec<BlockId> = Vec::new();
                for phi in &hb.phis {
                    for (p, _) in &phi.args {
                        if !preds.contains(p) {
                            preds.push(*p);
                        }
                    }
                }
                let moves = preds
                    .into_iter()
                    .filter_map(|p| {
                        let pairs = self.edge_moves(p, *handler_entry).ok()?;
                        Some((p.0, pairs.into_boxed_slice()))
                    })
                    .collect();
                self.handlers[h as usize] = HandlerInfo {
                    entry_pc,
                    has_phis: !hb.phis.is_empty(),
                    moves,
                };
                self.emit_block_body(*handler_entry);
                let ft_h = self.emit(handler);
                if ft_h {
                    self.emit_moves(self.cur, *join);
                }
                if ft_body || ft_h {
                    if let Some(j) = body_jump {
                        let here = self.code.len() as u32;
                        self.patch(j, here);
                    }
                    self.emit_block_body(*join);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Pushes the branch on `cond`. A non-boolean condition gets a
    /// [`Op::Fail`] in front, so the branch itself is never reached.
    fn push_branch(&mut self, cond: ValueId) {
        if !self.is(cond, Kind::Z) {
            self.code.push(Op::Fail {
                msg: "branch condition is not a boolean".into(),
            });
        }
        self.code.push(Op::BranchFalse { cond: cond.0, t: 0 });
    }

    /// The decode-time kind check: whether every operand of `instr`
    /// (and its result slot `dst`) lies on the plane the instruction
    /// reads or writes. The verifier proves this for every shipped
    /// module; checking it once here is what lets the dispatch loop
    /// read untagged slots without the per-step tag test.
    fn kinds_ok(&self, instr: &Instr, dst: Slot) -> bool {
        use Kind::{I, R, Z};
        let types = &self.vm.module.types;
        let k = |v: &ValueId| self.kind(*v);
        let out = |want: Option<Kind>| match want {
            None => dst == NO_SLOT,
            Some(w) => dst != NO_SLOT && self.is(ValueId(dst), w),
        };
        let args_ok = |recv: Option<&ValueId>, args: &[ValueId], tys: &[TypeId]| {
            recv.iter().count() + args.len() == tys.len()
                && recv
                    .into_iter()
                    .chain(args)
                    .zip(tys)
                    .all(|(v, t)| k(v) == Some(Kind::of(types, *t)))
        };
        let field_kind =
            |f: &safetsa_core::types::FieldRef| types.field(*f).map(|fi| Kind::of(types, fi.ty));
        let elem_kind = |arr_ty: &TypeId| types.array_elem(*arr_ty).map(|e| Kind::of(types, e));
        let ret_kind = |t: Option<TypeId>| t.map(|t| Kind::of(types, t));
        match instr {
            Instr::Primitive { ty, op, args } | Instr::XPrimitive { ty, op, args } => {
                let TypeKind::Prim(pk) = types.kind(*ty) else {
                    return true; // decode reports it
                };
                let Some(desc) = primops::resolve(pk, *op) else {
                    return true;
                };
                args.len() == desc.params.len()
                    && args
                        .iter()
                        .zip(desc.params)
                        .all(|(a, p)| k(a) == Some(Kind::of_prim(*p)))
                    && out(Some(Kind::of_prim(desc.result)))
            }
            Instr::NullCheck { value, .. } | Instr::Upcast { value, .. } => {
                k(value) == Some(R) && out(Some(R))
            }
            Instr::Downcast { value, .. } => k(value).is_some_and(|kv| out(Some(kv))),
            Instr::IndexCheck { array, index, .. } => {
                k(array) == Some(R) && k(index) == Some(I) && out(Some(I))
            }
            Instr::GetField { object, field, .. } => {
                k(object) == Some(R) && field_kind(field).is_some_and(|fk| out(Some(fk)))
            }
            Instr::SetField {
                object,
                field,
                value,
                ..
            } => k(object) == Some(R) && field_kind(field).is_some_and(|fk| k(value) == Some(fk)),
            Instr::GetStatic { field } => field_kind(field).is_some_and(|fk| out(Some(fk))),
            Instr::SetStatic { field, value } => {
                field_kind(field).is_some_and(|fk| k(value) == Some(fk))
            }
            Instr::GetElt {
                arr_ty,
                array,
                index,
            } => {
                k(array) == Some(R)
                    && k(index) == Some(I)
                    && elem_kind(arr_ty).is_some_and(|ek| out(Some(ek)))
            }
            Instr::SetElt {
                arr_ty,
                array,
                index,
                value,
            } => {
                k(array) == Some(R)
                    && k(index) == Some(I)
                    && elem_kind(arr_ty).is_some_and(|ek| k(value) == Some(ek))
            }
            Instr::ArrayLength { array, .. } => k(array) == Some(R) && out(Some(I)),
            Instr::New { .. } => out(Some(R)),
            Instr::NewArray { length, .. } => k(length) == Some(I) && out(Some(R)),
            Instr::XCall {
                method,
                receiver,
                args,
                ..
            } => {
                let Some(info) = types.method(*method) else {
                    return true;
                };
                match info.body {
                    // Guest callee: the caller's slots are copied raw
                    // into the callee's parameter slots, so they must
                    // match the callee's own planes.
                    Some(body) => {
                        let Some(callee) = self.vm.module.functions.get(body as usize) else {
                            return true;
                        };
                        args_ok(receiver.as_ref(), args, &callee.params)
                            && out(ret_kind(callee.ret))
                    }
                    None => {
                        receiver.is_none_or(|r| k(&r) == Some(R))
                            && args_ok(None, args, &info.params)
                            && args.len() <= MAX_INTRINSIC_ARGS
                            && out(ret_kind(info.ret))
                    }
                }
            }
            Instr::XDispatch {
                method,
                receiver,
                args,
                ..
            } => {
                let Some(info) = types.method(*method) else {
                    return true;
                };
                k(receiver) == Some(R)
                    && args_ok(None, args, &info.params)
                    && out(ret_kind(info.ret))
            }
            Instr::RefEq { a, b, .. } => k(a) == Some(R) && k(b) == Some(R) && out(Some(Z)),
            Instr::InstanceOf { value, .. } => k(value) == Some(R) && out(Some(Z)),
            Instr::Catch { .. } => out(Some(R)),
        }
    }

    /// The argument slots of a call, each with its plane.
    fn arg_slots(&self, args: &[ValueId]) -> Box<[(Slot, Kind)]> {
        args.iter()
            .map(|a| (a.0, self.kind(*a).unwrap_or(Kind::R)))
            .collect()
    }

    /// Decodes one kind-checked SSA instruction into a threaded op.
    fn decode(&self, instr: &Instr, dst: Slot) -> Op {
        let types = &self.vm.module.types;
        let fail = |msg: &str| Op::Fail { msg: msg.into() };
        let field_kind = |f: &safetsa_core::types::FieldRef| {
            Kind::of(types, types.field(*f).expect("kind-checked field").ty)
        };
        match instr {
            Instr::Primitive { ty, op, args } | Instr::XPrimitive { ty, op, args } => {
                let kind = match types.kind(*ty) {
                    TypeKind::Prim(k) => k,
                    _ => return fail("primitive on non-prim"),
                };
                let Some(desc) = primops::resolve(kind, *op) else {
                    return fail("unknown primop");
                };
                if kind == PrimKind::Int {
                    if let Some(pred) = cmp_pred(desc.name) {
                        return Op::IntCmp {
                            pred,
                            a: args[0].0,
                            b: args[1].0,
                            dst,
                        };
                    }
                }
                match desc.eval {
                    Eval::Un(f) => Op::Prim1 {
                        f,
                        a: args[0].0,
                        dst,
                    },
                    Eval::Bin(f) => Op::Prim2 {
                        f,
                        a: args[0].0,
                        b: args[1].0,
                        dst,
                    },
                }
            }
            Instr::NullCheck { value, .. } => Op::NullCheck { v: value.0, dst },
            Instr::IndexCheck { array, index, .. } => Op::IndexCheck {
                arr: array.0,
                idx: index.0,
                dst,
            },
            Instr::Upcast { to, value, .. } => Op::Upcast {
                to: *to,
                v: value.0,
                dst,
            },
            Instr::Downcast { value, .. } => Op::Copy { src: value.0, dst },
            Instr::GetField { object, field, .. } => match self.vm.instance_field_slot(field) {
                Ok(slot) => Op::GetField {
                    obj: object.0,
                    slot: slot as u32,
                    dst,
                },
                Err(_) => fail("bad field ref"),
            },
            Instr::SetField {
                object,
                field,
                value,
                ..
            } => match self.vm.instance_field_slot(field) {
                Ok(slot) => Op::SetField {
                    obj: object.0,
                    slot: slot as u32,
                    val: value.0,
                    kind: field_kind(field),
                },
                Err(_) => fail("bad field ref"),
            },
            Instr::GetStatic { field } => Op::GetStatic {
                class: field.class.0,
                idx: field.index,
                dst,
            },
            Instr::SetStatic { field, value } => Op::SetStatic {
                class: field.class.0,
                idx: field.index,
                val: value.0,
                kind: field_kind(field),
            },
            Instr::GetElt { array, index, .. } => Op::GetElt {
                arr: array.0,
                idx: index.0,
                dst,
            },
            Instr::SetElt {
                array,
                index,
                value,
                ..
            } => Op::SetElt {
                arr: array.0,
                idx: index.0,
                val: value.0,
                kind: self.kind(*value).expect("kind-checked value"),
            },
            Instr::ArrayLength { array, .. } => Op::ArrayLength { arr: array.0, dst },
            Instr::New { class_ty } => match types.kind(*class_ty) {
                TypeKind::Class(c) => Op::New { class: c, dst },
                _ => fail("new on non-class"),
            },
            Instr::NewArray { arr_ty, length } => {
                let Ok(width) = self.vm.array_elem_width(*arr_ty) else {
                    return fail("newarray on non-array type");
                };
                let elem = types.array_elem(*arr_ty).expect("checked above");
                Op::NewArray {
                    elem: Kind::of(types, elem),
                    width,
                    type_tag: arr_ty.0 as u64,
                    len: length.0,
                    dst,
                }
            }
            Instr::XCall {
                method,
                receiver,
                args,
                ..
            } => {
                let Some(info) = types.method(*method) else {
                    return fail("bad method ref");
                };
                let target = match info.body {
                    Some(body) => CallTarget::Func(FuncId(body)),
                    None => match self.resolve_intrinsic(method.class, *method) {
                        Ok(t) => t,
                        Err(msg) => return Op::Fail { msg: msg.into() },
                    },
                };
                Op::Call {
                    target,
                    recv: receiver.map(|r| r.0).unwrap_or(NO_SLOT),
                    args: self.arg_slots(args),
                    dst,
                }
            }
            Instr::XDispatch {
                method,
                receiver,
                args,
                ..
            } => {
                let Some(info) = types.method(*method) else {
                    return fail("bad method ref");
                };
                if info.vtable_slot.is_none() {
                    return fail("xdispatch without slot");
                }
                Op::Dispatch {
                    method: *method,
                    ic: Cell::new(None),
                    recv: receiver.0,
                    args: self.arg_slots(args),
                    dst,
                }
            }
            Instr::RefEq { a, b, .. } => Op::RefEq {
                a: a.0,
                b: b.0,
                dst,
            },
            Instr::InstanceOf { target, value, .. } => Op::InstanceOf {
                target: *target,
                v: value.0,
                dst,
            },
            Instr::Catch { .. } => Op::Catch { dst },
        }
    }

    /// Resolves a body-less method to its host intrinsic at decode time.
    fn resolve_intrinsic(&self, class: ClassId, method: MethodRef) -> Result<CallTarget, String> {
        let types = &self.vm.module.types;
        let cinfo = types.class(class);
        let Some(minfo) = types.method(method) else {
            return Err("bad method ref".into());
        };
        let sig: String = minfo
            .params
            .iter()
            .map(|p| crate::interp::sig_letter(types, *p))
            .collect();
        let id = intrinsics::resolve(&cinfo.name, &minfo.name, &sig)
            .ok_or_else(|| format!("no intrinsic for {}.{}({sig})", cinfo.name, minfo.name))?;
        Ok(CallTarget::Intrinsic {
            id,
            is_static: minfo.kind == MethodKind::Static,
        })
    }
}

/// Peephole superinstruction fusion over adjacent decoded ops within a
/// block. The pair set was chosen from the corpus opcode-pair histogram
/// (`bench_report --pairs`; see DESIGN.md for the measured table):
/// check+access pairs and primitive chains dominate dynamic dispatch
/// adjacency corpus-wide.
fn try_fuse(prev: &Op, cur: &Op) -> Option<Op> {
    match (prev, cur) {
        // nullcheck → getfield on the checked ref.
        (&Op::NullCheck { v, dst: chk }, &Op::GetField { obj, slot, dst }) if obj == chk => {
            Some(Op::NullGetField {
                obj: v,
                slot,
                chk,
                dst,
            })
        }
        // nullcheck → setfield on the checked ref.
        (
            &Op::NullCheck { v, dst: chk },
            &Op::SetField {
                obj,
                slot,
                val,
                kind,
            },
        ) if obj == chk && val != chk => Some(Op::NullSetField {
            obj: v,
            slot,
            val,
            kind,
            chk,
        }),
        // indexcheck → getelt with the checked index on the same array.
        (
            &Op::IndexCheck { arr, idx, dst: chk },
            &Op::GetElt {
                arr: a2,
                idx: i2,
                dst,
            },
        ) if a2 == arr && i2 == chk => Some(Op::IdxGetElt { arr, idx, chk, dst }),
        // indexcheck → setelt.
        (
            &Op::IndexCheck { arr, idx, dst: chk },
            &Op::SetElt {
                arr: a2,
                idx: i2,
                val,
                kind,
            },
        ) if a2 == arr && i2 == chk && val != chk => Some(Op::IdxSetElt {
            arr,
            idx,
            val,
            kind,
            chk,
        }),
        // primitive → primitive chains (sequential evaluation keeps
        // dataflow and trap order identical to the unfused pair).
        (
            &Op::Prim2 {
                f: f1,
                a: a1,
                b: b1,
                dst: d1,
            },
            &Op::Prim2 {
                f: f2,
                a: a2,
                b: b2,
                dst: d2,
            },
        ) => Some(Op::Prim2Pair {
            f1,
            a1,
            b1,
            d1,
            f2,
            a2,
            b2,
            d2,
        }),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------

impl<'m> Vm<'m> {
    /// Runs one call from tagged arguments: the [`Vm::call`] boundary
    /// (the caller does the depth bookkeeping). The arguments are
    /// stripped into a pooled frame, and the result is re-tagged with
    /// the function's result plane.
    pub(crate) fn call_threaded(
        &mut self,
        fid: FuncId,
        args: Vec<Value>,
    ) -> Result<Option<Value>, Trap> {
        let tf = self.tfunc(fid);
        let mut frame = self.new_frame(&tf)?;
        for (slot, a) in frame.iter_mut().zip(args) {
            *slot = to_bits(a);
        }
        let r = self.run_frame(&tf, &mut frame);
        self.frame_pool.push(frame);
        let bits = r?;
        Ok(tf.ret.map(|k| from_bits(k, bits)))
    }

    /// A frame for `tf`: a pooled buffer filled from the template. The
    /// first call interns the string constants into the template (the
    /// same allocations, in the same order, as materializing them per
    /// call); a failed allocation leaves them unresolved for a retry.
    fn new_frame(&mut self, tf: &TFunc) -> Result<Vec<u64>, Trap> {
        if !tf.strings_ready.get() {
            for (slot, lit) in tf.strings.iter() {
                let bits = to_bits(self.literal(lit)?);
                if let Some(s) = tf.template.borrow_mut().get_mut(*slot as usize) {
                    *s = bits;
                }
            }
            tf.strings_ready.set(true);
        }
        let mut frame = self.frame_pool.pop().unwrap_or_default();
        frame.clear();
        frame.extend_from_slice(&tf.template.borrow());
        Ok(frame)
    }

    /// A guest-to-guest call: depth bookkeeping, then a pooled frame
    /// whose parameter slots are copied straight from the caller's
    /// slots (receiver first). Returns the result slot (0 for void).
    fn call_guest(
        &mut self,
        fid: FuncId,
        caller: &[u64],
        recv: Slot,
        args: &[(Slot, Kind)],
    ) -> Result<u64, Trap> {
        self.enter_call()?;
        let tf = self.tfunc(fid);
        let r = match self.new_frame(&tf) {
            Ok(mut frame) => {
                let srcs = (recv != NO_SLOT)
                    .then_some(recv)
                    .into_iter()
                    .chain(args.iter().map(|&(s, _)| s));
                for (p, s) in frame.iter_mut().zip(srcs) {
                    *p = caller[s as usize];
                }
                let r = self.run_frame(&tf, &mut frame);
                self.frame_pool.push(frame);
                r
            }
            Err(t) => Err(t),
        };
        self.depth -= 1;
        r
    }

    /// Invokes a host intrinsic: the arguments are re-tagged from the
    /// caller's slots into a fixed staging array. Returns the result
    /// slot for `dst` (0 for void).
    fn call_intrinsic(
        &mut self,
        id: intrinsics::Intrinsic,
        recv: Option<Value>,
        caller: &[u64],
        args: &[(Slot, Kind)],
        dst: Slot,
    ) -> Result<u64, Trap> {
        let mut staged = [Value::NULL; MAX_INTRINSIC_ARGS];
        let Some(staged) = staged.get_mut(..args.len()) else {
            return Err(Trap::Internal("too many intrinsic arguments".into()));
        };
        for (v, &(s, k)) in staged.iter_mut().zip(args) {
            *v = from_bits(k, caller[s as usize]);
        }
        match intrinsics::invoke(id, &mut self.heap, &mut self.output, recv, staged)? {
            Some(_) if dst == NO_SLOT => Err(Trap::Internal("result for result-less instr".into())),
            v => Ok(v.map_or(0, to_bits)),
        }
    }

    /// The dispatch loop over one frame, with traps unwinding to the
    /// innermost active handler. Returns the result slot (0 for void).
    fn run_frame(&mut self, tf: &TFunc, vals: &mut [u64]) -> Result<u64, Trap> {
        let mut pc: usize = 0;
        let mut handlers: Vec<u32> = Vec::new();
        let mut pending: Option<HeapRef> = None;
        'l: loop {
            let trap: Trap = 'op: {
                match &tf.code[pc] {
                    Op::Block { cost, bi } => {
                        if let Err(t) = self.charge_block(tf, *cost, *bi) {
                            break 'op t;
                        }
                        pc += 1;
                        continue 'l;
                    }
                    Op::Jump { t } => {
                        pc = *t as usize;
                        match self.land(tf, pc) {
                            Ok(next) => pc = next,
                            Err(t) => break 'op t,
                        }
                        continue 'l;
                    }
                    Op::BranchFalse { cond, t } => {
                        pc = if as_z(vals[*cond as usize]) {
                            pc + 1
                        } else {
                            *t as usize
                        };
                        match self.land(tf, pc) {
                            Ok(next) => pc = next,
                            Err(t) => break 'op t,
                        }
                        continue 'l;
                    }
                    Op::CmpBranchFalse { pred, a, b, dst, t } => {
                        let r = cmp_eval(*pred, as_i(vals[*a as usize]), as_i(vals[*b as usize]));
                        vals[*dst as usize] = of_z(r);
                        if self.collect_stats {
                            *self.stats.fused.entry("primitive>branch").or_insert(0) += 1;
                        }
                        pc = if r { pc + 1 } else { *t as usize };
                        match self.land(tf, pc) {
                            Ok(next) => pc = next,
                            Err(t) => break 'op t,
                        }
                        continue 'l;
                    }
                    Op::Moves { pairs, staged } => {
                        if *staged {
                            self.parallel_copy(pairs, vals);
                        } else {
                            for &(dst, src) in pairs.iter() {
                                vals[dst as usize] = vals[src as usize];
                            }
                        }
                        pc += 1;
                        continue 'l;
                    }
                    Op::Ret { src } => {
                        return Ok(if *src == NO_SLOT {
                            0
                        } else {
                            vals[*src as usize]
                        });
                    }
                    Op::Throw { src } => match as_ref(vals[*src as usize]) {
                        None => break 'op Trap::NullPointer,
                        Some(r) => break 'op Trap::User(r),
                    },
                    Op::PushHandler { h } => {
                        handlers.push(*h);
                        pc += 1;
                        continue 'l;
                    }
                    Op::PopHandler => {
                        handlers.pop();
                        pc += 1;
                        continue 'l;
                    }
                    Op::Copy { src, dst } => {
                        vals[*dst as usize] = vals[*src as usize];
                        pc += 1;
                        continue 'l;
                    }
                    Op::Prim1 { f, a, dst } => {
                        vals[*dst as usize] = f(vals[*a as usize]);
                        pc += 1;
                        continue 'l;
                    }
                    Op::Prim2 { f, a, b, dst } => match f(vals[*a as usize], vals[*b as usize]) {
                        Some(v) => {
                            vals[*dst as usize] = v;
                            pc += 1;
                            continue 'l;
                        }
                        None => break 'op Trap::DivByZero,
                    },
                    Op::Prim2Pair {
                        f1,
                        a1,
                        b1,
                        d1,
                        f2,
                        a2,
                        b2,
                        d2,
                    } => {
                        match f1(vals[*a1 as usize], vals[*b1 as usize]) {
                            Some(v) => vals[*d1 as usize] = v,
                            None => break 'op Trap::DivByZero,
                        }
                        match f2(vals[*a2 as usize], vals[*b2 as usize]) {
                            Some(v) => vals[*d2 as usize] = v,
                            None => break 'op Trap::DivByZero,
                        }
                        if self.collect_stats {
                            *self.stats.fused.entry("primitive>primitive").or_insert(0) += 1;
                        }
                        pc += 1;
                        continue 'l;
                    }
                    Op::IntCmp { pred, a, b, dst } => {
                        vals[*dst as usize] = of_z(cmp_eval(
                            *pred,
                            as_i(vals[*a as usize]),
                            as_i(vals[*b as usize]),
                        ));
                        pc += 1;
                        continue 'l;
                    }
                    Op::NullCheck { v, dst } => {
                        if self.collect_stats {
                            self.stats.null_checks += 1;
                        }
                        let val = vals[*v as usize];
                        if val == 0 {
                            break 'op Trap::NullPointer;
                        }
                        vals[*dst as usize] = val;
                        pc += 1;
                        continue 'l;
                    }
                    Op::GetField { obj, slot, dst } => {
                        let Some(r) = as_ref(vals[*obj as usize]) else {
                            break 'op Trap::NullPointer;
                        };
                        match self.heap.get(r) {
                            Obj::Instance { fields, .. } => {
                                vals[*dst as usize] = to_bits(fields[*slot as usize]);
                                pc += 1;
                                continue 'l;
                            }
                            _ => break 'op Trap::Internal("getfield on non-instance".into()),
                        }
                    }
                    Op::NullGetField {
                        obj,
                        slot,
                        chk,
                        dst,
                    } => {
                        if self.collect_stats {
                            self.stats.null_checks += 1;
                            *self.stats.fused.entry("nullcheck>getfield").or_insert(0) += 1;
                        }
                        let val = vals[*obj as usize];
                        let Some(r) = as_ref(val) else {
                            break 'op Trap::NullPointer;
                        };
                        vals[*chk as usize] = val;
                        match self.heap.get(r) {
                            Obj::Instance { fields, .. } => {
                                vals[*dst as usize] = to_bits(fields[*slot as usize]);
                                pc += 1;
                                continue 'l;
                            }
                            _ => break 'op Trap::Internal("getfield on non-instance".into()),
                        }
                    }
                    Op::SetField {
                        obj,
                        slot,
                        val,
                        kind,
                    } => {
                        let Some(r) = as_ref(vals[*obj as usize]) else {
                            break 'op Trap::NullPointer;
                        };
                        let v = from_bits(*kind, vals[*val as usize]);
                        match self.heap.get_mut(r) {
                            Obj::Instance { fields, .. } => {
                                fields[*slot as usize] = v;
                                pc += 1;
                                continue 'l;
                            }
                            _ => break 'op Trap::Internal("setfield on non-instance".into()),
                        }
                    }
                    Op::NullSetField {
                        obj,
                        slot,
                        val,
                        kind,
                        chk,
                    } => {
                        if self.collect_stats {
                            self.stats.null_checks += 1;
                            *self.stats.fused.entry("nullcheck>setfield").or_insert(0) += 1;
                        }
                        let ov = vals[*obj as usize];
                        let Some(r) = as_ref(ov) else {
                            break 'op Trap::NullPointer;
                        };
                        vals[*chk as usize] = ov;
                        let v = from_bits(*kind, vals[*val as usize]);
                        match self.heap.get_mut(r) {
                            Obj::Instance { fields, .. } => {
                                fields[*slot as usize] = v;
                                pc += 1;
                                continue 'l;
                            }
                            _ => break 'op Trap::Internal("setfield on non-instance".into()),
                        }
                    }
                    Op::GetStatic { class, idx, dst } => {
                        vals[*dst as usize] =
                            to_bits(self.statics.get(*class as usize, *idx as usize));
                        pc += 1;
                        continue 'l;
                    }
                    Op::SetStatic {
                        class,
                        idx,
                        val,
                        kind,
                    } => {
                        self.statics.set(
                            *class as usize,
                            *idx as usize,
                            from_bits(*kind, vals[*val as usize]),
                        );
                        pc += 1;
                        continue 'l;
                    }
                    Op::IndexCheck { arr, idx, dst } => {
                        if self.collect_stats {
                            self.stats.index_checks += 1;
                        }
                        let Some(r) = as_ref(vals[*arr as usize]) else {
                            break 'op Trap::NullPointer;
                        };
                        let i = as_i(vals[*idx as usize]);
                        let len = match self.heap.get(r) {
                            Obj::Array { data, .. } => data.len(),
                            _ => {
                                break 'op Trap::Internal("indexcheck on non-array".into());
                            }
                        };
                        if i < 0 || i as usize >= len {
                            break 'op Trap::IndexOutOfBounds;
                        }
                        vals[*dst as usize] = of_i(i);
                        pc += 1;
                        continue 'l;
                    }
                    Op::GetElt { arr, idx, dst } => {
                        let Some(r) = as_ref(vals[*arr as usize]) else {
                            break 'op Trap::NullPointer;
                        };
                        let i = as_i(vals[*idx as usize]) as usize;
                        match self.heap.get(r) {
                            Obj::Array { data, .. } => match elt_get(data, i) {
                                Ok(v) => {
                                    vals[*dst as usize] = v;
                                    pc += 1;
                                    continue 'l;
                                }
                                Err(t) => break 'op t,
                            },
                            _ => break 'op Trap::Internal("getelt on non-array".into()),
                        }
                    }
                    Op::IdxGetElt { arr, idx, chk, dst } => {
                        if self.collect_stats {
                            self.stats.index_checks += 1;
                            *self.stats.fused.entry("indexcheck>getelt").or_insert(0) += 1;
                        }
                        let Some(r) = as_ref(vals[*arr as usize]) else {
                            break 'op Trap::NullPointer;
                        };
                        let i = as_i(vals[*idx as usize]);
                        match self.heap.get(r) {
                            Obj::Array { data, .. } => {
                                if i < 0 {
                                    break 'op Trap::IndexOutOfBounds;
                                }
                                match elt_get(data, i as usize) {
                                    Ok(v) => {
                                        vals[*chk as usize] = of_i(i);
                                        vals[*dst as usize] = v;
                                        pc += 1;
                                        continue 'l;
                                    }
                                    Err(t) => break 'op t,
                                }
                            }
                            _ => {
                                break 'op Trap::Internal("indexcheck on non-array".into());
                            }
                        }
                    }
                    Op::SetElt {
                        arr,
                        idx,
                        val,
                        kind,
                    } => {
                        let Some(r) = as_ref(vals[*arr as usize]) else {
                            break 'op Trap::NullPointer;
                        };
                        let i = as_i(vals[*idx as usize]) as usize;
                        let v = vals[*val as usize];
                        match self.heap.get_mut(r) {
                            Obj::Array { data, .. } => match elt_set(data, i, *kind, v) {
                                Ok(()) => {
                                    pc += 1;
                                    continue 'l;
                                }
                                Err(t) => break 'op t,
                            },
                            _ => break 'op Trap::Internal("setelt on non-array".into()),
                        }
                    }
                    Op::IdxSetElt {
                        arr,
                        idx,
                        val,
                        kind,
                        chk,
                    } => {
                        if self.collect_stats {
                            self.stats.index_checks += 1;
                            *self.stats.fused.entry("indexcheck>setelt").or_insert(0) += 1;
                        }
                        let Some(r) = as_ref(vals[*arr as usize]) else {
                            break 'op Trap::NullPointer;
                        };
                        let i = as_i(vals[*idx as usize]);
                        let v = vals[*val as usize];
                        match self.heap.get_mut(r) {
                            Obj::Array { data, .. } => {
                                if i < 0 {
                                    break 'op Trap::IndexOutOfBounds;
                                }
                                match elt_set(data, i as usize, *kind, v) {
                                    Ok(()) => {
                                        vals[*chk as usize] = of_i(i);
                                        pc += 1;
                                        continue 'l;
                                    }
                                    Err(t) => break 'op t,
                                }
                            }
                            _ => {
                                break 'op Trap::Internal("indexcheck on non-array".into());
                            }
                        }
                    }
                    Op::ArrayLength { arr, dst } => {
                        let Some(r) = as_ref(vals[*arr as usize]) else {
                            break 'op Trap::NullPointer;
                        };
                        match self.heap.get(r) {
                            Obj::Array { data, .. } => {
                                vals[*dst as usize] = of_i(data.len() as i32);
                                pc += 1;
                                continue 'l;
                            }
                            _ => break 'op Trap::Internal("arraylength on non-array".into()),
                        }
                    }
                    Op::New { class, dst } => match self.alloc_instance(*class) {
                        Ok(r) => {
                            vals[*dst as usize] = of_ref(Some(r));
                            pc += 1;
                            continue 'l;
                        }
                        Err(t) => break 'op t,
                    },
                    Op::NewArray {
                        elem,
                        width,
                        type_tag,
                        len,
                        dst,
                    } => {
                        let n = as_i(vals[*len as usize]);
                        if n < 0 {
                            break 'op Trap::NegativeArraySize;
                        }
                        // Reserve the projected size before building
                        // the elements, so a hostile `new int[1 << 30]`
                        // is rejected without the host committing it.
                        if let Err(t) = self
                            .heap
                            .try_reserve(safetsa_rt::heap::array_size_bytes(*width, n as u64))
                        {
                            break 'op t;
                        }
                        if self.collect_stats {
                            self.stats.arrays_allocated += 1;
                        }
                        let n = n as usize;
                        let data = match elem {
                            Kind::Z => ArrData::Z(vec![false; n]),
                            Kind::C => ArrData::C(vec![0; n]),
                            Kind::I => ArrData::I(vec![0; n]),
                            Kind::J => ArrData::J(vec![0; n]),
                            Kind::F => ArrData::F(vec![0.0; n]),
                            Kind::D => ArrData::D(vec![0.0; n]),
                            Kind::R => ArrData::R(vec![None; n]),
                        };
                        let r = self.heap.alloc(Obj::Array {
                            type_tag: *type_tag,
                            data,
                        });
                        vals[*dst as usize] = of_ref(Some(r));
                        pc += 1;
                        continue 'l;
                    }
                    Op::Upcast { to, v, dst } => {
                        let val = vals[*v as usize];
                        if let Some(r) = as_ref(val) {
                            if !self.ref_is_instance_of(r, *to) {
                                break 'op Trap::ClassCast;
                            }
                        }
                        vals[*dst as usize] = val;
                        pc += 1;
                        continue 'l;
                    }
                    Op::InstanceOf { target, v, dst } => {
                        let res = match as_ref(vals[*v as usize]) {
                            None => false,
                            Some(r) => self.ref_is_instance_of(r, *target),
                        };
                        vals[*dst as usize] = of_z(res);
                        pc += 1;
                        continue 'l;
                    }
                    Op::RefEq { a, b, dst } => {
                        vals[*dst as usize] = of_z(vals[*a as usize] == vals[*b as usize]);
                        pc += 1;
                        continue 'l;
                    }
                    Op::Catch { dst } => match pending.take() {
                        Some(exc) => {
                            vals[*dst as usize] = of_ref(Some(exc));
                            pc += 1;
                            continue 'l;
                        }
                        None => {
                            break 'op Trap::Internal("catch without pending exception".into());
                        }
                    },
                    Op::Call {
                        target,
                        recv,
                        args,
                        dst,
                    } => {
                        let res = match *target {
                            CallTarget::Func(f2) => self.call_guest(f2, vals, *recv, args),
                            CallTarget::Intrinsic { id, is_static } => {
                                let rv = if is_static || *recv == NO_SLOT {
                                    None
                                } else {
                                    Some(from_bits(Kind::R, vals[*recv as usize]))
                                };
                                self.call_intrinsic(id, rv, vals, args, *dst)
                            }
                        };
                        match res {
                            Ok(v) => {
                                if *dst != NO_SLOT {
                                    vals[*dst as usize] = v;
                                }
                                pc += 1;
                                continue 'l;
                            }
                            Err(t) => break 'op t,
                        }
                    }
                    Op::Dispatch {
                        method,
                        ic,
                        recv,
                        args,
                        dst,
                    } => {
                        let Some(r) = as_ref(vals[*recv as usize]) else {
                            break 'op Trap::NullPointer;
                        };
                        let rc = match self.heap.get(r) {
                            Obj::Instance { class, .. } => *class as u32,
                            Obj::Str(_) => self.string_class.0,
                            Obj::Array { .. } => self.module.well_known.object.0,
                        };
                        let target = match ic.get() {
                            Some((c, t)) if c == rc => {
                                self.icache_hits += 1;
                                t
                            }
                            _ => {
                                self.icache_misses += 1;
                                match self.resolve_virtual(rc, *method) {
                                    Ok(t) => {
                                        ic.set(Some((rc, t)));
                                        t
                                    }
                                    Err(t) => break 'op t,
                                }
                            }
                        };
                        let res = match target {
                            CallTarget::Func(f2) => self.call_guest(f2, vals, *recv, args),
                            CallTarget::Intrinsic { id, is_static } => {
                                let rv = (!is_static).then_some(Value::Ref(Some(r)));
                                self.call_intrinsic(id, rv, vals, args, *dst)
                            }
                        };
                        match res {
                            Ok(v) => {
                                if *dst != NO_SLOT {
                                    vals[*dst as usize] = v;
                                }
                                pc += 1;
                                continue 'l;
                            }
                            Err(t) => break 'op t,
                        }
                    }
                    Op::Fail { msg } => break 'op Trap::Internal(msg.to_string()),
                }
            };
            pc = self.unwind_threaded(tf, &mut handlers, trap, pc, vals, &mut pending)?;
        }
    }

    /// Applies one edge's phi copies in parallel: every source is read
    /// before any destination is written.
    fn parallel_copy(&mut self, pairs: &[(Slot, Slot)], vals: &mut [u64]) {
        let mut scratch = std::mem::take(&mut self.moves_scratch);
        scratch.clear();
        scratch.extend(pairs.iter().map(|&(_, src)| vals[src as usize]));
        for (&(dst, _), v) in pairs.iter().zip(&scratch) {
            vals[dst as usize] = *v;
        }
        self.moves_scratch = scratch;
    }

    /// Control arriving at `pc` from a jump or branch: when
    /// `pc` is a block prologue, runs it here and returns the op after
    /// it, saving the `Block` op's own dispatch.
    #[inline(always)]
    fn land(&mut self, tf: &TFunc, pc: usize) -> Result<usize, Trap> {
        match tf.code[pc] {
            Op::Block { cost, bi } => {
                self.charge_block(tf, cost, bi)?;
                Ok(pc + 1)
            }
            _ => Ok(pc),
        }
    }

    /// Block entry: charges the block's fuel cost, runs the slice
    /// countdown and applies stats.
    #[inline(always)]
    fn charge_block(&mut self, tf: &TFunc, cost: u32, bi: u32) -> Result<(), Trap> {
        if self.fuel < u64::from(cost) {
            return Err(Trap::OutOfFuel);
        }
        self.fuel -= u64::from(cost);
        self.steps += u64::from(cost);
        if self.slice_active {
            self.slice_tick(tf, bi, cost)?;
        }
        if self.collect_stats {
            for &(m, n) in tf.blocks[bi as usize].counts.iter() {
                *self.stats.opcodes.entry(m).or_insert(0) += u64::from(n);
            }
        }
        Ok(())
    }

    /// Slice countdown for one block. While profiling, the countdown
    /// runs per original instruction (feeding the opcode ring with the
    /// unfused mnemonics); otherwise the whole block cost is
    /// debited at once, with one boundary action per slice crossed.
    fn slice_tick(&mut self, tf: &TFunc, bi: u32, cost: u32) -> Result<(), Trap> {
        if self.profile_every != 0 {
            let meta = &tf.blocks[bi as usize];
            for &m in meta.mnems.iter() {
                self.profile_ring[self.profile_ring_idx as usize] = m;
                self.profile_ring_idx = (self.profile_ring_idx + 1) % PROFILE_WINDOW as u8;
                if (self.profile_ring_len as usize) < PROFILE_WINDOW {
                    self.profile_ring_len += 1;
                }
                self.slice_left -= 1;
                if self.slice_left == 0 {
                    self.slice_left = DEADLINE_SLICE;
                    self.slice_boundary(&tf.name)?;
                }
            }
        } else {
            let mut c = cost;
            while c >= self.slice_left {
                c -= self.slice_left;
                self.slice_left = DEADLINE_SLICE;
                self.slice_boundary(&tf.name)?;
            }
            self.slice_left -= c;
        }
        Ok(())
    }

    /// One slice boundary: profiler sample first (so a deadline kill at
    /// this boundary still carries its at-kill-time sample), then the
    /// deadline clock read.
    fn slice_boundary(&mut self, name: &str) -> Result<(), Trap> {
        if self.profile_every != 0 {
            self.profile_countdown -= 1;
            if self.profile_countdown == 0 {
                self.profile_countdown = self.profile_every;
                let mut window = [""; PROFILE_WINDOW];
                let n = self.profile_ring_len as usize;
                for (i, slot) in window[..n].iter_mut().enumerate() {
                    let src =
                        (self.profile_ring_idx as usize + PROFILE_WINDOW - n + i) % PROFILE_WINDOW;
                    *slot = self.profile_ring[src];
                }
                self.profile.sample(name, &window[..n]);
            }
        }
        if let Some(deadline) = self.deadline {
            self.deadline_checks += 1;
            if Instant::now() >= deadline {
                return Err(Trap::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Unwinds a trap to the innermost active handler: materializes the
    /// exception object, applies the handler-entry phi moves for the
    /// faulting block, and returns the handler-entry pc. Uncatchable
    /// traps (fuel, deadline, internal) propagate out.
    fn unwind_threaded(
        &mut self,
        tf: &TFunc,
        handlers: &mut Vec<u32>,
        trap: Trap,
        pc: usize,
        vals: &mut [u64],
        pending: &mut Option<HeapRef>,
    ) -> Result<usize, Trap> {
        let Some(h) = handlers.pop() else {
            return Err(trap);
        };
        let exc = self.trap_to_object(trap)?;
        let hi = &tf.handlers[h as usize];
        if hi.has_phis {
            // The dynamic predecessor is the block containing the
            // faulting op: the greatest block start at or before pc.
            let bid = match tf
                .block_starts
                .binary_search_by(|&(p, _)| p.cmp(&(pc as u32)))
            {
                Ok(i) => tf.block_starts[i].1,
                Err(0) => {
                    return Err(Trap::Internal("trap outside any block".into()));
                }
                Err(i) => tf.block_starts[i - 1].1,
            };
            match hi.moves.iter().find(|(p, _)| *p == bid) {
                Some((_, pairs)) => self.parallel_copy(pairs, vals),
                None => {
                    return Err(Trap::Internal(format!(
                        "phi in handler has no arg from b{bid}"
                    )));
                }
            }
        }
        *pending = Some(exc);
        Ok(hi.entry_pc as usize)
    }

    /// The vtable walk behind an inline-cache miss: resolves
    /// `(runtime class, dispatched method)` to a call target.
    /// Deterministic over the immutable vtables, so caching the result
    /// is sound. The call site was kind-checked against the dispatched
    /// method's signature, so an override on other planes (possible
    /// only in unverified code) traps instead of receiving its slots.
    fn resolve_virtual(&self, rc: u32, method: MethodRef) -> Result<CallTarget, Trap> {
        let types = &self.module.types;
        let bad = |what: &str| Trap::Internal(what.into());
        let decl = types.method(method).ok_or_else(|| bad("bad method ref"))?;
        let vslot = decl
            .vtable_slot
            .ok_or_else(|| bad("xdispatch without slot"))?;
        let &(impl_class, impl_idx) = self
            .vtables
            .get(rc as usize)
            .and_then(|vt| vt.get(vslot as usize))
            .ok_or_else(|| bad("receiver class lacks the vtable slot"))?;
        let target = MethodRef {
            class: impl_class,
            index: impl_idx,
        };
        let info = types
            .method(target)
            .ok_or_else(|| bad("bad vtable entry"))?;
        let kinds = |tys: &[TypeId]| tys.iter().map(|t| Kind::of(types, *t)).collect::<Vec<_>>();
        let ret = |t: Option<TypeId>| t.map(|t| Kind::of(types, t));
        let same_sig = |params: &[TypeId], r: Option<TypeId>| {
            kinds(params) == kinds(&decl.params) && ret(r) == ret(decl.ret)
        };
        let mismatch = || bad("override signature differs from the dispatched method");
        if !same_sig(&info.params, info.ret) {
            return Err(mismatch());
        }
        if let Some(body) = info.body {
            let f = self
                .module
                .functions
                .get(body as usize)
                .ok_or_else(|| bad("bad method body"))?;
            match f.params.split_first() {
                Some((recv, params))
                    if Kind::of(types, *recv) == Kind::R && same_sig(params, f.ret) => {}
                _ => return Err(mismatch()),
            }
            return Ok(CallTarget::Func(FuncId(body)));
        }
        let cinfo = types.class(impl_class);
        let sig: String = info
            .params
            .iter()
            .map(|p| crate::interp::sig_letter(types, *p))
            .collect();
        let id = intrinsics::resolve(&cinfo.name, &info.name, &sig).ok_or_else(|| {
            Trap::Internal(format!(
                "no intrinsic for {}.{}({sig})",
                cinfo.name, info.name
            ))
        })?;
        Ok(CallTarget::Intrinsic {
            id,
            is_static: info.kind == MethodKind::Static,
        })
    }

    /// Decoded-code statistics for `safetsa stats`: per function, the
    /// fused-op count and total charged ops (static, not dynamic).
    pub fn fused_static_counts(&mut self) -> (u64, u64) {
        let mut fused = 0u64;
        let mut total = 0u64;
        for i in 0..self.module.functions.len() {
            let tf = self.tfunc(FuncId(i as u32));
            for op in &tf.code {
                match op {
                    Op::Block { cost, .. } => total += u64::from(*cost),
                    Op::NullGetField { .. }
                    | Op::NullSetField { .. }
                    | Op::IdxGetElt { .. }
                    | Op::IdxSetElt { .. }
                    | Op::Prim2Pair { .. }
                    | Op::CmpBranchFalse { .. } => fused += 1,
                    _ => {}
                }
            }
        }
        (fused, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind_of(v: Value) -> Kind {
        match v {
            Value::Z(_) => Kind::Z,
            Value::C(_) => Kind::C,
            Value::I(_) => Kind::I,
            Value::J(_) => Kind::J,
            Value::F(_) => Kind::F,
            Value::D(_) => Kind::D,
            Value::Ref(_) => Kind::R,
        }
    }

    /// One value of every plane, with the edge cases of each encoding.
    fn edge_values() -> Vec<Value> {
        vec![
            Value::Z(false),
            Value::Z(true),
            Value::C(0),
            Value::C(0xFFFF),
            Value::I(0),
            Value::I(-1),
            Value::I(i32::MIN),
            Value::I(i32::MAX),
            Value::J(-1),
            Value::J(i64::MIN),
            Value::J(i64::MAX),
            Value::F(-0.0),
            Value::F(f32::INFINITY),
            Value::F(f32::from_bits(0x7FA0_0001)), // signalling NaN payload
            Value::F(f32::from_bits(0xFFC0_1234)), // negative quiet NaN payload
            Value::D(-0.0),
            Value::D(f64::MIN_POSITIVE),
            Value::D(f64::from_bits(0x7FF0_0000_0000_0001)),
            Value::D(f64::from_bits(0xFFF8_DEAD_BEEF_0001)),
            Value::NULL,
            Value::Ref(Some(HeapRef(0))),
            Value::Ref(Some(HeapRef(u32::MAX))),
        ]
    }

    #[test]
    fn slot_encoding_round_trips_bit_identically() {
        for v in edge_values() {
            let back = from_bits(kind_of(v), to_bits(v));
            assert!(v.bits_eq(back), "{v:?} came back as {back:?}");
        }
    }

    #[test]
    fn narrow_planes_are_zero_extended() {
        assert_eq!(to_bits(Value::C(0xFFFF)), 0xFFFF);
        assert_eq!(to_bits(Value::I(-1)), 0xFFFF_FFFF);
        assert_eq!(to_bits(Value::I(i32::MIN)), 0x8000_0000);
        assert_eq!(to_bits(Value::Z(true)), 1);
        assert_eq!(to_bits(Value::F(-0.0)), 0x8000_0000);
    }

    #[test]
    fn null_and_first_handle_encode_differently() {
        assert_eq!(to_bits(Value::NULL), 0);
        assert_eq!(to_bits(Value::Ref(Some(HeapRef(0)))), 1);
        assert_eq!(from_bits(Kind::R, 0), Value::NULL);
        assert_eq!(from_bits(Kind::R, 1), Value::Ref(Some(HeapRef(0))));
    }

    #[test]
    fn element_access_round_trips_every_array_kind() {
        let arrays = [
            (ArrData::Z(vec![false; 3]), Value::Z(true)),
            (ArrData::C(vec![0; 3]), Value::C(0xFFFF)),
            (ArrData::I(vec![0; 3]), Value::I(i32::MIN)),
            (ArrData::J(vec![0; 3]), Value::J(i64::MIN)),
            (
                ArrData::F(vec![0.0; 3]),
                Value::F(f32::from_bits(0x7FA0_0001)),
            ),
            (ArrData::D(vec![0.0; 3]), Value::D(-0.0)),
            (ArrData::R(vec![None; 3]), Value::Ref(Some(HeapRef(0)))),
        ];
        for (mut data, v) in arrays {
            let k = kind_of(v);
            let last = data.len() - 1;
            elt_set(&mut data, last, k, to_bits(v)).expect("in bounds");
            let read = from_bits(k, elt_get(&data, last).expect("in bounds"));
            assert!(read.bits_eq(v), "{v:?} read back as {read:?}");
            let tagged = data.get(last).expect("in bounds");
            assert!(
                tagged.bits_eq(v),
                "typed storage holds {tagged:?}, not {v:?}"
            );
            let past = data.len();
            assert!(matches!(elt_get(&data, past), Err(Trap::IndexOutOfBounds)));
            assert!(matches!(
                elt_set(&mut data, past, k, to_bits(v)),
                Err(Trap::IndexOutOfBounds)
            ));
        }
    }

    #[test]
    fn element_write_on_another_plane_traps_internal() {
        let mut data = ArrData::I(vec![0; 2]);
        assert!(matches!(
            elt_set(&mut data, 0, Kind::J, 5),
            Err(Trap::Internal(_))
        ));
        assert_eq!(data, ArrData::I(vec![0; 2]));
    }
}
