//! Shared reference-coding machinery: the `(l, r)` dominator-relative
//! register naming of §2, and structural type references.
//!
//! `l` is coded against the dominator depth of the referencing block
//! (cardinality `depth + 1`), `r` against the number of values visible
//! on the operand's plane in the target block — the bound whose trivial
//! check is the *entire* reference verification SafeTSA needs, and
//! which the prefix coder exploits for compactness (§2: "the latter
//! fact can actually be exploited when encoding the (l-r) pair
//! space-efficiently").

use crate::bits::{BitReader, BitWriter, DecodeError};
use crate::enc::EncodeError;
use safetsa_core::dom::DomTree;
use safetsa_core::function::{Function, ENTRY};
use safetsa_core::types::{PrimKind, TypeId, TypeKind, TypeTable};
use safetsa_core::value::{BlockId, ValueId};

/// The paper's per-block register counters (§9), made concrete: for
/// every block, the values on each plane in register order — entry
/// pre-loads first (entry block only), then phis, then instruction
/// results — each instruction result tagged with its position. A
/// reference is then a dominator walk, one lookup of the
/// `(block, plane)` run and, for same-block uses, a binary search for
/// the instruction `limit`.
#[derive(Debug, Default)]
pub struct RegTable {
    /// Every value of the function, grouped by block, then by plane.
    regs: Vec<Reg>,
    /// The `(plane, regs range)` runs of all blocks, block by block.
    runs: Vec<Run>,
    /// `runs[run_start[b]..run_start[b + 1]]` are block `b`'s runs.
    run_start: Vec<u32>,
    /// Each value's register number within its `(block, plane)` run.
    reg_of: Vec<u32>,
}

/// Block `bi`'s registers in register order — entry pre-loads, phis,
/// instruction results — each with its `after` tag (see [`Reg`]).
fn block_regs(f: &Function, bi: usize) -> impl Iterator<Item = (ValueId, u32)> + '_ {
    let entry = bi == ENTRY.index();
    let params = if entry { f.params.len() as u32 } else { 0 };
    let consts: &[ValueId] = if entry { &f.const_values } else { &[] };
    let res = &f.results[bi];
    (0..params)
        .map(|i| (ValueId(i), 0))
        .chain(consts.iter().map(|&v| (v, 0)))
        .chain(res.phi_results.iter().map(|&v| (v, 0)))
        .chain(
            res.instr_results
                .iter()
                .enumerate()
                .filter_map(|(k, v)| Some(((*v)?, k as u32 + 1))),
        )
}

/// One register: a value and the instructions that must precede a use.
#[derive(Debug, Clone, Copy)]
struct Reg {
    value: ValueId,
    /// 0 for pre-loads and phis, `k + 1` for the result of instruction
    /// `k`: the value is visible under `limit` iff `after <= limit`.
    after: u32,
}

#[derive(Debug, Clone, Copy)]
struct Run {
    plane: TypeId,
    start: u32,
    end: u32,
}

#[cfg(test)]
thread_local! {
    /// `(references resolved, table entries read)` on this thread:
    /// the work gate's measure of what one reference costs.
    pub(crate) static WORK: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

#[cfg(test)]
fn count_work(refs: u64, entries: u64) {
    WORK.with(|w| {
        let (r, e) = w.get();
        w.set((r + refs, e + entries));
    });
}

impl RegTable {
    /// Builds the table of `f`, reusing this table's buffers.
    pub fn rebuild(&mut self, f: &Function) {
        self.regs.clear();
        self.runs.clear();
        self.run_start.clear();
        self.reg_of.clear();
        self.reg_of.resize(f.values.len(), 0);
        self.run_start.push(0);
        for bi in 0..f.block_count() {
            // Count each plane's registers (runs in order of first
            // appearance), then place every register in its run.
            let first = self.runs.len();
            for (v, _) in block_regs(f, bi) {
                let plane = f.value_ty(v);
                match self.runs[first..].iter_mut().find(|r| r.plane == plane) {
                    Some(run) => run.end += 1,
                    None => self.runs.push(Run {
                        plane,
                        start: 0,
                        end: 1,
                    }),
                }
            }
            let mut at = self.regs.len() as u32;
            for run in &mut self.runs[first..] {
                let len = run.end;
                (run.start, run.end) = (at, at);
                at += len;
            }
            self.regs.resize(
                at as usize,
                Reg {
                    value: ValueId(0),
                    after: 0,
                },
            );
            for (value, after) in block_regs(f, bi) {
                let plane = f.value_ty(value);
                let run = self.runs[first..]
                    .iter_mut()
                    .find(|r| r.plane == plane)
                    .expect("counted above");
                self.reg_of[value.index()] = run.end - run.start;
                self.regs[run.end as usize] = Reg { value, after };
                run.end += 1;
            }
            self.run_start.push(self.runs.len() as u32);
        }
    }

    /// The table of `f`.
    pub fn build(f: &Function) -> RegTable {
        let mut t = RegTable::default();
        t.rebuild(f);
        t
    }

    /// Values visible on `plane` in block `d`, in register order.
    /// `limit` restricts instruction results to indices `< k`
    /// (same-block uses and exception-edge visibility).
    fn visible(&self, d: BlockId, plane: TypeId, limit: Option<usize>) -> &[Reg] {
        let runs =
            &self.runs[self.run_start[d.index()] as usize..self.run_start[d.index() + 1] as usize];
        let Some(pos) = runs.iter().position(|r| r.plane == plane) else {
            #[cfg(test)]
            count_work(1, runs.len() as u64);
            return &[];
        };
        let run = runs[pos];
        let regs = &self.regs[run.start as usize..run.end as usize];
        #[cfg(test)]
        count_work(1, pos as u64 + 1);
        match limit {
            None => regs,
            Some(k) => {
                let n = regs.partition_point(|r| {
                    #[cfg(test)]
                    count_work(0, 1);
                    r.after as usize <= k
                });
                &regs[..n]
            }
        }
    }
}

/// Encodes a reference to `v` (on `plane`) made from block `b` with the
/// given same-block instruction `limit`.
///
/// # Errors
///
/// Returns [`EncodeError`] if `v` does not dominate the use or is not
/// visible on `plane` — the properties the `(l, r)` coding cannot
/// express, so the encoder refuses rather than emitting garbage.
#[allow(clippy::too_many_arguments)]
pub fn write_ref(
    w: &mut BitWriter,
    f: &Function,
    table: &RegTable,
    dom: &DomTree,
    b: BlockId,
    limit: Option<usize>,
    plane: TypeId,
    v: ValueId,
) -> Result<(), EncodeError> {
    let d = f.value(v).block;
    let l = dom
        .level_distance(d, b)
        .ok_or(EncodeError::OperandNotDominating { value: v, block: b })?;
    let depth = dom.depth[b.index()];
    w.symbol(l, depth + 1);
    let lim = if l == 0 { limit } else { None };
    let vis = table.visible(d, plane, lim);
    let r = table.reg_of[v.index()];
    if vis.get(r as usize).is_none_or(|x| x.value != v) {
        return Err(EncodeError::OperandNotVisible { value: v, block: b });
    }
    w.symbol(r, vis.len() as u32);
    Ok(())
}

/// Decodes a reference made from block `b` on `plane`.
///
/// # Errors
///
/// Propagates range violations — the intrinsic referential-integrity
/// check.
pub fn read_ref(
    r: &mut BitReader<'_>,
    table: &RegTable,
    dom: &DomTree,
    b: BlockId,
    limit: Option<usize>,
    plane: TypeId,
) -> Result<ValueId, DecodeError> {
    let depth = dom.depth[b.index()];
    let l = r.symbol(depth + 1)?;
    let d = dom
        .ancestor(b, l)
        .ok_or_else(|| DecodeError::Malformed("dominator walk fell off the tree".into()))?;
    let lim = if l == 0 { limit } else { None };
    let vis = table.visible(d, plane, lim);
    let idx = r.symbol(vis.len() as u32)?;
    Ok(vis[idx as usize].value)
}

const TYPE_TAGS: u32 = 5;

/// Encodes a structural type reference.
pub fn write_type(w: &mut BitWriter, types: &TypeTable, ty: TypeId) {
    match types.kind(ty) {
        TypeKind::Prim(p) => {
            w.symbol(0, TYPE_TAGS);
            let idx = PrimKind::ALL.iter().position(|&k| k == p).expect("prim");
            w.symbol(idx as u32, PrimKind::ALL.len() as u32);
        }
        TypeKind::Class(c) => {
            w.symbol(1, TYPE_TAGS);
            w.symbol(c.0, types.class_count() as u32);
        }
        TypeKind::Array(e) => {
            w.symbol(2, TYPE_TAGS);
            write_type(w, types, e);
        }
        TypeKind::SafeRef(of) => {
            w.symbol(3, TYPE_TAGS);
            write_type(w, types, of);
        }
        TypeKind::SafeIndex(arr) => {
            w.symbol(4, TYPE_TAGS);
            write_type(w, types, arr);
        }
    }
}

/// Decodes a structural type reference, interning derived planes.
///
/// # Errors
///
/// Rejects ill-kinded compositions (e.g. `safe-ref` of a primitive).
pub fn read_type(
    r: &mut BitReader<'_>,
    types: &mut TypeTable,
    depth: u32,
) -> Result<TypeId, DecodeError> {
    if depth > 32 {
        return Err(DecodeError::Malformed("type nesting too deep".into()));
    }
    match r.symbol(TYPE_TAGS)? {
        0 => {
            let idx = r.symbol(PrimKind::ALL.len() as u32)?;
            Ok(types.prim(PrimKind::ALL[idx as usize]))
        }
        1 => {
            let c = r.symbol(types.class_count() as u32)?;
            Ok(types.class_ty(safetsa_core::types::ClassId(c)))
        }
        2 => {
            let e = read_type(r, types, depth + 1)?;
            Ok(types.array_of(e))
        }
        3 => {
            let of = read_type(r, types, depth + 1)?;
            if !types.is_ref(of) {
                return Err(DecodeError::Malformed("safe-ref of non-reference".into()));
            }
            Ok(types.safe_ref_of(of))
        }
        4 => {
            let arr = read_type(r, types, depth + 1)?;
            if !matches!(types.kind(arr), TypeKind::Array(_)) {
                return Err(DecodeError::Malformed("safe-index of non-array".into()));
            }
            Ok(types.safe_index_of(arr))
        }
        _ => unreachable!("symbol bounded by cardinality"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safetsa_core::types::ClassInfo;

    #[test]
    fn type_refs_round_trip() {
        let mut types = TypeTable::new();
        let (_, obj_ty) = types.declare_class(ClassInfo {
            name: "Object".into(),
            superclass: None,
            fields: vec![],
            methods: vec![],
            imported: true,
        });
        let int = types.prim(PrimKind::Int);
        let arr = types.array_of(int);
        let sr = types.safe_ref_of(arr);
        let si = types.safe_index_of(arr);
        let sobj = types.safe_ref_of(obj_ty);
        let all = [int, obj_ty, arr, sr, si, sobj];
        let mut w = BitWriter::new();
        for &t in &all {
            write_type(&mut w, &types, t);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        // Decode against a table with the same classes but no derived
        // planes — they are interned on demand.
        let mut t2 = TypeTable::new();
        t2.declare_class(ClassInfo {
            name: "Object".into(),
            superclass: None,
            fields: vec![],
            methods: vec![],
            imported: true,
        });
        let decoded: Vec<TypeId> = (0..all.len())
            .map(|_| read_type(&mut r, &mut t2, 0).unwrap())
            .collect();
        for (&orig, &dec) in all.iter().zip(&decoded) {
            assert_eq!(types.type_name(orig), t2.type_name(dec));
        }
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;
    use safetsa_core::function::Function;
    use safetsa_core::instr::Instr;
    use safetsa_core::primops;
    use safetsa_core::value::{Const, Literal};

    #[test]
    fn register_table_order_and_limits() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let dbl = types.prim(PrimKind::Double);
        let mut f = Function::new("t", None, vec![int, dbl], Some(int));
        let c = f.add_const(Const {
            ty: int,
            lit: Literal::Int(9),
        });
        let add = primops::find(PrimKind::Int, "add").unwrap();
        let r0 = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: vec![f.param_value(0), c],
                },
            )
            .unwrap()
            .unwrap();
        let r1 = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: vec![r0, c],
                },
            )
            .unwrap()
            .unwrap();
        let table = RegTable::build(&f);
        let visible = |plane, limit| {
            let regs = table.visible(ENTRY, plane, limit);
            regs.iter().map(|r| r.value).collect::<Vec<_>>()
        };
        // Int plane, whole block: param0, const, r0, r1 (double param
        // is filtered out — type separation).
        assert_eq!(visible(int, None), vec![f.param_value(0), c, r0, r1]);
        // Limited to before instruction 1: r1 is not visible.
        assert_eq!(visible(int, Some(1)), vec![f.param_value(0), c, r0]);
        // Double plane: only the double parameter.
        assert_eq!(visible(dbl, None), vec![f.param_value(1)]);
        // A plane with nothing on it.
        let bool_ty = types.bool_ty();
        assert!(visible(bool_ty, None).is_empty());
    }
}
