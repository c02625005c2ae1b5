//! The SafeTSA decoder: the code consumer's loader.
//!
//! Decoding *is* (most of) verification: every reference symbol is
//! range-checked against the registers actually defined at that point
//! (§2's "trivial" check), every instruction is type-checked by the
//! shared typing rules as it is rebuilt, and structures the encoding
//! cannot even express (cross-branch references, wrong planes) are
//! simply unrepresentable. The caller is expected to run the full
//! [`safetsa_core::verify::verify_module`] afterwards as defense in
//! depth; `decode_and_verify` does both.

use crate::bits::{BitReader, DecodeError};
use crate::layout::{CstTag, Opc, CST_TAGS, MAGIC, OPCODES, VERSION};
use crate::refs::{read_ref, read_type, RegTable};
use safetsa_core::cfg::{Cfg, EdgeKind};
use safetsa_core::cst::Cst;
use safetsa_core::dom::DomTree;
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::module::{Module, WellKnown};
use safetsa_core::primops::{self, PrimOpId};
use safetsa_core::types::{
    ClassId, ClassInfo, FieldInfo, FieldRef, MethodInfo, MethodKind, MethodRef, PrimKind, TypeId,
    TypeKind, TypeTable,
};
use safetsa_core::value::{BlockId, Const, Literal, ValueId};

/// The host environment: the implicitly generated (and therefore
/// tamper-proof) part of the type table — primitives and imported
/// classes — plus the well-known class handles.
#[derive(Debug, Clone)]
pub struct HostEnv {
    /// Type table containing only imported classes.
    pub types: TypeTable,
    /// Well-known classes.
    pub well_known: WellKnown,
}

const MAX_COUNT: u64 = 1 << 22;

fn cap(v: u64, what: &str) -> Result<usize, DecodeError> {
    if v > MAX_COUNT {
        return Err(DecodeError::Malformed(format!("{what} count too large")));
    }
    Ok(v as usize)
}

/// Decodes a module against the host environment.
///
/// # Errors
///
/// Any structural, referential, or type violation aborts decoding.
pub fn decode_module(bytes: &[u8], host: &HostEnv) -> Result<Module, DecodeError> {
    decode_module_graphs(bytes, host).map(|(m, _)| m)
}

/// Decodes a module and returns, with it, the CFG and dominator tree
/// each function was decoded against, in `functions` order.
fn decode_module_graphs(
    bytes: &[u8],
    host: &HostEnv,
) -> Result<(Module, Vec<(Cfg, DomTree)>), DecodeError> {
    let mut r = BitReader::new(bytes);
    if r.bits(32)? as u32 != MAGIC {
        return Err(DecodeError::Malformed("bad magic".into()));
    }
    if r.bits(8)? as u8 != VERSION {
        return Err(DecodeError::Malformed("unsupported version".into()));
    }
    let name = r.string()?;
    let n_classes = cap(r.gamma()?, "class")?;
    let n_builtin = cap(r.gamma()?, "builtin class")?;
    let mut types = host.types.clone();
    if n_builtin != types.class_count() {
        return Err(DecodeError::Malformed(format!(
            "module expects {n_builtin} host classes, environment provides {}",
            types.class_count()
        )));
    }
    if n_classes < n_builtin {
        return Err(DecodeError::Malformed("class counts inconsistent".into()));
    }
    // A local class takes at least 4 bits (an empty name, a superclass
    // symbol, two zero counts): refuse a count the stream cannot back
    // before declaring a single class, so a few bytes cannot make the
    // consumer allocate millions of them.
    if (n_classes - n_builtin).saturating_mul(4) > r.bits_left() {
        return Err(DecodeError::Malformed(
            "class count exceeds the stream".into(),
        ));
    }
    // Pre-declare local classes so forward references resolve.
    for _ in n_builtin..n_classes {
        types.declare_class(ClassInfo {
            name: String::new(),
            superclass: None,
            fields: vec![],
            methods: vec![],
            imported: false,
        });
    }
    let mut has_body: Vec<(ClassId, usize)> = Vec::new();
    for i in n_builtin..n_classes {
        let cid = ClassId(i as u32);
        let cname = r.string()?;
        let sup = r.symbol(n_classes as u32)?;
        let n_fields = cap(r.gamma()?, "field")?;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let fname = r.string()?;
            let ty = read_type(&mut r, &mut types, 0)?;
            let is_static = r.bits(1)? == 1;
            fields.push(FieldInfo {
                name: fname,
                ty,
                is_static,
            });
        }
        let n_methods = cap(r.gamma()?, "method")?;
        let mut methods = Vec::with_capacity(n_methods);
        for mi in 0..n_methods {
            let mname = r.string()?;
            let n_params = cap(r.gamma()?, "parameter")?;
            let mut params = Vec::with_capacity(n_params);
            for _ in 0..n_params {
                params.push(read_type(&mut r, &mut types, 0)?);
            }
            let ret = if r.bits(1)? == 1 {
                Some(read_type(&mut r, &mut types, 0)?)
            } else {
                None
            };
            let kind = match r.symbol(crate::layout::METHOD_KINDS)? {
                0 => MethodKind::Static,
                1 => MethodKind::Virtual,
                _ => MethodKind::Special,
            };
            let body = r.bits(1)? == 1;
            if body {
                has_body.push((cid, mi));
            }
            methods.push(MethodInfo {
                name: mname,
                params,
                ret,
                kind,
                vtable_slot: None,
                body: None,
            });
        }
        let info = types.class_mut(cid);
        info.name = cname;
        info.superclass = Some(ClassId(sup));
        info.fields = fields;
        info.methods = methods;
    }
    // One superclass-first order, found without recursion, rejects
    // cycles and drives every inherited-metadata walk.
    let order = types
        .superclass_order()
        .map_err(|_| DecodeError::Malformed("superclass cycle".into()))?;
    // Dispatch-table slots are derived by the consumer — never
    // transmitted, so they cannot be corrupted.
    derive_vtable_slots(&mut types, &order);

    // Function bodies.
    let mut functions = Vec::with_capacity(has_body.len());
    let mut graphs = Vec::with_capacity(has_body.len());
    let mut table = RegTable::default();
    for (cid, mi) in has_body {
        let fid = functions.len() as u32;
        let (f, cfg, dom) =
            decode_function(&mut r, &mut types, cid, mi, &mut table).map_err(|e| {
                let c = types.class(cid);
                DecodeError::Malformed(format!("in {}.{}: {e}", c.name, c.methods[mi].name))
            })?;
        types.class_mut(cid).methods[mi].body = Some(fid);
        functions.push(f);
        graphs.push((cfg, dom));
    }
    let m = Module {
        name,
        types,
        well_known: host.well_known,
        functions,
    };
    Ok((m, graphs))
}

/// Decodes and fully verifies a module. The verifier reuses the CFG and
/// dominator tree each function was decoded against and checks every
/// other property itself.
///
/// # Errors
///
/// Decode errors, or verification failures mapped to
/// [`DecodeError::Malformed`].
pub fn decode_and_verify(bytes: &[u8], host: &HostEnv) -> Result<Module, DecodeError> {
    let (m, graphs) = decode_module_graphs(bytes, host)?;
    safetsa_core::verify::verify_module_with(&m, &graphs)
        .map_err(|e| DecodeError::Malformed(format!("verification: {e}")))?;
    Ok(m)
}

/// Recomputes virtual-dispatch slots from the method tables (same
/// override rule as the producer: match by name, parameters, and
/// return type along the superclass chain), visiting classes in
/// `order` so every superclass's table is complete before its
/// subclasses copy it.
fn derive_vtable_slots(types: &mut TypeTable, order: &[ClassId]) {
    let mut tables: Vec<Vec<(ClassId, u32)>> = vec![Vec::new(); types.class_count()];
    for &c in order {
        let info = types.class(c);
        let mut table = info
            .superclass
            .map_or_else(Vec::new, |s| tables[s.index()].clone());
        let mut slots = Vec::new();
        for (mi, m) in info.methods.iter().enumerate() {
            if m.kind != MethodKind::Virtual {
                continue;
            }
            let overridden = table.iter().position(|&(oc, om)| {
                let o = &types.class(oc).methods[om as usize];
                o.name == m.name && o.params == m.params && o.ret == m.ret
            });
            let s = match overridden {
                Some(s) => {
                    table[s] = (c, mi as u32);
                    s
                }
                None => {
                    table.push((c, mi as u32));
                    table.len() - 1
                }
            };
            if m.vtable_slot != Some(s as u32) {
                slots.push((mi, s as u32));
            }
        }
        // Host classes arrive with their slots already derived, so
        // their shared records are left untouched.
        for (mi, s) in slots {
            types.class_mut(c).methods[mi].vtable_slot = Some(s);
        }
        tables[c.index()] = table;
    }
}

/// Decodes one standalone function section (the counterpart of
/// [`crate::enc::encode_function_section`]) against a type table that
/// already declares `class` with the method record at `method_idx` —
/// the signature is derived from that record, exactly as in a full
/// module decode. The incremental store's reassembly path uses this to
/// splice a cached method body into a freshly lowered module.
///
/// # Errors
///
/// Any structural, referential, or type violation aborts decoding —
/// callers treat a failure as a cache miss.
pub fn decode_function_section(
    bytes: &[u8],
    types: &mut TypeTable,
    class: ClassId,
    method_idx: usize,
) -> Result<Function, DecodeError> {
    let ok = types
        .class_checked(class)
        .is_some_and(|c| method_idx < c.methods.len());
    if !ok {
        return Err(DecodeError::Malformed("method record out of range".into()));
    }
    let mut r = BitReader::new(bytes);
    decode_function(&mut r, types, class, method_idx, &mut RegTable::default()).map(|(f, ..)| f)
}

const PLACEHOLDER: ValueId = ValueId(u32::MAX);

struct FnDecoder<'a, 'b> {
    r: &'a mut BitReader<'b>,
    types: &'a mut TypeTable,
    f: Function,
    /// Blocks the CST has allocated so far (the first is `ENTRY`).
    n_blocks: usize,
    label_depth: u32,
    loop_depth: u32,
    nodes: usize,
}

fn decode_function(
    r: &mut BitReader<'_>,
    types: &mut TypeTable,
    class: ClassId,
    method_idx: usize,
    table: &mut RegTable,
) -> Result<(Function, Cfg, DomTree), DecodeError> {
    // Derive the signature from the (already decoded) method record;
    // an instance method's receiver is on its class's safe-ref plane.
    let cinfo = types.class(class);
    let m = &cinfo.methods[method_idx];
    let name = format!("{}.{}", cinfo.name, m.name);
    let (ret, has_recv) = (m.ret, m.kind != MethodKind::Static);
    let mut params = Vec::with_capacity(m.params.len() + 1);
    if has_recv {
        params.push(types.class_ty(class));
    }
    params.extend_from_slice(&m.params);
    if has_recv {
        params[0] = types.safe_ref_of(params[0]);
    }
    let f = Function::new(name, Some(class), params, ret);
    let mut d = FnDecoder {
        r,
        types,
        f,
        n_blocks: 0,
        label_depth: 0,
        loop_depth: 0,
        nodes: 0,
    };
    // Constant pool.
    let n_consts = cap(d.r.gamma()?, "constant")?;
    for _ in 0..n_consts {
        let ty = read_type(d.r, d.types, 0)?;
        let lit = d.read_literal(ty)?;
        d.f.add_const(Const { ty, lit });
    }
    if d.f.consts.len() != n_consts {
        return Err(DecodeError::Malformed("duplicate constant entries".into()));
    }
    // Phase 1: CST structure. Every block it allocates appears in it
    // exactly once; with none, the entry block would be left out.
    let body = d.parse_cst()?;
    d.f.body = body;
    if d.n_blocks == 0 {
        return Err(DecodeError::Malformed("blocks not covered by CST".into()));
    }
    d.f.blocks.resize_with(d.n_blocks, Default::default);
    d.f.results.resize_with(d.n_blocks, Default::default);
    // Phase 2a: opcodes, types, and member references of every block in
    // traversal order. `parse_cst` allocates blocks in exactly the order
    // the CFG traversal visits them, so that order is `0..n`. Operands
    // arrive in phase 2b, by which point the complete control-flow
    // graph (exception edges included) and every plane's register count
    // are known — this is what makes decoding a single forward pass
    // with context-determined symbol alphabets.
    let n_blocks = d.f.block_count();
    for b in (0..n_blocks).map(|i| BlockId(i as u32)) {
        let n_phis = cap(d.r.gamma()?, "phi")?;
        for _ in 0..n_phis {
            let ty = read_type(d.r, d.types, 0)?;
            d.f.add_phi(b, ty);
        }
        let n_instrs = cap(d.r.gamma()?, "instruction")?;
        for _ in 0..n_instrs {
            let instr = d.read_instr_fields()?;
            let result = crate::planes::result_plane(d.types, &instr)?;
            d.f.add_instr_unchecked(b, instr, result);
        }
    }
    // The function's one CFG, for the reference phases and (handed on
    // by `decode_and_verify`) the verifier. Unreachable blocks must be
    // empty (verified again later, but needed now so reference decoding
    // never consults an unreachable block).
    let mut cfg =
        Cfg::build(&d.f).map_err(|e| DecodeError::Malformed(format!("control structure: {e}")))?;
    let dom = DomTree::build(&cfg);
    for (bi, blk) in d.f.blocks.iter().enumerate().skip(1) {
        if !cfg.reachable[bi] && (!blk.phis.is_empty() || !blk.instrs.is_empty()) {
            return Err(DecodeError::Malformed(
                "code in an unreachable block".into(),
            ));
        }
    }
    // The register counters every reference is decoded against.
    table.rebuild(&d.f);
    // Phase 2b: operand references, patched into each instruction in
    // place.
    let mut planes = Vec::new();
    for (bi, blk) in d.f.blocks.iter_mut().enumerate() {
        let b = BlockId(bi as u32);
        for (k, instr) in blk.instrs.iter_mut().enumerate() {
            crate::planes::operand_planes(d.types, instr, &mut planes)?;
            let mut planes = planes.iter();
            let mut failed = None;
            instr.map_operands(|v| {
                let Some(&plane) = planes.next() else {
                    failed.get_or_insert(DecodeError::Malformed("operand arity mismatch".into()));
                    return v;
                };
                if failed.is_some() {
                    return v;
                }
                read_ref(d.r, table, &dom, b, Some(k), plane).unwrap_or_else(|e| {
                    failed = Some(DecodeError::Malformed(format!(
                        "operand in {b} instr {k}: {e}"
                    )));
                    v
                })
            });
            if planes.next().is_some() {
                failed.get_or_insert(DecodeError::Malformed("operand arity mismatch".into()));
            }
            if let Some(e) = failed {
                return Err(e);
            }
        }
        // Safe-index results are bound to the array they were checked
        // against (Appendix A).
        for (k, instr) in blk.instrs.iter().enumerate() {
            if let Instr::IndexCheck { array, .. } = *instr {
                if let Some(res) = d.f.results[bi].instr_results[k] {
                    d.f.values[res.index()].provenance = Some(array);
                }
            }
        }
    }
    // Phase 2c: CST value references; then the CFG's use lists, which
    // were derived while the references were still placeholders.
    let mut body = std::mem::replace(&mut d.f.body, Cst::Seq(vec![]));
    PatchWalk {
        r: d.r,
        types: d.types,
        ret: d.f.ret,
        table,
        cfg: &cfg,
        dom: &dom,
    }
    .walk(&mut body, Fr::Start)?;
    d.f.body = body;
    cfg.refresh_uses(&d.f)
        .map_err(|e| DecodeError::Malformed(format!("control structure: {e}")))?;
    // Phase 3: phi operands.
    for b in (0..n_blocks).map(|i| BlockId(i as u32)) {
        let preds = cfg.preds_of(b);
        for k in 0..d.f.block(b).phis.len() {
            let ty = d.f.block(b).phis[k].ty;
            let mut args = Vec::with_capacity(preds.len());
            for e in preds {
                let limit = match e.kind {
                    EdgeKind::Normal => None,
                    EdgeKind::Exception { upto } => Some(upto as usize),
                };
                let v = read_ref(d.r, table, &dom, e.from, limit, ty)?;
                args.push((e.from, v));
            }
            let result = d.f.phi_result(b, k);
            // Safe-index phis inherit their provenance from the
            // operands (Appendix A); the verifier re-checks agreement.
            if d.types.is_safe_index(ty) {
                let prov = args.first().and_then(|(_, v)| d.f.value(*v).provenance);
                d.f.set_provenance(result, prov);
            }
            d.f.set_phi_args(b, k, args);
        }
    }
    Ok((d.f, cfg, dom))
}

impl<'a, 'b> FnDecoder<'a, 'b> {
    fn read_literal(&mut self, ty: TypeId) -> Result<Literal, DecodeError> {
        Ok(match self.types.kind(ty) {
            TypeKind::Prim(PrimKind::Bool) => Literal::Bool(self.r.bits(1)? == 1),
            TypeKind::Prim(PrimKind::Char) => Literal::Char(self.r.bits(16)? as u16),
            TypeKind::Prim(PrimKind::Int) => Literal::Int(self.r.bits(32)? as u32 as i32),
            TypeKind::Prim(PrimKind::Long) => Literal::Long(self.r.bits(64)? as i64),
            TypeKind::Prim(PrimKind::Float) => {
                Literal::Float(f32::from_bits(self.r.bits(32)? as u32))
            }
            TypeKind::Prim(PrimKind::Double) => Literal::Double(f64::from_bits(self.r.bits(64)?)),
            TypeKind::Class(_) | TypeKind::Array(_) => {
                if self.r.bits(1)? == 1 {
                    // Strings live on the imported string plane only;
                    // the module verifier re-checks the class.
                    Literal::Str(self.r.string()?)
                } else {
                    Literal::Null
                }
            }
            _ => return Err(DecodeError::Malformed("constant on a derived plane".into())),
        })
    }

    fn alloc_block(&mut self) -> BlockId {
        self.n_blocks += 1;
        BlockId(self.n_blocks as u32 - 1)
    }

    fn parse_cst(&mut self) -> Result<Cst, DecodeError> {
        self.nodes += 1;
        if self.nodes as u64 > MAX_COUNT {
            return Err(DecodeError::Malformed("CST too large".into()));
        }
        let tag = CstTag::from_u32(self.r.symbol(CST_TAGS)?)
            .ok_or_else(|| DecodeError::Malformed("bad CST tag".into()))?;
        Ok(match tag {
            CstTag::Basic => Cst::Basic(self.alloc_block()),
            CstTag::Seq => {
                let n = cap(self.r.gamma()?, "sequence")?;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(self.parse_cst()?);
                }
                Cst::Seq(items)
            }
            CstTag::If => {
                let join = self.alloc_block();
                let then_br = Box::new(self.parse_cst()?);
                let else_br = Box::new(self.parse_cst()?);
                Cst::If {
                    cond: PLACEHOLDER,
                    then_br,
                    else_br,
                    join,
                }
            }
            CstTag::Loop => {
                let header = self.alloc_block();
                self.loop_depth += 1;
                let body = Box::new(self.parse_cst()?);
                self.loop_depth -= 1;
                Cst::Loop { header, body }
            }
            CstTag::Labeled => {
                let join = self.alloc_block();
                self.label_depth += 1;
                let body = Box::new(self.parse_cst()?);
                self.label_depth -= 1;
                Cst::Labeled { body, join }
            }
            CstTag::Break => Cst::Break(self.r.symbol(self.label_depth)?),
            CstTag::Continue => Cst::Continue(self.r.symbol(self.loop_depth)?),
            CstTag::Return => Cst::Return(self.f.ret.map(|_| PLACEHOLDER)),
            CstTag::Throw => Cst::Throw(PLACEHOLDER),
            CstTag::Try => {
                let body = Box::new(self.parse_cst()?);
                let handler_entry = self.alloc_block();
                let handler = Box::new(self.parse_cst()?);
                let join = self.alloc_block();
                Cst::Try {
                    body,
                    handler_entry,
                    handler,
                    join,
                }
            }
        })
    }

    fn read_field_ref(&mut self) -> Result<FieldRef, DecodeError> {
        let class = ClassId(self.r.symbol(self.types.class_count() as u32)?);
        let n = self.types.class(class).fields.len() as u32;
        let index = self.r.symbol(n)?;
        Ok(FieldRef { class, index })
    }

    fn read_method_ref(&mut self) -> Result<MethodRef, DecodeError> {
        let class = ClassId(self.r.symbol(self.types.class_count() as u32)?);
        let n = self.types.class(class).methods.len() as u32;
        let index = self.r.symbol(n)?;
        Ok(MethodRef { class, index })
    }

    #[allow(clippy::too_many_lines)]
    fn read_instr_fields(&mut self) -> Result<Instr, DecodeError> {
        const P: ValueId = PLACEHOLDER;
        let opc = Opc::from_u32(self.r.symbol(OPCODES)?)
            .ok_or_else(|| DecodeError::Malformed("bad opcode".into()))?;
        Ok(match opc {
            Opc::Primitive | Opc::XPrimitive => {
                let ty = read_type(self.r, self.types, 0)?;
                let kind = match self.types.kind(ty) {
                    TypeKind::Prim(p) => p,
                    _ => {
                        return Err(DecodeError::Malformed(
                            "primitive on non-primitive plane".into(),
                        ))
                    }
                };
                let table = primops::ops_of(kind);
                let op = PrimOpId(self.r.symbol(table.len() as u32)? as u16);
                let desc = &table[op.index()];
                let wants_x = opc == Opc::XPrimitive;
                if desc.exceptional != wants_x {
                    return Err(DecodeError::Malformed(
                        "operation exceptionality mismatch".into(),
                    ));
                }
                let args = vec![P; desc.params.len()];
                if wants_x {
                    Instr::XPrimitive { ty, op, args }
                } else {
                    Instr::Primitive { ty, op, args }
                }
            }
            Opc::NullCheck => {
                let ty = read_type(self.r, self.types, 0)?;
                Instr::NullCheck { ty, value: P }
            }
            Opc::IndexCheck => {
                let arr_ty = read_type(self.r, self.types, 0)?;
                Instr::IndexCheck {
                    arr_ty,
                    array: P,
                    index: P,
                }
            }
            Opc::Upcast => {
                let from = read_type(self.r, self.types, 0)?;
                let to = read_type(self.r, self.types, 0)?;
                Instr::Upcast { from, to, value: P }
            }
            Opc::Downcast => {
                let from = read_type(self.r, self.types, 0)?;
                let to = read_type(self.r, self.types, 0)?;
                Instr::Downcast { from, to, value: P }
            }
            Opc::GetField => {
                let ty = read_type(self.r, self.types, 0)?;
                let field = self.read_field_ref()?;
                Instr::GetField {
                    ty,
                    object: P,
                    field,
                }
            }
            Opc::SetField => {
                let ty = read_type(self.r, self.types, 0)?;
                let field = self.read_field_ref()?;
                Instr::SetField {
                    ty,
                    object: P,
                    field,
                    value: P,
                }
            }
            Opc::GetStatic => Instr::GetStatic {
                field: self.read_field_ref()?,
            },
            Opc::SetStatic => Instr::SetStatic {
                field: self.read_field_ref()?,
                value: P,
            },
            Opc::GetElt => {
                let arr_ty = read_type(self.r, self.types, 0)?;
                Instr::GetElt {
                    arr_ty,
                    array: P,
                    index: P,
                }
            }
            Opc::SetElt => {
                let arr_ty = read_type(self.r, self.types, 0)?;
                Instr::SetElt {
                    arr_ty,
                    array: P,
                    index: P,
                    value: P,
                }
            }
            Opc::ArrayLength => {
                let arr_ty = read_type(self.r, self.types, 0)?;
                Instr::ArrayLength { arr_ty, array: P }
            }
            Opc::New => {
                let class_ty = read_type(self.r, self.types, 0)?;
                Instr::New { class_ty }
            }
            Opc::NewArray => {
                let arr_ty = read_type(self.r, self.types, 0)?;
                Instr::NewArray { arr_ty, length: P }
            }
            Opc::XCall => {
                let base_ty = read_type(self.r, self.types, 0)?;
                let method = self.read_method_ref()?;
                let has_recv = self.r.bits(1)? == 1;
                let n = self
                    .types
                    .method(method)
                    .ok_or_else(|| DecodeError::Malformed("bad method".into()))?
                    .params
                    .len();
                Instr::XCall {
                    base_ty,
                    method,
                    receiver: has_recv.then_some(P),
                    args: vec![P; n],
                }
            }
            Opc::XDispatch => {
                let base_ty = read_type(self.r, self.types, 0)?;
                let method = self.read_method_ref()?;
                let n = self
                    .types
                    .method(method)
                    .ok_or_else(|| DecodeError::Malformed("bad method".into()))?
                    .params
                    .len();
                Instr::XDispatch {
                    base_ty,
                    method,
                    receiver: P,
                    args: vec![P; n],
                }
            }
            Opc::RefEq => {
                let ty = read_type(self.r, self.types, 0)?;
                Instr::RefEq { ty, a: P, b: P }
            }
            Opc::InstanceOf => {
                let from = read_type(self.r, self.types, 0)?;
                let target = read_type(self.r, self.types, 0)?;
                Instr::InstanceOf {
                    from,
                    target,
                    value: P,
                }
            }
            Opc::Catch => {
                let ty = read_type(self.r, self.types, 0)?;
                Instr::Catch { ty }
            }
        })
    }
}

// --------------------------------------------------------------------
// Phase 2c: patch the CST value references in frontier-walk order.

#[derive(Clone, Copy, PartialEq)]
enum Fr {
    Start,
    At(BlockId),
    Dead,
}

struct PatchWalk<'a, 'b> {
    r: &'a mut BitReader<'b>,
    types: &'a mut TypeTable,
    ret: Option<TypeId>,
    table: &'a RegTable,
    cfg: &'a Cfg,
    dom: &'a DomTree,
}

impl<'a, 'b> PatchWalk<'a, 'b> {
    fn live_join(&self, join: BlockId) -> Fr {
        if self.cfg.preds_of(join).is_empty() {
            Fr::Dead
        } else {
            Fr::At(join)
        }
    }

    fn walk(&mut self, cst: &mut Cst, fr: Fr) -> Result<Fr, DecodeError> {
        Ok(match cst {
            Cst::Basic(b) => match fr {
                Fr::Dead => Fr::Dead,
                _ => Fr::At(*b),
            },
            Cst::Seq(items) => {
                let mut cur = fr;
                for c in items {
                    cur = self.walk(c, cur)?;
                }
                cur
            }
            Cst::If {
                cond,
                then_br,
                else_br,
                join,
            } => {
                if let Fr::At(b) = fr {
                    let bool_ty = self.types.bool_ty();
                    *cond = read_ref(self.r, self.table, self.dom, b, None, bool_ty)?;
                }
                let join = *join;
                self.walk(then_br, fr)?;
                self.walk(else_br, fr)?;
                self.live_join(join)
            }
            Cst::Loop { header, body } => {
                let inner = match fr {
                    Fr::Dead => Fr::Dead,
                    _ => Fr::At(*header),
                };
                self.walk(body, inner)?;
                Fr::Dead
            }
            Cst::Labeled { body, join } => {
                let join = *join;
                self.walk(body, fr)?;
                self.live_join(join)
            }
            Cst::Break(_) | Cst::Continue(_) => Fr::Dead,
            Cst::Return(v) => {
                if let (Fr::At(b), Some(slot)) = (fr, v.as_mut()) {
                    let plane = self
                        .ret
                        .ok_or_else(|| DecodeError::Malformed("value return in void".into()))?;
                    *slot = read_ref(self.r, self.table, self.dom, b, None, plane)?;
                }
                Fr::Dead
            }
            Cst::Throw(v) => {
                if let Fr::At(b) = fr {
                    let plane = read_type(self.r, self.types, 0)?;
                    *v = read_ref(self.r, self.table, self.dom, b, None, plane)?;
                }
                Fr::Dead
            }
            Cst::Try {
                body,
                handler_entry,
                handler,
                join,
            } => {
                let (he, join) = (*handler_entry, *join);
                self.walk(body, fr)?;
                let h = if self.cfg.preds_of(he).is_empty() {
                    Fr::Dead
                } else {
                    Fr::At(he)
                };
                self.walk(handler, h)?;
                self.live_join(join)
            }
        })
    }
}

#[cfg(test)]
mod work_gate {
    //! Deterministic work counters for the consumer, over every corpus
    //! artifact (optimised and unoptimised): wall time is not gated,
    //! these are.

    use super::*;
    use crate::enc::encode_module;
    use crate::refs::WORK;
    use safetsa_core::{cfg, dom};

    fn corpus_artifacts() -> Vec<(String, Vec<u8>)> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/corpus");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "java"))
            .collect();
        paths.sort();
        let mut out = Vec::new();
        for p in paths {
            let src = std::fs::read_to_string(&p).unwrap();
            let prog = safetsa_frontend::compile(&src).unwrap();
            let mut m = safetsa_ssa::lower_program(&prog).unwrap().module;
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            out.push((format!("{name}.unopt"), encode_module(&m).unwrap()));
            safetsa_opt::optimize(
                &mut m,
                safetsa_opt::Passes::ALL,
                &safetsa_telemetry::Telemetry::disabled(),
            );
            out.push((format!("{name}.opt"), encode_module(&m).unwrap()));
        }
        out
    }

    #[test]
    fn consumer_work_is_pinned_corpus_wide() {
        let artifacts = corpus_artifacts();
        assert_eq!(artifacts.len(), 42, "21 programs, two artifacts each");
        let host = HostEnv::standard();
        let (mut functions, mut refs, mut entries) = (0u64, 0u64, 0u64);
        for (name, bytes) in &artifacts {
            let (cfgs, doms) = (cfg::builds_on_this_thread(), dom::builds_on_this_thread());
            WORK.with(|w| w.set((0, 0)));
            let m = decode_and_verify(bytes, &host).unwrap();
            let n = m.functions.len() as u64;
            // One CFG and one dominator tree per function, shared by the
            // decoder and the verifier.
            assert_eq!(cfg::builds_on_this_thread() - cfgs, n, "{name}: CFG builds");
            assert_eq!(
                dom::builds_on_this_thread() - doms,
                n,
                "{name}: DomTree builds"
            );
            let (r, e) = WORK.with(|w| w.get());
            functions += n;
            refs += r;
            entries += e;
            // The wire format is a function of the module: decoding and
            // re-encoding gives back the same bytes.
            assert_eq!(&encode_module(&m).unwrap(), bytes, "{name}: round trip");
        }
        assert_eq!(functions, 316);
        // Every operand, CST and phi reference resolves through the
        // register table: a scan of the target block's plane runs, plus
        // a binary search for a same-block limit. That reads ~3.6
        // entries per reference on this corpus, and no reference
        // allocates; a decoder that lists a block's visible values per
        // reference fails the bound.
        assert!(refs > 10_000, "{refs} references");
        assert!(
            entries <= 4 * refs,
            "{entries} table entries read for {refs} references"
        );
    }

    #[test]
    fn decoded_cfg_equals_a_fresh_build() {
        let host = HostEnv::standard();
        for (name, bytes) in corpus_artifacts() {
            let (m, graphs) = decode_module_graphs(&bytes, &host).unwrap();
            for (f, (cfg, dom)) in m.functions.iter().zip(&graphs) {
                let fresh = Cfg::build(f).unwrap();
                // The use lists were refreshed after the CST references
                // were patched in, so nothing of the placeholder build
                // survives.
                assert_eq!(
                    format!("{cfg:?}"),
                    format!("{fresh:?}"),
                    "{name} {}",
                    f.name
                );
                let dom2 = DomTree::build(&fresh);
                assert_eq!(
                    (&dom.idom, &dom.depth),
                    (&dom2.idom, &dom2.depth),
                    "{name} {}",
                    f.name
                );
            }
        }
    }
}
