//! Plane computation shared by encoder and decoder: given an
//! instruction's opcode and type/member fields (operands not needed),
//! the planes of its operands — in [`Instr::operands`] order — and of
//! its result are fully determined. This is the "implicit register
//! plane selection" of §3, factored out so both sides of the wire agree
//! byte-for-byte.

use crate::bits::DecodeError;
use safetsa_core::instr::Instr;
use safetsa_core::primops;
use safetsa_core::types::{MethodRef, TypeId, TypeKind, TypeTable};

fn safe_ref(types: &mut TypeTable, ty: TypeId) -> Result<TypeId, DecodeError> {
    if !types.is_ref(ty) {
        return Err(DecodeError::Malformed("safe-ref of non-reference".into()));
    }
    Ok(types.safe_ref_of(ty))
}

/// Operand planes of `instr`, in [`Instr::operands`] order, written to
/// `out` (cleared first, so one buffer serves a whole function).
///
/// # Errors
///
/// Rejects ill-kinded field combinations (bad member refs, primitives
/// where references are required, …).
pub fn operand_planes(
    types: &mut TypeTable,
    instr: &Instr,
    out: &mut Vec<TypeId>,
) -> Result<(), DecodeError> {
    out.clear();
    let field_ty = |types: &TypeTable, field| {
        types
            .field(field)
            .map(|f| f.ty)
            .ok_or_else(|| DecodeError::Malformed("bad field".into()))
    };
    match instr {
        Instr::Primitive { ty, op, .. } | Instr::XPrimitive { ty, op, .. } => {
            let kind = match types.kind(*ty) {
                TypeKind::Prim(p) => p,
                _ => return Err(DecodeError::Malformed("primitive on non-prim".into())),
            };
            let desc = primops::resolve(kind, *op)
                .ok_or_else(|| DecodeError::Malformed("bad op".into()))?;
            out.extend(desc.params.iter().map(|p| types.prim(*p)));
        }
        Instr::NullCheck { ty, .. } => out.push(*ty),
        Instr::IndexCheck { arr_ty, .. } => {
            out.extend([safe_ref(types, *arr_ty)?, types.int_ty()]);
        }
        Instr::Upcast { from, .. } | Instr::Downcast { from, .. } => out.push(*from),
        Instr::GetField { ty, .. } => out.push(safe_ref(types, *ty)?),
        Instr::SetField { ty, field, .. } => {
            let fty = field_ty(types, *field)?;
            out.extend([safe_ref(types, *ty)?, fty]);
        }
        Instr::GetStatic { .. } | Instr::New { .. } | Instr::Catch { .. } => {}
        Instr::SetStatic { field, .. } => out.push(field_ty(types, *field)?),
        Instr::GetElt { arr_ty, .. } => {
            if !matches!(types.kind(*arr_ty), TypeKind::Array(_)) {
                return Err(DecodeError::Malformed("getelt on non-array".into()));
            }
            out.extend([safe_ref(types, *arr_ty)?, types.safe_index_of(*arr_ty)]);
        }
        Instr::SetElt { arr_ty, .. } => {
            let elem = match types.kind(*arr_ty) {
                TypeKind::Array(e) => e,
                _ => return Err(DecodeError::Malformed("setelt on non-array".into())),
            };
            out.extend([
                safe_ref(types, *arr_ty)?,
                types.safe_index_of(*arr_ty),
                elem,
            ]);
        }
        Instr::ArrayLength { arr_ty, .. } => out.push(safe_ref(types, *arr_ty)?),
        Instr::NewArray { .. } => out.push(types.int_ty()),
        Instr::XCall {
            base_ty,
            method,
            receiver,
            ..
        } => {
            if receiver.is_some() {
                out.push(safe_ref(types, *base_ty)?);
            }
            out.extend_from_slice(method_params(types, *method)?);
        }
        Instr::XDispatch {
            base_ty, method, ..
        } => {
            out.push(safe_ref(types, *base_ty)?);
            out.extend_from_slice(method_params(types, *method)?);
        }
        Instr::RefEq { ty, .. } => out.extend([*ty, *ty]),
        Instr::InstanceOf { from, .. } => out.push(*from),
    }
    Ok(())
}

fn method_params(types: &TypeTable, method: MethodRef) -> Result<&[TypeId], DecodeError> {
    types
        .method(method)
        .map(|m| m.params.as_slice())
        .ok_or_else(|| DecodeError::Malformed("bad method".into()))
}

/// Result plane of `instr`, independent of operands.
///
/// # Errors
///
/// Rejects ill-kinded field combinations.
pub fn result_plane(types: &mut TypeTable, instr: &Instr) -> Result<Option<TypeId>, DecodeError> {
    Ok(match instr {
        Instr::Primitive { ty, op, .. } | Instr::XPrimitive { ty, op, .. } => {
            let kind = match types.kind(*ty) {
                TypeKind::Prim(p) => p,
                _ => return Err(DecodeError::Malformed("primitive on non-prim".into())),
            };
            let desc = primops::resolve(kind, *op)
                .ok_or_else(|| DecodeError::Malformed("bad op".into()))?;
            Some(types.prim(desc.result))
        }
        Instr::NullCheck { ty, .. } => Some(safe_ref(types, *ty)?),
        Instr::IndexCheck { arr_ty, .. } => {
            if !matches!(types.kind(*arr_ty), TypeKind::Array(_)) {
                return Err(DecodeError::Malformed("indexcheck on non-array".into()));
            }
            Some(types.safe_index_of(*arr_ty))
        }
        Instr::Upcast { to, .. } | Instr::Downcast { to, .. } => Some(*to),
        Instr::GetField { field, .. } | Instr::GetStatic { field } => Some(
            types
                .field(*field)
                .ok_or_else(|| DecodeError::Malformed("bad field".into()))?
                .ty,
        ),
        Instr::SetField { .. } | Instr::SetStatic { .. } | Instr::SetElt { .. } => None,
        Instr::GetElt { arr_ty, .. } => match types.kind(*arr_ty) {
            TypeKind::Array(e) => Some(e),
            _ => return Err(DecodeError::Malformed("getelt on non-array".into())),
        },
        Instr::ArrayLength { .. } => Some(types.int_ty()),
        Instr::New { class_ty } => Some(safe_ref(types, *class_ty)?),
        Instr::NewArray { arr_ty, .. } => Some(safe_ref(types, *arr_ty)?),
        Instr::XCall { method, .. } | Instr::XDispatch { method, .. } => {
            types
                .method(*method)
                .ok_or_else(|| DecodeError::Malformed("bad method".into()))?
                .ret
        }
        Instr::RefEq { .. } | Instr::InstanceOf { .. } => Some(types.bool_ty()),
        Instr::Catch { ty } => {
            if !matches!(types.kind(*ty), TypeKind::Class(_)) {
                return Err(DecodeError::Malformed("catch of non-class".into()));
            }
            Some(*ty)
        }
    })
}
