//! Ill-typed code that never went through the verifier must trap, not
//! panic. Each case hand-builds a function body with operands on the
//! wrong plane (something the verifier rejects), splices it into a
//! compiled module in place of `T.main`, and runs it on the default
//! engine without calling `verify_module`.

use safetsa_core::cst::Cst;
use safetsa_core::function::{Function, ENTRY};
use safetsa_core::instr::Instr;
use safetsa_core::primops;
use safetsa_core::types::PrimKind;
use safetsa_core::value::{Const, Literal};
use safetsa_core::Module;
use safetsa_frontend::compile;
use safetsa_ssa::lower_program;
use safetsa_vm::{Vm, VmError};

/// A module whose `T.main` (an `int` function with no parameters) is
/// replaced by the body `build` produces.
fn with_main(build: impl FnOnce(&mut Module, &mut Function)) -> Module {
    let prog = compile("class T { static int main() { return 0; } }").expect("compiles");
    let mut m = lower_program(&prog).expect("lowers").module;
    let fid = m.find_function("T.main").expect("T.main exists");
    let old = &m.functions[fid.index()];
    let mut f = Function::new(old.name.clone(), old.class, vec![], old.ret);
    build(&mut m, &mut f);
    m.functions[fid.index()] = f;
    m
}

fn konst(
    f: &mut Function,
    m: &Module,
    kind: PrimKind,
    lit: Literal,
) -> safetsa_core::value::ValueId {
    f.add_const(Const {
        ty: m.types.prim(kind),
        lit,
    })
}

fn assert_internal_trap(m: &Module, what: &str) {
    let mut vm = Vm::load(m).expect("loads");
    vm.set_fuel(1_000);
    match vm.run_entry("T.main") {
        Err(VmError::Internal(_)) => {}
        other => panic!("{what}: expected an internal trap, got {other:?}"),
    }
}

#[test]
fn int_add_of_a_double_traps() {
    let m = with_main(|m, f| {
        let int = m.types.prim(PrimKind::Int);
        let d = konst(f, m, PrimKind::Double, Literal::Double(1.5));
        let i = konst(f, m, PrimKind::Int, Literal::Int(2));
        let add = primops::find(PrimKind::Int, "add").expect("int add");
        let sum = f.add_instr_unchecked(
            ENTRY,
            Instr::Primitive {
                ty: int,
                op: add,
                args: vec![d, i],
            },
            Some(int),
        );
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(sum)]);
    });
    assert_internal_trap(&m, "int add fed a double");
}

#[test]
fn non_boolean_branch_condition_traps() {
    let m = with_main(|m, f| {
        let i = konst(f, m, PrimKind::Int, Literal::Int(1));
        let (then_b, else_b, join) = (f.add_block(), f.add_block(), f.add_block());
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: i,
                then_br: Box::new(Cst::Basic(then_b)),
                else_br: Box::new(Cst::Basic(else_b)),
                join,
            },
            Cst::Return(Some(i)),
        ]);
    });
    assert_internal_trap(&m, "branch on an int");
}

#[test]
fn long_stored_into_int_array_traps() {
    let m = with_main(|m, f| {
        let int = m.types.prim(PrimKind::Int);
        let int_arr = m.types.array_of(int);
        let len = konst(f, m, PrimKind::Int, Literal::Int(3));
        let idx = konst(f, m, PrimKind::Int, Literal::Int(0));
        let long = konst(f, m, PrimKind::Long, Literal::Long(5));
        let arr = f.add_instr_unchecked(
            ENTRY,
            Instr::NewArray {
                arr_ty: int_arr,
                length: len,
            },
            Some(int_arr),
        );
        f.add_instr_unchecked(
            ENTRY,
            Instr::SetElt {
                arr_ty: int_arr,
                array: arr.expect("newarray result"),
                index: idx,
                value: long,
            },
            None,
        );
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(Some(idx))]);
    });
    assert_internal_trap(&m, "long stored into int[]");
}
