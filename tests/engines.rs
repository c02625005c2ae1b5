//! Execution contracts of the VM, checked against the baseline stack
//! interpreter where an independent answer exists: every corpus program
//! and a set of targeted trap programs must produce the same output and
//! the same result or uncaught trap under both. The remaining tests pin
//! the VM's own contracts: block-granular fuel, deadlines, inline
//! caches, frame reuse after traps, string-constant interning and
//! handler-entry phis.

use safetsa_baseline::interp::{Bvm, BvmError};
use safetsa_bench::{build_pipeline, corpus, run_differential};
use safetsa_core::verify::verify_module;
use safetsa_core::Module;
use safetsa_frontend::compile;
use safetsa_opt::Passes;
use safetsa_rt::{Trap, Value};
use safetsa_ssa::lower_program;
use safetsa_telemetry::Telemetry;
use safetsa_vm::{ResourceLimits, Vm, VmError};
use std::time::Instant;

fn results_agree(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x.bits_eq(*y),
        (None, None) => true,
        _ => false,
    }
}

/// Compiles and fully optimizes one inline source.
fn module_for(src: &str) -> Module {
    let prog = compile(src).expect("front-end accepts");
    let lowered = lower_program(&prog).expect("ssa lowering");
    let mut m = lowered.module;
    safetsa_opt::optimize(&mut m, Passes::ALL, &Telemetry::disabled());
    verify_module(&m).expect("optimized module verifies");
    m
}

/// One VM run: outcome, captured output, charged steps.
fn run_vm(m: &Module, entry: &str) -> (Result<Option<Value>, VmError>, String, u64) {
    let mut vm = Vm::load(m).expect("loads");
    vm.set_fuel(500_000_000);
    let r = vm.run_entry(entry);
    (r, vm.output.text().to_string(), vm.steps)
}

#[test]
fn corpus_agrees_across_engines() {
    // The unoptimized and the optimized module of every corpus program
    // against the baseline stack interpreter, which runs the program
    // from the HIR through its own code path.
    for entry in corpus() {
        run_differential(&entry);
    }
}

#[test]
fn trap_paths_agree_across_engines() {
    // Uncaught traps: the VM surfaces the raw trap, the baseline the
    // exception object it materialized for it; both must name the same
    // exception, after the same partial output.
    let cases: &[(&str, &str, Trap, &str)] = &[
        (
            "div_by_zero",
            "class T { static int main() { int d = 0; Sys.println(1); return 7 / d; } }",
            Trap::DivByZero,
            "ArithmeticException",
        ),
        (
            "index_oob",
            "class T { static int main() { int[] a = new int[3]; Sys.println(2); return a[5]; } }",
            Trap::IndexOutOfBounds,
            "IndexOutOfBoundsException",
        ),
        (
            "null_deref",
            "class P { int x; }
             class T {
                 static P get() { return null; }
                 static int main() { Sys.println(3); return get().x; }
             }",
            Trap::NullPointer,
            "NullPointerException",
        ),
    ];
    for (label, src, trap, exception) in cases {
        let (r, out, _) = run_vm(&module_for(src), "T.main");
        let prog = compile(src).expect("front-end accepts");
        let mut code = safetsa_baseline::compile::compile_program(&prog);
        safetsa_baseline::verify::verify_program(&prog, &mut code).expect("bytecode verifies");
        let mut bvm = Bvm::load(&prog, &code);
        bvm.set_fuel(500_000_000);
        match (r, bvm.run_entry("T.main")) {
            (Err(VmError::Uncaught(t)), Err(BvmError::Uncaught(Trap::User(obj)))) => {
                assert_eq!(t, *trap, "{label}: VM trap");
                let class = bvm.heap.instance_class(obj).expect("exception instance");
                assert_eq!(prog.class(class).name, *exception, "{label}: baseline exception");
            }
            other => panic!("{label}: expected an uncaught trap from both, got {other:?}"),
        }
        assert_eq!(out, bvm.output.text(), "{label}: partial outputs diverge");
    }
}

#[test]
fn fuel_completes_at_charged_steps_and_exhausts_below() {
    // Fuel is charged a whole basic block at a time on block entry: a
    // run completes iff its budget covers the charged steps, and any
    // smaller budget exhausts.
    for entry in corpus() {
        let pl = build_pipeline(&entry);
        let (r, _, steps) = run_vm(&pl.optimized, entry.entry);
        r.unwrap_or_else(|e| panic!("{}: reference run: {e}", entry.name));

        let mut vm = Vm::load(&pl.optimized).expect("loads");
        vm.set_fuel(steps);
        vm.run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: budget of {steps} charged steps trapped: {e}", entry.name));

        for budget in [steps / 2, steps.saturating_sub(1)] {
            let mut vm = Vm::load(&pl.optimized).expect("loads");
            vm.set_fuel(budget);
            let err = vm.run_entry(entry.entry).expect_err("must exhaust");
            assert!(
                matches!(err, VmError::FuelExhausted),
                "{}: at fuel {budget}: {err}",
                entry.name
            );
        }
    }
}

#[test]
fn expired_deadline_kills_the_run() {
    let entry = corpus()
        .into_iter()
        .find(|e| e.name == "BitSieve")
        .expect("BitSieve in corpus");
    let pl = build_pipeline(&entry);
    let mut vm = Vm::load(&pl.optimized).expect("loads");
    vm.set_fuel(500_000_000);
    vm.set_deadline(Instant::now());
    let err = vm.run_entry(entry.entry).expect_err("expired deadline");
    assert!(matches!(err, VmError::DeadlineExceeded), "{err}");
}

#[test]
fn inline_cache_stays_monomorphic_on_single_receiver() {
    // One receiver class through a base-typed reference: the first
    // dispatch at the site misses (cold cache), every later one hits.
    let m = module_for(
        "class Base { int f() { return 1; } }
         class D1 extends Base { int f() { return 2; } }
         class T {
             static int main() {
                 Base b = new D1();
                 int s = 0;
                 for (int i = 0; i < 1000; i++) s += b.f();
                 return s;
             }
         }",
    );
    let mut vm = Vm::load(&m).expect("loads");
    vm.set_fuel(10_000_000);
    let r = vm.run_entry("T.main").expect("runs");
    assert!(results_agree(&r, &Some(Value::I(2000))), "{r:?}");
    let (hits, misses) = (vm.icache_hits(), vm.icache_misses());
    assert!(
        hits + misses >= 1000,
        "dispatch not exercised: {hits} hits + {misses} misses"
    );
    assert!(misses <= 2, "monomorphic site missed {misses} times");
}

#[test]
fn inline_cache_thrashes_on_alternating_receivers() {
    // Two receiver classes alternating at one site: the monomorphic
    // always-replace cache must keep falling back to the vtable walk
    // (and keep producing correct answers while doing so).
    let m = module_for(
        "class Base { int f() { return 1; } }
         class D1 extends Base { int f() { return 2; } }
         class D2 extends Base { int f() { return 3; } }
         class T {
             static int main() {
                 Base[] arr = new Base[2];
                 arr[0] = new D1();
                 arr[1] = new D2();
                 int s = 0;
                 for (int i = 0; i < 1000; i++) s += arr[i % 2].f();
                 return s;
             }
         }",
    );
    let mut vm = Vm::load(&m).expect("loads");
    vm.set_fuel(10_000_000);
    let r = vm.run_entry("T.main").expect("runs");
    assert!(results_agree(&r, &Some(Value::I(2500))), "{r:?}");
    let misses = vm.icache_misses();
    assert!(misses >= 900, "megamorphic site should thrash, saw {misses} misses");
}

#[test]
fn vm_is_reusable_after_stack_overflow_and_deep_uncaught_throw() {
    // The VM takes call frames from a pool and must hand each one back,
    // and restore the call depth, on every exit path. A second entry
    // point on the same VM must then match a fresh VM —
    // `main` + `down(40)` fill the depth budget exactly, so a single
    // depth unit leaked by the trapped run would overflow it.
    let m = module_for(
        "class Boom extends Exception { int code; Boom(int c) { super(\"boom\"); code = c; } }
         class T {
             static int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }
             static int overflow() { return down(1000); }
             static int c(int k) { if (k > 0) throw new Boom(k); return k; }
             static int b(int k) { return c(k) + 1; }
             static int a(int k) { return b(k) + 1; }
             static int thrower() { return a(5); }
             static int main() { return down(40) + a(0); }
         }",
    );
    let limits = ResourceLimits {
        max_call_depth: Some(42),
        ..ResourceLimits::default()
    };
    let vm_for = || {
        let mut vm = Vm::load(&m).expect("loads");
        vm.set_limits(limits);
        vm
    };
    let fresh = vm_for().run_entry("T.main");
    assert!(
        results_agree(&fresh.clone().expect("fresh run"), &Some(Value::I(42))),
        "fresh run gave {fresh:?}"
    );
    for (entry, trap) in [("T.overflow", "stack overflow"), ("T.thrower", "Boom")] {
        let mut vm = vm_for();
        let err = vm.run_entry(entry).expect_err("traps");
        assert!(
            matches!(err, VmError::Uncaught(_)),
            "{entry}: expected an uncaught {trap}, got {err}"
        );
        let again = vm.run_entry("T.main");
        assert_eq!(again, fresh, "run after {entry} differs from a fresh VM");
    }
}

#[test]
fn string_constants_allocate_once_however_often_called() {
    // A string constant is interned on its function's first call; the
    // next 999 calls reuse the frame template and allocate nothing.
    let m = module_for(
        "class T {
             static int f() { String s = \"hello\"; return s.length(); }
             static int once() { return f(); }
             static int many() { int n = 0; for (int i = 0; i < 1000; i++) n += f(); return n; }
         }",
    );
    let heap_after = |entry: &str| {
        let mut vm = Vm::load(&m).expect("loads");
        vm.set_fuel(10_000_000);
        vm.run_entry(entry).expect("runs");
        (vm.heap.len(), vm.heap.bytes_allocated())
    };
    let once = heap_after("T.once");
    assert!(once.0 >= 1, "the literal was never allocated");
    assert_eq!(heap_after("T.many"), once);
}

#[test]
fn exception_caught_two_frames_up_sees_handler_phi_values() {
    // `h` traps two frames below `main`'s handler; the handler-entry
    // phis must take the values live at the faulting call: x = 7 and
    // y = g(3) = 4, not the initial or the later assignments.
    let m = module_for(
        "class T {
             static int h(int a) { return 10 / a; }
             static int g(int a) { return h(a) + 1; }
             static int main() {
                 int x = 1;
                 int y = 2;
                 try {
                     x = 5;
                     y = g(3);
                     x = 7;
                     y = g(0);
                     x = 9;
                 } catch (ArithmeticException e) {
                     return x * 100 + y;
                 }
                 return -1;
             }
         }",
    );
    let (r, _, _) = run_vm(&m, "T.main");
    let r = r.unwrap_or_else(|e| panic!("{e}"));
    assert!(results_agree(&r, &Some(Value::I(704))), "{r:?}");
}
