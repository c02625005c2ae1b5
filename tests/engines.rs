//! Dual-engine differential suite: every corpus program (and a set of
//! targeted trap/exhaustion/deadline programs) runs under both the
//! switch interpreter and the direct-threaded engine, and the two must
//! agree — byte-identical output, bit-identical result, the same
//! structured error on every failure path. This is the oracle that
//! keeps the threaded engine honest: the 1400-line match interpreter
//! is the executable specification, the pre-decoded engine is the
//! implementation under test.
//!
//! Step accounting is compared too: superinstruction fusion means the
//! threaded engine executes *at most* as many charged steps as the
//! switch engine, never more, and fuel exhaustion must fire under both
//! engines at any budget below the threaded engine's own total (block-
//! granularity charging can only make the threaded engine trap
//! earlier, within one basic block of the switch engine's point).

use safetsa_bench::{build_pipeline, corpus};
use safetsa_core::verify::verify_module;
use safetsa_core::Module;
use safetsa_frontend::compile;
use safetsa_opt::Passes;
use safetsa_rt::Value;
use safetsa_ssa::lower_program;
use safetsa_telemetry::Telemetry;
use safetsa_vm::{Engine, ResourceLimits, Vm, VmError};
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

/// One run under `engine`: outcome, captured output, charged steps.
fn run_engine(
    m: &Module,
    entry: &str,
    engine: Engine,
) -> (Result<Option<Value>, VmError>, String, u64) {
    let mut vm = Vm::load(m).expect("loads");
    vm.set_engine(engine);
    vm.set_fuel(500_000_000);
    let r = vm.run_entry(entry);
    (r, vm.output.text().to_string(), vm.steps)
}

/// Asserts both engines agree on `m`'s entry and returns the
/// per-engine charged step counts `(threaded, switch)`.
fn assert_engines_agree(m: &Module, entry: &str, label: &str) -> (u64, u64) {
    let (tr, to, ts) = run_engine(m, entry, Engine::Threaded);
    let (sr, so, ss) = run_engine(m, entry, Engine::Switch);
    assert_eq!(to, so, "{label}: engine outputs diverge");
    match (&tr, &sr) {
        (Ok(a), Ok(b)) => assert!(
            results_agree(a, b),
            "{label}: threaded {a:?} vs switch {b:?}"
        ),
        (Err(a), Err(b)) => assert_eq!(
            a.to_string(),
            b.to_string(),
            "{label}: engine errors diverge"
        ),
        (a, b) => panic!("{label}: outcome kind diverges: {a:?} vs {b:?}"),
    }
    (ts, ss)
}

#[test]
fn corpus_agrees_across_engines() {
    // Both the unoptimized and the optimized module of every corpus
    // program — the threaded decoder must handle the raw producer
    // output as well as the post-pass form it is tuned for.
    for entry in corpus() {
        let pl = build_pipeline(&entry);
        assert_engines_agree(&pl.module, entry.entry, entry.name);
        let (ts, ss) = assert_engines_agree(&pl.optimized, entry.entry, entry.name);
        assert!(
            ts <= ss,
            "{}: threaded charged {ts} steps, more than switch's {ss}",
            entry.name
        );
    }
}

#[test]
fn trap_paths_agree_across_engines() {
    // Uncaught traps: both engines must surface the same structured
    // error with the same partial output.
    let cases: &[(&str, &str, &str)] = &[
        (
            "div_by_zero",
            "class T { static int main() { int d = 0; Sys.println(1); return 7 / d; } }",
            "T.main",
        ),
        (
            "index_oob",
            "class T { static int main() { int[] a = new int[3]; Sys.println(2); return a[5]; } }",
            "T.main",
        ),
        (
            "null_deref",
            "class P { int x; }
             class T {
                 static P get() { return null; }
                 static int main() { Sys.println(3); return get().x; }
             }",
            "T.main",
        ),
    ];
    for (label, src, entry) in cases {
        let m = module_for(src);
        let (tr, _, _) = run_engine(&m, entry, Engine::Threaded);
        assert!(tr.is_err(), "{label}: expected an uncaught trap");
        assert_engines_agree(&m, entry, label);
    }
}

#[test]
fn fuel_exhaustion_agrees_across_engines() {
    // Block-granularity charging may only move the exhaustion point
    // *earlier* (the whole block is charged at entry), never later: at
    // any budget below the threaded engine's own total both engines
    // must exhaust, and at the threaded total the threaded engine must
    // complete exactly (the block costs sum to the charged steps).
    for entry in corpus().into_iter().take(6) {
        let pl = build_pipeline(&entry);
        let (r, _, threaded_steps) = run_engine(&pl.optimized, entry.entry, Engine::Threaded);
        r.unwrap_or_else(|e| panic!("{}: reference run: {e}", entry.name));

        let mut vm = Vm::load(&pl.optimized).expect("loads");
        vm.set_fuel(threaded_steps);
        vm.run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: exact threaded budget trapped: {e}", entry.name));

        for budget in [threaded_steps / 2, threaded_steps.saturating_sub(1)] {
            for engine in [Engine::Threaded, Engine::Switch] {
                let mut vm = Vm::load(&pl.optimized).expect("loads");
                vm.set_engine(engine);
                vm.set_fuel(budget);
                let err = vm.run_entry(entry.entry).expect_err("must exhaust");
                assert!(
                    matches!(err, VmError::FuelExhausted),
                    "{}: {engine} at fuel {budget}: {err}",
                    entry.name
                );
            }
        }
    }
}

#[test]
fn expired_deadline_kills_both_engines() {
    let entry = corpus()
        .into_iter()
        .find(|e| e.name == "BitSieve")
        .expect("BitSieve in corpus");
    let pl = build_pipeline(&entry);
    for engine in [Engine::Threaded, Engine::Switch] {
        let mut vm = Vm::load(&pl.optimized).expect("loads");
        vm.set_engine(engine);
        vm.set_fuel(500_000_000);
        vm.set_deadline(Instant::now());
        let err = vm.run_entry(entry.entry).expect_err("expired deadline");
        assert!(
            matches!(err, VmError::DeadlineExceeded),
            "{engine}: {err}"
        );
    }
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
    // The switch engine agrees on the answer, cache or no cache.
    assert_engines_agree(&m, "T.main", "megamorphic");
}

#[test]
fn vm_is_reusable_after_stack_overflow_and_deep_uncaught_throw() {
    // The threaded engine takes call frames from a pool and must hand
    // each one back, and restore the call depth, on every exit path. A
    // second entry point on the same VM must then match a fresh VM —
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
    let vm_for = |engine| {
        let mut vm = Vm::load(&m).expect("loads");
        vm.set_engine(engine);
        vm.set_limits(limits);
        vm
    };
    for engine in [Engine::Threaded, Engine::Switch] {
        let fresh = vm_for(engine).run_entry("T.main");
        assert!(
            results_agree(&fresh.clone().expect("fresh run"), &Some(Value::I(42))),
            "{engine}: fresh run gave {fresh:?}"
        );
        for (entry, trap) in [("T.overflow", "stack overflow"), ("T.thrower", "Boom")] {
            let mut vm = vm_for(engine);
            let err = vm.run_entry(entry).expect_err("traps");
            assert!(
                matches!(err, VmError::Uncaught(_)),
                "{engine} {entry}: expected an uncaught {trap}, got {err}"
            );
            let again = vm.run_entry("T.main");
            assert_eq!(again, fresh, "{engine}: run after {entry} differs from a fresh VM");
        }
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
    let heap_after = |entry: &str, engine| {
        let mut vm = Vm::load(&m).expect("loads");
        vm.set_engine(engine);
        vm.set_fuel(10_000_000);
        vm.run_entry(entry).expect("runs");
        (vm.heap.len(), vm.heap.bytes_allocated())
    };
    let once = heap_after("T.once", Engine::Threaded);
    assert!(once.0 >= 1, "the literal was never allocated");
    assert_eq!(heap_after("T.many", Engine::Threaded), once);
    assert_eq!(heap_after("T.once", Engine::Switch), once);
    assert_eq!(heap_after("T.many", Engine::Switch), once);
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
    for engine in [Engine::Threaded, Engine::Switch] {
        let (r, _, _) = run_engine(&m, "T.main", engine);
        let r = r.unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert!(results_agree(&r, &Some(Value::I(704))), "{engine}: {r:?}");
    }
}
