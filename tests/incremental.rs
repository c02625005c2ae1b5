//! Method-granular incremental compilation.
//!
//! The incremental store's soundness rests on two properties these
//! tests pin corpus-wide:
//!
//! 1. **Section stability**: a function encoded standalone
//!    (`encode_function_section`), decoded, spliced into a freshly
//!    lowered module, and re-encoded as part of the whole module
//!    produces *byte-identical* output to a cold build — the
//!    per-function encoding is structural, so it survives the decode →
//!    re-encode round trip bit-for-bit.
//! 2. **Invalidation precision**: editing one method of a multi-method
//!    file recompiles exactly that unit; edits to a class layout or the
//!    class count invalidate the units that depend on them.
//! 3. **Metric parity**: a cached compile, cold or warm, reports the
//!    same counters as an uncached one, because a unit record carries
//!    everything the original compilation counted.

use safetsa::driver::store::{unit_plan, Store, StoreOptions, STORE_MAGIC};
use safetsa::opt::Passes;
use safetsa::Pipeline;
use safetsa_codec::{decode_function_section, encode_function_section, encode_module};
use safetsa_telemetry::Telemetry;

/// Splice-reassembly is byte-identical to a cold encode, corpus-wide:
/// for every program, encode every optimized function standalone,
/// decode each section against a *fresh* lowering's type table, splice
/// the decoded bodies in, and whole-module encode — the bytes must
/// equal the cold build's.
#[test]
fn section_splice_reassembly_is_byte_identical_corpus_wide() {
    for entry in safetsa_bench::corpus() {
        let p = Pipeline::new();
        let prog = p.frontend(&[entry.source]).unwrap();
        let lowered = p.lower(&prog).unwrap();
        let fresh = lowered.module.clone();
        let mut cold = lowered.module;
        safetsa::opt::optimize(&mut cold, Passes::ALL, &Telemetry::disabled());
        let cold_bytes = encode_module(&cold).unwrap();

        let mut warm = fresh;
        // (class, method) -> function index, as a full decode derives it.
        let sites: Vec<_> = warm
            .types
            .classes()
            .flat_map(|(cid, c)| {
                c.methods
                    .iter()
                    .enumerate()
                    .filter_map(move |(mi, m)| m.body.map(|fid| (cid, mi, fid as usize)))
            })
            .collect();
        for (cid, mi, fid) in sites {
            let (bytes, sec) = encode_function_section(&cold.types, &cold.functions[fid]).unwrap();
            assert_eq!(sec.functions, 1);
            let f = decode_function_section(&bytes, &mut warm.types, cid, mi)
                .unwrap_or_else(|e| panic!("{}: section decode failed: {e}", entry.name));
            warm.functions[fid] = f;
        }
        safetsa_core::verify::verify_module(&warm)
            .unwrap_or_else(|e| panic!("{}: spliced module fails verify: {e}", entry.name));
        let warm_bytes = encode_module(&warm).unwrap();
        assert_eq!(
            cold_bytes, warm_bytes,
            "{}: spliced re-encode differs from cold build",
            entry.name
        );
    }
}

/// A two-method file: editing one method's body leaves the other
/// unit's body and dependency hashes unchanged.
const TWO_METHODS_V1: &str = "class P {
    static int stable(int x) { return x * 3 + 1; }
    static int edited(int x) { return x + 1; }
}";
const TWO_METHODS_V2: &str = "class P {
    static int stable(int x) { return x * 3 + 1; }
    static int edited(int x) { return x + 2; }
}";

fn plan_for(src: &str) -> Vec<safetsa::driver::store::UnitPlan> {
    let p = Pipeline::new();
    let prog = p.frontend(&[src]).unwrap();
    let lowered = p.lower(&prog).unwrap();
    unit_plan(&lowered.module).unwrap()
}

#[test]
fn body_edit_invalidates_exactly_one_unit() {
    let a = plan_for(TWO_METHODS_V1);
    let b = plan_for(TWO_METHODS_V2);
    assert_eq!(a.len(), b.len());
    let find = |plan: &[safetsa::driver::store::UnitPlan], name: &str| {
        plan.iter()
            .find(|u| u.name == name)
            .cloned()
            .unwrap_or_else(|| panic!("no unit {name}"))
    };
    let (sa, sb) = (find(&a, "P.stable"), find(&b, "P.stable"));
    let (ea, eb) = (find(&a, "P.edited"), find(&b, "P.edited"));
    assert_eq!(sa.body_hash, sb.body_hash, "untouched body hash moved");
    assert_eq!(sa.deps_hash, sb.deps_hash, "untouched deps hash moved");
    assert_ne!(ea.body_hash, eb.body_hash, "edited body hash must move");
}

#[test]
fn layout_and_class_count_changes_invalidate_dependents() {
    // Adding a field to a referenced class changes the layout digest of
    // every unit that touches it.
    let base = plan_for(
        "class Box { int v; }
         class U { static int get(Box b) { return b.v; } }",
    );
    let grown = plan_for(
        "class Box { int v; int w; }
         class U { static int get(Box b) { return b.v; } }",
    );
    let get_base = base.iter().find(|u| u.name == "U.get").unwrap();
    let get_grown = grown.iter().find(|u| u.name == "U.get").unwrap();
    assert_ne!(
        get_base.deps_hash, get_grown.deps_hash,
        "field added to a referenced class must change the dep hash"
    );
    // Adding a class changes the symbol cardinality every type encoding
    // uses, so it must invalidate *all* units.
    let more_classes = plan_for(
        "class Box { int v; }
         class Extra { }
         class U { static int get(Box b) { return b.v; } }",
    );
    let get_more = more_classes.iter().find(|u| u.name == "U.get").unwrap();
    assert_ne!(
        get_base.deps_hash, get_more.deps_hash,
        "class count is part of every unit's dep hash"
    );
}

/// End-to-end: a warm `Pipeline` with a cache reuses every unit on an
/// identical rebuild, recompiles exactly one on a single-method edit,
/// and both warm outputs are byte-identical to cold builds.
#[test]
fn pipeline_cache_recompiles_only_the_edited_unit() {
    let dir = std::env::temp_dir().join(format!(
        "safetsa-incr-it-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_bytes = |src: &str| {
        let p = Pipeline::new();
        let m = p.compile_source(src).unwrap();
        p.encode(&m).unwrap()
    };

    // Cold populate.
    let p1 = Pipeline::new()
        .telemetry(Telemetry::enabled())
        .cache(&dir)
        .unwrap();
    // Three units: the two source methods plus the synthesized
    // `P.<init>` constructor body.
    let m1 = p1.compile_source(TWO_METHODS_V1).unwrap();
    let b1 = p1.encode(&m1).unwrap();
    assert_eq!(b1, cold_bytes(TWO_METHODS_V1));
    assert_eq!(p1.metrics().counter("cache.unit.hits"), Some(0));
    assert_eq!(p1.metrics().counter("cache.unit.misses"), Some(3));

    // Identical rebuild: every unit reused.
    let p2 = Pipeline::new()
        .telemetry(Telemetry::enabled())
        .cache(&dir)
        .unwrap();
    let m2 = p2.compile_source(TWO_METHODS_V1).unwrap();
    assert_eq!(p2.encode(&m2).unwrap(), b1);
    assert_eq!(p2.metrics().counter("cache.unit.hits"), Some(3));
    assert_eq!(p2.metrics().counter("cache.unit.misses"), Some(0));

    // One-method edit: exactly one unit recompiles, output still
    // byte-identical to a cold build of the edited source.
    let p3 = Pipeline::new()
        .telemetry(Telemetry::enabled())
        .cache(&dir)
        .unwrap();
    let m3 = p3.compile_source(TWO_METHODS_V2).unwrap();
    assert_eq!(p3.encode(&m3).unwrap(), cold_bytes(TWO_METHODS_V2));
    assert_eq!(p3.metrics().counter("cache.unit.hits"), Some(2));
    assert_eq!(p3.metrics().counter("cache.unit.misses"), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The counters of one compile that must not depend on the store:
/// every counter except the `cache.*` plane and `_ns` timings, as
/// sorted `name value` lines.
fn store_independent_counters(tm: &Telemetry) -> Vec<String> {
    tm.export_flat()
        .lines()
        .filter_map(|l| l.strip_prefix("c "))
        .filter(|l| {
            let name = l.split(' ').next().unwrap_or("");
            !name.starts_with("cache.") && !name.ends_with("_ns")
        })
        .map(str::to_string)
        .collect()
}

/// Corpus-wide: an uncached compile, a cold cached compile and a warm
/// cached compile encode the same bytes and export the same counters —
/// reused units replay their stored stats, and no counter comes from
/// work only one of the three paths does.
#[test]
fn cached_and_uncached_compiles_report_the_same_counters() {
    let root = std::env::temp_dir().join(format!(
        "safetsa-incr-parity-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    for entry in safetsa_bench::corpus() {
        let dir = root.join(entry.name);
        let compile = |p: Pipeline| {
            let m = p.compile_source(entry.source).unwrap();
            let counters = store_independent_counters(p.metrics());
            (p.encode(&m).unwrap(), counters)
        };
        let cached = || {
            Pipeline::new()
                .telemetry(Telemetry::enabled())
                .cache(&dir)
                .unwrap()
        };
        let (bytes, counters) = compile(Pipeline::new().telemetry(Telemetry::enabled()));
        assert!(
            counters.iter().any(|l| l.starts_with("opt.")),
            "{}: no opt counters exported",
            entry.name
        );
        for (how, p) in [("cold", cached()), ("warm", cached())] {
            let (b, c) = compile(p);
            assert_eq!(b, bytes, "{}: {how} cached bytes differ", entry.name);
            assert_eq!(c, counters, "{}: {how} cached counters differ", entry.name);
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Rewrites every unit record in `dir` into the pre-`/3` layout: three
/// sections (`section`, `stats`, `facts`) under `magic`. Returns how
/// many records were rewritten.
fn plant_old_layout_unit_records(dir: &std::path::Path, magic: &str) -> usize {
    let header = format!("{STORE_MAGIC}\nkind unit\n");
    let facts = "nullness_facts 1\nnullness_iterations 2\n";
    let mut planted = 0;
    for f in std::fs::read_dir(dir).unwrap() {
        let path = f.unwrap().path();
        let data = std::fs::read(&path).unwrap();
        let Some(rest) = data.strip_prefix(header.as_bytes()) else {
            continue;
        };
        // `rest` starts with the `key` line, then `sections 2`.
        let key_end = rest.iter().position(|&b| b == b'\n').unwrap() + 1;
        let (key_line, rest) = rest.split_at(key_end);
        let body = rest.strip_prefix(b"sections 2\n".as_slice()).unwrap();
        let mut old = format!("{magic}\nkind unit\n").into_bytes();
        old.extend_from_slice(key_line);
        old.extend_from_slice(b"sections 3\n");
        old.extend_from_slice(body);
        old.extend_from_slice(format!("facts {}\n{facts}\n", facts.len()).as_bytes());
        std::fs::write(&path, old).unwrap();
        planted += 1;
    }
    planted
}

/// Store corruption and version skew all read as misses, never errors:
/// truncated unit records, foreign files, `safetsa-cache/1` leftovers,
/// and unit records in the three-section `safetsa-cache/2` layout.
#[test]
fn corrupt_and_stale_entries_read_as_misses() {
    let dir = std::env::temp_dir().join(format!(
        "safetsa-incr-corrupt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // Open once just to create the directory the foreign files go in.
    let _store = Store::open(&dir, StoreOptions::default()).unwrap();

    // Foreign and v1-format files are ignored.
    std::fs::write(dir.join("0123456789abcdef.tsac"), b"safetsa-cache/1\nkey 0123456789abcdef\nbytes 3\nabcmetrics 0\n").unwrap();
    std::fs::write(dir.join("README.txt"), b"not a cache entry").unwrap();

    let p = Pipeline::new();
    let cold = p
        .encode(&p.compile_source(TWO_METHODS_V1).unwrap())
        .unwrap();
    let warm = Pipeline::new()
        .telemetry(Telemetry::enabled())
        .cache(&dir)
        .unwrap();
    let m = warm.compile_source(TWO_METHODS_V1).unwrap();
    assert_eq!(warm.encode(&m).unwrap(), cold);
    assert_eq!(warm.metrics().counter("cache.unit.misses"), Some(3));

    // Truncate every stored record: the next run misses everything and
    // still produces correct output.
    for f in std::fs::read_dir(&dir).unwrap() {
        let path = f.unwrap().path();
        let data = std::fs::read(&path).unwrap();
        if data.len() > 4 {
            std::fs::write(&path, &data[..data.len() / 2]).unwrap();
        }
    }
    let again = Pipeline::new()
        .telemetry(Telemetry::enabled())
        .cache(&dir)
        .unwrap();
    let m2 = again.compile_source(TWO_METHODS_V1).unwrap();
    assert_eq!(again.encode(&m2).unwrap(), cold);
    assert_eq!(again.metrics().counter("cache.unit.hits"), Some(0));

    // Unit records in the old three-section layout miss, whether they
    // carry the old magic or the current one; each unit recompiles and
    // the output is byte-identical to a cold build.
    for magic in ["safetsa-cache/2", STORE_MAGIC] {
        assert_eq!(plant_old_layout_unit_records(&dir, magic), 3);
        let old = Pipeline::new()
            .telemetry(Telemetry::enabled())
            .cache(&dir)
            .unwrap();
        let m3 = old.compile_source(TWO_METHODS_V1).unwrap();
        assert_eq!(old.encode(&m3).unwrap(), cold, "{magic}");
        let misses = old.metrics().counter("cache.unit.misses");
        assert_eq!(old.metrics().counter("cache.unit.hits"), Some(0), "{magic}");
        assert_eq!(misses, Some(3), "{magic}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
