//! Corpus-wide checks: every benchmark program compiles through the
//! full pipeline, verifies, round-trips the codec, and executes
//! identically under all three engines.

use safetsa_bench::{corpus, corpus_report, run_differential};

#[test]
fn all_corpus_programs_run_identically_everywhere() {
    for entry in corpus() {
        let out = run_differential(&entry);
        assert!(
            !out.is_empty(),
            "{}: corpus programs print their checksums",
            entry.name
        );
    }
}

#[test]
fn measurements_are_sane() {
    let (reports, _) = corpus_report(1, None);
    for r in &reports {
        let c = |path: &str| r.counter(path);
        let name = r.name;
        assert!(c("baseline.instrs") > 0, "{name}");
        let before = c("opt.instrs.before") + c("opt.phis.before");
        let after = c("opt.instrs.after") + c("opt.phis.after");
        assert!(before > 0, "{name}");
        assert!(
            after <= before,
            "{name}: optimization never grows the program"
        );
        assert!(
            c("codec.unoptimized_bytes") > 0 && c("baseline.class_file_bytes") > 0,
            "{name}"
        );
        assert!(
            c("opt.null_checks.after") <= c("opt.null_checks.before"),
            "{name}"
        );
        assert!(
            c("opt.index_checks.after") <= c("opt.index_checks.before"),
            "{name}"
        );
        assert!(c("ssa.phis_inserted") <= c("ssa.phis_candidate"), "{name}");
        assert!(c("baseline.verify.iterations") > 0, "{name}");
    }
}
