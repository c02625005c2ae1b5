//! Verdict pinning for the consumer: every corpus artifact, optimised
//! and unoptimised, plus a fixed seeded set of truncations and 1–3-bit
//! flips of each, must get exactly the verdict recorded in
//! `tests/golden/decode_verdicts.txt`, and no stream may panic.
//!
//! The golden holds one line per artifact: its name, then one symbol
//! per stream — the unmodified artifact first, then the mutants in
//! generation order:
//!
//! * `1` — decoded, verified and loaded;
//! * `L` — decoded and verified, but `Vm::load` refused it;
//! * `.` — rejected by `decode_and_verify`.
//!
//! A decoder rewrite must keep every symbol: a rejected stream turning
//! into an accepted one is a hole in the trust boundary, and the
//! reverse is a regression in what the consumer accepts. Regenerate
//! with `UPDATE_GOLDEN=1 cargo test --test decode_verdicts` only when
//! the wire format itself changes.

use safetsa::codec::{decode_and_verify, HostEnv};
use safetsa::Pipeline;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

const TRUNCATIONS: usize = 8;
const FLIPS: usize = 24;

/// splitmix64: a tiny, fixed generator so the mutant set never moves.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The unmodified artifact, then its seeded truncations and flips.
fn streams(artifact: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed);
    let mut out = vec![artifact.to_vec()];
    for _ in 0..TRUNCATIONS {
        out.push(artifact[..rng.below(artifact.len())].to_vec());
    }
    let nbits = artifact.len() * 8;
    for _ in 0..FLIPS {
        let mut b = artifact.to_vec();
        let mut flipped = Vec::new();
        let want = 1 + rng.below(3);
        while flipped.len() < want {
            let bit = rng.below(nbits);
            if !flipped.contains(&bit) {
                flipped.push(bit);
                b[bit / 8] ^= 1 << (bit % 8);
            }
        }
        out.push(b);
    }
    out
}

fn verdict(bytes: &[u8], host: &HostEnv) -> char {
    match decode_and_verify(bytes, host) {
        Ok(m) if safetsa::vm::Vm::load(&m).is_ok() => '1',
        Ok(_) => 'L',
        Err(_) => '.',
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/decode_verdicts.txt")
}

#[test]
fn corpus_mutant_verdicts_match_golden() {
    let host = HostEnv::standard();
    let mut lines = Vec::new();
    let mut seed = 0u64;
    for entry in safetsa_bench::corpus() {
        for (tag, pipeline) in [
            ("opt", Pipeline::new()),
            ("unopt", Pipeline::new().no_optimize()),
        ] {
            let m = pipeline.compile_source(entry.source).unwrap();
            let artifact = pipeline.encode(&m).unwrap();
            seed += 1;
            let mut line = format!("{}.{tag} ", entry.name);
            for (i, s) in streams(&artifact, seed).iter().enumerate() {
                let v = catch_unwind(AssertUnwindSafe(|| verdict(s, &host)))
                    .unwrap_or_else(|_| panic!("{}.{tag} stream {i} panicked", entry.name));
                line.push(v);
            }
            assert!(
                line.as_bytes()[line.find(' ').unwrap() + 1] == b'1',
                "{}.{tag}: the valid artifact is not accepted",
                entry.name
            );
            lines.push(line);
        }
    }
    let actual = lines.join("\n") + "\n";
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDEN=1 cargo test --test decode_verdicts",
            path.display()
        )
    });
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(want, got, "decode verdicts drifted from {}", path.display());
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}
