//! Set-up shared by every workload: the corpus, its reference results
//! from the baseline stack interpreter (the oracle), the shipped `.tsa`
//! artifacts checked against that oracle, and the seeded input
//! generators.

use safetsa_codec::{decode_and_verify, HostEnv};
use safetsa_driver::Pipeline;
use safetsa_rt::Value;
use safetsa_vm::Vm;

/// Instruction budget for oracle and check runs.
const CHECK_FUEL: u64 = 500_000_000;

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// FNV-1a over the generated inputs, printed so a seed's inputs can be
/// compared across runs.
#[derive(Debug, Clone, Copy)]
pub struct InputHash(pub u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xcbf2_9ce4_8422_2325)
    }
}

impl InputHash {
    /// Folds bytes into the hash.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a number into the hash.
    pub fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
}

/// What a program must print and return, from the baseline interpreter.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Printed output.
    pub output: String,
    /// Return value of the entry point.
    pub result: Option<Value>,
    /// Instructions the baseline interpreter executed: how long-running
    /// the program is, independent of the SafeTSA VM.
    pub steps: u64,
}

impl Expected {
    /// Whether an execution outcome matches, comparing values bit for bit.
    pub fn matches(&self, output: &str, result: Option<Value>) -> bool {
        output == self.output
            && match (self.result, result) {
                (Some(a), Some(b)) => a.bits_eq(b),
                (None, None) => true,
                _ => false,
            }
    }

    /// The `result` string a serve `run` response carries.
    pub fn result_text(&self) -> Option<String> {
        self.result.map(|v| format!("{v:?}"))
    }
}

/// One corpus program with everything set-up derived from it.
#[derive(Debug, Clone)]
pub struct Program {
    /// Corpus name.
    pub name: &'static str,
    /// Source text.
    pub source: &'static str,
    /// Entry point, `Class.method`.
    pub entry: &'static str,
    /// The oracle's reference outcome.
    pub expected: Expected,
    /// Optimised `.tsa` bytes, decoded, run and checked against the oracle.
    pub opt_bytes: Vec<u8>,
    /// Unoptimised `.tsa` bytes, checked the same way.
    pub unopt_bytes: Vec<u8>,
    /// Baseline class-file bytes (Figure 5's comparison column).
    pub class_bytes: usize,
}

/// The checked corpus.
pub struct Corpus {
    /// Programs in corpus order.
    pub programs: Vec<Program>,
    /// The consumer's host environment.
    pub host: HostEnv,
}

impl Corpus {
    /// Optimised wire bytes of one corpus pass (Figure 5).
    pub fn wire_bytes(&self) -> usize {
        self.programs.iter().map(|p| p.opt_bytes.len()).sum()
    }

    /// Source bytes of one corpus pass.
    pub fn source_bytes(&self) -> usize {
        self.programs.iter().map(|p| p.source.len()).sum()
    }
}

fn oracle(source: &str, entry: &str) -> Result<(Expected, usize), String> {
    use safetsa_baseline::{classfile, compile, interp, verify};
    let prog = safetsa_frontend::compile(source).map_err(|e| e.to_string())?;
    let mut code = compile::compile_program(&prog);
    verify::verify_program(&prog, &mut code).map_err(|e| e.to_string())?;
    let class_bytes = classfile::total_size(&prog, &code);
    let mut vm = interp::Bvm::load(&prog, &code);
    vm.set_fuel(CHECK_FUEL);
    let result = vm.run_entry(entry).map_err(|e| e.to_string())?;
    // The baseline widens booleans and chars to int on its stack.
    let result = result.map(|v| match v {
        Value::Z(b) => Value::I(i32::from(b)),
        Value::C(c) => Value::I(c as i32),
        other => other,
    });
    let output = vm.output.text().to_string();
    let steps = vm.steps;
    Ok((
        Expected {
            output,
            result,
            steps,
        },
        class_bytes,
    ))
}

/// Decodes, verifies and runs `bytes`, returning output and result.
pub fn execute(
    bytes: &[u8],
    host: &HostEnv,
    entry: &str,
) -> Result<(String, Option<Value>), String> {
    let m = decode_and_verify(bytes, host).map_err(|e| e.to_string())?;
    let mut vm = Vm::load(&m).map_err(|e| e.to_string())?;
    vm.set_fuel(CHECK_FUEL);
    let r = vm.run_entry(entry).map_err(|e| e.to_string())?;
    Ok((vm.output.text().to_string(), r))
}

fn checked_artifact(
    pl: &Pipeline,
    p: &safetsa_bench::CorpusEntry,
    host: &HostEnv,
    want: &Expected,
) -> Result<Vec<u8>, String> {
    let m = pl
        .compile_source(p.source)
        .map_err(|e| format!("{}: {e}", p.name))?;
    let bytes = pl.encode(&m).map_err(|e| format!("{}: {e}", p.name))?;
    let (out, r) = execute(&bytes, host, p.entry).map_err(|e| format!("{}: {e}", p.name))?;
    if !want.matches(&out, r) {
        return Err(format!(
            "{}: SafeTSA result differs from the baseline oracle",
            p.name
        ));
    }
    Ok(bytes)
}

/// Builds and checks the corpus: oracle outcomes from the baseline
/// interpreter, then optimised and unoptimised artifacts that must
/// decode, verify and reproduce them.
pub fn corpus() -> Result<Corpus, String> {
    let host = HostEnv::standard();
    let opt = Pipeline::new();
    let unopt = Pipeline::new().no_optimize();
    let mut programs = Vec::new();
    for p in safetsa_bench::corpus() {
        let (expected, class_bytes) =
            oracle(p.source, p.entry).map_err(|e| format!("{}: oracle: {e}", p.name))?;
        let opt_bytes = checked_artifact(&opt, &p, &host, &expected)?;
        let unopt_bytes = checked_artifact(&unopt, &p, &host, &expected)?;
        programs.push(Program {
            name: p.name,
            source: p.source,
            entry: p.entry,
            expected,
            opt_bytes,
            unopt_bytes,
            class_bytes,
        });
    }
    Ok(Corpus { programs, host })
}

/// Seeded visiting order for closed-loop pass `pass`: every program
/// once per pass, so every program runs equally often.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    Rng::new(seed, 0x100 + pass).permutation(n)
}

/// Hash of the first `passes` pass orders.
pub fn order_hash(seed: u64, passes: u64, n: usize, h: &mut InputHash) {
    for pass in 0..passes {
        for i in pass_order(seed, pass, n) {
            h.num(i as u64);
        }
    }
}

/// How a `verify` stream was made, and so which verdict it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// A shipped artifact: must be accepted.
    Valid,
    /// A strict prefix of one: must be rejected.
    Truncated,
    /// One with 1-3 bits flipped: either verdict, but no panic.
    Flipped,
}

/// One stream of the `verify` workload.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The bytes.
    pub bytes: Vec<u8>,
    /// How they were made.
    pub kind: StreamKind,
}

/// Copies of every valid stream per verify cycle: valid streams are
/// half of a cycle and truncations and flips a quarter each.
const VALID_COPIES: usize = 6;

impl Corpus {
    /// Every optimised and unoptimised artifact.
    pub fn artifacts(&self) -> Vec<&[u8]> {
        self.programs
            .iter()
            .flat_map(|p| [p.opt_bytes.as_slice(), p.unopt_bytes.as_slice()])
            .collect()
    }
}

/// The `verify` stream set: every artifact [`VALID_COPIES`] times, plus
/// as many seeded truncations and seeded bit flips as a quarter of the
/// set each.
pub fn verify_streams(artifacts: &[&[u8]], seed: u64) -> Vec<Stream> {
    let mut out = Vec::new();
    for _ in 0..VALID_COPIES {
        out.extend(artifacts.iter().map(|a| Stream {
            bytes: a.to_vec(),
            kind: StreamKind::Valid,
        }));
    }
    let quarter = artifacts.len() * VALID_COPIES / 2;
    let mut rng = Rng::new(seed, 0x200);
    for _ in 0..quarter {
        let a = artifacts[rng.below(artifacts.len())];
        out.push(Stream {
            bytes: a[..rng.below(a.len())].to_vec(),
            kind: StreamKind::Truncated,
        });
    }
    for _ in 0..quarter {
        let mut b = artifacts[rng.below(artifacts.len())].to_vec();
        let nbits = b.len() * 8;
        let mut flipped: Vec<usize> = Vec::new();
        let want = 1 + rng.below(3);
        while flipped.len() < want {
            let bit = rng.below(nbits);
            if !flipped.contains(&bit) {
                flipped.push(bit);
                b[bit / 8] ^= 1 << (bit % 8);
            }
        }
        out.push(Stream {
            bytes: b,
            kind: StreamKind::Flipped,
        });
    }
    out
}

/// Hash of the verify stream set.
pub fn streams_hash(streams: &[Stream], h: &mut InputHash) {
    for s in streams {
        h.num(s.kind as u64);
        h.num(s.bytes.len() as u64);
        h.bytes(&s.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_cover_every_program_once() {
        let mut p = pass_order(3, 5, 21);
        p.sort_unstable();
        assert_eq!(p, (0..21).collect::<Vec<_>>());
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(2, 2).next_u64());
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(1, 3).next_u64());
        let mut r = Rng::new(9, 9);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    fn hash_of(f: impl FnOnce(&mut InputHash)) -> u64 {
        let mut h = InputHash::default();
        f(&mut h);
        h.0
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let orders = |seed| hash_of(|h| order_hash(seed, 64, 21, h));
        assert_eq!(orders(1), orders(1));
        assert_ne!(orders(1), orders(2));
        let a: Vec<u8> = (0..200).collect();
        let b: Vec<u8> = (0..150).rev().collect();
        let arts = [a.as_slice(), b.as_slice()];
        let streams = |seed| hash_of(|h| streams_hash(&verify_streams(&arts, seed), h));
        assert_eq!(streams(1), streams(1));
        assert_ne!(streams(1), streams(2));
    }

    #[test]
    fn verify_streams_are_half_valid_quarter_truncated_quarter_flipped() {
        let a: Vec<u8> = (0..64).collect();
        let arts = [a.as_slice(), a.as_slice()];
        let s = verify_streams(&arts, 7);
        let count = |k| s.iter().filter(|x| x.kind == k).count();
        assert_eq!(count(StreamKind::Valid), 2 * VALID_COPIES);
        assert_eq!(count(StreamKind::Truncated), VALID_COPIES);
        assert_eq!(count(StreamKind::Flipped), VALID_COPIES);
        for x in &s {
            match x.kind {
                StreamKind::Valid => assert_eq!(x.bytes, a),
                StreamKind::Truncated => {
                    assert!(x.bytes.len() < a.len() && a.starts_with(&x.bytes))
                }
                StreamKind::Flipped => {
                    let bits: u32 = x
                        .bytes
                        .iter()
                        .zip(&a)
                        .map(|(p, q)| (p ^ q).count_ones())
                        .sum();
                    assert!((1..=3).contains(&bits));
                }
            }
        }
    }
}
