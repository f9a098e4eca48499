//! Seeded mutation fuzzing of the manifest parsers.
//!
//! Each round takes one of the example manifests and applies a few
//! random edits — a number or token replaced by an extreme value or a
//! value of the wrong JSON type, a span deleted or duplicated, a
//! structural character inserted — then hands the text to the parser
//! that reads that manifest kind.  Every input must come back as `Ok` or
//! `Err`: a panic fails the test and prints the input that caused it,
//! and a stack overflow or a failed allocation aborts the test binary.
//! The inputs are a pure function of the seed, so a failure reproduces
//! exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bsc_bench::dse::parse_dse_manifest;
use bsc_bench::online::parse_online_manifest;
use bsc_bench::serve::parse_manifest;
use bsc_netlist::rng::Rng64;

/// Mutated inputs per base manifest.
const ROUNDS: usize = 2_000;

/// Values spliced over number and string tokens: the edges of every
/// integer and float range the parsers accept, and values of the wrong
/// JSON type.
const EXTREMES: &[&str] = &[
    "0", "1", "-1", "-0", "0.5", "1e400", "-1e400", "1e-400", "4096", "4097", "65536",
    "4294967296", "9007199254740993", "18446744073709551615", "18446744073709551616",
    "1e19", "1e308", "true", "null", "\"\"", "\"x\"", "[]", "{}", "[[]]", "{\"a\":{}}",
];

/// Characters a structural insertion draws from.
const STRUCTURE: &[u8] = b"{}[],:\"0-e. \\";

/// The byte ranges of every number and string token in `text`.
fn tokens(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(bytes.len());
                out.push((start, i));
            }
            b'-' | b'0'..=b'9' => {
                let numeric = |c: u8| matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9');
                while i < bytes.len() && numeric(bytes[i]) {
                    i += 1;
                }
                out.push((start, i));
            }
            _ => i += 1,
        }
    }
    out
}

/// One random edit of `text`.  Every edit keeps the text valid UTF-8:
/// the manifests are ASCII and every splice is ASCII.
fn mutate(text: &str, rng: &mut Rng64) -> String {
    let len = text.len().max(1);
    match rng.gen_range(0..5u32) {
        0 | 1 => {
            let toks = tokens(text);
            if toks.is_empty() {
                return text.to_owned();
            }
            let (a, b) = toks[rng.gen_range(0..toks.len())];
            let with = EXTREMES[rng.gen_range(0..EXTREMES.len())];
            format!("{}{with}{}", &text[..a], &text[b..])
        }
        2 => {
            let a = rng.gen_range(0..len);
            let b = (a + rng.gen_range(1..16usize)).min(text.len());
            format!("{}{}", &text[..a], &text[b..])
        }
        3 => {
            let a = rng.gen_range(0..len);
            let b = (a + rng.gen_range(1..64usize)).min(text.len());
            let at = rng.gen_range(0..=text.len());
            format!("{}{}{}", &text[..at], &text[a..b], &text[at..])
        }
        _ => {
            let at = rng.gen_range(0..=text.len());
            let c = STRUCTURE[rng.gen_range(0..STRUCTURE.len())] as char;
            format!("{}{c}{}", &text[..at], &text[at..])
        }
    }
}

/// Runs `parse` on every input, failing on the first panic with the
/// input that caused it.  The unmutated base manifest leads the inputs
/// and must parse.
fn assert_never_panics<T>(name: &str, inputs: &[String], parse: fn(&str) -> Result<T, String>) {
    if let Err(e) = parse(&inputs[0]) {
        panic!("{name}: the base manifest does not parse: {e}");
    }
    for input in inputs {
        if catch_unwind(AssertUnwindSafe(|| parse(input))).is_err() {
            panic!("{name} parser panicked on:\n{input}");
        }
    }
}

/// The base manifest, its mutants, and two documents nested far past
/// the JSON parser's depth limit.
fn inputs(base: &str, seed: u64) -> Vec<String> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut out = vec![base.to_owned()];
    for _ in 0..ROUNDS {
        let mut text = base.to_owned();
        for _ in 0..rng.gen_range(1..4u32) {
            text = mutate(&text, &mut rng);
        }
        out.push(text);
    }
    out.push("[".repeat(100_000));
    out.push("{\"jobs\":".repeat(100_000));
    out
}

fn example(name: &str) -> String {
    let path = format!("{}/examples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn mutated_manifests_parse_or_fail_without_panicking() {
    assert_never_panics("serve", &inputs(&example("serve_manifest.json"), 1), parse_manifest);
    for (i, name) in ["online_manifest.json", "profile_manifest.json"].into_iter().enumerate() {
        assert_never_panics("online", &inputs(&example(name), 2 + i as u64), parse_online_manifest);
    }
    assert_never_panics("dse", &inputs(&example("dse_manifest.json"), 4), parse_dse_manifest);
}
