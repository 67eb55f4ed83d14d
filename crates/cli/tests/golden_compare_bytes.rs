//! Byte-level pre-refactor goldens: `aarc compare --format json` on every
//! committed spec must be *byte-identical* to the output captured before
//! the EvalService/ask-tell refactor (`tests/goldens/compare_<name>.json`),
//! at `--threads 1` and `--threads 8`.
//!
//! This is the refactor's contract: moving the worker pool, memo-cache and
//! scratch arenas into a process-wide service, and the search methods onto
//! ask/tell strategies behind the `SearchDriver`, must not change a single
//! byte — results, trace, cache statistics or serialization.
//!
//! `aarc run --format json` is pinned the same way, for every method on
//! `specs/chatbot.yaml` (`tests/goldens/run_chatbot_<method>.json`), at
//! `--threads 1` and `--threads 4`.

use std::path::PathBuf;
use std::process::Command;

const SPECS: [&str; 5] = [
    "chatbot",
    "ml_pipeline",
    "video_analysis",
    "synthetic_dense",
    "synthetic_fanout",
];

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/goldens")
            .join(name),
    )
    .expect("committed golden exists")
}

fn json_bytes(subcommand: &str, spec: &str, threads: &str, extra: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_aarc"))
        .args([subcommand, "--threads", threads, "--format", "json"])
        .args(extra)
        .arg("--spec")
        .arg(repo_path(&format!("specs/{spec}.yaml")))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{subcommand} failed on {spec}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn compare_is_byte_identical_to_the_pre_refactor_goldens() {
    for spec in SPECS {
        let golden = golden(&format!("compare_{spec}.json"));
        for threads in ["1", "8"] {
            let current = json_bytes("compare", spec, threads, &[]);
            assert!(
                current == golden,
                "{spec} at --threads {threads} drifted from the pre-refactor golden \
                 (lengths {} vs {})",
                current.len(),
                golden.len()
            );
        }
    }
}

#[test]
fn run_is_byte_identical_to_its_goldens_for_every_method() {
    for method in ["aarc", "bo", "maff", "random"] {
        let golden = golden(&format!("run_chatbot_{method}.json"));
        for threads in ["1", "4"] {
            let current = json_bytes("run", "chatbot", threads, &["--method", method]);
            assert!(
                current == golden,
                "run --method {method} at --threads {threads} drifted from its golden \
                 (lengths {} vs {})",
                current.len(),
                golden.len()
            );
        }
    }
}
