//! `repro`'s argument handling, through the built binary: a bad option or
//! artifact id fails before any world is built or file written, and
//! `--help` documents every option the parser matches.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// A fresh, not yet existing output directory for one test.
fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("repro-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_mistyped_option_exits_2_before_writing_anything() {
    let out = out_dir("typo");
    let run = repro(&[
        "--scale",
        "quick",
        "--thread",
        "2",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("--thread"));
    assert!(!out.exists(), "no output directory for a rejected command");
}

#[test]
fn an_unknown_artifact_exits_2_before_writing_anything() {
    let out = out_dir("artifact");
    let run = repro(&["fig99", "--scale", "quick", "--out", out.to_str().unwrap()]);
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("fig99"));
    assert!(!out.exists(), "no output directory for a rejected command");
}

#[test]
fn help_exits_0_and_names_every_option_the_parser_matches() {
    let run = repro(&["--help"]);
    assert_eq!(run.status.code(), Some(0));
    let help = String::from_utf8(run.stdout).expect("utf-8 help");
    // Every quoted `--option` in the parser's source is a match arm.
    let source = include_str!("../src/main.rs");
    let options: Vec<&str> = source
        .split('"')
        .filter(|s| s.starts_with("--") && s.len() > 2 && !s.contains(' '))
        .collect();
    assert!(options.len() >= 20, "found only {options:?}");
    for option in options {
        assert!(help.contains(option), "--help does not mention {option}");
    }
    for id in ["all", "fig2", "failures", "report"] {
        assert!(help.contains(id), "--help does not list artifact {id}");
    }
}
