//! `repro`'s argument handling, through the built binary: a bad option or
//! artifact id, or an option the mode does not use, fails before any world
//! is built or file written, and `--help` documents every option the
//! parser matches. Also `serve` and `soak --endpoints` as two processes,
//! and the stages of `soak`'s host profile.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

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

/// Kills the child on drop, so a failed assertion leaves no server running.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn soak_drives_a_serve_in_another_process_and_verifies_every_answer() {
    let dir = out_dir("two-process");
    std::fs::create_dir_all(&dir).unwrap();
    let endpoints = dir.join("ep.txt");
    let ep = endpoints.to_str().unwrap();
    let mut serve = Reaped(
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["serve", "--scale", "quick", "--max-queries", "500"])
            .args(["--endpoints", ep, "--quiet"])
            .stdout(Stdio::null())
            .spawn()
            .expect("start repro serve"),
    );
    // `serve` writes the file once every socket is bound.
    for _ in 0..600 {
        if std::fs::metadata(&endpoints).is_ok_and(|m| m.len() > 0) {
            break;
        }
        assert!(
            serve.0.try_wait().unwrap().is_none(),
            "serve exited before writing its endpoints"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let soak = repro(&["soak", "--endpoints", ep, "--queries", "500", "--quiet"]);
    let stdout = String::from_utf8_lossy(&soak.stdout);
    assert_eq!(soak.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("500 answered") && stdout.contains(" 0 mismatches"),
        "{stdout}"
    );
    assert!(stdout.contains("ground truth clean"), "{stdout}");
    // Its 500 answers end the server.
    assert_eq!(serve.0.wait().unwrap().code(), Some(0));
}

#[test]
fn soak_with_a_missing_endpoints_file_exits_2() {
    let missing = out_dir("no-endpoints").join("ep.txt");
    let run = repro(&["soak", "--endpoints", missing.to_str().unwrap()]);
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("ep.txt"));
}

#[test]
fn soak_endpoints_rejects_every_server_side_option_by_name() {
    // The file does not exist: each option must be refused before it is read.
    let missing = out_dir("server-side").join("ep.txt");
    let ep = missing.to_str().unwrap();
    for option in [
        &["--scale", "quick"][..],
        &["--seed", "7"],
        &["--ecs"],
        &["--era", "3g"],
        &["--fault-profile", "stress"],
        &["--metrics-out", "m.json"],
    ] {
        let mut args = vec!["soak", "--endpoints", ep];
        args.extend_from_slice(option);
        let run = repro(&args);
        assert_eq!(run.status.code(), Some(2), "{option:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains(option[0]) && !stderr.contains("cannot read"),
            "{option:?}: {stderr}"
        );
    }
}

#[test]
fn serve_and_soak_reject_the_options_they_do_not_use_by_name() {
    let out = out_dir("mode-options");
    let endpoints = out.join("ep.txt");
    let ep = endpoints.to_str().unwrap();
    let campaign_only = [
        &["--threads", "2"][..],
        &["--progress"],
        &["--metrics"],
        &["--no-metrics"],
    ];
    let soak_only = [
        &["--queries", "10"][..],
        &["--chaos", "mild"],
        &["--profile-out", "p.json"],
        &["--metrics-out", "m.json"],
    ];
    let soak_out = ["--out", ep];
    let cases = campaign_only
        .iter()
        .chain(&soak_only)
        .map(|o| ("serve", *o))
        .chain(campaign_only.iter().map(|o| ("soak", *o)))
        .chain([("soak", &soak_out[..]), ("soak", &["--max-queries", "5"])])
        // A soak runs flat out over the default mix and always verifies, so
        // it has no pacing, mix or verify switch.
        .chain([
            ("soak", &["--qps", "100"][..]),
            ("soak", &["--no-verify"]),
            ("soak", &["--miss-per-mille", "5"]),
        ]);
    for (mode, option) in cases {
        let mut args = vec![mode, "--scale", "quick", "--endpoints", ep];
        if mode == "soak" {
            // In process: no endpoints file to read.
            args.truncate(3);
        }
        args.extend_from_slice(option);
        let run = repro(&args);
        assert_eq!(run.status.code(), Some(2), "{mode} {option:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(option[0]), "{mode} {option:?}: {stderr}");
        assert!(!out.exists(), "{mode} {option:?} bound a server");
    }
}

#[test]
fn a_campaign_rejects_the_serving_options_by_name() {
    let out = out_dir("campaign-options");
    for option in [
        &["--queries", "10"][..],
        &["--chaos", "mild"],
        &["--profile-out", "p.json"],
        &["--metrics-out", "m.json"],
        &["--max-queries", "5"],
        &["--endpoints", "ep.txt"],
    ] {
        let mut args = vec!["fig2", "--scale", "quick", "--out", out.to_str().unwrap()];
        args.extend_from_slice(option);
        let run = repro(&args);
        assert_eq!(run.status.code(), Some(2), "{option:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(option[0]), "{option:?}: {stderr}");
        assert!(!out.exists(), "no output directory for a rejected command");
    }
}

#[test]
fn soak_profiles_the_wire_and_the_verification_as_separate_stages() {
    let run = repro(&["soak", "--scale", "quick", "--queries", "300"]);
    assert_eq!(run.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("soak wire") && stderr.contains("soak verify"),
        "{stderr}"
    );
}
