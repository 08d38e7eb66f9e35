//! `mta-run` input handling: every malformed command line exits 1 with the
//! usage line on stderr — never a panic (exit 101) — while a good one runs.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A tiny valid program, written under a per-test file name.
fn program(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("mta_run_cli_{name}.asm"));
    std::fs::write(&path, "        li r2, 7\n        halt\n").expect("write test program");
    path
}

fn mta_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mta-run"))
        .args(args)
        .output()
        .expect("run mta-run")
}

#[test]
fn bad_inputs_print_usage_and_exit_1() {
    let prog = program("bad");
    let prog = prog.to_str().expect("utf-8 temp path");
    let cases: &[&[&str]] = &[
        &[],
        &[prog, "--bogus"],
        &[prog, "extra.asm"],
        &[prog, "--procs"],
        &[prog, "--procs", "two"],
        &[prog, "--procs", "0"],
        &[prog, "--streams", "0"],
        &[prog, "--lookahead", "-1"],
        &[prog, "--arg"],
        &[prog, "--empty", "99999999"],
        &[prog, "--empty", "x"],
        &[prog, "--dump", "4194300..4194310"],
        &[prog, "--dump", "10"],
        &[prog, "--dump", "10..a"],
        &[prog, "--dump", "20..10"],
        &["/nonexistent/prog.asm"],
    ];
    for args in cases {
        let out = mta_run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: mta-run"), "{args:?}: {stderr}");
    }
}

#[test]
fn good_inputs_run_to_completion() {
    let prog = program("good");
    let prog = prog.to_str().expect("utf-8 temp path");
    let out = mta_run(&[
        prog,
        "--procs",
        "2",
        "--streams",
        "4",
        "--empty",
        "4194303",
        "--dump",
        "4194300..4194304",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("cycles "), "{stdout}");
    assert_eq!(stdout.matches("mem[").count(), 4, "{stdout}");

    let help = mta_run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stderr).contains("usage: mta-run"));
}
