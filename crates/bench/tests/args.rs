//! The bench binaries' command lines: each takes its own flags, as
//! `--flag v` or `--flag=v`, and a bad argument exits 2 with that
//! binary's usage line before any work runs.

use std::process::Command;

/// Runs `bin` with `args`: its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

fn assert_rejected(bin: &str, usage: &str, cases: &[&[&str]]) {
    for args in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
        assert!(stderr.ends_with(usage), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn table_binaries_reject_what_they_do_not_take() {
    assert_rejected(
        env!("CARGO_BIN_EXE_table8"),
        "usage: [scale] [--shards N] [--json PATH]\n",
        &[
            &["--baseline", "report.json"],
            &["--check-regression=0.2"],
            &["--shards"],
            &["--shards", "0"],
            &["--shards=two"],
            &["--json"],
            &["0.01x"],
            &["nan"],
            &["inf"],
        ],
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_table4"),
        "usage: [runs] [--shards N] [--json PATH]\n",
        &[&["--baseline=report.json"]],
    );
}

#[test]
fn hotpath_takes_its_two_flags() {
    assert_rejected(
        env!("CARGO_BIN_EXE_hotpath"),
        "usage: [scale] [--shards N] [--json PATH] [--baseline PATH] \
         [--check-regression FRAC]\n",
        &[
            &["--baseline"],
            &["--check-regression", "nan"],
            &["--check-regression=1.5"],
            &["--bogus"],
        ],
    );
    // A valid tolerance parses, and without a baseline it is refused
    // before any work runs.
    let (code, stderr) = run(env!("CARGO_BIN_EXE_hotpath"), &["--check-regression=0.2"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr, "error: --check-regression requires --baseline\n");
}
