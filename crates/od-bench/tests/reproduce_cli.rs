//! The `reproduce` command line: unknown experiment ids and options are
//! rejected with exit status 2 instead of running nothing and succeeding.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary starts")
}

#[test]
fn rejected_command_lines_exit_with_status_2() {
    let cases: [(&[&str], &str); 5] = [
        (&["e17"], "unknown experiment e17"),
        (&["e1", "--bogus"], "unknown option --bogus"),
        (&["e14", "--rows"], "--rows requires a numeric value"),
        (&["e13", "--max-context", "deep"], "--max-context requires"),
        (&["e12", "--metrics-out"], "--metrics-out requires"),
    ];
    for (args, message) in cases {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        // Nothing ran: the harness banner is printed only after parsing.
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_valid_experiment_id_runs_and_exits_0() {
    let out = reproduce(&["e1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## E1 "), "{stdout}");
    assert!(
        !stdout.contains("## E2 "),
        "only the selected experiment runs: {stdout}"
    );
}
