//! Drive the interactive shell binary end to end through a pipe — the
//! closest thing to the original demo's web front-end smoke test.

use std::io::Write;
use std::process::{Command, Stdio};

/// Run `script` through the shell binary cargo built for these tests and
/// return its stdout, requiring a clean exit.
fn run_shell(script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_maybms-shell"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn shell");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("shell exits");
    assert!(out.status.success(), "shell exited with {:?}", out.status);
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn shell_runs_a_session() {
    let stdout = run_shell(
        "\
create table t (a bigint, w double precision);
insert into t values (1, 1.0), (2, 3.0);
select a, conf() as p from (repair key in t weight by w) r group by a;
\\d
\\w
bad sql here;
\\q
",
    );
    assert!(stdout.contains("CREATE TABLE"), "{stdout}");
    assert!(stdout.contains("INSERT 2"), "{stdout}");
    assert!(stdout.contains("0.25"), "{stdout}");
    assert!(stdout.contains("0.75"), "{stdout}");
    assert!(stdout.contains("t-certain"), "{stdout}");
    assert!(stdout.contains("possible worlds"), "{stdout}");
    // Errors are reported inline, not fatal.
    assert!(stdout.contains("error"), "{stdout}");
}

/// Both result kinds print through the one renderer: a t-certain result
/// as its data columns and a `rows` footer, an uncertain one with the
/// `condition` and `P` columns and a `tuples` footer.
#[test]
fn shell_renders_certain_and_uncertain_results() {
    let stdout = run_shell(
        "\
create table t (a bigint, w double precision);
insert into t values (1, 1.0), (2, 3.0);
select a, w from t order by a;
select * from (repair key in t weight by w) r;
\\q
",
    );
    let certain = "\
+---+-----+
| a | w   |
+---+-----+
| 1 | 1.0 |
| 2 | 3.0 |
+---+-----+
(2 rows)
";
    assert!(stdout.contains(certain), "{stdout}");
    let header = stdout
        .lines()
        .find(|l| l.contains("condition"))
        .unwrap_or_else(|| panic!("no uncertain header in {stdout}"));
    let cells: Vec<&str> = header.split('|').map(str::trim).collect();
    assert_eq!(cells, ["", "a", "w", "condition", "P", ""], "{stdout}");
    assert!(
        stdout.contains("0.250000") && stdout.contains("0.750000"),
        "{stdout}"
    );
    assert!(stdout.contains("(2 tuples)\n"), "{stdout}");
}
