//! Exit-code contract of `tdals lint`: success on every generated
//! benchmark, failure on one seeded fixture per structural defect
//! class, and machine-readable JSON findings.

use std::process::Command;

use tdals::obs::json::Json;

fn tdals() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tdals"))
}

/// Runs `tdals lint` on inline Verilog via a temp file; returns
/// (status-success, stderr, stdout).
fn lint_source(tag: &str, source: &str, extra: &[&str]) -> (bool, String, String) {
    let dir = std::env::temp_dir().join(format!("tdals-lint-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("fixture.v");
    std::fs::write(&path, source).expect("write fixture");
    let out = tdals()
        .args(["lint", "--input", path.to_str().expect("utf8 path")])
        .args(extra)
        .output()
        .expect("run tdals lint");
    std::fs::remove_dir_all(&dir).ok();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn every_generated_benchmark_lints_clean() {
    for bench in tdals::circuits::ALL_BENCHMARKS {
        let out = tdals()
            .args([
                "lint",
                "--input",
                &format!("bench:{}", bench.name()),
                "--deny",
                "warnings",
            ])
            .output()
            .expect("run tdals lint");
        assert!(
            out.status.success(),
            "{} should lint clean:\n{}",
            bench.name(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("0 error(s), 0 warning(s)"),
            "{}: expected zero findings, got:\n{stderr}",
            bench.name()
        );
    }
}

#[test]
fn cycle_fixture_fails_with_located_finding() {
    let src = "module looped (a, y);\n\
               input a;\n output y;\n wire n1, n2;\n\
               AND2X1 u1 ( .Y(n1), .A(a), .B(n2) );\n\
               INVX1 u2 ( .Y(n2), .A(n1) );\n\
               assign y = n2;\n\
               endmodule\n";
    let (ok, stderr, _) = lint_source("cycle", src, &[]);
    assert!(!ok, "combinational loop must fail lint");
    assert!(stderr.contains("error[cycle]"), "stderr:\n{stderr}");
}

#[test]
fn undriven_net_fixture_fails() {
    let src = "module un (a, y);\n input a;\n output y;\n wire n1, ghost;\n\
               AND2X1 u1 ( .Y(n1), .A(a), .B(ghost) );\n assign y = n1;\n endmodule\n";
    let (ok, stderr, _) = lint_source("undriven", src, &[]);
    assert!(!ok, "undriven net must fail lint");
    assert!(stderr.contains("error[undriven-net]"), "stderr:\n{stderr}");
}

#[test]
fn multi_driven_net_fixture_fails() {
    let src = "module md (a, y);\n input a;\n output y;\n wire n1;\n\
               INVX1 u1 ( .Y(n1), .A(a) );\n\
               BUFX1 u2 ( .Y(n1), .A(a) );\n\
               assign y = n1;\n endmodule\n";
    let (ok, stderr, _) = lint_source("multi", src, &[]);
    assert!(!ok, "multiply-driven net must fail lint");
    assert!(
        stderr.contains("error[multi-driven-net]"),
        "stderr:\n{stderr}"
    );
}

#[test]
fn dangling_and_unreachable_fixture_fails_only_under_deny_warnings() {
    // u2 reads u1 but feeds nothing: u2 is a dangling wire, u1 an
    // unreachable gate (it has a reader, but no path to a PO). Both are
    // representable intermediate states — warnings, not errors.
    let src = "module dang (a, y);\n input a;\n output y;\n wire n1, n2, n3;\n\
               INVX1 u1 ( .Y(n1), .A(a) );\n\
               INVX1 u2 ( .Y(n2), .A(n1) );\n\
               BUFX1 u3 ( .Y(n3), .A(a) );\n\
               assign y = n3;\n endmodule\n";
    let (ok, stderr, _) = lint_source("dangling-ok", src, &[]);
    assert!(ok, "warnings alone must not fail lint:\n{stderr}");
    assert!(
        stderr.contains("warning[dangling-wire]"),
        "stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("warning[unreachable-gate]"),
        "stderr:\n{stderr}"
    );

    let (ok, stderr, _) = lint_source("dangling-deny", src, &["--deny", "warnings"]);
    assert!(!ok, "--deny warnings must fail on warnings:\n{stderr}");
}

#[test]
fn json_output_carries_rule_and_location() {
    let src = "module un (a, y);\n input a;\n output y;\n wire n1, ghost;\n\
               AND2X1 u1 ( .Y(n1), .A(a), .B(ghost) );\n assign y = n1;\n endmodule\n";
    let (ok, _, stdout) = lint_source("json", src, &["--json"]);
    assert!(!ok);
    let doc = Json::parse(&stdout).expect("valid JSON findings document");
    assert_eq!(
        doc.get("errors").and_then(Json::as_f64),
        Some(1.0),
        "doc: {doc}"
    );
    let findings = doc
        .get("findings")
        .and_then(Json::as_array)
        .expect("findings array");
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].get("rule").and_then(Json::as_str),
        Some("undriven-net")
    );
    assert!(
        findings[0]
            .get("line")
            .and_then(Json::as_f64)
            .is_some_and(|l| l >= 1.0),
        "parse findings carry source lines: {}",
        findings[0]
    );
}

#[test]
fn unreadable_input_is_a_run_error() {
    let out = tdals()
        .args(["lint", "--input", "/nonexistent/void.v"])
        .output()
        .expect("run tdals lint");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: reading"), "stderr:\n{stderr}");
    // A run error never reprints the usage block.
    assert!(!stderr.contains("usage:"), "stderr:\n{stderr}");
}
