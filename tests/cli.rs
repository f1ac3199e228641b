//! Integration tests for the `artemis` command-line tool.

use std::process::Command;

fn artemis() -> Command {
    Command::new(env!("CARGO_BIN_EXE_artemis"))
}

fn write_spec(content: &str) -> tempfile_lite::TempPath {
    tempfile_lite::write(content)
}

/// A tiny self-contained temp-file helper (no external crate).
mod tempfile_lite {
    use std::path::PathBuf;

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn write(content: &str) -> TempPath {
        let mut path = std::env::temp_dir();
        let unique = format!(
            "artemis-cli-test-{}-{}.spec",
            std::process::id(),
            content.len()
        );
        path.push(unique);
        let mut f = std::fs::File::create(&path).unwrap();
        std::io::Write::write_all(&mut f, content.as_bytes()).unwrap();
        TempPath(path)
    }
}

#[test]
fn check_accepts_a_valid_spec() {
    let spec = write_spec(
        "sense: { maxTries: 3 onFail: skipPath; }\n\
         send { collect: 2 dpTask: sense onFail: restartPath; }",
    );
    let out = artemis()
        .args(["check", spec.0.to_str().unwrap(), "--paths", "sense>send"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ok: 2 propert(ies), 2 machine(s)"),
        "{stdout}"
    );
}

#[test]
fn check_fails_on_contradictions() {
    let spec = write_spec("sense: { maxTries: 3 onFail: restartTask; }");
    let out = artemis()
        .args(["check", spec.0.to_str().unwrap(), "--paths", "sense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("guaranteed loop"), "{stderr}");
}

#[test]
fn check_reports_parse_errors_with_carets() {
    let spec = write_spec("sense: { maxTries onFail: skipPath; }");
    let out = artemis()
        .args(["check", spec.0.to_str().unwrap(), "--paths", "sense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("expected `:`"), "{stderr}");
    assert!(stderr.contains('^'), "{stderr}");
}

/// `ir`, `c` and `dot` are the emit targets; `rust`, a removed
/// backend, gets the unknown-target error.
#[test]
fn compile_emits_ir_c_and_rust() {
    let spec = write_spec("sense: { maxTries: 3 onFail: skipPath; }");
    let compile = |emit: &str| {
        artemis()
            .args([
                "compile",
                spec.0.to_str().unwrap(),
                "--paths",
                "sense",
                "--emit",
                emit,
            ])
            .output()
            .unwrap()
    };
    for (emit, needle) in [
        ("ir", "machine sense_maxTries_0 task sense"),
        ("c", "monitor_result_t callMonitor(MonitorEvent_t e)"),
        ("dot", "digraph monitors"),
    ] {
        let out = compile(emit);
        assert!(out.status.success(), "--emit {emit}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(needle), "--emit {emit}:\n{stdout}");
    }
    let out = compile("rust");
    assert!(!out.status.success(), "--emit rust: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown --emit `rust`"), "{stderr}");
}

#[test]
fn merged_paths_resolve_with_the_path_qualifier() {
    let spec = write_spec("send { collect: 1 dpTask: accel onFail: restartPath Path: 2; }");
    let out = artemis()
        .args([
            "check",
            spec.0.to_str().unwrap(),
            "--paths",
            "temp>send,accel>send",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn monitored_variable_syntax_in_paths() {
    let spec = write_spec("calc { dpData: avg Range: [36, 38] onFail: completePath; }");
    let out = artemis()
        .args([
            "check",
            spec.0.to_str().unwrap(),
            "--paths",
            "calc:avg>send",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn usage_on_bad_invocations() {
    for args in [vec![], vec!["frobnicate"], vec!["compile"]] {
        let out = artemis().args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

/// Every error read from text, a spec lex error, a `resolve` error and
/// an IR parse error, renders through `Diagnostic::render`: a
/// line/column header and a caret under the offending text.
#[test]
fn text_errors_render_with_line_column_and_caret() {
    let mut b = artemis::core::app::AppGraphBuilder::new();
    let sense = b.task("sense");
    b.path(&[sense]);
    let app = b.build().unwrap();

    let lex = "sense: {\n  maxTries: 3 $ onFail: skipPath; }";
    let resolve =
        "sense: { maxTries: 3 onFail: skipPath; }\nghost { maxTries: 1 onFail: skipTask; }";
    let ir = "machine m task sense persistent {\n  state S initial;\n  on startTask(sense) from S to T { };\n}";
    let rendered = [
        artemis::spec::compile(lex, &app).unwrap_err().render(lex),
        artemis::spec::compile(resolve, &app)
            .unwrap_err()
            .render(resolve),
        artemis::ir::parse::parse_suite(ir).unwrap_err().render(ir),
    ];
    assert_eq!(
        rendered,
        [
            "error at line 2, column 15: [parse] spec: unexpected character `$`\n\
             \x20 |   maxTries: 3 $ onFail: skipPath; }\n\
             \x20 |               ^\n",
            "error at line 2, column 1: [resolve] spec: unknown task `ghost`; declared tasks: sense\n\
             \x20 | ghost { maxTries: 1 onFail: skipTask; }\n\
             \x20 | ^^^^^\n",
            "error at line 3, column 33: [parse] IR: unknown state `T`\n\
             \x20 |   on startTask(sense) from S to T { };\n\
             \x20 |                                 ^\n",
        ]
    );
}
