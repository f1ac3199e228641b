//! The `artemis` command-line tool: compile and check property
//! specifications without writing a host program.
//!
//! ```text
//! artemis compile <spec-file> --paths sense>send [--emit ir|c|dot]
//! artemis check   <spec-file> --paths sense>send
//! artemis demo    [charging-minutes]
//! ```
//!
//! `check` and `compile` run the front end's stages in install order
//! (`artemis_ir::lint`: parse, resolve, consistency, lowering,
//! validation, compilation and the analysis passes) and print every
//! finding; any error fails them, so a spec that checks clean is one
//! the engine installs.
//!
//! `--paths` lists paths separated by commas; tasks within a path are
//! separated by `>`. A task that carries a monitored variable (for
//! `dpData`) is written `name:var`.

use std::process::ExitCode;

use artemis::core::app::{AppGraph, AppGraphBuilder};
use artemis::ir;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  artemis compile <spec-file> --paths a>b,c>b [--emit ir|c|dot]\n  \
         artemis check   <spec-file> --paths a>b,c>b\n  \
         artemis demo    [charging-minutes]\n\n\
         path syntax: tasks separated by `>`, paths by `,`; a task with a\n\
         monitored variable is written `name:var`."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };

    match cmd.as_str() {
        "demo" => {
            let minutes: u64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(6);
            run_demo(minutes);
            ExitCode::SUCCESS
        }
        "compile" | "check" => {
            let Some(file) = args.get(1) else {
                return usage();
            };
            let source = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read `{file}`: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut paths_arg = None;
            let mut emit = "ir".to_string();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--paths" => {
                        paths_arg = args.get(i + 1).cloned();
                        i += 2;
                    }
                    "--emit" => {
                        emit = args.get(i + 1).cloned().unwrap_or_default();
                        i += 2;
                    }
                    other => {
                        eprintln!("unknown flag `{other}`");
                        return usage();
                    }
                }
            }
            let Some(paths_arg) = paths_arg else {
                eprintln!("`--paths` is required");
                return usage();
            };
            let app = match parse_app(&paths_arg) {
                Ok(app) => app,
                Err(e) => {
                    eprintln!("bad --paths: {e}");
                    return ExitCode::FAILURE;
                }
            };
            run_compile(&source, &app, cmd == "check", &emit)
        }
        _ => usage(),
    }
}

/// Builds the graph from the `--paths` syntax (handles repeated tasks).
fn parse_app(paths_arg: &str) -> Result<AppGraph, String> {
    // Two passes: declare each unique task once, then the paths.
    let mut b = AppGraphBuilder::new();
    let mut names: Vec<String> = Vec::new();
    let mut ids = std::collections::HashMap::new();
    for path in paths_arg.split(',') {
        for task in path.split('>') {
            let task = task.trim();
            if task.is_empty() {
                return Err("empty task name".to_string());
            }
            let (name, var) = match task.split_once(':') {
                Some((n, v)) => (n.trim(), Some(v.trim())),
                None => (task, None),
            };
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
                let id = match var {
                    Some(v) => b.task_with_var(name, v),
                    None => b.task(name),
                };
                ids.insert(name.to_string(), id);
            }
        }
    }
    for path in paths_arg.split(',') {
        let list: Vec<_> = path
            .split('>')
            .map(|t| {
                let name = t.trim().split(':').next().unwrap_or("").trim();
                ids[name]
            })
            .collect();
        b.path(&list);
    }
    b.build().map_err(|e| e.to_string())
}

/// Lints `source` through the install path's stages
/// ([`ir::lint`]): every finding prints, and any error fails. `check`
/// then reports the counts; `compile` emits the suite.
fn run_compile(source: &str, app: &AppGraph, check_only: bool, emit: &str) -> ExitCode {
    let lint = ir::lint(ir::Source::Spec(source), app, None);
    for d in &lint.diags {
        eprint!("{}", d.render(source));
    }
    let errors = lint.diags.iter().filter(|d| d.is_error()).count();
    let suite = match lint.suite {
        Some(suite) if errors == 0 => suite,
        _ => {
            eprintln!(
                "{} failed: {errors} error(s)",
                if check_only { "check" } else { "compile" }
            );
            return ExitCode::FAILURE;
        }
    };

    if check_only {
        // Lowering makes one machine of each property.
        println!(
            "ok: {n} propert(ies), {n} machine(s), {} finding(s)",
            lint.diags.len(),
            n = suite.len()
        );
        return ExitCode::SUCCESS;
    }

    match emit {
        "ir" => println!("{}", ir::print::print_suite(&suite)),
        "c" => println!("{}", ir::codegen::emit_c(&suite)),
        "dot" => println!("{}", ir::dot::suite_to_dot(&suite)),
        other => {
            eprintln!("unknown --emit `{other}` (expected ir, c or dot)");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn run_demo(minutes: u64) {
    use artemis::bench::health::{benchmark_device, install_artemis, nominal_minutes, HEALTH_SPEC};
    use artemis::prelude::*;

    println!("ARTEMIS health-monitor demo, {minutes} nominal minute(s) of charging\n");
    let mut dev = benchmark_device(Harvester::FixedDelay(nominal_minutes(minutes)));
    let mut rt = install_artemis(&mut dev, HEALTH_SPEC);
    let outcome = rt.run_once(&mut dev, RunLimit::sim_time(SimDuration::from_hours(6)));
    let mut text = dev.trace().render();
    for (i, t) in rt.app().tasks().iter().enumerate().rev() {
        text = text.replace(&format!("task#{i}"), &t.name);
    }
    println!("{text}");
    println!("outcome: {outcome:?}");
}
