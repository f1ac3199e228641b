//! CLI driver: regenerates the paper's figures and tables.

use std::env;
use std::fs;
use std::process::ExitCode;

use artemis_bench::Report;
use artemis_bench::{analyze, experiments};

/// What a subcommand runs.
enum Run {
    /// One driver, producing one report.
    One(experiments::Driver),
    /// The static-analysis lint, which also counts error findings.
    Analyze,
    /// Every driver of `experiments::ALL`.
    All,
}

/// Every subcommand: each driver `all` runs, under the id of the report
/// it writes, then the lint and `all` itself. Parsing, usage and
/// dispatch all read this one table.
fn subcommands() -> Vec<(&'static str, Run)> {
    let mut table: Vec<_> = experiments::ALL
        .iter()
        .map(|&(id, run)| (id, Run::One(run)))
        .collect();
    table.extend([("analyze", Run::Analyze), ("all", Run::All)]);
    table
}

fn usage() -> ExitCode {
    let ids: Vec<&str> = subcommands().iter().map(|(id, _)| *id).collect();
    eprintln!(
        "usage: experiments [--json] [--emit] <{}>\n\
         Regenerates the evaluation figures/tables of the ARTEMIS paper.\n\
         traffic  per-event FRAM ops/bytes/time/energy by workload, engine\n\
         \x20        and reads (warm, always-cold)\n\
         energy   install-time energy feasibility verdicts vs measured\n\
         \x20        forward progress across a capacitor sweep\n\
         opt      bytecode optimizer sweep: executed instructions/event\n\
         \x20        across OptLevel none/full\n\
         analyze  lint shipped specs/examples with the static analyser\n\
         \x20        (exits non-zero on any error-severity finding)\n\
         all      every report except the lint (analyze)\n\
         --json   print a JSON array to stdout\n\
         --emit   also write each report to BENCH_<id>.json",
        ids.join("|")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut json = false;
    let mut emit = false;
    let mut which = None;
    let table = subcommands();
    for arg in env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--emit" => emit = true,
            _ => match table.iter().find(|(id, _)| *id == arg) {
                Some((_, run)) => which = Some(run),
                None => return usage(),
            },
        }
    }
    let Some(which) = which else {
        return usage();
    };

    let mut analysis_errors = 0;
    let reports: Vec<Report> = match which {
        Run::One(run) => vec![run()],
        Run::Analyze => {
            let (report, errors) = analyze::analyze_all();
            analysis_errors = errors;
            vec![report]
        }
        Run::All => experiments::all(),
    };

    if json {
        println!("{}", Report::json_array_pretty(&reports));
    } else {
        for r in &reports {
            println!("{}", r.render());
        }
    }
    if emit {
        for r in &reports {
            let path = format!("BENCH_{}.json", r.id);
            if let Err(e) = fs::write(&path, r.to_json()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
    }
    if analysis_errors > 0 {
        eprintln!("analyze: {analysis_errors} error-severity finding(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
