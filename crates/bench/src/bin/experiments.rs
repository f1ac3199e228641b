//! CLI driver: regenerates the paper's figures and tables.

use std::env;
use std::fs;
use std::process::ExitCode;

use artemis_bench::Report;
use artemis_bench::{analyze, experiments};

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments [--json] [--emit] \
         <fig12|fig13|fig14|fig15|fig16|table2|ablation|scaling|dispatch|delta|batch|cache|bytes|energy|opt|fleet|analyze|all>\n\
         Regenerates the evaluation figures/tables of the ARTEMIS paper.\n\
         analyze  lint shipped specs/examples with the static analyser\n\
         \x20        (exits non-zero on any error-severity finding)\n\
         cache    shadow-cache FRAM traffic, warm vs always-cold\n\
         bytes    per-event FRAM bytes of packed blocks + dirty-diff commits\n\
         energy   install-time energy feasibility verdicts vs measured\n\
         \x20        forward progress across a capacitor sweep\n\
         opt      bytecode optimizer sweep: executed instructions/event and\n\
         \x20        fleet events/sec across OptLevel none/full\n\
         fleet    full fleet-scale sharded simulation sweep (`all` includes a\n\
         \x20        small fleet_smoke run; FLEET_DEVICES / FLEET_SEED /\n\
         \x20        FLEET_WORKERS override the full sweep)\n\
         --json   print a JSON array to stdout\n\
         --emit   also write each report to BENCH_<id>.json"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut json = false;
    let mut emit = false;
    let mut which = None;
    for arg in env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--emit" => emit = true,
            "fig12" | "fig13" | "fig14" | "fig15" | "fig16" | "table2" | "ablation" | "scaling"
            | "dispatch" | "delta" | "batch" | "cache" | "bytes" | "energy" | "opt" | "fleet"
            | "analyze" | "all" => which = Some(arg),
            _ => return usage(),
        }
    }
    let Some(which) = which else {
        return usage();
    };

    let mut analysis_errors = 0;
    let reports: Vec<Report> = match which.as_str() {
        "analyze" => {
            let (report, errors) = analyze::analyze_all();
            analysis_errors = errors;
            vec![report]
        }
        "fig12" => vec![experiments::fig12()],
        "fig13" => vec![experiments::fig13()],
        "fig14" => vec![experiments::fig14()],
        "fig15" => vec![experiments::fig15()],
        "fig16" => vec![experiments::fig16()],
        "table2" => vec![experiments::table2()],
        "ablation" => vec![experiments::ablation_deployment()],
        "scaling" => vec![experiments::scaling()],
        "dispatch" => vec![experiments::dispatch()],
        "delta" => vec![experiments::delta()],
        "batch" => vec![experiments::batch()],
        "cache" => vec![experiments::cache()],
        "bytes" => vec![experiments::bytes()],
        "energy" => vec![experiments::energy()],
        "opt" => vec![experiments::opt()],
        "fleet" => vec![experiments::fleet()],
        _ => experiments::all(),
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
