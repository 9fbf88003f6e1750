//! Command-line entry of the benchmark:
//!
//! ```text
//! perfbench --workload <zone_fleet|scheme_vm|guardian_pool> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>] [--fault <name>]
//! ```
//!
//! Prints a stamp line (host fingerprint, seed, sizes, sample counts)
//! and then, as the last line, the result object. Exits 1 when an
//! oracle failed, 2 on a usage error.

use guardians_perfbench::{run, Fault, Opts, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <zone_fleet|scheme_vm|guardian_pool> --seed <n> \
         --seconds <s> --trace <0|1> [--out-dir <dir>] [--fault <skip-close|corrupt-expected|extra-open>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        fault: None,
        scale: Scale::Full,
    };
    let mut out_dir = PathBuf::from(".bench_build/perfbench-out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => opts.seed = s,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => opts.seconds = s,
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return usage(&format!("bad trace {value:?}")),
            },
            "--fault" => match Fault::parse(&value) {
                Some(f) => opts.fault = Some(f),
                None => return usage(&format!("unknown fault {value:?}")),
            },
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let report = run(workload, &opts);
    let sizes = guardians_perfbench::sizes_json(workload, opts.scale);
    let trace_file = if opts.trace {
        match report.write_trace(&out_dir, &sizes) {
            Ok(p) => Some(p.display().to_string()),
            Err(e) => {
                eprintln!(
                    "perfbench: cannot write the trace to {}: {e}",
                    out_dir.display()
                );
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };
    eprint!("{}", report.table());
    println!("{}", report.meta_json(&sizes, trace_file.as_deref()));
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
