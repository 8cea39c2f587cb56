//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the wdsparql end-to-end benchmark and prints, as
//! its last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). Durable stores and the span trace go under `.perfbench/` in
//! the working directory.

use std::path::PathBuf;
use std::process::ExitCode;
use wdsparql_perfbench::{run, Config, Scale};

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        poison: false,
        work_dir: PathBuf::from(".perfbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is not 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::FAILURE;
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for note in &report.notes {
                println!("{}", note.trim_end());
            }
            if let Some(spans) = &report.trace_json {
                let path = cfg
                    .work_dir
                    .join(format!("trace-{}-seed{}.json", cfg.workload, cfg.seed));
                match std::fs::write(&path, spans) {
                    Ok(()) => println!("spans written to {}", path.display()),
                    Err(e) => eprintln!("warning: {}: {e}", path.display()),
                }
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
