//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its record and, as the last line, the
//! result object. An untraced run first starts [`SETUPS`] fresh copies
//! of itself with `--setup-only` to time set-up from process start.
//! `perfbench --write-golden` regenerates `golden.json` on the reference
//! service path.

use std::path::Path;
use std::process::ExitCode;

use perfbench::golden::{self, Golden};
use perfbench::host;
use perfbench::run::{self, RunConfig};
use perfbench::workload::{pool_threads, Scale, Workload};

/// Where records and spans are written, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

/// Fresh set-up processes per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str = "usage: perfbench --workload <app-strided|app-ddl|autotune|tenancy> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-golden";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        scale: Scale::Full,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        golden: Golden::parse(golden::COMMITTED)?,
    })
}

fn write_golden() -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    let g = golden::generate(&[Scale::Full, Scale::Tiny])?;
    std::fs::write(&path, g.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn bench(cfg: &RunConfig, args: &[String]) -> Result<(), String> {
    let setup_s = if cfg.trace {
        Vec::new()
    } else {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        run::timed_setups(&exe, args, SETUPS)?
    };
    let mut r = run::run(cfg)?;
    r.setup_s = setup_s;
    let metrics = if cfg.trace {
        run::per_layer(&r)
    } else {
        run::end_to_end(&r)?
    };
    let header = host::header(cfg.seed, pool_threads());
    let record = run::record(cfg, &r, &header, &metrics);
    let stem = format!(
        "{}/{}-seed{}-trace{}",
        OUT_DIR,
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(format!("{stem}.json"), format!("{record}\n"))
        .map_err(|e| format!("{stem}.json: {e}"))?;
    if cfg.trace {
        std::fs::write(format!("{stem}-spans.jsonl"), r.tracer.to_jsonl())
            .map_err(|e| format!("{stem}-spans.jsonl: {e}"))?;
    }
    for e in &r.errors {
        eprintln!("perfbench: unit failed: {e}");
    }
    println!("{record}");
    println!("{}", run::result_line(&r, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.iter().any(|a| a == "--write-golden") {
        write_golden()
    } else if let Some(i) = args.iter().position(|a| a == "--setup-only") {
        args.remove(i);
        parse(&args)
            .and_then(|cfg| run::setup(&cfg))
            .map(|_| println!("{}", run::READY))
    } else {
        parse(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|cfg| bench(&cfg, &args))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
