//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's metrics by name with their units, then, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end set, or with `--trace 1` the per-layer set). Exits
//! non-zero without a result when the run cannot be made. With
//! `--setup-only 1` it only times one set-up of the workload and prints it,
//! and with `--recover-dir <dir>` one `DurableFleet::open` of `dir`: the
//! benchmark runs itself so for all but one of its set-ups and recoveries.

use perfbench::{run, setup_only, sys, trace, Args, WORKLOADS};

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        recover_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--setup-only" => args.setup_only = value == "1",
            "--recover-dir" => args.recover_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() {
    trace::start_clock();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.recover_dir {
        match perfbench::durable::recover_once(dir) {
            Ok((secs, batches)) => println!("recover_s {secs:?} {batches}"),
            Err(e) => {
                eprintln!("perfbench: recovery of {} failed: {e}", dir.display());
                std::process::exit(1);
            }
        }
        return;
    }
    if args.setup_only {
        match setup_only(&args) {
            Ok(secs) => println!("setup_s {secs:?}"),
            Err(e) => {
                eprintln!("perfbench: {} set-up failed: {e}", args.workload);
                std::process::exit(1);
            }
        }
        return;
    }
    let rep = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc()
    );
    for line in &rep.lines {
        println!("{line}");
    }
    for (name, value) in &rep.values {
        println!("metric {name} = {value}");
    }
    for w in &rep.wrong {
        println!("WRONG: {w}");
    }
    println!(
        "ops: {} attempted, {} failed (op_fail_ratio {:.6})",
        rep.attempted,
        rep.failed,
        rep.failed as f64 / rep.attempted.max(1) as f64
    );
    let (_, json) = rep.result_json(args.trace);
    println!("{json}");
}
