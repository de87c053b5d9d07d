//! `ledger` — the repo's one benchmark. See `README.md` beside
//! `Cargo.toml` for the metric glossary and `spec.rs` for everything
//! that is fixed.
//!
//! ```text
//! ledger [run] --workload <name|all> --seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
//! ledger repeat --n <k> [--workload <name|all>] [--seed <u64>] [--seconds <n>] [--quick] [--out <file>]
//! ledger compare <a.json> <b.json>
//! ledger manifest | metrics
//! ```

mod measure;
mod replay;
mod report;
mod setup;
mod spans;
mod spec;
mod stats;
mod tools;

use spec::{Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where runs leave their records, traces and scratch storage,
/// relative to the directory the benchmark is started in.
const OUT_DIR: &str = ".ledger";

#[derive(Debug)]
struct Options {
    workload: String,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    scale: Scale,
    n: usize,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: "all".to_owned(),
        seed: spec::DEV_SEED,
        seconds: None,
        trace: false,
        scale: Scale::Full,
        n: 5,
        out: None,
        positional: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().cloned().ok_or(format!("{name} needs a value"));
        let number = |name: &str, text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{name} needs a whole number, got `{text}`"))
        };
        match arg.as_str() {
            "--workload" => options.workload = value("--workload")?,
            "--seed" => options.seed = number("--seed", value("--seed")?)?,
            "--seconds" => options.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--trace" => options.trace = number("--trace", value("--trace")?)? != 0,
            "--n" => options.n = number("--n", value("--n")?)? as usize,
            "--out" => options.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => options.scale = Scale::Quick,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            other => options.positional.push(other.to_owned()),
        }
    }
    Ok(options)
}

fn selected(workload: &str) -> Result<Vec<&'static str>, String> {
    if workload == "all" {
        return Ok(spec::WORKLOADS.iter().map(|w| w.name).collect());
    }
    let known = spec::workload(workload).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{workload}`; one of: {}, all",
            names.join(", ")
        )
    })?;
    Ok(vec![known.name])
}

/// One run of one workload: set-up (repeated), the measured run, and
/// with `trace` the traced replay. Prints the result line last.
fn run_one(workload: &Workload, options: &Options, seconds: u64) -> Result<(), String> {
    let out_dir = Path::new(OUT_DIR);
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;

    // Set-up several times, so `setup_s` is a median like every other
    // time; the last set-up's inputs are the ones measured.
    let mut setups = Vec::with_capacity(spec::SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..spec::SETUP_REPEATS {
        drop(inputs.take());
        let made = setup::set_up(workload, options.scale, options.seed);
        setups.push(made.timing);
        inputs = Some(made);
    }
    let inputs = inputs.expect("set-up ran");

    // A traced run spends half its time on the measured run, whose
    // snapshots and answers the replay is checked against.
    let measured_seconds = if options.trace {
        seconds as f64 / 2.0
    } else {
        seconds as f64
    };
    let measured = measure::run(workload, &inputs, measured_seconds, &scratch);
    let mut tally = inputs.tally;
    tally.add(measured.tally);

    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name,
        options.seed,
        u8::from(options.trace)
    );
    let (metrics, replay) = if options.trace {
        let replay = replay::run(&inputs, &measured, &scratch);
        tally.add(replay.tally);
        let trace_path = out_dir.join(format!("trace-{stem}.json"));
        std::fs::write(&trace_path, &replay.chrome_trace)
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        eprintln!("   trace written to {}", trace_path.display());
        (
            report::per_layer(&inputs, &setups, &measured, &replay),
            Some(replay),
        )
    } else {
        (
            report::end_to_end(workload, &inputs, &setups, &measured),
            None,
        )
    };
    std::fs::remove_dir_all(&scratch)
        .map_err(|e| format!("cannot remove {}: {e}", scratch.display()))?;

    report::print_table(workload, options.seed, &metrics, &measured, replay.as_ref());
    let record = report::run_record(
        workload,
        options.scale,
        options.seed,
        seconds as f64,
        options.trace,
        &inputs,
        &measured,
        &metrics,
        replay.as_ref(),
        tally.attempted,
        tally.failed,
    );
    let record_path = out_dir.join(format!("run-{stem}.json"));
    std::fs::write(&record_path, ciao_json::to_pretty_string(&record))
        .map_err(|e| format!("cannot write {}: {e}", record_path.display()))?;

    println!(
        "{}",
        report::result_line(&metrics, tally.attempted, tally.failed)
    );
    if tally.failed > 0 {
        return Err(format!(
            "{} of {} operations and checks failed",
            tally.failed, tally.attempted
        ));
    }
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        _ => ("run", args),
    };
    let options = parse_options(rest)?;
    let seconds = options.seconds.unwrap_or(match options.scale {
        Scale::Full => spec::RUN_SECONDS,
        Scale::Quick => 1,
    });
    match command {
        "metrics" => {
            spec::print_glossary();
            Ok(())
        }
        "manifest" => {
            println!("{}", ciao_json::to_pretty_string(&spec::manifest()));
            Ok(())
        }
        "compare" => match options.positional.as_slice() {
            [a, b] => tools::compare(Path::new(a), Path::new(b)),
            _ => Err("compare needs two result files written by `repeat --out`".to_owned()),
        },
        "repeat" => tools::repeat(
            &selected(&options.workload)?,
            options.n,
            options.seed,
            seconds,
            options.scale,
            options.out.as_deref(),
        ),
        "run" => match selected(&options.workload)?.as_slice() {
            [one] => run_one(
                spec::workload(one).expect("selected workloads exist"),
                &options,
                seconds,
            ),
            // Each workload in a process of its own, as the driver
            // runs them, so `rss_peak_mb` is one workload's.
            all => tools::repeat(
                all,
                1,
                options.seed,
                seconds,
                options.scale,
                options.out.as_deref(),
            ),
        },
        other => Err(format!(
            "unknown command `{other}`; one of: run, repeat, compare, manifest, metrics"
        )),
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("ledger: refusing to measure a debug build; run with `cargo run --release`");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::FAILURE
        }
    }
}
