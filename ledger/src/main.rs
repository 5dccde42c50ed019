//! The ledger: one seeded command that drives each layer of the fastlsa
//! workspace through its public API and reports end-to-end and per-layer
//! metrics, with every output checked against an oracle.
//!
//! ```text
//! cargo run --offline --release --manifest-path ledger/Cargo.toml -- \
//!     --workload genome-par --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` is a separate run that attaches a recorder and a metrics registry
//! and reports the per-layer split. Standard output ends with one JSON
//! line `{"correct", "attempted", "failed", "metrics"}`, preceded by a
//! host stamp. Exit status: 0 when every output was correct, 1 on a wrong
//! answer, typed error or trace inconsistency, 2 on bad arguments, 3 when
//! the serve load generator fell behind its schedule (no result printed).

mod align;
mod check;
mod gen;
mod pin;
mod report;
mod serve;
mod spans;
mod workload;

use workload::Workload;

/// What a run measured, before it is printed.
#[derive(Default)]
pub struct Outcome {
    pub values: report::Values,
    pub attempted: u64,
    pub failed: u64,
    /// The first wrong answer, typed error or inconsistency seen.
    pub error: Option<String>,
    /// Set when the run measured the load generator rather than the
    /// program; no result is printed for it.
    pub invalid: Option<String>,
}

impl Outcome {
    pub fn error(msg: String) -> Outcome {
        Outcome {
            error: Some(msg),
            ..Outcome::default()
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut calibrate) =
        (None, None, 10, false, false);
    while let Some(flag) = argv.next() {
        if flag == "--calibrate" {
            calibrate = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        calibrate,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "usage: ledger --workload <{}> --seed N [--seconds S] [--trace 0|1] [--calibrate]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    if args.calibrate {
        match serve::calibrate(args.seed, args.seconds) {
            Ok(rps) => println!(
                "closed-loop capacity: {rps:.0} req/s; the open-loop rate of {} req/s is {:.1}% of it",
                workload::SERVE_RATE_RPS,
                workload::SERVE_RATE_RPS / rps * 100.0
            ),
            Err(e) => {
                eprintln!("ledger: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!(
        "{}",
        report::host_line(args.workload.name(), args.seed, args.seconds, args.trace)
    );
    let out = match args.workload {
        Workload::ServeMixed => serve::run(args.seed, args.seconds, args.trace),
        w => align::run(w, args.seed, args.seconds, args.trace),
    };
    if let Some(why) = &out.invalid {
        eprintln!("ledger: invalid run: {why}");
        std::process::exit(3);
    }
    if out.attempted == 0 {
        eprintln!(
            "ledger: nothing ran: {}",
            out.error.as_deref().unwrap_or("no error recorded")
        );
        std::process::exit(1);
    }
    let correct = out.failed == 0 && out.error.is_none();
    if let Some(e) = &out.error {
        eprintln!("ledger: {e}");
    }
    println!(
        "{}",
        report::result_line(args.trace, &out.values, correct, out.attempted, out.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}
