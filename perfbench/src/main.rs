//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a human-readable log, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Exit codes: 0 a result was printed, 2 usage error.

use perfbench::run::{run, Args};
use perfbench::spans::Span;
use perfbench::work::Scale;
use ps_bench::tracefmt::TraceRecorder;
use simcore::telemetry::{SpanObserver, SpanRecord};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
        perfbench::work::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                args.seconds = match value.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => usage("--seconds needs a positive number"),
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        usage("--workload is required");
    }
    args
}

/// Write the traced run's spans as one Chrome trace (Perfetto-loadable).
fn write_trace(args: &Args, spans: &[Span]) -> std::io::Result<String> {
    let rec = TraceRecorder::new();
    for s in spans {
        rec.on_span(&SpanRecord {
            name: s.name,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns(),
            lane: 0,
        });
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
    std::fs::write(&path, rec.render_chrome_trace())?;
    Ok(path)
}

fn main() {
    let args = parse_args();
    let outcome = match run(&args, Scale::Full, &mut |line| println!("{line}")) {
        Ok(o) => o,
        Err(e) => usage(&e),
    };
    if args.trace {
        match write_trace(&args, &outcome.spans) {
            Ok(path) => println!("trace {path}"),
            Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
        }
    }
    println!(
        "{}",
        perfbench::metrics::render_result(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
}
