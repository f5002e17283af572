//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--json] [--chart] [--jobs N] [--timing]
//!         [--force-scalar] [--job-deadline SECS] [--baseline FILE]
//!         [--metrics FILE] [--metrics-baseline FILE] [--metrics-fail-on-new]
//!         [--trace-out FILE] [--report FILE] [--out DIR] [id ...]
//! ```
//!
//! With no ids, every experiment runs. Results are printed as text tables
//! and written as CSV files under `--out` (default `results/`); `--json`
//! additionally writes machine-readable JSON next to each CSV.
//!
//! `--jobs N` bounds the worker threads used for concurrent experiments
//! and sweep points (default: the machine's available parallelism;
//! `--jobs 1` runs everything serially). Output files are byte-identical
//! for every job count. `--timing` runs the selected experiments twice —
//! serially, then at the requested job count — verifies the outputs match
//! byte-for-byte, and writes the wall-clock comparison to
//! `BENCH_figures.json` in the output directory.
//!
//! `--force-scalar` pins the replay engine's vectorized scan kernels to
//! their scalar twins (equivalent to setting `PS_FORCE_SCALAR=1`); results
//! are byte-identical either way — the flag exists so CI can exercise both
//! paths and so perf numbers can be attributed. The active kernel set is
//! recorded in `BENCH_figures.json` as `"kernels"`.
//!
//! `--baseline FILE` (requires `--timing`) compares the measured
//! wall-clock against the `parallel_seconds` recorded in a previously
//! committed `BENCH_figures.json` and fails if the run regressed by more
//! than 20% — the CI guard that keeps the replay engine's interning wins
//! from quietly eroding.
//!
//! `--metrics FILE` writes a JSON snapshot of the telemetry registry
//! (engine, runner and memo-cache counters plus span timings and histogram
//! percentiles) covering the main pass, next to the other outputs. The
//! snapshot is always written; the per-probe values are nonzero only when
//! the binary was built with `--features telemetry`, and the flag never
//! changes the experiment outputs either way (pinned by the
//! `metrics_identity` test). `--metrics-baseline FILE` additionally diffs
//! the snapshot against a committed one and fails (exit 2) on any
//! deterministic counter or histogram-percentile drift beyond tolerance.
//!
//! `--trace-out FILE` records every telemetry span of the main pass and
//! writes a Chrome Trace Event JSON timeline — load it in
//! <https://ui.perfetto.dev> to see experiments, replays and pool jobs on
//! their thread lanes. Empty without `--features telemetry`.
//!
//! `--report FILE` renders every regenerated figure as a self-contained
//! HTML report (inline-SVG charts, no scripts or external assets) — the
//! artifact CI uploads so a run's shapes can be eyeballed without
//! checking out the branch. `--metrics-fail-on-new` hardens the
//! `--metrics-baseline` gate: gated metrics present in the snapshot but
//! absent from the baseline (normally informational `new_metrics`) also
//! fail with exit 2, catching baselines that went stale.
//!
//! Experiments run fail-soft: each one executes under
//! [`ps_bench::runner::run_experiments_supervised`], so a panicking
//! experiment (retried once) or one overrunning the optional
//! `--job-deadline SECS` soft deadline is reported in a failure summary
//! while every healthy experiment still prints and writes its files —
//! partial results instead of a torn-down run. On any failure the
//! process-global flight recorder — which the supervised runner feeds
//! job start/retry/fail/done markers — is dumped to
//! `<out>/flight-dump.jsonl`, so the post-mortem ("which jobs were in
//! flight, what had just retried") ships with the partial results.
//!
//! Exit codes: `0` success, `1` I/O error, no matching experiment, or a
//! `--timing` identity mismatch, `2` wall-clock regression vs `--baseline`
//! or metrics regression vs `--metrics-baseline`, `3` one or more
//! experiments failed (panicked every attempt or missed the deadline) and
//! only partial results were written. The regression checks run before the
//! final exit-3 decision, so a run that both regresses and loses an
//! experiment reports the regression.

use ps_bench::runner::{self, TimedFigure};
use ps_bench::tracefmt::TraceRecorder;
use ps_bench::{experiments, memo, metricsjson};

/// An experiment id paired with the function regenerating it.
type Experiment = (&'static str, fn(bool) -> ps_bench::FigureResult);

/// Report an I/O failure and exit with code 1 instead of panicking.
fn exit_io_error(what: &str, path: &str, e: std::io::Error) -> ! {
    eprintln!("cannot {what} {path:?}: {e}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: figures [--quick] [--json] [--chart] [--jobs N] [--timing] [--out DIR] [id ...]

  --quick      scaled-down parameters (CI)
  --json       also write <id>.json next to each <id>.csv
  --chart      print ASCII charts
  --jobs N     worker threads for experiments + sweep points
               (default: available parallelism; 1 = serial)
  --job-deadline SECS
               soft per-experiment deadline: an experiment that finishes
               later is discarded and reported as failed (default: none)
  --timing     run serial then parallel, check outputs are byte-identical,
               write BENCH_figures.json to the output directory
  --force-scalar
               pin the vectorized scan kernels to their scalar twins
               (same as PS_FORCE_SCALAR=1; outputs are byte-identical)
  --baseline FILE
               with --timing: fail (exit 2) if this run's wall-clock is
               more than 20% slower than FILE's parallel_seconds
  --metrics FILE
               write a telemetry snapshot (JSON) of the main pass; values
               are nonzero only with a --features telemetry build
  --metrics-baseline FILE
               diff the telemetry snapshot against a committed one; fail
               (exit 2) on deterministic counter/percentile drift beyond
               10% (no-op without a --features telemetry build)
  --trace-out FILE
               write the main pass's telemetry spans as a Chrome Trace
               Event JSON timeline (Perfetto-loadable; empty without a
               --features telemetry build)
  --metrics-fail-on-new
               with --metrics-baseline: also fail (exit 2) when gated
               metrics exist in the snapshot but not in the baseline
  --report FILE
               write every regenerated figure as a self-contained HTML
               report (inline SVG, no scripts)
  --out DIR    output directory (default: results/)

exit codes: 0 success; 1 I/O error, no matching experiment, or --timing
            mismatch; 2 regression vs --baseline or --metrics-baseline;
            3 experiment(s) failed, partial results written"
    );
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let chart = args.iter().any(|a| a == "--chart");
    let timing = args.iter().any(|a| a == "--timing");
    if args.iter().any(|a| a == "--force-scalar") {
        simcore::simd::set_force_scalar(true);
    }
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| match args.get(i + 1) {
            Some(v) => v.clone(),
            None => {
                eprintln!("{flag} needs a value");
                usage();
            }
        })
    };
    let out_dir = flag_value("--out").unwrap_or_else(|| "results".to_owned());
    let baseline = flag_value("--baseline");
    let metrics = flag_value("--metrics");
    let metrics_baseline = flag_value("--metrics-baseline");
    let metrics_fail_on_new = args.iter().any(|a| a == "--metrics-fail-on-new");
    let trace_out = flag_value("--trace-out");
    let report_out = flag_value("--report");
    if baseline.is_some() && !timing {
        eprintln!("--baseline needs --timing (it compares measured wall-clock)");
        usage();
    }
    let jobs = match flag_value("--jobs") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs needs a positive integer, got {v:?}");
                usage();
            }
        },
        None => runner::default_jobs(),
    };
    let supervision = simcore::par::Supervision {
        deadline: match flag_value("--job-deadline") {
            Some(v) => match v.parse::<u64>() {
                Ok(n) if n >= 1 => Some(std::time::Duration::from_secs(n)),
                _ => {
                    eprintln!("--job-deadline needs a positive integer of seconds, got {v:?}");
                    usage();
                }
            },
            None => None,
        },
        retries: 1,
    };
    // Positional args are experiment ids; skip flag values.
    let flag_values: Vec<String> = [
        "--out",
        "--jobs",
        "--job-deadline",
        "--baseline",
        "--metrics",
        "--metrics-baseline",
        "--trace-out",
        "--report",
    ]
    .iter()
    .filter_map(|f| flag_value(f))
    .collect();
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| !flag_values.contains(a))
        .map(|s| s.as_str())
        .collect();

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        exit_io_error("create output directory", &out_dir, e);
    }

    let known: &[Experiment] = &[
        ("table1", |_| experiments::table1()),
        ("table2", experiments::table2),
        ("fig3a", experiments::fig3a),
        ("fig3b", experiments::fig3b),
        ("fig5", experiments::fig5),
        ("fig7", experiments::fig7),
        ("fig8", experiments::fig8),
        ("fig9", experiments::fig9),
        ("fig10", experiments::fig10),
        ("fig11", experiments::fig11),
        ("fig12", experiments::fig12),
        ("fig13", experiments::fig13),
        ("fig14", experiments::fig14),
        ("x9", experiments::x9_latency),
        ("listing3", experiments::listing3_pitfall),
        ("skipvariant", experiments::skip_variant),
        ("issuecost", experiments::prestore_issue_cost),
        ("overheadB", experiments::overhead_on_machine_b),
        ("badprestores", experiments::bad_prestores),
        ("dbreports", |_| experiments::dirtbuster_reports()),
        ("abl_granularity", experiments::granularity_sweep),
        ("abl_replacement", experiments::replacement_policy_sweep),
        ("abl_latency", experiments::fpga_latency_sweep),
        ("abl_ycsb_mix", experiments::ycsb_mix_sweep),
        ("abl_dram", experiments::dram_sanity),
        ("ext_cxl_kv", experiments::cxl_kv),
        ("crashbuster", experiments::crashbuster),
        ("kv_serving", experiments::kv_serving),
        ("autotune", experiments::autotune),
    ];

    let selected: Vec<Experiment> = if ids.is_empty() {
        known.to_vec()
    } else {
        known.iter().filter(|(id, _)| ids.contains(id)).copied().collect()
    };
    if selected.is_empty() {
        eprintln!("no experiments matched; known ids:");
        for (id, _) in known {
            eprintln!("  {id}");
        }
        std::process::exit(1);
    }

    let serial_baseline = if timing {
        memo::clear();
        runner::set_jobs(1);
        let start = std::time::Instant::now();
        let figs = runner::run_experiments_supervised(&selected, quick, supervision);
        Some((figs, start.elapsed().as_secs_f64(), memo::counters()))
    } else {
        None
    };

    // The --metrics/--trace-out snapshots cover the main pass only: drop
    // whatever the serial --timing pass accumulated and subscribe the span
    // recorder. Both calls are no-ops without `--features telemetry`.
    let recorder = TraceRecorder::new();
    if metrics.is_some() || metrics_baseline.is_some() || trace_out.is_some() {
        simcore::telemetry::set_span_observer(Some(Box::new(recorder.clone())));
    }
    simcore::telemetry::reset();

    memo::clear();
    runner::set_jobs(jobs);
    let start = std::time::Instant::now();
    let results = runner::run_experiments_supervised(&selected, quick, supervision);
    let parallel_seconds = start.elapsed().as_secs_f64();
    let counters = memo::counters();

    let mut failures: Vec<&runner::ExperimentFailure> = Vec::new();
    for res in &results {
        let TimedFigure { id, fig, seconds } = match res {
            Ok(t) => t,
            Err(f) => {
                failures.push(f);
                continue;
            }
        };
        println!("{}", fig.render_text());
        if chart {
            println!("{}", ps_bench::chart::render_chart(fig));
        }
        println!("({id} regenerated in {:.2}s)\n", seconds);
        let path = format!("{out_dir}/{id}.csv");
        if let Err(e) = std::fs::write(&path, fig.render_csv()) {
            exit_io_error("write CSV", &path, e);
        }
        if json {
            let path = format!("{out_dir}/{id}.json");
            if let Err(e) = std::fs::write(&path, fig.render_json()) {
                exit_io_error("write JSON", &path, e);
            }
        }
    }
    if !failures.is_empty() {
        eprintln!(
            "{} of {} experiment(s) failed; partial results written to {out_dir}/:",
            failures.len(),
            results.len()
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        // Post-mortem: the supervised runner feeds the process-global
        // flight recorder job start/retry/fail/done markers; dump the
        // recent ones next to the partial results.
        let flight = simcore::telemetry::flight::global_snapshot();
        if !flight.is_empty() {
            let path = format!("{out_dir}/flight-dump.jsonl");
            if let Err(e) = std::fs::write(&path, simcore::telemetry::flight::render_jsonl(&flight))
            {
                exit_io_error("write flight dump", &path, e);
            }
            eprintln!("flight recorder: {} event(s) dumped to {path}", flight.len());
        }
    }

    if let Some(report_path) = &report_out {
        let mut html = ps_bench::report::Report::new(format!(
            "Pre-stores figures ({} experiment(s){})",
            results.len(),
            if quick { ", --quick" } else { "" }
        ));
        for t in results.iter().flatten() {
            html.add_figure(&t.fig);
        }
        for f in &failures {
            html.add_note(&format!("FAILED: {f}"));
        }
        if let Err(e) = std::fs::write(report_path, html.render()) {
            exit_io_error("write HTML report", report_path, e);
        }
        println!("report: {} figure(s) written to {report_path}", html.len());
    }

    simcore::telemetry::set_span_observer(None);
    let metrics_report = metricsjson::render(&counters, recorder.len() as u64, quick);
    if let Some(metrics_path) = &metrics {
        if let Err(e) = std::fs::write(metrics_path, &metrics_report) {
            exit_io_error("write metrics snapshot", metrics_path, e);
        }
        println!(
            "metrics: telemetry {}; snapshot written to {metrics_path}",
            if simcore::telemetry::enabled() { "enabled" } else { "compiled out" }
        );
    }
    if let Some(trace_path) = &trace_out {
        if let Err(e) = std::fs::write(trace_path, recorder.render_chrome_trace()) {
            exit_io_error("write Chrome trace", trace_path, e);
        }
        println!(
            "trace: {} span event(s) written to {trace_path} (load in https://ui.perfetto.dev)",
            recorder.len()
        );
    }
    if let Some(baseline_path) = &metrics_baseline {
        if !simcore::telemetry::enabled() {
            println!("metrics baseline: telemetry compiled out, nothing to compare");
        } else {
            let text = match std::fs::read_to_string(baseline_path) {
                Ok(t) => t,
                Err(e) => exit_io_error("read metrics baseline", baseline_path, e),
            };
            match metricsjson::diff(&metrics_report, &text, metricsjson::DEFAULT_TOLERANCE) {
                Err(e) => {
                    eprintln!("cannot compare metrics baseline {baseline_path:?}: {e}");
                    std::process::exit(1);
                }
                Ok(report)
                    if !report.regressions.is_empty()
                        || (metrics_fail_on_new && !report.new_metrics.is_empty()) =>
                {
                    eprintln!(
                        "metrics regressions vs baseline {baseline_path} \
                         ({} of {} gated values, {} new):",
                        report.regressions.len(),
                        report.compared,
                        report.new_metrics.len()
                    );
                    for r in &report.regressions {
                        eprintln!("  {r}");
                    }
                    for n in &report.new_metrics {
                        eprintln!("  new (absent from baseline): {n}");
                    }
                    std::process::exit(2);
                }
                Ok(report) if !report.comparable => {
                    println!(
                        "metrics baseline: {baseline_path} was written without telemetry, \
                         nothing to compare"
                    );
                }
                Ok(report) => {
                    println!(
                        "metrics baseline: {} gated values within {:.0}% of {baseline_path}\
                         {}",
                        report.compared,
                        metricsjson::DEFAULT_TOLERANCE * 100.0,
                        if report.new_metrics.is_empty() {
                            String::new()
                        } else {
                            format!(" ({} new, informational)", report.new_metrics.len())
                        }
                    );
                }
            }
        }
    }

    if let Some((serial_figs, serial_seconds, serial_counters)) = serial_baseline {
        // Identity and per-experiment timings only compare pairs that
        // succeeded in both passes; a failed experiment is already
        // reported in the failure summary (and forces exit 3 below).
        let compared: Vec<(&TimedFigure, &TimedFigure)> = serial_figs
            .iter()
            .zip(&results)
            .filter_map(|(s, p)| match (s, p) {
                (Ok(s), Ok(p)) => Some((s, p)),
                _ => None,
            })
            .collect();
        let mut mismatched: Vec<&str> = Vec::new();
        for (s, p) in &compared {
            if s.fig.render_csv() != p.fig.render_csv()
                || s.fig.render_json() != p.fig.render_json()
            {
                mismatched.push(s.id);
            }
        }
        let speedup = serial_seconds / parallel_seconds.max(1e-9);
        let mut report = String::from("{\n");
        report.push_str(&format!("  \"jobs\": {jobs},\n"));
        report.push_str(&format!("  \"quick\": {quick},\n"));
        report.push_str(&format!("  \"kernels\": \"{}\",\n", simcore::simd::active_kernels()));
        report.push_str(&format!("  \"serial_seconds\": {serial_seconds:.3},\n"));
        report.push_str(&format!("  \"parallel_seconds\": {parallel_seconds:.3},\n"));
        report.push_str(&format!("  \"speedup\": {speedup:.3},\n"));
        report.push_str(&format!(
            "  \"outputs_identical\": {},\n",
            mismatched.is_empty()
        ));
        report.push_str(&format!(
            "  \"memo_serial\": {{\"hits\": {}, \"misses\": {}, \"derived\": {}}},\n",
            serial_counters.hits, serial_counters.misses, serial_counters.derived
        ));
        report.push_str(&format!(
            "  \"memo_parallel\": {{\"hits\": {}, \"misses\": {}, \"derived\": {}}},\n",
            counters.hits, counters.misses, counters.derived
        ));
        report.push_str("  \"experiments\": [");
        for (i, (s, p)) in compared.iter().enumerate() {
            if i > 0 {
                report.push(',');
            }
            // Microsecond resolution: the quick suite's small experiments
            // finish in well under a millisecond, and three decimals would
            // round every one of them to 0.000.
            report.push_str(&format!(
                "\n    {{\"id\": \"{}\", \"serial_seconds\": {:.6}, \"parallel_seconds\": {:.6}}}",
                s.id, s.seconds, p.seconds
            ));
        }
        report.push_str("\n  ]\n}\n");
        let path = format!("{out_dir}/BENCH_figures.json");
        if let Err(e) = std::fs::write(&path, report) {
            exit_io_error("write timing report", &path, e);
        }
        println!(
            "timing: serial {serial_seconds:.2}s, --jobs {jobs} {parallel_seconds:.2}s \
             ({speedup:.2}x, {} kernels); report written to {path}",
            simcore::simd::active_kernels()
        );
        if !mismatched.is_empty() {
            eprintln!("--timing output mismatch in: {}", mismatched.join(", "));
            std::process::exit(1);
        }
        if let Some(baseline_path) = baseline {
            let text = match std::fs::read_to_string(&baseline_path) {
                Ok(t) => t,
                Err(e) => exit_io_error("read baseline", &baseline_path, e),
            };
            let Some(base_seconds) = json_f64_field(&text, "parallel_seconds") else {
                eprintln!("baseline {baseline_path:?} has no \"parallel_seconds\" field");
                std::process::exit(1);
            };
            let limit = base_seconds * REGRESSION_LIMIT;
            if parallel_seconds > limit {
                eprintln!(
                    "wall-clock regression: {parallel_seconds:.2}s vs baseline \
                     {base_seconds:.2}s (limit {limit:.2}s, +20%)"
                );
                std::process::exit(2);
            }
            println!(
                "baseline: {parallel_seconds:.2}s within {limit:.2}s \
                 (baseline {base_seconds:.2}s + 20%)"
            );
        }
    }

    // Last: degraded (but not torn down) runs exit 3. Every hard failure
    // above already exited 1 or 2 before reaching this point.
    if !failures.is_empty() {
        std::process::exit(3);
    }
}

/// A timing run may be at most this factor slower than its `--baseline`.
const REGRESSION_LIMIT: f64 = 1.20;

/// Extract the number following `"key":` from a flat JSON document.
///
/// `BENCH_figures.json` is written by this binary with a fixed shape, so a
/// scan is enough — no JSON dependency needed for the CI guard.
fn json_f64_field(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
