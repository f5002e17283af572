//! One benchmark run: set-up, timed passes, correctness checks, metrics.

use crate::host::{fingerprint, peak_rss_bytes};
use crate::metrics::{self, Def};
use crate::pinned;
use crate::reference::Reference;
use crate::spans::{self, Recorder, Span};
use crate::work::{self, Counts, Op, Scale};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Before every pass, set-up is repeated at least this many times ...
const MIN_SETUPS: usize = 5;
/// ... and keeps repeating while the repetitions took less than this ...
const SETUP_BUDGET: Duration = Duration::from_millis(10);
/// ... but never more often than this.
const MAX_SETUPS: usize = 1000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`work::NAMES`].
    pub workload: String,
    /// Offset added to every workload params seed; 0 is the repository's
    /// own default inputs, whose fingerprints are pinned.
    pub seed: u64,
    /// Minimum measured time: passes repeat until it has elapsed.
    pub seconds: f64,
    /// Traced run: alternate untraced and traced passes and report the
    /// per-layer metrics.
    pub trace: bool,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted (replays, or experiments).
    pub attempted: u64,
    /// Operations that failed: typed error, panic, or fingerprint mismatch.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or per-layer ones (traced).
    pub metrics: Vec<(Def, f64)>,
    /// Every span of the run, for export.
    pub spans: Vec<Span>,
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile of `v` by linear interpolation between order
/// statistics (0 for an empty slice).
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest whole percentile above the median that has at least ten
/// of the `n` samples beyond it, if there is one.
pub fn tail_percentile(n: usize) -> Option<f64> {
    let p = (100.0 * (1.0 - 10.0 / n as f64)).floor();
    (p > 50.0).then_some(p)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Check one pass's operations against the pinned fingerprints (when they
/// apply) and against the first pass's. Returns one message per failure.
pub fn check(ops: &[Op], pinned: Option<&[(&str, &str)]>, first: Option<&[Op]>) -> Vec<String> {
    let mut failures = Vec::new();
    for op in ops {
        let fp = match &op.fingerprint {
            Ok(fp) => fp,
            Err(e) => {
                failures.push(format!("{}: {e}", op.name));
                continue;
            }
        };
        if let Some(pinned) = pinned {
            match pinned.iter().find(|(n, _)| *n == op.name) {
                Some((_, want)) if want == fp => {}
                Some((_, want)) => failures.push(format!("{}: got {fp}, pinned {want}", op.name)),
                None => failures.push(format!("{}: no pinned fingerprint", op.name)),
            }
        }
        if let Some(first) = first {
            match first.iter().find(|f| f.name == op.name) {
                Some(f) if f.fingerprint.as_ref() == Ok(fp) => {}
                _ => failures.push(format!("{}: differs from the first pass", op.name)),
            }
        }
    }
    failures
}

/// Set up `name` at least [`MIN_SETUPS`] times and for at least
/// [`SETUP_BUDGET`], appending each set-up's seconds to `times`; returns
/// the last workload built.
fn time_setups(
    name: &str,
    scale: Scale,
    seed: u64,
    times: &mut Vec<f64>,
) -> Box<dyn work::Workload> {
    let batch = Instant::now();
    let mut n = 0;
    loop {
        let t = Instant::now();
        let w = work::setup(name, scale, seed).expect("known workload name");
        times.push(t.elapsed().as_secs_f64());
        n += 1;
        if n >= MAX_SETUPS || (n >= MIN_SETUPS && batch.elapsed() >= SETUP_BUDGET) {
            return w;
        }
    }
}

/// Timings of one kind of pass (untraced or traced).
#[derive(Debug, Default)]
struct Passes {
    /// Wall-clock seconds of each pass.
    wall: Vec<f64>,
    /// Each pass's seconds divided by the reference loop's.
    rel: Vec<f64>,
}

/// Run `args` at `scale`, writing the human-readable log to `log`.
pub fn run(args: &Args, scale: Scale, log: &mut dyn FnMut(String)) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    if !work::NAMES.contains(&name) {
        return Err(format!(
            "unknown workload {name:?}; known: {}",
            work::NAMES.join(", ")
        ));
    }
    log(format!(
        "perfbench workload={name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    ));
    log(format!("host {}", fingerprint()));

    // Set-up (params, sources, the experiment list) is timed in a batch
    // before every pass, so that `setup_s` is a median over the whole run;
    // the passes use the first batch's last workload.
    let mut setups = Vec::new();
    let mut w = time_setups(name, scale, args.seed, &mut setups);
    let pinned = (args.seed == 0 || !w.seeded()).then(|| pinned::fingerprints(name, scale));

    let mut rec = Recorder::new(false);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<Vec<Op>> = None;
    let (mut untraced, mut traced) = (Passes::default(), Passes::default());
    let mut refs = Vec::new();
    let mut lines = 0.0;
    let mut rss_bytes = None;
    let mut selfs: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut coverage = Vec::new();
    let mut runner: Vec<[f64; 3]> = Vec::new();
    let mut exps: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts = Counts::new();
    let mut reference = Reference::new(w.jobs());
    let start = Instant::now();
    for i in 0.. {
        if i > 0 {
            time_setups(name, scale, args.seed, &mut setups);
        }
        let traced_pass = args.trace && i % 2 == 1;
        rec.set_enabled(traced_pass);
        ps_bench::memo::clear();
        let before = reference.seconds();
        let mark = rec.len();
        let t = Instant::now();
        rec.enter("pass");
        let pass = w.pass(&mut rec);
        rec.exit();
        let wall = t.elapsed().as_secs_f64();
        let ref_s = (before + reference.seconds()) / 2.0;
        refs.push(ref_s);

        // Peak memory of the first pass: later passes reuse what the
        // allocator kept, and their number depends on the pass time.
        rss_bytes = rss_bytes.or_else(peak_rss_bytes);

        let failures = check(&pass.ops, pinned, first.as_deref());
        attempted += pass.ops.len() as u64;
        failed += failures.len() as u64;
        for f in failures {
            log(format!("FAIL pass {i}: {f}"));
        }
        if first.is_none() {
            for op in &pass.ops {
                let fp = op
                    .fingerprint
                    .as_ref()
                    .map_or_else(|e| format!("ERROR {e}"), Clone::clone);
                log(format!("fingerprint {} {fp}", op.name));
            }
            first = Some(pass.ops.clone());
        }
        let kind = if traced_pass { "traced" } else { "untraced" };
        log(format!(
            "pass {i} {kind} {wall:.4} s, reference {ref_s:.5} s, ratio {:.3}",
            wall / ref_s
        ));

        lines = pass.counts.get("machine.lines").copied().unwrap_or(0.0);
        let passes = if traced_pass {
            &mut traced
        } else {
            &mut untraced
        };
        passes.wall.push(wall);
        passes.rel.push(wall / ref_s);
        if traced_pass {
            let spans = rec.since(mark);
            let by_name = spans::self_seconds_by_name(&spans);
            coverage.push(1.0 - ratio(by_name["pass"], spans[0].dur_ns() as f64 / 1e9));
            selfs.push(by_name);
            let busy: f64 = pass.experiments.iter().map(|e| e.1).sum();
            let critical = pass.experiments.iter().map(|e| e.1).fold(0.0, f64::max);
            runner.push([critical, busy, ratio(busy, wall * w.jobs() as f64)]);
            for &(id, s) in &pass.experiments {
                exps.entry(id).or_default().push(s);
            }
            counts = pass.counts;
        }
        let enough = !untraced.wall.is_empty() && (!args.trace || !traced.wall.is_empty());
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut probe_selfs = BTreeMap::new();
    if args.trace {
        rec.set_enabled(true);
        let mark = rec.len();
        if let Some(p) = w.probe(&mut rec) {
            let failures = check(&p.ops, pinned, None);
            attempted += p.ops.len() as u64;
            failed += failures.len() as u64;
            for f in failures {
                log(format!("FAIL probe: {f}"));
            }
            for (k, v) in p.counts {
                *counts.entry(k).or_insert(0.0) += v;
            }
            probe_selfs = spans::self_seconds_by_name(&rec.since(mark));
        }
    }

    let wall_s = median(&untraced.wall);
    let wall_ref = median(&untraced.rel);
    let lines_per_s = ratio(lines, wall_s);
    let setup_s = median(&setups);
    let rss_mb = rss_bytes.ok_or("no VmHWM in /proc/self/status")? as f64 / (1u64 << 20) as f64;
    let n = untraced.wall.len();
    let tail = tail_percentile(n).map_or_else(
        || "no tail percentile".to_owned(),
        |p| format!("p{p} {:.4} s", percentile(&untraced.wall, p)),
    );
    log(format!(
        "wall_ref           {wall_ref:.4} ref   lower is better   (median of {n} passes)"
    ));
    log(format!(
        "wall_s             {wall_s:.4} s   lower is better   (median of {n} passes; {tail})"
    ));
    log(format!(
        "sim_lines_per_s    {lines_per_s:.0} 1/s   higher is better"
    ));
    log(format!(
        "peak_rss_mb        {rss_mb:.1} MiB   lower is better"
    ));
    log(format!(
        "setup_s            {setup_s:.9} s   lower is better   (median of {} set-ups)",
        setups.len()
    ));
    log(format!(
        "ops_failed_frac    {} ({failed}/{attempted})   lower is better",
        ratio(failed as f64, attempted as f64)
    ));

    let metrics = if args.trace {
        let s = |span: &str| {
            median(
                &selfs
                    .iter()
                    .map(|m| m.get(span).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            )
        };
        let c = |k: &str| counts.get(k).copied().unwrap_or(0.0);
        let col = |j: usize| median(&runner.iter().map(|r| r[j]).collect::<Vec<_>>());
        let mut values: BTreeMap<String, f64> = [
            ("sim_lines_per_s", lines_per_s),
            ("workloads.synth_s", s("workloads.synth")),
            ("dirtbuster.analyze_s", s("dirtbuster.analyze")),
            ("dirtbuster.apply_plan_s", s("dirtbuster.apply_plan")),
            ("simcore.validate_s", s("simcore.validate")),
            ("simcore.intern_s", s("simcore.intern")),
            (
                "simcore.stream.feed_s",
                probe_selfs
                    .get("simcore.stream.feed")
                    .copied()
                    .unwrap_or(0.0),
            ),
            ("machine.replay_s", s("machine.replay")),
            (
                "machine.replay_ns_per_line",
                ratio(s("machine.replay") * 1e9, c("machine.lines")),
            ),
            (
                "cachesim.l1.miss_ratio",
                ratio(c("cachesim.l1.misses"), c("cachesim.l1.accesses")),
            ),
            (
                "cachesim.llc.miss_ratio",
                ratio(c("cachesim.llc.misses"), c("cachesim.llc.accesses")),
            ),
            (
                "memdev.write_amp",
                ratio(c("memdev.media_bytes_written"), c("memdev.bytes_received")),
            ),
            ("runner.wall_s", s("ps_bench.runner")),
            ("runner.critical_path_s", col(0)),
            ("runner.busy_s", col(1)),
            ("par.efficiency", col(2)),
            ("memo.hit_ratio", ratio(c("memo.hits"), c("memo.lookups"))),
            ("memo.derive_s", c("memo.derive_ns") / 1e9),
            ("bench.other_s", s("pass")),
            ("bench.reference_s", median(&refs)),
            ("trace.traced_wall_s", median(&traced.wall)),
            ("trace.untraced_wall_s", wall_s),
            (
                "trace.overhead_frac",
                ratio(median(&traced.rel), wall_ref) - 1.0,
            ),
            ("trace.coverage_frac", median(&coverage)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        for (id, v) in &exps {
            values.insert(metrics::exp_metric(id), median(v));
        }
        metrics::per_layer()
            .into_iter()
            .map(|d| {
                let v = values.get(&d.name).copied().unwrap_or_else(|| c(&d.name));
                (d, v)
            })
            .collect::<Vec<_>>()
    } else {
        let values = [wall_ref, rss_mb, setup_s];
        metrics::end_to_end().into_iter().zip(values).collect()
    };
    if args.trace {
        for (d, v) in &metrics {
            log(format!("{:<34} {v} {}", d.name, d.unit));
        }
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        spans: rec.spans().to_vec(),
    })
}
