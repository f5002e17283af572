//! Metric definitions and the result line.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares (a test keeps the two in step).

use crate::work::FIGURES;

/// A metric's declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit (`s`, `count`, ...).
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

fn defs(table: &[(&str, &'static str, &'static str)]) -> Vec<Def> {
    table
        .iter()
        .map(|&(name, unit, better)| Def {
            name: name.into(),
            unit,
            better,
        })
        .collect()
}

/// The end-to-end metrics, reported by untraced runs.
pub fn end_to_end() -> Vec<Def> {
    defs(&[
        ("wall_ref", "ref", "lower"),
        ("peak_rss_mb", "MiB", "lower"),
        ("setup_s", "s", "lower"),
    ])
}

/// The per-layer metrics, reported by traced runs. A layer that does not
/// run in a workload reports 0.
pub fn per_layer() -> Vec<Def> {
    let mut out = defs(&[
        ("sim_lines_per_s", "1/s", "higher"),
        ("workloads.synth_s", "s", "lower"),
        ("workloads.events", "count", "lower"),
        ("dirtbuster.analyze_s", "s", "lower"),
        ("dirtbuster.apply_plan_s", "s", "lower"),
        ("dirtbuster.plan_sites", "count", "lower"),
        ("dirtbuster.prestores_inserted", "count", "lower"),
        ("simcore.validate_s", "s", "lower"),
        ("simcore.intern_s", "s", "lower"),
        ("simcore.distinct_lines", "count", "lower"),
        ("simcore.stream.feed_s", "s", "lower"),
        ("simcore.stream.chunks", "count", "lower"),
        ("simcore.stream.peak_window_bytes", "bytes", "lower"),
        ("machine.replay_s", "s", "lower"),
        ("machine.replay_ns_per_line", "ns", "lower"),
        ("machine.replays", "count", "lower"),
        ("machine.lines", "count", "lower"),
        ("machine.sim_cycles", "cycles", "lower"),
        ("machine.stall_cycles", "cycles", "lower"),
        ("cachesim.l1.accesses", "count", "lower"),
        ("cachesim.l1.miss_ratio", "ratio", "lower"),
        ("cachesim.llc.accesses", "count", "lower"),
        ("cachesim.llc.miss_ratio", "ratio", "lower"),
        ("cachesim.llc.dirty_evictions", "count", "lower"),
        ("cachesim.cleans", "count", "lower"),
        ("cachesim.sb_stall_cycles", "cycles", "lower"),
        ("memdev.writes_received", "count", "lower"),
        ("memdev.reads_received", "count", "lower"),
        ("memdev.bytes_received", "bytes", "lower"),
        ("memdev.media_bytes_written", "bytes", "lower"),
        ("memdev.write_amp", "ratio", "lower"),
        ("runner.wall_s", "s", "lower"),
        ("runner.critical_path_s", "s", "lower"),
        ("runner.busy_s", "s", "lower"),
        ("par.efficiency", "ratio", "higher"),
        ("memo.lookups", "count", "lower"),
        ("memo.hit_ratio", "ratio", "higher"),
        ("memo.evictions", "count", "lower"),
        ("memo.derive_s", "s", "lower"),
        ("bench.other_s", "s", "lower"),
        ("bench.reference_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.coverage_frac", "ratio", "higher"),
    ]);
    out.extend(FIGURES.iter().map(|(id, _)| Def {
        name: exp_metric(id),
        unit: "s",
        better: "lower",
    }));
    out
}

/// The per-layer metric holding experiment `id`'s runner time.
pub(crate) fn exp_metric(id: &str) -> String {
    format!("runner.exp.{id}_s")
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The machine-read result line: `correct`, `attempted`, `failed` and one
/// `{value, unit}` per metric.
pub fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &[(Def, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                finite(*v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a metric with no defined value reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
