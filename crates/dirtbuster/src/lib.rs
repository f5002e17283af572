//! DirtBuster: a dynamic-analysis tool that finds the code locations that
//! benefit from pre-stores (§6 of the paper).
//!
//! DirtBuster runs in three steps, mirrored by this crate's modules:
//!
//! 1. **[`sampling`]** — sample memory accesses (the paper uses `perf`;
//!    here every N-th trace event) to find the *write-intensive functions*
//!    and the call chains that lead to them. Cheap but too coarse for
//!    pattern analysis.
//! 2. **[`patterns`]** — "binary instrumentation" (the paper uses Intel
//!    PIN; here the full event trace) of the write-intensive functions
//!    only: detect *sequentiality contexts*, measure the distance from
//!    writes to the next fence, and compute per-cache-line *re-read* and
//!    *re-write* distances (stored in a B-Tree, like the paper §6.2.3).
//! 3. **[`recommend`]** — choose `demote`, `clean`, `skip`, or nothing for
//!    each function, and render reports in the paper's format:
//!
//!    ```text
//!    Location: <...>/mg.f90 line 544
//!    Perc. Seq. Writes: 100%
//!     Size: 2.1MB - 100% - re-read 23.8K - re-write inf
//!    Pre-store choice: clean
//!    ```
//!
//! The whole pipeline is driven by [`analyze`]. Two further modules close
//! the loop mechanically: [`apply`] rewrites a recorded trace as the
//! hand-patched binary would have produced it, and [`search`](mod@search)
//! hill-climbs over per-site plans against a replay [`objective`]
//! (`--auto`).

pub mod apply;
pub mod objective;
pub mod patterns;
pub mod recommend;
pub mod sampling;
pub mod search;

pub use apply::{apply_plan, auto_patch, PrestorePlan};
pub use objective::Objective;
pub use patterns::{BucketStat, FuncPatterns, PatternAnalysis};
pub use recommend::{Recommendation, Report};
pub use sampling::{FuncSample, SamplingProfile};
pub use search::{
    render_convergence, render_plan, search, SearchConfig, SearchOutcome, SearchStep, StepAction,
};

use simcore::{FuncRegistry, TraceSet};

/// Tunable thresholds of the analysis.
#[derive(Debug, Clone)]
pub struct DirtBusterConfig {
    /// Sampling interval for step 1 (every N-th event).
    pub sample_interval: usize,
    /// An application whose sampled store fraction is below this is not
    /// write-intensive at all (the paper's "less than 10% of their time
    /// issuing store instructions", §7.1).
    pub app_write_threshold: f64,
    /// A function must account for at least this share of the sampled
    /// stores to be monitored in step 2.
    pub func_share_threshold: f64,
    /// Minimum fraction of a function's writes that must fall in
    /// sequentiality contexts for the function to count as a sequential
    /// writer.
    pub seq_threshold: f64,
    /// A write followed by a fence within this many instructions counts as
    /// "written before a fence".
    pub fence_distance_threshold: u64,
    /// Fraction of writes that must be fence-covered for the
    /// writes-before-fence pattern to hold.
    pub fence_fraction_threshold: f64,
    /// A mean re-write distance below this means the data is re-written
    /// (cleaning it would cause redundant memory writes).
    pub rewrite_short: f64,
    /// A mean re-read distance below this means the data is re-read
    /// (skipping the cache would force reads from memory).
    pub reread_short: f64,
    /// Adjacency slack when extending a sequentiality context, in bytes.
    pub context_slack: u64,
    /// Cache-line size used for distance tracking.
    pub line_size: u64,
}

impl Default for DirtBusterConfig {
    fn default() -> Self {
        Self {
            sample_interval: 97,
            app_write_threshold: 0.10,
            func_share_threshold: 0.05,
            seq_threshold: 0.3,
            fence_distance_threshold: 2_000,
            fence_fraction_threshold: 0.3,
            rewrite_short: 50_000.0,
            reread_short: 1_000_000.0,
            context_slack: 64,
            line_size: 64,
        }
    }
}

/// Complete output of a DirtBuster run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Step 1: the sampling profile.
    pub sampling: SamplingProfile,
    /// Step 2: per-function pattern analysis (write-intensive funcs only).
    pub patterns: PatternAnalysis,
    /// Step 3: per-function reports with recommendations, ordered by the
    /// function's share of stores (most write-intensive first).
    pub reports: Vec<Report>,
}

impl Analysis {
    /// Whether the application is write-intensive at all (Table 2 col 1).
    pub fn write_intensive(&self) -> bool {
        self.sampling.write_intensive
    }

    /// Whether any monitored function writes sequentially (Table 2 col 2).
    pub fn sequential_writes(&self) -> bool {
        self.reports.iter().any(|r| r.sequential)
    }

    /// Whether any monitored function writes before fences (Table 2 col 3).
    pub fn writes_before_fence(&self) -> bool {
        self.reports.iter().any(|r| r.before_fence)
    }

    /// The report for `func`, if it was monitored.
    pub fn report_for(&self, func: simcore::FuncId) -> Option<&Report> {
        self.reports.iter().find(|r| r.func == func)
    }

    /// Render all reports in the paper's output format.
    pub fn render(&self, reg: &FuncRegistry) -> String {
        let mut out = String::new();
        for r in &self.reports {
            out.push_str(&r.render(reg));
            out.push('\n');
        }
        out
    }
}

/// Run the full DirtBuster pipeline on `traces`.
///
/// # Examples
///
/// ```
/// use simcore::{FuncRegistry, TraceSet, Tracer};
///
/// let mut reg = FuncRegistry::new();
/// let f = reg.register("writer", "app.rs", 10);
/// let mut t = Tracer::new();
/// {
///     let mut g = t.enter(f);
///     for i in 0..10_000u64 {
///         g.write(i * 64, 64);
///     }
/// }
/// let traces = TraceSet::new(vec![t.finish()]);
/// let analysis = dirtbuster::analyze(&traces, &reg, &Default::default());
/// assert!(analysis.write_intensive());
/// assert!(analysis.sequential_writes());
/// ```
pub fn analyze(traces: &TraceSet, reg: &FuncRegistry, cfg: &DirtBusterConfig) -> Analysis {
    // Step 1: sampling pass.
    let sampling = sampling::profile(traces, cfg);
    let monitored = sampling.write_intensive_funcs(cfg);
    // Step 2: instrumentation pass over the monitored functions.
    let patterns = patterns::analyze(traces, &monitored, cfg);
    // Step 3: recommendations.
    let mut reports: Vec<Report> =
        patterns.funcs.iter().map(|fp| recommend::decide(fp, cfg)).collect();
    let share_of = |f: simcore::FuncId| {
        sampling.funcs.iter().find(|s| s.func == f).map_or(0.0, |s| s.store_share)
    };
    reports.sort_by(|a, b| {
        share_of(b.func).partial_cmp(&share_of(a.func)).unwrap_or(std::cmp::Ordering::Equal)
    });
    let _ = reg; // Registry is only needed for rendering.
    Analysis { sampling, patterns, reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Tracer;

    /// End-to-end: a sequential writer whose data is never re-used must be
    /// told to skip (or at least clean), never to demote.
    #[test]
    fn sequential_never_reused_suggests_skip() {
        let mut reg = FuncRegistry::new();
        let f = reg.register("stream_writer", "app.rs", 1);
        let mut t = Tracer::new();
        {
            let mut g = t.enter(f);
            for i in 0..50_000u64 {
                g.write(i * 64, 64);
            }
        }
        let analysis = analyze(&TraceSet::new(vec![t.finish()]), &reg, &Default::default());
        let r = analysis.report_for(f).expect("monitored");
        assert!(r.sequential);
        assert_eq!(r.choice, Recommendation::Skip);
    }

    /// A writer whose data is immediately re-read must be told to clean.
    #[test]
    fn sequential_reread_suggests_clean() {
        let mut reg = FuncRegistry::new();
        let f = reg.register("write_then_read", "app.rs", 2);
        let mut t = Tracer::new();
        {
            let mut g = t.enter(f);
            for i in 0..50_000u64 {
                g.write(i * 64, 64);
                g.read(i * 64, 8);
            }
        }
        let analysis = analyze(&TraceSet::new(vec![t.finish()]), &reg, &Default::default());
        let r = analysis.report_for(f).expect("monitored");
        assert_eq!(r.choice, Recommendation::Clean);
    }

    /// Listing 3: a hot, constantly rewritten line gets no pre-store.
    #[test]
    fn hot_rewrite_suggests_nothing() {
        let mut reg = FuncRegistry::new();
        let f = reg.register("hot_loop", "app.rs", 3);
        let mut t = Tracer::new();
        {
            let mut g = t.enter(f);
            for _ in 0..50_000u64 {
                g.write(0, 64);
                g.compute(10);
            }
        }
        let analysis = analyze(&TraceSet::new(vec![t.finish()]), &reg, &Default::default());
        let r = analysis.report_for(f).expect("monitored");
        assert_eq!(r.choice, Recommendation::NoPrestore);
    }

    /// Rewritten data published through fences gets demote (the X9 case).
    #[test]
    fn rewrite_before_fence_suggests_demote() {
        let mut reg = FuncRegistry::new();
        let f = reg.register("fill_msg", "x9.rs", 4);
        let mut t = Tracer::new();
        {
            let mut g = t.enter(f);
            for i in 0..20_000u64 {
                // 8 reused message slots, rewritten and CAS-published.
                let slot = (i % 8) * 256;
                g.write(slot, 256);
                g.atomic(1 << 20, 8);
            }
        }
        let analysis = analyze(&TraceSet::new(vec![t.finish()]), &reg, &Default::default());
        let r = analysis.report_for(f).expect("monitored");
        assert!(r.before_fence);
        assert_eq!(r.choice, Recommendation::Demote);
    }

    /// A read-dominated trace is not write-intensive: no reports at all.
    #[test]
    fn read_mostly_app_not_monitored() {
        let mut reg = FuncRegistry::new();
        let f = reg.register("reader", "app.rs", 5);
        let mut t = Tracer::new();
        {
            let mut g = t.enter(f);
            for i in 0..50_000u64 {
                g.read(i * 64 % 100_000, 8);
                if i % 20 == 0 {
                    g.write(i * 64, 8);
                }
            }
        }
        let analysis = analyze(&TraceSet::new(vec![t.finish()]), &reg, &Default::default());
        assert!(!analysis.write_intensive());
        assert!(analysis.reports.is_empty());
    }

    /// Random small writes (the IS `rank` case): write-intensive but
    /// neither sequential nor fence-bound — no recommendation.
    #[test]
    fn random_writes_get_no_recommendation() {
        let mut reg = FuncRegistry::new();
        let f = reg.register("rank", "is.rs", 6);
        let mut t = Tracer::new();
        let mut rng = simcore::rng::SimRng::new(3);
        {
            let mut g = t.enter(f);
            for _ in 0..50_000u64 {
                let a = rng.gen_range(1 << 24) * 8;
                g.write(a, 8);
            }
        }
        let analysis = analyze(&TraceSet::new(vec![t.finish()]), &reg, &Default::default());
        let r = analysis.report_for(f).expect("monitored");
        assert!(!r.sequential);
        assert!(!r.before_fence);
        assert_eq!(r.choice, Recommendation::NoPrestore);
    }

    #[test]
    fn render_produces_paper_format() {
        let mut reg = FuncRegistry::new();
        let f = reg.register("psinv", "mg.f90", 614);
        let mut t = Tracer::new();
        {
            let mut g = t.enter(f);
            for i in 0..50_000u64 {
                g.write(i * 64, 64);
            }
        }
        let analysis = analyze(&TraceSet::new(vec![t.finish()]), &reg, &Default::default());
        let text = analysis.render(&reg);
        assert!(text.contains("Location: mg.f90 line 614"), "{text}");
        assert!(text.contains("Perc. Seq. Writes:"), "{text}");
        assert!(text.contains("Pre-store choice:"), "{text}");
    }
}
