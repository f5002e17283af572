//! The four workloads: what one set-up builds and what one pass does.
//!
//! Every pass starts from fresh inputs: traces are synthesized anew (so no
//! `TraceSet` carries a cached interned view over), the stream source is
//! rewound, and the run loop clears `ps_bench::memo` before each pass. Every
//! `simulate` call builds a fresh engine, so every simulated cache starts
//! cold in every replay.

use crate::spans::Recorder;
use dirtbuster::{apply_plan, DirtBusterConfig, PrestorePlan};
use machine::{MachineConfig, RunStats, StreamOptions};
use prestore::PrestoreMode;
use ps_bench::experiments;
use ps_bench::runner::{self, Experiment};
use simcore::{Event, EventSource, StreamFeed, TraceSet};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use workloads::kv::ycsb::{run_clht, run_masstree, YcsbKind, YcsbParams};
use workloads::kv::{KvServingSource, ServingParams};
use workloads::microbench::{listing1, Listing1Params};
use workloads::nas::mg::{self, MgParams};
use workloads::tensor::{training_step, TensorParams};
use workloads::x9::{self, X9Params};
use workloads::WorkloadOutput;

/// The workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 4] = ["advisor-a", "seqwrite-a", "kv-stream-b", "figures-quick"];

/// Input size: `Full` is what the benchmark measures; `Tiny` is a
/// seconds-long version of the same code path for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// The test size.
    Tiny,
}

/// One operation of a pass (a replay, or one experiment of
/// `figures-quick`) and its correctness fingerprint, or why it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Stable operation name (`MG/patched`, `elem256/clean`, `fig3a`).
    pub name: String,
    /// The fingerprint, or the typed error / panic message.
    pub fingerprint: Result<String, String>,
}

/// Deterministic per-pass counts, keyed by metric-style names.
pub type Counts = BTreeMap<&'static str, f64>;

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// The pass's operations, in a fixed order.
    pub ops: Vec<Op>,
    /// Component and layer counts summed over the pass.
    pub counts: Counts,
    /// `figures-quick` only: each experiment's wall-clock seconds as the
    /// runner measured it.
    pub experiments: Vec<(&'static str, f64)>,
}

/// A workload after set-up.
pub trait Workload {
    /// Run one pass, recording spans into `rec` when it is enabled.
    fn pass(&mut self, rec: &mut Recorder) -> Pass;

    /// Whether the inputs depend on `--seed` (if not, the pinned
    /// fingerprints apply to every seed).
    fn seeded(&self) -> bool {
        true
    }

    /// Threads the workload runs on (the `par.efficiency` denominator).
    fn jobs(&self) -> usize {
        1
    }

    /// Traced runs only: measurements taken outside the passes.
    fn probe(&mut self, _rec: &mut Recorder) -> Option<Pass> {
        None
    }
}

/// Build a workload (params, sources, experiment list), or `None` for an
/// unknown name.
pub fn setup(name: &str, scale: Scale, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "advisor-a" => Box::new(AdvisorA::new(scale, seed)),
        "seqwrite-a" => Box::new(SeqWriteA::new(scale, seed)),
        "kv-stream-b" => Box::new(KvStreamB::new(scale, seed)),
        "figures-quick" => Box::new(FiguresQuick::new(scale)),
        _ => return None,
    })
}

fn add(counts: &mut Counts, key: &'static str, v: impl Into<f64>) {
    *counts.entry(key).or_insert(0.0) += v.into();
}

/// Fold one replay's statistics into the pass counts.
fn add_stats(counts: &mut Counts, s: &RunStats) {
    add(counts, "machine.replays", 1.0);
    add(counts, "machine.sim_cycles", s.cycles as f64);
    let stalls: u64 = s
        .cores
        .iter()
        .map(|c| {
            c.fence_stall_cycles
                + c.atomic_stall_cycles
                + c.sb_pressure_stall_cycles
                + c.writeback_stall_cycles
        })
        .sum();
    add(counts, "machine.stall_cycles", stalls as f64);
    let lines: u64 = s.cores.iter().map(|c| c.read_lines + c.write_lines).sum();
    add(counts, "machine.lines", lines as f64);
    add(
        counts,
        "cachesim.l1.accesses",
        (s.l1.hits + s.l1.misses) as f64,
    );
    add(counts, "cachesim.l1.misses", s.l1.misses as f64);
    add(
        counts,
        "cachesim.llc.accesses",
        (s.llc.hits + s.llc.misses) as f64,
    );
    add(counts, "cachesim.llc.misses", s.llc.misses as f64);
    add(
        counts,
        "cachesim.llc.dirty_evictions",
        s.llc.dirty_evictions as f64,
    );
    add(
        counts,
        "cachesim.cleans",
        (s.l1.cleans + s.llc.cleans) as f64,
    );
    let sb: u64 = s.cores.iter().map(|c| c.sb_pressure_stall_cycles).sum();
    add(counts, "cachesim.sb_stall_cycles", sb as f64);
    add(
        counts,
        "memdev.writes_received",
        s.device.writes_received as f64,
    );
    add(
        counts,
        "memdev.reads_received",
        s.device.reads_received as f64,
    );
    add(
        counts,
        "memdev.bytes_received",
        s.device.bytes_received as f64,
    );
    add(
        counts,
        "memdev.media_bytes_written",
        s.device.media_bytes_written as f64,
    );
}

/// Fingerprint of a materialized replay.
fn replay_fingerprint(s: &RunStats) -> String {
    format!(
        "cycles={} recv={} media={}",
        s.cycles, s.device.bytes_received, s.device.media_bytes_written
    )
}

/// validate → intern → replay, each in its layer's span.
fn replay(
    rec: &mut Recorder,
    cfg: &MachineConfig,
    traces: &TraceSet,
    counts: &mut Counts,
) -> Result<RunStats, String> {
    rec.span("simcore.validate", |_| {
        simcore::trace::validate_threads(&traces.threads, cfg.line_size)
    })
    .map_err(|e| e.to_string())?;
    let interned = rec.span("simcore.intern", |_| traces.interned_for(cfg.line_size));
    add(
        counts,
        "simcore.distinct_lines",
        interned.interner().len() as f64,
    );
    let stats = rec.span("machine.replay", |_| machine::simulate(cfg, traces));
    add_stats(counts, &stats);
    Ok(stats)
}

/// Run `f`, turning a panic into an error message and closing the spans
/// it unwound through.
fn guarded<T>(
    rec: &mut Recorder,
    f: impl FnOnce(&mut Recorder) -> Result<T, String>,
) -> Result<T, String> {
    let depth = rec.depth();
    match catch_unwind(AssertUnwindSafe(|| f(rec))) {
        Ok(r) => r,
        Err(payload) => {
            rec.close_to(depth);
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic".into());
            Err(format!("panic: {msg}"))
        }
    }
}

/// A Table-3 application of the advisor flow.
enum App {
    Mg(MgParams),
    Tensor(TensorParams),
    X9(X9Params),
    Clht(YcsbParams),
    Masstree(YcsbParams),
}

impl App {
    fn name(&self) -> &'static str {
        match self {
            App::Mg(_) => "MG",
            App::Tensor(_) => "tensor",
            App::X9(_) => "x9",
            App::Clht(_) => "CLHT",
            App::Masstree(_) => "Masstree",
        }
    }

    fn synthesize(&self) -> WorkloadOutput {
        let none = PrestoreMode::None;
        match self {
            App::Mg(p) => mg::run(p, none),
            App::Tensor(p) => training_step(p, none),
            App::X9(p) => x9::run(p, none),
            App::Clht(p) => run_clht(p, none),
            App::Masstree(p) => run_masstree(p, none),
        }
    }
}

/// `advisor-a`: the DirtBuster user flow on Machine A over the Table-3
/// applications, at the `autotune` experiment's full-scale parameters.
pub struct AdvisorA {
    apps: Vec<App>,
    cfg: MachineConfig,
    db: DirtBusterConfig,
}

impl AdvisorA {
    fn new(scale: Scale, seed: u64) -> Self {
        let full = scale == Scale::Full;
        let mut tensor = if full {
            let mut p = TensorParams::new(16);
            p.large_elems = 1 << 17;
            p.small_ops = 8_000;
            p
        } else {
            TensorParams::quick()
        };
        tensor.seed = tensor.seed.wrapping_add(seed);
        let mut ycsb = if full {
            let mut p = YcsbParams::new(YcsbKind::A, 1024, 4);
            p.records = 8_000;
            p.ops = 12_000;
            p
        } else {
            YcsbParams::quick()
        };
        ycsb.seed = ycsb.seed.wrapping_add(seed);
        let apps = vec![
            App::Mg(if full {
                MgParams {
                    n: 48,
                    iters: 1,
                    threads: 1,
                }
            } else {
                MgParams::quick()
            }),
            App::Tensor(tensor),
            App::X9(if full {
                X9Params {
                    messages: 10_000,
                    ..X9Params::default_params()
                }
            } else {
                X9Params::quick()
            }),
            App::Clht(ycsb.clone()),
            App::Masstree(ycsb),
        ];
        Self {
            apps,
            cfg: MachineConfig::machine_a(),
            db: DirtBusterConfig::default(),
        }
    }
}

impl Workload for AdvisorA {
    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        for app in &self.apps {
            let counts = &mut pass.counts;
            let res = guarded(rec, |rec| {
                let out = rec.span("workloads.synth", |_| app.synthesize());
                add(counts, "workloads.events", out.traces.total_events() as f64);
                let plan = rec.span("dirtbuster.analyze", |_| {
                    PrestorePlan::from_analysis(&dirtbuster::analyze(
                        &out.traces,
                        &out.registry,
                        &self.db,
                    ))
                });
                let patched = rec.span("dirtbuster.apply_plan", |_| apply_plan(&out.traces, &plan));
                add(counts, "dirtbuster.plan_sites", plan.len() as f64);
                let inserted = patched.total_events() - out.traces.total_events();
                add(counts, "dirtbuster.prestores_inserted", inserted as f64);
                let base = replay(rec, &self.cfg, &out.traces, counts);
                drop(out);
                let pat = replay(rec, &self.cfg, &patched, counts);
                let fp = |r: Result<RunStats, String>| {
                    r.map(|s| format!("{} plan={}", replay_fingerprint(&s), plan.len()))
                };
                Ok([fp(base), fp(pat)])
            });
            let [base, pat] = match res {
                Ok(pair) => pair,
                Err(e) => [Err(e.clone()), Err(e)],
            };
            pass.ops.push(Op {
                name: format!("{}/baseline", app.name()),
                fingerprint: base,
            });
            pass.ops.push(Op {
                name: format!("{}/patched", app.name()),
                fingerprint: pat,
            });
        }
        pass
    }
}

/// `seqwrite-a`: Listing 1 on Machine A, 5 threads, each element size
/// with and without `clean` pre-stores.
pub struct SeqWriteA {
    params: Vec<Listing1Params>,
    cfg: MachineConfig,
}

impl SeqWriteA {
    const ELEMS: [u32; 4] = [64, 256, 1024, 4096];

    fn new(scale: Scale, seed: u64) -> Self {
        let params = Self::ELEMS
            .iter()
            .map(|&elem| {
                let mut p = Listing1Params::new(5, elem);
                if scale == Scale::Tiny {
                    p.footprint = 1 << 20;
                    p.iters = p.footprint / u64::from(elem) / 5;
                }
                p.seed = p.seed.wrapping_add(seed);
                p
            })
            .collect();
        Self {
            params,
            cfg: MachineConfig::machine_a(),
        }
    }
}

impl Workload for SeqWriteA {
    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        for p in &self.params {
            for mode in [PrestoreMode::None, PrestoreMode::Clean] {
                let counts = &mut pass.counts;
                let fingerprint = guarded(rec, |rec| {
                    let out = rec.span("workloads.synth", |_| listing1(p, mode));
                    add(counts, "workloads.events", out.traces.total_events() as f64);
                    replay(rec, &self.cfg, &out.traces, counts).map(|s| replay_fingerprint(&s))
                });
                let name = format!("elem{}/{}", p.elem_size, mode.name());
                pass.ops.push(Op { name, fingerprint });
            }
        }
        pass
    }
}

/// An [`EventSource`] that records a `workloads.synth` span around every
/// `fill`, so synthesis shows as a child of whatever consumes the stream.
struct TimedSource<'a, S> {
    inner: &'a mut S,
    rec: &'a mut Recorder,
}

impl<S: EventSource> EventSource for TimedSource<'_, S> {
    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn fill(&mut self, thread: usize, max: usize, buf: &mut Vec<Event>) -> usize {
        let Self { inner, rec } = self;
        rec.span("workloads.synth", |_| inner.fill(thread, max, buf))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// `kv-stream-b`: the million-tenant KV serving stream with `clean` PUTs,
/// replayed chunk by chunk on Machine B-fast with per-class latency.
pub struct KvStreamB {
    source: KvServingSource,
    cfg: MachineConfig,
    opts: StreamOptions,
    /// Digest of the last replayed stream, checked by the feed probe.
    last_digest: Option<u64>,
}

impl KvStreamB {
    fn new(scale: Scale, seed: u64) -> Self {
        let (users, events) = match scale {
            Scale::Full => (1_000_000, 8_000_000),
            Scale::Tiny => (10_000, 40_000),
        };
        let mut params = ServingParams::new(users, events, 2, PrestoreMode::Clean);
        params.seed = params.seed.wrapping_add(seed);
        Self {
            source: KvServingSource::new(params),
            cfg: MachineConfig::machine_b_fast(),
            opts: StreamOptions::default(),
            last_digest: None,
        }
    }
}

impl Workload for KvStreamB {
    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        self.source.reset();
        let classifier = Box::new(self.source.classifier());
        let (cfg, opts, source) = (&self.cfg, self.opts, &mut self.source);
        let report = guarded(rec, |rec| {
            rec.span("machine.replay", |rec| {
                if rec.enabled() {
                    let mut timed = TimedSource { inner: source, rec };
                    machine::try_simulate_stream_classified(cfg, &mut timed, opts, classifier)
                } else {
                    machine::try_simulate_stream_classified(cfg, source, opts, classifier)
                }
            })
            .map_err(|e| e.to_string())
        });
        let fingerprint = report.map(|r| {
            add(&mut pass.counts, "workloads.events", r.events as f64);
            add_stats(&mut pass.counts, &r.stats);
            self.last_digest = Some(r.digest);
            let mut fp = format!("digest={:016x} cycles={}", r.digest, r.stats.cycles);
            for h in &r.stats.request_latency {
                fp.push_str(&format!(" {}={}/{}", h.name, h.p50(), h.p99()));
            }
            fp
        });
        pass.ops.push(Op {
            name: "serving/clean".into(),
            fingerprint,
        });
        pass
    }

    /// A feed-only pass: source → `StreamFeed::refill` with no engine, so
    /// the streaming layer's validate+digest+intern cost is measured on
    /// its own. Its digest must equal the replayed stream's.
    fn probe(&mut self, rec: &mut Recorder) -> Option<Pass> {
        let mut pass = Pass::default();
        self.source.reset();
        let threads = self.source.threads();
        let mut feed = StreamFeed::new(self.cfg.line_size, threads, self.opts.chunk_events);
        let source = &mut self.source;
        let fed = guarded(rec, |rec| {
            rec.span("simcore.stream.feed", |rec| {
                let mut timed = TimedSource { inner: source, rec };
                let mut live = true;
                while live {
                    live = false;
                    for t in 0..threads {
                        if !feed.exhausted(t) {
                            feed.refill(&mut timed, t).map_err(|e| e.to_string())?;
                            live = true;
                        }
                    }
                }
                Ok(())
            })
        });
        add(
            &mut pass.counts,
            "simcore.stream.chunks",
            feed.chunks() as f64,
        );
        add(
            &mut pass.counts,
            "simcore.stream.peak_window_bytes",
            feed.peak_window_bytes() as f64,
        );
        add(
            &mut pass.counts,
            "simcore.distinct_lines",
            feed.interner().len() as f64,
        );
        let fingerprint = fed.and_then(|()| match self.last_digest {
            Some(d) if d != feed.digest() => Err(format!(
                "feed digest {:016x} != replay digest {d:016x}",
                feed.digest()
            )),
            _ => Ok(format!("digest={:016x}", feed.digest())),
        });
        pass.ops.push(Op {
            name: "serving/feed".into(),
            fingerprint,
        });
        Some(pass)
    }
}

/// Every `--quick` experiment, as the `figures` binary lists them.
pub const FIGURES: [Experiment; 29] = [
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

/// The experiments of the tiny `figures-quick`.
const TINY_FIGURES: [&str; 2] = ["table1", "listing3"];

/// FNV-1a 64 of `bytes`: a stable content hash for the rendered CSVs.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `figures-quick`: every `--quick` experiment through the parallel
/// runner at jobs = the host's CPU count, CSVs rendered in memory.
pub struct FiguresQuick {
    list: Vec<Experiment>,
    jobs: usize,
}

impl FiguresQuick {
    fn new(scale: Scale) -> Self {
        let list = match scale {
            Scale::Full => FIGURES.to_vec(),
            Scale::Tiny => FIGURES
                .iter()
                .filter(|(id, _)| TINY_FIGURES.contains(id))
                .copied()
                .collect(),
        };
        // The CPU count is read once per process, as the `figures` binary
        // does; reading it costs cgroup file reads whose time the host's
        // load dominates.
        static JOBS: OnceLock<usize> = OnceLock::new();
        let jobs = *JOBS.get_or_init(runner::default_jobs);
        runner::set_jobs(jobs);
        Self { list, jobs }
    }
}

impl Workload for FiguresQuick {
    fn seeded(&self) -> bool {
        false
    }

    fn jobs(&self) -> usize {
        self.jobs
    }

    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        let list = &self.list;
        let figs = guarded(rec, |rec| {
            Ok(rec.span("ps_bench.runner", |_| runner::run_experiments(list, true)))
        });
        match figs {
            Ok(figs) => {
                for t in figs {
                    pass.experiments.push((t.id, t.seconds));
                    let fingerprint =
                        Ok(format!("csv={:016x}", fnv1a(t.fig.render_csv().as_bytes())));
                    pass.ops.push(Op {
                        name: t.id.into(),
                        fingerprint,
                    });
                }
            }
            Err(e) => {
                for (id, _) in list {
                    pass.ops.push(Op {
                        name: (*id).into(),
                        fingerprint: Err(e.clone()),
                    });
                }
            }
        }
        let m = ps_bench::memo::counters();
        add(&mut pass.counts, "memo.lookups", m.lookups as f64);
        add(&mut pass.counts, "memo.hits", m.hits as f64);
        add(&mut pass.counts, "memo.evictions", m.evictions as f64);
        add(&mut pass.counts, "memo.derive_ns", m.derive_ns as f64);
        pass
    }
}
