//! Million-tenant KV serving, replayed through the streaming pipeline.
//!
//! This is the tentpole scenario for the bounded-memory path: the tenant
//! population is far too large (and the request stream far too long) to
//! materialize, so each sweep point synthesizes its events on the fly as
//! a [`KvServingSource`] and replays them with
//! [`machine::try_simulate_stream_opts`]. Results are memoized on the stream's
//! chunk-size-invariant digest ([`memo::stream_cached`]) — re-generating
//! a synthetic stream for the digest pre-pass is cheap; replaying it is
//! not.

use crate::{memo, runner, FigureResult, Series};
use machine::{MachineConfig, StreamOptions, StreamReport};
use prestore::PrestoreMode;
use workloads::kv::{KvServingSource, ServingParams};

/// Tenant populations swept by the figure.
const USERS: [u64; 3] = [100_000, 300_000, 1_000_000];
const USERS_QUICK: [u64; 2] = [20_000, 100_000];

/// Events per sweep point (whole-request rounding makes actuals slightly
/// higher). The smoke-scale CI run and the 100M+ headline run drive the
/// same source through the `kv_serving` binary instead.
const EVENTS: u64 = 2_000_000;
const EVENTS_QUICK: u64 = 200_000;

/// Serving threads per point (matches the YCSB Machine B client count:
/// the FPGA link saturates quickly).
const THREADS: usize = 2;

/// Replay one serving configuration, memoized on its stream digest.
pub fn replay_serving(
    cfg: &MachineConfig,
    tag: &str,
    p: &ServingParams,
    opts: StreamOptions,
) -> std::sync::Arc<StreamReport> {
    let mut src = KvServingSource::new(p.clone());
    let digest = simcore::stream::digest_source(&mut src, opts.chunk_events);
    memo::stream_cached(memo::stream_key(digest, tag), || {
        machine::try_simulate_stream_opts(cfg, &mut src, opts)
            .expect("serving stream replays cleanly")
    })
}

/// The `kv_serving` experiment: baseline vs clean pre-stores on Machine A
/// and Machine B (fast FPGA) across tenant populations.
pub fn kv_serving(quick: bool) -> FigureResult {
    let mut fig = FigureResult::new(
        "kv_serving",
        "Multi-tenant KV serving (streamed): million-tenant populations",
        "tenants",
        "events/s (millions)",
    );
    let users: &[u64] = if quick { &USERS_QUICK } else { &USERS };
    let events = if quick { EVENTS_QUICK } else { EVENTS };
    let machines = [
        ("A", MachineConfig::machine_a()),
        ("B-fast", MachineConfig::machine_b_fast()),
    ];
    let modes = [PrestoreMode::None, PrestoreMode::Clean];
    let configs: Vec<(usize, usize)> = (0..machines.len())
        .flat_map(|m| (0..modes.len()).map(move |md| (m, md)))
        .collect();
    let rows = runner::sweep_grid(configs.len(), users.len(), |row, ui| {
        let (mi, md) = configs[row];
        let (tag, ref cfg) = machines[mi];
        let p = ServingParams::new(users[ui], events, THREADS, modes[md]);
        let report = replay_serving(cfg, tag, &p, StreamOptions::default());
        let throughput =
            report.stats.ops_per_sec(report.events, cfg.freq_ghz) / 1e6;
        (users[ui] as f64, throughput)
    });
    for ((mi, md), points) in configs.into_iter().zip(rows) {
        let mut s = Series::new(format!("{}/{}", machines[mi].0, modes[md].name()));
        s.points = points;
        fig.series.push(s);
    }
    fig.notes.push(
        "streamed replay: the trace is generated, validated, interned and replayed \
         chunk-by-chunk in bounded memory — never materialized"
            .into(),
    );
    fig
}
