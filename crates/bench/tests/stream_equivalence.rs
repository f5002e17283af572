//! Streaming-vs-materialized replay equivalence.
//!
//! The chunked pipeline (`machine::try_simulate_stream_opts`) must produce
//! *exactly* the statistics of the conventional materialized path — full
//! [`RunStats`] struct equality, not a digest — for every workload
//! family, at every chunk size (including pathological 1-event chunks),
//! on all three machine models. The stream digest must additionally be
//! chunk-size-invariant, since it is the streaming memo key.
//!
//! A randomized sweep replays generated traces (single-thread,
//! two-thread with satisfiable cross-thread acquire/release hand-offs, and
//! 1–5 thread groups shaped to stress the scheduler) over random chunk
//! boundaries for the same full-struct equality. The groups pin the
//! scheduler's lowest-id tie-break and its wake-after-release rule on the
//! plain materialized feed, the crash-armed replay with a plan that never
//! fires, the streaming feed (chunk sizes 1, random and default) and the
//! hashed reference engine alike.

use machine::{
    try_simulate_stream_opts, try_simulate_threads, try_simulate_threads_reference, CrashOutcome,
    CrashPlan, Machine, MachineConfig, RunStats, StreamOptions,
};
use prestore::PrestoreMode;
use simcore::rng::SimRng;
use simcore::stream::digest_source;
use simcore::{SliceSource, ThreadTrace, TraceSet, Tracer};
use workloads::microbench::{listing1, Listing1Params};
use workloads::nas;
use workloads::tensor::{training_step, TensorParams};
use workloads::x9::{run as run_x9, X9Params};

/// Chunk sizes swept everywhere: pathological, tiny-prime, window-ish,
/// and the library default.
const CHUNKS: [usize; 4] = [1, 7, 1024, 65_536];

fn machines() -> [(&'static str, MachineConfig); 3] {
    [
        ("machine_a", MachineConfig::machine_a()),
        ("machine_b_fast", MachineConfig::machine_b_fast()),
        ("machine_b_slow", MachineConfig::machine_b_slow()),
    ]
}

/// Assert streaming == materialized for `threads` on `cfg`, across every
/// chunk size, and return the (chunk-invariant) stream digest.
fn assert_equivalent(what: &str, cfg: &MachineConfig, threads: &[ThreadTrace]) -> u64 {
    let golden = try_simulate_threads(cfg, threads)
        .unwrap_or_else(|e| panic!("{what}: materialized replay failed: {e}"));
    let mut digests = Vec::new();
    for chunk_events in CHUNKS {
        let mut src = SliceSource::new(threads);
        let report = try_simulate_stream_opts(cfg, &mut src, StreamOptions { chunk_events })
            .unwrap_or_else(|e| panic!("{what}: streaming replay failed at {chunk_events}: {e}"));
        assert_eq!(
            report.stats, golden,
            "{what}: streaming stats diverge at chunk_events={chunk_events}"
        );
        digests.push(report.digest);
    }
    digests.dedup();
    assert_eq!(digests.len(), 1, "{what}: digest must be chunk-size-invariant");
    digests[0]
}

#[test]
fn workload_streams_match_materialized_replays() {
    let cases: Vec<(&str, Vec<ThreadTrace>)> = vec![
        (
            "listing1/clean",
            listing1(&Listing1Params::quick(), PrestoreMode::Clean).traces.threads,
        ),
        (
            "tensor/none",
            training_step(&TensorParams::quick(), PrestoreMode::None).traces.threads,
        ),
        ("x9/demote", run_x9(&X9Params::quick(), PrestoreMode::Demote).traces.threads),
        (
            "nas-mg/none",
            nas::mg::run(&nas::mg::MgParams::quick(), PrestoreMode::None).traces.threads,
        ),
    ];
    for (what, threads) in &cases {
        for (mname, cfg) in machines() {
            assert_equivalent(&format!("{what}@{mname}"), &cfg, threads);
        }
    }
}

#[test]
fn stream_digest_matches_digest_source_prepass() {
    // The memo key is computed by a digest-only pre-pass; it must equal
    // the digest the replaying feed accumulates.
    let threads = listing1(&Listing1Params::quick(), PrestoreMode::None).traces.threads;
    let mut src = SliceSource::new(&threads);
    let pre = digest_source(&mut src, 513);
    let report = try_simulate_stream_opts(
        &MachineConfig::machine_a(),
        &mut src,
        StreamOptions { chunk_events: 4096 },
    )
    .expect("replays");
    assert_eq!(pre, report.digest);
}

/// A generated single-thread trace mixing every event flavour.
fn random_single(rng: &mut SimRng, events: usize) -> ThreadTrace {
    let mut t = Tracer::new();
    for _ in 0..events {
        let addr = rng.gen_range(1 << 20) * 8;
        let size = 1 + rng.gen_range(256) as u32;
        match rng.gen_range(8) {
            0..=2 => t.read(addr, size),
            3 | 4 => t.write(addr, size),
            5 => t.nt_write(addr, size),
            6 => t.fence(),
            _ => t.compute(1 + rng.gen_range(50)),
        }
    }
    t.finish()
}

/// A generated two-thread trace with a satisfiable acquire hand-off:
/// thread 0 performs `k` atomics on a line, thread 1 acquires `<= k` of
/// them before reading what thread 0 wrote.
fn random_pair(rng: &mut SimRng, events: usize) -> Vec<ThreadTrace> {
    let sync_line = 1 << 30;
    let k = 1 + rng.gen_range(3) as u32;
    let mut t0 = Tracer::new();
    for _ in 0..events {
        let addr = rng.gen_range(1 << 16) * 64;
        if rng.gen_bool(0.6) {
            t0.write(addr, 64);
        } else {
            t0.read(addr, 32);
        }
    }
    for _ in 0..k {
        t0.atomic(sync_line, 8);
    }
    let mut t1 = Tracer::new();
    t1.acquire(sync_line, 1 + rng.gen_range(u64::from(k)) as u32);
    for _ in 0..events {
        let addr = rng.gen_range(1 << 16) * 64;
        t1.read(addr, 64);
    }
    t1.fence();
    vec![t0.finish(), t1.finish()]
}

/// A generated 1–5 thread trace shaped to stress the scheduler.
///
/// Threads 0 and 1 release `k` times each, on lines `SYNC[0]` and
/// `SYNC[1]`, and never acquire — so every acquire is satisfiable at run
/// time and no wait is circular. Every other thread opens with an acquire
/// of `SYNC[0]`'s first release, so at clock 0 several cores block on one
/// line and wake together at the release's time; later acquires walk both
/// lines' release sequences upward. Fixed-cost computes and writes to a
/// small shared pool keep clocks colliding, so lowest-id tie-breaks decide
/// many steps.
fn random_group(rng: &mut SimRng, threads: usize, events: usize) -> Vec<ThreadTrace> {
    const SYNC: [u64; 2] = [1 << 30, (1 << 30) + 4096];
    let k = 2 + rng.gen_range(3) as u32;
    let p_sync = f64::from(k) / events.max(1) as f64;
    (0..threads)
        .map(|tid| {
            let mut t = Tracer::new();
            // Next release number this thread performs (releasers) or
            // awaits (acquirers), per sync line.
            let mut next = [1u32; 2];
            if tid >= 2 {
                t.acquire(SYNC[0], 1);
                next[0] = 2;
            }
            for _ in 0..events {
                let addr = rng.gen_range(64) * 64;
                match rng.gen_range(8) {
                    0 | 1 => t.write(addr, 64),
                    2 | 3 => t.read(addr, 64),
                    4 => t.compute(40),
                    5 => t.fence(),
                    _ if rng.gen_bool(p_sync.min(1.0)) => {
                        if tid < 2 {
                            if next[tid] <= k {
                                t.atomic(SYNC[tid], 8);
                                next[tid] += 1;
                            }
                        } else {
                            let line = rng.gen_range(2) as usize;
                            if next[line] <= k {
                                t.acquire(SYNC[line], next[line]);
                                next[line] += 1;
                            }
                        }
                    }
                    _ => t.compute(40),
                }
            }
            if tid < 2 {
                while next[tid] <= k {
                    t.atomic(SYNC[tid], 8);
                    next[tid] += 1;
                }
            }
            t.fence();
            t.finish()
        })
        .collect()
}

/// What a group replay's schedule decides: every core's final clock
/// (wake times and tie-breaks move these first) plus the shared-cache and
/// device counters, folded into one FNV-1a-style word.
fn schedule_digest(r: &RunStats) -> u64 {
    let fields = r.cores.iter().map(|c| c.cycles).chain([
        r.l1.hits,
        r.l1.misses,
        r.llc.hits,
        r.llc.misses,
        r.device.media_bytes_written,
    ]);
    fields.fold(0xcbf2_9ce4_8422_2325, |h, x| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Thread count and [`schedule_digest`] of each round's materialized
/// replay on machine_a, machine_b_fast and machine_b_slow. The 3–5 thread
/// rows were captured on the full-scan scheduler that rescanned every core
/// on every step; the 1- and 2-thread rows on the separate single-core
/// replay loop and the multi-core loop of the three-loop engine. They pin
/// the lowest-id tie-break and the wake-after-release rule themselves,
/// not just agreement between the replay paths.
const GROUP_GOLDENS: [(usize, [u64; 3]); 10] = [
    (3, [0x343fdb312a92f4d9, 0x6c8e0324cfe5f073, 0x602db8c6ab08df8b]),
    (4, [0xf0eda9efd55dbd41, 0xbe3178fb1e84732a, 0xb3dccb38fc61b499]),
    (5, [0x222d7c2dd0ea46f8, 0xfbedf10ac8760b76, 0xa05bcf23759c3433]),
    (3, [0xdb0ebd9dcfc2abf9, 0x22f12edac60e3cbc, 0x66f3abb6a7013c6e]),
    (4, [0xfd51ade24c5aaf3e, 0x8a7b8ff1e0e77de8, 0x48b1a60ec467f10e]),
    (5, [0x7b1db4a7e509f652, 0x68a122f08750cc4e, 0x82658238428b9b00]),
    (1, [0xb8c9cf171dd419e0, 0x2447590a822a5e08, 0x9b74a6e910eb6831]),
    (2, [0x6716dc1f095bef3f, 0x18d40c46ad391428, 0x3b200bad47f346e6]),
    (1, [0x452d63042cc1ea12, 0x7a0bb399ef72ad18, 0x6d337248aa3a2456]),
    (2, [0x93a7df1e0d999de3, 0xa678dcf49a292cfb, 0xcc59feeeaafb9e8a]),
];

#[test]
fn random_groups_match_across_loops_and_reference() {
    let mut rng = SimRng::new(0x5C4E_D01E);
    for (round, &(threads, goldens)) in GROUP_GOLDENS.iter().enumerate() {
        let events = 100 + rng.gen_range(600) as usize;
        let group = random_group(&mut rng, threads, events);
        let chunk = 1 + rng.gen_range(97) as usize;
        for ((mname, cfg), golden_digest) in machines().into_iter().zip(goldens) {
            let what = format!("random-group{threads}/round{round}@{mname}");
            let golden = try_simulate_threads(&cfg, &group)
                .unwrap_or_else(|e| panic!("{what}: materialized failed: {e}"));
            assert_eq!(
                schedule_digest(&golden),
                golden_digest,
                "{what}: schedule drifted from the golden"
            );
            let reference = try_simulate_threads_reference(&cfg, &group)
                .unwrap_or_else(|e| panic!("{what}: reference failed: {e}"));
            assert_eq!(reference, golden, "{what}: reference engine diverged");
            let armed = Machine::new(cfg.clone())
                .try_run_until_crash(&TraceSet::new(group.clone()), CrashPlan::AtStep(u64::MAX))
                .unwrap_or_else(|e| panic!("{what}: crash-armed replay failed: {e}"));
            match armed {
                CrashOutcome::Completed { stats, .. } => {
                    assert_eq!(*stats, golden, "{what}: crash-armed replay diverged")
                }
                CrashOutcome::Crashed(_) => panic!("{what}: a plan at step u64::MAX fired"),
            }
            for chunk_events in [1, chunk, StreamOptions::default().chunk_events] {
                let mut src = SliceSource::new(&group);
                let report =
                    try_simulate_stream_opts(&cfg, &mut src, StreamOptions { chunk_events })
                        .unwrap_or_else(|e| {
                            panic!("{what}: streaming failed (chunk {chunk_events}): {e}")
                        });
                assert_eq!(report.stats, golden, "{what}: chunk {chunk_events}");
            }
        }
    }
}

#[test]
fn random_traces_match_over_random_chunk_boundaries() {
    let mut rng = SimRng::new(0xC0FFEE);
    for round in 0..8 {
        let events = 200 + rng.gen_range(1_500) as usize;
        let single = vec![random_single(&mut rng, events)];
        let pair = random_pair(&mut rng, events / 2);
        // Random chunk size per round, biased small to stress window
        // boundaries.
        let chunk = 1 + rng.gen_range(97) as usize;
        for (mname, cfg) in machines() {
            for (what, threads) in [("single", &single), ("pair", &pair)] {
                let what = format!("random-{what}/round{round}@{mname}");
                let golden = try_simulate_threads(&cfg, threads)
                    .unwrap_or_else(|e| panic!("{what}: materialized failed: {e}"));
                let mut src = SliceSource::new(threads);
                let report = try_simulate_stream_opts(
                    &cfg,
                    &mut src,
                    StreamOptions { chunk_events: chunk },
                )
                .unwrap_or_else(|e| panic!("{what}: streaming failed (chunk {chunk}): {e}"));
                assert_eq!(report.stats, golden, "{what}: chunk {chunk}");
            }
        }
    }
}

/// Golden stream digests for fixed inputs: these pin the digest function
/// itself (lane mixing, field widths) across refactors — a silent change
/// would orphan every memoized streaming result.
#[test]
fn stream_digests_are_stable() {
    let mut t = Tracer::new();
    t.write(0, 64);
    t.read(64, 32);
    t.fence();
    let one = vec![t.finish()];
    let mut src = SliceSource::new(&one);
    assert_eq!(digest_source(&mut src, 2), 0x6c13_e094_774d_a159, "tiny fixed trace");

    let threads = listing1(&Listing1Params::quick(), PrestoreMode::None).traces.threads;
    let mut src = SliceSource::new(&threads);
    let d = digest_source(&mut src, 4096);
    let mut src = SliceSource::new(&threads);
    assert_eq!(digest_source(&mut src, 1), d, "chunk-size invariance on a real workload");
}
