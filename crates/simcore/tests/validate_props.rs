//! Property tests for checks-only validation.
//!
//! `validate_threads` runs only the single-pass `check_events` and settles
//! the line-id space bound from the trace's line-touch count, while
//! `validate_and_intern` builds the whole interned view. Over random traces
//! with injected malformed events, both must accept and reject exactly the
//! same inputs with exactly the same error (variant, thread, index) as a
//! straightforward two-pass oracle (count every release first, then check
//! events in order), and the touch count `check_events` returns must equal
//! the summed id-run lengths of the interned view — the argument that
//! makes the bound exact.

use proptest::prelude::*;
use simcore::error::MAX_ACCESS_BYTES;
use simcore::rng::SimRng;
use simcore::trace::{check_events, validate_and_intern, validate_threads};
use simcore::{align_down, EventKind, FxHashMap, ThreadTrace, Tracer, ValidateError};

/// Lines the generated atomics release and acquires wait on.
const SYNC_LINES: [u64; 3] = [1 << 30, (1 << 30) + 4096, (1 << 30) + 8192];

/// One generated trace set. Thread 0 opens with two releases of every
/// sync line, so generated acquires (sequence 1 or 2) are satisfiable.
/// Each event is malformed with probability
/// `fault`: a zero-size, oversize or address-overflowing access, a
/// zero-sequence acquire, or an acquire waiting on more releases than any
/// thread performs.
fn random_threads(seed: u64, threads: usize, events: usize, fault: f64) -> Vec<ThreadTrace> {
    let mut rng = SimRng::new(seed);
    (0..threads)
        .map(|tid| {
            let mut t = Tracer::new();
            if tid == 0 {
                for line in SYNC_LINES {
                    t.atomic(line, 8);
                    t.atomic(line, 8);
                }
            }
            for _ in 0..events {
                let sync = SYNC_LINES[rng.gen_range(SYNC_LINES.len() as u64) as usize];
                if rng.gen_bool(fault) {
                    match rng.gen_range(5) {
                        0 => t.write(rng.gen_range(1 << 20), 0),
                        1 => t.read(rng.gen_range(1 << 20), MAX_ACCESS_BYTES + 1),
                        2 => t.nt_write(u64::MAX - rng.gen_range(64), 65 + rng.gen_range(512) as u32),
                        3 => t.acquire(sync, 0),
                        _ => t.acquire(sync, 1_000_000),
                    }
                    continue;
                }
                let addr = rng.gen_range(1 << 24);
                // Mostly sub-line and few-line sizes, sometimes many lines.
                let size = if rng.gen_bool(0.1) {
                    1 + rng.gen_range(8192) as u32
                } else {
                    1 + rng.gen_range(300) as u32
                };
                match rng.gen_range(11) {
                    0 | 1 => t.read(addr, size),
                    2 | 3 => t.write(addr, size),
                    4 => t.nt_write(addr, size),
                    5 => t.prestore(addr, size, simcore::PrestoreOp::Clean),
                    6 => t.prestore(addr, size, simcore::PrestoreOp::Demote),
                    // Accesses ending exactly at the top of the address
                    // space are valid and touch the top line.
                    7 => t.write(u64::MAX - u64::from(size) + 1, size),
                    8 => t.atomic(sync + rng.gen_range(64), 8),
                    9 => t.acquire(sync, 1 + rng.gen_range(2) as u32),
                    _ => {
                        if rng.gen_bool(0.5) {
                            t.fence()
                        } else {
                            t.compute(1 + rng.gen_range(100))
                        }
                    }
                }
            }
            t.finish()
        })
        .collect()
}

/// The reference checker: count every release of the trace set, then
/// check each event in (thread, index) order and report the first failure.
fn two_pass_oracle(threads: &[ThreadTrace], line_size: u64) -> Result<(), ValidateError> {
    let mut releases: FxHashMap<u64, u32> = FxHashMap::default();
    for ev in threads.iter().flat_map(|t| &t.events) {
        if ev.kind == EventKind::Atomic {
            *releases.entry(align_down(ev.addr, line_size)).or_default() += 1;
        }
    }
    for (thread, t) in threads.iter().enumerate() {
        for (index, ev) in t.events.iter().enumerate() {
            let (kind, addr, size) = (ev.kind, ev.addr, ev.size);
            match kind {
                EventKind::Acquire if size == 0 => {
                    return Err(ValidateError::ZeroSequenceAcquire { thread, index, addr });
                }
                EventKind::Acquire => {
                    let line = align_down(addr, line_size);
                    let available = releases.get(&line).copied().unwrap_or(0);
                    if available < size {
                        return Err(ValidateError::AcquireUnsatisfiable {
                            thread,
                            index,
                            line,
                            seq: size,
                            available,
                        });
                    }
                }
                EventKind::Fence | EventKind::Atomic | EventKind::Compute => {}
                _ if size == 0 => {
                    return Err(ValidateError::ZeroSizeAccess { thread, index, kind, addr });
                }
                _ if size > MAX_ACCESS_BYTES => {
                    return Err(ValidateError::OversizeAccess { thread, index, kind, addr, size });
                }
                _ if addr.checked_add(u64::from(size) - 1).is_none() => {
                    return Err(ValidateError::AddressOverflow { thread, index, kind, addr, size });
                }
                _ => {}
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Checks-only validation, the fused validate-and-intern and the
    /// two-pass oracle return exactly the same result, error payload
    /// included.
    #[test]
    fn checks_only_validation_matches_validate_and_intern(
        seed in any::<u64>(),
        threads in 1usize..5,
        events in 0usize..80,
        fault_pct in 0u64..4,
        line_shift in 6u32..9,
    ) {
        let line_size = 1u64 << line_shift;
        let fault = fault_pct as f64 / 100.0;
        let threads = random_threads(seed, threads, events, fault);
        let oracle = two_pass_oracle(&threads, line_size);
        prop_assert_eq!(validate_threads(&threads, line_size), oracle.clone());
        prop_assert_eq!(validate_and_intern(&threads, line_size).map(|_| ()), oracle.clone());
        prop_assert_eq!(check_events(&threads, line_size).map(|_| ()), oracle);
    }

    /// On valid traces, the touch count is the summed length of every
    /// per-event id run the interned view records.
    #[test]
    fn touch_count_equals_summed_id_runs(
        seed in any::<u64>(),
        threads in 1usize..5,
        events in 0usize..80,
        line_shift in 6u32..9,
    ) {
        let line_size = 1u64 << line_shift;
        let threads = random_threads(seed, threads, events, 0.0);
        let interned = validate_and_intern(&threads, line_size).expect("fault-free traces validate");
        let runs: u64 = threads
            .iter()
            .enumerate()
            .map(|(tid, t)| {
                (0..t.len()).map(|i| interned.ids_for(tid, i).len() as u64).sum::<u64>()
            })
            .sum();
        prop_assert_eq!(check_events(&threads, line_size), Ok(runs));
        prop_assert!(interned.interner().len() as u64 <= runs);
    }
}

/// The generator really injects every malformed-event flavour, so the
/// equivalence property above covers each rejection path.
#[test]
fn generator_injects_every_error_variant() {
    let mut seen = std::collections::HashSet::new();
    for seed in 0..400 {
        if let Err(e) = validate_threads(&random_threads(seed, 3, 60, 0.03), 64) {
            seen.insert(std::mem::discriminant(&e));
        }
    }
    assert_eq!(seen.len(), 5, "zero-size, oversize, overflow, zero-seq, unsatisfiable");
}
