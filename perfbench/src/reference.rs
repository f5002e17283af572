//! The reference loop every pass is measured against.
//!
//! The host is shared: other tenants slow this machine's CPUs by 1.3–2x
//! for phases of seconds to minutes, so a pass's wall-clock time says as
//! much about the neighbours as about the simulator. The benchmark times
//! this fixed loop, which uses no repository code, right before and right
//! after every pass, on as many threads as the pass uses. A pass's time
//! divided by the loop's time cancels part of the contention both saw
//! (the loop slows down less than the simulator does), and no change to
//! the repository can move the loop itself.

use std::time::Instant;

/// Table entries: 4 MiB of `u32`, larger than a core's private caches,
/// like the simulator's line tables.
const TABLE: usize = 1 << 20;
/// Iterations of one loop: about 40 ms on an uncontended 2-CPU host.
const ITERS: u32 = 2_000_000;

/// The reference loop's tables, one per thread, allocated once per run so
/// that they add a constant to the run's peak memory.
#[derive(Debug)]
pub struct Reference {
    tables: Vec<Vec<u32>>,
}

impl Reference {
    /// Tables for a loop on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        Self {
            tables: (0..threads.max(1))
                .map(|_| (0..TABLE as u32).collect())
                .collect(),
        }
    }

    /// Mean seconds of the reference loop, run on every thread at once.
    pub fn seconds(&mut self) -> f64 {
        let times: Vec<f64> = match self.tables.as_mut_slice() {
            [one] => vec![run(one)],
            tables => std::thread::scope(|s| {
                let handles: Vec<_> = tables.iter_mut().map(|t| s.spawn(|| run(t))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reference loop panicked"))
                    .collect()
            }),
        };
        times.iter().sum::<f64>() / times.len() as f64
    }
}

/// Seconds one reference loop takes on the calling thread: dependent
/// pseudo-random loads and stores over `table` plus a data-dependent
/// branch, the access mix of a cache-simulator step.
fn run(table: &mut [u32]) -> f64 {
    let mask = TABLE - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    let t = Instant::now();
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize ^ table[acc as usize & mask] as usize) & mask;
        if x & 3 == 0 {
            acc = acc.wrapping_add(u64::from(table[i]));
        } else {
            acc ^= x >> 3;
        }
        table[i] = table[i].wrapping_add(x as u32);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}
