//! The replay engine's telemetry probe points.
//!
//! Every metric here is a [`simcore::telemetry::Metric`] — a no-op unless
//! simcore's `telemetry` feature is compiled in. Hot-path action counts
//! are accumulated in a plain [`ActionCounts`] struct on the engine (cheap
//! unconditional `u64` adds on fields the engine already owns) and flushed
//! into the registry once per replay by [`flush_run`], together with the
//! [`RunStats`]-derived aggregates; only the per-`reset` table-epoch
//! probes touch an atomic outside end-of-run.

use crate::stats::RunStats;
use simcore::telemetry::{self, Histogram, Metric};

/// Whole-replay span: engine construction, replay and finalize (validation
/// and up-front interning excluded).
pub(crate) static REPLAY: Metric = Metric::span("engine.replay");
/// Completed replays.
pub(crate) static REPLAYS: Metric = Metric::counter("engine.replays");
/// Scheduler steps executed across all replays.
pub(crate) static STEPS: Metric = Metric::counter("engine.steps");
/// CPU-side critical-path cycles accumulated across replays.
pub(crate) static CPU_CYCLES: Metric = Metric::counter("engine.cpu_cycles");

/// Private-cache evictions (all cores).
pub(crate) static L1_EVICTIONS: Metric = Metric::counter("engine.l1_evictions");
/// Private-cache dirty evictions (all cores).
pub(crate) static L1_DIRTY_EVICTIONS: Metric = Metric::counter("engine.l1_dirty_evictions");
/// Shared-cache evictions.
pub(crate) static LLC_EVICTIONS: Metric = Metric::counter("engine.llc_evictions");
/// Shared-cache dirty evictions.
pub(crate) static LLC_DIRTY_EVICTIONS: Metric = Metric::counter("engine.llc_dirty_evictions");

/// `clean` pre-stores executed.
pub(crate) static PRESTORE_CLEANS: Metric = Metric::counter("engine.prestore_cleans");
/// `demote` pre-stores executed.
pub(crate) static PRESTORE_DEMOTES: Metric = Metric::counter("engine.prestore_demotes");
/// Lines written by non-temporal stores.
pub(crate) static NT_LINES: Metric = Metric::counter("engine.nt_store_lines");
/// Store-buffer drain starts (background drains of all pending entries).
pub(crate) static SB_DRAINS: Metric = Metric::counter("engine.sb_drain_starts");
/// Forced head drains under store-buffer capacity pressure.
pub(crate) static SB_FORCED_DRAINS: Metric = Metric::counter("engine.sb_forced_head_drains");

/// Cycles stalled in fences.
pub(crate) static FENCE_STALLS: Metric = Metric::counter("engine.fence_stall_cycles");
/// Cycles stalled in atomics.
pub(crate) static ATOMIC_STALLS: Metric = Metric::counter("engine.atomic_stall_cycles");
/// Cycles stalled on full store buffers.
pub(crate) static SB_PRESSURE_STALLS: Metric = Metric::counter("engine.sb_pressure_stall_cycles");
/// Cycles stalled on in-flight writebacks of rewritten lines.
pub(crate) static WRITEBACK_STALLS: Metric = Metric::counter("engine.writeback_stall_cycles");

/// Bytes the device media actually wrote (write amplification included).
pub(crate) static DEVICE_MEDIA_WRITTEN: Metric =
    Metric::counter("engine.device_media_bytes_written");
/// Bytes read from the device.
pub(crate) static DEVICE_BYTES_READ: Metric = Metric::counter("engine.device_bytes_read");

/// Simulated power failures that fired (crash-armed replays only).
pub(crate) static CRASHES: Metric = Metric::counter("machine.crashes");
/// Distribution of line-granular bytes lost per simulated power failure.
pub(crate) static CRASH_LOST_BYTES: Histogram = Histogram::new("crash.lost_bytes");

/// Flat-table epoch bumps (one per `FlatTables::reset`).
pub(crate) static TABLE_EPOCHS: Metric = Metric::counter("engine.table_epochs");
/// Epoch-counter wraps (the rare full re-zero path).
pub(crate) static TABLE_EPOCH_WRAPS: Metric = Metric::counter("engine.table_epoch_wraps");
/// Distribution of live flat-table entries at end of run (the vectorized
/// epoch-validity sweep): how many lines still carried state when the
/// replay finished.
pub(crate) static TABLE_LIVE_LINES: Histogram = Histogram::new("engine.table_live_lines");

/// Distribution of line lifetimes: scheduler steps between a line's first
/// dirtying store and the moment its dirty data leaves the hierarchy
/// (dirty LLC eviction, clean writeback, or end-of-run residual flush).
pub(crate) static LINE_LIFETIME: Histogram = Histogram::new("engine.line_lifetime_steps");
/// Distribution of eviction distances: |Δ| in lines between consecutive
/// device writes — small values mean the writeback stream is sequential
/// enough for block-granular devices to combine.
pub(crate) static EVICTION_DISTANCE: Histogram = Histogram::new("engine.eviction_distance_lines");
/// Distribution of individual stall events (fence, atomic, store-buffer
/// pressure, writeback-wait), in cycles.
pub(crate) static STALL_CYCLES: Histogram = Histogram::new("engine.stall_cycles");
/// Distribution of device write-burst sizes: bytes of line-contiguous
/// device writes before the stream breaks.
pub(crate) static WRITE_BURST: Histogram = Histogram::new("engine.write_burst_bytes");

/// Per-replay action counts kept as plain fields on the engine so the step
/// loop pays no atomics; flushed by [`flush_run`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ActionCounts {
    /// `clean` pre-stores executed.
    pub cleans: u64,
    /// `demote` pre-stores executed.
    pub demotes: u64,
    /// Lines written by non-temporal stores.
    pub nt_lines: u64,
    /// Store-buffer drain starts.
    pub sb_drains: u64,
    /// Forced head drains under capacity pressure.
    pub sb_forced_drains: u64,
}

/// Flush one replay's counters into the registry (no-op with telemetry
/// compiled out — `enabled()` is a literal `false` and the whole body
/// folds away).
pub(crate) fn flush_run(stats: &RunStats, acts: &ActionCounts, steps: u64) {
    if !telemetry::enabled() {
        return;
    }
    REPLAYS.inc();
    STEPS.add(steps);
    CPU_CYCLES.add(stats.cpu_cycles);
    L1_EVICTIONS.add(stats.l1.evictions);
    L1_DIRTY_EVICTIONS.add(stats.l1.dirty_evictions);
    LLC_EVICTIONS.add(stats.llc.evictions);
    LLC_DIRTY_EVICTIONS.add(stats.llc.dirty_evictions);
    PRESTORE_CLEANS.add(acts.cleans);
    PRESTORE_DEMOTES.add(acts.demotes);
    NT_LINES.add(acts.nt_lines);
    SB_DRAINS.add(acts.sb_drains);
    SB_FORCED_DRAINS.add(acts.sb_forced_drains);
    FENCE_STALLS.add(stats.total_fence_stalls());
    ATOMIC_STALLS.add(stats.total_atomic_stalls());
    SB_PRESSURE_STALLS.add(stats.cores.iter().map(|c| c.sb_pressure_stall_cycles).sum());
    WRITEBACK_STALLS.add(stats.cores.iter().map(|c| c.writeback_stall_cycles).sum());
    DEVICE_MEDIA_WRITTEN.add(stats.device.media_bytes_written);
    DEVICE_BYTES_READ.add(stats.device.bytes_read);
}
