//! SIMD/scalar kernel equivalence: the vectorized replay kernels and
//! their scalar twins must produce *byte-identical* simulation results —
//! not approximately equal, identical. The suite pins each kernel set via
//! [`simcore::simd::set_force_scalar`] (the hook behind the figures CLI's
//! `--force-scalar` flag and the `PS_FORCE_SCALAR` environment variable)
//! and replays the same traces on all three paper machines, then renders
//! whole figures both ways.

use std::sync::Mutex;

use machine::{simulate, MachineConfig, RunStats};
use prestore::PrestoreMode;
use ps_bench::{experiments, memo, runner};
use simcore::{simd, TraceSet};
use workloads::kv::ycsb::{run_clht, YcsbParams};
use workloads::microbench::{listing1, Listing1Params};
use workloads::x9::{run as run_x9, X9Params};

/// Kernel selection is process-global; tests in this binary serialize on
/// this lock so concurrent `#[test]` threads cannot race the mode.
static KERNEL_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` once per kernel set and return both results. Always restores
/// the runtime-detected kernels afterwards, even on panic (poisoned locks
/// are fine: each caller re-pins before measuring).
fn on_both_kernels<T>(mut f: impl FnMut() -> T) -> (T, T) {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            simd::set_force_scalar(false);
        }
    }
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore;
    simd::set_force_scalar(false);
    let vectorized = f();
    simd::set_force_scalar(true);
    let scalar = f();
    (vectorized, scalar)
}

/// One replay per paper machine, covering both memory models (machine A
/// is TSO over Optane; the B variants are weak-ordered over the FPGA
/// device) and both pre-store flavours.
fn machine_cases() -> Vec<(&'static str, MachineConfig, TraceSet)> {
    vec![
        (
            "listing1/clean/machine_a",
            MachineConfig::machine_a(),
            listing1(&Listing1Params::quick(), PrestoreMode::Clean).traces,
        ),
        (
            "clht/none/machine_a",
            MachineConfig::machine_a(),
            run_clht(&YcsbParams::quick(), PrestoreMode::None).traces,
        ),
        (
            "x9/none/machine_b_fast",
            MachineConfig::machine_b_fast(),
            run_x9(&X9Params::quick(), PrestoreMode::None).traces,
        ),
        (
            "x9/demote/machine_b_slow",
            MachineConfig::machine_b_slow(),
            run_x9(&X9Params::quick(), PrestoreMode::Demote).traces,
        ),
    ]
}

#[test]
fn forced_scalar_replay_matches_simd_on_all_machines() {
    for (name, cfg, traces) in machine_cases() {
        let (vec_stats, scalar_stats): (RunStats, RunStats) =
            on_both_kernels(|| simulate(&cfg, &traces));
        assert_eq!(vec_stats, scalar_stats, "{name}: kernel sets diverge");
    }
}

#[test]
fn forced_scalar_figures_render_byte_identically() {
    // A sharded multi-machine sweep and a multi-mode KV figure: between
    // them these exercise the chunked decode, the storebuf/dirty-line
    // scans, the Optane open-block scan, and the NRU victim draw.
    let figures: &[runner::Experiment] =
        &[("fig5", experiments::fig5), ("fig13", experiments::fig13)];
    let (vec_out, scalar_out) = on_both_kernels(|| {
        memo::clear();
        runner::set_jobs(2);
        runner::run_experiments(figures, true)
            .into_iter()
            .map(|t| (t.fig.render_csv(), t.fig.render_json()))
            .collect::<Vec<_>>()
    });
    memo::clear();
    for (i, (v, s)) in vec_out.iter().zip(&scalar_out).enumerate() {
        assert_eq!(v.0, s.0, "CSV for {} differs between kernel sets", figures[i].0);
        assert_eq!(v.1, s.1, "JSON for {} differs between kernel sets", figures[i].0);
    }
}
