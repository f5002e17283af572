//! Typed replay-engine errors.
//!
//! [`EngineError`] is the single error type of the replay pipeline: trace
//! validation failures ([`simcore::ValidateError`]) are wrapped, and the
//! runtime failure modes of the engine itself — deadlocked acquires, a
//! tripped step-budget watchdog, store-buffer state corruption — are
//! reported with enough structure to name the blocked core, line and
//! sequence number instead of a bare panic message.
//!
//! The panicking entry points ([`crate::simulate`],
//! [`crate::simulate_single`], [`crate::simulate_reference`]) format an
//! [`EngineError`] into their panic payload, so the legacy behaviour (and
//! the `"deadlock"` substring tests match on) is preserved while
//! [`crate::try_simulate`] and the other fallible entry points return the
//! typed value.

use simcore::{Addr, CoreId, ValidateError};
use std::fmt;

/// One core stuck on an acquire: `(core, line, awaited release sequence)`.
pub type BlockedAcquire = (CoreId, Addr, u64);

/// The part of a [`crate::CrashImage`] that does not fit a resume (see
/// [`EngineError::CrashImageMismatch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashImageField {
    /// The number of per-core resume points, against the trace set's
    /// threads.
    Cores,
    /// The crashed machine's line size, against the resuming machine's.
    LineSize,
    /// One core's resume point, against its thread's event count.
    Pc(CoreId),
}

/// A [`crate::MachineConfig`] field the engine cannot simulate (see
/// [`EngineError::InvalidConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigField {
    /// `line_size`: must be a power of two.
    LineSize,
    /// `l1.line_size`: must equal `line_size`.
    L1LineSize,
    /// `llc.line_size`: must equal `line_size`.
    LlcLineSize,
    /// `store_buffer_entries`: must be nonzero.
    StoreBufferEntries,
    /// `sb_mlp`: must be nonzero.
    SbMlp,
    /// `wc_buffers`: must be nonzero.
    WcBuffers,
}

impl ConfigField {
    /// The field's path in [`crate::MachineConfig`].
    fn name(self) -> &'static str {
        match self {
            ConfigField::LineSize => "line_size",
            ConfigField::L1LineSize => "l1.line_size",
            ConfigField::LlcLineSize => "llc.line_size",
            ConfigField::StoreBufferEntries => "store_buffer_entries",
            ConfigField::SbMlp => "sb_mlp",
            ConfigField::WcBuffers => "wc_buffers",
        }
    }

    /// What the engine requires of the field.
    fn requirement(self) -> &'static str {
        match self {
            ConfigField::LineSize => "must be a power of two",
            ConfigField::L1LineSize | ConfigField::LlcLineSize => "must equal line_size",
            ConfigField::StoreBufferEntries | ConfigField::SbMlp | ConfigField::WcBuffers => {
                "must be nonzero"
            }
        }
    }
}

/// Why a replay could not produce [`crate::RunStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The machine configuration cannot be simulated: a line size that is
    /// not a power of two, cache line sizes that differ from the
    /// machine's, or an empty store buffer, drain pipeline or
    /// write-combining pool. Checked before anything is allocated.
    InvalidConfig {
        /// The offending field.
        field: ConfigField,
        /// Its value.
        value: u64,
    },
    /// The trace set has no threads; there is nothing to replay.
    EmptyTraceSet,
    /// The trace set failed static validation (zero-size or implausibly
    /// large accesses, acquires of release #0).
    MalformedTrace(ValidateError),
    /// An acquire waits for more releases of its line than the whole
    /// trace set performs: replay would inevitably deadlock. Detected
    /// statically, before any cycle is simulated.
    AcquireUnsatisfiable {
        /// Thread/core containing the acquire.
        core: CoreId,
        /// Index of the event within the thread.
        index: usize,
        /// The line (aligned address) being acquired.
        line: Addr,
        /// The release sequence number the acquire waits for.
        seq: u32,
        /// How many atomics actually target the line.
        available: u32,
    },
    /// Every remaining core is blocked on an acquire whose release can no
    /// longer happen: the classic circular wait, detected at replay time.
    ReplayDeadlock {
        /// The stuck cores: `(core, line, awaited sequence)`.
        blocked: Vec<BlockedAcquire>,
    },
    /// The progress watchdog fired: the engine executed more steps than
    /// the configured (or derived) budget allows. See
    /// [`crate::MachineConfig::step_budget`].
    StepBudgetExceeded {
        /// Steps executed when the watchdog fired.
        steps: u64,
        /// The budget that was exceeded.
        budget: u64,
        /// Cores blocked on acquires at that moment.
        blocked: Vec<BlockedAcquire>,
        /// Per-core replay progress: `(core, next event, total events)`.
        progress: Vec<(CoreId, usize, usize)>,
    },
    /// A crash image from [`crate::Machine::try_run_until_crash`] was
    /// handed to [`crate::Machine::recover_and_resume`] with a machine or
    /// trace set it does not fit: recovery replays the *same* trace the
    /// crash interrupted, on a machine with the same line size, so the
    /// per-core resume points and the redo set must line up.
    CrashImageMismatch {
        /// The image field that does not fit.
        field: CrashImageField,
        /// That field's value in the image.
        image: u64,
        /// The value the resume requires: the trace set's thread count,
        /// the machine's line size, or the largest resume point the
        /// core's thread allows (its event count).
        expected: u64,
    },
    /// A store could not be placed because the core's store buffer was
    /// full even after a forced head drain — engine state corruption,
    /// reported instead of asserted.
    StoreBufferOverflow {
        /// The core whose buffer overflowed.
        core: CoreId,
        /// The line being stored.
        line: Addr,
        /// The buffer's capacity in entries.
        capacity: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig { field, value } => write!(
                f,
                "invalid machine config: {} = {value} ({})",
                field.name(),
                field.requirement()
            ),
            EngineError::EmptyTraceSet => write!(f, "empty trace set: nothing to replay"),
            EngineError::MalformedTrace(e) => write!(f, "malformed trace: {e}"),
            EngineError::AcquireUnsatisfiable { core, index, line, seq, available } => write!(
                f,
                "unsatisfiable acquire: core {core} event {index} waits for release #{seq} \
                 of line {line:#x}, but only {available} atomics target it \
                 (replay would deadlock)"
            ),
            EngineError::ReplayDeadlock { blocked } => {
                write!(f, "replay deadlock: {} core(s) blocked on acquires:", blocked.len())?;
                for (core, line, seq) in blocked {
                    write!(f, " core {core} waits for release #{seq} of line {line:#x};")?;
                }
                Ok(())
            }
            EngineError::StepBudgetExceeded { steps, budget, blocked, progress } => {
                let replayed: usize = progress.iter().map(|&(_, pc, _)| pc).sum();
                let total: usize = progress.iter().map(|&(_, _, n)| n).sum();
                write!(
                    f,
                    "step budget exceeded: {steps} steps > budget {budget}, \
                     {replayed}/{total} events replayed"
                )?;
                if !blocked.is_empty() {
                    write!(f, ", {} core(s) blocked on acquires:", blocked.len())?;
                    for (core, line, seq) in blocked {
                        write!(f, " core {core} waits for release #{seq} of line {line:#x};")?;
                    }
                }
                Ok(())
            }
            EngineError::CrashImageMismatch { field, image, expected } => match field {
                CrashImageField::Cores => write!(
                    f,
                    "crash image mismatch: image records {image} core(s) but the trace \
                     set being resumed has {expected} thread(s)"
                ),
                CrashImageField::LineSize => write!(
                    f,
                    "crash image mismatch: image was taken with {image} B lines but the \
                     machine uses {expected} B lines"
                ),
                CrashImageField::Pc(core) => write!(
                    f,
                    "crash image mismatch: core {core} resumes at event {image} but its \
                     thread has only {expected} events"
                ),
            },
            EngineError::StoreBufferOverflow { core, line, capacity } => write!(
                f,
                "store buffer overflow on core {core}: no room for line {line:#x} \
                 in {capacity} entries even after a forced drain"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::MalformedTrace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateError> for EngineError {
    /// Wrap a validation failure; unsatisfiable acquires get their own
    /// variant so consumers can match the deadlock family directly.
    fn from(e: ValidateError) -> Self {
        match e {
            ValidateError::AcquireUnsatisfiable { thread, index, line, seq, available } => {
                EngineError::AcquireUnsatisfiable { core: thread, index, line, seq, available }
            }
            other => EngineError::MalformedTrace(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::EventKind;

    #[test]
    fn deadlock_display_names_core_line_and_sequence() {
        let e = EngineError::ReplayDeadlock { blocked: vec![(1, 0x1000, 3), (2, 0x2000, 7)] };
        let msg = e.to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("core 1"), "{msg}");
        assert!(msg.contains("0x1000"), "{msg}");
        assert!(msg.contains("#3"), "{msg}");
        assert!(msg.contains("core 2"), "{msg}");
    }

    #[test]
    fn watchdog_display_summarizes_progress() {
        let e = EngineError::StepBudgetExceeded {
            steps: 1001,
            budget: 1000,
            blocked: vec![(0, 0x40, 2)],
            progress: vec![(0, 5, 10), (1, 10, 10)],
        };
        let msg = e.to_string();
        assert!(msg.contains("1001"), "{msg}");
        assert!(msg.contains("budget 1000"), "{msg}");
        assert!(msg.contains("15/20"), "{msg}");
        assert!(msg.contains("core 0"), "{msg}");
    }

    #[test]
    fn unsatisfiable_validate_error_maps_to_its_own_variant() {
        let v = ValidateError::AcquireUnsatisfiable {
            thread: 2,
            index: 9,
            line: 0x80,
            seq: 4,
            available: 1,
        };
        assert_eq!(
            EngineError::from(v),
            EngineError::AcquireUnsatisfiable { core: 2, index: 9, line: 0x80, seq: 4, available: 1 }
        );
        let z = ValidateError::ZeroSizeAccess { thread: 0, index: 0, kind: EventKind::Read, addr: 0 };
        assert_eq!(EngineError::from(z), EngineError::MalformedTrace(z));
    }

    #[test]
    fn invalid_config_display_names_field_value_and_requirement() {
        let e = EngineError::InvalidConfig { field: ConfigField::L1LineSize, value: 128 };
        let msg = e.to_string();
        assert!(msg.contains("l1.line_size = 128"), "{msg}");
        assert!(msg.contains("must equal line_size"), "{msg}");
    }

    #[test]
    fn source_chains_to_validate_error() {
        use std::error::Error;
        let z = ValidateError::ZeroSizeAccess { thread: 0, index: 0, kind: EventKind::Write, addr: 4 };
        let e = EngineError::MalformedTrace(z);
        assert!(e.source().is_some());
        assert!(EngineError::EmptyTraceSet.source().is_none());
    }
}
