//! Equivalence properties of the page-directory line interner: on random
//! traces that mix dense runs, accesses straddling directory pages,
//! atomics/acquires, sparse addresses up to the top of the address space,
//! fences and compute events, `LineInterner` and `InternedTraces` must
//! assign exactly the ids a plain first-touch `FxHashMap` interner
//! assigns — including where, and how cleanly, a bounded id space runs out.

use proptest::prelude::*;
use simcore::{
    align_down, blocks_touched, Addr, Event, EventKind, FuncId, FxHashMap, InternedTraces, LineId,
    LineInterner, ThreadTrace, ValidateError,
};

/// Lines per directory page (the interner's block size).
const PAGE_LINES: u64 = 16;
/// Highest address the generator draws sparse accesses from.
const TOP: u64 = u64::MAX - 4096;

/// The reference: first-touch ids from one hash-map entry per line.
struct RefInterner {
    line_size: u64,
    map: FxHashMap<Addr, u32>,
    lines: Vec<Addr>,
    max_lines: u32,
}

impl RefInterner {
    fn new(line_size: u64, max_lines: u32) -> Self {
        Self { line_size, map: FxHashMap::default(), lines: Vec::new(), max_lines }
    }

    fn intern(&mut self, line: Addr) -> Option<u32> {
        if let Some(&id) = self.map.get(&line) {
            return Some(id);
        }
        if self.lines.len() >= self.max_lines as usize {
            return None;
        }
        let id = self.lines.len() as u32;
        self.map.insert(line, id);
        self.lines.push(line);
        Some(id)
    }

    /// The event's ids in the engine's splitting order, or `None` at the
    /// first line the id space cannot hold (earlier lines stay interned).
    fn event(&mut self, ev: &Event) -> Option<Vec<u32>> {
        let lines: Vec<Addr> = match ev.kind {
            EventKind::Fence | EventKind::Compute => Vec::new(),
            EventKind::Atomic | EventKind::Acquire => vec![align_down(ev.addr, self.line_size)],
            _ => blocks_touched(ev.addr, ev.size as u64, self.line_size).collect(),
        };
        lines.into_iter().map(|l| self.intern(l)).collect()
    }
}

/// SplitMix64: the trace generator's deterministic stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn ev(kind: EventKind, addr: Addr, size: u32) -> Event {
    Event { addr, size, kind, func: FuncId::UNKNOWN, caller: FuncId::UNKNOWN }
}

/// `threads` random threads of `events` events each over `line`-byte
/// lines.
fn random_threads(seed: u64, threads: usize, events: usize, line: u64) -> Vec<ThreadTrace> {
    let mut r = Mix(seed);
    let page = line * PAGE_LINES;
    // A few hot regions, so dense runs and straddles revisit lines.
    let regions: Vec<Addr> = (0..3).map(|_| align_down(r.below(TOP / 2), page)).collect();
    (0..threads)
        .map(|_| {
            let mut cursor = regions[0];
            let events = (0..events)
                .map(|_| {
                    let region = regions[r.below(3) as usize];
                    match r.below(10) {
                        // Dense run: the next few lines of a sequential
                        // walk.
                        0..=2 => {
                            cursor = cursor.wrapping_add(line * r.below(3)).min(TOP);
                            let kind = [EventKind::Write, EventKind::Read, EventKind::NtWrite]
                                [r.below(3) as usize];
                            ev(kind, cursor + r.below(line), 1 + r.below(line) as u32)
                        }
                        // Multi-line access straddling a page boundary.
                        3 | 4 => {
                            let boundary = region + page * (1 + r.below(8));
                            let addr = boundary - 1 - r.below(2 * line);
                            ev(EventKind::Write, addr, 2 + r.below(3 * line) as u32)
                        }
                        // Atomic or acquire anywhere within a region.
                        5 => ev(EventKind::Atomic, region + r.below(64 * page), 8),
                        6 => ev(EventKind::Acquire, region + r.below(64 * page), 1),
                        // Sparse: anywhere below the top of the space.
                        7 => ev(EventKind::Read, r.below(TOP), 1 + r.below(2 * line) as u32),
                        // Zero-size access: still one line.
                        8 => ev(EventKind::PrestoreClean, region + r.below(page), 0),
                        _ => {
                            if r.below(2) == 0 {
                                ev(EventKind::Fence, 0, 0)
                            } else {
                                ev(EventKind::Compute, r.next(), 0)
                            }
                        }
                    }
                })
                .collect();
            ThreadTrace { events }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Unbounded interning: same ids, event by event, as the reference;
    /// same `len` and `line_of`; `id_of` answers exactly for interned
    /// lines and `None` for unaligned or never-seen addresses.
    #[test]
    fn page_directory_matches_a_first_touch_hash_map(
        seed in any::<u64>(),
        threads in 1usize..4,
        events in 1usize..300,
        line_pow in 0u32..3,
    ) {
        let line = 64u64 << line_pow;
        let traces = random_threads(seed, threads, events, line);
        let mut reference = RefInterner::new(line, LineInterner::DEFAULT_MAX_LINES);
        let interned = InternedTraces::from_threads(&traces, line);
        for (t, thread) in traces.iter().enumerate() {
            for (e, event) in thread.events.iter().enumerate() {
                let want = reference.event(event).expect("unbounded");
                let got: Vec<u32> = interned.ids_for(t, e).iter().map(|id| id.0).collect();
                prop_assert_eq!(got, want, "thread {} event {}", t, e);
            }
        }
        let direct = LineInterner::from_threads(&traces, line);
        for it in [interned.interner(), &direct] {
            prop_assert_eq!(it.len(), reference.lines.len());
            prop_assert_eq!(it.line_size(), line);
            for (id, &l) in reference.lines.iter().enumerate() {
                prop_assert_eq!(it.line_of(LineId(id as u32)), l);
                prop_assert_eq!(it.id_of(l), Some(LineId(id as u32)));
                // Unaligned addresses inside an interned line.
                prop_assert_eq!(it.id_of(l + 1), None);
                prop_assert_eq!(it.id_of(l + line / 2), None);
                prop_assert_eq!(it.id_of(l + line - 1), None);
                // Page neighbours share the line's block but not its id.
                for n in [l.wrapping_sub(line), l.wrapping_add(line)] {
                    if !reference.map.contains_key(&n) {
                        prop_assert_eq!(it.id_of(n), None, "neighbour {:#x}", n);
                    }
                }
            }
            let mut r = Mix(seed ^ 0x5EED);
            for _ in 0..64 {
                let a = align_down(r.below(TOP), line);
                if !reference.map.contains_key(&a) {
                    prop_assert_eq!(it.id_of(a), None, "never seen {:#x}", a);
                }
            }
        }
    }

    /// Bounded interning: the id space runs out at the same (thread,
    /// event) as the reference's, usually in the middle of a directory
    /// page; the failure leaves `len` and every known id intact, and
    /// known lines keep re-interning as hits.
    #[test]
    fn exhaustion_fires_where_the_reference_does_and_keeps_state(
        seed in any::<u64>(),
        threads in 1usize..4,
        events in 1usize..200,
        line_pow in 0u32..3,
        cut in 0u64..1000,
    ) {
        let line = 64u64 << line_pow;
        let traces = random_threads(seed, threads, events, line);
        let total = LineInterner::from_threads(&traces, line).len() as u64;
        if total == 0 {
            return Ok(()); // nothing to exhaust
        }
        let cap = (1 + cut % total) as u32;

        let mut reference = RefInterner::new(line, cap);
        let mut it = LineInterner::with_max_lines(line, cap);
        let mut ref_fail = None;
        let mut got_fail = None;
        'threads: for (t, thread) in traces.iter().enumerate() {
            for (e, event) in thread.events.iter().enumerate() {
                if ref_fail.is_none() && reference.event(event).is_none() {
                    ref_fail = Some((t, e));
                }
                if got_fail.is_none() {
                    match it.try_intern_event_with(event, |_| {}) {
                        Ok(()) => {}
                        Err(ValidateError::TooManyLines { needed, limit }) => {
                            prop_assert_eq!(limit, cap as u64);
                            prop_assert_eq!(needed, cap as u64 + 1);
                            got_fail = Some((t, e));
                        }
                        Err(other) => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
                if ref_fail.is_some() && got_fail.is_some() {
                    break 'threads;
                }
            }
        }
        prop_assert_eq!(got_fail, ref_fail);
        prop_assert_eq!(it.len(), reference.lines.len());
        for (id, &l) in reference.lines.iter().enumerate() {
            prop_assert_eq!(it.id_of(l), Some(LineId(id as u32)));
            prop_assert_eq!(it.line_of(LineId(id as u32)), l);
            prop_assert_eq!(it.try_intern(l), Ok(LineId(id as u32)));
        }
        prop_assert_eq!(it.len(), reference.lines.len());

        // The trace-level API rejects the same thread and keeps the
        // threads before it.
        let mut staged = InternedTraces::empty_with_max_lines(line, cap);
        let mut failed_thread = None;
        for (t, thread) in traces.iter().enumerate() {
            if staged.try_push_thread(thread).is_err() {
                failed_thread = Some(t);
                break;
            }
        }
        prop_assert_eq!(failed_thread, ref_fail.map(|(t, _)| t));
        prop_assert_eq!(staged.interner().len(), reference.lines.len());
    }
}

#[test]
fn exhaustion_mid_page_keeps_the_page_usable() {
    // Lines 0..=4 share one directory page; the cap runs out after 3.
    let mut it = LineInterner::with_max_lines(64, 3);
    for i in 0..3u64 {
        assert_eq!(it.try_intern(i * 64), Ok(LineId(i as u32)));
    }
    assert!(matches!(it.try_intern(3 * 64), Err(ValidateError::TooManyLines { .. })));
    // A line on an untouched page fails the same way.
    assert!(matches!(it.try_intern(1 << 40), Err(ValidateError::TooManyLines { .. })));
    assert_eq!(it.len(), 3);
    assert_eq!(it.id_of(3 * 64), None);
    assert_eq!(it.id_of(1 << 40), None);
    assert_eq!(it.try_intern(64), Ok(LineId(1)));
}

#[test]
fn default_interner_is_usable_without_shift_overflow() {
    let mut it = LineInterner::default();
    assert_eq!(it.line_size(), 0);
    assert!(it.is_empty());
    for a in [0, 1, 63, 64, u64::MAX - 1, u64::MAX] {
        assert_eq!(it.id_of(a), None, "{a:#x}");
    }
    // Line size 0 resolves every address as its own line.
    let a = it.try_intern(u64::MAX).expect("room");
    let b = it.try_intern_addr(12345).expect("room");
    assert_eq!((a, b), (LineId(0), LineId(1)));
    assert_eq!(it.try_intern(u64::MAX), Ok(a));
    assert_eq!(it.id_of(u64::MAX), Some(a));
    assert_eq!(it.id_of(12345), Some(b));
    assert_eq!(it.id_of(12344), None);
    assert_eq!(it.line_of(b), 12345);
    assert_eq!(it.len(), 2);
    let empty = InternedTraces::default();
    assert_eq!(empty.interner().len(), 0);
    assert_eq!(empty.interner().id_of(u64::MAX), None);
}
