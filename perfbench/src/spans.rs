//! Wall-clock spans recorded around the benchmark's own calls into each
//! layer's public API.
//!
//! A span carries a name, start, end and parent. Spans are kept in memory
//! and written out once, at the end of a run. A disabled [`Recorder`]
//! never reads the clock, so untraced passes pay nothing for it.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`machine.replay`, `workloads.synth`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between spans (never inside one).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(
            self.stack.is_empty(),
            "toggling the recorder inside an open span"
        );
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.stack.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Close every span opened above `depth` — the spans a panic unwound
    /// through without reaching their [`Recorder::exit`].
    pub fn close_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.exit();
        }
    }

    /// Number of spans recorded so far (a mark for [`Recorder::since`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans recorded since `mark`, with parent indices rebased onto
    /// the returned slice. Every span opened after `mark` must have been
    /// opened inside a span that was too, or be a root.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.spans[mark..]
            .iter()
            .map(|s| Span {
                parent: s
                    .parent
                    .map(|p| p.checked_sub(mark).expect("span parent precedes mark")),
                ..*s
            })
            .collect()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time per span name, in seconds, summed over `spans`.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}
