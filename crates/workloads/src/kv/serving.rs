//! Multi-tenant KV serving at population scale: millions of distinct
//! Zipfian-ranked tenants hitting a shared bucket table and per-tenant
//! value slots.
//!
//! Unlike the YCSB driver (which materializes its trace through real
//! [`Clht`]/[`Masstree`] stores), this scenario synthesizes its events
//! arithmetically as an [`EventSource`]: the request stream is generated
//! chunk-by-chunk on demand and never held in memory, so runs of hundreds
//! of millions of events replay through `machine::try_simulate_stream_opts`
//! (the engine's one replay loop, over a streaming feed) inside a fixed
//! pipeline budget. The *address* behaviour is the same protocol shape as
//! the real stores — bucket probe, value access, bucket commit, durability
//! fence — which is where pre-stores pay off; what is elided is the
//! byte-level store content, irrelevant to replay.
//!
//! [`Clht`]: crate::kv::Clht
//! [`Masstree`]: crate::kv::Masstree

use prestore::PrestoreMode;
use simcore::rng::{SimRng, Zipfian};
use simcore::stream::EventSource;
use simcore::{align_up, Addr, Event, EventKind, FuncId, FuncRegistry, RequestClasses, ThreadTrace};

/// Simulated base of the bucket table region.
const BUCKET_BASE: Addr = 1 << 32;

/// Simulated base of the value-slot region.
const VALUE_BASE: Addr = 1 << 40;

/// Bytes of one bucket entry (tag + value pointer, like [`crate::kv::Clht`]).
const BUCKET_ENTRY: u32 = 16;

/// Parameters of the serving scenario.
#[derive(Debug, Clone)]
pub struct ServingParams {
    /// Distinct tenants (users). Each owns one value slot; requests pick
    /// tenants Zipfian-ranked, so a small hot set dominates while the
    /// long tail still touches millions of distinct lines.
    pub users: u64,
    /// Target trace length in events, across all threads. Requests are
    /// emitted whole, so the stream overshoots by at most one request per
    /// thread.
    pub events: u64,
    /// Serving threads (each an independent request stream).
    pub threads: usize,
    /// Value size in bytes (rounded up to a 64 B slot stride).
    pub value_size: u32,
    /// Fraction of GET requests (the rest are PUTs).
    pub read_fraction: f64,
    /// Zipfian theta over the tenant population.
    pub theta: f64,
    /// RNG seed.
    pub seed: u64,
    /// Pre-store mode applied to PUTs.
    pub mode: PrestoreMode,
}

impl ServingParams {
    /// The headline configuration shape: `users` tenants, `events` total
    /// events, read-mostly serving mix.
    pub fn new(users: u64, events: u64, threads: usize, mode: PrestoreMode) -> Self {
        Self {
            users,
            events,
            threads,
            value_size: 64,
            read_fraction: 0.9,
            theta: 0.99,
            seed: 29,
            mode,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn quick() -> Self {
        Self::new(10_000, 40_000, 2, PrestoreMode::None)
    }
}

/// Attribution sites of the serving protocol.
#[derive(Debug, Clone, Copy)]
struct Sites {
    get_probe: FuncId,
    get_value: FuncId,
    put_probe: FuncId,
    put_value: FuncId,
    put_commit: FuncId,
    put_fence: FuncId,
}

/// One thread's generator state.
#[derive(Debug)]
struct ThreadState {
    rng: SimRng,
    /// Events emitted so far (requests stop once this reaches `quota`).
    emitted: u64,
    /// This thread's share of [`ServingParams::events`].
    quota: u64,
}

/// The serving scenario as a resettable, bounded-memory [`EventSource`].
#[derive(Debug)]
pub struct KvServingSource {
    params: ServingParams,
    zipf: Zipfian,
    registry: FuncRegistry,
    sites: Sites,
    states: Vec<ThreadState>,
    /// Bucket count (power of two) for the masked hash probe.
    buckets: u64,
    /// Bytes between consecutive value slots.
    value_stride: u64,
}

impl KvServingSource {
    /// Build the source; generation state starts at the beginning of
    /// every thread's stream.
    ///
    /// # Panics
    ///
    /// Panics if `users == 0` or `threads == 0`.
    pub fn new(params: ServingParams) -> Self {
        assert!(params.users > 0, "serving needs at least one tenant");
        assert!(params.threads > 0, "serving needs at least one thread");
        let mut registry = FuncRegistry::new();
        let file = "kv/serving.rs";
        let sites = Sites {
            get_probe: registry.register("serving_get_probe", file, 1),
            get_value: registry.register("serving_get_value", file, 2),
            put_probe: registry.register("serving_put_probe", file, 3),
            put_value: registry.register("serving_put_value", file, 4),
            put_commit: registry.register("serving_put_commit", file, 5),
            put_fence: registry.register("serving_put_fence", file, 6),
        };
        let zipf = Zipfian::new(params.users, params.theta);
        let buckets = params.users.next_power_of_two();
        let value_stride = align_up(u64::from(params.value_size), 64);
        let states = Self::fresh_states(&params);
        Self { params, zipf, registry, sites, states, buckets, value_stride }
    }

    fn fresh_states(p: &ServingParams) -> Vec<ThreadState> {
        (0..p.threads as u64)
            .map(|tid| {
                let quota = p.events / p.threads as u64
                    + u64::from(tid < p.events % p.threads as u64);
                ThreadState {
                    // Distinct, decorrelated per-thread streams.
                    rng: SimRng::new(p.seed ^ (tid + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    emitted: 0,
                    quota,
                }
            })
            .collect()
    }

    /// The registry resolving this scenario's attribution sites.
    pub fn registry(&self) -> &FuncRegistry {
        &self.registry
    }

    /// The parameters this source was built with.
    pub fn params(&self) -> &ServingParams {
        &self.params
    }

    fn bucket_addr(&self, user: u64) -> Addr {
        // SplitMix-style mix so adjacent tenant ids spread over the table.
        let mut h = user.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 31;
        BUCKET_BASE + (h & (self.buckets - 1)) * u64::from(BUCKET_ENTRY)
    }

    fn value_addr(&self, user: u64) -> Addr {
        VALUE_BASE + user * self.value_stride
    }

    /// A [`RequestClasses`] classifier for this source's event stream,
    /// splitting requests by op type and tenant temperature. Hand it to
    /// `machine::try_simulate_stream_classified` alongside the source to
    /// get per-class retire-to-retire latency histograms.
    pub fn classifier(&self) -> ServingClasses {
        ServingClasses {
            get_value: self.sites.get_value,
            put_fence: self.sites.put_fence,
            value_stride: self.value_stride,
            hot_users: (self.params.users / 100).max(1),
            last_user: vec![0; self.params.threads],
        }
    }

    /// Append one whole request to `buf`, returning its event count.
    fn emit_request(&self, tid: usize, rng: &mut SimRng, buf: &mut Vec<Event>) -> u64 {
        let _ = tid;
        let p = &self.params;
        let s = &self.sites;
        let user = self.zipf.sample(rng);
        let bucket = self.bucket_addr(user);
        let value = self.value_addr(user);
        let before = buf.len();
        let ev = |addr, size, kind, func| Event {
            addr,
            size,
            kind,
            func,
            caller: FuncId::UNKNOWN,
        };
        if rng.gen_bool(p.read_fraction) {
            buf.push(ev(bucket, BUCKET_ENTRY, EventKind::Read, s.get_probe));
            buf.push(ev(value, p.value_size, EventKind::Read, s.get_value));
        } else {
            buf.push(ev(bucket, BUCKET_ENTRY, EventKind::Read, s.put_probe));
            // Skipping writes the value non-temporally (§5); the bucket
            // entry stays a plain store in every mode — it is re-read by
            // the very next probe of that bucket.
            let value_kind =
                if p.mode == PrestoreMode::Skip { EventKind::NtWrite } else { EventKind::Write };
            buf.push(ev(value, p.value_size, value_kind, s.put_value));
            buf.push(ev(bucket, BUCKET_ENTRY, EventKind::Write, s.put_commit));
            match p.mode {
                PrestoreMode::None | PrestoreMode::Skip => {}
                PrestoreMode::Clean => {
                    buf.push(ev(value, p.value_size, EventKind::PrestoreClean, s.put_value));
                    buf.push(ev(bucket, BUCKET_ENTRY, EventKind::PrestoreClean, s.put_commit));
                }
                PrestoreMode::Demote => {
                    buf.push(ev(value, p.value_size, EventKind::PrestoreDemote, s.put_value));
                    buf.push(ev(bucket, BUCKET_ENTRY, EventKind::PrestoreDemote, s.put_commit));
                }
            }
            buf.push(ev(0, 0, EventKind::Fence, s.put_fence));
        }
        (buf.len() - before) as u64
    }
}

/// Class indices produced by [`ServingClasses`] (see
/// [`ServingClasses::NAMES`] for the histogram names).
pub mod serving_class {
    /// GET of a hot-set tenant (top ~1% of the Zipfian ranking).
    pub const GET_HOT: usize = 0;
    /// GET of a long-tail tenant.
    pub const GET_COLD: usize = 1;
    /// PUT of a hot-set tenant.
    pub const PUT_HOT: usize = 2;
    /// PUT of a long-tail tenant.
    pub const PUT_COLD: usize = 3;
}

/// Request-boundary classifier for [`KvServingSource`] streams.
///
/// Works purely off the events the engine retires — no RNG replay, no
/// shadow state machine. Each request ends at a structurally unique
/// event: a GET at its `serving_get_value` read, a PUT at its
/// `serving_put_fence` durability fence. Tenant temperature is recovered
/// from the value-slot address (rank = offset / stride; Zipfian rank 0
/// is the hottest tenant), so the classification is deterministic and
/// identical across streaming and materialized replay.
#[derive(Debug, Clone)]
pub struct ServingClasses {
    get_value: FuncId,
    put_fence: FuncId,
    value_stride: u64,
    /// Tenants ranked below this are "hot" (top ~1%, at least one).
    hot_users: u64,
    /// Per-thread tenant of the most recent value-slot access, pending
    /// until the request's closing event arrives.
    last_user: Vec<u64>,
}

impl ServingClasses {
    /// Histogram names, indexed by [`serving_class`] constants.
    pub const NAMES: [&'static str; 4] = ["get_hot", "get_cold", "put_hot", "put_cold"];

    fn temperature(&self, user: u64) -> usize {
        usize::from(user >= self.hot_users)
    }
}

impl RequestClasses for ServingClasses {
    fn class_names(&self) -> &'static [&'static str] {
        &Self::NAMES
    }

    fn on_event(&mut self, thread: usize, ev: &Event) -> Option<usize> {
        if thread >= self.last_user.len() {
            self.last_user.resize(thread + 1, 0);
        }
        if ev.addr >= VALUE_BASE && ev.kind.is_access() {
            self.last_user[thread] = (ev.addr - VALUE_BASE) / self.value_stride;
        }
        if ev.func == self.get_value && ev.kind == EventKind::Read {
            Some(serving_class::GET_HOT + self.temperature(self.last_user[thread]))
        } else if ev.func == self.put_fence && ev.kind == EventKind::Fence {
            Some(serving_class::PUT_HOT + self.temperature(self.last_user[thread]))
        } else {
            None
        }
    }
}

impl EventSource for KvServingSource {
    fn threads(&self) -> usize {
        self.params.threads
    }

    fn fill(&mut self, thread: usize, max: usize, buf: &mut Vec<Event>) -> usize {
        let start = buf.len();
        // Requests are emitted whole (a chunk boundary must not split a
        // request's fence from its stores), so one fill may overshoot
        // `max` by a few events. The emitted stream depends only on the
        // per-thread state, never on `max`: any chunking yields the same
        // events, which the chunk-size-invariant digest pins.
        let mut st = std::mem::replace(
            &mut self.states[thread],
            ThreadState { rng: SimRng::new(0), emitted: 0, quota: 0 },
        );
        while st.emitted < st.quota && buf.len() - start < max {
            st.emitted += self.emit_request(thread, &mut st.rng, buf);
        }
        self.states[thread] = st;
        buf.len() - start
    }

    fn reset(&mut self) {
        self.states = Self::fresh_states(&self.params);
    }

    fn len_hint(&self) -> Option<u64> {
        // A lower bound: requests stop at the first op boundary at or
        // past the quota.
        Some(self.params.events)
    }
}

/// Drain an [`EventSource`] into materialized per-thread traces (test and
/// verification helper — the point of the streaming path is to *not* do
/// this at scale). Rewinds `source` to the beginning first (so a source a
/// replay just exhausted materializes the same stream) and resets it
/// again afterwards.
pub fn materialize<S: EventSource>(source: &mut S, chunk: usize) -> Vec<ThreadTrace> {
    source.reset();
    let mut out: Vec<ThreadTrace> = (0..source.threads()).map(|_| ThreadTrace::default()).collect();
    for (t, trace) in out.iter_mut().enumerate() {
        loop {
            let before = trace.events.len();
            source.fill(t, chunk, &mut trace.events);
            if trace.events.len() == before {
                break;
            }
        }
    }
    source.reset();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_of(traces: &[ThreadTrace]) -> Vec<&[Event]> {
        traces.iter().map(|t| t.events.as_slice()).collect()
    }

    #[test]
    fn stream_is_chunk_invariant_and_resettable() {
        let mut src = KvServingSource::new(ServingParams::quick());
        let coarse = materialize(&mut src, 10_000);
        let fine = materialize(&mut src, 7);
        assert_eq!(events_of(&coarse), events_of(&fine));
        // And reset really rewinds: a third pass matches too.
        assert_eq!(events_of(&coarse), events_of(&materialize(&mut src, 333)));
    }

    #[test]
    fn stream_meets_its_event_quota_at_request_boundaries() {
        let p = ServingParams::quick();
        let mut src = KvServingSource::new(p.clone());
        let traces = materialize(&mut src, 4096);
        let total: u64 = traces.iter().map(|t| t.events.len() as u64).sum();
        assert!(total >= p.events, "{total} < {}", p.events);
        // Overshoot is bounded by one request per thread (≤ 6 events).
        assert!(total < p.events + 6 * p.threads as u64);
        // Every PUT ends with its durability fence.
        for t in &traces {
            let last_store =
                t.events.iter().rposition(|e| e.kind.is_store()).unwrap();
            assert!(t.events[last_store + 1..].iter().any(|e| e.kind == EventKind::Fence));
        }
    }

    #[test]
    fn classifier_fires_once_per_request_with_both_temperatures() {
        let p = ServingParams { read_fraction: 0.5, ..ServingParams::quick() };
        let src = KvServingSource::new(p);
        let mut classes = src.classifier();
        let mut src = src;
        let traces = materialize(&mut src, 4096);
        let mut counts = [0u64; 4];
        for (tid, t) in traces.iter().enumerate() {
            for ev in &t.events {
                if let Some(c) = classes.on_event(tid, ev) {
                    counts[c] += 1;
                }
            }
        }
        let gets: u64 = traces
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == EventKind::Read && e.addr >= VALUE_BASE)
            .count() as u64;
        let puts: u64 = traces
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == EventKind::Fence)
            .count() as u64;
        assert_eq!(counts[serving_class::GET_HOT] + counts[serving_class::GET_COLD], gets);
        assert_eq!(counts[serving_class::PUT_HOT] + counts[serving_class::PUT_COLD], puts);
        // Zipf theta 0.99 over 10K tenants: the top-1% hot set absorbs a
        // large share, yet the long tail is still visited — every class
        // is populated.
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(
            counts[serving_class::GET_HOT] > counts[serving_class::GET_COLD] / 4,
            "hot set should absorb a sizable share: {counts:?}"
        );
    }

    #[test]
    fn tenants_spread_over_many_distinct_lines() {
        let p = ServingParams { users: 50_000, ..ServingParams::quick() };
        let mut src = KvServingSource::new(p);
        let traces = materialize(&mut src, 8192);
        let mut lines = std::collections::HashSet::new();
        for t in &traces {
            for e in &t.events {
                if e.kind.is_access() {
                    lines.insert(simcore::align_down(e.addr, 64));
                }
            }
        }
        // 40K events over 50K Zipfian tenants: thousands of distinct
        // lines, far beyond any single tenant's footprint.
        assert!(lines.len() > 2_000, "only {} distinct lines", lines.len());
    }

    #[test]
    fn prestore_modes_add_prestore_events_only() {
        let base = materialize(
            &mut KvServingSource::new(ServingParams::quick()),
            1 << 14,
        );
        let clean_params =
            ServingParams { mode: PrestoreMode::Clean, ..ServingParams::quick() };
        let clean = materialize(&mut KvServingSource::new(clean_params), 1 << 14);
        let cleans: usize = clean
            .iter()
            .map(|t| t.events.iter().filter(|e| e.kind == EventKind::PrestoreClean).count())
            .sum();
        assert!(cleans > 0, "clean mode must emit pre-stores");
        // Stripping the pre-stores recovers a prefix of the baseline
        // stream (same RNG draws, same addresses; clean-mode requests are
        // longer, so the event quota is reached after fewer of them).
        for (b, c) in base.iter().zip(&clean) {
            let stripped: Vec<Event> = c
                .events
                .iter()
                .copied()
                .filter(|e| e.kind != EventKind::PrestoreClean)
                .collect();
            assert!(stripped.len() <= b.events.len());
            assert_eq!(b.events[..stripped.len()], stripped[..]);
        }
    }
}
