//! Set-associative, write-back, write-allocate cache model.

use crate::replacement::{ReplacementKind, SetPolicy};
use simcore::rng::SimRng;
use simcore::{align_down, Addr, LineId};

/// O(1) reverse index from dense [`LineId`]s to cache slots.
///
/// When a trace's lines have been interned (`simcore::intern`), the engine
/// installs one of these per cache via [`Cache::install_id_index`]; lookups
/// then go straight from a line's id to its slot instead of scanning the
/// set's ways and comparing tags.
///
/// Each entry is 4 bytes: `slot + 1` while the line is resident, 0 while
/// it is not. The cache clears an entry whenever its line leaves, and
/// [`Cache::take_id_index`] clears the entries of the lines still
/// resident, so an index that is not installed is all-zero and can be
/// reused for the next run, whatever its id space, without a sweep.
#[derive(Debug, Clone, Default)]
pub struct IdIndex {
    /// Per line id: resident slot + 1, or 0.
    slots: Vec<u32>,
}

impl IdIndex {
    /// An empty index (use [`IdIndex::reset`] to size it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the index for a run over `lines` interned lines. An index
    /// that is not installed maps nothing (see the type docs), so this
    /// only grows it.
    pub fn reset(&mut self, lines: usize) {
        debug_assert!(self.slots.iter().all(|&s| s == 0), "recycled index still maps lines");
        self.grow(lines);
    }

    /// Extend the index to cover `lines` ids; existing mappings stay
    /// valid. Streaming replays intern lines chunk-by-chunk mid-run, so
    /// the id space grows while cached lines keep their slots; fresh
    /// entries are zero, which maps nothing.
    pub fn grow(&mut self, lines: usize) {
        if self.slots.len() < lines {
            self.slots.resize(lines, 0);
        }
    }

    #[inline]
    fn get(&self, id: LineId) -> Option<usize> {
        self.slots[id.index()].checked_sub(1).map(|s| s as usize)
    }

    #[inline]
    fn set(&mut self, id: LineId, slot: usize) {
        self.slots[id.index()] = slot as u32 + 1;
    }

    #[inline]
    fn clear(&mut self, id: LineId) {
        self.slots[id.index()] = 0;
    }
}

/// Static geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Line size in bytes (power of two).
    pub line_size: u64,
    /// Associativity.
    pub ways: usize,
    /// Number of sets (power of two).
    pub sets: usize,
    /// Replacement policy.
    pub replacement: ReplacementKind,
}

impl CacheConfig {
    /// Build a config from a total capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is not a power of
    /// two where required.
    pub fn from_capacity(
        capacity: u64,
        ways: usize,
        line_size: u64,
        replacement: ReplacementKind,
    ) -> Self {
        assert!(line_size.is_power_of_two(), "line size must be a power of two");
        let lines = capacity / line_size;
        assert_eq!(lines % ways as u64, 0, "capacity must divide into ways");
        let sets = (lines / ways as u64) as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two (got {sets})");
        Self { line_size, ways, sets, replacement }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.line_size * self.ways as u64 * self.sets as u64
    }
}

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned address of the evicted line.
    pub line: Addr,
    /// Whether the line was dirty (must be written back).
    pub dirty: bool,
    /// The line's dense id, when the cache has an [`IdIndex`] installed
    /// ([`LineId::INVALID`] otherwise).
    pub id: LineId,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already present.
    pub hit: bool,
    /// A line evicted to make room (misses in full sets only).
    pub victim: Option<Victim>,
}

/// Event counters of one cache instance.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted (any state).
    pub evictions: u64,
    /// Dirty lines evicted (each becomes a device/next-level write).
    pub dirty_evictions: u64,
    /// Lines cleaned in place by `clean` pre-stores.
    pub cleans: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (1.0 when there were no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative, write-back, write-allocate cache.
///
/// Addresses are tracked at line granularity only; the cache stores no
/// data, just tags and dirty bits — the simulation is about *movement*, not
/// contents.
///
/// # Examples
///
/// ```
/// use cachesim::{Cache, CacheConfig, ReplacementKind};
///
/// let cfg = CacheConfig::from_capacity(4096, 4, 64, ReplacementKind::Lru);
/// let mut c = Cache::new(cfg, 1);
/// assert!(!c.access(0, true).hit);   // cold miss, allocated dirty
/// assert!(c.access(0, false).hit);   // now resident
/// assert!(c.is_dirty(0));
/// assert!(c.clean_line(0));          // writeback, stays resident
/// assert!(!c.is_dirty(0));
/// assert!(c.access(0, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    // Indexed by set * ways + way.
    tags: Vec<Addr>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    // Per-slot dense line id, meaningful only while `index` is installed.
    ids: Vec<u32>,
    index: Option<IdIndex>,
    /// One occupancy bit per way of each set (bit `w` of entry `set`
    /// mirrors `valid[set * ways + w]`), maintained only for geometries of
    /// at most 64 ways: the fill path finds the first free way with one
    /// mask op instead of scanning the set.
    valid_ways: Vec<u64>,
    /// `log2(line_size)`, precomputed so the set-index path shifts instead
    /// of dividing.
    line_shift: u32,
    /// `log2(ways)` when the associativity is a power of two (the common
    /// case); `None` keeps the div/mod slot arithmetic for odd geometries.
    ways_shift: Option<u32>,
    policies: Vec<SetPolicy>,
    rng: SimRng,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty cache with the given geometry and RNG seed (the seed
    /// drives random replacement decisions).
    pub fn new(cfg: CacheConfig, seed: u64) -> Self {
        assert!(cfg.line_size.is_power_of_two(), "line size must be a power of two");
        let n = cfg.sets * cfg.ways;
        Self {
            line_shift: cfg.line_size.trailing_zeros(),
            ways_shift: cfg.ways.is_power_of_two().then(|| cfg.ways.trailing_zeros()),
            cfg,
            tags: vec![0; n],
            valid: vec![false; n],
            dirty: vec![false; n],
            ids: vec![LineId::INVALID.0; n],
            index: None,
            valid_ways: vec![0; if cfg.ways <= 64 { cfg.sets } else { 0 }],
            policies: (0..cfg.sets).map(|_| SetPolicy::new(cfg.replacement, cfg.ways)).collect(),
            rng: SimRng::new(seed),
            stats: CacheStats::default(),
        }
    }

    /// Install a [`LineId`] reverse index (fresh or taken back from a
    /// cache, and [`IdIndex::reset`] for the trace's line count). From
    /// here on, the `*_id` operations resolve residency in O(1) instead of
    /// scanning the set's ways.
    ///
    /// The cache must be empty (ids of already-resident lines are unknown),
    /// and once installed, *only* the `*_id` operations may mutate contents
    /// — the plain address-keyed ops would silently desynchronise the index.
    pub fn install_id_index(&mut self, index: IdIndex) {
        debug_assert_eq!(self.resident(), 0, "id index requires an empty cache");
        self.index = Some(index);
    }

    /// Remove and return the installed [`IdIndex`] so a caller can recycle
    /// its allocation for the next run. The entries of the lines still
    /// resident are cleared on the way out, so the returned index maps
    /// nothing; the cache keeps its contents.
    pub fn take_id_index(&mut self) -> Option<IdIndex> {
        let mut ix = self.index.take()?;
        for (s, _) in self.valid.iter().enumerate().filter(|&(_, &v)| v) {
            ix.clear(LineId(self.ids[s]));
        }
        Some(ix)
    }

    /// Grow the installed [`IdIndex`] (if any) to cover `lines` ids
    /// without invalidating existing mappings; see [`IdIndex::grow`].
    pub fn grow_id_index(&mut self, lines: usize) {
        if let Some(ix) = self.index.as_mut() {
            ix.grow(lines);
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Event counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset the event counters (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Align `addr` to this cache's line size.
    #[inline]
    pub fn line_of(&self, addr: Addr) -> Addr {
        align_down(addr, self.cfg.line_size)
    }

    #[inline]
    fn set_of(&self, line: Addr) -> usize {
        ((line >> self.line_shift) as usize) & (self.cfg.sets - 1)
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        match self.ways_shift {
            Some(sh) => (set << sh) | way,
            None => set * self.cfg.ways + way,
        }
    }

    /// Inverse of [`Cache::slot`]: split a flat slot back into `(set, way)`.
    #[inline]
    fn unslot(&self, slot: usize) -> (usize, usize) {
        match self.ways_shift {
            Some(sh) => (slot >> sh, slot & ((1 << sh) - 1)),
            None => (slot / self.cfg.ways, slot % self.cfg.ways),
        }
    }

    fn find(&self, line: Addr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        if self.cfg.ways <= 64 {
            // A resident line occupies exactly one way, so a vectorized
            // tag compare over the set's contiguous tag block, masked by
            // its occupancy bits, resolves residency in one pass — the
            // same associative probe the hardware performs.
            let base = self.slot(set, 0);
            let m = simcore::simd::eq_mask_u64(&self.tags[base..base + self.cfg.ways], line)
                & self.valid_ways[set];
            return (m != 0).then(|| (set, m.trailing_zeros() as usize));
        }
        (0..self.cfg.ways).find_map(|way| {
            let s = self.slot(set, way);
            (self.valid[s] && self.tags[s] == line).then_some((set, way))
        })
    }

    /// Resolve residency through the id index when installed, falling back
    /// to the tag scan otherwise. `line` must already be line-aligned.
    ///
    /// (Routing small caches through the vectorized way probe instead of
    /// the index was tried and loses both ways: the index answers the
    /// common *miss* with one load, and the probe's AVX2 twin cannot be
    /// inlined across the `target_feature` boundary.)
    #[inline]
    fn find_by(&self, line: Addr, id: LineId) -> Option<(usize, usize)> {
        debug_assert_eq!(line, self.line_of(line));
        match &self.index {
            Some(ix) => {
                let slot = ix.get(id)?;
                debug_assert_eq!(self.tags[slot], line);
                debug_assert!(self.valid[slot]);
                Some(self.unslot(slot))
            }
            None => self.find(line),
        }
    }

    /// The dense id to report for the line in `slot` (INVALID when no index
    /// is installed).
    #[inline]
    fn id_in(&self, slot: usize) -> LineId {
        if self.index.is_some() {
            LineId(self.ids[slot])
        } else {
            LineId::INVALID
        }
    }

    /// Whether `line` (line-aligned) is resident.
    pub fn probe(&self, line: Addr) -> bool {
        self.find(self.line_of(line)).is_some()
    }

    /// Whether `line` is resident and dirty.
    pub fn is_dirty(&self, line: Addr) -> bool {
        self.find(self.line_of(line))
            .is_some_and(|(set, way)| self.dirty[self.slot(set, way)])
    }

    /// Access the line containing `addr`, allocating on miss.
    ///
    /// `write` marks the line dirty. Returns whether it hit and any victim
    /// evicted to make room.
    pub fn access(&mut self, addr: Addr, write: bool) -> AccessOutcome {
        let line = self.line_of(addr);
        self.access_id(line, LineId::INVALID, write)
    }

    /// [`Cache::access`] with a pre-aligned line and its dense id (pass
    /// [`LineId::INVALID`] when no index is installed).
    pub fn access_id(&mut self, line: Addr, id: LineId, write: bool) -> AccessOutcome {
        if let Some((set, way)) = self.find_by(line, id) {
            self.stats.hits += 1;
            let s = self.slot(set, way);
            if write {
                self.dirty[s] = true;
            }
            self.policies[set].on_access(way, self.cfg.ways);
            return AccessOutcome { hit: true, victim: None };
        }
        self.stats.misses += 1;
        let victim = self.insert_internal(line, id, write);
        AccessOutcome { hit: false, victim }
    }

    /// Fused probe-then-read: on a hit, count it and touch the replacement
    /// state, exactly like `probe(line)` followed by `access(line, false)`;
    /// on a miss, mutate *nothing* (no miss is counted, no fill happens) and
    /// return `false` so the caller can take its miss path.
    #[inline]
    pub fn hit_read(&mut self, line: Addr, id: LineId) -> bool {
        match self.find_by(line, id) {
            Some((set, way)) => {
                self.stats.hits += 1;
                self.policies[set].on_access(way, self.cfg.ways);
                true
            }
            None => false,
        }
    }

    /// Fused probe-then-write: like [`Cache::hit_read`] but also sets the
    /// dirty bit on a hit.
    #[inline]
    pub fn hit_write(&mut self, line: Addr, id: LineId) -> bool {
        match self.find_by(line, id) {
            Some((set, way)) => {
                self.stats.hits += 1;
                let s = self.slot(set, way);
                self.dirty[s] = true;
                self.policies[set].on_access(way, self.cfg.ways);
                true
            }
            None => false,
        }
    }

    /// Insert `line` (line-aligned) with the given dirty state, bypassing
    /// hit/miss accounting. Used when a lower level pushes a line up (e.g.
    /// an L1 dirty eviction allocating into the LLC).
    ///
    /// Returns any evicted victim. If the line is already resident, its
    /// dirty bit is OR-ed.
    pub fn insert(&mut self, line: Addr, dirty: bool) -> Option<Victim> {
        let line = self.line_of(line);
        self.insert_id(line, LineId::INVALID, dirty)
    }

    /// [`Cache::insert`] with a pre-aligned line and its dense id.
    pub fn insert_id(&mut self, line: Addr, id: LineId, dirty: bool) -> Option<Victim> {
        if let Some((set, way)) = self.find_by(line, id) {
            let s = self.slot(set, way);
            self.dirty[s] |= dirty;
            self.policies[set].on_access(way, self.cfg.ways);
            return None;
        }
        self.insert_internal(line, id, dirty)
    }

    fn insert_internal(&mut self, line: Addr, id: LineId, dirty: bool) -> Option<Victim> {
        let set = self.set_of(line);
        // Prefer an invalid way — the lowest-numbered one, matching the
        // historical ascending scan. On a warm cache the set is full, so
        // the occupancy mask answers in one op where the scan walked every
        // way before failing.
        let way = if self.cfg.ways <= 64 {
            let free = !self.valid_ways[set] & (u64::MAX >> (64 - self.cfg.ways));
            (free != 0).then(|| free.trailing_zeros() as usize)
        } else {
            (0..self.cfg.ways).find(|&w| !self.valid[self.slot(set, w)])
        };
        let (way, victim) = match way {
            Some(w) => (w, None),
            None => {
                let w = self.policies[set].victim(self.cfg.ways, &mut self.rng);
                let s = self.slot(set, w);
                let v = Victim { line: self.tags[s], dirty: self.dirty[s], id: self.id_in(s) };
                self.stats.evictions += 1;
                if v.dirty {
                    self.stats.dirty_evictions += 1;
                }
                if let Some(ix) = &mut self.index {
                    ix.clear(LineId(self.ids[s]));
                }
                (w, Some(v))
            }
        };
        let s = self.slot(set, way);
        self.tags[s] = line;
        self.valid[s] = true;
        if self.cfg.ways <= 64 {
            self.valid_ways[set] |= 1 << way;
        }
        self.dirty[s] = dirty;
        if let Some(ix) = &mut self.index {
            debug_assert_ne!(id, LineId::INVALID, "id index installed but id-less op used");
            ix.set(id, s);
            self.ids[s] = id.0;
        }
        self.policies[set].on_access(way, self.cfg.ways);
        victim
    }

    /// Clean the line containing `addr` in place (a `clean` pre-store /
    /// `clwb`): clears the dirty bit but keeps the line resident.
    ///
    /// Returns `true` when the line was resident and dirty (i.e. a
    /// writeback is actually produced).
    pub fn clean_line(&mut self, addr: Addr) -> bool {
        let line = self.line_of(addr);
        self.clean_line_id(line, LineId::INVALID)
    }

    /// [`Cache::clean_line`] with a pre-aligned line and its dense id.
    pub fn clean_line_id(&mut self, line: Addr, id: LineId) -> bool {
        if let Some((set, way)) = self.find_by(line, id) {
            let s = self.slot(set, way);
            if self.dirty[s] {
                self.dirty[s] = false;
                self.stats.cleans += 1;
                return true;
            }
        }
        false
    }

    /// Remove the line containing `addr`, returning its dirty state if it
    /// was resident.
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let line = self.line_of(addr);
        self.invalidate_id(line, LineId::INVALID)
    }

    /// [`Cache::invalidate`] with a pre-aligned line and its dense id.
    pub fn invalidate_id(&mut self, line: Addr, id: LineId) -> Option<bool> {
        self.find_by(line, id).map(|(set, way)| {
            let s = self.slot(set, way);
            self.valid[s] = false;
            if self.cfg.ways <= 64 {
                self.valid_ways[set] &= !(1 << way);
            }
            let was_dirty = self.dirty[s];
            self.dirty[s] = false;
            if let Some(ix) = &mut self.index {
                ix.clear(LineId(self.ids[s]));
            }
            was_dirty
        })
    }

    /// Whether the pre-aligned `line` with dense id `id` is resident.
    #[inline]
    pub fn probe_id(&self, line: Addr, id: LineId) -> bool {
        self.find_by(line, id).is_some()
    }

    /// Evict everything, returning all resident lines in set order.
    pub fn flush_all(&mut self) -> Vec<Victim> {
        let mut out = Vec::new();
        self.flush_all_into(&mut out);
        out
    }

    /// [`Cache::flush_all`] into a caller-provided buffer (appended, not
    /// cleared), so a replay loop can reuse one allocation across flushes.
    ///
    /// Victims are appended in ascending slot order — i.e. sorted by set
    /// index, ways in order within a set — which is what makes whole-cache
    /// flushes deterministic and their downstream device writes
    /// byte-reproducible across runs.
    pub fn flush_all_into(&mut self, out: &mut Vec<Victim>) {
        // Vectorized valid-slot sweep: each 32-slot chunk's occupancy mask
        // is computed up front, then its set bits are drained in ascending
        // order while the slots are cleared (the mask is a snapshot, so
        // clearing does not disturb the scan).
        let n = self.tags.len();
        let mut base = 0;
        while base < n {
            let end = (base + 32).min(n);
            let mut m = simcore::simd::mask_true(&self.valid[base..end]);
            while m != 0 {
                let s = base + m.trailing_zeros() as usize;
                m &= m - 1;
                out.push(Victim { line: self.tags[s], dirty: self.dirty[s], id: self.id_in(s) });
                self.valid[s] = false;
                self.dirty[s] = false;
                if let Some(ix) = &mut self.index {
                    ix.clear(LineId(self.ids[s]));
                }
            }
            base = end;
        }
        // Everything is invalid now; the occupancy masks follow wholesale.
        self.valid_ways.fill(0);
    }

    /// Iterate over resident dirty lines (diagnostics / end-of-run flush
    /// accounting).
    pub fn dirty_lines(&self) -> impl Iterator<Item = Addr> + '_ {
        self.tags
            .iter()
            .zip(self.valid.iter())
            .zip(self.dirty.iter())
            .filter(|((_, &v), &d)| v && d)
            .map(|((&t, _), _)| t)
    }

    /// Append all resident dirty lines to `out` in ascending slot order
    /// (set-major), the same deterministic order as
    /// [`Cache::flush_all_into`]. This is the vectorized dirty-line sweep:
    /// valid and dirty flags are masked 32 slots at a time.
    pub fn dirty_lines_into(&self, out: &mut Vec<Addr>) {
        simcore::simd::for_each_both_true(&self.valid, &self.dirty, |s| out.push(self.tags[s]));
    }

    /// Number of resident lines (vectorized valid-flag count).
    pub fn resident(&self) -> usize {
        simcore::simd::count_true(&self.valid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(replacement: ReplacementKind) -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig::from_capacity(512, 2, 64, replacement), 42)
    }

    #[test]
    fn config_geometry() {
        let cfg = CacheConfig::from_capacity(32 * 1024, 8, 64, ReplacementKind::Lru);
        assert_eq!(cfg.sets, 64);
        assert_eq!(cfg.capacity(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_bad_sets() {
        let _ = CacheConfig::from_capacity(3 * 64 * 2, 2, 64, ReplacementKind::Lru);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(ReplacementKind::Lru);
        let out = c.access(100, false);
        assert!(!out.hit);
        assert!(out.victim.is_none());
        assert!(c.access(100, false).hit);
        assert!(c.access(64, false).hit, "same line as 100");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn write_marks_dirty_eviction_reports_it() {
        let mut c = small(ReplacementKind::Lru);
        // Set 0 holds lines 0 and 1024 (4 sets * 64 stride = 256... line/64 % 4).
        c.access(0, true);
        c.access(256, true); // also set 0
        let out = c.access(512, false); // evicts LRU (line 0)
        assert!(!out.hit);
        let v = out.victim.expect("a full set must evict on fill");
        assert_eq!(v.line, 0);
        assert!(v.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn clean_keeps_resident() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, true);
        assert!(c.is_dirty(0));
        assert!(c.clean_line(0));
        assert!(!c.is_dirty(0));
        assert!(c.probe(0));
        // Cleaning again produces no writeback.
        assert!(!c.clean_line(0));
        // Cleaning an absent line produces nothing.
        assert!(!c.clean_line(4096));
        assert_eq!(c.stats().cleans, 1);
    }

    #[test]
    fn clean_evictions_are_not_dirty() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, true);
        c.clean_line(0);
        c.access(256, false);
        let out = c.access(512, false);
        let v = out.victim.expect("a full set must evict on fill");
        assert_eq!(v.line, 0);
        assert!(!v.dirty, "cleaned line must not be written back again");
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.probe(0));
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn insert_merges_dirty() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, false);
        assert!(!c.is_dirty(0));
        assert!(c.insert(0, true).is_none());
        assert!(c.is_dirty(0));
        // Inserting dirty=false must not clean an already-dirty line.
        assert!(c.insert(0, false).is_none());
        assert!(c.is_dirty(0));
    }

    #[test]
    fn flush_all_returns_everything() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, true);
        c.access(64, false);
        let flushed = c.flush_all();
        assert_eq!(flushed.len(), 2);
        assert_eq!(c.resident(), 0);
        assert_eq!(flushed.iter().filter(|v| v.dirty).count(), 1);
    }

    #[test]
    fn dirty_lines_iterator() {
        let mut c = small(ReplacementKind::Lru);
        c.access(0, true);
        c.access(64, false);
        c.access(128, true);
        let mut d: Vec<_> = c.dirty_lines().collect();
        d.sort_unstable();
        assert_eq!(d, vec![0, 128]);
    }

    #[test]
    fn lru_cache_preserves_sequential_eviction_order() {
        // With true LRU and a single sequential writer, evictions come out
        // in write order — the idealised behaviour §4.1 contrasts against.
        let mut c = Cache::new(
            CacheConfig::from_capacity(1024, 2, 64, ReplacementKind::Lru),
            1,
        );
        let mut evicted = Vec::new();
        for i in 0..64u64 {
            if let Some(v) = c.access(i * 64, true).victim {
                evicted.push(v.line);
            }
        }
        let mut sorted = evicted.clone();
        sorted.sort_unstable();
        assert_eq!(evicted, sorted, "LRU evictions of a sequential stream are sequential");
    }

    #[test]
    fn random_cache_scrambles_eviction_order() {
        // The same stream under random replacement comes out non-sequential:
        // this is the §4.1 effect that causes write amplification.
        let mut c = Cache::new(
            CacheConfig::from_capacity(1024, 8, 64, ReplacementKind::Random),
            7,
        );
        let mut evicted = Vec::new();
        for i in 0..256u64 {
            if let Some(v) = c.access(i * 64, true).victim {
                evicted.push(v.line);
            }
        }
        let sorted = {
            let mut s = evicted.clone();
            s.sort_unstable();
            s
        };
        assert_ne!(evicted, sorted, "random replacement must scramble evictions");
    }

    #[test]
    fn capacity_bounded() {
        let mut c = small(ReplacementKind::TreePlru);
        for i in 0..1000u64 {
            c.access(i * 64, true);
        }
        assert!(c.resident() <= 8);
    }

    #[test]
    fn fused_hit_ops_match_probe_then_access() {
        let mut c = small(ReplacementKind::Lru);
        // A fused miss mutates nothing — no miss counted, no fill.
        assert!(!c.hit_read(0, LineId::INVALID));
        assert!(!c.hit_write(0, LineId::INVALID));
        assert_eq!(c.stats().misses, 0);
        assert!(!c.probe(0));
        c.access(0, false);
        assert!(c.hit_read(0, LineId::INVALID));
        assert!(!c.is_dirty(0));
        assert!(c.hit_write(0, LineId::INVALID));
        assert!(c.is_dirty(0));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn id_index_path_matches_plain_path() {
        use simcore::LineInterner;
        // Same access sequence through a plain cache and an id-indexed one
        // (same seed): outcomes, stats, and flush order must be identical.
        let cfg = CacheConfig::from_capacity(1024, 2, 64, ReplacementKind::NruRandom);
        let mut plain = Cache::new(cfg, 9);
        let mut indexed = Cache::new(cfg, 9);
        let seq: Vec<(Addr, bool)> =
            (0..500u64).map(|i| ((i.wrapping_mul(7) % 64) * 64, i % 3 == 0)).collect();
        let mut interner = LineInterner::new(64);
        for &(l, _) in &seq {
            interner.intern(l);
        }
        let mut ix = IdIndex::new();
        ix.reset(interner.len());
        indexed.install_id_index(ix);
        for &(line, write) in &seq {
            let id = interner.id_of(line).expect("every test line was interned above");
            let a = plain.access(line, write);
            let b = indexed.access_id(line, id, write);
            assert_eq!(a.hit, b.hit);
            assert_eq!(
                a.victim.map(|v| (v.line, v.dirty)),
                b.victim.map(|v| (v.line, v.dirty))
            );
            if let Some(v) = b.victim {
                assert_eq!(interner.id_of(v.line), Some(v.id), "victim carries its id");
            }
        }
        assert_eq!(plain.stats(), indexed.stats());
        let pf: Vec<_> = plain.flush_all().iter().map(|v| (v.line, v.dirty)).collect();
        let mut buf = Vec::new();
        indexed.flush_all_into(&mut buf);
        let inf: Vec<_> = buf.iter().map(|v| (v.line, v.dirty)).collect();
        assert_eq!(pf, inf, "flush order is slot order on both paths");
    }

    #[test]
    fn id_index_taken_from_a_warm_cache_maps_nothing() {
        let cfg = CacheConfig::from_capacity(512, 2, 64, ReplacementKind::Lru);
        let mut c = Cache::new(cfg, 1);
        let mut ix = IdIndex::new();
        ix.reset(8);
        c.install_id_index(ix);
        c.access_id(0, LineId(0), true);
        assert!(c.probe_id(0, LineId(0)));
        assert!(c.clean_line_id(0, LineId(0)));
        assert_eq!(c.invalidate_id(0, LineId(0)), Some(false));
        assert_eq!(c.invalidate_id(0, LineId(0)), None);
        // Fill every slot: the run ends with the cache full, not flushed.
        for i in 0..8u32 {
            c.access_id(u64::from(i) * 64, LineId(i), i % 2 == 0);
        }
        assert_eq!(c.resident(), 8);
        let mut ix = c.take_id_index().expect("an index was installed above");
        // Recycle it into an empty cache for a "new trace" in which the
        // same ids name other lines (id i is now line 4096 + 64 * i): no
        // probe may hit until the line has really been filled.
        let mut fresh = Cache::new(cfg, 1);
        ix.reset(8);
        fresh.install_id_index(ix);
        let line = |i: u32| 4096 + u64::from(i) * 64;
        for i in 0..8u32 {
            assert!(!fresh.probe_id(line(i), LineId(i)), "stale mapping for id {i}");
            assert!(!fresh.hit_read(line(i), LineId(i)), "stale hit for id {i}");
        }
        for i in 0..8u32 {
            assert!(!fresh.access_id(line(i), LineId(i), false).hit, "cold fill of id {i}");
            assert!(fresh.probe_id(line(i), LineId(i)));
        }
        assert_eq!(fresh.stats().hits, 0);
        assert_eq!(fresh.stats().misses, 8);
    }

    #[test]
    fn all_policies_work_in_cache() {
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::TreePlru,
            ReplacementKind::Fifo,
            ReplacementKind::Random,
            ReplacementKind::NruRandom,
        ] {
            let mut c = Cache::new(CacheConfig::from_capacity(4096, 4, 64, kind), 3);
            let mut writebacks = 0;
            for i in 0..512u64 {
                if let Some(v) = c.access(i * 64, true).victim {
                    if v.dirty {
                        writebacks += 1;
                    }
                }
            }
            // Every line is written once and the cache holds 64 lines:
            // at least 512-64 dirty evictions must have happened.
            assert_eq!(writebacks, 512 - 64, "{kind:?}");
        }
    }
}
