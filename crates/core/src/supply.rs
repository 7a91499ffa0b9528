//! Sliding-window estimation of eligible device supply.
//!
//! IRS needs, for every job group `G_j`, the size of its eligible resource
//! pool `|S_j|` — and for every *atomic region* of the eligibility Venn
//! diagram, how much supply falls in it. The paper (§4.4, "dynamic resource
//! supply") records device check-ins in a time-series store and averages
//! eligibility over a 24-hour window so the diurnal pattern does not whipsaw
//! the scheduler.
//!
//! [`SupplyEstimator`] implements that store as a fixed grid over the
//! normalized (cpu, mem) capacity square plus an expiry queue: check-ins are
//! O(1), spec-rate queries are O(grid), and region queries are
//! O(grid × groups).
//!
//! The expiry queue is lossless but delta-coded: every in-window check-in
//! is its grid cell plus the gap in ms since the previous check-in, packed
//! into one `u16` word while the gap stays below 15 ms (at fleet scale
//! check-ins arrive every few ms, so ~2 bytes per check-in instead of the
//! 8 a `time << 16 | cell` word would take). Larger gaps escape into
//! 15-bit continuation words; at the paper's 5k-device scale most gaps
//! do, so a check-in there takes two words — still half the packed size.
//! Check-in times must arrive non-decreasing — the simulator feeds them
//! in `(time, seq)` order.

use crate::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::{Capacity, ResourceSpec, SimTime, DAY_MS};

/// Number of grid cells per axis. 64×64 keeps quantization error below the
/// noise floor of the traces while making queries effectively free.
const GRID: usize = 64;

/// Supply observed in one atomic region of the eligibility diagram.
///
/// The region is identified by its eligibility mask: bit `j` is set iff
/// devices in this region satisfy group `j`'s spec. Regions with equal
/// masks are interchangeable to the scheduler and therefore merged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSupply {
    /// Eligibility bitmask over the queried group specs.
    pub mask: u128,
    /// Estimated check-in rate in devices per millisecond.
    pub rate: f64,
}

/// Sliding-window device check-in recorder over the capacity grid.
///
/// Beyond the on-demand queries ([`rate`](Self::rate) /
/// [`region_supplies`](Self::region_supplies), which walk the grid), the
/// estimator keeps a *mask index* over specs registered with
/// [`register_spec`](Self::register_spec): every grid cell is mapped to a
/// slot for its eligibility mask, and per-slot live counts are maintained
/// incrementally on [`record`](Self::record)/expiry. Registered queries
/// ([`registered_rates`](Self::registered_rates) /
/// [`registered_regions`](Self::registered_regions)) then cost
/// O(regions) instead of O(grid × specs) — the delta API the incremental
/// Venn scheduler rebuilds its allocation plan from. Both paths count the
/// same integer cells, so their rates are bit-identical.
///
/// # Examples
///
/// ```
/// use venn_core::{Capacity, ResourceSpec, SupplyEstimator};
///
/// let mut s = SupplyEstimator::new(1_000); // 1-second window
/// s.record(0, &Capacity::new(0.8, 0.8));
/// s.record(0, &Capacity::new(0.2, 0.2));
/// assert_eq!(s.window_count(0), 2);
/// let high = ResourceSpec::new(0.5, 0.5);
/// assert!(s.rate(0, &high) > 0.0);
/// assert!(s.rate(0, &high) < s.rate(0, &ResourceSpec::any()));
///
/// // The incremental mask index returns the exact same rates.
/// let g = s.register_spec(high);
/// let mut rates = Vec::new();
/// s.registered_rates(0, &mut rates);
/// assert_eq!(rates[g], s.rate(0, &high));
/// ```
#[derive(Debug, Clone)]
pub struct SupplyEstimator {
    window_ms: SimTime,
    /// Per-cell in-window counts, maintained *lazily*: the check-in hot
    /// path only touches the queue and the slot counts; the grid queries
    /// that need per-cell resolution ([`rate`](Self::rate),
    /// [`region_supplies`](Self::region_supplies),
    /// [`register_spec`](Self::register_spec)) rebuild this table from the
    /// queue when stale.
    counts: Vec<u32>,
    /// Whether `counts` reflects the current queue contents.
    counts_fresh: bool,
    /// In-window check-ins, oldest first, delta-coded: each entry is a
    /// head word `gap << CELL_BITS | cell` whose 4-bit gap (0–14 ms since
    /// the previous entry) covers almost every check-in at fleet scale, so
    /// an entry is ~2 bytes — a quarter of a packed `time << 16 | cell`
    /// `u64`. A gap of 15 ms or more sets the gap field to [`ESCAPE`] and
    /// follows the head with the gap in little-endian 15-bit continuation
    /// words (top bit: another word follows). At 24-hour windows this ring
    /// holds millions of entries and `record` runs once per check-in.
    ///
    /// The live words are `words[first..]`: expiry only advances `first`,
    /// and the dead prefix is dropped in one move once it reaches a
    /// quarter of the buffer. A flat `Vec` rather than a `VecDeque` lets
    /// [`record`](Self::record) append a fixed pair of words and cut back
    /// to the one or two that count, so the choice costs no branch —
    /// which matters at paper scale, where gaps straddle the escape
    /// unpredictably.
    words: Vec<u16>,
    /// Index of the oldest live word in `words`.
    first: usize,
    /// Number of live entries (not words).
    len: usize,
    /// Time of the last entry popped off the front — the base the front
    /// entry's gap is decoded against (0 before the first pop).
    front_time: SimTime,
    /// Time of the last entry pushed (equal to `front_time` while the
    /// ring is empty) — the base the next pushed gap is measured from.
    back_time: SimTime,
    /// Specs registered for the incremental mask index; bit `j` of every
    /// mask refers to `specs[j]`.
    specs: Vec<ResourceSpec>,
    /// Slot of each grid cell's eligibility mask (index into the two
    /// parallel slot vectors below).
    cell_slot: Vec<u32>,
    /// Distinct cell masks, ascending — so region output needs no sort.
    slot_masks: Vec<u128>,
    /// Live in-window check-in count per slot.
    slot_counts: Vec<u64>,
}

/// Bits of a ring head word holding the grid cell.
const CELL_BITS: u32 = 12;
const _: () = assert!(
    GRID * GRID == 1 << CELL_BITS,
    "grid cells must fill CELL_BITS"
);
/// Cell field of a head word.
const CELL_MASK: u16 = (1 << CELL_BITS) - 1;
/// Gap field value of a head word whose gap follows in continuation words.
const ESCAPE: u16 = 15;
/// Payload bits per continuation word.
const CONT_BITS: u32 = 15;
/// Continuation-word flag: another continuation word follows.
const CONT_MORE: u16 = 1 << CONT_BITS;
/// Payload field of a continuation word.
const CONT_PAYLOAD: u16 = CONT_MORE - 1;
/// Longest continuation: five 15-bit groups cover a 64-bit gap.
const MAX_CONT_WORDS: u32 = 5;

/// One ring entry as decoded by [`decode_entry`].
struct Entry {
    gap: SimTime,
    cell: u16,
    /// Words the entry occupies (head plus continuation).
    words: usize,
}

/// Decodes the entry at the front of `words`, or `None` if it is empty.
///
/// Validates the escape encoding as it goes — a truncated escape, more
/// continuation words than a 64-bit gap needs, and a non-minimal
/// encoding are all errors — so the snapshot decoder can run untrusted
/// bytes through the same code the estimator prunes with.
fn decode_entry(mut words: impl Iterator<Item = u16>) -> Option<Result<Entry, &'static str>> {
    let head = words.next()?;
    let cell = head & CELL_MASK;
    if head >> CELL_BITS != ESCAPE {
        let gap = (head >> CELL_BITS) as SimTime;
        return Some(Ok(Entry {
            gap,
            cell,
            words: 1,
        }));
    }
    let Some(word) = words.next() else {
        return Some(Err("truncated gap escape"));
    };
    let mut gap = (word & CONT_PAYLOAD) as SimTime;
    if word & CONT_MORE == 0 {
        // The common escape: one continuation word, a gap below 2^15 ms.
        if gap < ESCAPE as SimTime {
            return Some(Err("non-minimal gap escape"));
        }
        return Some(Ok(Entry {
            gap,
            cell,
            words: 2,
        }));
    }
    for k in 1..MAX_CONT_WORDS {
        let Some(word) = words.next() else {
            return Some(Err("truncated gap escape"));
        };
        let payload = (word & CONT_PAYLOAD) as SimTime;
        if k == MAX_CONT_WORDS - 1 && payload >> (64 - CONT_BITS * k) != 0 {
            return Some(Err("gap escape overflows 64 bits"));
        }
        gap |= payload << (CONT_BITS * k);
        if word & CONT_MORE == 0 {
            if payload == 0 {
                return Some(Err("non-minimal gap escape"));
            }
            let words = 2 + k as usize;
            return Some(Ok(Entry { gap, cell, words }));
        }
    }
    Some(Err("over-long gap escape"))
}

impl SupplyEstimator {
    /// Creates an estimator with the given sliding window length.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window_ms: SimTime) -> Self {
        assert!(window_ms > 0, "supply window must be positive");
        SupplyEstimator {
            window_ms,
            counts: vec![0; GRID * GRID],
            counts_fresh: true,
            words: Vec::new(),
            first: 0,
            len: 0,
            front_time: 0,
            back_time: 0,
            specs: Vec::new(),
            cell_slot: vec![0; GRID * GRID],
            slot_masks: vec![0],
            slot_counts: vec![0],
        }
    }

    /// Creates an estimator with the paper's default 24-hour window.
    pub fn with_default_window() -> Self {
        SupplyEstimator::new(DAY_MS)
    }

    /// Window length in milliseconds.
    pub fn window_ms(&self) -> SimTime {
        self.window_ms
    }

    fn cell_of(capacity: &Capacity) -> u16 {
        let clamp = |v: f64| (v * GRID as f64).min((GRID - 1) as f64).max(0.0) as usize;
        (clamp(capacity.cpu()) * GRID + clamp(capacity.mem())) as u16
    }

    fn prune(&mut self, now: SimTime) {
        let cutoff = now.saturating_sub(self.window_ms);
        if cutoff == 0 {
            return;
        }
        // Decode expired entries off the front; their words are dropped
        // by advancing `first`. The loop works on locals rather than
        // `self` fields so the slot-count stores cannot force reloads of
        // them (measured: about half the per-entry cost).
        let mut live = self.words[self.first..].iter().copied();
        let slot_counts = &mut self.slot_counts;
        let cell_slot = &self.cell_slot;
        let mut front_time = self.front_time;
        let (mut expired, mut at) = (0, 0);
        while let Some(entry) = decode_entry(&mut live) {
            let Entry { gap, cell, words } =
                entry.expect("ring holds only validated encoder output");
            let time = front_time + gap;
            if time >= cutoff {
                break;
            }
            front_time = time;
            slot_counts[cell_slot[cell as usize] as usize] -= 1;
            expired += 1;
            at += words;
        }
        self.front_time = front_time;
        if expired > 0 {
            self.first += at;
            self.len -= expired;
            self.counts_fresh = false;
            if self.first >= self.words.len() / 4 {
                self.words.drain(..self.first);
                self.first = 0;
            }
        }
    }

    /// Records one device check-in.
    ///
    /// Times must be non-decreasing across calls: the ring stores each
    /// check-in as the gap since the previous one (debug builds assert
    /// this; release builds file an out-of-order check-in at the latest
    /// recorded time instead of underflowing).
    ///
    /// The hot path does no expiry: pushes keep the queue time-ordered
    /// regardless, the slot counts are only *read* through the query
    /// methods, and every query prunes first — so expiry batches up there
    /// (same total work, amortized off the per-check-in path) and a
    /// record is three array touches plus a ring push.
    pub fn record(&mut self, now: SimTime, capacity: &Capacity) {
        debug_assert!(
            now >= self.back_time,
            "check-in at {now} ms after one at {} ms: times must be non-decreasing",
            self.back_time
        );
        let cell = Self::cell_of(capacity);
        self.slot_counts[self.cell_slot[cell as usize] as usize] += 1;
        let gap = now.saturating_sub(self.back_time);
        if gap <= CONT_PAYLOAD as SimTime {
            // A head word, plus the gap as one continuation word when it
            // escapes: both are written and the buffer is cut back to the
            // words that count (`truncate` never grows, so it does not
            // branch on `escaped`).
            let escaped = gap >= ESCAPE as SimTime;
            let field = if escaped { ESCAPE } else { gap as u16 };
            let end = self.words.len() + 1 + escaped as usize;
            self.words
                .extend_from_slice(&[field << CELL_BITS | cell, gap as u16]);
            self.words.truncate(end);
        } else {
            self.words.push(ESCAPE << CELL_BITS | cell);
            let mut rest = gap;
            while rest > CONT_PAYLOAD as SimTime {
                self.words.push(rest as u16 & CONT_PAYLOAD | CONT_MORE);
                rest >>= CONT_BITS;
            }
            self.words.push(rest as u16);
        }
        self.back_time += gap;
        self.len += 1;
        self.counts_fresh = false;
    }

    /// Rebuilds the per-cell count table from the queue — the cold-path
    /// complement of the hot path's slot-count-only maintenance.
    fn refresh_counts(&mut self) {
        if self.counts_fresh {
            return;
        }
        self.counts.iter_mut().for_each(|c| *c = 0);
        let mut words = self.words[self.first..].iter().copied();
        while let Some(entry) = decode_entry(&mut words) {
            let cell = entry
                .expect("ring holds only validated encoder output")
                .cell;
            self.counts[cell as usize] += 1;
        }
        self.counts_fresh = true;
    }

    /// Registers a spec with the incremental mask index and returns its bit
    /// position.
    ///
    /// The slot table is maintained *incrementally*: the new spec's bit is
    /// the most significant bit used so far, so each existing slot at most
    /// splits in two — the cells eligible for the new spec (mask `m | bit`,
    /// which sorts after every old mask) and the rest (mask `m`, unchanged).
    /// Splitting therefore preserves the ascending mask order with no mask
    /// array, no sort, and no per-cell `u128` buffer — two grid walks and a
    /// handful of per-slot scratch rows, instead of the old
    /// collect-clone-sort-dedup rebuild.
    ///
    /// # Panics
    ///
    /// Panics past 128 registered specs (mask width).
    pub fn register_spec(&mut self, spec: ResourceSpec) -> usize {
        let j = self.specs.len();
        assert!(j < 128, "at most 128 registered specs (mask width)");
        self.refresh_counts();
        self.specs.push(spec);
        let bit = 1u128 << j;
        // Threshold specs are separable over the grid: eligibility of cell
        // (cpu, mem) is row-eligible AND column-eligible.
        let mut cpu_ok = [false; GRID];
        let mut mem_ok = [false; GRID];
        for i in 0..GRID {
            cpu_ok[i] = cell_low(i) >= spec.min_cpu();
            mem_ok[i] = cell_low(i) >= spec.min_mem();
        }
        // First walk: which old slots split, and how much in-window supply
        // moves to each slot's eligible half.
        let old_slots = self.slot_masks.len();
        let mut with_cells = vec![false; old_slots];
        let mut without_cells = vec![false; old_slots];
        let mut with_counts = vec![0u64; old_slots];
        for (cpu_cell, &cok) in cpu_ok.iter().enumerate() {
            for (mem_cell, &mok) in mem_ok.iter().enumerate() {
                let cell = cpu_cell * GRID + mem_cell;
                let s = self.cell_slot[cell] as usize;
                if cok && mok {
                    with_cells[s] = true;
                    with_counts[s] += self.counts[cell] as u64;
                } else {
                    without_cells[s] = true;
                }
            }
        }
        // New table: surviving old masks first (ascending), then the split
        // halves `m | bit` (ascending, and all greater than any old mask).
        let mut map_without = vec![u32::MAX; old_slots];
        let mut map_with = vec![u32::MAX; old_slots];
        let mut new_masks = Vec::with_capacity(2 * old_slots);
        let mut new_counts = Vec::with_capacity(2 * old_slots);
        for (s, &mask) in self.slot_masks.iter().enumerate() {
            if without_cells[s] {
                map_without[s] = new_masks.len() as u32;
                new_masks.push(mask);
                new_counts.push(self.slot_counts[s] - with_counts[s]);
            }
        }
        for (s, &mask) in self.slot_masks.iter().enumerate() {
            if with_cells[s] {
                map_with[s] = new_masks.len() as u32;
                new_masks.push(mask | bit);
                new_counts.push(with_counts[s]);
            }
        }
        // Second walk: retarget every cell at its half of the split.
        for (cpu_cell, &cok) in cpu_ok.iter().enumerate() {
            for (mem_cell, &mok) in mem_ok.iter().enumerate() {
                let cell = cpu_cell * GRID + mem_cell;
                let s = self.cell_slot[cell] as usize;
                self.cell_slot[cell] = if cok && mok {
                    map_with[s]
                } else {
                    map_without[s]
                };
            }
        }
        self.slot_masks = new_masks;
        self.slot_counts = new_counts;
        j
    }

    /// The specs registered so far, in bit order.
    pub fn registered_specs(&self) -> &[ResourceSpec] {
        &self.specs
    }

    /// Check-in rate of devices satisfying registered spec `j` — the same
    /// number [`rate`](Self::rate) returns for that spec, read from the
    /// mask index in O(regions).
    ///
    /// # Panics
    ///
    /// Panics if `j` was never registered.
    pub fn registered_rate(&mut self, now: SimTime, j: usize) -> f64 {
        assert!(j < self.specs.len(), "spec {j} not registered");
        self.prune(now);
        let bit = 1u128 << j;
        let count: u64 = self
            .slot_masks
            .iter()
            .zip(&self.slot_counts)
            .filter(|(&mask, _)| mask & bit != 0)
            .map(|(_, &c)| c)
            .sum();
        count as f64 / self.span_ms(now)
    }

    /// Rates of all registered specs at once, written into `out` (reused
    /// buffer, no allocation). Entry `j` equals `rate(now, &specs[j])` bit
    /// for bit: both sum the same integer cell counts before one division
    /// (the in-window count is far below 2^53, so the f64 partial sums
    /// stay exact integers).
    pub fn registered_rates(&mut self, now: SimTime, out: &mut Vec<f64>) {
        self.prune(now);
        let span = self.span_ms(now);
        out.clear();
        out.resize(self.specs.len(), 0.0);
        for (&mask, &count) in self.slot_masks.iter().zip(&self.slot_counts) {
            if count == 0 {
                continue;
            }
            // Iterate only the set bits (ascending, like a spec loop would):
            // popcount(mask) additions per slot, the promised O(regions).
            let mut m = mask;
            while m != 0 {
                let j = m.trailing_zeros() as usize;
                debug_assert!(j < out.len(), "mask bit without a registered spec");
                out[j] += count as f64;
                m &= m - 1;
            }
        }
        for a in out.iter_mut() {
            *a /= span;
        }
    }

    /// Atomic-region supplies over the registered specs, written into
    /// `out` (reused buffer). Identical content and order to
    /// [`region_supplies`](Self::region_supplies) called with the
    /// registered spec slice, at O(regions) instead of O(grid × specs).
    pub fn registered_regions(&mut self, now: SimTime, out: &mut Vec<RegionSupply>) {
        self.prune(now);
        let span = self.span_ms(now);
        out.clear();
        for (&mask, &count) in self.slot_masks.iter().zip(&self.slot_counts) {
            if mask != 0 && count > 0 {
                out.push(RegionSupply {
                    mask,
                    rate: count as f64 / span,
                });
            }
        }
    }

    /// Number of check-ins currently inside the window.
    pub fn window_count(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.len
    }

    /// Effective averaging span: the full window once enough history has
    /// accumulated, otherwise the elapsed time (so early-run rates are not
    /// underestimated).
    fn span_ms(&self, now: SimTime) -> f64 {
        self.window_ms.min(now.max(1)) as f64
    }

    /// Estimated check-in rate (devices/ms) of devices satisfying `spec`.
    pub fn rate(&mut self, now: SimTime, spec: &ResourceSpec) -> f64 {
        self.prune(now);
        self.refresh_counts();
        let span = self.span_ms(now);
        let mut count = 0u64;
        for cpu_cell in 0..GRID {
            let cpu = cell_low(cpu_cell);
            if cell_upper(cpu_cell) <= spec.min_cpu() && spec.min_cpu() > 0.0 {
                continue;
            }
            for mem_cell in 0..GRID {
                let cap = Capacity::new(cpu, cell_low(mem_cell));
                if spec.is_eligible(&cap) {
                    count += self.counts[cpu_cell * GRID + mem_cell] as u64;
                }
            }
        }
        count as f64 / span
    }

    /// Supply rates of the atomic regions induced by `specs`.
    ///
    /// Bit `j` of a region's mask is set iff `specs[j]` is satisfied by
    /// devices in that region. Cells whose mask is zero (eligible for no
    /// group) are omitted.
    ///
    /// # Panics
    ///
    /// Panics if more than 128 specs are given (mask width).
    pub fn region_supplies(&mut self, now: SimTime, specs: &[ResourceSpec]) -> Vec<RegionSupply> {
        assert!(specs.len() <= 128, "at most 128 concurrent job groups");
        self.prune(now);
        self.refresh_counts();
        let span = self.span_ms(now);
        // Occupied cells' (mask, count) pairs, merged by sorting — regions
        // number at most a few dozen, so a sort of the occupied cells beats
        // a hash map and the output needs no second sort.
        let mut pairs: Vec<(u128, u64)> = Vec::new();
        for cpu_cell in 0..GRID {
            for mem_cell in 0..GRID {
                let count = self.counts[cpu_cell * GRID + mem_cell];
                if count == 0 {
                    continue;
                }
                let cap = Capacity::new(cell_low(cpu_cell), cell_low(mem_cell));
                let mut mask = 0u128;
                for (j, spec) in specs.iter().enumerate() {
                    if spec.is_eligible(&cap) {
                        mask |= 1 << j;
                    }
                }
                if mask != 0 {
                    pairs.push((mask, count as u64));
                }
            }
        }
        pairs.sort_unstable_by_key(|&(mask, _)| mask);
        let mut out: Vec<RegionSupply> = Vec::new();
        for (mask, count) in pairs {
            match out.last_mut() {
                Some(last) if last.mask == mask => last.rate += count as f64,
                _ => out.push(RegionSupply {
                    mask,
                    rate: count as f64,
                }),
            }
        }
        for r in &mut out {
            r.rate /= span;
        }
        out
    }

    /// The eligibility mask of a single device against `specs` (same bit
    /// layout as [`region_supplies`](Self::region_supplies)).
    pub fn mask_of(capacity: &Capacity, specs: &[ResourceSpec]) -> u128 {
        assert!(specs.len() <= 128, "at most 128 concurrent job groups");
        let mut mask = 0u128;
        for (j, spec) in specs.iter().enumerate() {
            if spec.is_eligible(capacity) {
                mask |= 1 << j;
            }
        }
        mask
    }
}

/// The snapshot dumps every field verbatim — including the lazily
/// maintained count table and its freshness flag — so a restored
/// estimator continues pruning, refreshing, and splitting regions on
/// exactly the schedule the snapshotted one would have. The ring goes
/// out as its entry count, decode bases, and one bulk block of words.
impl Snapshot for SupplyEstimator {
    fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.window_ms);
        w.seq(&self.counts, |w, &c| w.u32(c));
        w.bool(self.counts_fresh);
        w.usize(self.len);
        w.u64(self.front_time);
        w.u64(self.back_time);
        w.u16_block(&self.words[self.first..]);
        w.seq(&self.specs, |w, s| s.encode(w));
        w.seq(&self.cell_slot, |w, &s| w.u32(s));
        w.seq(&self.slot_masks, |w, &m| w.u128(m));
        w.seq(&self.slot_counts, |w, &c| w.u64(c));
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let window_ms = r.u64()?;
        if window_ms == 0 {
            return Err(SnapError::Corrupt("zero supply window".into()));
        }
        let counts = r.seq(|r| r.u32())?;
        let counts_fresh = r.bool()?;
        let len = r.usize()?;
        let front_time = r.u64()?;
        let back_time = r.u64()?;
        let words = r.u16_block()?;
        validate_ring(&words, len, front_time, back_time)
            .map_err(|what| SnapError::Corrupt(format!("supply ring: {what}")))?;
        let specs = r.seq(ResourceSpec::decode)?;
        let cell_slot = r.seq(|r| r.u32())?;
        let slot_masks = r.seq(|r| r.u128())?;
        let slot_counts = r.seq(|r| r.u64())?;
        if counts.len() != GRID * GRID || cell_slot.len() != GRID * GRID {
            return Err(SnapError::Corrupt("supply grid size mismatch".into()));
        }
        if slot_masks.len() != slot_counts.len() {
            return Err(SnapError::Corrupt("supply slot table mismatch".into()));
        }
        if cell_slot.iter().any(|&s| s as usize >= slot_masks.len()) {
            return Err(SnapError::Corrupt("supply cell slot out of range".into()));
        }
        let slot_total = slot_counts.iter().try_fold(0u64, |a, &c| a.checked_add(c));
        if slot_total != Some(len as u64) {
            return Err(SnapError::Corrupt(
                "supply slot counts disagree with the ring".into(),
            ));
        }
        Ok(SupplyEstimator {
            window_ms,
            counts,
            counts_fresh,
            words,
            first: 0,
            len,
            front_time,
            back_time,
            specs,
            cell_slot,
            slot_masks,
            slot_counts,
        })
    }
}

/// Checks, in one pass, that `words` is a well-formed ring of exactly
/// `len` entries whose gaps lead from `front_time` to `back_time` without
/// overflowing — everything [`SupplyEstimator::prune`] relies on.
fn validate_ring(
    words: &[u16],
    len: usize,
    front_time: SimTime,
    back_time: SimTime,
) -> Result<(), &'static str> {
    let mut rest = words;
    let mut entries = 0usize;
    let mut time = front_time;
    while let Some(entry) = decode_entry(rest.iter().copied()) {
        let entry = entry?;
        rest = &rest[entry.words..];
        entries += 1;
        time = time
            .checked_add(entry.gap)
            .ok_or("check-in time overflows")?;
    }
    if entries != len {
        return Err("entry count disagrees with the words");
    }
    if time != back_time {
        return Err("last check-in time disagrees with the gaps");
    }
    Ok(())
}

/// Low edge of grid cell `i` — the value devices in the cell are *at least*.
fn cell_low(i: usize) -> f64 {
    i as f64 / GRID as f64
}

/// High edge of grid cell `i`.
fn cell_upper(i: usize) -> f64 {
    (i + 1) as f64 / GRID as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_scale_with_counts() {
        let mut s = SupplyEstimator::new(1_000);
        for _ in 0..10 {
            s.record(500, &Capacity::new(0.9, 0.9));
        }
        for _ in 0..30 {
            s.record(500, &Capacity::new(0.1, 0.1));
        }
        let any = s.rate(500, &ResourceSpec::any());
        let high = s.rate(500, &ResourceSpec::new(0.5, 0.5));
        assert!((any / high - 4.0).abs() < 1e-9, "any={any} high={high}");
    }

    #[test]
    fn old_events_expire() {
        let mut s = SupplyEstimator::new(1_000);
        s.record(0, &Capacity::new(0.5, 0.5));
        assert_eq!(s.window_count(500), 1);
        assert_eq!(s.window_count(2_000), 0);
        assert_eq!(s.rate(2_000, &ResourceSpec::any()), 0.0);
    }

    #[test]
    fn early_run_rates_use_elapsed_time() {
        let mut s = SupplyEstimator::new(DAY_MS);
        s.record(1_000, &Capacity::new(0.5, 0.5));
        // One event in 1 second of elapsed time, not in 24 h.
        let r = s.rate(1_000, &ResourceSpec::any());
        assert!((r - 1.0 / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn region_masks_partition_supply() {
        let mut s = SupplyEstimator::new(10_000);
        // One device in each of the four canonical regions.
        s.record(0, &Capacity::new(0.1, 0.1)); // general only
        s.record(0, &Capacity::new(0.9, 0.1)); // compute
        s.record(0, &Capacity::new(0.1, 0.9)); // memory
        s.record(0, &Capacity::new(0.9, 0.9)); // high-perf
        let specs = [
            ResourceSpec::any(),         // bit 0
            ResourceSpec::new(0.5, 0.0), // bit 1
            ResourceSpec::new(0.0, 0.5), // bit 2
            ResourceSpec::new(0.5, 0.5), // bit 3
        ];
        let regions = s.region_supplies(100, &specs);
        let masks: Vec<u128> = regions.iter().map(|r| r.mask).collect();
        assert_eq!(masks, vec![0b0001, 0b0011, 0b0101, 0b1111]);
        // Supply is conserved across regions.
        let total: f64 = regions.iter().map(|r| r.rate).sum();
        assert!((total - s.rate(100, &ResourceSpec::any())).abs() < 1e-12);
    }

    #[test]
    fn mask_of_matches_eligibility() {
        let specs = [ResourceSpec::any(), ResourceSpec::new(0.5, 0.5)];
        let m = SupplyEstimator::mask_of(&Capacity::new(0.6, 0.6), &specs);
        assert_eq!(m, 0b11);
        let m = SupplyEstimator::mask_of(&Capacity::new(0.6, 0.4), &specs);
        assert_eq!(m, 0b01);
    }

    #[test]
    fn grid_threshold_alignment_is_conservative() {
        // A device exactly at a non-grid-aligned threshold is still counted
        // consistently between `rate` and `mask_of`.
        let spec = ResourceSpec::new(0.505, 0.0);
        let mut s = SupplyEstimator::new(1_000);
        s.record(0, &Capacity::new(0.51, 0.5));
        let r = s.rate(100, &spec);
        // Cell low edge 0.5 < 0.505 so grid may or may not count it; we only
        // require non-negative and bounded by the total rate.
        assert!(r >= 0.0);
        assert!(r <= s.rate(100, &ResourceSpec::any()) + 1e-12);
    }

    #[test]
    fn cell_edges_cover_unit_square() {
        assert_eq!(cell_low(0), 0.0);
        assert!((cell_upper(GRID - 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        SupplyEstimator::new(0);
    }

    // --- incremental mask index -------------------------------------------

    fn four_region_specs() -> [ResourceSpec; 4] {
        [
            ResourceSpec::any(),
            ResourceSpec::new(0.5, 0.0),
            ResourceSpec::new(0.0, 0.5),
            ResourceSpec::new(0.5, 0.5),
        ]
    }

    #[test]
    fn registered_rates_match_grid_rates_bit_for_bit() {
        let mut s = SupplyEstimator::new(10_000);
        let specs = four_region_specs();
        for (j, spec) in specs.iter().enumerate() {
            assert_eq!(s.register_spec(*spec), j);
        }
        for i in 0..200u64 {
            let v = (i % 17) as f64 / 17.0;
            let w = (i % 11) as f64 / 11.0;
            s.record(i * 7, &Capacity::new(v, w));
        }
        let mut rates = Vec::new();
        s.registered_rates(1_500, &mut rates);
        for (j, spec) in specs.iter().enumerate() {
            assert_eq!(rates[j], s.rate(1_500, spec), "spec {j}");
            assert_eq!(s.registered_rate(1_500, j), rates[j], "spec {j}");
        }
    }

    #[test]
    fn registered_regions_match_grid_regions() {
        let mut s = SupplyEstimator::new(10_000);
        let specs = four_region_specs();
        for spec in &specs {
            s.register_spec(*spec);
        }
        s.record(0, &Capacity::new(0.1, 0.1));
        s.record(0, &Capacity::new(0.9, 0.1));
        s.record(0, &Capacity::new(0.1, 0.9));
        s.record(0, &Capacity::new(0.9, 0.9));
        let mut fast = Vec::new();
        s.registered_regions(100, &mut fast);
        let slow = s.region_supplies(100, &specs);
        assert_eq!(fast, slow);
    }

    #[test]
    fn registration_after_records_rebuilds_counts() {
        let mut s = SupplyEstimator::new(10_000);
        // Check-ins land before any spec exists...
        s.record(0, &Capacity::new(0.9, 0.9));
        s.record(0, &Capacity::new(0.2, 0.2));
        // ...and are still counted once the index is built.
        let g = s.register_spec(ResourceSpec::new(0.5, 0.5));
        assert_eq!(
            s.registered_rate(100, g),
            s.rate(100, &ResourceSpec::new(0.5, 0.5))
        );
        // Late registration of a second spec keeps both consistent.
        let any = s.register_spec(ResourceSpec::any());
        assert_eq!(
            s.registered_rate(100, any),
            s.rate(100, &ResourceSpec::any())
        );
    }

    #[test]
    fn registered_index_expires_old_events() {
        let mut s = SupplyEstimator::new(1_000);
        let g = s.register_spec(ResourceSpec::any());
        s.record(0, &Capacity::new(0.5, 0.5));
        assert!(s.registered_rate(500, g) > 0.0);
        assert_eq!(s.registered_rate(2_000, g), 0.0);
        let mut regions = Vec::new();
        s.registered_regions(2_000, &mut regions);
        assert!(regions.is_empty());
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_rate_panics() {
        let mut s = SupplyEstimator::new(1_000);
        s.registered_rate(0, 0);
    }

    // --- delta-coded ring snapshots ---------------------------------------

    /// An estimator encoding that is well formed apart from the ring
    /// fields given (no specs, one slot holding all `len` entries).
    fn encoding(len: usize, front_time: SimTime, back_time: SimTime, words: &[u16]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(1_000);
        w.seq(&[0u32; GRID * GRID], |w, &c| w.u32(c));
        w.bool(false);
        w.usize(len);
        w.u64(front_time);
        w.u64(back_time);
        w.u16_block(words);
        w.len_prefix(0);
        w.seq(&[0u32; GRID * GRID], |w, &s| w.u32(s));
        w.seq(&[0u128], |w, &m| w.u128(m));
        w.seq(&[len as u64], |w, &c| w.u64(c));
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<SupplyEstimator, SnapError> {
        let mut r = SnapReader::new(bytes);
        let s = SupplyEstimator::decode(&mut r)?;
        r.finish()?;
        Ok(s)
    }

    const E: u16 = ESCAPE << CELL_BITS;

    #[test]
    fn record_writes_one_word_below_the_escape() {
        let mut s = SupplyEstimator::new(DAY_MS);
        for (t, words) in [(0, 1), (14, 2), (29, 4), (29 + (1 << 15), 7)] {
            s.record(t, &Capacity::new(0.0, 0.0));
            assert_eq!(s.words.len(), words, "after a check-in at {t}");
        }
        assert_eq!(s.words, [0, 14 << CELL_BITS, E, 15, E, CONT_MORE, 1]);
    }

    #[test]
    fn hand_built_ring_decodes() {
        // Cell 5 at 10 + 2^15, then cell 7 three ms later.
        let words = [E | 5, CONT_MORE, 1, 3 << CELL_BITS | 7];
        let back = 10 + (1 << 15) + 3;
        let mut s = decode(&encoding(2, 10, back, &words)).unwrap();
        assert_eq!(s.window_count(back), 2);
        assert_eq!(s.window_count(back + 998), 1);
    }

    #[test]
    fn malformed_rings_decode_to_corrupt() {
        let cases: [(&str, usize, SimTime, SimTime, &[u16]); 10] = [
            ("escape without continuation", 1, 0, 0, &[E]),
            (
                "escape cut mid-continuation",
                1,
                0,
                1 << 15,
                &[E, CONT_MORE],
            ),
            (
                "six continuation words",
                1,
                0,
                1,
                &[E, 0x8001, 0x8000, 0x8000, 0x8000, 0x8000, 0],
            ),
            ("trailing zero group", 1, 0, 16, &[E, CONT_MORE | 16, 0]),
            ("escaped gap below 15", 1, 0, 3, &[E, 3]),
            ("entry count too high", 2, 0, 1, &[1 << CELL_BITS]),
            ("entry count too low", 0, 0, 1, &[1 << CELL_BITS]),
            ("last time past the gaps", 1, 0, 2, &[1 << CELL_BITS]),
            ("time overflows", 1, u64::MAX - 5, 4, &[10 << CELL_BITS]),
            (
                "gap past 64 bits",
                1,
                0,
                0,
                &[E, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0x0010],
            ),
        ];
        for (what, len, front, back, words) in cases {
            let got = decode(&encoding(len, front, back, words));
            assert!(matches!(got, Err(SnapError::Corrupt(_))), "{what}: {got:?}");
        }
    }

    #[test]
    fn slot_counts_must_match_the_ring() {
        let mut bytes = encoding(1, 0, 1, &[1 << CELL_BITS]);
        // The last u64 is the only slot count.
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&2u64.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(SnapError::Corrupt(_))));
    }
}
