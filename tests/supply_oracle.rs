//! `SupplyEstimator`'s delta-coded check-in ring against the store it
//! replaced: one packed `time << 16 | cell` `u64` per in-window check-in.
//!
//! The packed ring lives on here, and only here, as the oracle. Every
//! answer the estimator gives — window counts, registered rates and
//! regions, grid rates and region supplies — is recomputed by brute
//! force from the oracle's ring and must match bit for bit, over random
//! non-decreasing check-in streams whose gaps straddle every edge of the
//! delta coding (one-word gaps, the escape, one and two continuation
//! words, gaps far past 32 bits), with specs registered mid-stream and a
//! snapshot encode → decode taken partway through.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use venn::core::snapshot::{SnapReader, SnapWriter, Snapshot};
use venn::core::supply::RegionSupply;
use venn::core::{Capacity, ResourceSpec, SimTime, SupplyEstimator};

/// Grid cells per axis, as in the estimator.
const GRID: usize = 64;
/// Bits of a packed word holding the grid cell.
const CELL_BITS: u32 = 16;

/// The estimator's former check-in store: in-window check-ins as packed
/// `time << CELL_BITS | cell` words, oldest first. Queries are answered
/// by brute force over the ring, with no incremental state at all.
struct PackedRing {
    window_ms: SimTime,
    queue: VecDeque<u64>,
    specs: Vec<ResourceSpec>,
}

impl PackedRing {
    fn new(window_ms: SimTime) -> Self {
        PackedRing {
            window_ms,
            queue: VecDeque::new(),
            specs: Vec::new(),
        }
    }

    fn cell_of(capacity: &Capacity) -> u16 {
        let clamp = |v: f64| (v * GRID as f64).min((GRID - 1) as f64).max(0.0) as usize;
        (clamp(capacity.cpu()) * GRID + clamp(capacity.mem())) as u16
    }

    /// The capacity every device in `cell` is at least.
    fn cell_floor(cell: usize) -> Capacity {
        Capacity::new(
            (cell / GRID) as f64 / GRID as f64,
            (cell % GRID) as f64 / GRID as f64,
        )
    }

    fn record(&mut self, now: SimTime, capacity: &Capacity) {
        assert!(now < 1 << (64 - CELL_BITS), "oracle packs 48-bit times");
        self.queue
            .push_back(now << CELL_BITS | Self::cell_of(capacity) as u64);
    }

    fn prune(&mut self, now: SimTime) {
        let cutoff = now.saturating_sub(self.window_ms);
        while self.queue.front().is_some_and(|&w| w >> CELL_BITS < cutoff) {
            self.queue.pop_front();
        }
    }

    fn span_ms(&self, now: SimTime) -> f64 {
        self.window_ms.min(now.max(1)) as f64
    }

    /// In-window check-ins per grid cell.
    fn cell_counts(&mut self, now: SimTime) -> Vec<u64> {
        self.prune(now);
        let mut counts = vec![0u64; GRID * GRID];
        for &w in &self.queue {
            counts[(w & ((1 << CELL_BITS) - 1)) as usize] += 1;
        }
        counts
    }

    fn window_count(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.queue.len()
    }

    fn rate(&mut self, now: SimTime, spec: &ResourceSpec) -> f64 {
        let counts = self.cell_counts(now);
        let count: u64 = (0..GRID * GRID)
            .filter(|&c| spec.is_eligible(&Self::cell_floor(c)))
            .map(|c| counts[c])
            .sum();
        count as f64 / self.span_ms(now)
    }

    fn region_supplies(&mut self, now: SimTime, specs: &[ResourceSpec]) -> Vec<RegionSupply> {
        let counts = self.cell_counts(now);
        let mut by_mask: BTreeMap<u128, u64> = BTreeMap::new();
        for (cell, &count) in counts.iter().enumerate() {
            let floor = Self::cell_floor(cell);
            let mask = specs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_eligible(&floor))
                .fold(0u128, |m, (j, _)| m | 1 << j);
            if mask != 0 && count > 0 {
                *by_mask.entry(mask).or_default() += count;
            }
        }
        let span = self.span_ms(now);
        by_mask
            .into_iter()
            .map(|(mask, count)| RegionSupply {
                mask,
                rate: count as f64 / span,
            })
            .collect()
    }
}

/// Gaps at every edge of the delta coding: the largest one-word gap, the
/// escape threshold, the one/two continuation-word boundary, and beyond.
const EDGE_GAPS: [SimTime; 6] = [0, 14, 15, (1 << 15) - 1, 1 << 15, 1 << 30];

/// Windows from a single millisecond to longer than any stream.
const WINDOWS: [SimTime; 6] = [1, 15, 1_000, 1 << 15, 1 << 31, 1 << 47];

fn gap(rng: &mut StdRng, huge_left: &mut u32) -> SimTime {
    match rng.gen_range(0u32..100) {
        0..=59 => rng.gen_range(0u64..15),
        60..=84 => EDGE_GAPS[rng.gen_range(0..EDGE_GAPS.len())],
        85..=97 => rng.gen_range(15u64..1 << 20),
        // Gaps above 2^45, a few per stream so times stay within the
        // oracle's 48-bit packing.
        _ if *huge_left > 0 => {
            *huge_left -= 1;
            (1 << 45) + rng.gen_range(1u64..1 << 40)
        }
        _ => 0,
    }
}

fn capacity(rng: &mut StdRng) -> Capacity {
    match rng.gen_range(0u32..10) {
        // The first and last grid cells (0 and 4095), clamped edges.
        0 => Capacity::new(0.0, 0.0),
        1 => Capacity::new(1.0, 1.0),
        2 => Capacity::new(1.5, 0.0),
        _ => Capacity::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
    }
}

fn spec(rng: &mut StdRng) -> ResourceSpec {
    let threshold = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            // Exactly on a cell edge.
            rng.gen_range(0..GRID + 1) as f64 / GRID as f64
        } else {
            rng.gen_range(0.0..1.0)
        }
    };
    ResourceSpec::new(threshold(rng), threshold(rng))
}

fn round_trip(s: &SupplyEstimator) -> SupplyEstimator {
    let mut w = SnapWriter::new();
    s.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    let restored = SupplyEstimator::decode(&mut r).expect("decode");
    r.finish().expect("decode consumes every byte");
    let mut again = SnapWriter::new();
    restored.encode(&mut again);
    assert_eq!(
        again.into_bytes(),
        bytes,
        "re-encoding must be a fixed point"
    );
    restored
}

/// Drives the estimator and the oracle with one random stream and
/// compares every answer.
fn check_stream(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let window = WINDOWS[rng.gen_range(0..WINDOWS.len())];
    let mut est = SupplyEstimator::new(window);
    let mut oracle = PackedRing::new(window);
    let ops = rng.gen_range(1usize..600);
    let snapshot_at = rng.gen_range(0..ops);
    let mut huge_left = 3;
    let mut now: SimTime = rng.gen_range(0u64..1 << 20);
    let (mut rates, mut regions) = (Vec::new(), Vec::new());
    for op in 0..ops {
        if op == snapshot_at {
            est = round_trip(&est);
        }
        // Queries may look past the latest check-in; later check-ins still
        // continue from the stream's own clock.
        let query_at = now + [0, 1, window, window + 1][rng.gen_range(0usize..4)];
        let ctx = format!("seed {seed:#x} op {op} window {window} query {query_at}");
        match rng.gen_range(0u32..100) {
            0..=74 => {
                now += gap(&mut rng, &mut huge_left);
                let cap = capacity(&mut rng);
                est.record(now, &cap);
                oracle.record(now, &cap);
            }
            75..=78 if oracle.specs.len() < 24 => {
                let s = spec(&mut rng);
                assert_eq!(est.register_spec(s), oracle.specs.len(), "{ctx}");
                oracle.specs.push(s);
            }
            79..=83 => assert_eq!(
                est.window_count(query_at),
                oracle.window_count(query_at),
                "{ctx}: window_count"
            ),
            84..=87 => {
                est.registered_rates(query_at, &mut rates);
                // Every estimator query prunes, even over zero specs.
                oracle.prune(query_at);
                let specs = oracle.specs.clone();
                let want: Vec<f64> = specs.iter().map(|s| oracle.rate(query_at, s)).collect();
                assert_eq!(bits(&rates), bits(&want), "{ctx}: registered_rates");
            }
            88..=91 => {
                est.registered_regions(query_at, &mut regions);
                oracle.prune(query_at);
                let specs = oracle.specs.clone();
                let want = oracle.region_supplies(query_at, &specs);
                assert_eq!(region_bits(&regions), region_bits(&want), "{ctx}: regions");
            }
            92..=95 => {
                let s = spec(&mut rng);
                assert_eq!(
                    est.rate(query_at, &s).to_bits(),
                    oracle.rate(query_at, &s).to_bits(),
                    "{ctx}: rate"
                );
            }
            _ => {
                let specs: Vec<ResourceSpec> = (0..rng.gen_range(1usize..6))
                    .map(|_| spec(&mut rng))
                    .collect();
                assert_eq!(
                    region_bits(&est.region_supplies(query_at, &specs)),
                    region_bits(&oracle.region_supplies(query_at, &specs)),
                    "{ctx}: region_supplies"
                );
            }
        }
    }
    assert_eq!(
        est.window_count(now),
        oracle.window_count(now),
        "final count"
    );
}

fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
}

fn region_bits(regions: &[RegionSupply]) -> Vec<(u128, u64)> {
    regions.iter().map(|r| (r.mask, r.rate.to_bits())).collect()
}

proptest! {
    #[test]
    fn delta_ring_matches_packed_oracle(seed in 0u64..u64::MAX) {
        check_stream(seed);
    }
}

/// Every edge gap back to back, in the same cell and in the corner
/// cells, across a snapshot — the deterministic core of the property.
#[test]
fn edge_gaps_round_trip_exactly() {
    let mut est = SupplyEstimator::new(1 << 47);
    let mut oracle = PackedRing::new(1 << 47);
    let mut now = 0;
    for (i, &g) in EDGE_GAPS
        .iter()
        .chain(&[(1 << 45) + 1, (1 << 46) - 1])
        .enumerate()
    {
        now += g;
        let cap = [Capacity::new(0.0, 0.0), Capacity::new(1.0, 1.0)][i % 2];
        est.record(now, &cap);
        oracle.record(now, &cap);
    }
    let mut est = round_trip(&est);
    for q in [now, now + (1 << 46), now + (1 << 47)] {
        assert_eq!(est.window_count(q), oracle.window_count(q), "query {q}");
        let any = ResourceSpec::any();
        assert_eq!(est.rate(q, &any).to_bits(), oracle.rate(q, &any).to_bits());
    }
}
