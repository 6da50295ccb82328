//! Pins the exact page-cache hit and miss counts of a fixed PRIM and
//! BestInterval search over a fixed pool, at a budget that evicts
//! constantly (8 KiB) and one that holds the whole pool (1 MiB).
//!
//! The counts are a fingerprint of the eviction policy: any change to
//! which page leaves the cache first moves them. They were recorded
//! before the cache was rewritten, so equal counts mean the cache is
//! still the same exact least-recently-used policy.

use rand::rngs::StdRng;
use rand::SeedableRng;
use reds_data::Dataset;
use reds_ooc::{OocConfig, OocPool, OocStats};
use reds_stream::{PoolBuilder, StreamConfig};
use reds_subgroup::{BestInterval, BiParams, Prim, PrimParams, SubgroupDiscovery};

const N: usize = 6_000;
const M: usize = 3;
const PAGE_ROWS: u32 = 256;

/// Deterministic points from a 64-bit LCG; label 1 inside a corner box
/// with every 13th row flipped, so the search has noise to peel.
fn pool_data(n: usize, seed: u64) -> Dataset {
    let mut state = seed;
    let points: Vec<f64> = (0..n * M)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    let labels = (0..n)
        .map(|i| {
            let x = &points[i * M..(i + 1) * M];
            let inside = x[0] > 0.35 && x[1] < 0.7;
            if inside != (i % 13 == 0) {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    Dataset::new(points, labels, M).unwrap()
}

fn search_stats(sd: &dyn SubgroupDiscovery, cache_bytes: usize, tag: &str) -> OocStats {
    let d = pool_data(N, 0x5eed);
    let d_val = pool_data(400, 0xa11);
    let dir = std::env::temp_dir().join(format!("reds-ooc-pinned-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pool.redsart");
    let mut b = PoolBuilder::new(M, &StreamConfig::new()).unwrap();
    b.push_chunk(d.points(), d.labels()).unwrap();
    b.finish_art(&path, PAGE_ROWS).unwrap();
    let mut pool = OocPool::open(&path, &OocConfig::new().with_cache_bytes(cache_bytes)).unwrap();
    let result = sd
        .discover_paged(&mut pool, &d_val, &mut StdRng::seed_from_u64(7))
        .expect("PRIM without pasting and BI are paged");
    assert!(!result.boxes.is_empty(), "{tag}: no boxes");
    let stats = pool.stats();
    drop(pool);
    std::fs::remove_dir_all(&dir).unwrap();
    stats
}

fn pinned(hits: u64, misses: u64) -> OocStats {
    OocStats {
        cache_hits: hits,
        cache_misses: misses,
    }
}

#[test]
fn prim_search_hit_and_miss_counts_are_pinned() {
    let prim = Prim::new(PrimParams::default());
    assert_eq!(search_stats(&prim, 8 << 10, "prim-8k"), pinned(5769, 31128));
    assert_eq!(search_stats(&prim, 1 << 20, "prim-1m"), pinned(36818, 79));
}

#[test]
fn best_interval_search_hit_and_miss_counts_are_pinned() {
    let bi = BestInterval::new(BiParams::default());
    assert_eq!(search_stats(&bi, 8 << 10, "bi-8k"), pinned(4320, 104352));
    assert_eq!(search_stats(&bi, 1 << 20, "bi-1m"), pinned(108552, 120));
}
