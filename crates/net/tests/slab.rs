//! The landmark-coordinate slab under concurrent handles: clones, copies
//! on write and drops from several threads leave every value where its
//! holders put it and hand every block back.
//!
//! This file is its own test binary with one test, so the process-wide
//! slab's live-block count sees only the workload under test.

use std::sync::Barrier;
use std::time::Duration;

use gocast_net::LandmarkVector;

const THREADS: usize = 4;
const ROUNDS: u64 = 100_000;

fn us(v: u64) -> Duration {
    Duration::from_micros(v)
}

#[test]
fn concurrent_clone_set_and_drop_return_every_block() {
    let baseline = LandmarkVector::live_blocks();
    let shared: Vec<LandmarkVector> = (0..3)
        .map(|k| LandmarkVector::from_rtts([us(10 + k), us(20 + k), us(30 + k)]))
        .collect();
    assert_eq!(LandmarkVector::live_blocks(), baseline + shared.len());
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let (shared, start) = (&shared, &start);
            s.spawn(move || {
                start.wait();
                let mut kept = Vec::new();
                for round in 0..ROUNDS {
                    let k = (round % 3) as usize;
                    let mut mine = shared[k].clone();
                    assert!(mine.shares_storage(&shared[k]));
                    // A write on a shared block copies it; a second write
                    // on the now-private copy writes in place.
                    mine.set(1, us(1_000 + t));
                    mine.set(3, us(round));
                    assert!(!mine.shares_storage(&shared[k]));
                    assert_eq!(mine.rtt_us_at(1), 1_000 + t as u32);
                    assert_eq!(mine.rtt_us_at(3), round as u32);
                    assert_eq!(shared[k].rtt_us_at(1), 20 + k as u32);
                    assert_eq!(shared[k].len(), 3);
                    // Some copies outlive a few rounds, then go at once.
                    if round % 7 == 0 {
                        kept.push(mine.clone());
                    }
                    if kept.len() == 16 {
                        kept.clear();
                    }
                }
            });
        }
    });
    for (k, v) in shared.iter().enumerate() {
        let k = k as u64;
        assert_eq!(
            v,
            &LandmarkVector::from_rtts([us(10 + k), us(20 + k), us(30 + k)])
        );
    }
    drop(shared);
    assert_eq!(LandmarkVector::live_blocks(), baseline);
}
