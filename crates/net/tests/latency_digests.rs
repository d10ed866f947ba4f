//! Locks the latencies themselves: FNV-1a digests over every value the
//! public `SiteLatencyMatrix` surface reports, for the networks the
//! experiments and the benchmark build. A storage change to the table
//! must leave every one of them where it is.

use gocast_net::{king_like, two_continents, SiteLatencyMatrix, SyntheticKingConfig};
use gocast_sim::{LatencyModel, NodeId};

/// FNV-1a, as `tests/tests/golden.rs` computes it, continued from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one network reports: digests of every site pair's
/// `site_latency` (µs, row by row) and every node's `site_of`, then
/// `lookahead`, `mean_site_latency` and `max_site_latency` in µs.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    pairs: u64,
    sites: u64,
    lookahead_us: Option<u128>,
    mean_us: u128,
    max_us: u128,
}

fn digest(m: &SiteLatencyMatrix) -> Digest {
    let n = m.site_count() as u32;
    let mut pairs = FNV_OFFSET;
    for a in 0..n {
        for b in 0..n {
            pairs = fnv(
                pairs,
                &(m.site_latency(a, b).as_micros() as u64).to_le_bytes(),
            );
        }
    }
    let sites = (0..m.len() as u32).fold(FNV_OFFSET, |h, i| {
        fnv(h, &m.site_of(NodeId::new(i)).to_le_bytes())
    });
    Digest {
        pairs,
        sites,
        lookahead_us: m.lookahead().map(|d| d.as_micros()),
        mean_us: m.mean_site_latency().as_micros(),
        max_us: m.max_site_latency().as_micros(),
    }
}

#[test]
fn king_like_at_the_default_config_seed() {
    let m = king_like(1024, SyntheticKingConfig::default().seed);
    assert_eq!(digest(&m), KING_DEFAULT);
}

#[test]
fn king_like_at_the_benchmark_network_seed() {
    let m = king_like(1024, 7 ^ 0x4B49_4E47);
    assert_eq!(digest(&m), KING_BENCHMARK);
}

#[test]
fn two_continents_at_the_default_experiment_seed() {
    let m = two_continents(1000, 42 ^ 0x2C);
    assert_eq!(digest(&m), TWO_CONTINENTS);
}

const KING_DEFAULT: Digest = Digest {
    pairs: 0x71da_a335_d0ba_64b1,
    sites: 0x8e01_13da_5622_2d8b,
    lookahead_us: Some(500),
    mean_us: 90_999,
    max_us: 387_526,
};

const KING_BENCHMARK: Digest = Digest {
    pairs: 0x2198_5cc0_e391_be35,
    sites: 0x51a3_36b9_81ad_5304,
    lookahead_us: Some(500),
    mean_us: 90_999,
    max_us: 399_000,
};

const TWO_CONTINENTS: Digest = Digest {
    pairs: 0x177f_28b8_e60e_8a55,
    sites: 0xb626_031c_a980_b5d5,
    lookahead_us: Some(500),
    mean_us: 97_604,
    max_us: 199_999,
};
