//! Pins the exact output of Yen's k-shortest-paths enumeration.
//!
//! On Boston and Chicago (`Scale::Small`, seed 42) one FNV-1a digest
//! covers, for fixed random (source, target) pairs at rank 50 under
//! TIME and under unit (hop-count) weights, every returned path's edges,
//! nodes and `total_weight` bits, in order. `yen_exhaustive.rs` checks
//! weights only; this digest also pins the tie order among equal-weight
//! paths and the node lists. A change to the candidate store that keeps
//! behaviour must leave it unchanged.

use metro_attack::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Digest of every enumeration below; recompute it only for a
/// deliberate behaviour change.
const PINNED: u64 = 0x18e1_5bc3_9462_b86f;

const RANK: usize = 50;
const PAIRS_PER_CITY: usize = 10;

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

#[test]
fn yen_paths_match_pinned_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut paths_seen = 0;
    let mut ties = 0;
    for city in [CityPreset::Boston, CityPreset::Chicago] {
        let net = city.build(Scale::Small, 42);
        // TIME weights, and unit weights (hop counts) where equal-weight
        // paths abound, so the tie order is pinned too.
        let time = WeightType::Time.compute(&net);
        let unit = vec![1.0; net.num_edges()];
        let view = GraphView::new(&net);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..PAIRS_PER_CITY {
            let source = NodeId::new(rng.gen_range(0..net.num_nodes()));
            let target = NodeId::new(rng.gen_range(0..net.num_nodes()));
            for weight in [&time, &unit] {
                let paths = k_shortest_paths(&view, |e| weight[e.index()], source, target, RANK);
                h.word(paths.len() as u64);
                for p in &paths {
                    for e in p.edges() {
                        h.word(e.index() as u64);
                    }
                    h.word(u64::MAX);
                    for v in p.nodes() {
                        h.word(v.index() as u64);
                    }
                    h.word(p.total_weight().to_bits());
                }
                paths_seen += paths.len();
                ties += paths
                    .windows(2)
                    .filter(|w| w[0].total_weight() == w[1].total_weight())
                    .count();
            }
        }
    }
    assert!(
        paths_seen >= 2 * 2 * RANK * PAIRS_PER_CITY,
        "{paths_seen} paths"
    );
    assert!(
        ties > 0,
        "no equal-weight neighbours: the tie order goes unpinned"
    );
    assert_eq!(h.0, PINNED, "Yen output digest moved: {:#018x}", h.0);
}
