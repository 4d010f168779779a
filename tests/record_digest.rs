//! Pins the inputs and outputs behind the paper record.
//!
//! Two FNV-1a digests:
//!
//! - every preset's `Scale::Small` city at seed 42: name, node points,
//!   the forward and reverse CSR adjacency, every edge's endpoints and
//!   attributes, and every point of interest;
//! - the records CSV of one tiny experiment set (Chicago, TIME,
//!   `Scale::Custom(0.03)`, seed 5, 1 source per hospital, rank 8), with
//!   the wall-clock runtime column zeroed.
//!
//! A change to a generator, to trip sampling or to an algorithm moves
//! one of them. Recompute a constant only for a deliberate change of
//! the record, and regenerate the record with it.

use metro_attack::prelude::*;

/// Digest of the four `Scale::Small` preset cities at seed 42.
const PINNED_CITIES: u64 = 0x029b_73ee_4e45_3d75;

/// Digest of the runtime-masked records CSV of the tiny Chicago set.
const PINNED_RECORDS: u64 = 0x55f5_1fe9_d43a_3976;

/// FNV-1a over a stream of bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

#[test]
fn preset_cities_match_pinned_digest() {
    let mut h = Fnv::new();
    for preset in CityPreset::ALL {
        let net = preset.build(Scale::Small, 42);
        h.text(net.name());
        h.word(net.num_nodes() as u64);
        h.word(net.num_edges() as u64);
        for v in net.nodes() {
            let p = net.node_point(v);
            h.float(p.x);
            h.float(p.y);
            h.word(net.out_degree(v) as u64);
            for e in net.out_edges(v) {
                h.word(e.index() as u64);
            }
            h.word(net.in_degree(v) as u64);
            for e in net.in_edges(v) {
                h.word(e.index() as u64);
            }
        }
        for e in net.edges() {
            let (u, v) = net.edge_endpoints(e);
            h.word(u.index() as u64);
            h.word(v.index() as u64);
            let a = net.edge_attrs(e);
            h.float(a.length_m);
            h.float(a.speed_limit_mps);
            h.word(u64::from(a.lanes));
            h.float(a.width_m);
            h.word(a.class as u64);
            h.word(u64::from(a.artificial));
        }
        h.word(net.pois().len() as u64);
        for poi in net.pois() {
            h.text(&poi.name);
            h.word(poi.kind as u64);
            h.word(poi.node.index() as u64);
            h.float(poi.point.x);
            h.float(poi.point.y);
        }
    }
    assert_eq!(
        h.0, PINNED_CITIES,
        "preset city digest moved: {:#018x}",
        h.0
    );
}

#[test]
fn tiny_records_match_pinned_digest() {
    let mut plan = ExperimentPlan::paper(
        CityPreset::Chicago,
        WeightType::Time,
        Scale::Custom(0.03),
        5,
    );
    plan.sources_per_hospital = 1;
    plan.path_rank = 8;
    let mut records = run_plan(&plan);
    assert!(!records.is_empty(), "the tiny set sampled no trips");
    for r in &mut records {
        r.runtime_s = 0.0;
    }
    let mut h = Fnv::new();
    h.bytes(records_to_csv(&records).as_bytes());
    assert_eq!(
        h.0, PINNED_RECORDS,
        "tiny records digest moved: {:#018x}",
        h.0
    );
}
