//! The memory bound stated on `k_shortest_paths_with`, checked with a
//! counting allocator.
//!
//! A rank-100 enumeration on a generated city runs under a global
//! allocator that tracks the live heap bytes of the measuring thread.
//! Its peak, above the live bytes before the call, must stay within
//! the documented formula evaluated on the run's own sizes: the
//! returned paths, the candidates generated and the spur edges stored
//! over them (both read from the enumeration's `obs` telemetry). Every
//! constant below is derived from the store's layout and its
//! containers' growth rules, not from a measurement.

use citygen::{CityPreset, Scale};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use routing::{k_shortest_paths, Path};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::rc::Rc;
use traffic_graph::{EdgeId, GraphView, NodeId};

/// Counts the live bytes allocated by threads that opted in.
struct Counting;

thread_local! {
    static TRACKED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    if TRACKED.with(Cell::get) {
        let live = LIVE.with(|l| {
            l.set(l.get() + delta);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes of `f` on this thread, above the live bytes at the
/// call.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    TRACKED.with(|t| t.set(true));
    let out = f();
    TRACKED.with(|t| t.set(false));
    (out, PEAK.with(Cell::get) as usize)
}

/// Per accepted route, beyond its nodes and edges (4 bytes each).
const ROUTE_HEADER: usize = 172;
/// Per candidate, beyond its spur edges (4 bytes each).
const CANDIDATE_HEADER: usize = 147;
/// Scratch and per-spur working state, per node and per edge.
const PER_NODE: usize = 80;
const PER_EDGE: usize = 41;
/// Container minimum capacities and table control words.
const FIXED: usize = 1024;

/// The documented bound, in bytes.
fn bound(
    nodes: usize,
    edges: usize,
    paths: &[Path],
    candidates: usize,
    spur_edges: usize,
) -> usize {
    let accepted: usize = paths
        .iter()
        .map(|p| ROUTE_HEADER + 4 * (p.nodes().len() + p.edges().len()))
        .sum();
    accepted
        + CANDIDATE_HEADER * candidates
        + 4 * spur_edges
        + PER_NODE * nodes
        + PER_EDGE * edges
        + FIXED
}

#[test]
fn documented_constants_cover_the_store_layout() {
    // A stored route: Rc counts (16) + parent `Rc<Path>`, deviation,
    // boxed spur edges, and the next route under the same fingerprint.
    let route = 16 + size_of::<(Rc<Path>, usize, Box<[EdgeId]>, Option<Rc<Path>>)>();
    // A heap slot (total, route), doubled by `Vec` growth.
    let heap_slot = 2 * size_of::<(f64, Rc<Path>)>();
    // A fingerprint-table entry plus its control byte, at up to 16/7
    // buckets per entry (7/8 load, power-of-two growth), and 1.5x while
    // a resize holds the old table next to the new one.
    let table_slot = (3 * (size_of::<(u64, Rc<Path>)>() + 1) * 16).div_ceil(2 * 7);
    assert!(route + heap_slot + table_slot <= CANDIDATE_HEADER);
    // An accepted path: `Rc<Path>` allocation, its (path, deviation)
    // slot in the doubled accepted list, its slot in the returned list
    // and in the per-round common-prefix table, and its extra node.
    let accepted = (16 + size_of::<Path>())
        + 2 * size_of::<(Rc<Path>, usize)>()
        + size_of::<Path>()
        + size_of::<usize>()
        + 4;
    assert!(accepted <= ROUTE_HEADER);
    // Per node: the pooled Dijkstra and A* (dist f64 + parent, stamp and
    // settled u32 each), the reverse table (f64), the two per-round
    // prefix tables (f64, u64), one search path's edges (doubled) and
    // nodes, and the first path's edge-buffer slack.
    let per_node = 2 * (8 + 3 * 4) + 8 + (8 + 8) + (2 * 4 + 4) + 4;
    assert!(per_node <= PER_NODE);
    // Per edge: the pooled spur-removal buffer (doubled EdgeId), the
    // working view's removal flag, and one search's queue (at most one
    // 16-byte entry per relaxation plus the source, doubled).
    let per_edge = 2 * 4 + 1 + 2 * 16;
    assert!(per_edge <= PER_EDGE);
}

#[test]
fn rank_100_enumeration_stays_within_the_documented_bound() {
    obs::set_enabled(true);
    for city in [CityPreset::Chicago, CityPreset::Boston] {
        let net = city.build(Scale::Small, 42);
        let weight: Vec<f64> = net
            .edges()
            .map(|e| net.edge_attrs(e).travel_time_s())
            .collect();
        let view = GraphView::new(&net);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut pick = || NodeId::new(rng.gen_range(0..net.num_nodes()));
        // Warm-up: sizes this thread's pooled scratch and creates the
        // telemetry entries, so the measured call allocates only what
        // the enumeration itself holds.
        while k_shortest_paths(&view, |e| weight[e.index()], pick(), pick(), 10).len() < 2 {}
        let mut measured = 0;
        while measured < 3 {
            let (source, target) = (pick(), pick());
            let before = obs::global().snapshot();
            let (paths, peak) =
                peak_of(|| k_shortest_paths(&view, |e| weight[e.index()], source, target, 100));
            if paths.len() < 100 {
                continue;
            }
            let after = obs::global().snapshot();
            let count =
                |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
            let hist = |name: &str| {
                let sum = |s: &obs::Snapshot| s.histogram(name).map_or(0, |h| h.sum);
                sum(&after) - sum(&before)
            };
            let candidates = hist("routing.yen.candidates_per_query") as usize;
            let spur_edges = count("routing.yen.candidate_edges") as usize;
            let limit = bound(
                net.num_nodes(),
                net.num_edges(),
                &paths,
                candidates,
                spur_edges,
            );
            assert!(candidates >= 99, "{candidates} candidates for 100 paths");
            assert!(
                peak <= limit,
                "{}: {source:?}->{target:?} peaked at {peak} B, bound {limit} B \
                 ({candidates} candidates, {spur_edges} spur edges)",
                net.name()
            );
            measured += 1;
        }
    }
}
