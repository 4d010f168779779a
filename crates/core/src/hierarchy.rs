//! Shared per-city customizable contraction hierarchy.
//!
//! A [`NetworkHierarchy`] bundles the metric-independent CCH topology
//! ([`routing::Cch`]) with a small cache of customized metrics, one per
//! weight vector.
//!
//! Attacks do not use it. [`crate::Oracle`] prunes with
//! [`routing::RepairTable`] alone, which beat the hierarchy-backed
//! table at every scale measured, and `serve` keeps no hierarchy. The
//! type stays only because two measurements still call
//! [`NetworkHierarchy::build`] and [`NetworkHierarchy::metric_for`]:
//! the `perf_ch` bench and the benchmark's set-up side measurement. It
//! goes once the benchmark drops that measurement.
//!
//! Metrics are cached by the *identity* of the weight vector (the
//! `Arc`'s pointer): passing the same `Arc<Vec<f64>>` again reuses the
//! customization, while a fresh copy of equal weights customizes anew.
//! The cache holds the `Arc`s it keys on, so a pointer can never be
//! recycled while its entry lives.

use routing::{Cch, CchMetric};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use traffic_graph::{FrozenGraph, RoadNetwork};

/// Customized-metric cache entry: the weight vector the key points at
/// (held so the pointer can't be recycled) plus its metric.
type MetricEntry = (Arc<Vec<f64>>, Arc<CchMetric>);

/// Routing core for one city: CCH topology and customized metrics keyed
/// by weight vector.
///
/// # Examples
///
/// ```
/// use citygen::{CityPreset, Scale};
/// use pathattack::NetworkHierarchy;
///
/// let city = CityPreset::Chicago.build(Scale::Small, 7);
/// let h = NetworkHierarchy::build(&city);
/// assert_eq!(h.num_nodes(), city.num_nodes());
/// assert!(h.num_arcs() >= city.num_edges() / 2);
/// assert!(h.bytes_resident() > 0);
/// ```
pub struct NetworkHierarchy {
    cch: Cch,
    metrics: Mutex<HashMap<usize, MetricEntry>>,
}

impl std::fmt::Debug for NetworkHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkHierarchy")
            .field("nodes", &self.num_nodes())
            .field("arcs", &self.num_arcs())
            .finish()
    }
}

impl NetworkHierarchy {
    /// Freezes `net` and builds the metric-independent CCH topology.
    /// The expensive step — run once per city and share the result.
    pub fn build(net: &RoadNetwork) -> Self {
        let _timer = obs::span("pathattack.hierarchy.build");
        NetworkHierarchy {
            cch: Cch::build(&FrozenGraph::freeze(net)),
            metrics: Mutex::new(HashMap::new()),
        }
    }

    /// The metric-independent hierarchy topology.
    pub fn cch(&self) -> &Cch {
        &self.cch
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.cch.num_nodes()
    }

    /// Number of chordal arcs (original plus fill shortcuts).
    pub fn num_arcs(&self) -> usize {
        self.cch.num_arcs()
    }

    /// Heap bytes held by the topology and every cached metric.
    pub fn bytes_resident(&self) -> usize {
        let metrics: usize = self
            .metrics
            .lock()
            .expect("hierarchy metric cache poisoned")
            .values()
            .map(|(w, m)| w.len() * 8 + m.bytes_resident())
            .sum();
        self.cch.bytes_resident() + metrics
    }

    /// The intact-network metric for `weights`, customizing on first
    /// use. Keyed by the `Arc`'s pointer identity: pass the same vector
    /// again, not a fresh copy, to hit the cache.
    pub fn metric_for(&self, weights: &Arc<Vec<f64>>) -> Arc<CchMetric> {
        let key = Arc::as_ptr(weights) as usize;
        let mut cache = self
            .metrics
            .lock()
            .expect("hierarchy metric cache poisoned");
        if let Some((_, metric)) = cache.get(&key) {
            obs::inc("pathattack.reuse.cch_metric.hit");
            return metric.clone();
        }
        obs::inc("pathattack.reuse.cch_metric.miss");
        let metric = Arc::new(self.cch.customize(|e| weights[e.index()]));
        cache.insert(key, (weights.clone(), metric.clone()));
        metric
    }
}
