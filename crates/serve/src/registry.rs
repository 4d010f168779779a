//! Resident networks: the cities the service answers queries about.
//!
//! Networks are loaded once at startup — from `citygen` presets or OSM
//! extract files — and shared read-only across every worker for the life
//! of the process. Each [`ResidentNetwork`] carries the PR 3 reuse
//! layer: one [`NetworkCache`] for target-independent tables and a map
//! of [`TargetContext`]s keyed by `(weight, target)`, so the first
//! request against a hospital pays the backward Dijkstra and every later
//! request (in batched mode) gets the table for a hash lookup. The
//! `serve.reuse.ctx.hit` / `serve.reuse.ctx.miss` counters make that
//! amortization visible to the `stats` request and the repo
//! benchmark.

use parking_lot::Mutex;
use pathattack::{NetworkCache, TargetContext, WeightType};
use std::collections::HashMap;
use std::sync::Arc;
use traffic_graph::{NodeId, Poi, PoiKind, RoadNetwork};

/// One loaded city plus its cross-request reuse state.
#[derive(Debug)]
pub struct ResidentNetwork {
    name: String,
    net: RoadNetwork,
    hospitals: Vec<Poi>,
    cache: Arc<NetworkCache>,
    contexts: Mutex<HashMap<(WeightType, NodeId), Arc<TargetContext>>>,
}

impl ResidentNetwork {
    /// Wraps a freshly built network under the given registry key.
    pub fn new(name: &str, net: RoadNetwork) -> ResidentNetwork {
        let hospitals = net.pois_of_kind(PoiKind::Hospital).cloned().collect();
        ResidentNetwork {
            name: name.to_string(),
            net,
            hospitals,
            cache: Arc::new(NetworkCache::new()),
            contexts: Mutex::new(HashMap::new()),
        }
    }

    /// The registry key clients put in the request `city` field.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The road network itself.
    pub fn net(&self) -> &RoadNetwork {
        &self.net
    }

    /// The city's hospital POIs, in request `hospital`-index order.
    pub fn hospitals(&self) -> &[Poi] {
        &self.hospitals
    }

    /// The target-independent table cache shared by every context of
    /// this network.
    pub fn cache(&self) -> &Arc<NetworkCache> {
        &self.cache
    }

    /// The shared [`TargetContext`] for `(weight, target)`, built on
    /// first use and reused afterwards (batched mode). Counts
    /// `serve.reuse.ctx.hit` / `serve.reuse.ctx.miss`.
    pub fn shared_context(&self, weight: WeightType, target: NodeId) -> Arc<TargetContext> {
        let mut contexts = self.contexts.lock();
        if let Some(ctx) = contexts.get(&(weight, target)) {
            obs::inc("serve.reuse.ctx.hit");
            obs::trace::point(
                "ctx.cache",
                &[("outcome", obs::AttrValue::Str("hit".into()))],
            );
            return ctx.clone();
        }
        obs::inc("serve.reuse.ctx.miss");
        obs::trace::point(
            "ctx.cache",
            &[("outcome", obs::AttrValue::Str("miss".into()))],
        );
        let ctx = Arc::new(TargetContext::build_with_cache(
            &self.net,
            weight,
            target,
            self.cache.clone(),
        ));
        contexts.insert((weight, target), ctx.clone());
        ctx
    }

    /// A private [`TargetContext`] for `(weight, target)`, recomputed
    /// every call (unbatched mode — the baseline `serve_integration`'s
    /// batching tests compare against). Counts `serve.reuse.ctx.miss`
    /// only.
    pub fn fresh_context(&self, weight: WeightType, target: NodeId) -> Arc<TargetContext> {
        obs::inc("serve.reuse.ctx.miss");
        obs::trace::point(
            "ctx.cache",
            &[("outcome", obs::AttrValue::Str("fresh".into()))],
        );
        Arc::new(TargetContext::build(&self.net, weight, target))
    }

    /// Number of distinct shared contexts built so far.
    pub fn num_contexts(&self) -> usize {
        self.contexts.lock().len()
    }
}

/// All resident networks, keyed by name.
#[derive(Debug, Default)]
pub struct NetworkRegistry {
    nets: HashMap<String, Arc<ResidentNetwork>>,
    names: Vec<String>,
}

impl NetworkRegistry {
    /// An empty registry.
    pub fn new() -> NetworkRegistry {
        NetworkRegistry::default()
    }

    /// Adds a network under `name`, replacing any previous entry.
    pub fn insert(&mut self, name: &str, net: RoadNetwork) {
        if !self.nets.contains_key(name) {
            self.names.push(name.to_string());
        }
        self.nets
            .insert(name.to_string(), Arc::new(ResidentNetwork::new(name, net)));
    }

    /// Loads one `--city` spec: a preset name (`boston`, `sf`,
    /// `chicago`, `la`) or a path to an OSM XML extract (`*.osm` /
    /// `*.xml`, keyed by its file stem).
    ///
    /// # Errors
    ///
    /// Describes the unknown preset, unreadable file, or import
    /// failure.
    pub fn load(&mut self, spec: &str, scale: citygen::Scale, seed: u64) -> Result<(), String> {
        if spec.ends_with(".osm") || spec.ends_with(".xml") {
            let text =
                std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
            let net = osm::import_xml(&text, &osm::ImportOptions::default())
                .map_err(|e| format!("cannot import {spec}: {e}"))?;
            let stem = std::path::Path::new(spec)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(spec)
                .to_string();
            self.insert(&stem, net);
            return Ok(());
        }
        let preset = match spec {
            "boston" => citygen::CityPreset::Boston,
            "sf" | "san-francisco" | "sanfrancisco" => citygen::CityPreset::SanFrancisco,
            "chicago" => citygen::CityPreset::Chicago,
            "la" | "los-angeles" | "losangeles" => citygen::CityPreset::LosAngeles,
            other => return Err(format!("unknown city {other:?}")),
        };
        self.insert(spec, preset.build(scale, seed));
        Ok(())
    }

    /// Looks a resident network up by request `city` value.
    pub fn get(&self, name: &str) -> Option<&Arc<ResidentNetwork>> {
        self.nets.get(name)
    }

    /// Registry keys in load order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citygen::{CityPreset, Scale};

    #[test]
    fn shared_context_is_built_once_per_key() {
        let city = CityPreset::Boston.build(Scale::Small, 42);
        let resident = ResidentNetwork::new("boston", city);
        let target = resident.hospitals()[0].node;
        let a = resident.shared_context(WeightType::Time, target);
        let b = resident.shared_context(WeightType::Time, target);
        assert!(Arc::ptr_eq(&a, &b));
        let c = resident.shared_context(WeightType::Length, target);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(resident.num_contexts(), 2);
        // Fresh contexts never enter the shared map.
        let d = resident.fresh_context(WeightType::Time, target);
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(resident.num_contexts(), 2);
    }

    #[test]
    fn registry_loads_presets_and_rejects_unknown() {
        let mut reg = NetworkRegistry::new();
        reg.load("boston", Scale::Small, 42).unwrap();
        assert!(reg.get("boston").is_some());
        assert!(!reg.get("boston").unwrap().hospitals().is_empty());
        assert_eq!(reg.names(), ["boston".to_string()]);
        assert!(reg.load("atlantis", Scale::Small, 42).is_err());
        assert!(reg.get("atlantis").is_none());
    }

    #[test]
    fn registry_loads_osm_extracts() {
        let dir = std::env::temp_dir().join("serve_registry_osm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.osm");
        std::fs::write(
            &path,
            r#"<osm>
  <node id="1" lat="42.0" lon="-71.0"/>
  <node id="2" lat="42.001" lon="-71.0"/>
  <way id="7"><nd ref="1"/><nd ref="2"/><tag k="highway" v="primary"/></way>
</osm>"#,
        )
        .unwrap();
        let mut reg = NetworkRegistry::new();
        reg.load(path.to_str().unwrap(), Scale::Small, 42).unwrap();
        assert_eq!(reg.get("tiny").unwrap().net().num_nodes(), 2);
    }
}
