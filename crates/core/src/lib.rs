//! Alternative route-based attacks on metropolitan traffic systems.
//!
//! This crate implements the primary contribution of *"Alternative
//! Route-Based Attacks in Metropolitan Traffic Systems"* (DSN 2022): the
//! **Force Path Cut** problem on directed road networks, and the four
//! algorithms the paper evaluates.
//!
//! The attacker knows a victim's source and destination and wants a
//! chosen sub-optimal route `p*` (e.g. the 100th shortest path) to become
//! the *exclusive* shortest path, by blocking road segments. Segment
//! weights model the victim's routing objective ([`WeightType`]:
//! `LENGTH` or `TIME`), and per-segment removal costs model the
//! attacker's physical capabilities ([`CostType`]: `UNIFORM`, `LANES` or
//! `WIDTH`).
//!
//! | Algorithm | Kind |
//! |---|---|
//! | [`LpPathCover`] | LP relaxation + constraint generation (near-optimal cost) |
//! | [`GreedyPathCover`] | greedy weighted set cover (the paper's sweet spot) |
//! | [`GreedyEdge`] | naive: cut the lightest edge on the current shortest route |
//! | [`GreedyEig`] | naive: cut the best eigenscore/cost edge |
//!
//! # Examples
//!
//! ```
//! use citygen::{CityPreset, Scale};
//! use pathattack::{
//!     AttackProblem, AttackAlgorithm, GreedyPathCover, WeightType, CostType,
//! };
//! use traffic_graph::{NodeId, PoiKind};
//!
//! // Build a Chicago-like lattice with hospitals attached.
//! let city = CityPreset::Chicago.build(Scale::Small, 42);
//! let hospital = city.pois_of_kind(PoiKind::Hospital).next().unwrap().node;
//!
//! // Force the 10th-shortest route to the hospital to become optimal.
//! let problem = AttackProblem::with_path_rank(
//!     &city, WeightType::Time, CostType::Uniform, NodeId::new(0), hospital, 10,
//! ).unwrap();
//! let outcome = GreedyPathCover::default().attack(&problem);
//! assert!(outcome.is_success());
//! outcome.verify(&problem).unwrap();
//! println!("cut {} segments at cost {}", outcome.num_removed(), outcome.total_cost);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algorithms;
mod context;
mod defense;
pub mod faults;
mod hierarchy;
mod limits;
mod multi;
mod perturb;
mod problem;
mod recon;
mod result;
mod search;
mod weights;

pub use algorithms::{
    algorithm_by_name, all_algorithms, all_algorithms_extended, AttackAlgorithm, GreedyBetweenness,
    GreedyEdge, GreedyEig, GreedyPathCover, LpPathCover, LpPerturb,
};
pub use context::{NetworkCache, TargetContext};
pub use defense::{minimal_hardening, HardeningPlan};
pub use faults::{FaultPlan, FaultSite};
pub use hierarchy::NetworkHierarchy;
pub use limits::RunLimits;
pub use multi::{coordinated_attack, CoordinatedError, CoordinatedOutcome};
pub use perturb::{PerturbProblem, PerturbResult};
pub use problem::{AttackProblem, ProblemError};
pub use recon::{critical_segments, CriticalSegment};
pub use result::{AttackOutcome, AttackStatus, Degradation};
pub use search::Oracle;
pub use weights::{CostType, WeightType};
