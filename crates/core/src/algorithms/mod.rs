//! The Force Path Cut algorithms of the paper (§III-A), one extension
//! baseline, and the PATHPERTURB weight attack.
//!
//! | Algorithm | Driver | Step per violating path | Finding |
//! |---|---|---|---|
//! | [`LpPathCover`] | cover loop | round the covering LP over every path found | cheapest cuts |
//! | [`GreedyPathCover`] | cover loop | greedy weighted set cover over every path found | near-LP cost |
//! | [`GreedyEdge`] | greedy loop | cut the lightest edge | fastest, costliest |
//! | [`GreedyEig`] | greedy loop | cut the best eigenscore/cost edge | fast, costly |
//! | [`GreedyBetweenness`] | greedy loop | cut the best betweenness/cost edge | extension baseline |
//! | [`LpPerturb`] | its own | lengthen edges by the covering LP's solution | PATHPERTURB |
//!
//! Every algorithm is constraint generation on one [`crate::Oracle`]:
//! ask for the cheapest path that still violates, then cut (or
//! lengthen) something on it. The cut algorithms share two drivers:
//!
//! - **The greedy loop** (`CutLoop::run_greedy`) cuts one live
//!   cuttable edge of each violating path, the one with the largest
//!   score, and never revisits a cut. The three greedy baselines differ
//!   only in the score.
//! - **The cover loop** (`CutLoop::run_cover`) keeps every violating
//!   path found so far. Each round a cover step derives a whole cut set
//!   hitting all of them, and the loop re-applies it to a fresh copy of
//!   the base view before asking the oracle again. Re-deriving lets
//!   late discoveries revise early, poorly informed picks.
//!
//! Both LP algorithms build their program with one covering-LP builder
//! (`solve_cover_lp`): `min Σ cost·x` over the cuttable edges of the
//! discovered paths, one row `Σ_{e ∈ p} x_e ≥ rhs` per path. Cuts use
//! `rhs = 1` and `x ≤ 1`; perturbations use the weight gap and the
//! per-edge cap.

mod greedy_betweenness;
mod greedy_edge;
mod greedy_eig;
mod greedy_pathcover;
mod lp_pathcover;
mod lp_perturb;

pub use greedy_betweenness::GreedyBetweenness;
pub use greedy_edge::GreedyEdge;
pub use greedy_eig::GreedyEig;
pub(crate) use greedy_pathcover::greedy_cover_with;
pub use greedy_pathcover::GreedyPathCover;
pub use lp_pathcover::LpPathCover;
pub use lp_perturb::LpPerturb;

use crate::{faults, AttackOutcome, AttackProblem, AttackStatus, Degradation, Oracle};
use lp::{ConstraintOp, Outcome, Problem as LpProblem};
use routing::Path;
use std::collections::HashMap;
use std::time::Instant;
use traffic_graph::{EdgeId, GraphView};

/// A Force Path Cut attack algorithm.
///
/// Implementations must never cut edges for which
/// [`AttackProblem::is_cuttable`] is false, and must respect the
/// problem's budget when one is set.
pub trait AttackAlgorithm: std::fmt::Debug + Send + Sync {
    /// Short name used in the paper's tables (e.g. `"GreedyPathCover"`).
    fn name(&self) -> &'static str;

    /// Runs the attack and reports the removed edge set.
    fn attack(&self, problem: &AttackProblem<'_>) -> AttackOutcome;
}

/// The four algorithms in the paper's presentation order.
pub fn all_algorithms() -> Vec<Box<dyn AttackAlgorithm>> {
    vec![
        Box::new(LpPathCover),
        Box::new(GreedyPathCover),
        Box::new(GreedyEdge),
        Box::new(GreedyEig::default()),
    ]
}

/// The paper's four algorithms plus this workspace's extension
/// baselines (currently [`GreedyBetweenness`]).
pub fn all_algorithms_extended() -> Vec<Box<dyn AttackAlgorithm>> {
    let mut algs = all_algorithms();
    algs.push(Box::new(GreedyBetweenness::default()));
    algs
}

/// Looks up a cut algorithm by its kebab-case name or short alias, as
/// the CLI's `--algorithm` flag and the query service's `algorithm`
/// field spell it (`lp-pathcover`/`lp`, `greedy-pathcover`/`pathcover`,
/// `greedy-edge`/`edge`, `greedy-eig`/`eig`,
/// `greedy-betweenness`/`betweenness`).
///
/// # Errors
///
/// Returns `unknown algorithm "<name>"` for any other name.
pub fn algorithm_by_name(name: &str) -> Result<Box<dyn AttackAlgorithm>, String> {
    Ok(match name {
        "lp" | "lp-pathcover" => Box::new(LpPathCover),
        "greedy-pathcover" | "pathcover" => Box::new(GreedyPathCover),
        "greedy-edge" | "edge" => Box::new(GreedyEdge),
        "greedy-eig" | "eig" => Box::new(GreedyEig::default()),
        "greedy-betweenness" | "betweenness" => Box::new(GreedyBetweenness::default()),
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

/// One cut attack in progress: the oracle, the current view and the
/// cut bookkeeping, plus the two loops that drive them.
struct CutLoop<'g, 'p> {
    problem: &'p AttackProblem<'g>,
    oracle: Oracle,
    view: GraphView<'g>,
    removed: Vec<EdgeId>,
    total_cost: f64,
    iterations: usize,
    started: Instant,
    degraded: Degradation,
}

impl<'g, 'p> CutLoop<'g, 'p> {
    /// Builds the oracle (its deadline clock starts here), then starts
    /// the runtime clock.
    fn new(problem: &'p AttackProblem<'g>) -> Self {
        let oracle = Oracle::new(problem);
        CutLoop {
            problem,
            oracle,
            view: problem.base_view().clone(),
            removed: Vec::new(),
            total_cost: 0.0,
            iterations: 0,
            started: Instant::now(),
            degraded: Degradation::None,
        }
    }

    /// Attempts to cut `e`; returns `false` when the budget forbids it.
    fn cut(&mut self, e: EdgeId) -> bool {
        let c = self.problem.cost_of(e);
        if let Some(b) = self.problem.budget() {
            if self.total_cost + c > b + 1e-12 {
                return false;
            }
        }
        debug_assert!(self.problem.is_cuttable(e));
        let newly = self.view.remove_edge(e);
        debug_assert!(newly, "cutting an already-removed edge");
        self.removed.push(e);
        self.total_cost += c;
        self.iterations += 1;
        true
    }

    /// The next violating path on the current view, or the status the
    /// run ends with when there is none.
    fn next_violating(&mut self) -> Result<Path, AttackStatus> {
        match self.oracle.next_violating(self.problem, &self.view) {
            Some(p) => Ok(p),
            None if self.oracle.interrupted() => Err(AttackStatus::TimedOut),
            None => Err(AttackStatus::Success),
        }
    }

    /// The greedy loop: while a violating path exists, cut its live
    /// cuttable edge with the largest `score` (ties go to the lower edge
    /// id). Ends `Stuck` when a violating path has no such edge and
    /// `BudgetExhausted` when the budget forbids the pick.
    fn run_greedy(mut self, algorithm: &str, score: impl Fn(EdgeId) -> f64) -> AttackOutcome {
        let problem = self.problem;
        let status = loop {
            let violating = match self.next_violating() {
                Ok(p) => p,
                Err(status) => break status,
            };
            let pick = violating
                .edges()
                .iter()
                .copied()
                .filter(|&e| problem.is_cuttable(e) && !self.view.is_removed(e))
                .max_by(|&a, &b| score(a).total_cmp(&score(b)).then_with(|| b.cmp(&a)));
            match pick {
                Some(e) if self.cut(e) => {}
                Some(_) => break AttackStatus::BudgetExhausted,
                None => break AttackStatus::Stuck,
            }
        };
        self.finish(algorithm, status)
    }

    /// The cover loop. Each round `cover` derives a whole cut set from
    /// every violating path found so far (none in the first round); the
    /// loop applies it to a fresh copy of the base view and asks the
    /// oracle for the next violating path.
    ///
    /// Returns the final state with `Some(status)`, which is `Stuck`
    /// when `cover` finds no cut set, or with `None` when the oracle
    /// rediscovers a path the cover was built to cut: constraint
    /// generation has wedged and the caller picks the way out.
    fn run_cover(
        mut self,
        mut cover: impl FnMut(&[Path]) -> Option<Vec<EdgeId>>,
    ) -> (Self, Option<AttackStatus>) {
        let mut paths: Vec<Path> = Vec::new();
        let status = loop {
            let Some(cuts) = cover(&paths) else {
                break Some(AttackStatus::Stuck);
            };
            self.view = self.problem.base_view().clone();
            self.removed.clear();
            self.total_cost = 0.0;
            if !cuts.into_iter().all(|e| self.cut(e)) {
                break Some(AttackStatus::BudgetExhausted);
            }
            match self.next_violating() {
                Err(status) => break Some(status),
                Ok(p) if paths.iter().any(|q| q.edges() == p.edges()) => break None,
                Ok(p) => paths.push(p),
            }
        };
        (self, status)
    }

    /// Finalizes the outcome with the given status.
    fn finish(self, algorithm: &str, status: AttackStatus) -> AttackOutcome {
        let runtime = self.started.elapsed();
        if obs::enabled() {
            obs::inc("pathattack.attack.runs");
            obs::record_value("pathattack.attack.edges_cut", self.removed.len() as u64);
            obs::record_value("pathattack.attack.iterations", self.iterations as u64);
            obs::global().record_span("pathattack.attack.run", runtime.as_nanos() as u64, 0);
            if status == AttackStatus::TimedOut {
                obs::inc("pathattack.attack.timeouts");
            }
            if self.degraded != Degradation::None {
                obs::inc("pathattack.attack.degraded");
            }
        }
        AttackOutcome {
            algorithm: algorithm.to_string(),
            removed: self.removed,
            total_cost: self.total_cost,
            iterations: self.iterations,
            runtime,
            status,
            degraded: self.degraded,
        }
    }
}

/// Solves the covering LP of both LP algorithms: one variable per
/// cuttable edge on the row paths (first-seen order), `min Σ cost·x`,
/// one row `Σ_{e ∈ path} x_e ≥ rhs` per `(path, rhs)`, `0 ≤ x ≤ upper`
/// when `upper` is given. An injected `lp_stall` fault caps the pivots
/// at zero.
///
/// Returns each variable's edge with the raw solver outcome, or `None`
/// when some row has no variable (no cut or perturbation reaches it).
fn solve_cover_lp<'a>(
    problem: &AttackProblem<'_>,
    rows: impl IntoIterator<Item = (&'a Path, f64)>,
    upper: Option<f64>,
) -> Option<(Vec<EdgeId>, Outcome)> {
    let rows: Vec<(&Path, f64)> = rows.into_iter().collect();
    let mut var_of: HashMap<EdgeId, usize> = HashMap::new();
    let mut edges: Vec<EdgeId> = Vec::new();
    for &e in rows.iter().flat_map(|(path, _)| path.edges()) {
        if problem.is_cuttable(e) && !var_of.contains_key(&e) {
            var_of.insert(e, edges.len());
            edges.push(e);
        }
    }
    let mut lp = LpProblem::minimize(edges.iter().map(|&e| problem.cost_of(e)).collect());
    if let Some(ub) = upper {
        for v in 0..edges.len() {
            lp.bound_var(v, ub);
        }
    }
    for (path, rhs) in rows {
        // A path repeating an edge gets its coefficient summed.
        let terms: Vec<(usize, f64)> = path
            .edges()
            .iter()
            .filter_map(|e| var_of.get(e).map(|&v| (v, 1.0)))
            .collect();
        if terms.is_empty() {
            return None;
        }
        lp.add_constraint(terms, ConstraintOp::Ge, rhs);
    }
    if faults::lp_stall_requested() {
        lp.set_iteration_limit(0);
    }
    Some((edges, lp.solve()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_is_reachable_by_name_and_alias() {
        let table = [
            ("LP-PathCover", "lp-pathcover", "lp"),
            ("GreedyPathCover", "greedy-pathcover", "pathcover"),
            ("GreedyEdge", "greedy-edge", "edge"),
            ("GreedyEig", "greedy-eig", "eig"),
            ("GreedyBetweenness", "greedy-betweenness", "betweenness"),
        ];
        let all: Vec<&str> = all_algorithms_extended().iter().map(|a| a.name()).collect();
        assert_eq!(all, table.map(|(name, _, _)| name));
        for (name, kebab, alias) in table {
            assert_eq!(algorithm_by_name(kebab).unwrap().name(), name);
            assert_eq!(algorithm_by_name(alias).unwrap().name(), name);
        }
        assert_eq!(
            algorithm_by_name("lp-perturb").unwrap_err(),
            "unknown algorithm \"lp-perturb\""
        );
    }
}
