//! Generation scale and shared configuration.

use serde::{Deserialize, Serialize};

/// How large a synthetic city to generate.
///
/// The paper's street networks (Table I) range from ~11 k nodes (Boston)
/// to ~52 k nodes (Los Angeles). Regenerating every table at that size is
/// supported (`Paper`), but most tests and CI runs use the proportionally
/// shrunk `Medium`/`Small` scales: the topological character of each
/// generator (latticeness, degree distribution, path-rank gaps) is scale-
/// invariant by construction.
///
/// Factors *above* 1.0 are first-class too: `X10` and `Mega` grow the
/// presets past Table I (Los Angeles at `Mega` is ~1.3 M intersections)
/// for the continental-scale routing benches. Generation stays
/// near-linear in the node count at every tier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Scale {
    /// ~1/16 of the paper's node counts. Unit-test sized.
    Small,
    /// ~1/4 of the paper's node counts. Default for local experiment
    /// runs and benches.
    #[default]
    Medium,
    /// Full Table I node counts.
    Paper,
    /// 10× the paper's node counts (~0.5 M nodes for Los Angeles).
    X10,
    /// 25× the paper's node counts — the million-node tier (Los Angeles
    /// crosses 1.29 M intersections).
    Mega,
    /// Custom linear factor on the paper's node counts (1.0 == `Paper`).
    Custom(f64),
}

impl Scale {
    /// Linear factor applied to each city's *node count*.
    pub fn node_factor(self) -> f64 {
        match self {
            Scale::Small => 1.0 / 16.0,
            Scale::Medium => 1.0 / 4.0,
            Scale::Paper => 1.0,
            Scale::X10 => 10.0,
            Scale::Mega => 25.0,
            Scale::Custom(f) => f.max(1e-3),
        }
    }

    /// Factor applied to one *side* of a roughly square layout
    /// (`√node_factor`).
    pub fn side_factor(self) -> f64 {
        self.node_factor().sqrt()
    }

    /// Parses a CLI `--scale` value: a named tier (`small`, `medium`,
    /// `paper`, `x10`, `mega`) or a bare linear factor (`0.05`, `2.5`).
    ///
    /// Returns `None` for anything else, including a factor that is not
    /// finite or not above 0, so callers own the error path.
    pub fn from_cli(value: &str) -> Option<Scale> {
        match value {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            "x10" => Some(Scale::X10),
            "mega" => Some(Scale::Mega),
            other => other
                .parse::<f64>()
                .ok()
                .filter(|f| f.is_finite() && *f > 0.0)
                .map(Scale::Custom),
        }
    }

    /// The tier's CLI spelling (`Custom` renders its factor).
    pub fn cli_name(self) -> String {
        match self {
            Scale::Small => "small".to_string(),
            Scale::Medium => "medium".to_string(),
            Scale::Paper => "paper".to_string(),
            Scale::X10 => "x10".to_string(),
            Scale::Mega => "mega".to_string(),
            Scale::Custom(f) => format!("{f}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_ordered() {
        assert!(Scale::Small.node_factor() < Scale::Medium.node_factor());
        assert!(Scale::Medium.node_factor() < Scale::Paper.node_factor());
        assert_eq!(Scale::Paper.node_factor(), 1.0);
        assert!(Scale::Paper.node_factor() < Scale::X10.node_factor());
        assert!(Scale::X10.node_factor() < Scale::Mega.node_factor());
    }

    #[test]
    fn side_factor_is_sqrt() {
        let s = Scale::Medium;
        assert!((s.side_factor().powi(2) - s.node_factor()).abs() < 1e-12);
        let m = Scale::Mega;
        assert!((m.side_factor().powi(2) - m.node_factor()).abs() < 1e-9);
    }

    #[test]
    fn custom_factor_clamped_positive() {
        assert!(Scale::Custom(-1.0).node_factor() > 0.0);
        assert_eq!(Scale::Custom(0.5).node_factor(), 0.5);
    }

    /// Every named tier round-trips through its CLI spelling, and bare
    /// factors (including >1.0) parse as `Custom`.
    #[test]
    fn cli_names_round_trip() {
        for tier in [
            Scale::Small,
            Scale::Medium,
            Scale::Paper,
            Scale::X10,
            Scale::Mega,
        ] {
            assert_eq!(Scale::from_cli(&tier.cli_name()), Some(tier));
        }
        assert_eq!(Scale::from_cli("2.5"), Some(Scale::Custom(2.5)));
        assert_eq!(Scale::from_cli("0.05"), Some(Scale::Custom(0.05)));
        assert_eq!(Scale::from_cli("gigantic"), None);
        assert_eq!(Scale::from_cli(""), None);
    }
}
