//! Shared CLI surface: accepted flags, usage text, and the `--metrics`
//! telemetry plumbing.
//!
//! This lives in the library (rather than `main.rs`) so the integration
//! tests can assert that every accepted flag is documented in the usage
//! text — the two lists can no longer drift apart silently.

use obs::TelemetrySink;
use std::io;

/// Every `--key value` flag the CLI accepts, across all subcommands.
pub const KNOWN_FLAGS: [&str; 39] = [
    "city",
    "scale",
    "seed",
    "rank",
    "weight",
    "cost",
    "algorithm",
    "source",
    "hospital",
    "top",
    "radius",
    "trips",
    "svg",
    "victims",
    "max-hardened",
    "metrics",
    "sources",
    "deadline",
    "max-oracle-calls",
    "resume",
    "csv",
    "faults",
    "threads",
    "listen",
    "workers",
    "queue-depth",
    "batch-max",
    "drain-deadline",
    "slow-ms",
    "slow-log",
    "addr",
    "interval",
    "once",
    "chaos",
    "perturb-cap",
    "integer-round",
    "table",
    "fig",
    "out",
];

/// Flags that take no value (presence alone sets them).
pub const BOOLEAN_FLAGS: [&str; 2] = ["once", "integer-round"];

/// Every subcommand the CLI dispatches on, in usage order.
pub const SUBCOMMANDS: [&str; 12] = [
    "generate",
    "attack",
    "recon",
    "harden",
    "isolate",
    "impact",
    "coordinate",
    "experiment",
    "serve",
    "trace",
    "chaos",
    "reproduce",
];

/// Usage text printed on bad invocations; documents every known flag.
pub const USAGE: &str =
    "usage: metro-attack <generate|attack|recon|harden|isolate|impact|coordinate|experiment|serve|trace|chaos|reproduce> \
[--city boston|sf|chicago|la] [--scale small|medium|paper|x10|mega|<f>] [--seed N] \
[--rank K] [--weight length|time] [--cost uniform|lanes|width] \
[--algorithm lp|greedy-pathcover|greedy-edge|greedy-eig|greedy-betweenness|lp-perturb] \
[--source N] [--hospital IDX] [--top K] [--radius M] [--trips N] [--svg FILE] \
[--victims N] [--max-hardened K] [--metrics table|jsonl|FILE] \
[--sources N] [--deadline SECS] [--max-oracle-calls N] [--resume CKPT.jsonl] \
[--csv FILE] [--faults SPEC] [--threads N] \
[--listen ADDR:PORT] [--workers N] [--queue-depth N] [--batch-max N] \
[--drain-deadline SECS] [--slow-ms N] [--slow-log FILE] \
[--addr HOST:PORT] [--interval SECS] [--once] [--chaos SPEC] \
[--perturb-cap DELTA] [--integer-round] [--table N] [--fig N] [--out DIR]";

/// Destination of the `--metrics` telemetry report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsMode {
    /// Human-readable table on stderr (keeps stdout parseable).
    Table,
    /// JSON lines on stdout.
    Jsonl,
    /// JSON lines written to the given file.
    File(String),
}

impl MetricsMode {
    /// Parses a `--metrics` value: `table`, `jsonl`, or a file path.
    pub fn parse(value: &str) -> MetricsMode {
        match value {
            "table" => MetricsMode::Table,
            "jsonl" => MetricsMode::Jsonl,
            path => MetricsMode::File(path.to_string()),
        }
    }

    /// Exports the global registry's snapshot to this destination.
    pub fn emit(&self) -> io::Result<()> {
        let snapshot = obs::global().snapshot();
        match self {
            MetricsMode::Table => obs::TableSink::new(io::stderr().lock()).export(&snapshot),
            MetricsMode::Jsonl => obs::JsonlSink::new(io::stdout().lock()).export(&snapshot),
            MetricsMode::File(path) => {
                // Buffer and rename-in-place so a crash mid-export never
                // leaves a truncated metrics file behind.
                let mut buf: Vec<u8> = Vec::new();
                obs::JsonlSink::new(&mut buf).export(&snapshot)?;
                experiments::write_atomic(std::path::Path::new(path), &buf)
            }
        }
    }
}

/// Static span name for the per-command `harness.*` timer.
pub fn command_span_name(cmd: &str) -> &'static str {
    match cmd {
        "generate" => "harness.cmd.generate",
        "attack" => "harness.cmd.attack",
        "recon" => "harness.cmd.recon",
        "harden" => "harness.cmd.harden",
        "isolate" => "harness.cmd.isolate",
        "impact" => "harness.cmd.impact",
        "coordinate" => "harness.cmd.coordinate",
        "experiment" => "harness.cmd.experiment",
        "serve" => "harness.cmd.serve",
        "trace" => "harness.cmd.trace",
        "chaos" => "harness.cmd.chaos",
        "reproduce" => "harness.cmd.reproduce",
        _ => "harness.cmd.other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_known_flag_is_documented_in_usage() {
        for flag in KNOWN_FLAGS {
            assert!(
                USAGE.contains(&format!("--{flag}")),
                "usage text omits --{flag}"
            );
        }
    }

    #[test]
    fn boolean_flags_are_known_flags() {
        for flag in BOOLEAN_FLAGS {
            assert!(
                KNOWN_FLAGS.contains(&flag),
                "boolean flag --{flag} missing from KNOWN_FLAGS"
            );
        }
    }

    /// The PATHPERTURB surface must stay wired: both perturbation flags
    /// known (with `--integer-round` as presence-only), and the usage
    /// text advertising the `lp-perturb` algorithm spelling that
    /// `attack`/`experiment` dispatch on.
    #[test]
    fn perturbation_flags_are_wired() {
        assert!(KNOWN_FLAGS.contains(&"perturb-cap"));
        assert!(KNOWN_FLAGS.contains(&"integer-round"));
        assert!(BOOLEAN_FLAGS.contains(&"integer-round"));
        assert!(!BOOLEAN_FLAGS.contains(&"perturb-cap"), "cap takes a value");
        assert!(
            USAGE.contains("lp-perturb"),
            "usage omits the lp-perturb algorithm"
        );
    }

    /// The `reproduce` surface must stay wired: the subcommand listed,
    /// and its three flags known, valued and in the usage text.
    #[test]
    fn reproduce_flags_are_wired() {
        assert!(SUBCOMMANDS.contains(&"reproduce"));
        for flag in ["table", "fig", "out"] {
            assert!(KNOWN_FLAGS.contains(&flag), "--{flag} not a known flag");
            assert!(!BOOLEAN_FLAGS.contains(&flag), "--{flag} takes a value");
        }
        assert!(USAGE.contains("[--table N] [--fig N] [--out DIR]"));
    }

    /// Guards the `--scale` surface against drift: every named tier that
    /// `citygen::Scale::from_cli` accepts must be listed in the usage
    /// text, and every tier the usage text advertises must parse.
    #[test]
    fn scale_tiers_match_usage() {
        let list = USAGE
            .split_once("--scale ")
            .map(|(_, rest)| rest.split(']').next().unwrap_or(""))
            .expect("usage documents --scale");
        let tiers: Vec<&str> = list.split('|').filter(|t| *t != "<f>").collect();
        assert_eq!(tiers, ["small", "medium", "paper", "x10", "mega"]);
        for tier in tiers {
            assert!(
                citygen::Scale::from_cli(tier).is_some(),
                "usage advertises --scale {tier} but it does not parse"
            );
        }
        // Factors above 1.0 are first-class, named or bare.
        assert_eq!(citygen::Scale::from_cli("x10"), Some(citygen::Scale::X10));
        assert_eq!(citygen::Scale::from_cli("mega"), Some(citygen::Scale::Mega));
        assert_eq!(
            citygen::Scale::from_cli("12.5"),
            Some(citygen::Scale::Custom(12.5))
        );
        // A factor must be finite and above 0.
        for bad in ["-1", "0", "nan", "inf"] {
            assert_eq!(citygen::Scale::from_cli(bad), None, "--scale {bad}");
        }
    }

    #[test]
    fn metrics_mode_parses() {
        assert_eq!(MetricsMode::parse("table"), MetricsMode::Table);
        assert_eq!(MetricsMode::parse("jsonl"), MetricsMode::Jsonl);
        assert_eq!(
            MetricsMode::parse("out/metrics.jsonl"),
            MetricsMode::File("out/metrics.jsonl".into())
        );
    }

    #[test]
    fn command_span_names_follow_convention() {
        for cmd in SUBCOMMANDS {
            assert_eq!(command_span_name(cmd), format!("harness.cmd.{cmd}"));
        }
        assert_eq!(command_span_name("bogus"), "harness.cmd.other");
    }

    /// Guards `USAGE` and `SUBCOMMANDS` against drifting apart: every
    /// subcommand in the usage `<a|b|...>` list must be a known
    /// subcommand with its own span name, and vice versa.
    #[test]
    fn usage_subcommand_list_matches_span_names() {
        let list = USAGE
            .split_once('<')
            .and_then(|(_, rest)| rest.split_once('>'))
            .map(|(inner, _)| inner)
            .expect("usage lists subcommands in <...>");
        let from_usage: Vec<&str> = list.split('|').collect();
        assert_eq!(
            from_usage, SUBCOMMANDS,
            "usage <...> list and SUBCOMMANDS drifted apart"
        );
        for cmd in from_usage {
            assert_ne!(
                command_span_name(cmd),
                "harness.cmd.other",
                "subcommand {cmd:?} in USAGE has no span name"
            );
        }
    }
}
