//! `metro-serve`: a concurrent attack-planning query service.
//!
//! The paper's threat model — an attacker who, per (source, hospital)
//! victim pair, computes the cut set forcing traffic onto an
//! alternative route — is a *query* workload: many independent requests
//! against a small set of resident city networks. This crate serves
//! that workload as a long-running TCP service speaking a
//! length-prefixed JSON protocol ([`protocol`]), with:
//!
//! * a request router over resident networks ([`registry`]) dispatching
//!   `route` / `attack` / `recon` / `impact` to the existing
//!   `pathattack` and `traffic-sim` APIs;
//! * a batching admission queue ([`queue`]) grouping concurrent
//!   requests by (network, weight, target) so one `TargetContext`
//!   backward Dijkstra serves the whole group;
//! * load shedding with retry-after hints and per-request deadlines
//!   that produce the existing `timed_out` status;
//! * graceful drain on SIGTERM/ctrl-c ([`signal`]): the listener stops
//!   accepting, in-flight requests finish under a drain deadline, and
//!   the process exits 0;
//! * a resilience layer: workers and the accept loop run under a
//!   restart-budgeted supervisor ([`supervisor`]), per-city circuit
//!   breakers fast-fail unhealthy resident networks ([`breaker`]), a
//!   seeded chaos proxy injects deterministic connection faults for
//!   tests and the `resilience_proof` bench ([`chaos`]), and a
//!   retrying, reconnecting client enforces the retry contract
//!   ([`client`]). The `health` request kind reports breaker state,
//!   worker liveness, and drain status.
//!
//! Telemetry rides on the `obs` crate and is queryable in-band: the
//! `stats` request kind returns a structured snapshot (including
//! rolling 10s/60s window quantiles and rates), and the `metrics`
//! kind returns a Prometheus text exposition. Every admitted request
//! carries a request-scoped [`obs::TraceContext`]; with `--slow-ms N`
//! the span trees of over-threshold requests land in a JSONL
//! slow-query log ([`slowlog`]).
//!
//! # Examples
//!
//! ```
//! use serve::{Client, Request, RequestKind, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig {
//!     workers: 1,
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let mut client = Client::connect(&server.local_addr()).unwrap();
//! let pong = client
//!     .roundtrip(&Request::new(1, RequestKind::Ping, ""))
//!     .unwrap();
//! assert!(pong.ok);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod breaker;
pub mod chaos;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;
pub mod signal;
pub mod slowlog;
pub mod supervisor;

pub use breaker::{BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker};
pub use chaos::{ChaosPlan, ChaosProxy, ChaosSite};
pub use client::{Call, ResilientClient, RetryBudget, RetryPolicy};
pub use protocol::{
    error_response, frame_checksum, ok_response, read_frame, write_frame, FrameError, Injection,
    Request, RequestKind, Response, FRAME_HEADER, MAX_EXACT_ID, MAX_FRAME,
};
pub use queue::BatchQueue;
pub use registry::{NetworkRegistry, ResidentNetwork};
pub use server::{Client, Server, ServerConfig};
pub use slowlog::SlowQueryLog;
pub use supervisor::RestartBudget;

/// Resolves a worker-pool size from an optional `--workers` /
/// `--threads`-style flag value.
///
/// This is the one parser shared by the `experiment` subcommand, the
/// `serve` subcommand, and the `serve_load` generator, so every entry
/// point sizes its pool identically: an explicit value must be a
/// positive integer; absent, the machine's available parallelism wins
/// (falling back to 4 when it cannot be queried).
///
/// # Errors
///
/// Describes the unparseable or zero value.
pub fn resolve_workers(explicit: Option<&str>) -> Result<usize, String> {
    match explicit {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            Ok(_) => Err("worker count must be at least 1".to_string()),
            Err(_) => Err(format!("bad worker count {v:?}")),
        },
        None => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)),
    }
}

#[cfg(test)]
mod tests {
    use super::resolve_workers;

    #[test]
    fn resolve_workers_parses_and_defaults() {
        assert_eq!(resolve_workers(Some("3")), Ok(3));
        assert!(resolve_workers(Some("0")).is_err());
        assert!(resolve_workers(Some("many")).is_err());
        assert!(resolve_workers(None).unwrap() >= 1);
    }
}
