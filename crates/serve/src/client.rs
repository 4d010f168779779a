//! Resilient client: retries, reconnects, backoff, and deadline
//! propagation for metro-serve callers.
//!
//! [`ResilientClient`] is the one client the rest of the tree uses —
//! `serve_load`, the `trace` dashboard, the `resilience_proof` bench,
//! and the integration tests — so the retry contract lives in exactly
//! one place:
//!
//! * **Server sheds are always retryable.** An `ok: false` response
//!   carrying `retry_after_ms` means the request was *never executed*
//!   (admission queue full, circuit open, draining); the client waits
//!   `max(hint, backoff)` and re-sends on the same connection.
//! * **Transport failures are retryable only for idempotent kinds.**
//!   A connection that dies mid-call leaves the request's fate unknown;
//!   re-sending is safe only if re-execution is
//!   ([`RequestKind::is_idempotent`]). The client drops the dead
//!   stream, reconnects, and re-sends — or surfaces the error for
//!   non-idempotent kinds.
//! * **Plain errors are final.** `ok: false` without a hint (bad
//!   parameters, unknown city, worker panic) is the answer; retrying
//!   would just repeat it — and for panic responses, re-poison a fresh
//!   worker.
//!
//! Backoff is exponential with deterministic jitter (an FNV hash of
//! `(seed, attempt, call sequence)` — no global RNG, so a seeded run
//! replays the same schedule), and a token-bucket [`RetryBudget`]
//! bounds the *sustained* retry rate: retries spend a token, successes
//! earn a fraction back, so a hiccup retries freely but a dead server
//! cannot amplify load indefinitely.

use crate::protocol::{configure_stream, read_frame, write_frame, FrameError, Request, Response};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Retry tuning for a [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call (first try included). 1 = never retry.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// End-to-end deadline for one call, spanning every attempt and
    /// backoff sleep. Propagated to the server: each attempt's
    /// `deadline_ms` is clamped to the remaining budget.
    pub deadline: Option<Duration>,
    /// Read/write timeout applied to the socket for each attempt, so a
    /// stalled server (or a slow-loris proxy) costs one attempt, not a
    /// hung client.
    pub attempt_timeout: Option<Duration>,
    /// Seed for deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            deadline: None,
            attempt_timeout: Some(Duration::from_secs(5)),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never waits: one attempt, no
    /// backoff, no attempt timeout. Benchmarks measuring the raw
    /// server use this so client-side resilience cannot mask a
    /// regression.
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            deadline: None,
            attempt_timeout: None,
            jitter_seed: 0,
        }
    }
}

/// Token-bucket retry budget: bounds the sustained ratio of retries to
/// successes without forbidding short bursts.
#[derive(Debug)]
pub struct RetryBudget {
    capacity: f64,
    tokens: f64,
    earn_per_success: f64,
}

impl RetryBudget {
    /// A full bucket of `capacity` retry tokens; each success deposits
    /// `earn_per_success` back (capped at capacity).
    pub fn new(capacity: f64, earn_per_success: f64) -> RetryBudget {
        let capacity = capacity.max(1.0);
        RetryBudget {
            capacity,
            tokens: capacity,
            earn_per_success: earn_per_success.max(0.0),
        }
    }

    fn try_spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn earn(&mut self) {
        self.tokens = (self.tokens + self.earn_per_success).min(self.capacity);
    }

    /// Tokens currently available (fractional while earning back).
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget::new(10.0, 0.5)
    }
}

/// The outcome of one [`ResilientClient::call`].
#[derive(Debug, Clone)]
pub struct Call {
    /// The final parsed response (may still be `ok: false` for
    /// non-retryable errors — the call *transport* succeeded).
    pub response: Response,
    /// The raw response payload, for byte-identity comparisons.
    pub raw: Vec<u8>,
    /// Attempts consumed, including the successful one.
    pub attempts: u32,
}

/// A reconnecting, retrying metro-serve client. Not thread-safe; each
/// driver thread owns one.
#[derive(Debug)]
pub struct ResilientClient {
    addr: String,
    policy: RetryPolicy,
    budget: RetryBudget,
    stream: Option<TcpStream>,
    connected_once: bool,
    seq: u64,
    retries: u64,
    reconnects: u64,
}

impl ResilientClient {
    /// A client for `addr` (connects lazily on the first call).
    pub fn new(addr: &str, policy: RetryPolicy) -> ResilientClient {
        ResilientClient {
            addr: addr.to_string(),
            policy,
            budget: RetryBudget::default(),
            stream: None,
            connected_once: false,
            seq: 0,
            retries: 0,
            reconnects: 0,
        }
    }

    /// Replaces the default retry budget.
    pub fn with_budget(mut self, budget: RetryBudget) -> ResilientClient {
        self.budget = budget;
        self
    }

    /// Retries performed over this client's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reconnections performed over this client's lifetime.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Deterministic jittered backoff before attempt `attempt + 1`
    /// (attempt is 1-based): `min(max, base * 2^(attempt-1))` scaled by
    /// a hash-derived factor in `[0.5, 1.0)`.
    fn backoff_for(&self, attempt: u32) -> Duration {
        if self.policy.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.policy.max_backoff.max(self.policy.base_backoff));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for b in self.policy.jitter_seed.to_le_bytes() {
            mix(b);
        }
        mix(attempt as u8);
        for b in self.seq.to_le_bytes() {
            mix(b);
        }
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        capped.mul_f64(0.5 + unit / 2.0)
    }

    fn connect(&mut self, remaining: Option<Duration>) -> Result<(), String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        configure_stream(&stream).map_err(|e| format!("configure {}: {e}", self.addr))?;
        let timeout = match (self.policy.attempt_timeout, remaining) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (Some(a), None) => Some(a),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        };
        if let Some(t) = timeout {
            let t = t.max(Duration::from_millis(1));
            stream.set_read_timeout(Some(t)).ok();
            stream.set_write_timeout(Some(t)).ok();
        }
        self.stream = Some(stream);
        Ok(())
    }

    /// Sends `request` and waits for its response, retrying per the
    /// policy. `Ok` means a response arrived — it may still carry
    /// `ok: false` for final (non-retryable) server errors; `Err`
    /// means every allowed attempt failed.
    ///
    /// # Errors
    ///
    /// Describes the last failure after retries are exhausted (or the
    /// first one, for non-idempotent kinds / empty retry budgets).
    pub fn call(&mut self, request: &Request) -> Result<Call, String> {
        self.seq = self.seq.wrapping_add(1);
        let started = Instant::now();
        let mut attempt: u32 = 0;
        let mut last_error = String::new();
        while attempt < self.policy.max_attempts.max(1) {
            attempt += 1;
            let remaining = match self.policy.deadline {
                Some(d) => match d.checked_sub(started.elapsed()) {
                    Some(r) if r > Duration::ZERO => Some(r),
                    _ => {
                        obs::inc("serve.client.deadline_exceeded");
                        return Err(format!(
                            "call deadline exceeded after {attempt} attempt(s): {last_error}"
                        ));
                    }
                },
                None => None,
            };
            match self.attempt(request, remaining) {
                Outcome::Done(call) => {
                    self.budget.earn();
                    return Ok(Call {
                        attempts: attempt,
                        ..call
                    });
                }
                Outcome::RetryableShed(raw, response) => {
                    let hint = Duration::from_millis(response.retry_after_ms.unwrap_or(0));
                    last_error = response
                        .error
                        .clone()
                        .unwrap_or_else(|| "shed without reason".to_string());
                    if !self.retry_allowed(attempt) {
                        // Out of attempts or budget: the shed response
                        // itself is the best answer we have.
                        return Ok(Call {
                            response,
                            raw,
                            attempts: attempt,
                        });
                    }
                    self.sleep_backoff(hint.max(self.backoff_for(attempt)), remaining);
                }
                Outcome::Transport(err) => {
                    last_error = err;
                    self.stream = None;
                    if !request.kind.is_idempotent() {
                        obs::inc("serve.client.giveups");
                        return Err(format!(
                            "transport failure on non-idempotent {} request (not retried): {last_error}",
                            request.kind.name()
                        ));
                    }
                    if !self.retry_allowed(attempt) {
                        break;
                    }
                    self.sleep_backoff(self.backoff_for(attempt), remaining);
                }
            }
        }
        obs::inc("serve.client.giveups");
        Err(format!("gave up after {attempt} attempt(s): {last_error}"))
    }

    /// Whether one more attempt may run: attempts left and budget paid.
    fn retry_allowed(&mut self, attempt: u32) -> bool {
        if attempt >= self.policy.max_attempts.max(1) {
            return false;
        }
        if !self.budget.try_spend() {
            obs::inc("serve.client.budget_exhausted");
            return false;
        }
        self.retries += 1;
        obs::inc("serve.client.retries");
        true
    }

    fn sleep_backoff(&self, wait: Duration, remaining: Option<Duration>) {
        let wait = match remaining {
            Some(r) => wait.min(r),
            None => wait,
        };
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }

    fn attempt(&mut self, request: &Request, remaining: Option<Duration>) -> Outcome {
        if self.stream.is_none() {
            if self.connected_once {
                self.reconnects += 1;
                obs::inc("serve.client.reconnects");
            }
            if let Err(e) = self.connect(remaining) {
                return Outcome::Transport(e);
            }
            self.connected_once = true;
        }
        let stream = self.stream.as_mut().expect("stream just ensured");
        // Propagate the remaining deadline so the server sheds work we
        // would no longer wait for.
        let payload = match remaining {
            Some(r) => {
                let mut req = request.clone();
                let remaining_ms = (r.as_millis() as u64).max(1);
                req.deadline_ms = Some(match req.deadline_ms {
                    Some(d) => d.min(remaining_ms),
                    None => remaining_ms,
                });
                req.to_payload()
            }
            None => request.to_payload(),
        };
        if let Err(e) = write_frame(stream, &payload) {
            return Outcome::Transport(format!("write: {e}"));
        }
        let raw = match read_frame(stream) {
            Ok(raw) => raw,
            Err(FrameError::Corrupted { expected, got }) => {
                return Outcome::Transport(format!(
                    "response frame corrupted (header {expected:#010x}, payload {got:#010x})"
                ));
            }
            Err(e) => return Outcome::Transport(format!("read: {e}")),
        };
        let response = match Response::parse(&raw) {
            Ok(r) => r,
            Err(e) => return Outcome::Transport(format!("unparseable response: {e}")),
        };
        if response.id != request.id {
            // The stream is desynchronized (a stale response from a
            // previous timed-out attempt): drop it and start clean.
            return Outcome::Transport(format!(
                "response id {} does not match request id {}",
                response.id, request.id
            ));
        }
        if !response.ok && response.retry_after_ms.is_some() {
            return Outcome::RetryableShed(raw, response);
        }
        Outcome::Done(Call {
            response,
            raw,
            attempts: 0,
        })
    }
}

enum Outcome {
    /// A final response (success or non-retryable error).
    Done(Call),
    /// The server shed the request with a retry hint.
    RetryableShed(Vec<u8>, Response),
    /// The transport failed with the request's fate unknown.
    Transport(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RequestKind;
    use std::io::Write as _;
    use std::net::TcpListener;

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            jitter_seed: 9,
            ..RetryPolicy::default()
        };
        let c1 = ResilientClient::new("127.0.0.1:1", policy.clone());
        let c2 = ResilientClient::new("127.0.0.1:1", policy);
        for attempt in 1..=6 {
            let b1 = c1.backoff_for(attempt);
            assert_eq!(b1, c2.backoff_for(attempt), "same seed, same schedule");
            // Jitter keeps each backoff in [cap/2, cap).
            let cap =
                Duration::from_millis(40).min(Duration::from_millis(10 * (1 << (attempt - 1))));
            assert!(
                b1 >= cap.mul_f64(0.5) && b1 < cap,
                "attempt {attempt}: {b1:?}"
            );
        }
        let no_retry = ResilientClient::new("127.0.0.1:1", RetryPolicy::no_retry());
        assert_eq!(no_retry.backoff_for(1), Duration::ZERO);
    }

    #[test]
    fn budget_spends_and_earns_back() {
        let mut b = RetryBudget::new(2.0, 0.5);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend(), "bucket drained");
        b.earn();
        b.earn();
        assert!(b.try_spend(), "two successes earn one retry back");
        for _ in 0..100 {
            b.earn();
        }
        assert!(b.available() <= 2.0, "earning caps at capacity");
    }

    #[test]
    fn shed_then_success_retries_on_hint() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // First attempt: shed with a tiny hint. Second: success.
            let req = read_frame(&mut s).unwrap();
            let id = Request::parse(&req).unwrap().id;
            write_frame(
                &mut s,
                &crate::protocol::error_response(id, "overloaded", Some(2)),
            )
            .unwrap();
            let req = read_frame(&mut s).unwrap();
            let id = Request::parse(&req).unwrap().id;
            write_frame(
                &mut s,
                &crate::protocol::ok_response(
                    id,
                    &RequestKind::Ping,
                    obs::JsonValue::Obj(Default::default()),
                ),
            )
            .unwrap();
        });
        let mut client = ResilientClient::new(&addr, RetryPolicy::default());
        let call = client
            .call(&Request::new(7, RequestKind::Ping, ""))
            .unwrap();
        assert!(call.response.ok);
        assert_eq!(call.attempts, 2);
        assert_eq!(client.retries(), 1);
        server.join().unwrap();
    }

    #[test]
    fn transport_failure_reconnects_and_final_errors_do_not_retry() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Conn 1: close mid-frame (truncated response).
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_frame(&mut s).unwrap();
            s.write_all(&[0, 0, 0]).unwrap();
            drop(s);
            // Conn 2: answer with a final (hint-less) error.
            let (mut s, _) = listener.accept().unwrap();
            let req = read_frame(&mut s).unwrap();
            let id = Request::parse(&req).unwrap().id;
            write_frame(
                &mut s,
                &crate::protocol::error_response(id, "unknown city \"nowhere\"", None),
            )
            .unwrap();
        });
        let mut client = ResilientClient::new(&addr, RetryPolicy::default());
        let call = client
            .call(&Request::new(3, RequestKind::Route, "nowhere"))
            .unwrap();
        assert!(!call.response.ok, "final error is returned, not retried");
        assert_eq!(call.attempts, 2, "one transport retry, then the answer");
        assert_eq!(client.reconnects(), 1);
        server.join().unwrap();
    }

    #[test]
    fn no_retry_policy_fails_fast() {
        // Nothing is listening here: one attempt, immediate error.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let mut client = ResilientClient::new(&addr, RetryPolicy::no_retry());
        let err = client
            .call(&Request::new(1, RequestKind::Ping, ""))
            .unwrap_err();
        assert!(err.contains("gave up after 1 attempt"), "{err}");
    }

    #[test]
    fn deadline_bounds_the_whole_call() {
        // Server accepts but never responds; attempt_timeout forces
        // each attempt to fail, the deadline ends the call.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let keep = std::thread::spawn(move || {
            let mut held = Vec::new();
            for _ in 0..4 {
                match listener.accept() {
                    Ok((s, _)) => held.push(s),
                    Err(_) => break,
                }
            }
            std::thread::sleep(Duration::from_millis(400));
            drop(held);
        });
        let mut client = ResilientClient::new(
            &addr,
            RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                deadline: Some(Duration::from_millis(150)),
                attempt_timeout: Some(Duration::from_millis(40)),
                jitter_seed: 1,
            },
        );
        let started = Instant::now();
        let err = client
            .call(&Request::new(2, RequestKind::Ping, ""))
            .unwrap_err();
        assert!(
            err.contains("deadline exceeded") || err.contains("gave up"),
            "{err}"
        );
        assert!(
            started.elapsed() < Duration::from_millis(1200),
            "deadline bounded the call, took {:?}",
            started.elapsed()
        );
        keep.join().unwrap();
    }
}
