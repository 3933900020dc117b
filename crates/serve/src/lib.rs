//! `grserve` — simulation-as-a-service for the LLC replay harness.
//!
//! A long-lived daemon (`grserved`) exposes the monomorphized replay path
//! over a hand-rolled HTTP/1.1 API, turning the one-shot CLI workflow
//! into a shared, cached service:
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /v1/jobs` | Submit a job spec (apps × frames × policies × geometry) |
//! | `GET /v1/jobs/{id}` | Lifecycle state + parsed result |
//! | `GET /v1/jobs/{id}/result` | Raw payload bytes (bit-for-bit surface) |
//! | `GET /v1/policies`, `/v1/apps` | Discoverable vocabulary |
//! | `GET /metrics` | Prometheus text exposition |
//!
//! The connection layer ([`eventloop`]) is a single-threaded epoll
//! readiness loop ([`poll`]) speaking HTTP/1.1 keep-alive with pipelining
//! — one daemon holds tens of thousands of idle connections for the cost
//! of their buffers. Every request is answered inline on the loop
//! thread; simulation runs on a Condvar worker pool, and clients poll
//! `GET /v1/jobs/{id}` for the outcome.
//!
//! Three properties hold the design together:
//!
//! 1. **Canonical specs** ([`spec`]): requests normalize before hashing,
//!    so textual variation never defeats deduplication.
//! 2. **Content-addressed results** ([`resultcache`]): the job id is the
//!    SHA-256 of the canonical spec, so cached payloads need no
//!    invalidation — memory tier for the process, size-bounded disk tier
//!    across restarts. Each disk file carries its payload's SHA-256 and is
//!    checked on every read, so a damaged file is recomputed, never
//!    served.
//! 3. **Deterministic payloads** ([`job`]): no wall-clock fields, same
//!    replay path and aggregation order as the offline tools, so the
//!    service answer is bit-identical to a direct run, whether it was
//!    executed or read from either cache tier. `tests/daemon.rs` asserts
//!    exactly that against the spawned binary at four threads.
//!
//! Admission control is a bounded queue: beyond `queue_cap` pending jobs
//! the server answers 429 with `Retry-After` instead of accumulating
//! unbounded work. Abusive connections are bounded too: 408 for stalled
//! requests, 431/413 for oversized ones, an idle timeout, and an accept
//! cap. Shutdown (SIGTERM / ctrl-C in `grserved`) drains: accepted jobs
//! finish, new submissions get 503, reads keep working through a short
//! linger window.

pub mod eventloop;
pub mod hash;
pub mod http;
pub mod job;
pub mod metrics;
pub mod poll;
pub mod resultcache;
pub mod server;
pub mod spec;

pub use job::{execute, try_execute, JobOutput};
pub use server::{default_executor, start, ExecuteFn, ServerConfig, ServerHandle};
pub use spec::JobSpec;
