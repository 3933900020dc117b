//! Service counters and their Prometheus text exposition.
//!
//! Everything is a monotonic `AtomicU64` bumped with relaxed ordering —
//! the counters feed dashboards, not control flow, so cross-counter
//! consistency is not required. Gauges (queue depth, in-flight jobs,
//! cache occupancy) are *not* stored here; they are sampled by the caller
//! at scrape time and passed into [`Metrics::render`] through a
//! [`ServerSnapshot`]. Connection-state gauges are the exception: the
//! event loop refreshes its [`ConnGauges`] block every tick, and the
//! renderer reads them straight from the shared atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::eventloop::ConnGauges;

/// The endpoints the server distinguishes in per-endpoint counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/jobs`
    SubmitJob,
    /// `GET /v1/jobs/{id}`
    GetJob,
    /// `GET /v1/policies`
    Policies,
    /// `GET /v1/apps`
    Apps,
    /// `GET /v1/profiles`
    Profiles,
    /// `GET /metrics`
    Metrics,
    /// Anything else (404s, bad methods, parse failures).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 7] = [
        Endpoint::SubmitJob,
        Endpoint::GetJob,
        Endpoint::Policies,
        Endpoint::Apps,
        Endpoint::Profiles,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    fn index(self) -> usize {
        match self {
            Endpoint::SubmitJob => 0,
            Endpoint::GetJob => 1,
            Endpoint::Policies => 2,
            Endpoint::Apps => 3,
            Endpoint::Profiles => 4,
            Endpoint::Metrics => 5,
            Endpoint::Other => 6,
        }
    }

    /// The `endpoint` label value in the exposition.
    fn label(self) -> &'static str {
        match self {
            Endpoint::SubmitJob => "jobs_post",
            Endpoint::GetJob => "jobs_get",
            Endpoint::Policies => "policies",
            Endpoint::Apps => "apps",
            Endpoint::Profiles => "profiles",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }
}

/// Which cache tier satisfied a result lookup (label value in
/// `grserve_result_cache_hits_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// In-process memory tier.
    Memory,
    /// On-disk tier beside the trace cache.
    Disk,
}

#[derive(Default)]
struct EndpointStats {
    requests: AtomicU64,
    latency_nanos: AtomicU64,
}

/// Scrape-time samples the renderer cannot read from atomics.
pub struct ServerSnapshot {
    /// Jobs waiting in the queue.
    pub queue_depth: usize,
    /// Jobs currently executing.
    pub inflight: usize,
    /// Jobs known to the job table.
    pub jobs_tracked: usize,
    /// Disk files evicted to stay under the cache budget.
    pub cache_evictions: u64,
    /// Disk files deleted because their payload failed its digest check.
    pub cache_corrupt: u64,
    /// Bytes resident in the disk cache tier.
    pub cache_disk_bytes: u64,
}

/// All service counters. One instance lives inside the server and is
/// shared by every connection and worker thread.
#[derive(Default)]
pub struct Metrics {
    endpoints: [EndpointStats; 7],
    /// Jobs accepted into the queue.
    pub jobs_submitted: AtomicU64,
    /// Submissions that joined an already queued/running job.
    pub jobs_coalesced: AtomicU64,
    /// Jobs whose execution finished successfully.
    pub jobs_completed: AtomicU64,
    /// Jobs whose execution panicked.
    pub jobs_failed: AtomicU64,
    /// Submissions refused with 429 because the queue was full.
    pub jobs_rejected: AtomicU64,
    /// Executions started by workers (a cache hit never increments this).
    pub executions: AtomicU64,
    result_cache_hits_memory: AtomicU64,
    result_cache_hits_disk: AtomicU64,
    /// LLC accesses replayed by completed executions.
    pub replay_accesses: AtomicU64,
}

impl Metrics {
    /// Records one handled request against its endpoint.
    pub fn record_request(&self, endpoint: Endpoint, latency: Duration) {
        let slot = &self.endpoints[endpoint.index()];
        slot.requests.fetch_add(1, Ordering::Relaxed);
        slot.latency_nanos.fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records a result-cache hit on the given tier.
    pub fn record_cache_hit(&self, tier: CacheTier) {
        match tier {
            CacheTier::Memory => &self.result_cache_hits_memory,
            CacheTier::Disk => &self.result_cache_hits_disk,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience: relaxed increment.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the Prometheus text exposition. Queue/job gauges and cache
    /// occupancy arrive in `snap`; connection-state gauges are read from
    /// the event loop's shared `conns` block.
    pub fn render(&self, snap: &ServerSnapshot, conns: &ConnGauges) -> String {
        let mut out = String::with_capacity(4096);
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
        };
        counter(
            "grserve_jobs_submitted_total",
            "Jobs accepted into the queue.",
            self.jobs_submitted.load(Ordering::Relaxed),
        );
        counter(
            "grserve_jobs_coalesced_total",
            "Submissions coalesced onto an in-flight job.",
            self.jobs_coalesced.load(Ordering::Relaxed),
        );
        counter(
            "grserve_jobs_completed_total",
            "Jobs completed successfully.",
            self.jobs_completed.load(Ordering::Relaxed),
        );
        counter(
            "grserve_jobs_failed_total",
            "Jobs that failed during execution.",
            self.jobs_failed.load(Ordering::Relaxed),
        );
        counter(
            "grserve_jobs_rejected_total",
            "Submissions rejected with 429 (queue full).",
            self.jobs_rejected.load(Ordering::Relaxed),
        );
        counter(
            "grserve_executions_total",
            "Replay executions started (cache hits never execute).",
            self.executions.load(Ordering::Relaxed),
        );
        counter(
            "grserve_replay_accesses_total",
            "LLC accesses replayed by completed executions.",
            self.replay_accesses.load(Ordering::Relaxed),
        );
        counter(
            "grserve_result_cache_evictions_total",
            "Disk cache files evicted to stay under GR_RESULT_CACHE_MAX.",
            snap.cache_evictions,
        );
        counter(
            "grserve_result_cache_corrupt_total",
            "Disk cache files deleted because their payload failed its SHA-256 check.",
            snap.cache_corrupt,
        );
        counter(
            "grserve_accepts_rejected_total",
            "Connections refused at accept time (max_conns reached).",
            conns.rejected.load(Ordering::Relaxed),
        );

        out.push_str("# HELP grserve_result_cache_hits_total Result-cache hits by tier.\n");
        out.push_str("# TYPE grserve_result_cache_hits_total counter\n");
        out.push_str(&format!(
            "grserve_result_cache_hits_total{{tier=\"memory\"}} {}\n",
            self.result_cache_hits_memory.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "grserve_result_cache_hits_total{{tier=\"disk\"}} {}\n",
            self.result_cache_hits_disk.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP grserve_http_requests_total Requests handled by endpoint.\n");
        out.push_str("# TYPE grserve_http_requests_total counter\n");
        for ep in Endpoint::ALL {
            out.push_str(&format!(
                "grserve_http_requests_total{{endpoint=\"{}\"}} {}\n",
                ep.label(),
                self.endpoints[ep.index()].requests.load(Ordering::Relaxed)
            ));
        }
        out.push_str(
            "# HELP grserve_http_request_seconds_sum Total request handling time by endpoint.\n",
        );
        out.push_str("# TYPE grserve_http_request_seconds_sum counter\n");
        for ep in Endpoint::ALL {
            let nanos = self.endpoints[ep.index()].latency_nanos.load(Ordering::Relaxed);
            out.push_str(&format!(
                "grserve_http_request_seconds_sum{{endpoint=\"{}\"}} {:.9}\n",
                ep.label(),
                nanos as f64 / 1e9
            ));
        }

        out.push_str(
            "# HELP grserve_connections Open connections by event-loop state.\n\
             # TYPE grserve_connections gauge\n",
        );
        for (state, value) in [
            ("open", conns.open.load(Ordering::Relaxed)),
            ("reading", conns.reading.load(Ordering::Relaxed)),
            ("writing", conns.writing.load(Ordering::Relaxed)),
            ("idle", conns.idle.load(Ordering::Relaxed)),
        ] {
            out.push_str(&format!("grserve_connections{{state=\"{state}\"}} {value}\n"));
        }

        let mut gauge = |name: &str, help: &str, value: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"));
        };
        gauge("grserve_queue_depth", "Jobs waiting in the queue.", snap.queue_depth as u64);
        gauge("grserve_jobs_inflight", "Jobs currently executing.", snap.inflight as u64);
        gauge("grserve_jobs_tracked", "Jobs known to the job table.", snap.jobs_tracked as u64);
        gauge(
            "grserve_result_cache_disk_bytes",
            "Bytes resident in the disk result-cache tier.",
            snap.cache_disk_bytes,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reports_all_series() {
        let m = Metrics::default();
        m.record_request(Endpoint::SubmitJob, Duration::from_millis(2));
        m.record_request(Endpoint::Other, Duration::from_millis(1));
        m.record_cache_hit(CacheTier::Memory);
        Metrics::bump(&m.jobs_submitted);
        let conns = ConnGauges::default();
        conns.open.store(5, Ordering::Relaxed);
        conns.idle.store(4, Ordering::Relaxed);
        conns.writing.store(1, Ordering::Relaxed);
        let snap = ServerSnapshot {
            queue_depth: 3,
            inflight: 1,
            jobs_tracked: 7,
            cache_evictions: 2,
            cache_corrupt: 1,
            cache_disk_bytes: 4096,
        };
        let text = m.render(&snap, &conns);
        for series in [
            "grserve_jobs_submitted_total 1",
            "grserve_result_cache_hits_total{tier=\"memory\"} 1",
            "grserve_result_cache_hits_total{tier=\"disk\"} 0",
            "grserve_result_cache_evictions_total 2",
            "grserve_result_cache_corrupt_total 1",
            "grserve_http_requests_total{endpoint=\"jobs_post\"} 1",
            "grserve_http_requests_total{endpoint=\"other\"} 1",
            "grserve_http_request_seconds_sum{endpoint=\"jobs_post\"} 0.002",
            "grserve_connections{state=\"open\"} 5",
            "grserve_connections{state=\"reading\"} 0",
            "grserve_connections{state=\"writing\"} 1",
            "grserve_connections{state=\"idle\"} 4",
            "grserve_queue_depth 3",
            "grserve_jobs_inflight 1",
            "grserve_jobs_tracked 7",
            "grserve_result_cache_disk_bytes 4096",
        ] {
            assert!(text.contains(series), "missing {series:?} in:\n{text}");
        }
        // Every series line is either a comment or name{labels}? value.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line:?}"
            );
        }
    }
}
