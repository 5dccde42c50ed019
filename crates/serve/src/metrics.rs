//! Serve-level metrics, pre-resolved once at startup.
//!
//! Every handle is registered through `flsa_metrics::names` constants so
//! lint rule R7 covers them; when the server runs without a registry the
//! handles are detached and every update is a cheap no-op atomic.

use flsa_metrics::{names, Counter, Gauge, Histogram, Registry};

/// All counters/gauges/histograms the daemon updates, resolved once so
/// the hot request path never touches the registry map.
pub struct ServeMetrics {
    /// Requests received (valid or not).
    pub requests: Counter,
    /// Requests answered `Overloaded` by the bounded queue.
    pub rejected: Counter,
    /// Jobs completed with an `Ok` result.
    pub completed: Counter,
    /// Jobs completed with a typed failure.
    pub failed: Counter,
    /// Retry attempts after a contained worker panic.
    pub retries: Counter,
    /// Worker panics contained by `catch_unwind`.
    pub panics: Counter,
    /// Jobs that failed with `DeadlineExpired`.
    pub deadline_expired: Counter,
    /// Malformed or unframeable frames answered with `ProtocolError`.
    pub protocol_errors: Counter,
    /// Connections accepted.
    pub connections: Counter,
    /// Jobs spooled to disk for crash safety.
    pub spooled: Counter,
    /// Jobs recovered from the spool after a restart.
    pub recovered: Counter,
    /// Jobs currently parked in the admission queue.
    pub queue_depth: Gauge,
    /// High-water mark of `queue_depth`.
    pub queue_depth_peak: Gauge,
    /// Jobs currently executing on a worker.
    pub inflight: Gauge,
    /// End-to-end request latency (accept → response written), ns.
    pub request_ns: Histogram,
    /// Time a job waited for the admission governor, ns.
    pub admit_wait_ns: Histogram,
}

impl ServeMetrics {
    /// Resolves every handle against `reg`, or builds detached handles
    /// when the server runs unmetered.
    pub fn new(reg: Option<&Registry>) -> Self {
        match reg {
            Some(reg) => ServeMetrics {
                requests: reg.counter(names::SERVE_REQUESTS_TOTAL),
                rejected: reg.counter(names::SERVE_REJECTED_TOTAL),
                completed: reg.counter(names::SERVE_COMPLETED_TOTAL),
                failed: reg.counter(names::SERVE_FAILED_TOTAL),
                retries: reg.counter(names::SERVE_RETRIES_TOTAL),
                panics: reg.counter(names::SERVE_PANICS_TOTAL),
                deadline_expired: reg.counter(names::SERVE_DEADLINE_EXPIRED_TOTAL),
                protocol_errors: reg.counter(names::SERVE_PROTOCOL_ERRORS_TOTAL),
                connections: reg.counter(names::SERVE_CONNECTIONS_TOTAL),
                spooled: reg.counter(names::SERVE_SPOOLED_TOTAL),
                recovered: reg.counter(names::SERVE_RECOVERED_TOTAL),
                queue_depth: reg.gauge(names::SERVE_QUEUE_DEPTH),
                queue_depth_peak: reg.gauge(names::SERVE_QUEUE_DEPTH_PEAK),
                inflight: reg.gauge(names::SERVE_INFLIGHT),
                request_ns: reg.histogram(names::SERVE_REQUEST_NS),
                admit_wait_ns: reg.histogram(names::SERVE_ADMIT_WAIT_NS),
            },
            None => ServeMetrics {
                requests: Counter::detached(),
                rejected: Counter::detached(),
                completed: Counter::detached(),
                failed: Counter::detached(),
                retries: Counter::detached(),
                panics: Counter::detached(),
                deadline_expired: Counter::detached(),
                protocol_errors: Counter::detached(),
                connections: Counter::detached(),
                spooled: Counter::detached(),
                recovered: Counter::detached(),
                queue_depth: Gauge::detached(),
                queue_depth_peak: Gauge::detached(),
                inflight: Gauge::detached(),
                request_ns: Histogram::new(),
                admit_wait_ns: Histogram::new(),
            },
        }
    }

    /// Notes a queue-depth change, keeping the peak gauge in step.
    pub fn queue_depth_add(&self, d: i64) {
        let now = self.queue_depth.add_get(d);
        self.queue_depth_peak.fetch_max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_handles_land_in_the_snapshot() {
        let reg = Registry::new();
        let m = ServeMetrics::new(Some(&reg));
        m.requests.inc();
        m.queue_depth_add(3);
        m.queue_depth_add(-2);
        m.request_ns.record(1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(names::SERVE_REQUESTS_TOTAL), Some(1));
        assert_eq!(snap.gauge(names::SERVE_QUEUE_DEPTH), Some(1));
        assert_eq!(snap.gauge(names::SERVE_QUEUE_DEPTH_PEAK), Some(3));
        assert!(snap.histogram(names::SERVE_REQUEST_NS).is_some());
    }

    #[test]
    fn detached_handles_are_no_ops() {
        let m = ServeMetrics::new(None);
        m.requests.inc();
        m.queue_depth_add(5);
        m.request_ns.record(1);
        // Nothing to observe — the point is simply that this never
        // touches a registry or panics.
    }
}
