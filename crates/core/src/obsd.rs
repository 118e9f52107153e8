//! The live telemetry plane: obsd endpoint glue.
//!
//! Wires the [`imp_obsd`] exposition server to one [`Imp`]'s
//! observability hub. Started by [`Imp::new`] when
//! [`ImpConfig::obsd_addr`](crate::middleware::ImpConfig::obsd_addr) is
//! set (or the `IMP_OBSD_ADDR` environment variable names an address);
//! `127.0.0.1:0` binds an ephemeral port, reported by
//! [`Imp::obsd_addr`](crate::middleware::Imp::obsd_addr).
//!
//! Every endpoint reads **snapshots only** — `MetricsRegistry::sample`,
//! [`SnapshotBoard::read`], the tracer's span rings — never scheduler
//! locks or the store, so a slow or hostile scraper cannot stall
//! maintenance:
//!
//! | Path            | Body                                                  |
//! |-----------------|-------------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition of every registered metric |
//! | `/metrics.json` | Deterministic JSON snapshot of the registry           |
//! | `/trace`        | Chrome trace-event JSON of recorded pipeline spans    |
//! | `/sketches`     | Per-template introspection: lifecycle rung, heap bytes, advisor score, maintain p50/p95/p99; the updates waiting for a sweep |
//!
//! The server shuts down (threads joined) when the owning `Imp` drops.

use std::net::SocketAddr;
use std::sync::Arc;

use imp_obsd::{Request, Response, Router, Server};

use crate::advisor::{AdvisorParams, SketchKey, WorkloadTracker};
use crate::obs::registry::json_string;
use crate::obs::{Obs, SampleValue, MAINTAIN_LATENCY};
use crate::sched::SnapshotBoard;

/// Worker threads of the exposition server: scrapes are cheap
/// snapshot-renders, so a handful of threads absorbs a scrape fleet
/// (`obsd_integration` drives 8 clients beside live maintenance).
const OBSD_THREADS: usize = 4;

/// Environment variable that starts obsd when
/// [`ImpConfig::obsd_addr`](crate::middleware::ImpConfig::obsd_addr) is
/// unset, e.g. `IMP_OBSD_ADDR=127.0.0.1:9464`.
pub const OBSD_ADDR_ENV: &str = "IMP_OBSD_ADDR";

/// Everything the endpoint handlers read from. All fields are shared
/// snapshot handles; the struct is built once and moved behind an `Arc`
/// into the router closures.
pub(crate) struct ObsdState {
    /// The observability hub (registry, tracer).
    pub(crate) obs: Arc<Obs>,
    /// Snapshot board of the sketch store.
    pub(crate) board: Arc<SnapshotBoard>,
    /// Workload tracker feeding the advisor score on `/sketches`.
    pub(crate) tracker: Arc<WorkloadTracker>,
    /// Cost-model weights used to score each published sketch.
    pub(crate) advisor: AdvisorParams,
}

/// A running obsd endpoint. Dropping the handle shuts the server down
/// and joins its threads.
pub struct ObsdHandle {
    server: Server,
}

impl ObsdHandle {
    /// The bound address (ephemeral ports resolved).
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

impl std::fmt::Debug for ObsdHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsdHandle")
            .field("addr", &self.addr())
            .finish()
    }
}

/// Bind `addr` and serve the telemetry plane for `state`.
pub(crate) fn start_obsd(addr: &str, state: ObsdState) -> std::io::Result<ObsdHandle> {
    let state = Arc::new(state);
    let mut router = Router::new();

    {
        let s = Arc::clone(&state);
        router.get("/metrics", move |_req: &Request| {
            Response::prometheus(s.obs.metrics_text())
        });
    }
    {
        let s = Arc::clone(&state);
        router.get("/metrics.json", move |_req: &Request| {
            Response::json(200, s.obs.metrics_json())
        });
    }
    {
        let s = Arc::clone(&state);
        router.get("/trace", move |_req: &Request| {
            Response::json(200, s.obs.trace_chrome_json())
        });
    }
    {
        let s = Arc::clone(&state);
        router.get("/sketches", move |_req: &Request| {
            Response::json(200, render_sketches(&s))
        });
    }
    router.get("/", |_req: &Request| {
        Response::text(
            200,
            "imp obsd\n/metrics\n/metrics.json\n/trace\n/sketches\n",
        )
    });

    let server = Server::bind(addr, router, OBSD_THREADS)?;
    Ok(ObsdHandle { server })
}

/// Render `/sketches`: one entry per published sketch, joined against a
/// single registry sample (per-template maintain-latency histograms, the
/// updates waiting for a sweep) and the workload tracker (advisor score).
fn render_sketches(state: &ObsdState) -> String {
    let mut out = String::from("{\"sketches\":{");
    let samples = state.obs.registry().sample();
    let queue_depth = samples
        .iter()
        .find(|s| s.name == "imp_sched_queue_depth")
        .and_then(|s| s.value.scalar())
        .unwrap_or(0);

    let snapshot = state.board.read();
    out.push_str("\"epoch\":");
    out.push_str(&snapshot.epoch.to_string());
    out.push_str(",\"queue_depth\":");
    out.push_str(&queue_depth.to_string());
    out.push_str(",\"entries\":[");
    for (i, sketch) in snapshot.sketches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let template = sketch.template.text();
        out.push_str("{\"template\":");
        json_string(&mut out, template);
        out.push_str(",\"lifecycle\":\"");
        out.push_str(sketch.lifecycle.label());
        out.push_str("\",\"state_bytes\":");
        out.push_str(&sketch.state_bytes.to_string());
        out.push_str(",\"version\":");
        out.push_str(&sketch.version.to_string());

        let key = SketchKey::new(template, sketch.sql.as_ref());
        let score = state
            .advisor
            .score(&state.tracker.get(&key), sketch.state_bytes);
        out.push_str(",\"advisor_score\":");
        out.push_str(&format!("{score:.3}"));

        out.push_str(",\"maintain_ns\":");
        let hist = samples.iter().find_map(|s| match &s.value {
            SampleValue::Histogram(h)
                if s.name == MAINTAIN_LATENCY && s.label("template") == Some(template) =>
            {
                Some(h)
            }
            _ => None,
        });
        match hist {
            Some(h) => {
                out.push_str(&format!(
                    "{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                    h.count,
                    h.p50(),
                    h.p95(),
                    h.p99()
                ));
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsConfig;

    fn read_url(addr: SocketAddr, target: &str) -> String {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        write!(s, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn test_state() -> ObsdState {
        let obs = Obs::new(&ObsConfig::metrics_only());
        ObsdState {
            board: Arc::new(SnapshotBoard::new()),
            tracker: Arc::new(WorkloadTracker::new()),
            advisor: AdvisorParams::default(),
            obs,
        }
    }

    #[test]
    fn all_endpoints_respond_without_a_scheduler() {
        let handle = start_obsd("127.0.0.1:0", test_state()).unwrap();
        let addr = handle.addr();
        assert!(read_url(addr, "/metrics").starts_with("HTTP/1.1 200"));
        assert!(read_url(addr, "/metrics.json").contains("\"metrics\""));
        assert!(read_url(addr, "/trace").contains("traceEvents"));
        let sketches = read_url(addr, "/sketches");
        assert!(sketches.contains("\"entries\":[]"), "{sketches}");
        assert!(read_url(addr, "/").contains("/sketches"));
    }
}
