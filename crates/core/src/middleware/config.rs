//! The middleware's configuration.

use crate::advisor::AdvisorParams;
use crate::obs::ObsConfig;
use crate::ops::OpConfig;
use crate::strategy::MaintenanceStrategy;

/// Middleware configuration.
#[derive(Debug, Clone)]
pub struct ImpConfig {
    /// Eager or lazy maintenance (§2, §8.5). Lazy: a sketch is maintained
    /// when a query needs it. Eager: with no workers, an update
    /// maintains every sketch whose pending delta rows reached the batch
    /// size, on the updating thread; with workers, their sweeps supersede
    /// it (see [`Self::sched_workers`]).
    pub strategy: MaintenanceStrategy,
    /// Fragments per range partition (`#frag`, §8.3.5).
    pub fragments: usize,
    /// Ignored: join bloom filters (§7.2) are gone, since the join-side
    /// indexes already avoid the round trip they could skip. Kept only for
    /// the `bench_cycle` replica, which still reads it into an [`OpConfig`]
    /// struct literal; removed together with that replica.
    pub bloom: bool,
    /// Push selections into delta retrieval (§7.2).
    pub selection_pushdown: bool,
    /// Bounded MIN/MAX state: keep the best `l` values (§7.2), the bound
    /// of one [`crate::opt::Bounded`] set per aggregate, raised to at
    /// least one value. Bounded to [`crate::ops::DEFAULT_MINMAX_BUFFER`]
    /// by default; the recapture fallback keeps results exact when a
    /// buffer exhausts.
    pub minmax_buffer: Option<usize>,
    /// Bounded top-k state: keep the best `l` entries (§7.2/§8.4.3), the
    /// bound of the operator's [`crate::opt::Bounded`] set, raised to at
    /// least `k` entries.
    pub topk_buffer: Option<usize>,
    /// Per-side join-index budget (annotated tuples): materialise join
    /// sides as delta-maintained indexes so steady-state `Q ⋈ Δ` terms
    /// skip the backend round trip; a side over budget falls back to
    /// per-batch evaluation. `None` disables the indexes. Bounded to
    /// [`crate::ops::DEFAULT_JOIN_INDEX_BUDGET`] by default.
    pub join_index_budget: Option<usize>,
    /// Ignored: every join compiles to [`crate::ops::NaryJoinOp`]. Kept
    /// only for the `bench_cycle` replica, which still reads it into an
    /// [`OpConfig`] struct literal; removed together with that replica.
    pub nary_join: bool,
    /// Batch size at which delta normalization and annotation switch
    /// from row-at-a-time to their columnar kernels.
    /// Defaults to [`crate::ops::DEFAULT_COLUMNAR_MIN`]; `bench_cycle`'s
    /// `core.normalize_ns_per_row` and `sketch.annotate_ns_per_row` price
    /// the crossover.
    pub columnar_min: usize,
    /// Explicit partition-attribute choices (table → attribute), taking
    /// precedence over the safety heuristic (§7.4).
    pub partition_overrides: Vec<(String, String)>,
    /// Permit partitions on attributes the safety analysis cannot prove
    /// safe (paper §4.4 assumes safety; Fig. 5 uses such an attribute).
    pub allow_unsafe_attributes: bool,
    /// Background worker threads of the sketch store ([`crate::sched`]).
    /// With `0` (default) there are none: the caller does all the work —
    /// a stale query maintains its own sketch, an update touches no
    /// sketch state (or, under [`MaintenanceStrategy::Eager`], maintains
    /// the sketches whose batch filled), and [`super::Imp::tick_maintenance`]
    /// sweeps. With `N ≥ 1`, an update only nudges a worker, which sweeps
    /// the store: every stale sketch is brought current from the delta
    /// log, one at a time, however many updates it missed. The workers
    /// take turns on the store's one state lock (superseding the
    /// foreground behavior of `strategy`; the `maintenance` reports of
    /// [`super::ImpResponse::Affected`] are then always empty). A stale query
    /// still maintains its own sketch either way. One worker is what the
    /// benchmark measures; more share the one lock and have not measured
    /// faster.
    pub sched_workers: usize,
    /// Heap-byte budget for the sketch store, enforced by the
    /// [`crate::advisor`] autopilot: every [`super::Imp::tick_maintenance`] (and
    /// explicit [`super::Imp::advise`]) runs a selection pass that keeps the
    /// highest-scoring sketches fully maintained and demotes the rest
    /// along the lifecycle ladder until `store_heap_size() ≤ budget`.
    /// `None` (default) disables the autopilot; the workload tracker
    /// still records usage either way.
    pub sketch_memory_budget: Option<usize>,
    /// Cost-model weights of the advisor (`benefit − α·maintain − β·heap`).
    pub advisor: AdvisorParams,
    /// Observability: unified metrics registry, latency histograms, and
    /// pipeline tracing (see [`crate::obs`]). Off by default — the
    /// disabled hot path costs a branch and allocates nothing.
    pub obs: ObsConfig,
    /// Address of the obsd telemetry endpoint (see [`crate::obsd`]),
    /// e.g. `"127.0.0.1:9464"`; `"127.0.0.1:0"` binds an ephemeral port
    /// reported by [`super::Imp::obsd_addr`]. `None` (default) falls back to the
    /// `IMP_OBSD_ADDR` environment variable; unset means no endpoint.
    pub obsd_addr: Option<String>,
}

impl Default for ImpConfig {
    fn default() -> Self {
        ImpConfig {
            strategy: MaintenanceStrategy::Lazy,
            fragments: 100,
            bloom: true,
            selection_pushdown: true,
            minmax_buffer: Some(crate::ops::DEFAULT_MINMAX_BUFFER),
            topk_buffer: None,
            join_index_budget: Some(crate::ops::DEFAULT_JOIN_INDEX_BUDGET),
            nary_join: true,
            columnar_min: crate::ops::DEFAULT_COLUMNAR_MIN,
            partition_overrides: Vec::new(),
            allow_unsafe_attributes: false,
            sched_workers: 0,
            sketch_memory_budget: None,
            advisor: AdvisorParams::default(),
            obs: ObsConfig::default(),
            obsd_addr: None,
        }
    }
}

impl ImpConfig {
    pub(crate) fn op_config(&self) -> OpConfig {
        OpConfig {
            minmax_buffer: self.minmax_buffer,
            topk_buffer: self.topk_buffer,
            join_index_budget: self.join_index_budget,
            columnar_min: self.columnar_min,
            ..OpConfig::default()
        }
    }
}
