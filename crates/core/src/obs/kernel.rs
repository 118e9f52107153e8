//! Per-batch columnar-vs-row kernel timing and the measured crossover.
//!
//! Delta normalization dispatches between a row-wise and a columnar
//! kernel on `OpConfig::columnar_min` — a compile-time default that ROADMAP's "raw speed, round 2" flags as
//! untuned. This module closes the *observation* half of that gap: every
//! dispatched batch records its wall-clock into
//! `imp_kernel_ns{path="columnar"|"row"}` histograms (batch rows into
//! `imp_kernel_rows{path=…}` counters), and an online per-path
//! least-squares fit of `cost(rows) ≈ a + b·rows` keeps the
//! `imp_kernel_crossover_rows` gauge at the batch size where the
//! columnar line undercuts the row line. `/metrics` thus exposes the
//! *measured* crossover next to the configured one; the closed-loop
//! tuner remains future work.
//!
//! Like the tracer, attachment is thread-local: [`super::Obs::span`]
//! attaches the hub's [`KernelHub`] for the duration of a pipeline entry
//! point (whenever obs is enabled, even with tracing off), and
//! [`timed`] is a single TLS read plus closure call when unattached —
//! zero allocation either way, so the kernels can keep it
//! unconditionally.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use super::registry::{Counter, Gauge, Histogram, MetricsRegistry};

/// Per-batch kernel wall-clock histogram name (labeled `path=`).
pub const KERNEL_NS: &str = "imp_kernel_ns";
/// Rows processed per kernel path (counter, labeled `path=`).
pub const KERNEL_ROWS: &str = "imp_kernel_rows";
/// Measured columnar/row crossover gauge (rows; 0 = not yet measurable).
pub const KERNEL_CROSSOVER: &str = "imp_kernel_crossover_rows";

/// Minimum batches per path before the fit is trusted.
const MIN_FIT_SAMPLES: u64 = 8;

/// Which kernel a batch took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// The vectorized kernel (above `columnar_min`).
    Columnar,
    /// The row-at-a-time kernel.
    Row,
}

/// Online least-squares accumulator for one path's `ns ≈ a + b·rows`
/// line. Relaxed atomic sums; the fit is recomputed from the sums on
/// read, so recording stays lock-free.
#[derive(Debug, Default)]
struct PathFit {
    count: AtomicU64,
    sum_n: AtomicU64,
    sum_ns: AtomicU64,
    sum_nn: AtomicU64,
    sum_n_ns: AtomicU64,
}

impl PathFit {
    #[inline]
    fn add(&self, rows: u64, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_n.fetch_add(rows, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.sum_nn
            .fetch_add(rows.saturating_mul(rows), Ordering::Relaxed);
        self.sum_n_ns
            .fetch_add(rows.saturating_mul(ns), Ordering::Relaxed);
    }

    /// Fitted `(a, b)` intercept/slope, `None` until enough spread-out
    /// samples exist.
    fn line(&self) -> Option<(f64, f64)> {
        let c = self.count.load(Ordering::Relaxed);
        if c < MIN_FIT_SAMPLES {
            return None;
        }
        let cf = c as f64;
        let sn = self.sum_n.load(Ordering::Relaxed) as f64;
        let sy = self.sum_ns.load(Ordering::Relaxed) as f64;
        let snn = self.sum_nn.load(Ordering::Relaxed) as f64;
        let sny = self.sum_n_ns.load(Ordering::Relaxed) as f64;
        let det = cf * snn - sn * sn;
        if det <= 0.0 {
            return None; // all batches the same size: slope unidentifiable
        }
        let b = (cf * sny - sn * sy) / det;
        let a = (sy - b * sn) / cf;
        Some((a, b))
    }
}

/// Shared kernel-timing sinks: one per enabled [`super::Obs`] hub.
#[derive(Debug)]
pub struct KernelHub {
    col_ns: Histogram,
    row_ns: Histogram,
    col_rows: Counter,
    row_rows: Counter,
    crossover: Gauge,
    col_fit: PathFit,
    row_fit: PathFit,
}

impl KernelHub {
    /// Register the kernel series in `registry`.
    pub fn registered(registry: &MetricsRegistry) -> Arc<KernelHub> {
        Arc::new(KernelHub {
            col_ns: registry.histogram_with(KERNEL_NS, &[("path", "columnar")]),
            row_ns: registry.histogram_with(KERNEL_NS, &[("path", "row")]),
            col_rows: registry.counter_with(KERNEL_ROWS, &[("path", "columnar")]),
            row_rows: registry.counter_with(KERNEL_ROWS, &[("path", "row")]),
            crossover: registry.gauge(KERNEL_CROSSOVER),
            col_fit: PathFit::default(),
            row_fit: PathFit::default(),
        })
    }

    /// Record one dispatched batch and refresh the crossover gauge.
    pub fn record(&self, path: KernelPath, rows: u64, ns: u64) {
        match path {
            KernelPath::Columnar => {
                self.col_ns.record(ns);
                self.col_rows.add(rows);
                self.col_fit.add(rows, ns);
            }
            KernelPath::Row => {
                self.row_ns.record(ns);
                self.row_rows.add(rows);
                self.row_fit.add(rows, ns);
            }
        }
        self.update_crossover();
    }

    /// The crossover currently exposed on `imp_kernel_crossover_rows`.
    pub fn crossover_rows(&self) -> u64 {
        self.crossover.get()
    }

    fn update_crossover(&self) {
        let (Some((ac, bc)), Some((ar, br))) = (self.col_fit.line(), self.row_fit.line()) else {
            return;
        };
        if bc >= br {
            // The columnar line never undercuts the row line: no
            // crossover; leave the gauge at its last (or zero) value.
            return;
        }
        // a_c + b_c·n = a_r + b_r·n  ⇒  n* = (a_c − a_r)/(b_r − b_c).
        let x = (ac - ar) / (br - bc);
        if x.is_finite() {
            // A non-positive intersection means the columnar kernel
            // already wins at every batch size: crossover 1.
            self.crossover.set(x.round().max(1.0) as u64);
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<KernelHub>>> = const { RefCell::new(None) };
}

/// Scoped thread-local attachment of one hub (see [`attach`]).
#[derive(Debug)]
pub struct KernelAttachGuard {
    prev: Option<Arc<KernelHub>>,
    active: bool,
}

impl KernelAttachGuard {
    /// A guard that never attached (obs disabled).
    pub fn inactive() -> KernelAttachGuard {
        KernelAttachGuard {
            prev: None,
            active: false,
        }
    }
}

impl Drop for KernelAttachGuard {
    fn drop(&mut self) {
        if self.active {
            ACTIVE.with(|a| *a.borrow_mut() = self.prev.take());
        }
    }
}

/// Attach `hub` to the current thread until the guard drops (restoring
/// any previously attached hub, so nested pipeline spans compose).
pub fn attach(hub: &Arc<KernelHub>) -> KernelAttachGuard {
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(Arc::clone(hub)));
    KernelAttachGuard { prev, active: true }
}

/// Time `f` as one `path` kernel batch of `rows`, recording into the
/// thread's attached hub. With nothing attached (obs off, or a thread
/// outside any pipeline span) this is a TLS read plus the plain call —
/// no timing, no allocation.
#[inline]
pub fn timed<R>(path: KernelPath, rows: usize, f: impl FnOnce() -> R) -> R {
    let hub = ACTIVE.with(|a| a.borrow().clone());
    match hub {
        None => f(),
        Some(hub) => {
            let t = Instant::now();
            let r = f();
            hub.record(path, rows as u64, t.elapsed().as_nanos() as u64);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattached_timed_is_transparent() {
        assert_eq!(timed(KernelPath::Row, 3, || 41 + 1), 42);
    }

    #[test]
    fn attached_timed_records_batches() {
        let reg = MetricsRegistry::new();
        let hub = KernelHub::registered(&reg);
        {
            let _g = attach(&hub);
            timed(KernelPath::Columnar, 100, || {});
            timed(KernelPath::Row, 5, || {});
            timed(KernelPath::Row, 7, || {});
        }
        // Detached again: this one must not record.
        timed(KernelPath::Row, 1000, || {});
        let text = reg.render_text();
        assert!(text.contains("imp_kernel_ns_count{path=\"columnar\"} 1"));
        assert!(text.contains("imp_kernel_ns_count{path=\"row\"} 2"));
        assert!(text.contains("imp_kernel_rows{path=\"columnar\"} 100"));
        assert!(text.contains("imp_kernel_rows{path=\"row\"} 12"));
        assert!(text.contains("imp_kernel_crossover_rows 0"));
    }

    #[test]
    fn nested_attach_restores_outer_hub() {
        let reg = MetricsRegistry::new();
        let outer = KernelHub::registered(&reg);
        let reg2 = MetricsRegistry::new();
        let inner = KernelHub::registered(&reg2);
        let _o = attach(&outer);
        {
            let _i = attach(&inner);
            timed(KernelPath::Row, 1, || {});
        }
        timed(KernelPath::Row, 1, || {});
        assert!(reg2
            .render_text()
            .contains("imp_kernel_ns_count{path=\"row\"} 1"));
        assert!(reg
            .render_text()
            .contains("imp_kernel_ns_count{path=\"row\"} 1"));
    }

    #[test]
    fn crossover_found_on_synthetic_lines() {
        let reg = MetricsRegistry::new();
        let hub = KernelHub::registered(&reg);
        // Row: 10ns/row from zero. Columnar: 1000ns fixed + 1ns/row.
        // True crossover: 1000/(10-1) ≈ 111 rows.
        for n in (1..=20u64).map(|i| i * 50) {
            hub.record(KernelPath::Row, n, 10 * n);
            hub.record(KernelPath::Columnar, n, 1000 + n);
        }
        let x = hub.crossover_rows();
        assert!((100..=125).contains(&x), "crossover {x} not near 111");
        assert!(reg
            .render_text()
            .contains(&format!("imp_kernel_crossover_rows {x}")));
    }

    #[test]
    fn identical_batch_sizes_leave_crossover_unset() {
        let reg = MetricsRegistry::new();
        let hub = KernelHub::registered(&reg);
        for _ in 0..20 {
            hub.record(KernelPath::Row, 64, 640);
            hub.record(KernelPath::Columnar, 64, 700);
        }
        // Slope unidentifiable from a single batch size.
        assert_eq!(hub.crossover_rows(), 0);
    }
}
