//! Per-layer breakdown of a traced phase, layers named by module. Counts
//! come from the engine's always-on `Metrics` (delta over the phase) and
//! from each query's probe tree; `driver.*` are the benchmark's own spans
//! around its calls into the engine. Every metric is emitted on every
//! workload (0 where a layer did no work), so the names never vary.

use crate::{percentile, Metric};
use qpipe_common::{MetricsSnapshot, OpStats, QueryProfile};

/// Worker pools the mix's plans run on: the µEngines of its six operator
/// kinds plus the shared task pools.
const POOLS: [&str; 8] =
    ["scan", "filter", "project", "hashjoin", "agg", "sort", "tasks", "scan-tasks"];

/// Operator kinds the mix's plans produce.
const OP_KINDS: [&str; 6] = ["scan", "filter", "project", "hashjoin", "agg", "sort"];

/// Table files of the TPC-H catalog; reads of any other file (spills)
/// count as `other`.
const FILES: [&str; 7] = ["lineitem", "orders", "customer", "part", "supplier", "nation", "region"];

/// What a traced phase measured.
pub struct LayerInput<'a> {
    /// Engine counters, delta over the traced phase.
    pub delta: &'a MetricsSnapshot,
    /// Engine counters at the end of the traced phase (histogram
    /// percentiles are cumulative since boot).
    pub after: &'a MetricsSnapshot,
    /// Queries completed in the traced phase.
    pub completed: f64,
    /// Final probe tree of every query in the traced phase.
    pub profiles: Vec<&'a QueryProfile>,
    /// Time each `submit_with` call took.
    pub submit_us: Vec<f64>,
    /// Time each `try_collect` call took.
    pub collect_ms: Vec<f64>,
    pub steal_pct: f64,
    /// `ExecConfig::task_workers` as the engine resolved it.
    pub task_workers: f64,
    /// OS threads of the process right after the traced engine booted.
    pub pool_threads: f64,
    pub untraced_qps: f64,
    pub traced_qps: f64,
}

/// Per-operator-kind totals over every probe of that kind.
#[derive(Default)]
struct KindTotals {
    probes: u64,
    clamped: u64,
    stats: OpStats,
}

fn fold_probes(node: &QueryProfile, kinds: &mut [KindTotals; OP_KINDS.len()]) {
    if let Some(i) = OP_KINDS.iter().position(|k| *k == node.op) {
        let s = &node.stats;
        let t = &mut kinds[i];
        if s.batches > 0 {
            t.probes += 1;
            // Busy time is total minus waits, clamped at 0: a clamp means
            // the probe's waits overlapped and over-counted.
            if s.busy_ns == 0 {
                t.clamped += 1;
            }
        }
        t.stats.rows += s.rows;
        t.stats.busy_ns += s.busy_ns;
        t.stats.pipe_wait_ns += s.pipe_wait_ns;
        t.stats.io_wait_ns += s.io_wait_ns;
        t.stats.pages_from_host += s.pages_from_host;
        t.stats.pages_from_disk += s.pages_from_disk;
    }
    for child in &node.children {
        fold_probes(child, kinds);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in a fixed order.
pub fn layer_metrics(input: &LayerInput) -> Vec<Metric> {
    let d = input.delta;
    let n = input.completed.max(1.0);
    let per_query = |v: u64| v as f64 / n;
    let mut kinds: [KindTotals; OP_KINDS.len()] = Default::default();
    for profile in &input.profiles {
        fold_probes(profile, &mut kinds);
    }
    let from_host: u64 = kinds.iter().map(|k| k.stats.pages_from_host).sum();
    let from_disk: u64 = kinds.iter().map(|k| k.stats.pages_from_disk).sum();
    let mut m = vec![
        // core::admit
        Metric::new("admit.wait_us_p50", input.after.admission_wait_us.p50 as f64, "us"),
        Metric::new("admit.wait_us_p95", input.after.admission_wait_us.p95 as f64, "us"),
        Metric::new("admit.queued_per_query", per_query(d.queued), "count"),
        // core::pool
        Metric::new("pool.threads", input.pool_threads, "count"),
        Metric::new("pool.queue_wait_us_p50", input.after.pool_queue_wait_us.p50 as f64, "us"),
        Metric::new("pool.queue_wait_us_p95", input.after.pool_queue_wait_us.p95 as f64, "us"),
        Metric::new("pool.morsels_per_query", per_query(d.morsels_dispatched), "count"),
    ];
    for pool in POOLS {
        let busy_ns = d.per_engine_busy_ns.get(pool).copied().unwrap_or(0);
        m.push(Metric::new(
            format!("pool.occupancy_ms_per_query.{pool}"),
            busy_ns as f64 / 1e6 / n,
            "ms",
        ));
    }
    // core::scan and core::host (OSP)
    m.extend([
        Metric::new("scan.attaches_per_query", per_query(d.osp_attaches), "count"),
        Metric::new("scan.rejections_per_query", per_query(d.osp_rejections), "count"),
        Metric::new("scan.wraps_per_query", per_query(d.circular_wraps), "count"),
        Metric::new("scan.pages_from_host_per_query", per_query(from_host), "pages"),
        Metric::new("scan.pages_from_disk_per_query", per_query(from_disk), "pages"),
        Metric::new(
            "scan.host_share",
            ratio(from_host as f64, (from_host + from_disk) as f64),
            "ratio",
        ),
        Metric::new("scan.pruned_pages_per_query", per_query(d.pruned_pages), "pages"),
        // Accounting gap: pages the probes say came from disk against the
        // blocks the disk says it read (1 when the two agree).
        Metric::new(
            "scan.pages_from_disk_per_block_read",
            ratio(from_disk as f64, d.disk_blocks_read as f64),
            "ratio",
        ),
        // storage::bufferpool
        Metric::new(
            "bufferpool.hit_ratio",
            ratio(d.bp_hits as f64, (d.bp_hits + d.bp_misses) as f64),
            "ratio",
        ),
        Metric::new("bufferpool.misses_per_query", per_query(d.bp_misses), "count"),
        Metric::new("bufferpool.fetch_us_p50", input.after.bp_fetch_us.p50 as f64, "us"),
        Metric::new("bufferpool.fetch_us_p95", input.after.bp_fetch_us.p95 as f64, "us"),
        Metric::new("bufferpool.retries", d.io_retries as f64, "count"),
        // storage::disk
        Metric::new("disk.blocks_read_per_query", per_query(d.disk_blocks_read), "blocks"),
    ]);
    let mut other = d.disk_blocks_read;
    for file in FILES {
        let blocks = d.per_file_reads.get(file).copied().unwrap_or(0);
        other = other.saturating_sub(blocks);
        m.push(Metric::new(
            format!("disk.blocks_read_per_query.{file}"),
            per_query(blocks),
            "blocks",
        ));
    }
    m.push(Metric::new("disk.blocks_read_per_query.other", per_query(other), "blocks"));
    m.push(Metric::new(
        "disk.blocks_written_per_query",
        per_query(d.disk_blocks_written),
        "blocks",
    ));
    // core::ops, from the probe trees
    for (kind, t) in OP_KINDS.iter().zip(&kinds) {
        let ms = |ns: u64| ns as f64 / 1e6 / n;
        m.extend([
            Metric::new(format!("ops.{kind}.busy_ms_per_query"), ms(t.stats.busy_ns), "ms"),
            Metric::new(
                format!("ops.{kind}.pipe_wait_ms_per_query"),
                ms(t.stats.pipe_wait_ns),
                "ms",
            ),
            Metric::new(format!("ops.{kind}.io_wait_ms_per_query"), ms(t.stats.io_wait_ns), "ms"),
            Metric::new(format!("ops.{kind}.rows_per_query"), per_query(t.stats.rows), "rows"),
            Metric::new(
                format!("ops.{kind}.clamped"),
                ratio(t.clamped as f64, t.probes as f64),
                "ratio",
            ),
        ]);
    }
    let mut submit_us = input.submit_us.clone();
    let mut collect_ms = input.collect_ms.clone();
    m.extend([
        // exec kernels
        Metric::new("exec.vec_filter_batches_per_query", per_query(d.vec_filter_batches), "count"),
        Metric::new(
            "exec.vec_project_batches_per_query",
            per_query(d.vec_project_batches),
            "count",
        ),
        Metric::new("exec.vec_join_batches_per_query", per_query(d.vec_join_batches), "count"),
        Metric::new("exec.vec_agg_batches_per_query", per_query(d.vec_agg_batches), "count"),
        Metric::new("exec.vec_sort_batches_per_query", per_query(d.vec_sort_batches), "count"),
        // common::govern and core::deadlock
        Metric::new("govern.mem_peak", input.after.mem_peak as f64, "tuples"),
        Metric::new("govern.mem_waited", d.mem_waited as f64, "count"),
        Metric::new("deadlock.resolved", d.deadlocks_resolved as f64, "count"),
        // The benchmark's own spans around its calls into the engine.
        Metric::new("driver.submit_us_p50", percentile(&mut submit_us, 0.50), "us"),
        Metric::new("driver.submit_us_p95", percentile(&mut submit_us, 0.95), "us"),
        Metric::new("driver.collect_ms_p50", percentile(&mut collect_ms, 0.50), "ms"),
        // Host fingerprint and tracing cost.
        Metric::new("host.steal_pct", input.steal_pct, "%"),
        Metric::new("host.nproc", crate::host::nproc() as f64, "count"),
        Metric::new("host.task_workers", input.task_workers, "count"),
        Metric::new(
            "trace.overhead_pct",
            100.0 * ratio(input.untraced_qps - input.traced_qps, input.untraced_qps),
            "%",
        ),
    ]);
    m
}
