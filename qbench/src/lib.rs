//! End-to-end benchmark of the QPipe staged engine (QPipe w/OSP) on the
//! paper's Figure 12 TPC-H mix, driven through the engine's public API.
//!
//! One run boots the engine over a columnar TPC-H catalog, lets a fixed
//! number of closed-loop clients (zero think time) submit queries drawn from
//! a seeded stream for a fixed wall time, checks every answer against the
//! iterator engine's answer for the same plan, and reports the end-to-end
//! metrics. A traced run (`Options::trace`) instead reports the per-layer
//! breakdown of [`layers`]. See `README.md` beside this crate for why each
//! workload exists and which layer metric should move which end-to-end one.

mod check;
mod host;
mod layers;

use qpipe_common::{QResult, QueryProfile, Tuple};
use qpipe_core::engine::{QPipe, QPipeConfig};
use qpipe_core::QueryClass;
use qpipe_exec::iter::{run as iterator_run, ExecConfig, ExecContext};
use qpipe_exec::plan::PlanNode;
use qpipe_storage::{Catalog, DiskConfig, StorageLayout};
use qpipe_workloads::harness::{Driver, System, SystemProfile};
use qpipe_workloads::tpch::{build_tpch_with_layout, query, TpchScale, MIX};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// LRU pool of the `_disk` workloads: smaller than lineitem alone (312
/// pages at experiment scale), so every scan misses.
const DISK_POOL_PAGES: usize = 192;
/// LRU pool of `mix_shared_cached`: holds the whole database (359 pages at
/// experiment scale).
const CACHED_POOL_PAGES: usize = 512;
/// Times a run sets the engine up; `setup_s` is their median.
const SETUPS: usize = 7;
/// Queries each client runs, untimed, before the timed phase, so the pool
/// holds a steady working set and lazily built state exists.
const WARMUP_QUERIES_PER_CLIENT: usize = 3;

/// The benchmark's workloads. All three run the same query stream; they
/// differ in client count and buffer-pool size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 clients, pool smaller than lineitem: the paper's regime, scans
    /// shared through OSP.
    SharedDisk,
    /// 2 clients, pool holding the whole database, warmed in set-up: the
    /// timed phase reads no blocks. Pure CPU work, so host CPU-speed swings
    /// move it most; `BENCHMARK.json` leaves it out and it runs by name.
    SharedCached,
    /// 1 client, pool smaller than lineitem: nothing can be shared.
    SerialDisk,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::SharedDisk, Workload::SharedCached, Workload::SerialDisk];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SharedDisk => "mix_shared_disk",
            Workload::SharedCached => "mix_shared_cached",
            Workload::SerialDisk => "mix_serial_disk",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients: fixed, not read from the host, so runs on
    /// hosts with different core counts drive the same load.
    fn clients(self) -> usize {
        match self {
            Workload::SerialDisk => 1,
            Workload::SharedDisk | Workload::SharedCached => 2,
        }
    }

    fn pool_pages(self) -> usize {
        match self {
            Workload::SharedCached => CACHED_POOL_PAGES,
            Workload::SharedDisk | Workload::SerialDisk => DISK_POOL_PAGES,
        }
    }
}

/// Everything one run depends on.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    /// Seed of the query stream.
    pub seed: u64,
    /// Seed of the generated TPC-H data.
    pub data_seed: u64,
    /// Wall time measured; a traced run splits it between its untraced and
    /// traced phases.
    pub seconds: f64,
    /// Report the per-layer breakdown instead of the end-to-end metrics.
    pub trace: bool,
    pub scale: TpchScale,
    pub disk: DiskConfig,
}

impl Options {
    /// The benchmark proper: experiment-scale data on the latency-charging
    /// simulated disk.
    pub fn experiment(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            workload,
            seed,
            data_seed: 20050614,
            seconds,
            trace,
            scale: TpchScale::experiment(),
            disk: DiskConfig::experiment(),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every checked answer matched the iterator engine's.
    pub correct: bool,
    /// Queries submitted in the measured phases.
    pub attempted: u64,
    /// Queries that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context: sample counts, host fingerprint.
    pub notes: Vec<String>,
}

/// One query of a measured phase, as its client saw it.
struct Outcome {
    plan: PlanNode,
    submit_us: f64,
    collect_ms: f64,
    latency_ms: f64,
    result: QResult<Vec<Tuple>>,
    profile: Option<QueryProfile>,
}

/// One closed-loop phase.
struct Phase {
    outcomes: Vec<Outcome>,
    elapsed_s: f64,
    cpu_s: f64,
    steal_pct: f64,
    /// Peak resident memory at the end of the phase, before the answer
    /// check allocates its own.
    peak_rss_mb: f64,
    delta: qpipe_common::MetricsSnapshot,
    after: qpipe_common::MetricsSnapshot,
}

impl Phase {
    fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    fn throughput_qps(&self) -> f64 {
        self.completed() as f64 / self.elapsed_s
    }
}

/// A booted engine with its catalog and the set-up time it took.
struct Bench {
    driver: Driver,
    setup_s: f64,
}

impl Bench {
    fn engine(&self) -> &Arc<QPipe> {
        self.driver.engine().expect("QPipe w/OSP drivers wrap the staged engine")
    }
}

fn boot(opts: &Options, tracing: bool) -> QResult<Bench> {
    let start = Instant::now();
    let profile = SystemProfile {
        disk: opts.disk,
        pool_pages: opts.workload.pool_pages(),
        ..SystemProfile::experiment()
    };
    let config = QPipeConfig {
        exec: ExecConfig { tracing, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let driver = Driver::build_with_config(System::QPipeOsp, profile, config, |c| {
        build_tpch_with_layout(c, opts.scale, opts.data_seed, StorageLayout::Columnar)
    })?;
    if opts.workload == Workload::SharedCached {
        warm(driver.catalog())?;
    }
    Ok(Bench { driver, setup_s: start.elapsed().as_secs_f64() })
}

/// Read every page of every table through the buffer pool.
fn warm(catalog: &Arc<Catalog>) -> QResult<()> {
    for name in catalog.table_names() {
        let table = catalog.table(&name)?;
        for block in 0..table.num_pages()? {
            catalog.pool().get(table.file_id(), block)?;
        }
    }
    Ok(())
}

/// Boot [`SETUPS`] times, keeping the last engine; its `setup_s` is the
/// median of all boots.
fn boot_repeated(opts: &Options) -> QResult<Bench> {
    let mut times = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        // Drop the previous engine first so boots do not overlap.
        drop(bench.take());
        let b = boot(opts, false)?;
        times.push(b.setup_s);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up ran");
    bench.setup_s = median(&mut times);
    Ok(bench)
}

/// The query stream of one client, seeded by the stream seed and the
/// client index. As in TPC-H's throughput test, the stream runs the MIX in
/// rounds, each a fresh random permutation of all eight query types, so
/// every seed runs the same share of each type; each query's parameters are
/// drawn qgen-style from the same generator.
fn client_stream(seed: u64, client: usize) -> impl FnMut() -> PlanNode {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut round: Vec<u32> = Vec::new();
    move || {
        if round.is_empty() {
            round = MIX.to_vec();
            for i in (1..round.len()).rev() {
                round.swap(i, rng.gen_range(0..=i));
            }
        }
        let q = round.pop().expect("a fresh round holds every MIX query");
        query(q, &mut rng)
    }
}

/// Run one query the way a client does: submit, then drain the handle.
fn run_query(engine: &QPipe, plan: PlanNode) -> Outcome {
    let start = Instant::now();
    let submitted = engine.submit_with(plan.clone(), QueryClass::Interactive);
    let submit_us = start.elapsed().as_secs_f64() * 1e6;
    let (result, profile, collect_ms) = match submitted {
        Err(e) => (Err(e), None, 0.0),
        Ok(handle) => {
            let probes = handle.probe_tree();
            let collect_start = Instant::now();
            let result = handle.try_collect();
            let collect_ms = collect_start.elapsed().as_secs_f64() * 1e3;
            (result, probes.map(|p| p.snapshot()), collect_ms)
        }
    };
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    Outcome { plan, submit_us, collect_ms, latency_ms, result, profile }
}

/// `clients` closed-loop clients with zero think time. Each keeps
/// submitting until `duration` has passed since the phase began; a query
/// in flight at that moment finishes and counts.
fn closed_loop(bench: &Bench, clients: usize, seed: u64, duration: Duration) -> Phase {
    let engine = bench.engine();
    let metrics = bench.driver.metrics();
    let before = metrics.snapshot();
    let cpu_before = host::process_cpu_s().unwrap_or(0.0);
    let ticks_before = host::CpuTicks::now();
    let start = Instant::now();
    let per_client: Vec<Vec<Outcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                s.spawn(move || {
                    let mut next_plan = client_stream(seed, client);
                    let mut outcomes = Vec::new();
                    while start.elapsed() < duration {
                        outcomes.push(run_query(engine, next_plan()));
                    }
                    outcomes
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s().unwrap_or(0.0) - cpu_before;
    let steal_pct = host::CpuTicks::now().steal_pct_since(&ticks_before);
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    let after = metrics.snapshot();
    Phase {
        outcomes: per_client.into_iter().flatten().collect(),
        elapsed_s,
        cpu_s,
        steal_pct,
        peak_rss_mb,
        delta: after.delta_since(&before),
        after,
    }
}

/// Untimed queries from a stream of their own, so the measured stream is
/// the same whatever the warm-up drew.
fn warm_up(bench: &Bench, clients: usize, seed: u64) {
    std::thread::scope(|s| {
        for client in 0..clients {
            s.spawn(move || {
                let mut next_plan = client_stream(!seed, client);
                for _ in 0..WARMUP_QUERIES_PER_CLIENT {
                    // Warm-up answers are not checked; the measured ones are.
                    let _ = run_query(bench.engine(), next_plan());
                }
            });
        }
    });
}

/// Outcome of checking a phase's answers.
struct Checked {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

/// Threads computing reference answers; the check runs after the timed
/// phase, so it may use every core.
const CHECK_THREADS: usize = 2;

/// Check every completed answer against the iterator engine's answer for
/// the same plan on the same catalog. Runs after the timed phase; answers
/// to repeated plans are computed once.
fn check_answers(bench: &Bench, phase: &Phase) -> QResult<Checked> {
    let ctx = ExecContext::new(bench.driver.catalog().clone());
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut distinct: Vec<&PlanNode> = Vec::new();
    let slots: Vec<usize> = phase
        .outcomes
        .iter()
        .map(|o| {
            let mut sig = Vec::new();
            o.plan.encode_sig(&mut sig);
            *index.entry(sig).or_insert_with(|| {
                distinct.push(&o.plan);
                distinct.len() - 1
            })
        })
        .collect();
    let mut reference: Vec<Option<QResult<Vec<Tuple>>>> = Vec::new();
    reference.resize_with(distinct.len(), || None);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CHECK_THREADS)
            .map(|t| {
                let (ctx, distinct) = (&ctx, &distinct);
                s.spawn(move || {
                    (t..distinct.len())
                        .step_by(CHECK_THREADS)
                        .map(|i| (i, iterator_run(distinct[i], ctx)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, answer) in w.join().expect("reference thread panicked") {
                reference[i] = Some(answer);
            }
        }
    });
    let reference: Vec<Vec<Tuple>> = reference
        .into_iter()
        .map(|r| r.expect("every distinct plan has an answer"))
        .collect::<QResult<_>>()?;
    let mut checked = Checked { attempted: phase.outcomes.len() as u64, failed: 0, wrong: 0 };
    for (outcome, slot) in phase.outcomes.iter().zip(slots) {
        let rows = match &outcome.result {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("query failed: {e}\n  plan {:?}", outcome.plan);
                checked.failed += 1;
                continue;
            }
        };
        if !check::same_multiset(rows, &reference[slot]) {
            eprintln!(
                "wrong answer: {} rows, iterator engine {} rows\n  got  {:?}\n  want {:?}\n  plan {:?}",
                rows.len(),
                reference[slot].len(),
                rows,
                reference[slot],
                outcome.plan
            );
            checked.wrong += 1;
            checked.failed += 1;
        }
    }
    Ok(checked)
}

/// Median of `values` (0 when empty).
fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of `values` (0 when empty).
fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn end_to_end(bench: &Bench, phase: &Phase) -> Vec<Metric> {
    let completed = phase.completed().max(1) as f64;
    let mut latencies: Vec<f64> =
        phase.outcomes.iter().filter(|o| o.result.is_ok()).map(|o| o.latency_ms).collect();
    let pool_reads = (phase.delta.bp_hits + phase.delta.bp_misses) as f64;
    vec![
        Metric::new("throughput_qps", phase.throughput_qps(), "1/s"),
        Metric::new("latency_p50_ms", percentile(&mut latencies, 0.50), "ms"),
        Metric::new("latency_p95_ms", percentile(&mut latencies, 0.95), "ms"),
        Metric::new("cpu_ms_per_query", phase.cpu_s * 1e3 / completed, "ms"),
        Metric::new("pages_read_per_query", pool_reads / completed, "pages"),
        Metric::new("peak_rss_mb", phase.peak_rss_mb, "MiB"),
        Metric::new("setup_s", bench.setup_s, "s"),
    ]
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> QResult<Report> {
    let clients = opts.workload.clients();
    let mut notes = vec![format!(
        "workload {} clients {} pool_pages {} seed {} data_seed {} nproc {}",
        opts.workload.name(),
        clients,
        opts.workload.pool_pages(),
        opts.seed,
        opts.data_seed,
        host::nproc()
    )];
    let (phase, checked, metrics) =
        if opts.trace { run_traced(opts, &mut notes)? } else { run_measured(opts, &mut notes)? };
    let completed = phase.completed();
    notes.push(format!(
        "completed {completed} in {:.3} s; latency samples {completed}, {} beyond p95; \
         attempted {} failed {} wrong_answers {} error_rate {:.4}",
        phase.elapsed_s,
        completed - (completed as f64 * 0.95).ceil() as usize,
        checked.attempted,
        checked.failed,
        checked.wrong,
        checked.failed as f64 / checked.attempted.max(1) as f64,
    ));
    notes.push(format!(
        "host steal {:.2}% over the measured phase; disk blocks read {}; OSP attaches {}",
        phase.steal_pct, phase.delta.disk_blocks_read, phase.delta.osp_attaches
    ));
    Ok(Report {
        correct: checked.wrong == 0,
        attempted: checked.attempted,
        failed: checked.failed,
        metrics,
        notes,
    })
}

/// The end-to-end run: set up [`SETUPS`] times, then one untraced phase.
fn run_measured(opts: &Options, notes: &mut Vec<String>) -> QResult<(Phase, Checked, Vec<Metric>)> {
    let clients = opts.workload.clients();
    let bench = boot_repeated(opts)?;
    notes.push(format!(
        "task_workers {} threads_after_boot {}",
        bench.engine().config().exec.task_workers,
        host::threads().unwrap_or(0)
    ));
    warm_up(&bench, clients, opts.seed);
    let phase = closed_loop(&bench, clients, opts.seed, Duration::from_secs_f64(opts.seconds));
    let checked = check_answers(&bench, &phase)?;
    let metrics = end_to_end(&bench, &phase);
    Ok((phase, checked, metrics))
}

/// The traced run: half the time on an untraced engine, for the tracing
/// overhead, then half on a traced one, which the layer metrics describe.
fn run_traced(opts: &Options, notes: &mut Vec<String>) -> QResult<(Phase, Checked, Vec<Metric>)> {
    let clients = opts.workload.clients();
    let half = Duration::from_secs_f64(opts.seconds / 2.0);
    let plain = boot(opts, false)?;
    warm_up(&plain, clients, opts.seed);
    let untraced = closed_loop(&plain, clients, opts.seed, half);
    let untraced_checked = check_answers(&plain, &untraced)?;
    drop(plain);
    let traced = boot(opts, true)?;
    let pool_threads = host::threads().unwrap_or(0);
    warm_up(&traced, clients, opts.seed);
    let phase = closed_loop(&traced, clients, opts.seed, half);
    let mut checked = check_answers(&traced, &phase)?;
    checked.attempted += untraced_checked.attempted;
    checked.failed += untraced_checked.failed;
    checked.wrong += untraced_checked.wrong;
    let input = layers::LayerInput {
        delta: &phase.delta,
        after: &phase.after,
        completed: phase.completed() as f64,
        profiles: phase.outcomes.iter().filter_map(|o| o.profile.as_ref()).collect(),
        submit_us: phase.outcomes.iter().map(|o| o.submit_us).collect(),
        collect_ms: phase.outcomes.iter().map(|o| o.collect_ms).collect(),
        steal_pct: phase.steal_pct,
        task_workers: traced.engine().config().exec.task_workers as f64,
        pool_threads: pool_threads as f64,
        untraced_qps: untraced.throughput_qps(),
        traced_qps: phase.throughput_qps(),
    };
    let metrics = layers::layer_metrics(&input);
    let a = &phase.after;
    notes.push(format!(
        "histogram samples since boot: admission {} pool queue {} bufferpool fetch {}; \
         client spans {}; untraced half {:.3} qps",
        a.admission_wait_us.count,
        a.pool_queue_wait_us.count,
        a.bp_fetch_us.count,
        phase.outcomes.len(),
        untraced.throughput_qps()
    ));
    Ok((phase, checked, metrics))
}
