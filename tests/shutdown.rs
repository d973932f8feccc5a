//! Engine lifecycle: shutdown must join every service thread, and the
//! per-query deadline must terminate overdue work.
//!
//! `QPipe` owns a deadlock-detector thread, an admission-sweeper thread
//! (when a queue timeout or execution deadline is configured), one
//! dispatcher thread per µEngine, and transient worker/scanner threads.
//! Dropping the engine must wind all of them down — an engine-per-request
//! embedding would otherwise accumulate threads until exhaustion (and a
//! leaked sweeper would keep failing queries of a dead engine).
//!
//! Thread counts are process-wide, so every test here holds [`serial`]:
//! one engine at a time, whatever the harness's test threads.

use qpipe::prelude::*;
use qpipe::quick_system;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("linux procfs").count()
}

/// Serializes this file's tests, so a thread count sees one engine.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the next test still runs alone.
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn demo_catalog(rows: i64) -> Arc<Catalog> {
    let catalog = quick_system(DiskConfig::instant(), 256);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    catalog
        .create_table(
            "t",
            schema,
            (0..rows).map(|i| vec![Value::Int(i % 97), Value::Int(i)]).collect(),
            None,
        )
        .unwrap();
    catalog
}

/// Build + query + drop an engine repeatedly: the thread count must return
/// to baseline each time (detector, sweeper, µEngine dispatchers, workers —
/// all joined or wound down, none accumulated).
#[test]
fn repeated_engine_lifecycles_do_not_leak_threads() {
    let _serial = serial();
    let catalog = demo_catalog(500);
    // Deadline + queue timeout force the admission sweeper thread to exist,
    // so this exercises every service thread the engine can own.
    let config = QPipeConfig {
        exec: ExecConfig { query_deadline: Some(Duration::from_secs(30)), ..ExecConfig::default() },
        admit: AdmitConfig {
            queue_timeout: Some(Duration::from_secs(30)),
            ..AdmitConfig::default()
        },
        ..QPipeConfig::default()
    };
    let cycle = |catalog: &Arc<Catalog>| {
        let engine = QPipe::new(catalog.clone(), config);
        let rows = engine.submit(PlanNode::scan("t")).unwrap().collect();
        assert_eq!(rows.len(), 500);
        drop(engine);
    };
    // Warm-up reaches the runtime's steady state (test harness threads,
    // lazily initialized pools) before the baseline is taken.
    cycle(&catalog);
    let settle = |bound: usize, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let n = live_threads();
            if n <= bound {
                return n;
            }
            assert!(Instant::now() < deadline, "{what}: {n} threads alive, want <= {bound}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let baseline = settle(usize::MAX, "unreachable");
    for i in 0..5 {
        cycle(&catalog);
        settle(baseline, &format!("cycle {i} leaked threads"));
    }
}

/// End-to-end deadline: a query that outlives `query_deadline` is failed by
/// the admission sweeper with `QError::Timeout`, its admission slots are
/// released, and the engine stays usable for the next query.
#[test]
fn query_deadline_times_out_slow_queries_end_to_end() {
    let _serial = serial();
    // A latency-charging disk makes the multi-pass sort take real time.
    let catalog = quick_system(DiskConfig::experiment(), 64);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    catalog
        .create_table(
            "big",
            schema,
            (0..30_000).map(|i| vec![Value::Int(i % 1009), Value::Int(i)]).collect(),
            None,
        )
        .unwrap();
    let config = QPipeConfig {
        exec: ExecConfig {
            query_deadline: Some(Duration::from_millis(5)),
            sort_budget: 256,
            ..ExecConfig::default()
        },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    let plan = PlanNode::scan("big").sort(vec![SortKey::asc(0)]);
    let err = engine
        .submit(plan)
        .unwrap()
        .try_collect()
        .expect_err("a 5 ms deadline must fire on a multi-second sort");
    assert_eq!(err, QError::Timeout, "deadline failure surfaces as Timeout");
    assert_eq!(engine.metrics().snapshot().query_timeouts, 1);
    // Slots released: a fast follow-up query runs to completion.
    let engine2 = engine.clone();
    let rows = engine2
        .submit(PlanNode::scan("big").aggregate(vec![], vec![AggSpec::count_star()]))
        .unwrap()
        .try_collect();
    // The count query is itself subject to the 5 ms deadline on the slow
    // disk, so accept either outcome — what matters is a settled result.
    match rows {
        Ok(r) => assert_eq!(r[0][0], Value::Int(30_000)),
        Err(e) => assert_eq!(e, QError::Timeout),
    }
}

/// Fault-free burst on fixed pools: the engine's thread count stays bounded
/// by its steady-state service threads (detector, sweeper, dispatchers,
/// pool workers) plus a small transient allowance (scanner threads), no
/// matter how many queries are in flight. Thread-per-packet execution would
/// spike by roughly one thread per queued packet here.
#[test]
fn query_burst_keeps_thread_count_bounded() {
    let _serial = serial();
    let catalog = demo_catalog(2000);
    let config = QPipeConfig {
        exec: ExecConfig { pool_workers: 2, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    // Warm up: first query starts lazily created service threads.
    assert_eq!(engine.submit(PlanNode::scan("t")).unwrap().collect().len(), 2000);
    std::thread::sleep(Duration::from_millis(50));
    let steady = live_threads();
    // Generous transient allowance: dedicated scanner threads plus the
    // sampler below. Far below the ~48 extra threads a thread-per-packet
    // engine would reach with every arrival in flight.
    let bound = steady + 16;

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let peak = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut peak = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                peak = peak.max(live_threads());
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        })
    };
    let handles: Vec<_> = (0..48)
        .map(|_| engine.submit(PlanNode::scan("t")).expect("admission accepts the burst"))
        .collect();
    for h in handles {
        assert_eq!(h.try_collect().expect("fault-free query").len(), 2000);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let peak = peak.join().unwrap();
    assert_eq!(engine.metrics().snapshot().worker_panics, 0, "fault-free run");
    assert!(
        peak <= bound,
        "thread count must stay pool-bounded: peak {peak} > steady {steady} + 16"
    );
}

/// An injected panic inside a pool worker (morsel page job) fails only the
/// packets attached to that scan; the pool's workers survive and the same
/// engine keeps serving later queries.
#[test]
fn injected_worker_panic_fails_only_owning_packet() {
    let _serial = serial();
    injected_page_panic_is_contained(4);
}

/// With one task worker every page job runs inline on the scanner thread;
/// a panic there is contained the same way.
#[test]
fn injected_inline_page_panic_fails_only_owning_packet() {
    let _serial = serial();
    injected_page_panic_is_contained(1);
}

fn injected_page_panic_is_contained(task_workers: usize) {
    use qpipe::common::{FaultInjector, FaultKind, FaultOp, FaultRule};
    let catalog = demo_catalog(5000);
    let disk = catalog.disk().clone();
    let config = QPipeConfig {
        exec: ExecConfig { pool_workers: 4, task_workers, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    // First read of t's block 0 panics inside whichever thread fetches it.
    let rules = vec![FaultRule::new(FaultKind::Panic)
        .on_file("t")
        .on_blocks(0..1)
        .on_op(FaultOp::Read)
        .times(1)];
    disk.set_fault_injector(Some(Arc::new(FaultInjector::new(11, rules))));
    let err = engine
        .submit(PlanNode::scan("t"))
        .unwrap()
        .try_collect()
        .expect_err("the panicked scan's query must fail, not hang or truncate");
    assert!(matches!(err, QError::Exec(_) | QError::Storage(_)), "clean failure: {err:?}");
    disk.set_fault_injector(None);
    assert_eq!(engine.metrics().snapshot().worker_panics, 1, "one panic, caught once");
    // The pools are intact: the same engine serves the next queries.
    for _ in 0..3 {
        let rows = engine.submit(PlanNode::scan("t")).unwrap().try_collect().unwrap();
        assert_eq!(rows.len(), 5000);
    }
    assert_eq!(engine.metrics().snapshot().worker_panics, 1, "no further panics");
}
