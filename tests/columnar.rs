//! Columnar tables end to end. Every table is stored as PAX-style columnar
//! pages; each scenario here runs the staged engine — the shared circular
//! scanner, bounded index scans, the paper's whole query mix — and checks it
//! against the iterator engine (`qpipe::exec::iter::run`) on the same
//! catalog.

use qpipe::prelude::*;
use qpipe::quick_system;
use qpipe_workloads::tpch::{self, build_tpch, TpchScale, MIX};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn tpch_catalog() -> Arc<Catalog> {
    let catalog = quick_system(DiskConfig::instant(), 512);
    build_tpch(&catalog, TpchScale::tiny(), 42).unwrap();
    catalog
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(a.len().cmp(&b.len()))
    });
    rows
}

/// The iterator engine's answer for `plan`, sorted.
fn reference(plan: &PlanNode, catalog: &Arc<Catalog>) -> Vec<Tuple> {
    sorted(qpipe::exec::iter::run(plan, &ExecContext::new(catalog.clone())).unwrap())
}

/// Several concurrent consumers with different predicates on ONE physical
/// scan of a columnar table each get exactly the iterator engine's rows.
#[test]
fn shared_circular_scan_parity_across_layouts() {
    let catalog = tpch_catalog();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let queries = [
        PlanNode::scan("lineitem"),
        PlanNode::scan_filtered(
            "lineitem",
            Expr::col(tpch::cols::L_SHIPDATE).ge(Expr::lit(Value::Date(1200))),
        ),
        PlanNode::scan_filtered(
            "lineitem",
            // col ⋄ col: the vectorized pairwise kernel path.
            Expr::col(tpch::cols::L_COMMITDATE).lt(Expr::col(tpch::cols::L_RECEIPTDATE)),
        ),
    ];
    // Submit together so they share one scanner; drain concurrently.
    let handles: Vec<_> = queries.iter().map(|q| engine.submit(q.clone()).unwrap()).collect();
    let threads: Vec<_> =
        handles.into_iter().map(|h| std::thread::spawn(move || h.collect())).collect();
    for (i, (t, q)) in threads.into_iter().zip(&queries).enumerate() {
        let got = sorted(t.join().unwrap());
        assert!(!got.is_empty(), "query {i} must produce rows for the test to be meaningful");
        assert_eq!(got, reference(q, &catalog), "query {i}: shared scan diverges");
    }
}

/// The paper's TPC-H mix through the staged engine matches the iterator
/// engine query by query.
#[test]
fn full_tpch_mix_parity_across_layouts() {
    let catalog = tpch_catalog();
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let mut rng = StdRng::seed_from_u64(7);
    for &q in MIX.iter() {
        let plan = tpch::query(q, &mut rng);
        let got = sorted(engine.submit(plan.clone()).unwrap().collect());
        assert_eq!(got, reference(&plan, &catalog), "Q{q}: staged engine diverges");
    }
}

/// Bounded clustered and unclustered index scans return exactly the rows of
/// the equivalent filtered full scan, in both engines. The staged engine
/// runs these scans as row iterators and converts their output to batches.
#[test]
fn clustered_and_unclustered_access_parity_across_layouts() {
    use tpch::cols::{L_ORDERKEY, L_PARTKEY};
    let catalog = tpch_catalog();
    catalog.create_index("lineitem", "l_partkey").unwrap();
    let between = |col: usize, lo: i64, hi: i64| {
        PlanNode::scan_filtered(
            "lineitem",
            Expr::and([Expr::col(col).ge(Expr::lit(lo)), Expr::col(col).le(Expr::lit(hi))]),
        )
    };
    let clustered = PlanNode::ClusteredIndexScan {
        table: "lineitem".into(),
        lo: Some(Value::Int(100)),
        hi: Some(Value::Int(400)),
        predicate: None,
        projection: None,
        ordered: true,
    };
    let unclustered = PlanNode::UnclusteredIndexScan {
        table: "lineitem".into(),
        column: "l_partkey".into(),
        lo: Some(Value::Int(10)),
        hi: Some(Value::Int(20)),
        predicate: None,
        projection: None,
    };
    let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
    let ctx = ExecContext::new(catalog.clone());
    for (name, index_scan, full_scan) in [
        ("clustered", clustered, between(L_ORDERKEY, 100, 400)),
        ("unclustered", unclustered, between(L_PARTKEY, 10, 20)),
    ] {
        let expected = reference(&full_scan, &catalog);
        assert!(!expected.is_empty(), "{name}: the range must select rows");
        let iter = sorted(qpipe::exec::iter::run(&index_scan, &ctx).unwrap());
        assert_eq!(iter, expected, "{name} index scan, iterator engine");
        let staged = sorted(engine.submit(index_scan).unwrap().collect());
        assert_eq!(staged, expected, "{name} index scan, staged engine");
    }
}

/// Every table loads as columnar pages, and reading them back yields the
/// cardinality the catalog recorded at load time.
#[test]
fn columnar_layout_loads_identical_cardinalities() {
    let catalog = tpch_catalog();
    let ctx = ExecContext::new(catalog.clone());
    for t in catalog.table_names() {
        let info = catalog.table(&t).unwrap();
        let pages = info.num_pages().unwrap();
        assert!(pages > 0, "{t}: loaded");
        for p in 0..pages {
            let block = catalog.disk().read_block(info.file_id(), p).unwrap();
            assert!(block.as_columnar().is_ok(), "{t}: page {p} is columnar");
        }
        let rows = qpipe::exec::iter::run(&PlanNode::scan(&t), &ctx).unwrap();
        assert_eq!(rows.len() as u64, info.num_tuples(), "{t}: cardinality");
    }
}
