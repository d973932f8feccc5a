//! µEngine operator workers.
//!
//! Each worker executes one *host* packet to completion: it pulls input from
//! the packet's child pipes, evaluates the relational operator (reusing the
//! iterator-model kernels from `qpipe-exec`), and broadcasts output through a
//! [`SharedHost`] so satellites attached by the OSP coordinator receive the
//! same stream (paper Figure 6b step 4).

use crate::host::{AttachWindow, ShareRegistry, SharedHost};
use crate::packet::Packet;
use crate::pipe::{PipeConsumer, PipeIter};
use qpipe_common::colbatch::SelVec;
use qpipe_common::trace::{OpProbe, QueryTrace, TraceEvent};
use qpipe_common::{ColBatch, MemClass, Metrics, QResult, Tuple, Value};
use qpipe_exec::expr::Expr;
use qpipe_exec::iter::{
    build, HashJoinIter, MergeJoinIter, NestedLoopJoinIter, SortIter, TupleIter, VecIter,
};
use qpipe_exec::plan::{AggSpec, PlanNode, SortKey};
use qpipe_exec::vexpr::project_batch;
use qpipe_exec::viter::{hash_build_slice, HashAgg, HashJoinBuild, HashJoinTable};
use qpipe_exec::vsort::VecSort;
use std::sync::Arc;

/// Shared environment handed to every worker.
pub struct OpEnv {
    pub ctx: qpipe_exec::iter::ExecContext,
    pub metrics: Metrics,
    /// OSP on/off; when off, no hosts are registered and no attaching occurs.
    pub osp: bool,
    /// Host history window in batches (buffering enhancement).
    pub backfill: usize,
    /// Shared task pool for intra-operator parallelism (hash-build
    /// partitioning, agg partials). Jobs submitted here must never block on
    /// pipes — they hash and fold, then report over a channel.
    pub tasks: Arc<crate::pool::WorkerPool>,
}

/// Prepare a packet for execution: build its [`SharedHost`] and (when OSP is
/// on and the operator is shareable) register it under the packet's
/// signature. Called by the µEngine dispatcher thread *synchronously*, so
/// that the OSP lookup and host registration are atomic — a burst of
/// identical packets dequeued back-to-back must all find the first one's
/// host.
pub fn prepare(
    packet: Packet,
    registry: &Arc<ShareRegistry>,
    env: &OpEnv,
) -> (Packet, Arc<SharedHost>, Option<crate::host::RegistryGuard>) {
    let window = attach_window(&packet.plan);
    let engine = packet.plan.op_name();
    let mut packet = packet;
    let output = packet.output.take().expect("fresh packet has an output");
    let host = SharedHost::new(
        window,
        env.backfill,
        packet.node,
        output,
        engine_static_name(engine),
        env.metrics.clone(),
        packet.probe.clone(),
    );
    let guard = if env.osp && window_shareable(&packet.plan) {
        Some(registry.register(packet.signature, host.clone()))
    } else {
        None
    };
    (packet, host, guard)
}

/// Per-packet observability handles threaded into the operator workers that
/// can be denied memory. Both fields are `None` when tracing is off.
struct Obs<'a> {
    probe: Option<&'a Arc<OpProbe>>,
    trace: Option<&'a Arc<QueryTrace>>,
    op: &'static str,
}

impl Obs<'_> {
    /// Count a memory-governor denial against the operator's probe; the
    /// journal records only the first one (an aggregate past its lease is
    /// denied on every batch — one event tells the story, thousands would
    /// evict everything else from the ring).
    fn mem_denied(&self) {
        let first = match self.probe {
            Some(p) => {
                p.add_mem_denied();
                p.stats().mem_denied == 1
            }
            None => true,
        };
        if first {
            if let Some(t) = self.trace {
                t.push(TraceEvent::MemDenied { op: self.op });
            }
        }
    }
}

/// Execute a prepared packet on the calling thread.
pub fn execute(mut packet: Packet, host: Arc<SharedHost>, env: &OpEnv) {
    if packet.cancel.is_cancelled() && !host.wanted() {
        host.abort();
        return;
    }
    let children = std::mem::take(&mut packet.children);
    let cancel = packet.cancel.clone();
    let plan = packet.plan.clone();
    let obs =
        Obs { probe: packet.probe.as_ref(), trace: packet.trace.as_ref(), op: plan.op_name() };
    let started = (packet.probe.is_some() || packet.trace.is_some()).then(std::time::Instant::now);
    let result = run_operator(&plan, children, &host, &cancel, env, &obs);
    if let Some(started) = started {
        if let Some(p) = &packet.probe {
            p.add_total_ns(started.elapsed().as_nanos() as u64);
        }
        if let Some(t) = &packet.trace {
            let s = packet.probe.as_ref().map(|p| p.stats()).unwrap_or_default();
            t.push(TraceEvent::OperatorFinished {
                op: plan.op_name(),
                rows: s.rows,
                batches: s.batches,
                busy_ns: s.busy_ns,
                pipe_wait_ns: s.pipe_wait_ns,
                io_wait_ns: s.io_wait_ns,
            });
        }
    }
    if let Err(e) = result {
        // Poison the outputs: consumers (including attached satellites)
        // observe the error rather than mistaking truncated output for a
        // complete result. Plans are validated at submit time, so runtime
        // errors here indicate storage failures mid-execution.
        host.fail(&e);
        return;
    }
    host.finish();
}

fn engine_static_name(name: &str) -> &'static str {
    match name {
        "sort" => "sort",
        "agg" => "agg",
        "hashjoin" => "hashjoin",
        "mergejoin" => "mergejoin",
        "nljoin" => "nljoin",
        "uiscan" => "uiscan",
        "filter" => "filter",
        "project" => "project",
        "iscan" => "iscan",
        _ => "other",
    }
}

/// Attach window per operator class (§3.2 → host rules).
fn attach_window(plan: &PlanNode) -> AttachWindow {
    match plan {
        // Sort materializes its output (runs/sorted vector) — late attachers
        // replay it: whole-lifetime window (full overlap + materialization).
        PlanNode::Sort { .. } => AttachWindow::WholeLifetime,
        // Single aggregates are full overlap; group-by is step but only emits
        // at the end, so the window is identical in practice.
        PlanNode::Aggregate { .. } => AttachWindow::WholeLifetime,
        _ => AttachWindow::UntilFirstOutput,
    }
}

/// Which operators register hosts at all.
fn window_shareable(plan: &PlanNode) -> bool {
    !matches!(plan, PlanNode::Filter { .. } | PlanNode::Project { .. })
}

/// Drive a row iterator to completion, pushing its output into the host as
/// columnar batches — the one place row-producing operators (merge join,
/// nested-loop join, bounded index scans, the OSP-off table scan, and the
/// grace-join and ragged-sort fallbacks) convert to the pipes' batch type.
fn drain_into_host(
    mut it: impl TupleIter,
    host: &SharedHost,
    cancel: &crate::packet::CancelToken,
) -> QResult<()> {
    let mut rows = Vec::with_capacity(ColBatch::DEFAULT_CAPACITY);
    loop {
        // A severed packet may still be hosting satellites from other
        // queries; only stop once nobody reads any of the outputs.
        if cancel.is_cancelled() && !host.wanted() {
            return Ok(());
        }
        let Some(t) = it.next()? else { break };
        rows.push(t);
        if rows.len() == ColBatch::DEFAULT_CAPACITY {
            host.push_cols(ColBatch::from_rows(&rows));
            rows.clear();
        }
    }
    if !rows.is_empty() {
        host.push_cols(ColBatch::from_rows(&rows));
    }
    Ok(())
}

fn run_operator(
    plan: &PlanNode,
    mut children: Vec<crate::pipe::PipeConsumer>,
    host: &SharedHost,
    cancel: &crate::packet::CancelToken,
    env: &OpEnv,
    obs: &Obs<'_>,
) -> QResult<()> {
    match plan {
        PlanNode::Sort { keys, .. } => run_sort(children.remove(0), keys, host, cancel, env),
        PlanNode::Aggregate { group_by, aggs, .. } => {
            run_aggregate(children.remove(0), group_by, aggs, host, cancel, env, obs)
        }
        PlanNode::HashJoin { left_key, right_key, .. } => {
            run_hash_join(children, *left_key, *right_key, host, cancel, env, obs)
        }
        PlanNode::NestedLoopJoin { predicate, .. } => {
            let left = Box::new(pipe_iter(children.remove(0), env));
            let right = Box::new(pipe_iter(children.remove(0), env));
            let it = NestedLoopJoinIter::new(left, right, predicate.clone());
            drain_into_host(it, host, cancel)
        }
        PlanNode::MergeJoin { left, right, left_key, right_key } => {
            run_merge_join(children, (left, *left_key), (right, *right_key), host, cancel, env)
        }
        PlanNode::Filter { predicate, .. } => {
            run_filter(children.remove(0), predicate, host, cancel, env)
        }
        PlanNode::Project { exprs, .. } => {
            run_project(children.remove(0), exprs, host, cancel, env)
        }
        PlanNode::UnclusteredIndexScan { .. } | PlanNode::ClusteredIndexScan { .. } => {
            // Bounded index scans execute directly via the iterator kernel
            // (unbounded ordered scans are routed to the circular ScanManager
            // by the engine and never reach here).
            let it = build(plan, &env.ctx)?;
            drain_into_host(it, host, cancel)
        }
        PlanNode::TableScan { .. } => {
            // Table scans are handled by the ScanManager; reaching here means
            // the engine routed a scan to the generic path (OSP off + tests).
            let it = build(plan, &env.ctx)?;
            drain_into_host(it, host, cancel)
        }
    }
}

/// Row-path ingest adapter, wired to count every `ColBatch` it flattens.
fn pipe_iter(consumer: PipeConsumer, env: &OpEnv) -> PipeIter {
    PipeIter::with_metrics(consumer, env.metrics.clone())
}

// ---------------------------------------------------------------------------
// Vectorized hash join / aggregation (batch-native µEngine workers)
// ---------------------------------------------------------------------------

/// Sources drained in order, front to back — the hand-off shape when a
/// vectorized operator abandons the columnar path (budget overflow → grace
/// spill, or ragged input widths) and replays everything buffered so far in
/// front of the remaining pipe stream through the unchanged row-path
/// operator.
struct SeqIter(Vec<Box<dyn TupleIter>>);

impl TupleIter for SeqIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        while let Some(first) = self.0.first_mut() {
            if let Some(t) = first.next()? {
                return Ok(Some(t));
            }
            self.0.remove(0);
        }
        Ok(None)
    }
}

/// Hash join over `Arc<ColBatch>` streams: build accumulates batches
/// without materializing a single `Tuple`, probe matches whole batches
/// through the `viter` kernels. A build side the governor refuses to cover
/// (hash budget reached, or the global budget exhausted by concurrent
/// queries — or ragged input widths) falls back to the row-path
/// [`HashJoinIter`], whose grace partitioning is unchanged.
fn run_hash_join(
    mut children: Vec<PipeConsumer>,
    left_key: usize,
    right_key: usize,
    host: &SharedHost,
    cancel: &crate::packet::CancelToken,
    env: &OpEnv,
    obs: &Obs<'_>,
) -> QResult<()> {
    let left = children.remove(0);
    let right = children.remove(0);
    let mut lease = env.ctx.governor.lease(MemClass::Hash);
    let mut build = HashJoinBuild::new(left_key);
    loop {
        if cancel.is_cancelled() && !host.wanted() {
            return Ok(());
        }
        let Some(batch) = left.recv()? else { break };
        let accepted = build.add(&batch);
        let covered = lease.covers(build.rows());
        if !covered {
            obs.mem_denied();
        }
        if !accepted || !covered {
            env.metrics.add_vec_fallback();
            // The grace fallback acquires its own lease; hand ours back
            // first so the partition loads see the released headroom.
            drop(lease);
            let mut prefix = build.into_rows();
            if !accepted {
                prefix.extend(batch.to_rows());
            }
            let l = Box::new(SeqIter(vec![
                Box::new(VecIter::new(prefix)),
                Box::new(pipe_iter(left, env)),
            ]));
            let r = Box::new(pipe_iter(right, env));
            let it = HashJoinIter::new(l, r, left_key, right_key, env.ctx.clone());
            return drain_into_host(it, host, cancel);
        }
    }
    let table = finish_build(build, env)?;
    while let Some(batch) = right.recv()? {
        if cancel.is_cancelled() && !host.wanted() {
            return Ok(());
        }
        table.probe(&batch, right_key, ColBatch::DEFAULT_CAPACITY, |out| host.push_cols(out))?;
        env.metrics.add_vec_join_batch();
    }
    Ok(())
}

/// Freeze a hash-join build side, hashing contiguous row slices on the
/// shared task pool when the build is large enough to amortize the fan-out.
/// Row hashes depend only on row values and buckets fill in ascending row
/// order, so the table — and every downstream probe — is bit-identical to
/// the serial [`HashJoinBuild::finish`].
fn finish_build(build: HashJoinBuild, env: &OpEnv) -> QResult<HashJoinTable> {
    let workers = env.tasks.workers();
    if workers <= 1 || build.rows() < 2 * ColBatch::DEFAULT_CAPACITY {
        return build.finish();
    }
    let (batch, key) = build.into_batch();
    let n = batch.len();
    let stripes = workers.min(n.div_ceil(ColBatch::DEFAULT_CAPACITY)).max(1);
    let per = n.div_ceil(stripes);
    let shared = Arc::new(batch);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut dispatched = 0;
    for s in 0..stripes {
        let at = s * per;
        if at >= n {
            break;
        }
        let len = per.min(n - at);
        let job_batch = shared.clone();
        let job_tx = tx.clone();
        let accepted = env.tasks.execute(None, move || {
            let _ = job_tx.send((s, hash_build_slice(&job_batch.slice(at, len), key)));
        });
        if !accepted {
            // Pool shutting down: hash the slice inline so the join still
            // completes deterministically.
            let _ = tx.send((s, hash_build_slice(&shared.slice(at, len), key)));
        }
        dispatched += 1;
    }
    drop(tx);
    env.metrics.add_morsel_dispatched();
    // A job that panicked (the pool's backstop caught + counted it) never
    // sends; the missing stripe surfaces as an error rather than a table
    // silently built from partial hashes.
    let mut parts: Vec<Option<QResult<Vec<u64>>>> = (0..dispatched).map(|_| None).collect();
    for (s, out) in rx {
        parts[s] = Some(out);
    }
    let mut hashes = Vec::with_capacity(n);
    for p in parts {
        let p =
            p.ok_or_else(|| qpipe_common::QError::Exec("hash-build worker panicked".to_string()))??;
        hashes.extend(p);
    }
    let batch = Arc::try_unwrap(shared).unwrap_or_else(|arc| ColBatch::clone(&arc));
    HashJoinTable::from_hashes(batch, key, hashes)
}

/// Hash aggregation over `Arc<ColBatch>` streams: batches fold through
/// [`HashAgg`]'s column-run update. The group table
/// grows under a governor lease (aggregation has no spill path, so a denied
/// grant is counted as `mem_waited` and the update proceeds — overshoot is
/// visible rather than silent). Output is built as a `ColBatch` and emitted
/// in pipe-granularity slices, so agg → sort plans stay columnar.
fn run_aggregate(
    input: PipeConsumer,
    group_by: &[usize],
    aggs: &[AggSpec],
    host: &SharedHost,
    cancel: &crate::packet::CancelToken,
    env: &OpEnv,
    obs: &Obs<'_>,
) -> QResult<()> {
    let mut lease = env.ctx.governor.lease(MemClass::Agg);
    let mut agg = HashAgg::new(group_by.to_vec(), aggs.to_vec());
    // Morsel-parallel partials are gated to the order-insensitive functions:
    // integer counts merge exactly, and MIN/MAX keep the earlier operand on
    // ties, so contiguous stripes merged in stream order reproduce the
    // serial fold bit-for-bit. Float SUM/AVG would reassociate the fold
    // (visible at the 2^53 boundary), so they stay serial.
    let parallel_ok = env.tasks.workers() > 1
        && aggs.iter().all(|s| {
            use qpipe_exec::plan::AggFunc;
            matches!(s.func, AggFunc::CountStar | AggFunc::Count | AggFunc::Min | AggFunc::Max)
        });
    let round_cap = env.tasks.workers() * 4 * ColBatch::DEFAULT_CAPACITY;
    let mut pending: Vec<Arc<ColBatch>> = Vec::new();
    let mut pending_rows = 0usize;
    while let Some(batch) = input.recv()? {
        if cancel.is_cancelled() && !host.wanted() {
            return Ok(());
        }
        env.metrics.add_vec_agg_batch();
        if parallel_ok {
            // Defer into the current round; fold when it fills.
            pending_rows += batch.len();
            pending.push(batch);
            if pending_rows >= round_cap {
                fold_pending(&mut agg, group_by, aggs, &mut pending, env)?;
                pending_rows = 0;
            }
        } else {
            agg.update_cols(&batch)?;
        }
        if !lease.covers(agg.num_groups()) {
            obs.mem_denied();
        }
    }
    fold_pending(&mut agg, group_by, aggs, &mut pending, env)?;
    let out = agg.finish_cols();
    let mut at = 0;
    while at < out.len() {
        let n = (out.len() - at).min(ColBatch::DEFAULT_CAPACITY);
        host.push_cols(out.slice(at, n));
        at += n;
    }
    Ok(())
}

/// Fold one round of deferred batches into `agg`: contiguous runs of
/// batches become per-worker partial [`HashAgg`]s on the task pool, then
/// merge back in stream order ([`HashAgg::merge`] documents why that is
/// exact for the gated functions).
fn fold_pending(
    agg: &mut HashAgg,
    group_by: &[usize],
    aggs: &[AggSpec],
    pending: &mut Vec<Arc<ColBatch>>,
    env: &OpEnv,
) -> QResult<()> {
    let batches = std::mem::take(pending);
    if batches.is_empty() {
        return Ok(());
    }
    let stripes = env.tasks.workers().min(batches.len());
    if stripes <= 1 {
        for b in &batches {
            agg.update_cols(b)?;
        }
        return Ok(());
    }
    let per = batches.len().div_ceil(stripes);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut dispatched = 0;
    for (s, chunk) in batches.chunks(per).enumerate() {
        let chunk: Vec<Arc<ColBatch>> = chunk.to_vec();
        let job_group_by = group_by.to_vec();
        let job_aggs = aggs.to_vec();
        let job_tx = tx.clone();
        let fold = move || -> QResult<HashAgg> {
            let mut part = HashAgg::new(job_group_by, job_aggs);
            for b in &chunk {
                part.update_cols(b)?;
            }
            Ok(part)
        };
        let accepted = env.tasks.execute(None, move || {
            let _ = job_tx.send((s, fold()));
        });
        if !accepted {
            // Pool shutting down: the closure was dropped unrun (its sender
            // with it); fold this stripe inline and send the partial through
            // the same channel so stripe merge order is preserved.
            let lo = s * per;
            let mut part = HashAgg::new(group_by.to_vec(), aggs.to_vec());
            for b in &batches[lo..(lo + per).min(batches.len())] {
                part.update_cols(b)?;
            }
            let _ = tx.send((s, Ok(part)));
        }
        dispatched += 1;
    }
    drop(tx);
    env.metrics.add_morsel_dispatched();
    // A job that panicked (the pool's backstop caught + counted it) never
    // sends; the missing stripe surfaces as an error rather than an
    // undercounted aggregate.
    let mut parts: Vec<Option<QResult<HashAgg>>> = (0..dispatched).map(|_| None).collect();
    for (s, out) in rx {
        parts[s] = Some(out);
    }
    for p in parts {
        let part =
            p.ok_or_else(|| qpipe_common::QError::Exec("aggregate worker panicked".to_string()))??;
        agg.merge(part);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Vectorized filter / projection / sort (batch-native µEngine workers)
// ---------------------------------------------------------------------------

/// Filter over `Arc<ColBatch>` streams: the selection-vector kernels
/// (`Expr::eval_filter`) run per batch and the survivors are compacted once
/// (`gather`) before broadcast — no `Tuple` is ever materialized.
fn run_filter(
    input: PipeConsumer,
    predicate: &Expr,
    host: &SharedHost,
    cancel: &crate::packet::CancelToken,
    env: &OpEnv,
) -> QResult<()> {
    while let Some(batch) = input.recv()? {
        if cancel.is_cancelled() && !host.wanted() {
            return Ok(());
        }
        let sel = predicate.eval_filter(&batch)?;
        env.metrics.add_vec_filter_batch();
        if !sel.is_empty() {
            host.push_cols(batch.gather(&sel));
        }
    }
    Ok(())
}

/// Projection over `Arc<ColBatch>` streams: the expression list evaluates
/// column-at-a-time (`project_batch` — an `Arc`-bump gather for plain column
/// references).
fn run_project(
    input: PipeConsumer,
    exprs: &[Expr],
    host: &SharedHost,
    cancel: &crate::packet::CancelToken,
    env: &OpEnv,
) -> QResult<()> {
    while let Some(batch) = input.recv()? {
        if cancel.is_cancelled() && !host.wanted() {
            return Ok(());
        }
        let out = project_batch(exprs, &batch, &SelVec::all(batch.len()))?;
        env.metrics.add_vec_project_batch();
        if !out.is_empty() {
            host.push_cols(out);
        }
    }
    Ok(())
}

/// Sort over `Arc<ColBatch>` streams: [`VecSort`] accumulates batches,
/// sorts a permutation over the key columns, and spills/merges columnar
/// runs —
/// output order is bit-identical to [`SortIter`]. Ragged input widths fall
/// back to the row-path sort with everything buffered so far replayed in
/// front of the remaining stream.
fn run_sort(
    input: PipeConsumer,
    keys: &[SortKey],
    host: &SharedHost,
    cancel: &crate::packet::CancelToken,
    env: &OpEnv,
) -> QResult<()> {
    let mut sort = VecSort::new(keys, env.ctx.clone());
    loop {
        if cancel.is_cancelled() && !host.wanted() {
            return Ok(());
        }
        let Some(batch) = input.recv()? else { break };
        if sort.push_cols(&batch)? {
            env.metrics.add_vec_sort_batch();
        } else {
            // Ragged widths: replay everything buffered so far (spilled runs
            // stream chunk-at-a-time — the fallback stays within the same
            // memory bound the spills were honoring), then the rejected
            // batch, then the rest of the stream, through the row-path sort.
            env.metrics.add_vec_fallback();
            let it = SortIter::new(
                Box::new(SeqIter(vec![
                    Box::new(sort.into_drain()),
                    Box::new(VecIter::new(batch.to_rows())),
                    Box::new(pipe_iter(input, env)),
                ])),
                keys.to_vec(),
                env.ctx.clone(),
            );
            return drain_into_host(it, host, cancel);
        }
    }
    sort.finish(|out| {
        if cancel.is_cancelled() && !host.wanted() {
            return false;
        }
        host.push_cols(out);
        true
    })
}

// ---------------------------------------------------------------------------
// Merge join with wrap restart (§4.3.2)
// ---------------------------------------------------------------------------

/// Pull iterator that stops at a *wrap* — the point where the key strictly
/// decreases — and can be resumed for the wrapped segment.
struct WrapSplitIter {
    inner: PipeIter,
    key: usize,
    last_key: Option<Value>,
    pending: Option<Tuple>,
    wrapped: bool,
    exhausted: bool,
}

impl WrapSplitIter {
    fn new(inner: PipeIter, key: usize) -> Self {
        Self { inner, key, last_key: None, pending: None, wrapped: false, exhausted: false }
    }

    /// Begin the post-wrap segment.
    fn resume(&mut self) {
        self.wrapped = false;
        self.last_key = None;
    }

    fn has_wrapped(&self) -> bool {
        self.wrapped
    }

    #[cfg(test)]
    fn is_exhausted(&self) -> bool {
        self.exhausted && self.pending.is_none()
    }
}

impl TupleIter for WrapSplitIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        if self.wrapped {
            return Ok(None); // segment boundary; call resume() to continue
        }
        let t = match self.pending.take() {
            Some(t) => Some(t),
            None => self.inner.next()?,
        };
        let Some(t) = t else {
            self.exhausted = true;
            return Ok(None);
        };
        let k = t[self.key].clone();
        if let Some(last) = &self.last_key {
            if k < *last {
                // Wrap detected: hold the tuple for the next segment.
                self.pending = Some(t);
                self.wrapped = true;
                return Ok(None);
            }
        }
        self.last_key = Some(k);
        Ok(Some(t))
    }
}

/// Merge join that tolerates one circular wrap on either input.
///
/// When an input wraps (its satellite scan attached mid-file, §4.3.2), the
/// OSP strategy is: finish joining segment 1 against the other relation, then
/// re-read the other relation *from its plan* (the paper's "worst case ...
/// reading the non-shared relation twice") and join segment 2 against it.
fn run_merge_join(
    mut children: Vec<crate::pipe::PipeConsumer>,
    (left_plan, left_key): (&PlanNode, usize),
    (right_plan, right_key): (&PlanNode, usize),
    host: &SharedHost,
    cancel: &crate::packet::CancelToken,
    env: &OpEnv,
) -> QResult<()> {
    let left = pipe_iter(children.remove(0), env);
    let right = pipe_iter(children.remove(0), env);
    let mut lsplit = WrapSplitIter::new(left, left_key);
    let mut rsplit = WrapSplitIter::new(right, right_key);

    // Segment 1: both inputs until wrap/EOF.
    {
        let it =
            MergeJoinIter::new(TakeRef(&mut lsplit), TakeRef(&mut rsplit), left_key, right_key);
        drain_into_host(it, host, cancel)?;
    }
    let lwrap = lsplit.has_wrapped();
    let rwrap = rsplit.has_wrapped();
    if !lwrap && !rwrap {
        return Ok(());
    }
    // Drain the pre-wrap remainder of whichever side the merge join did not
    // fully consume is unnecessary: a wrapped side stops at the boundary, the
    // other side is simply dropped (detaching from its pipe/scan).
    if lwrap && rwrap {
        // The dispatcher marks at most one input as wrap-capable; if both
        // wrapped anyway (defensive), fall back to a full re-read of both.
        let fresh_l = build(left_plan, &env.ctx)?;
        let fresh_r = build(right_plan, &env.ctx)?;
        let it = MergeJoinIter::new(fresh_l, fresh_r, left_key, right_key);
        return drain_into_host(it, host, cancel);
    }
    if lwrap {
        lsplit.resume();
        let fresh_right = build(right_plan, &env.ctx)?;
        let it = MergeJoinIter::new(lsplit, fresh_right, left_key, right_key);
        drain_into_host(it, host, cancel)?;
    } else {
        rsplit.resume();
        let fresh_left = build(left_plan, &env.ctx)?;
        let it = MergeJoinIter::new(fresh_left, rsplit, left_key, right_key);
        drain_into_host(it, host, cancel)?;
    }
    Ok(())
}

/// Borrowing adapter so a `WrapSplitIter` can feed a `MergeJoinIter` and be
/// inspected/resumed afterwards.
struct TakeRef<'a>(&'a mut WrapSplitIter);

impl TupleIter for TakeRef<'_> {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        self.0.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::{NodeId, WaitRegistry};
    use crate::pipe::{Pipe, PipeConfig};

    fn feed(rows: Vec<Tuple>) -> PipeIter {
        let reg = Arc::new(WaitRegistry::new());
        let pipe = Pipe::new(PipeConfig { capacity: 1024, backfill: 0 }, NodeId(1), reg);
        let c = pipe.attach_consumer(NodeId(2), false);
        let mut p = pipe.producer();
        if !rows.is_empty() {
            p.push_cols(ColBatch::from_rows(&rows));
        }
        p.finish();
        PipeIter::new(c)
    }

    fn row(k: i64) -> Tuple {
        vec![Value::Int(k)]
    }

    #[test]
    fn wrap_split_detects_boundary() {
        let rows: Vec<Tuple> = [5, 6, 7, 1, 2, 3].iter().map(|&k| row(k)).collect();
        let mut w = WrapSplitIter::new(feed(rows), 0);
        let mut seg1 = Vec::new();
        while let Some(t) = w.next().unwrap() {
            seg1.push(t[0].as_int().unwrap());
        }
        assert_eq!(seg1, vec![5, 6, 7]);
        assert!(w.has_wrapped());
        w.resume();
        let mut seg2 = Vec::new();
        while let Some(t) = w.next().unwrap() {
            seg2.push(t[0].as_int().unwrap());
        }
        assert_eq!(seg2, vec![1, 2, 3]);
        assert!(!w.has_wrapped());
        assert!(w.is_exhausted());
    }

    #[test]
    fn wrap_split_no_wrap() {
        let rows: Vec<Tuple> = [1, 2, 2, 3].iter().map(|&k| row(k)).collect();
        let mut w = WrapSplitIter::new(feed(rows), 0);
        let mut all = Vec::new();
        while let Some(t) = w.next().unwrap() {
            all.push(t[0].as_int().unwrap());
        }
        assert_eq!(all, vec![1, 2, 2, 3]);
        assert!(!w.has_wrapped());
        assert!(w.is_exhausted());
    }

    #[test]
    fn wrap_split_empty_input() {
        let mut w = WrapSplitIter::new(feed(vec![]), 0);
        assert!(w.next().unwrap().is_none());
        assert!(w.is_exhausted());
        assert!(!w.has_wrapped());
    }
}
