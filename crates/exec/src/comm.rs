//! Inter-device communication: per-device compute servers, the context
//! exchange runtime, and cooperative vocabulary-parallel loss.
//!
//! Every pipeline device spawns one *compute server* thread. Servers are
//! stateless with respect to the pipeline (they never wait on another
//! device), which makes the request/reply pattern deadlock-free by
//! construction: main device threads may block on a server's reply, but a
//! server only ever computes. Two kinds of work arrive:
//!
//! * **attention jobs** — the §4.2 context exchange: a heavy device ships
//!   `(Q, K-chunk, V-chunk)`; the light device's server computes the
//!   partial attention (forward) or the chunk-local flash backward and
//!   ships the result back;
//! * **vocabulary jobs** — §4.3: each server owns one vocabulary shard of
//!   the (tied) output projection; the last stage scatters the normed
//!   hidden states and gathers per-shard scalar statistics (forward) or
//!   partial `d_hidden` (backward), while `dW` accumulates shard-locally.
//!
//! Fault tolerance: no rendezvous here can hang or abort the process.
//! Replies are awaited with `recv_timeout` under a bounded retry/backoff
//! loop; a lost reply is resubmitted, and a dead or wedged server surfaces
//! as a structured [`ExecError`] naming the blocked unit, which the elastic
//! driver heals by restoring onto the survivors. Server threads run under
//! `catch_unwind`, so even a server panic becomes a disconnect, never a
//! process abort.

use crate::fault::{ExecError, FaultKind, FaultPlan, InjectedPanic, Port, RunCtl};
use crate::model::ExecConfig;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use slimpipe_core::exchange::{plan_round_slicing, steady_round_slices};
use slimpipe_core::Slicing;
use slimpipe_tensor::attention::{
    self, backward_chunk, d_rows, fold_partial, AttnPartial, HeadCfg,
};
use slimpipe_tensor::pool;
use slimpipe_tensor::crossentropy::{combine_stats, shard_backward, shard_stats, ShardStats};
use slimpipe_tensor::matmul::{matmul_fused, matmul_tn_acc};
use slimpipe_obs::{OpTag, SpanKind, SpanRecorder, TraceSession};
use slimpipe_tensor::{Epilogue, PackedWeight, Prologue, Tensor};
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One device's vocabulary shard (weights — packed once, like every other
/// weight on the steady-state path — + local gradient accumulator).
pub struct VocabShard {
    pub w: PackedWeight,
    pub grad: Tensor,
    /// First vocabulary column this shard owns.
    pub offset: usize,
}

/// Work a compute server performs.
pub enum ServerJob {
    AttnFwd {
        q: Tensor,
        k: Tensor,
        v: Tensor,
        cfg: HeadCfg,
        q_offset: usize,
        kv_offset: usize,
        reply: Sender<AttnPartial>,
    },
    AttnBwd {
        q: Tensor,
        k: Tensor,
        v: Tensor,
        d_o: Tensor,
        lse: Vec<f32>,
        d: Vec<f32>,
        cfg: HeadCfg,
        q_offset: usize,
        kv_offset: usize,
        reply: Sender<(Tensor, Tensor, Tensor)>,
    },
    VocabFwd {
        normed: Tensor,
        targets: Vec<u32>,
        reply: Sender<ShardStats>,
    },
    VocabBwd {
        normed: Tensor,
        targets: Vec<u32>,
        lse: Vec<f32>,
        scale: f32,
        reply: Sender<Tensor>,
    },
    /// Apply one SGD step to the vocabulary shard and clear its gradient
    /// (issued once per iteration by the last stage).
    SgdStep { lr: f32, reply: Sender<()> },
    /// Fault injection: stall the server for `ms` before the next job,
    /// delaying its replies.
    Delay { ms: u64 },
    /// Fault injection: kill the server thread (panics inside the
    /// `catch_unwind` wrapper — the thread dies, its channel disconnects,
    /// and clients observe exactly what a crashed peer looks like).
    Crash,
    Stop,
}

/// `submit` failure: the server's channel is disconnected (thread gone).
/// Carries the device index so callers can build a contextful
/// [`ExecError::ServerDied`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadServer(pub usize);

/// Handle for submitting jobs to a device's server.
#[derive(Clone)]
pub struct ServerHandle {
    tx: Sender<ServerJob>,
    device: usize,
}

impl ServerHandle {
    /// Submit a job. Fails (instead of aborting the process) when the
    /// server thread is gone.
    pub fn submit(&self, job: ServerJob) -> Result<(), DeadServer> {
        self.tx.send(job).map_err(|_| DeadServer(self.device))
    }

    /// Ask the server to exit; a dead server is already stopped.
    pub fn stop(&self) {
        let _ = self.tx.send(ServerJob::Stop);
    }

    pub fn device(&self) -> usize {
        self.device
    }
}

fn serve(
    rx: Receiver<ServerJob>,
    shard: &mut Option<VocabShard>,
    device: usize,
    rec: &mut Option<SpanRecorder>,
) {
    while let Ok(job) = rx.recv() {
        // Span the compute jobs only; control traffic (sgd/stop) and
        // injected faults are not work the schedule accounts for.
        let t0 = match (&job, rec.as_ref()) {
            (
                ServerJob::AttnFwd { .. }
                | ServerJob::AttnBwd { .. }
                | ServerJob::VocabFwd { .. }
                | ServerJob::VocabBwd { .. },
                Some(r),
            ) => r.clock(),
            _ => None,
        };
        match job {
            ServerJob::AttnFwd { q, k, v, cfg, q_offset, kv_offset, reply } => {
                let part = attention::partial(&q, &k, &v, cfg, q_offset, kv_offset);
                let _ = reply.send(part);
            }
            ServerJob::AttnBwd {
                q,
                k,
                v,
                d_o,
                lse,
                d,
                cfg,
                q_offset,
                kv_offset,
                reply,
            } => {
                let out =
                    backward_chunk(&q, &k, &v, &d_o, &lse, &d, cfg, q_offset, kv_offset);
                let _ = reply.send(out);
            }
            ServerJob::VocabFwd { normed, targets, reply } => {
                // A vocab job on a shardless server is a broken geometry,
                // not a reason to panic: exit the serve loop so the dropped
                // reply surfaces at the client as a typed `ServerDied` —
                // exactly what the recovery driver knows how to heal.
                let Some(s) = shard.as_ref() else { break };
                let mut logits =
                    matmul_fused(&normed, s.w.nn(), Prologue::None, Epilogue::None);
                let stats = shard_stats(&mut logits, &targets, s.offset);
                logits.recycle();
                let _ = reply.send(stats);
            }
            ServerJob::VocabBwd { normed, targets, lse, scale, reply } => {
                let Some(s) = shard.as_mut() else { break };
                let logits =
                    matmul_fused(&normed, s.w.nn(), Prologue::None, Epilogue::None);
                let mut d_logits = shard_backward(&logits, &targets, s.offset, &lse);
                logits.recycle();
                d_logits.scale(scale);
                matmul_tn_acc(&mut s.grad, &normed, &d_logits, Prologue::None);
                let d_hidden =
                    matmul_fused(&d_logits, s.w.nt(), Prologue::None, Epilogue::None);
                d_logits.recycle();
                let _ = reply.send(d_hidden);
            }
            ServerJob::SgdStep { lr, reply } => {
                if let Some(s) = shard.as_mut() {
                    s.w.axpy(-lr, &s.grad);
                    s.grad.fill(0.0);
                }
                let _ = reply.send(());
            }
            ServerJob::Delay { ms } => {
                std::thread::sleep(Duration::from_millis(ms));
            }
            ServerJob::Crash => {
                std::panic::panic_any(InjectedPanic("injected server crash".into()))
            }
            ServerJob::Stop => break,
        }
        if let (Some(t0), Some(r)) = (t0, rec.as_mut()) {
            r.push(SpanKind::Compute { stage: device, mb: 0, slice: 0, op: OpTag::Server }, t0);
        }
    }
}

/// Spawn one device's compute server. Returns the shard (with accumulated
/// gradients) when stopped cleanly, `None` when the server died — a panic
/// is contained by `catch_unwind`, so from the outside a crashed server is
/// just a disconnected channel, never a process abort.
pub fn spawn_server(
    device: usize,
    shard: Option<VocabShard>,
) -> (ServerHandle, JoinHandle<Option<VocabShard>>) {
    spawn_server_with(device, shard, None)
}

/// [`spawn_server`] with the server's jobs recorded as `Compute` spans on
/// a `server{device}` track of `trace`. The recorder lives inside the
/// server thread and flushes on exit — including panic exits, so a trace
/// of a crashed server still shows what it was doing.
pub fn spawn_server_traced(
    device: usize,
    shard: Option<VocabShard>,
    trace: &Arc<TraceSession>,
) -> (ServerHandle, JoinHandle<Option<VocabShard>>) {
    spawn_server_with(device, shard, Some(Arc::clone(trace)))
}

fn spawn_server_with(
    device: usize,
    shard: Option<VocabShard>,
    trace: Option<Arc<TraceSession>>,
) -> (ServerHandle, JoinHandle<Option<VocabShard>>) {
    let (tx, rx): (Sender<ServerJob>, Receiver<ServerJob>) = unbounded();
    let handle = std::thread::spawn(move || {
        let mut shard = shard;
        let mut rec = trace.map(|t| t.recorder(&format!("server{device}")));
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve(rx, &mut shard, device, &mut rec)
        })) {
            Ok(()) => shard,
            Err(_) => None, // shard state is suspect after a panic
        }
    });
    (ServerHandle { tx, device }, handle)
}

/// Static context-exchange assignment: for each `(owner, slice)`, which
/// device executes each KV chunk. Derived once from the steady-state round
/// structure (§4.2.1's staircase). With a non-uniform [`Slicing`] the
/// per-round plans weight every movable chunk by its actual token volume,
/// so pair-balanced and ragged partitions redistribute correctly.
#[derive(Clone, Debug)]
pub struct ExchangeMap {
    /// `executor[owner][slice][chunk]` = executing device.
    executor: Vec<Vec<Vec<usize>>>,
}

impl ExchangeMap {
    /// Uniform-slicing map (kept for the uniform call sites and tests).
    pub fn build(p: usize, n: usize, slice_len: u64) -> Self {
        Self::build_from(p, &Slicing::uniform(n as u64 * slice_len, n))
    }

    /// Map derived from explicit slice bounds.
    pub fn build_from(p: usize, slicing: &Slicing) -> Self {
        let n = slicing.n();
        let mut executor = vec![vec![Vec::new(); n]; p];
        for t in 0..n {
            let slices = steady_round_slices(p, n, t);
            let plan = plan_round_slicing(&slices, slicing);
            for task in &plan.tasks {
                let owner = task.q_owner;
                let j = slices[owner]
                    .expect("round plan only names owners with an active slice") as usize;
                let row = &mut executor[owner][j];
                if row.len() <= task.kv_chunk as usize {
                    row.resize(j + 1, owner);
                }
                row[task.kv_chunk as usize] = task.executor;
            }
        }
        // Slices with zero moved chunks still need identity rows.
        for (owner, rows) in executor.iter_mut().enumerate() {
            for (j, row) in rows.iter_mut().enumerate() {
                if row.len() < j + 1 {
                    row.resize(j + 1, owner);
                }
            }
        }
        Self { executor }
    }

    /// Executing device for `(owner, slice, chunk)`.
    pub fn executor_of(&self, owner: usize, slice: usize, chunk: usize) -> usize {
        self.executor[owner][slice][chunk]
    }

    /// Chunks of `(owner, slice)` executed remotely.
    pub fn remote_chunks(&self, owner: usize, slice: usize) -> Vec<(usize, usize)> {
        self.executor[owner][slice]
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e != owner)
            .map(|(c, &e)| (c, e))
            .collect()
    }
}

/// Fault-tolerance context of one op on one stage thread: the injection
/// plan, the retry budget, and the shared run control. `detached()` gives
/// the no-injection defaults used by tests and the demo.
pub struct FtCtx<'a> {
    pub plan: Option<&'a FaultPlan>,
    /// First-attempt reply timeout; doubles per retry (bounded backoff).
    pub timeout: Duration,
    pub retries: u32,
    pub ctl: Option<&'a RunCtl>,
    pub iteration: usize,
    pub mb: u32,
    pub slice: u32,
    /// Arm injected reply faults (DropReply/DelayReply) for this op. The
    /// stage loop arms them on the forward visit only, so a single planned
    /// fault fires once per unit instead of once per pass.
    pub reply_faults: bool,
    /// The owning stage thread's span recorder: exchange waits record as
    /// `ExchangeWait` spans on its track. `None` (tests, detached use)
    /// records nothing.
    pub rec: Option<&'a RefCell<SpanRecorder>>,
}

impl FtCtx<'_> {
    pub fn detached() -> Self {
        FtCtx {
            plan: None,
            timeout: Duration::from_secs(2),
            retries: 3,
            ctl: None,
            iteration: 0,
            mb: 0,
            slice: 0,
            reply_faults: true,
            rec: None,
        }
    }

    fn faults(&self, stage: usize) -> Vec<&FaultKind> {
        match self.plan {
            Some(p) => p.at(self.iteration, stage, self.mb, self.slice).collect(),
            None => Vec::new(),
        }
    }

    fn aborted(&self) -> bool {
        self.ctl.is_some_and(|c| c.aborted())
    }

    fn fail(&self, e: &ExecError) {
        if let Some(c) = self.ctl {
            c.fail(e.clone());
        }
    }

    fn count_retry(&self) {
        if let Some(c) = self.ctl {
            c.exchange_retries.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runtime attention executor with context exchange: local chunks run
/// in-thread, remote chunks ship to peer servers, partials merge by online
/// softmax. Replies are awaited under timeout + bounded retry; a dead
/// server or an exhausted budget fails the run with a structured error.
pub struct ExchangeRt<'a> {
    pub device: usize,
    pub servers: &'a [ServerHandle],
    pub map: &'a ExchangeMap,
    pub ft: FtCtx<'a>,
}

impl<'a> ExchangeRt<'a> {
    /// Exchange runtime with no fault plan and the default retry budget.
    pub fn new(device: usize, servers: &'a [ServerHandle], map: &'a ExchangeMap) -> Self {
        ExchangeRt { device, servers, map, ft: FtCtx::detached() }
    }

    /// A dispatch-time dead server fails the run.
    fn dead_server(&self, device: usize) -> ExecError {
        let e = ExecError::ServerDied {
            device,
            stage: self.device,
            mb: self.ft.mb,
            slice: self.ft.slice,
        };
        self.ft.fail(&e);
        e
    }

    /// Await a remote chunk's reply with bounded retry/backoff,
    /// resubmitting via `resubmit` on each timeout. We always hold a clone
    /// of the reply sender, so the channel can only yield `Ok` or
    /// `Timeout` — a dead server manifests as silence, which the retry
    /// budget converts into a structured give-up.
    #[allow(clippy::too_many_arguments)]
    fn await_reply<T>(
        &self,
        rrx: &Receiver<T>,
        chunk: usize,
        exec: usize,
        resubmit: impl FnMut(&[ServerHandle]) -> Result<(), DeadServer>,
    ) -> Result<T, ExecError> {
        // The whole wait — first receive through every retry — is one
        // `ExchangeWait` span on the stage's track (nested inside the
        // enclosing `Compute` span; the clock is untouched when disabled).
        let t0 = self.ft.rec.and_then(|r| r.borrow().clock());
        let out = self.await_reply_inner(rrx, chunk, exec, resubmit);
        if let (Some(t0), Some(r)) = (t0, self.ft.rec) {
            r.borrow_mut().push(
                SpanKind::ExchangeWait {
                    stage: self.device,
                    mb: self.ft.mb as usize,
                    slice: self.ft.slice as usize,
                },
                t0,
            );
        }
        out
    }

    fn await_reply_inner<T>(
        &self,
        rrx: &Receiver<T>,
        chunk: usize,
        exec: usize,
        mut resubmit: impl FnMut(&[ServerHandle]) -> Result<(), DeadServer>,
    ) -> Result<T, ExecError> {
        let mut attempts = 0u32;
        loop {
            let wait = self.timeout_for_attempt(attempts);
            match rrx.recv_timeout(wait) {
                Ok(v) => return Ok(v),
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable by construction (we hold a sender clone);
                    // treat defensively as a dead server.
                    return Err(self.give_up(chunk, exec, attempts + 1));
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.ft.aborted() {
                        return Err(ExecError::Aborted { stage: self.device });
                    }
                    if attempts < self.ft.retries {
                        // Count each reply that needed resubmission once —
                        // not once per resubmission — so a reply recovered
                        // on the Nth retry is one recovered unit in the
                        // fault statistics, not N.
                        if attempts == 0 {
                            self.ft.count_retry();
                        }
                        attempts += 1;
                        if resubmit(self.servers).is_err() {
                            // Server is gone; no retry can succeed.
                            return Err(self.give_up(chunk, exec, attempts));
                        }
                        continue;
                    }
                    return Err(self.give_up(chunk, exec, attempts + 1));
                }
            }
        }
    }

    fn timeout_for_attempt(&self, attempt: u32) -> Duration {
        // Exponential backoff, saturating: t, 2t, 4t, ...
        self.ft.timeout.saturating_mul(1u32 << attempt.min(16))
    }

    /// Retry budget exhausted: a structured failure naming the chunk.
    fn give_up(&self, chunk: usize, exec: usize, attempts: u32) -> ExecError {
        let e = ExecError::ExchangeTimeout {
            stage: self.device,
            device: exec,
            mb: self.ft.mb,
            slice: self.ft.slice,
            chunk,
            attempts,
        };
        self.ft.fail(&e);
        e
    }

    /// Injected per-op faults: (lose the first remote reply?, delay the
    /// first remote server by ms?). A returned fault disarms the context
    /// so a planned reply fault fires in the first layer's attention of
    /// the unit, not once per layer of the stage.
    fn injected_op_faults(&mut self) -> (bool, Option<u64>) {
        if !self.ft.reply_faults {
            return (false, None);
        }
        let mut drop_one = false;
        let mut delay = None;
        for k in self.ft.faults(self.device) {
            match k {
                FaultKind::DropReply => drop_one = true,
                FaultKind::DelayReply { ms } => delay = Some(*ms),
                _ => {}
            }
        }
        if drop_one || delay.is_some() {
            self.ft.reply_faults = false;
        }
        (drop_one, delay)
    }
}

impl crate::layer::AttnExecutor for ExchangeRt<'_> {
    fn attn_forward(
        &mut self,
        q: &Tensor,
        chunks: &[(&Tensor, &Tensor)],
        offsets: &[usize],
        cfg: HeadCfg,
        q_offset: usize,
    ) -> Result<AttnPartial, ExecError> {
        let slice = chunks.len() - 1;
        let make_job = |c: usize, reply: Sender<AttnPartial>| ServerJob::AttnFwd {
            q: q.clone(),
            k: chunks[c].0.clone(),
            v: chunks[c].1.clone(),
            cfg,
            q_offset,
            kv_offset: offsets[c],
            reply,
        };
        // Dispatch remote chunks first (early exchange) — one reply channel
        // per chunk so results can be folded in *chunk* order, not arrival
        // order — then compute local chunks while peers work. We keep a
        // sender clone per pending chunk so the reply channel can never
        // disconnect under us.
        let (mut drop_one, mut delay) = self.injected_op_faults();
        type Pending<T> = Option<(Receiver<T>, Sender<T>, usize)>;
        let mut pending: Vec<Pending<AttnPartial>> = Vec::with_capacity(chunks.len());
        for c in 0..chunks.len() {
            let exec = self.map.executor_of(self.device, slice, c);
            if exec != self.device {
                if let Some(ms) = delay.take() {
                    let _ = self.servers[exec].submit(ServerJob::Delay { ms });
                }
                let (rtx, rrx) = unbounded();
                // DropReply: the first submission replies into a channel
                // whose receiver is already gone — the reply is lost and
                // the retry path must recover it.
                let reply = if std::mem::take(&mut drop_one) {
                    let (lost_tx, _lost) = unbounded();
                    lost_tx
                } else {
                    rtx.clone()
                };
                self.servers[exec]
                    .submit(make_job(c, reply))
                    .map_err(|DeadServer(dev)| self.dead_server(dev))?;
                pending.push(Some((rrx, rtx, exec)));
            } else {
                pending.push(None);
            }
        }
        // Local partials overlap with the remote round-trips.
        let mut parts: Vec<Option<AttnPartial>> = (0..chunks.len())
            .map(|c| {
                pending[c].is_none().then(|| {
                    attention::partial(q, chunks[c].0, chunks[c].1, cfg, q_offset, offsets[c])
                })
            })
            .collect();
        // Deterministic fold, ascending chunk index — the identical
        // arithmetic order `attention::forward_chunked` uses, so a run with
        // context exchange is bit-identical to one without.
        let mut acc: Option<AttnPartial> = None;
        for (c, slot) in pending.into_iter().enumerate() {
            let p = match slot {
                Some((rrx, rtx, exec)) => self.await_reply(&rrx, c, exec, |servers| {
                    servers[exec].submit(make_job(c, rtx.clone()))
                })?,
                None => parts[c].take().expect("local partial computed above"),
            };
            fold_partial(&mut acc, p, cfg);
        }
        Ok(acc.expect("at least the diagonal chunk is visible"))
    }

    fn attn_backward(
        &mut self,
        q: &Tensor,
        chunks: &[(&Tensor, &Tensor)],
        offsets: &[usize],
        d_o: &Tensor,
        o: &Tensor,
        lse: &[f32],
        cfg: HeadCfg,
        q_offset: usize,
    ) -> Result<(Tensor, Vec<(Tensor, Tensor)>), ExecError> {
        let slice = chunks.len() - 1;
        let d = d_rows(d_o, o, cfg);
        let make_job = |c: usize, d: &[f32], reply: Sender<(Tensor, Tensor, Tensor)>| {
            ServerJob::AttnBwd {
                q: q.clone(),
                k: chunks[c].0.clone(),
                v: chunks[c].1.clone(),
                d_o: d_o.clone(),
                lse: lse.to_vec(),
                d: d.to_vec(),
                cfg,
                q_offset,
                kv_offset: offsets[c],
                reply,
            }
        };
        // Dispatch all remote chunk jobs first, each with its own reply
        // channel, then compute the local chunks while peers work.
        let (mut drop_one, mut delay) = self.injected_op_faults();
        type Pending<T> = Option<(Receiver<T>, Sender<T>, usize)>;
        let mut pending: Vec<Pending<(Tensor, Tensor, Tensor)>> =
            Vec::with_capacity(chunks.len());
        let mut results: Vec<Option<(Tensor, Tensor)>> = vec![None; chunks.len()];
        let mut dq_parts: Vec<Option<Tensor>> = (0..chunks.len()).map(|_| None).collect();
        let mut dq = Tensor::zeros_pooled(q.rows(), cfg.q_width());
        for c in 0..chunks.len() {
            let exec = self.map.executor_of(self.device, slice, c);
            if exec != self.device {
                if let Some(ms) = delay.take() {
                    let _ = self.servers[exec].submit(ServerJob::Delay { ms });
                }
                let (tx1, rx1) = unbounded();
                let reply = if std::mem::take(&mut drop_one) {
                    let (lost_tx, _lost) = unbounded();
                    lost_tx
                } else {
                    tx1.clone()
                };
                self.servers[exec]
                    .submit(make_job(c, &d, reply))
                    .map_err(|DeadServer(dev)| self.dead_server(dev))?;
                pending.push(Some((rx1, tx1, exec)));
            } else {
                pending.push(None);
            }
        }
        for c in 0..chunks.len() {
            if pending[c].is_none() {
                let (dq_c, dk, dv) = backward_chunk(
                    q, chunks[c].0, chunks[c].1, d_o, lse, &d, cfg, q_offset, offsets[c],
                );
                dq_parts[c] = Some(dq_c);
                results[c] = Some((dk, dv));
            }
        }
        // Accumulate dQ in ascending chunk order — the identical arithmetic
        // order `attention::backward_chunked` uses, so gradients with
        // context exchange are bit-identical to gradients without.
        for (c, slot) in pending.into_iter().enumerate() {
            let dq_c = match slot {
                Some((rx1, tx1, exec)) => {
                    let (dq_c, dk, dv) = self.await_reply(&rx1, c, exec, |servers| {
                        servers[exec].submit(make_job(c, &d, tx1.clone()))
                    })?;
                    results[c] = Some((dk, dv));
                    dq_c
                }
                None => dq_parts[c].take().expect("local backward computed above"),
            };
            dq.add_assign_recycle(dq_c);
        }
        pool::recycle(d);
        Ok((
            dq,
            results.into_iter().map(|r| r.expect("chunk computed")).collect(),
        ))
    }
}

/// Cooperative vocabulary-parallel loss across all device servers.
///
/// Replies travel one channel per server and fold in *device* order: the
/// scalar-statistics combine and the `d_hidden` sum are f32 reductions, so
/// a fixed fold order keeps vocabulary-parallel runs bit-reproducible
/// regardless of which shard replies first.
pub struct VocabParallel<'a> {
    pub servers: &'a [ServerHandle],
    pub watchdog: Duration,
    pub ctl: Option<&'a RunCtl>,
    pub stage: usize,
    pub mb: u32,
    pub slice: u32,
    /// The owning stage thread's span recorder: shard-reply gathers record
    /// as `ExchangeWait` spans. `None` records nothing.
    pub rec: Option<&'a RefCell<SpanRecorder>>,
}

impl<'a> VocabParallel<'a> {
    pub fn new(servers: &'a [ServerHandle]) -> Self {
        VocabParallel {
            servers,
            watchdog: Duration::from_secs(10),
            ctl: None,
            stage: 0,
            mb: 0,
            slice: 0,
            rec: None,
        }
    }

    /// Gather one reply per server, in device order. The whole gather is
    /// one `ExchangeWait` span on the last stage's track.
    fn gather<T>(&self, replies: Vec<Receiver<T>>) -> Result<Vec<T>, ExecError> {
        let t0 = self.rec.and_then(|r| r.borrow().clock());
        let out = self.gather_inner(replies);
        if let (Some(t0), Some(r)) = (t0, self.rec) {
            r.borrow_mut().push(
                SpanKind::ExchangeWait {
                    stage: self.stage,
                    mb: self.mb as usize,
                    slice: self.slice as usize,
                },
                t0,
            );
        }
        out
    }

    fn gather_inner<T>(&self, replies: Vec<Receiver<T>>) -> Result<Vec<T>, ExecError> {
        let mut out = Vec::with_capacity(replies.len());
        for (dev, rx) in replies.iter().enumerate() {
            let v = match self.ctl {
                Some(ctl) => crate::fault::recv_guarded(
                    rx,
                    ctl,
                    self.watchdog,
                    self.stage,
                    self.mb,
                    self.slice,
                    Port::Server,
                )
                .map_err(|e| match e {
                    // A vocab reply channel's only sender lives in the
                    // server; disconnect means that server died.
                    ExecError::Disconnected { .. } => ExecError::ServerDied {
                        device: dev,
                        stage: self.stage,
                        mb: self.mb,
                        slice: self.slice,
                    },
                    other => other,
                }),
                None => rx.recv_timeout(self.watchdog).map_err(|_| ExecError::ServerDied {
                    device: dev,
                    stage: self.stage,
                    mb: self.mb,
                    slice: self.slice,
                }),
            }?;
            out.push(v);
        }
        Ok(out)
    }

    /// Forward: scatter normed hidden states, gather per-shard statistics,
    /// combine. Returns `(summed loss, per-row global lse)`.
    pub fn loss_forward(
        &self,
        normed: &Tensor,
        targets: &[u32],
    ) -> Result<(f64, Vec<f32>), ExecError> {
        let mut replies = Vec::with_capacity(self.servers.len());
        for s in self.servers {
            let (tx, rx) = unbounded();
            s.submit(ServerJob::VocabFwd {
                normed: normed.clone(),
                targets: targets.to_vec(),
                reply: tx,
            })
            .map_err(|DeadServer(dev)| ExecError::ServerDied {
                device: dev,
                stage: self.stage,
                mb: self.mb,
                slice: self.slice,
            })?;
            replies.push(rx);
        }
        let stats: Vec<ShardStats> = self.gather(replies)?;
        let g = combine_stats(&stats);
        Ok((slimpipe_tensor::crossentropy::loss_from_stats(&g), g.lse))
    }

    /// Backward: scatter `(normed, lse)`, gather partial `d_normed`
    /// contributions (shard `dW` accumulates server-side).
    pub fn loss_backward(
        &self,
        normed: &Tensor,
        targets: &[u32],
        lse: &[f32],
        scale: f32,
    ) -> Result<Tensor, ExecError> {
        let mut replies = Vec::with_capacity(self.servers.len());
        for s in self.servers {
            let (tx, rx) = unbounded();
            s.submit(ServerJob::VocabBwd {
                normed: normed.clone(),
                targets: targets.to_vec(),
                lse: lse.to_vec(),
                scale,
                reply: tx,
            })
            .map_err(|DeadServer(dev)| ExecError::ServerDied {
                device: dev,
                stage: self.stage,
                mb: self.mb,
                slice: self.slice,
            })?;
            replies.push(rx);
        }
        let mut d = Tensor::zeros_pooled(normed.rows(), normed.cols());
        for part in self.gather(replies)? {
            d.add_assign_recycle(part);
        }
        Ok(d)
    }
}

/// Build per-device vocabulary shards from the full (deterministic) output
/// weight of `cfg`.
pub fn build_vocab_shards(cfg: &ExecConfig) -> Vec<VocabShard> {
    let full = cfg.build_output(); // (hidden, vocab)
    let p = cfg.stages;
    assert!(cfg.vocab.is_multiple_of(p), "vocab must divide by stages for sharding");
    let w = cfg.vocab / p;
    (0..p)
        .map(|s| VocabShard {
            w: PackedWeight::new(full.cols_slice(s * w, w)),
            grad: Tensor::zeros(cfg.hidden(), w),
            offset: s * w,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::AttnExecutor;
    use slimpipe_tensor::init::{seeded_tokens, seeded_uniform};
    use slimpipe_tensor::matmul::{matmul, matmul_nt, matmul_tn};

    #[test]
    fn exchange_map_is_total_and_diagonal_local() {
        let (p, n) = (4usize, 8usize);
        let map = ExchangeMap::build(p, n, 64);
        for owner in 0..p {
            for j in 0..n {
                assert_eq!(map.executor[owner][j].len(), j + 1, "owner={owner} j={j}");
                // Diagonal stays home (§4.2 + early-KV rule).
                assert_eq!(map.executor_of(owner, j, j), owner);
            }
        }
        // The heaviest slice of some device must actually move work.
        let total_remote: usize =
            (0..p).map(|o| map.remote_chunks(o, n - 1).len()).sum();
        assert!(total_remote > 0, "exchange should move something");
    }

    #[test]
    fn exchanged_forward_matches_local() {
        let cfg = HeadCfg::new(2, 2, 8);
        let (p, n, l) = (4usize, 8usize, 8usize);
        let map = ExchangeMap::build(p, n, l as u64);
        let mut handles = Vec::new();
        let mut joins = Vec::new();
        for d in 0..p {
            let (h, j) = spawn_server(d, None);
            handles.push(h);
            joins.push(j);
        }
        // Queries at the last slice (heaviest) of device 1.
        let j = n - 1;
        let q = seeded_uniform(l, 16, 900);
        let ks: Vec<Tensor> = (0..=j).map(|c| seeded_uniform(l, 16, 901 + c as u64)).collect();
        let vs: Vec<Tensor> = (0..=j).map(|c| seeded_uniform(l, 16, 950 + c as u64)).collect();
        let chunks: Vec<(&Tensor, &Tensor)> = ks.iter().zip(vs.iter()).collect();
        let offsets: Vec<usize> = (0..=j).map(|c| c * l).collect();
        let q_offset = j * l;

        let mut rt = ExchangeRt::new(1, &handles, &map);
        let got = rt.attn_forward(&q, &chunks, &offsets, cfg, q_offset).unwrap();
        let want = attention::forward_chunked(&q, &chunks, &offsets, cfg, q_offset);
        assert!(got.o.max_abs_diff(&want.o) < 1e-4);

        // Backward too.
        let d_o = seeded_uniform(l, 16, 999);
        let (dq_got, dkv_got) = rt
            .attn_backward(&q, &chunks, &offsets, &d_o, &got.o, &got.lse, cfg, q_offset)
            .unwrap();
        let (dq_want, dkv_want) = attention::backward_chunked(
            &q, &chunks, &offsets, &d_o, &want.o, &want.lse, cfg, q_offset,
        );
        assert!(dq_got.max_abs_diff(&dq_want) < 1e-4);
        for (g, w) in dkv_got.iter().zip(&dkv_want) {
            assert!(g.0.max_abs_diff(&w.0) < 1e-4);
            assert!(g.1.max_abs_diff(&w.1) < 1e-4);
        }
        for h in &handles {
            h.stop();
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn exchanged_attention_is_exact_for_unequal_chunks() {
        // Pair-balanced bounds: chunk lengths differ wildly; the exchange
        // runtime must still fold partials into the local result exactly.
        let hc = HeadCfg::new(2, 2, 8);
        let (p, n) = (2usize, 4usize);
        let slicing = Slicing::pair_balanced(64, n);
        let map = ExchangeMap::build_from(p, &slicing);
        let mut handles = Vec::new();
        let mut joins = Vec::new();
        for d in 0..p {
            let (h, j) = spawn_server(d, None);
            handles.push(h);
            joins.push(j);
        }
        let j = n - 1;
        let (q_start, q_len) = slicing.slice(j);
        let q = seeded_uniform(q_len as usize, 16, 700);
        let ks: Vec<Tensor> = (0..=j)
            .map(|c| seeded_uniform(slicing.len(c) as usize, 16, 701 + c as u64))
            .collect();
        let vs: Vec<Tensor> = (0..=j)
            .map(|c| seeded_uniform(slicing.len(c) as usize, 16, 750 + c as u64))
            .collect();
        let chunks: Vec<(&Tensor, &Tensor)> = ks.iter().zip(vs.iter()).collect();
        let offsets: Vec<usize> = (0..=j).map(|c| slicing.bounds[c] as usize).collect();

        let mut rt = ExchangeRt::new(0, &handles, &map);
        let got = rt.attn_forward(&q, &chunks, &offsets, hc, q_start as usize).unwrap();
        let want = attention::forward_chunked(&q, &chunks, &offsets, hc, q_start as usize);
        assert_eq!(got.o, want.o, "ragged exchange forward must be bit-exact");
        assert_eq!(got.lse, want.lse);

        let d_o = seeded_uniform(q_len as usize, 16, 799);
        let (dq_got, dkv_got) = rt
            .attn_backward(&q, &chunks, &offsets, &d_o, &got.o, &got.lse, hc, q_start as usize)
            .unwrap();
        let (dq_want, dkv_want) = attention::backward_chunked(
            &q, &chunks, &offsets, &d_o, &want.o, &want.lse, hc, q_start as usize,
        );
        assert_eq!(dq_got, dq_want, "ragged exchange backward must be bit-exact");
        for (g, w) in dkv_got.iter().zip(&dkv_want) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1, w.1);
        }
        for h in &handles {
            h.stop();
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn vocab_parallel_loss_matches_monolithic() {
        let cfg = ExecConfig {
            stages: 4,
            vocab: 96,
            ..ExecConfig::small()
        };
        let shards = build_vocab_shards(&cfg);
        let mut handles = Vec::new();
        let mut joins = Vec::new();
        for (d, s) in shards.into_iter().enumerate() {
            let (h, j) = spawn_server(d, Some(s));
            handles.push(h);
            joins.push(j);
        }
        let rows = 12;
        let normed = seeded_uniform(rows, cfg.hidden(), 77);
        let targets = seeded_tokens(rows, cfg.vocab, 78);
        let vp = VocabParallel::new(&handles);
        let (loss, lse) = vp.loss_forward(&normed, &targets).unwrap();
        let d_hidden = vp.loss_backward(&normed, &targets, &lse, 1.0).unwrap();

        // Monolithic reference.
        let w = cfg.build_output();
        let logits = matmul(&normed, &w);
        let (ref_loss, d_logits) =
            slimpipe_tensor::crossentropy::forward_backward(&logits, &targets);
        let ref_d_hidden = matmul_nt(&d_logits, &w);
        assert!((loss - ref_loss).abs() < 1e-3, "{loss} vs {ref_loss}");
        assert!(d_hidden.max_abs_diff(&ref_d_hidden) < 1e-4);

        // Shard dW gathers into the monolithic dW.
        let ref_dw = matmul_tn(&normed, &d_logits);
        let mut dw = Tensor::zeros(cfg.hidden(), cfg.vocab);
        for h in &handles {
            h.stop();
        }
        for (i, j) in joins.into_iter().enumerate() {
            let shard = j.join().unwrap().unwrap();
            dw.set_cols(i * cfg.vocab / 4, &shard.grad);
        }
        assert!(dw.max_abs_diff(&ref_dw) < 1e-4);
    }

    #[test]
    fn dead_server_surfaces_as_structured_error_not_abort() {
        let (h, j) = spawn_server(2, None);
        h.submit(ServerJob::Crash).unwrap();
        assert!(j.join().unwrap().is_none(), "crashed server loses its shard");
        // Every subsequent submit fails with the device named.
        let err = h.submit(ServerJob::Stop).unwrap_err();
        assert_eq!(err, DeadServer(2));
    }
}
