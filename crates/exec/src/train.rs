//! The threaded pipeline training driver.
//!
//! One OS thread per pipeline stage executes its static op list; boundary
//! activations and gradients move through crossbeam channels; compute
//! servers (one per device) serve context-exchange and vocabulary-shard
//! jobs. Determinism: parameters, data, and schedules are all seeded, so a
//! run is reproducible and comparable against the single-device reference.
//!
//! Fault tolerance (the [`crate::fault`] model, wired end to end):
//!
//! * every stage thread runs under `catch_unwind` with a live `(iteration,
//!   mb, slice)` cursor, so a panic surfaces as a structured
//!   [`ExecError::StagePanic`] naming the failed unit instead of aborting
//!   the process;
//! * every cross-stage rendezvous is a [`recv_guarded`] wait: it watches
//!   the shared abort flag and a watchdog deadline, so the first failure
//!   anywhere drains the whole pipeline — injected faults never hang a run;
//! * there is one response to failure: a non-finite loss is a fatal
//!   [`ExecError::NonFinite`], and exchange trouble that retries cannot
//!   mend is an [`ExecError::ExchangeTimeout`] / [`ExecError::ServerDied`]
//!   that [`crate::run_elastic_traced`] heals from the last snapshot — no
//!   run ever trains on less data than its config names;
//! * at iteration boundaries the run snapshots to [`CheckpointCfg::path`];
//!   [`try_resume_pipeline_from_traced`] continues from the snapshot
//!   **bit-identically** to the uninterrupted run (`tests/faults.rs`).
//!
//! The entry points read no environment: `cfg.fault_plan: None` means no
//! faults and a disabled session means no tracing. Callers that want the
//! `SLIMPIPE_FAULT_PLAN` / `SLIMPIPE_TRACE` hooks build them with
//! [`crate::FaultPlan::from_env`] and [`TraceSession::from_env`].
//!
//! Checkpointing splits the run into segments: stage threads return their
//! [`Stage`] values at each boundary (a full synchronization point — no
//! math is in flight), the driver captures and saves, and the next segment
//! respawns threads around the same stage values, so segmentation itself
//! cannot perturb the numerics.

use crate::checkpoint::CheckpointState;
use crate::comm::{
    build_vocab_shards, spawn_server_traced, DeadServer, ExchangeMap, ExchangeRt, FtCtx,
    ServerHandle, ServerJob, VocabParallel, VocabShard,
};
use crate::fault::{
    panic_message, recv_guarded, recv_guarded_pumped, ExecError, FaultKind, FaultStats,
    InjectedPanic, Port, RunCtl, ABORT_POLL,
};
use crate::layer::{AttnExecutor, LayerGrads, LocalAttn};
use crate::model::ExecConfig;
use crate::schedule::{build_schedule, PipelineKind};
use crate::stage::{Stage, StageOutput};
use crossbeam::channel::{bounded, unbounded, PostQueue, Receiver, Sender};
use slimpipe_obs::counters as obs_counters;
use slimpipe_obs::{CounterSnapshot, OpTag, SpanKind, TraceSession};
use slimpipe_sched::{PassKind, WorkItem};
use slimpipe_tensor::init::seeded_tokens;
use slimpipe_tensor::Tensor;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Derived observability metrics for one run, computed at the end of
/// [`run_from`] from the unified counter registry and (when tracing is on)
/// the recorded spans. Counters are always populated; the span-derived
/// fields are `None` for untraced runs — measuring them would require
/// clock reads on the hot path, and the tracing contract is *zero* cost
/// when disabled.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Delta of the global counter registry over this run.
    pub counters: CounterSnapshot,
    /// Per-stage compute time (forward + backward spans), seconds.
    pub stage_busy_s: Vec<f64>,
    /// Per-stage time blocked on exchange replies / vocab gathers, seconds.
    pub exchange_wait_s: Vec<f64>,
    /// Wall-clock from first to last stage-compute span, seconds.
    pub measured_makespan_s: Option<f64>,
    /// Measured bubble fraction over `stages × makespan` (§"sim::metrics").
    pub measured_bubble: Option<f64>,
    /// Model FLOPs utilisation against the busiest stage's throughput as
    /// the peak — a *relative* MFU (the "hardware" here is CPU threads).
    pub mfu: Option<f64>,
    /// `1 − wait/busy`, clamped to `[0, 1]`: how much of the exchange
    /// latency the async runtime hid under compute.
    pub overlap_efficiency: Option<f64>,
}

/// Everything a run produces, for comparison and reporting.
pub struct RunResult {
    /// Mean loss per iteration over every token of the iteration. A resumed
    /// run reports only the iterations it ran.
    pub losses: Vec<f64>,
    /// Final-iteration gradients, global layer order.
    pub layer_grads: Vec<LayerGrads>,
    pub embed_grad: Tensor,
    /// Full `(hidden, vocab)` output-projection gradient (vocabulary
    /// shards gathered when vocabulary parallelism was on).
    pub out_grad: Tensor,
    pub final_norm_grad: Vec<f32>,
    /// Peak activation bytes per device (stash + KV + head stash).
    pub peak_act_bytes: Vec<u64>,
    /// Recovery activity: exchange retries.
    pub fault_stats: FaultStats,
    /// Per-stage final `(iteration, mb, slice)` cursor — the last unit each
    /// stage marked in-progress. A unit recovered on retry must advance its
    /// cursor exactly once (pinned by the retry-accounting regression).
    pub final_cursors: Vec<(usize, u32, u32)>,
    /// Boundary activations handed off through the non-blocking post queue
    /// (0 when the pipeline has one stage).
    pub posted_sends: u64,
    /// Counter deltas and (for traced runs) span-derived run metrics.
    pub metrics: RunMetrics,
}

impl std::fmt::Debug for RunResult {
    /// Summary only — the gradient tensors are megabytes of f32.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunResult")
            .field("losses", &self.losses)
            .field("layers", &self.layer_grads.len())
            .field("peak_act_bytes", &self.peak_act_bytes)
            .field("fault_stats", &self.fault_stats)
            .field("posted_sends", &self.posted_sends)
            .field("metrics", &self.metrics)
            .finish_non_exhaustive()
    }
}

/// Deterministic training data: one token stream per microbatch (ragged
/// lengths respected), next-token targets.
pub fn make_data(cfg: &ExecConfig) -> Vec<(Vec<u32>, Vec<u32>)> {
    (0..cfg.microbatches)
        .map(|mb| {
            let toks = seeded_tokens(cfg.mb_seq(mb), cfg.vocab, cfg.seed * 1000 + mb as u64);
            let mut targets = toks[1..].to_vec();
            targets.push(toks[0]);
            (toks, targets)
        })
        .collect()
}

/// What travels over a stage boundary for one unit: its `(mb, slice)` and
/// the boundary activation (forward) or gradient (backward).
type ActMsg = (u32, u32, Tensor);

/// Outbound half of a stage boundary: the channel is bounded
/// (double-buffered), `send` never blocks — overflow spills into a FIFO
/// post queue — and the spill drains on every `pump`, which runs at op
/// starts and inside every guarded receive. Delivery order is the post
/// order.
struct Outbound(PostQueue<ActMsg>);

impl Outbound {
    /// A gone peer: drain quietly when the run is already aborting, report
    /// the disconnect otherwise (the dead peer's own root cause, recorded
    /// by its `catch_unwind`, takes precedence in [`RunCtl`]).
    fn disconnect(ctl: &RunCtl, stage: usize, port: Port) -> ExecError {
        if ctl.aborted() {
            ExecError::Aborted { stage }
        } else {
            let e = ExecError::Disconnected { stage, port };
            ctl.fail(e.clone());
            e
        }
    }

    fn send(
        &mut self,
        msg: ActMsg,
        ctl: &RunCtl,
        stage: usize,
        port: Port,
    ) -> Result<(), ExecError> {
        self.0.post(msg).map_err(|_| Self::disconnect(ctl, stage, port))?;
        ctl.posted_sends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Move spilled posts into freed channel slots; never blocks. Returns
    /// how many posts are *still* spilled (waiting for the peer to free a
    /// slot).
    fn pump(&mut self, ctl: &RunCtl, stage: usize, port: Port) -> Result<usize, ExecError> {
        self.0.pump().map(|_| self.0.pending()).map_err(|_| Self::disconnect(ctl, stage, port))
    }

    fn pending(&self) -> usize {
        self.0.pending()
    }
}

/// Pump both boundary post queues — the hook every guarded receive runs
/// before each poll, so a stage blocked on a receive keeps its own posted
/// sends flowing (two stages could otherwise each hold the message the
/// other waits for).
fn pump_outbound(
    fwd: &mut Option<Outbound>,
    bwd: &mut Option<Outbound>,
    ctl: &RunCtl,
    stage: usize,
) -> Result<usize, ExecError> {
    let mut spilled = 0;
    if let Some(o) = fwd {
        spilled += o.pump(ctl, stage, Port::Forward)?;
    }
    if let Some(o) = bwd {
        spilled += o.pump(ctl, stage, Port::Backward)?;
    }
    Ok(spilled)
}

/// Drain every spilled post before an iteration boundary. Checkpoint
/// segmentation joins threads at boundaries; a message still in the spill
/// when the queue drops would strand its receiver at the watchdog.
fn flush_outbound(
    out: &mut Option<Outbound>,
    ctl: &RunCtl,
    stage: usize,
    watchdog: Duration,
    port: Port,
) -> Result<(), ExecError> {
    let Some(o) = out else { return Ok(()) };
    let start = Instant::now();
    loop {
        o.pump(ctl, stage, port)?;
        if o.pending() == 0 {
            return Ok(());
        }
        if ctl.aborted() {
            return Err(ExecError::Aborted { stage });
        }
        let waited = start.elapsed();
        if waited >= watchdog {
            let e = ExecError::RendezvousStuck {
                stage,
                mb: 0,
                slice: 0,
                port,
                waited_ms: waited.as_millis() as u64,
            };
            ctl.fail(e.clone());
            return Err(e);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Submit one acked job to every server and await the acks in device order.
fn server_barrier(
    servers: &[ServerHandle],
    mut job: impl FnMut(Sender<()>) -> ServerJob,
    ctl: &RunCtl,
    watchdog: Duration,
    stage: usize,
) -> Result<(), ExecError> {
    let mut acks = Vec::with_capacity(servers.len());
    for s in servers {
        let (tx, rx) = unbounded();
        s.submit(job(tx)).map_err(|DeadServer(dev)| ExecError::ServerDied {
            device: dev,
            stage,
            mb: 0,
            slice: 0,
        })?;
        acks.push(rx);
    }
    for (dev, rx) in acks.iter().enumerate() {
        recv_guarded(rx, ctl, watchdog, stage, 0, 0, Port::Server).map_err(|e| match e {
            ExecError::Disconnected { .. } => ExecError::ServerDied {
                device: dev,
                stage,
                mb: 0,
                slice: 0,
            },
            other => other,
        })?;
    }
    Ok(())
}

/// Pack the live `(iteration, mb, slice)` cursor into one atomic word so
/// the panic handler can name the failed unit.
fn pack_cursor(step: usize, mb: u32, slice: u32) -> u64 {
    ((step as u64) << 32) | ((mb as u64 & 0xFFFF) << 16) | (slice as u64 & 0xFFFF)
}

/// Everything one stage thread needs for one checkpoint segment.
struct StageRun {
    cfg: ExecConfig,
    device: usize,
    /// Total iterations of the whole run (gates the final SGD step).
    steps: usize,
    lr: f32,
    /// Global iteration numbers this segment executes.
    seg: Range<usize>,
    ops: Vec<WorkItem>,
    data: Arc<Vec<(Vec<u32>, Vec<u32>)>>,
    /// `(mb, slice) → token range`, precomputed once.
    ranges: Arc<Vec<Vec<Range<usize>>>>,
    fwd_rx: Option<Receiver<ActMsg>>,
    fwd_tx: Option<Sender<ActMsg>>,
    bwd_rx: Option<Receiver<ActMsg>>,
    bwd_tx: Option<Sender<ActMsg>>,
    servers: Vec<ServerHandle>,
    exmaps: Option<Arc<Vec<ExchangeMap>>>,
    loss_tx: Sender<f64>,
    ctl: Arc<RunCtl>,
    cursor: Arc<AtomicU64>,
    trace: Arc<TraceSession>,
}

impl StageRun {
    /// Execute this stage's op list for every iteration of the segment.
    /// Every early return is a structured error; the caller records it in
    /// the run control block so peers drain.
    fn run(&self, stage: &mut Stage) -> Result<(), ExecError> {
        let p = self.cfg.stages;
        let d = self.device;
        let is_last = d == p - 1;
        let m = self.cfg.microbatches;
        let watchdog = Duration::from_millis(self.cfg.watchdog_ms);
        let timeout = Duration::from_millis(self.cfg.exchange_timeout_ms);
        // Outbound boundary handles: non-blocking post queues.
        let mut fwd_out = self.fwd_tx.clone().map(|tx| Outbound(PostQueue::new(tx)));
        let mut bwd_out = self.bwd_tx.clone().map(|tx| Outbound(PostQueue::new(tx)));
        // Per-thread span recorder: a private buffer on this stage's own
        // track, drained into the session at iteration boundaries. On a
        // disabled session `clock()` is `None` without ever reading the
        // clock, so the hot path pays one branch and nothing else.
        let rec = RefCell::new(self.trace.recorder(&format!("stage{}", self.device)));
        for step in self.seg.clone() {
            // Mark the pack epoch: everything after stage build must run
            // off the persistent packed-weight cache, so
            // `gemm_packs_per_step()` reads zero once every thread is past
            // its build (asserted in tests/pool_steady_state.rs).
            slimpipe_tensor::matmul::begin_pack_epoch();
            // Per-microbatch loss, indexed by mb so the iteration loss sums
            // in a fixed order (f64 reassociation would otherwise leak
            // schedule interleaving into the result).
            let mut mb_loss = vec![0.0f64; m];
            for op in &self.ops {
                let (mb, sl) = (op.mb, op.slice);
                self.cursor.store(pack_cursor(step, mb, sl), Ordering::Relaxed);
                // Keep posted sends moving even through long compute-only
                // stretches between receives.
                pump_outbound(&mut fwd_out, &mut bwd_out, &self.ctl, d)?;
                // Deterministic fault injection, matched on the forward
                // visit of the site. (Reply-level faults are consumed
                // inside the exchange runtime, armed on the forward visit
                // only so a planned fault fires once per unit, not once
                // per pass.)
                let mut corrupt = false;
                if matches!(op.kind, PassKind::Forward) {
                    if let Some(plan) = &self.cfg.fault_plan {
                        for k in plan.at(step, d, mb, sl) {
                            match k {
                                FaultKind::StagePanic => {
                                    std::panic::panic_any(InjectedPanic(format!(
                                        "injected panic at stage {d}, iteration {step}, \
                                         unit (mb {mb}, slice {sl})"
                                    )))
                                }
                                FaultKind::ServerDeath { device } => {
                                    // The server dies inside its own
                                    // catch_unwind; clients observe a
                                    // disconnected channel, never an abort.
                                    let _ = self.servers[*device].submit(ServerJob::Crash);
                                }
                                FaultKind::CorruptActivation => corrupt = true,
                                FaultKind::Stall => {
                                    // Stop making progress until a peer's
                                    // watchdog kills the run — bounded at
                                    // 10× the watchdog so a single-stage
                                    // run still terminates.
                                    let cap = watchdog.saturating_mul(10);
                                    let start = Instant::now();
                                    while !self.ctl.aborted() && start.elapsed() < cap {
                                        std::thread::sleep(ABORT_POLL);
                                    }
                                    if self.ctl.aborted() {
                                        return Err(ExecError::Aborted { stage: d });
                                    }
                                }
                                // Handled inside ExchangeRt per op.
                                FaultKind::DropReply | FaultKind::DelayReply { .. } => {}
                            }
                        }
                    }
                }
                let range = self.ranges[mb as usize][sl as usize].clone();
                let mut local = LocalAttn;
                let mut rt_opt = self.exmaps.as_ref().map(|maps| ExchangeRt {
                    device: d,
                    servers: &self.servers,
                    map: &maps[mb as usize],
                    ft: FtCtx {
                        plan: self.cfg.fault_plan.as_ref(),
                        timeout,
                        retries: self.cfg.exchange_retries,
                        ctl: Some(self.ctl.as_ref()),
                        iteration: step,
                        mb,
                        slice: sl,
                        reply_faults: matches!(op.kind, PassKind::Forward),
                        rec: Some(&rec),
                    },
                });
                let vp_holder;
                let vp = if self.cfg.vocab_parallel && is_last {
                    vp_holder = VocabParallel {
                        servers: &self.servers,
                        watchdog,
                        ctl: Some(self.ctl.as_ref()),
                        stage: d,
                        mb,
                        slice: sl,
                        rec: Some(&rec),
                    };
                    Some(&vp_holder)
                } else {
                    None
                };
                let attn: &mut dyn AttnExecutor = match rt_opt.as_mut() {
                    Some(rt) => rt,
                    None => &mut local,
                };
                match op.kind {
                    PassKind::Forward => {
                        let input = if d == 0 {
                            Err(self.data[mb as usize].0[range.clone()].to_vec())
                        } else {
                            let rx =
                                self.fwd_rx.as_ref().expect("interior stage has fwd input");
                            let (rmb, rsl, mut t) = recv_guarded_pumped(
                                rx,
                                &self.ctl,
                                watchdog,
                                d,
                                mb,
                                sl,
                                Port::Forward,
                                || pump_outbound(&mut fwd_out, &mut bwd_out, &self.ctl, d),
                            )?;
                            assert_eq!((rmb, rsl), (mb, sl), "fwd order mismatch");
                            if corrupt {
                                // Simulated transfer corruption: the unit's
                                // activations are poisoned and the NaNs
                                // surface at the loss.
                                t.fill(f32::NAN);
                            }
                            Ok(t)
                        };
                        let targets =
                            is_last.then(|| self.data[mb as usize].1[range.clone()].to_vec());
                        // Span covers only the stage math (exchange waits
                        // nest inside it as their own spans); the guarded
                        // receive above is pipeline bubble, not compute.
                        let t0 = rec.borrow().clock();
                        let fwd_out_val =
                            stage.forward(mb, sl, input, targets.as_deref(), attn, vp)?;
                        if let Some(t0) = t0 {
                            rec.borrow_mut().push(
                                SpanKind::Compute {
                                    stage: d,
                                    mb: mb as usize,
                                    slice: sl as usize,
                                    op: OpTag::Fwd,
                                },
                                t0,
                            );
                        }
                        match fwd_out_val {
                            StageOutput::Activation(act) => {
                                let out =
                                    fwd_out.as_mut().expect("interior stage has fwd output");
                                out.send((mb, sl, act), &self.ctl, d, Port::Forward)?;
                            }
                            StageOutput::Loss(lv) => {
                                if !lv.is_finite() {
                                    return Err(ExecError::NonFinite {
                                        stage: d,
                                        iteration: step,
                                        mb,
                                        slice: sl,
                                        what: "loss".into(),
                                    });
                                }
                                mb_loss[mb as usize] += lv;
                            }
                        }
                    }
                    PassKind::Backward => {
                        let d_in = if is_last {
                            None
                        } else {
                            let rx =
                                self.bwd_rx.as_ref().expect("interior stage has bwd input");
                            let (rmb, rsl, g) = recv_guarded_pumped(
                                rx,
                                &self.ctl,
                                watchdog,
                                d,
                                mb,
                                sl,
                                Port::Backward,
                                || pump_outbound(&mut fwd_out, &mut bwd_out, &self.ctl, d),
                            )?;
                            assert_eq!((rmb, rsl), (mb, sl), "bwd order mismatch");
                            Some(g)
                        };
                        let targets =
                            is_last.then(|| self.data[mb as usize].1[range.clone()].to_vec());
                        let t0 = rec.borrow().clock();
                        let dx_opt =
                            stage.backward(mb, sl, d_in, targets.as_deref(), attn, vp)?;
                        if let Some(t0) = t0 {
                            rec.borrow_mut().push(
                                SpanKind::Compute {
                                    stage: d,
                                    mb: mb as usize,
                                    slice: sl as usize,
                                    op: OpTag::Bwd,
                                },
                                t0,
                            );
                        }
                        if let Some(dx) = dx_opt {
                            let out =
                                bwd_out.as_mut().expect("non-first stage has bwd output");
                            out.send((mb, sl, dx), &self.ctl, d, Port::Backward)?;
                        }
                    }
                    PassKind::BackwardWeight => {
                        unreachable!("executor schemes do not split backward")
                    }
                }
            }
            // Drain any still-spilled posts: the iteration boundary is a
            // synchronization point (and possibly a checkpoint segment
            // end — threads join there, and dropping a non-empty spill
            // would strand the receiver at its watchdog).
            let t0 = rec.borrow().clock();
            flush_outbound(&mut fwd_out, &self.ctl, d, watchdog, Port::Forward)?;
            flush_outbound(&mut bwd_out, &self.ctl, d, watchdog, Port::Backward)?;
            if let Some(t0) = t0 {
                rec.borrow_mut().push(SpanKind::PostFlush { stage: d }, t0);
            }
            // ---- iteration boundary ----
            if is_last {
                let _ = self.loss_tx.send(mb_loss.iter().sum());
            }
            if step + 1 < self.steps {
                if self.cfg.vocab_parallel && is_last {
                    // Step the vocabulary shards (their gradients live in
                    // the servers). All of this iteration's vocab jobs have
                    // completed — loss_backward is synchronous — so FIFO
                    // ordering makes this safe.
                    server_barrier(
                        &self.servers,
                        |reply| ServerJob::SgdStep { lr: self.lr, reply },
                        &self.ctl,
                        watchdog,
                        d,
                    )?;
                }
                stage.sgd_step(self.lr);
            }
            // Drain this iteration's spans into the session. The boundary
            // is a synchronization point, so this is the one place a lock
            // is taken — never inside an op.
            rec.borrow_mut().flush();
        }
        Ok(())
    }
}

/// Spawn one compute server per device for a segment. Vocabulary shards
/// (when given) move into the servers and come back out at segment end.
type ServerJoin = std::thread::JoinHandle<Option<VocabShard>>;
fn spawn_segment_servers(
    p: usize,
    shards: Option<Vec<VocabShard>>,
    trace: &Arc<TraceSession>,
) -> (Vec<ServerHandle>, Vec<ServerJoin>) {
    let mut servers = Vec::with_capacity(p);
    let mut joins = Vec::with_capacity(p);
    match shards {
        Some(ss) => {
            for (dev, s) in ss.into_iter().enumerate() {
                let (h, j) = spawn_server_traced(dev, Some(s), trace);
                servers.push(h);
                joins.push(j);
            }
        }
        None => {
            for dev in 0..p {
                let (h, j) = spawn_server_traced(dev, None, trace);
                servers.push(h);
                joins.push(j);
            }
        }
    }
    (servers, joins)
}

/// A coarse analytic FLOP count for one training iteration of `cfg`:
/// `6 · tokens · params` for the dense math (fwd + bwd ≈ 3× a
/// 2-FLOP-per-MAC forward) plus the causal-attention score/value GEMMs,
/// which scale with token *pairs* rather than tokens. Used only to turn
/// measured busy time into a relative MFU — precision beyond the leading
/// terms buys nothing there.
pub fn approx_flops_per_iteration(cfg: &ExecConfig) -> f64 {
    let h = cfg.hidden() as f64;
    let kv = cfg.kv_hidden() as f64;
    let ffn = cfg.ffn as f64;
    let tokens: f64 = (0..cfg.microbatches).map(|mb| cfg.mb_seq(mb) as f64).sum();
    // Causal attention visits ~seq²/2 (query, key) pairs per microbatch.
    let pairs: f64 = (0..cfg.microbatches)
        .map(|mb| {
            let s = cfg.mb_seq(mb) as f64;
            s * s / 2.0
        })
        .sum();
    // Per-layer dense params: QKVO projections + SwiGLU (gate, up, down).
    let layer_params = h * h * 2.0 + h * kv * 2.0 + 3.0 * h * ffn;
    let dense = 6.0 * tokens * (layer_params * cfg.layers as f64 + h * cfg.vocab as f64);
    let attn = 12.0 * cfg.layers as f64 * pairs * h;
    dense + attn
}

/// Derive [`RunMetrics`] at the end of a run: counter deltas always, and —
/// when the session is live — per-stage busy/wait, makespan, bubble, MFU,
/// and overlap efficiency from the spans recorded *during this run* (an
/// elastic driver reuses one session across attempts, so spans already
/// present at entry are skipped via `span_base`).
fn run_metrics(
    cfg: &ExecConfig,
    iterations: usize,
    trace: &Arc<TraceSession>,
    c0: &CounterSnapshot,
    span_base: &[(String, usize)],
) -> RunMetrics {
    let mut m = RunMetrics {
        counters: obs_counters::snapshot().delta(c0),
        ..RunMetrics::default()
    };
    if !trace.enabled() {
        return m;
    }
    let p = cfg.stages;
    let mut busy = vec![0.0f64; p];
    let mut wait = vec![0.0f64; p];
    let (mut t_min, mut t_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for track in &trace.report().tracks {
        let Some(d) = track.name.strip_prefix("stage").and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        if d >= p {
            continue;
        }
        let skip = span_base
            .iter()
            .find(|(n, _)| n == &track.name)
            .map_or(0, |&(_, n)| n);
        for span in track.spans.iter().skip(skip) {
            match span.kind {
                SpanKind::Compute { op: OpTag::Fwd | OpTag::Bwd, .. } => {
                    busy[d] += span.dur_us * 1e-6;
                    t_min = t_min.min(span.start_us);
                    t_max = t_max.max(span.start_us + span.dur_us);
                }
                SpanKind::ExchangeWait { .. } => wait[d] += span.dur_us * 1e-6,
                _ => {}
            }
        }
    }
    if !t_max.is_finite() || !t_min.is_finite() {
        return m; // traced session, but no compute spans landed
    }
    let makespan = ((t_max - t_min) * 1e-6).max(0.0);
    let total_flops = approx_flops_per_iteration(cfg) * iterations as f64;
    // Relative MFU: peak = the busiest stage's achieved throughput, so the
    // number reads as "how close the whole pipeline runs to its own best
    // stage" rather than against an unknowable CPU peak.
    let stage_flops = total_flops / p as f64;
    let peak = busy
        .iter()
        .filter(|&&b| b > 0.0)
        .map(|&b| stage_flops / b)
        .fold(0.0f64, f64::max);
    let total_busy: f64 = busy.iter().sum();
    let total_wait: f64 = wait.iter().sum();
    m.measured_makespan_s = Some(makespan);
    m.measured_bubble = Some(slimpipe_sim::metrics::bubble_fraction(&busy, makespan));
    m.mfu = Some(slimpipe_sim::metrics::mfu(total_flops, makespan, p, peak));
    if total_busy > 0.0 {
        m.overlap_efficiency = Some((1.0 - total_wait / total_busy).clamp(0.0, 1.0));
    }
    m.stage_busy_s = busy;
    m.exchange_wait_s = wait;
    m
}

/// Run iterations `[start, steps)` of `cfg` under `kind`, starting from
/// fresh (optionally checkpoint-restored) stages, checkpointing at the
/// configured boundaries. The run is split into segments at those
/// boundaries; each segment spawns its own stage threads and servers
/// around the persistent [`Stage`]/[`VocabShard`] values.
#[allow(clippy::too_many_arguments)]
fn run_from(
    cfg: &ExecConfig,
    kind: PipelineKind,
    start: usize,
    steps: usize,
    lr: f32,
    restore: Option<Arc<CheckpointState>>,
    shards: Option<Vec<VocabShard>>,
    trace: &Arc<TraceSession>,
) -> Result<RunResult, ExecError> {
    let out = run_from_inner(cfg, kind, start, steps, lr, restore, shards, trace);
    if out.is_err() && trace.enabled() {
        // Flight recorder: the stage threads have joined (their recorders
        // Drop-flushed), so the report holds each track's final spans —
        // capture the tail for post-mortem before the session is dropped.
        slimpipe_obs::flight::store(slimpipe_obs::FlightRecording::capture(&trace.report()));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn run_from_inner(
    cfg: &ExecConfig,
    kind: PipelineKind,
    start: usize,
    steps: usize,
    lr: f32,
    restore: Option<Arc<CheckpointState>>,
    mut shards: Option<Vec<VocabShard>>,
    trace: &Arc<TraceSession>,
) -> Result<RunResult, ExecError> {
    let sched = build_schedule(kind, cfg); // cfg was validated by the caller
    let p = cfg.stages;
    let data = Arc::new(make_data(cfg));
    let ranges = Arc::new(cfg.slice_map());
    let ctl = Arc::new(RunCtl::new());
    // Metrics baselines: the counter registry is process-global and the
    // trace session may be shared across elastic attempts, so this run's
    // contribution is a delta against both.
    let c0 = obs_counters::snapshot();
    let span_base: Vec<(String, usize)> = trace
        .report()
        .tracks
        .iter()
        .map(|t| (t.name.clone(), t.spans.len()))
        .collect();
    let mut drv_rec = trace.recorder("driver");
    // One exchange map per microbatch: ragged microbatches and non-uniform
    // policies induce different slice volumes, so each microbatch gets a
    // plan derived from its actual bounds. Equal slicings (the whole run,
    // when not ragged) share one map, and the maps are Arc'd so stage
    // threads clone pointers, not plans.
    let any_sliced = (0..cfg.microbatches).any(|mb| cfg.slices_of(mb) > 1);
    let exmaps: Option<Arc<Vec<ExchangeMap>>> = (cfg.exchange && any_sliced).then(|| {
        let slicings = cfg.slicings();
        let mut maps: Vec<ExchangeMap> = Vec::with_capacity(slicings.len());
        for (i, s) in slicings.iter().enumerate() {
            match slicings[..i].iter().position(|t| t == s) {
                Some(j) => maps.push(maps[j].clone()),
                None => maps.push(ExchangeMap::build_from(p, s)),
            }
        }
        Arc::new(maps)
    });

    let mut stages: Option<Vec<Stage>> = None;
    let mut losses: Vec<f64> = Vec::with_capacity(steps - start);
    let mut cursors: Vec<Arc<AtomicU64>> = Vec::new();
    let mut it = start;
    while it < steps {
        let seg_end = match &cfg.checkpoint {
            Some(ck) => ((it / ck.every + 1) * ck.every).min(steps),
            None => steps,
        };
        let (servers, server_joins) =
            spawn_segment_servers(p, if cfg.vocab_parallel { shards.take() } else { None }, trace);

        // Stage-boundary channels (rebuilt per segment; they are empty at
        // every boundary).
        let mut fwd_tx: Vec<Option<Sender<ActMsg>>> = Vec::new();
        let mut fwd_rx: Vec<Option<Receiver<ActMsg>>> = vec![None];
        let mut bwd_tx: Vec<Option<Sender<ActMsg>>> = vec![None];
        let mut bwd_rx: Vec<Option<Receiver<ActMsg>>> = Vec::new();
        // The exchange runtime double-buffers each boundary at
        // iteration granularity: a bounded channel sized for two
        // iterations' worth of units behind the stages' non-blocking post
        // queues, so a stage's legitimate schedule run-ahead (warmup
        // forwards) never waits on the consumer, while the post queue's
        // spill stays the deadlock-safety net for anything beyond (a wedged
        // peer). A tighter bound buys no memory — the spill behind it is
        // unbounded — but costs a wakeup round-trip per rate-limited
        // message, which serializes the pipeline on few cores.
        let units: usize = (0..cfg.microbatches).map(|mb| cfg.slices_of(mb)).sum();
        let cap = 2 * units.max(1);
        for _ in 0..p.saturating_sub(1) {
            let (ft, fr) = bounded(cap);
            fwd_tx.push(Some(ft));
            fwd_rx.push(Some(fr));
            let (bt, br) = bounded(cap);
            bwd_tx.push(Some(bt));
            bwd_rx.push(Some(br));
        }
        fwd_tx.push(None);
        bwd_rx.push(None);
        let (loss_tx, loss_rx) = unbounded::<f64>();

        let seg_stages_in: Vec<Option<Stage>> = match stages.take() {
            Some(v) => v.into_iter().map(Some).collect(),
            None => (0..p).map(|_| None).collect(),
        };
        let mut joins = Vec::with_capacity(p);
        cursors = (0..p).map(|_| Arc::new(AtomicU64::new(pack_cursor(it, 0, 0)))).collect();
        for (d, prebuilt) in seg_stages_in.into_iter().enumerate() {
            let run = StageRun {
                cfg: cfg.clone(),
                device: d,
                steps,
                lr,
                seg: it..seg_end,
                ops: sched.ops[d].clone(),
                data: data.clone(),
                ranges: ranges.clone(),
                fwd_rx: fwd_rx[d].take(),
                fwd_tx: fwd_tx[d].take(),
                bwd_rx: bwd_rx[d].take(),
                bwd_tx: bwd_tx[d].take(),
                servers: servers.clone(),
                exmaps: exmaps.clone(),
                loss_tx: loss_tx.clone(),
                ctl: ctl.clone(),
                cursor: cursors[d].clone(),
                trace: trace.clone(),
            };
            let ctl = ctl.clone();
            let restore = restore.clone();
            joins.push(std::thread::spawn(move || -> Result<Stage, ExecError> {
                let mut stage = match prebuilt {
                    Some(s) => s,
                    None => {
                        let mut s = Stage::build(&run.cfg, d);
                        if let Some(ck) = &restore {
                            if let Err(e) = ck.apply_to(&mut s) {
                                ctl.fail(e.clone());
                                return Err(e);
                            }
                        }
                        s
                    }
                };
                let cursor = run.cursor.clone();
                // Panic containment: a panicking op (injected or a real
                // bug) becomes a StagePanic naming the failed unit, and the
                // abort flag drains every peer.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run.run(&mut stage)
                })) {
                    Ok(Ok(())) => Ok(stage),
                    Ok(Err(e)) => {
                        ctl.fail(e.clone());
                        Err(e)
                    }
                    Err(payload) => {
                        let c = cursor.load(Ordering::Relaxed);
                        let e = ExecError::StagePanic {
                            stage: d,
                            iteration: (c >> 32) as usize,
                            mb: ((c >> 16) & 0xFFFF) as u32,
                            slice: (c & 0xFFFF) as u32,
                            msg: panic_message(payload.as_ref()),
                        };
                        ctl.fail(e.clone());
                        Err(e)
                    }
                }
            }));
        }
        drop(loss_tx);

        let mut seg_stages: Vec<Stage> = Vec::with_capacity(p);
        let mut thread_err: Option<ExecError> = None;
        for (d, j) in joins.into_iter().enumerate() {
            match j.join() {
                Ok(Ok(st)) => seg_stages.push(st),
                Ok(Err(e)) => {
                    thread_err.get_or_insert(e);
                }
                Err(payload) => {
                    // Outside catch_unwind — should be unreachable, but a
                    // thread death must never hang or abort the driver.
                    let e = ExecError::StagePanic {
                        stage: d,
                        iteration: it,
                        mb: 0,
                        slice: 0,
                        msg: panic_message(payload.as_ref()),
                    };
                    ctl.fail(e.clone());
                    thread_err.get_or_insert(e);
                }
            }
        }
        // Stop the segment's servers and recover the shards.
        for s in &servers {
            s.stop();
        }
        let mut seg_shards: Vec<Option<VocabShard>> = Vec::with_capacity(p);
        for j in server_joins {
            seg_shards.push(j.join().unwrap_or(None));
        }
        // The control block ranks root causes above drain echoes.
        if let Some(e) = ctl.take_error().or(thread_err) {
            return Err(e);
        }
        losses.extend(loss_rx.try_iter());
        debug_assert_eq!(losses.len(), seg_end - start, "one loss per iteration");
        if cfg.vocab_parallel {
            let mut out = Vec::with_capacity(p);
            for (dev, s) in seg_shards.into_iter().enumerate() {
                match s {
                    Some(s) => out.push(s),
                    None => {
                        return Err(ExecError::ServerDied {
                            device: dev,
                            stage: p - 1,
                            mb: 0,
                            slice: 0,
                        })
                    }
                }
            }
            shards = Some(out);
        }
        // Snapshot at interior boundaries (the final boundary has the last
        // iteration's gradients un-stepped by design — nothing to resume).
        if seg_end < steps {
            if let Some(ck) = &cfg.checkpoint {
                let t0 = drv_rec.clock();
                CheckpointState::capture(seg_end, &seg_stages, shards.as_deref())
                    .save_retained(ck, cfg)?;
                obs_counters::CKPT_SAVES.incr();
                if let Some(t0) = t0 {
                    drv_rec.push(SpanKind::CkptSave { iteration: seg_end }, t0);
                    // Make the save visible immediately: a recovery driver
                    // may read the trace mid-replan, between segments.
                    drv_rec.flush();
                }
            }
        }
        stages = Some(seg_stages);
        it = seg_end;
    }

    // The tail must stay typed-error plumbing: the recovery driver runs
    // arbitrary restored/regrouped state through here, and a panic would
    // escape its supervise loop where an ExecError heals.
    let mut stages = stages
        .ok_or_else(|| ExecError::InvalidConfig("no iterations to run (start >= steps)".into()))?;
    let mut out_grad = Tensor::zeros(cfg.hidden(), cfg.vocab);
    if let Some(shards) = &shards {
        for s in shards {
            out_grad.set_cols(s.offset, &s.grad);
        }
    } else {
        let (_, g) = stages[p - 1].out_proj.as_ref().ok_or_else(|| {
            ExecError::Checkpoint("last stage has no output projection (classic head)".into())
        })?;
        out_grad = g.clone();
    }

    let peak_act_bytes: Vec<u64> = stages.iter().map(|s| s.mem.peak()).collect();
    let mut layer_grads = Vec::with_capacity(cfg.layers);
    for st in &mut stages {
        layer_grads.append(&mut st.grads.drain(..).collect());
    }
    let embed_grad = stages[0]
        .embed
        .as_ref()
        .ok_or_else(|| ExecError::Checkpoint("stage 0 has no embedding table".into()))?
        .1
        .clone();
    let final_norm_grad = stages[p - 1]
        .final_norm
        .as_ref()
        .ok_or_else(|| ExecError::Checkpoint("last stage has no final norm".into()))?
        .1
        .clone();

    let final_cursors = cursors
        .iter()
        .map(|c| {
            let v = c.load(Ordering::Relaxed);
            ((v >> 32) as usize, ((v >> 16) & 0xFFFF) as u32, (v & 0xFFFF) as u32)
        })
        .collect();
    // Mirror this run's per-run control-block tallies into the global
    // registry *before* taking the counter delta, so the snapshot in
    // `metrics` includes them.
    let fault_stats = ctl.stats();
    let posted_sends = ctl.posted_sends.load(Ordering::Relaxed);
    obs_counters::EXCHANGE_RETRIES.add(fault_stats.exchange_retries);
    obs_counters::POSTED_SENDS.add(posted_sends);
    let metrics = run_metrics(cfg, steps - start, trace, &c0, &span_base);
    Ok(RunResult {
        losses,
        layer_grads,
        embed_grad,
        out_grad,
        final_norm_grad,
        peak_act_bytes,
        fault_stats,
        final_cursors,
        posted_sends,
        metrics,
    })
}

/// Run `steps` training iterations of `cfg` under `kind`, recording spans
/// into `trace` (pass [`TraceSession::disabled`] for an untraced run). The
/// gradients of the final iteration are returned un-stepped so they can be
/// compared across configurations. Every failure mode — injected or real —
/// returns a structured [`ExecError`]; the process neither hangs nor
/// aborts. Tracing is determinism-neutral: a traced run is bit-identical
/// to an untraced one (asserted in `tests/trace.rs`).
pub fn try_run_pipeline_traced(
    cfg: &ExecConfig,
    kind: PipelineKind,
    steps: usize,
    lr: f32,
    trace: &Arc<TraceSession>,
) -> Result<RunResult, ExecError> {
    cfg.validate().map_err(ExecError::InvalidConfig)?;
    if steps == 0 {
        return Err(ExecError::InvalidConfig("steps must be >= 1".into()));
    }
    let shards = cfg.vocab_parallel.then(|| build_vocab_shards(cfg));
    run_from(cfg, kind, 0, steps, lr, None, shards, trace)
}

/// Resume from a snapshot (from [`CheckpointState::load_latest`], or a
/// pinned `{path}.it{N}` via [`CheckpointState::load`]) and train to
/// `steps` total iterations — the recovery driver's restore path. The
/// returned losses cover only the resumed iterations, and the result is
/// **bit-identical** to the corresponding tail of an uninterrupted run:
/// exact f32 bit patterns are restored, repacking is deterministic, the
/// optimizer is stateless, and data is a pure function of `(seed, mb)`. A
/// snapshot captured at a different pipeline geometry is re-sharded onto
/// `cfg`'s via [`CheckpointState::regroup`] — elastic restore is this one
/// line, not a parallel code path.
pub fn try_resume_pipeline_from_traced(
    cfg: &ExecConfig,
    kind: PipelineKind,
    steps: usize,
    lr: f32,
    state: CheckpointState,
    trace: &Arc<TraceSession>,
) -> Result<RunResult, ExecError> {
    cfg.validate().map_err(ExecError::InvalidConfig)?;
    let state = if state.stages.len() != cfg.stages
        || state.shards.is_some() != cfg.vocab_parallel
    {
        state.regroup(cfg)?
    } else {
        state
    };
    let start = state.iteration as usize;
    if start >= steps {
        return Err(ExecError::Checkpoint(format!(
            "checkpoint at iteration {start} cannot resume a {steps}-step run"
        )));
    }
    let shards = if cfg.vocab_parallel {
        Some(state.to_shards(cfg).ok_or_else(|| {
            ExecError::Checkpoint("vocab-parallel resume needs shard states".into())
        })?)
    } else {
        None
    };
    run_from(cfg, kind, start, steps, lr, Some(Arc::new(state)), shards, trace)
}

/// Single-device, unsliced, untraced reference run — the ground truth
/// every pipeline configuration is verified against. Fault injection and
/// checkpointing are stripped: the reference must stay the clean baseline
/// even when `cfg` carries a fault plan.
pub fn run_reference(cfg: &ExecConfig, steps: usize, lr: f32) -> RunResult {
    let ref_cfg = ExecConfig {
        stages: 1,
        slices: 1,
        mb_slices: None,
        slicing: slimpipe_core::SlicePolicy::Uniform,
        vocab_parallel: false,
        exchange: false,
        fault_plan: None,
        checkpoint: None,
        ..cfg.clone()
    };
    try_run_pipeline_traced(&ref_cfg, PipelineKind::OneFOneB, steps, lr, &TraceSession::disabled())
        .unwrap_or_else(|e| panic!("reference run failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::run;

    #[test]
    fn reference_runs_and_learns() {
        let cfg = ExecConfig::small();
        let r = run_reference(&cfg, 4, 0.5);
        assert_eq!(r.losses.len(), 4);
        assert!(r.losses[3] < r.losses[0], "losses: {:?}", r.losses);
        assert_eq!(r.layer_grads.len(), cfg.layers);
        assert_eq!(r.fault_stats, FaultStats::default());
    }

    #[test]
    fn slimpipe_pipeline_runs() {
        let cfg = ExecConfig {
            exchange: false,
            ..ExecConfig::small()
        };
        let r = run(&cfg, PipelineKind::SlimPipe, 1, 0.1).unwrap();
        assert_eq!(r.losses.len(), 1);
        assert!(r.losses[0].is_finite());
        assert_eq!(r.peak_act_bytes.len(), cfg.stages);
        assert!(r.peak_act_bytes.iter().all(|&b| b > 0));
    }

    #[test]
    fn zero_steps_is_a_structured_error() {
        let cfg = ExecConfig::small();
        match run(&cfg, PipelineKind::SlimPipe, 0, 0.1) {
            Err(ExecError::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| "ok")),
        }
    }
}
