//! Fault model of the executor: structured errors, deterministic fault
//! injection, and the shared run-control block that drains a failing
//! pipeline instead of hanging or aborting the process.
//!
//! Design rules:
//!
//! * **Structured failure** — every way a run can die maps to one
//!   [`ExecError`] variant naming the failed unit `(iteration, stage, mb,
//!   slice)`. Stage and server threads are wrapped in `catch_unwind`, so
//!   even a panic becomes an `ExecError` instead of a process abort.
//! * **One response** — a run never degrades: the first primary failure
//!   drains the pipeline and is returned. Healing is the elastic driver's
//!   job ([`ExecError::is_recoverable`]), which restores the last snapshot
//!   and loses no data.
//! * **No hangs** — every cross-thread wait is a `recv_timeout` loop that
//!   watches the shared abort flag and a watchdog deadline; a wedged
//!   rendezvous reports the blocked `(stage, unit)` pair.
//! * **Deterministic injection** — a [`FaultPlan`] names exact `(iteration,
//!   stage, mb, slice)` sites, matched on the owning stage thread in
//!   schedule order, so every failure is as reproducible as a fault-free
//!   run and can be conformance-tested across `RAYON_NUM_THREADS` like any
//!   other regime.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which rendezvous a stage was blocked on when the watchdog fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Port {
    /// Waiting for the upstream stage's forward activation.
    Forward,
    /// Waiting for the downstream stage's backward gradient.
    Backward,
    /// Waiting for a compute server's reply.
    Server,
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Port::Forward => "forward",
            Port::Backward => "backward",
            Port::Server => "server",
        })
    }
}

/// Structured executor failure. Every variant names the unit that failed,
/// so a dead run is a diagnosis, not a stack trace.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// A stage thread panicked (caught; the process survives).
    StagePanic { stage: usize, iteration: usize, mb: u32, slice: u32, msg: String },
    /// A compute server's channel disconnected: the server thread is gone.
    ServerDied { device: usize, stage: usize, mb: u32, slice: u32 },
    /// An exchange rendezvous exhausted its retry budget.
    ExchangeTimeout { stage: usize, device: usize, mb: u32, slice: u32, chunk: usize, attempts: u32 },
    /// The watchdog caught a stage blocked on a rendezvous past the
    /// deadline and reports the blocked (stage, unit) pair.
    RendezvousStuck { stage: usize, mb: u32, slice: u32, port: Port, waited_ms: u64 },
    /// A NaN/Inf loss (always fatal: no geometry change heals numerics).
    NonFinite { stage: usize, iteration: usize, mb: u32, slice: u32, what: String },
    /// This thread stopped because another unit failed first; the primary
    /// error is recorded in the run control block.
    Aborted { stage: usize },
    /// A peer's channel disconnected without a recorded primary error.
    Disconnected { stage: usize, port: Port },
    InvalidConfig(String),
    /// Checkpoint serialization / restore failure (path, corruption, or a
    /// config fingerprint mismatch).
    Checkpoint(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StagePanic { stage, iteration, mb, slice, msg } => write!(
                f,
                "stage {stage} panicked at iteration {iteration}, unit (mb {mb}, slice {slice}): {msg}"
            ),
            ExecError::ServerDied { device, stage, mb, slice } => write!(
                f,
                "compute server {device} died (stage {stage} waiting at unit (mb {mb}, slice {slice}))"
            ),
            ExecError::ExchangeTimeout { stage, device, mb, slice, chunk, attempts } => write!(
                f,
                "exchange rendezvous timed out after {attempts} attempts: stage {stage} \
                 awaiting chunk {chunk} of unit (mb {mb}, slice {slice}) from device {device}"
            ),
            ExecError::RendezvousStuck { stage, mb, slice, port, waited_ms } => write!(
                f,
                "watchdog: stage {stage} stuck {waited_ms} ms on {port} rendezvous of unit \
                 (mb {mb}, slice {slice})"
            ),
            ExecError::NonFinite { stage, iteration, mb, slice, what } => write!(
                f,
                "non-finite {what} at stage {stage}, iteration {iteration}, unit (mb {mb}, slice {slice})"
            ),
            ExecError::Aborted { stage } => {
                write!(f, "stage {stage} drained after another unit failed")
            }
            ExecError::Disconnected { stage, port } => {
                write!(f, "stage {stage}: {port} peer disconnected without reporting an error")
            }
            ExecError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            ExecError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl ExecError {
    /// Primary errors are root causes; secondary errors are the echoes
    /// other threads report while the pipeline drains. The control block
    /// lets a primary error displace a secondary one so the run always
    /// surfaces the root cause regardless of thread timing.
    fn is_primary(&self) -> bool {
        !matches!(self, ExecError::Aborted { .. } | ExecError::Disconnected { .. })
    }

    /// Failures the elastic recovery driver can heal by re-planning onto
    /// fewer stages and restoring from the latest checkpoint: the *compute*
    /// is lost (a dead stage thread, a dead server, a wedged or exhausted
    /// exchange), not the job. Numerics (`NonFinite`), configuration, and
    /// checkpoint corruption are not healed by shrinking the geometry.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            ExecError::StagePanic { .. }
                | ExecError::ServerDied { .. }
                | ExecError::ExchangeTimeout { .. }
                | ExecError::RendezvousStuck { .. }
                | ExecError::Disconnected { .. }
        )
    }
}

/// A fault-injection site: the exact schedule coordinate where the fault
/// fires. Stages match sites against their own `(iteration, stage)` and the
/// op's `(mb, slice)`, so injection is deterministic by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSite {
    pub iteration: usize,
    pub stage: usize,
    pub mb: u32,
    pub slice: u32,
}

/// What happens at a matched site.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The stage thread panics before executing the op.
    StagePanic,
    /// The given device's compute server is told to die before the op.
    ServerDeath { device: usize },
    /// The first remote-chunk reply of this op's exchange is lost; the
    /// retry path must recover it.
    DropReply,
    /// Every remote-chunk reply of this op is delayed by `ms` on the
    /// serving side.
    DelayReply { ms: u64 },
    /// The op's input activation is poisoned with NaNs (simulated transfer
    /// corruption; stages > 0 only — stage 0 receives tokens, not floats).
    CorruptActivation,
    /// The stage stops making progress at the site until the run aborts
    /// (bounded at 10× the watchdog so a single-stage run still ends). A
    /// peer's watchdog must catch it and report the stuck pair.
    Stall,
}

/// Deterministic fault schedule: fires `kind` whenever execution passes
/// `site`. Part of `ExecConfig`, so a faulty run is exactly as declarative
/// and reproducible as a clean one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub faults: Vec<(FaultSite, FaultKind)>,
}

impl FaultPlan {
    /// One fault at one site.
    pub fn single(site: FaultSite, kind: FaultKind) -> Self {
        Self { faults: vec![(site, kind)] }
    }

    /// Faults matching the given schedule coordinate.
    pub fn at(
        &self,
        iteration: usize,
        stage: usize,
        mb: u32,
        slice: u32,
    ) -> impl Iterator<Item = &FaultKind> {
        self.faults.iter().filter_map(move |(s, k)| {
            (s.iteration == iteration && s.stage == stage && s.mb == mb && s.slice == slice)
                .then_some(k)
        })
    }

    /// JSON form, so chaos schedules live in files and CI matrices instead
    /// of Rust literals:
    ///
    /// ```json
    /// { "faults": [
    ///   {"iteration": 3, "stage": 1, "mb": 0, "slice": 1, "kind": "stage_panic"},
    ///   {"iteration": 2, "stage": 0, "mb": 1, "slice": 0, "kind": "server_death", "device": 1},
    ///   {"iteration": 1, "stage": 0, "mb": 0, "slice": 2, "kind": "delay_reply", "ms": 5}
    /// ] }
    /// ```
    ///
    /// Kinds: `stage_panic`, `server_death` (`device`), `drop_reply`,
    /// `delay_reply` (`ms`), `corrupt_activation`, `stall`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\n  \"faults\": [\n");
        for (i, (s, k)) in self.faults.iter().enumerate() {
            let (tag, extra) = match k {
                FaultKind::StagePanic => ("stage_panic", String::new()),
                FaultKind::ServerDeath { device } => {
                    ("server_death", format!(", \"device\": {device}"))
                }
                FaultKind::DropReply => ("drop_reply", String::new()),
                FaultKind::DelayReply { ms } => ("delay_reply", format!(", \"ms\": {ms}")),
                FaultKind::CorruptActivation => ("corrupt_activation", String::new()),
                FaultKind::Stall => ("stall", String::new()),
            };
            let comma = if i + 1 < self.faults.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"iteration\": {}, \"stage\": {}, \"mb\": {}, \"slice\": {}, \
                 \"kind\": \"{tag}\"{extra}}}{comma}",
                s.iteration, s.stage, s.mb, s.slice
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse the [`FaultPlan::to_json`] format (same hand-rolled field
    /// scanner as the planner's `CostProfile` — no serde in the tree).
    /// Geometry validation (site within stages/microbatches, device within
    /// range) stays where it always was: `ExecConfig::validate`, which
    /// reports structured `InvalidConfig` errors.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let start = text.find("\"faults\"").ok_or("fault plan JSON: missing \"faults\"")?;
        let rest = &text[start..];
        let open = rest.find('[').ok_or("fault plan JSON: missing fault array")?;
        let close = rest.rfind(']').ok_or("fault plan JSON: unterminated fault array")?;
        if close < open {
            return Err("fault plan JSON: malformed fault array".into());
        }
        let mut body = &rest[open + 1..close];
        let mut faults = Vec::new();
        while let Some(ob) = body.find('{') {
            let cb = body[ob..]
                .find('}')
                .ok_or("fault plan JSON: unterminated fault object")?
                + ob;
            faults.push(parse_fault(&body[ob + 1..cb])?);
            body = &body[cb + 1..];
        }
        Ok(Self { faults })
    }

    /// The `SLIMPIPE_FAULT_PLAN` hook: a value starting with `{` is inline
    /// JSON, anything else is a path to a JSON file. Returns `Ok(None)`
    /// when unset or empty. No entry point consults it: a caller that wants
    /// the hook puts the result in `ExecConfig::fault_plan` itself.
    pub fn from_env() -> Result<Option<Self>, String> {
        let v = match std::env::var("SLIMPIPE_FAULT_PLAN") {
            Ok(v) if !v.trim().is_empty() => v,
            _ => return Ok(None),
        };
        let text = if v.trim_start().starts_with('{') {
            v
        } else {
            std::fs::read_to_string(&v)
                .map_err(|e| format!("SLIMPIPE_FAULT_PLAN file {v}: {e}"))?
        };
        Self::from_json(&text).map(Some)
    }
}

/// One `{...}` fault object (braces stripped) from the JSON form.
fn parse_fault(obj: &str) -> Result<(FaultSite, FaultKind), String> {
    let num = |key: &str| -> Result<u64, String> {
        let pat = format!("\"{key}\":");
        let idx = obj.find(&pat).ok_or_else(|| format!("fault object missing \"{key}\""))?;
        let raw: String = obj[idx + pat.len()..]
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_digit())
            .collect();
        raw.parse().map_err(|_| format!("fault object: bad number for \"{key}\""))
    };
    let kind_pat = "\"kind\":";
    let kidx = obj.find(kind_pat).ok_or("fault object missing \"kind\"")?;
    let tag: String = obj[kidx + kind_pat.len()..]
        .trim_start()
        .strip_prefix('"')
        .ok_or("fault object: \"kind\" must be a string")?
        .chars()
        .take_while(|&c| c != '"')
        .collect();
    let kind = match tag.as_str() {
        "stage_panic" => FaultKind::StagePanic,
        "server_death" => FaultKind::ServerDeath { device: num("device")? as usize },
        "drop_reply" => FaultKind::DropReply,
        "delay_reply" => FaultKind::DelayReply { ms: num("ms")? },
        "corrupt_activation" => FaultKind::CorruptActivation,
        "stall" => FaultKind::Stall,
        other => return Err(format!("fault object: unknown kind \"{other}\"")),
    };
    let site = FaultSite {
        iteration: num("iteration")? as usize,
        stage: num("stage")? as usize,
        mb: num("mb")? as u32,
        slice: num("slice")? as u32,
    };
    Ok((site, kind))
}

/// Counters a run reports about its recovery activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Exchange replies that needed at least one resubmission.
    pub exchange_retries: u64,
}

/// Shared run-control block: the first failure aborts the run; every other
/// thread sees the flag at its next rendezvous and drains.
#[derive(Default)]
pub struct RunCtl {
    abort: AtomicBool,
    err: Mutex<Option<ExecError>>,
    pub exchange_retries: AtomicU64,
    /// Boundary activations handed off through the non-blocking post queue
    /// (async exchange runtime). Observability only — not a fault counter,
    /// so it reports outside [`FaultStats`].
    pub posted_sends: AtomicU64,
}

impl RunCtl {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a failure and raise the abort flag. The first *primary*
    /// error wins; a primary error displaces a previously recorded
    /// secondary one (a draining thread may observe the disconnect before
    /// the failing thread records its root cause).
    pub fn fail(&self, e: ExecError) {
        self.abort.store(true, Ordering::Release);
        // A panicking reporter must not wedge error collection: recover the
        // slot from a poisoned lock instead of propagating the poison.
        let mut slot = self.err.lock().unwrap_or_else(|p| p.into_inner());
        match &*slot {
            None => *slot = Some(e),
            Some(cur) if !cur.is_primary() && e.is_primary() => *slot = Some(e),
            Some(_) => {}
        }
    }

    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    pub fn take_error(&self) -> Option<ExecError> {
        self.err.lock().unwrap_or_else(|p| p.into_inner()).take()
    }

    pub fn stats(&self) -> FaultStats {
        FaultStats {
            exchange_retries: self.exchange_retries.load(Ordering::Relaxed),
        }
    }
}

/// Poll interval of guarded waits: long enough to stay off the hot path,
/// short enough that an abort drains the pipeline promptly.
pub const ABORT_POLL: Duration = Duration::from_millis(25);

/// Poll interval while the pump hook reports spilled posted sends still
/// waiting for channel space. The only thing that moves a spilled message
/// is the sender's own pump, so sleeping a full [`ABORT_POLL`] between
/// pumps would degrade the async pipeline into 25 ms-lockstep stalls —
/// the peer frees a slot, then waits on the spilled message until our
/// quantum expires. A sub-millisecond retry keeps the handoff prompt —
/// the spill is only non-empty while the peer is more than one full
/// unit behind, so the tight poll is rare and short-lived.
pub const SPILL_POLL: Duration = Duration::from_micros(100);

/// Grace period after an unexplained disconnect before concluding the peer
/// died silently (its `catch_unwind` may still be recording the root
/// cause).
pub const DISCONNECT_GRACE: Duration = Duration::from_millis(250);

/// A guarded blocking receive: waits for a message, watching the abort
/// flag every [`ABORT_POLL`] and giving up after `watchdog` with a
/// stuck-rendezvous report naming the blocked `(stage, unit)` pair. On a
/// disconnect it waits [`DISCONNECT_GRACE`] for the peer's root cause to
/// land in `ctl` before reporting the disconnect itself.
pub fn recv_guarded<T>(
    rx: &crossbeam::channel::Receiver<T>,
    ctl: &RunCtl,
    watchdog: Duration,
    stage: usize,
    mb: u32,
    slice: u32,
    port: Port,
) -> Result<T, ExecError> {
    recv_guarded_pumped(rx, ctl, watchdog, stage, mb, slice, port, || Ok(0))
}

/// [`recv_guarded`] with a pump hook run before every poll, so a stage
/// blocked on a receive keeps flushing its own posted-send overflow into
/// freed channel slots (the async exchange runtime's spill) — without the
/// hook, two stages could each hold the message the other waits for. The
/// hook reports how many posted sends are *still* spilled; while that is
/// non-zero the loop polls at [`SPILL_POLL`] so a slot freed by the peer
/// is refilled promptly instead of after a full quantum.
///
/// The poll quantum is `min(quantum, remaining)`, never the fixed
/// [`ABORT_POLL`]: a watchdog configured below the quantum fires at its
/// own deadline instead of silently rounding up to the poll period.
#[allow(clippy::too_many_arguments)]
pub fn recv_guarded_pumped<T>(
    rx: &crossbeam::channel::Receiver<T>,
    ctl: &RunCtl,
    watchdog: Duration,
    stage: usize,
    mb: u32,
    slice: u32,
    port: Port,
    mut pump: impl FnMut() -> Result<usize, ExecError>,
) -> Result<T, ExecError> {
    use crossbeam::channel::RecvTimeoutError;
    let start = Instant::now();
    loop {
        let spilled = pump()?;
        let waited = start.elapsed();
        let Some(remaining) = watchdog.checked_sub(waited).filter(|d| !d.is_zero()) else {
            if ctl.aborted() {
                return Err(ExecError::Aborted { stage });
            }
            let e = ExecError::RendezvousStuck {
                stage,
                mb,
                slice,
                port,
                waited_ms: waited.as_millis() as u64,
            };
            ctl.fail(e.clone());
            return Err(e);
        };
        let quantum = if spilled > 0 { SPILL_POLL } else { ABORT_POLL };
        match rx.recv_timeout(quantum.min(remaining)) {
            Ok(v) => return Ok(v),
            Err(RecvTimeoutError::Timeout) => {
                slimpipe_obs::counters::WATCHDOG_WAKEUPS.incr();
                if ctl.aborted() {
                    return Err(ExecError::Aborted { stage });
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                let grace_start = Instant::now();
                while grace_start.elapsed() < DISCONNECT_GRACE {
                    if ctl.aborted() {
                        return Err(ExecError::Aborted { stage });
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                if ctl.aborted() {
                    return Err(ExecError::Aborted { stage });
                }
                let e = ExecError::Disconnected { stage, port };
                ctl.fail(e.clone());
                return Err(e);
            }
        }
    }
}

/// Payload type for injected panics, so the quiet panic hook (tests) and
/// the containment layer can tell injected faults from real bugs.
pub struct InjectedPanic(pub String);

/// Extract a panic payload into a human-readable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(ip) = payload.downcast_ref::<InjectedPanic>() {
        ip.0.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn primary_error_displaces_secondary() {
        let ctl = RunCtl::new();
        ctl.fail(ExecError::Aborted { stage: 1 });
        assert!(ctl.aborted());
        ctl.fail(ExecError::NonFinite {
            stage: 0,
            iteration: 2,
            mb: 1,
            slice: 0,
            what: "loss".into(),
        });
        // A second primary must NOT displace the first.
        ctl.fail(ExecError::StagePanic {
            stage: 1,
            iteration: 0,
            mb: 0,
            slice: 0,
            msg: "later".into(),
        });
        match ctl.take_error() {
            Some(ExecError::NonFinite { stage: 0, iteration: 2, .. }) => {}
            other => panic!("expected the first primary error, got {other:?}"),
        }
    }

    #[test]
    fn recv_guarded_reports_stuck_pair() {
        let (_tx, rx) = unbounded::<u8>();
        let ctl = RunCtl::new();
        let err = recv_guarded(&rx, &ctl, Duration::from_millis(60), 3, 1, 2, Port::Backward)
            .unwrap_err();
        match err {
            ExecError::RendezvousStuck { stage: 3, mb: 1, slice: 2, port: Port::Backward, waited_ms } => {
                assert!(waited_ms >= 60);
            }
            other => panic!("expected RendezvousStuck, got {other}"),
        }
        assert!(ctl.aborted(), "watchdog failure must abort the run");
    }

    #[test]
    fn recv_guarded_drains_on_abort() {
        let (_tx, rx) = unbounded::<u8>();
        let ctl = RunCtl::new();
        ctl.fail(ExecError::Aborted { stage: 0 });
        let err =
            recv_guarded(&rx, &ctl, Duration::from_secs(60), 1, 0, 0, Port::Forward).unwrap_err();
        assert_eq!(err, ExecError::Aborted { stage: 1 });
    }

    #[test]
    fn sub_quantum_watchdog_fires_within_twice_the_deadline() {
        let (_tx, rx) = unbounded::<u8>();
        // 12 ms is below the 25 ms poll quantum: the historical
        // fixed-quantum loop could not report before ~25 ms (>2× the
        // deadline). Accept the fastest of a few tries so scheduler noise
        // on a loaded host cannot fail the build.
        let deadline = Duration::from_millis(12);
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let ctl = RunCtl::new();
            let t0 = Instant::now();
            let err = recv_guarded(&rx, &ctl, deadline, 0, 0, 0, Port::Server).unwrap_err();
            best = best.min(t0.elapsed());
            match err {
                ExecError::RendezvousStuck { waited_ms, .. } => assert!(waited_ms >= 12),
                other => panic!("expected RendezvousStuck, got {other}"),
            }
        }
        assert!(
            best < deadline * 2,
            "sub-quantum deadline took {best:?} at best (limit {:?})",
            deadline * 2
        );
    }

    #[test]
    fn pump_hook_runs_and_its_error_wins() {
        let (_tx, rx) = unbounded::<u8>();
        let ctl = RunCtl::new();
        let mut calls = 0u32;
        let err = recv_guarded_pumped(
            &rx,
            &ctl,
            Duration::from_secs(60),
            2,
            0,
            0,
            Port::Forward,
            || {
                calls += 1;
                if calls >= 3 {
                    Err(ExecError::Disconnected { stage: 2, port: Port::Forward })
                } else {
                    Ok(0)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, ExecError::Disconnected { stage: 2, port: Port::Forward });
        assert_eq!(calls, 3, "pump must run once per poll");
    }

    #[test]
    fn fault_plan_json_roundtrips() {
        let plan = FaultPlan {
            faults: vec![
                (FaultSite { iteration: 3, stage: 1, mb: 0, slice: 1 }, FaultKind::StagePanic),
                (
                    FaultSite { iteration: 2, stage: 0, mb: 1, slice: 0 },
                    FaultKind::ServerDeath { device: 1 },
                ),
                (FaultSite { iteration: 1, stage: 0, mb: 0, slice: 2 }, FaultKind::DropReply),
                (
                    FaultSite { iteration: 4, stage: 1, mb: 1, slice: 3 },
                    FaultKind::DelayReply { ms: 5 },
                ),
                (
                    FaultSite { iteration: 0, stage: 1, mb: 0, slice: 0 },
                    FaultKind::CorruptActivation,
                ),
                (FaultSite { iteration: 5, stage: 0, mb: 1, slice: 1 }, FaultKind::Stall),
            ],
        };
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(FaultPlan::from_json("{\"faults\": []}").unwrap(), FaultPlan::default());
    }

    #[test]
    fn fault_plan_json_rejects_garbage() {
        assert!(FaultPlan::from_json("not json").is_err());
        assert!(FaultPlan::from_json("{\"faults\": [{\"iteration\": 1}]}").is_err());
        assert!(FaultPlan::from_json(
            "{\"faults\": [{\"iteration\": 1, \"stage\": 0, \"mb\": 0, \"slice\": 0, \
             \"kind\": \"meteor_strike\"}]}"
        )
        .is_err());
    }

    #[test]
    fn fault_plan_matches_exact_sites_only() {
        let site = FaultSite { iteration: 1, stage: 0, mb: 1, slice: 2 };
        let plan = FaultPlan::single(site, FaultKind::StagePanic);
        assert_eq!(plan.at(1, 0, 1, 2).count(), 1);
        assert_eq!(plan.at(0, 0, 1, 2).count(), 0);
        assert_eq!(plan.at(1, 1, 1, 2).count(), 0);
        assert_eq!(plan.at(1, 0, 0, 2).count(), 0);
        assert_eq!(plan.at(1, 0, 1, 1).count(), 0);
    }
}
