//! Cache-blocked, packed, register-tiled GEMM — one kernel shared by the
//! three orientations the backward pass needs, plus the steady-state
//! machinery the training loop leans on: a **persistent packed-weight
//! cache** and **fused prologues/epilogues**.
//!
//! Layout follows the classic GotoBLAS/BLIS decomposition: `NC`-wide column
//! panels × `KC`-deep rank updates, with B packed into `nr`-column slivers
//! and A packed per `MC`-row block into `MR`-row slivers, both k-major and
//! zero-padded to full sliver width. The innermost `MR×nr` micro-kernel
//! accumulates into a register tile over fixed-size array chunks, so LLVM
//! keeps the accumulators in vector registers and the inner loop
//! autovectorizes. Two widths exist: the original `8×8` tile and a wider
//! `8×16` tile (two 8-lane rows / one AVX-512 vector per row) selected by
//! [`kernel_nr`] — results are bit-identical across widths because each C
//! element's k-accumulation order never changes.
//!
//! **Packed-weight cache.** Weight matrices are the *same* operand for all
//! `S × M` microbatch-slice GEMM calls of a training step, so re-packing
//! them per call is pure redundant memory traffic. [`PackedMat`] packs a
//! weight once into pool-backed, 64-byte-aligned panels (`pack_nn` for the
//! forward `A·W` orientation, `pack_nt` for the backward `dY·Wᵀ`), and
//! [`PackedWeight`] bundles a weight tensor with both packed forms,
//! keeping them in sync through in-place [`PackedWeight::axpy`] optimizer
//! updates — the steady state performs **zero** weight packs, which
//! [`gemm_packs_per_step`] makes testable. Fused entry points taking a
//! `PackedMat` always run the blocked kernel: the small-size fallback
//! exists to amortise packing overhead, and a cached pack has none.
//!
//! **Fused prologue/epilogue.** The [`Prologue`] maps A elements during
//! `pack_a` — RMSNorm's `(x·inv_rms)·gain` scaling and SwiGLU's
//! `silu(gate)·up` product, in the exact elementwise order the standalone
//! `rmsnorm`/`swiglu` kernels use, so fused and unfused compositions are
//! bit-identical. The [`Epilogue`] applies on the register tile at
//! writeback (`C = A·B + X` residual adds), and the `*_acc` variants
//! accumulate straight into a caller tensor (`C += A·B`, the gradient
//! shape) — removing the separate full-tensor `add`/`swiglu::forward`
//! passes around every GEMM in the layer hot loop.
//!
//! Orientations are expressed as strided *views* feeding the pack step:
//! `A·B`, `A·Bᵀ` (`dX = dY·Wᵀ`, attention scores `Q·Kᵀ`) and `Aᵀ·B`
//! (`dW = Xᵀ·dY`) all run the identical blocked kernel. Work is
//! parallelized over `MC`-row output blocks (disjoint row ranges of C),
//! dispatched as row-block tasks onto the persistent worker pool behind the
//! `rayon` shim — no threads are spawned per call — and every buffer — the
//! output, the pack panels, the per-task pack blocks — comes from the
//! [`crate::pool`], so steady-state calls allocate nothing. Each C
//! element's accumulation order is fixed by the `pc` loop regardless of
//! which worker runs which row block, so results are bit-identical across
//! thread counts.
//!
//! Unpacked matrices smaller than [`SMALL_GEMM_FLOPS`] take a branch-free
//! orientation-specific loop instead: at executor scale (hidden ≈ 32) the
//! packing overhead would dominate. The small loops accumulate each C
//! element in the same ascending-k order as the blocked kernel, so packed
//! and unpacked paths agree bit-for-bit at every size.

use crate::ops::silu;
use crate::pool;
use crate::shared::SyncSliceMut;
use crate::tensor::Tensor;
use rayon::prelude::*;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Micro-tile rows (register blocking).
const MR: usize = 8;
/// Narrow micro-tile width: one AVX2 vector of accumulators per row.
const NR_NARROW: usize = 8;
/// Wide micro-tile width: two 8-lane rows (one AVX-512 vector) per row.
const NR_WIDE: usize = 16;
/// Rows per parallel task block (multiple of `MR`; A block is MC×KC ≈ 64 KiB).
const MC: usize = 64;
/// Rank-update depth (B sliver stays L1-resident; k ≤ 512 runs as a single
/// rank update so each C tile is written once).
const KC: usize = 512;
/// Column panel width (B panel ≈ KC×NC ≈ 2 MiB, L2/L3-resident; a multiple
/// of both micro-kernel widths).
const NC: usize = 2048;

/// Below this `m·n·k` product the blocked kernel's packing overhead
/// dominates and a direct loop wins — for *unpacked* operands only; packed
/// weights skip the pack and always take the blocked kernel.
const SMALL_GEMM_FLOPS: usize = 1 << 18;

/// Work (in multiply-adds) under which a GEMM stays on the calling thread.
const PAR_GEMM_FLOPS: usize = 1 << 21;

// ---- micro-kernel width selection ----

/// `0` = unresolved (read `SLIMPIPE_GEMM_NR` on first use).
static KERNEL_NR: AtomicUsize = AtomicUsize::new(0);

/// Default micro-kernel width: `8×16` on AVX-512 hosts (one zmm of
/// accumulators per row, explicit intrinsics), `8×8` elsewhere — a 16-wide
/// tile needs more accumulator registers than narrower ISAs have, and the
/// autovectorized fallback spills.
fn default_nr() -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        return NR_WIDE;
    }
    NR_NARROW
}

/// Current micro-kernel width (8 or 16). First use resolves the
/// `SLIMPIPE_GEMM_NR` environment variable; invalid values fall back to
/// the default. Both widths produce bit-identical results — the switch
/// exists for tuning and for the conformance matrix.
pub fn kernel_nr() -> usize {
    match KERNEL_NR.load(Ordering::Relaxed) {
        0 => {
            let nr = std::env::var("SLIMPIPE_GEMM_NR")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n == NR_NARROW || *n == NR_WIDE)
                .unwrap_or_else(default_nr);
            KERNEL_NR.store(nr, Ordering::Relaxed);
            nr
        }
        n => n,
    }
}

/// Force the micro-kernel width process-wide (8 or 16).
pub fn set_kernel_nr(nr: usize) {
    assert!(nr == NR_NARROW || nr == NR_WIDE, "kernel width must be 8 or 16");
    KERNEL_NR.store(nr, Ordering::Relaxed);
}

/// Run `f` under a forced micro-kernel width, restoring the previous one
/// even if `f` panics (tests assert inside these closures; a failing one
/// must not leave the process-global width forced for later tests).
pub fn with_kernel_nr<T>(nr: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            KERNEL_NR.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(kernel_nr());
    set_kernel_nr(nr);
    f()
}

// ---- weight-pack accounting ----

// The pack total lives in the unified observability registry
// (`slimpipe_obs::counters::WEIGHT_PACKS`); the epoch mark is local — it
// snapshots the registry value at the top of each step.
static PACK_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Total [`PackedMat`] pack operations since process start. Per-call
/// activation packing inside the GEMM does **not** count — this meters the
/// weight packs the persistent cache exists to eliminate. Thin shim over
/// `slimpipe_obs::counters::WEIGHT_PACKS`.
pub fn weight_packs_total() -> u64 {
    slimpipe_obs::counters::WEIGHT_PACKS.get()
}

/// Mark the start of a training step for [`gemm_packs_per_step`]. The
/// executor calls this at the top of every step; anything that packs after
/// the mark (it must not, in steady state) shows up in the counter.
pub fn begin_pack_epoch() {
    PACK_EPOCH.store(weight_packs_total(), Ordering::Relaxed);
}

/// Weight packs since the last [`begin_pack_epoch`] — the steady-state
/// training invariant is that this reads **zero**: weights pack once at
/// build time and stay packed (optimizer updates are applied in place by
/// [`PackedWeight::axpy`]), so none of the `S × M` GEMM calls per step
/// re-packs anything.
pub fn gemm_packs_per_step() -> u64 {
    weight_packs_total() - PACK_EPOCH.load(Ordering::Relaxed)
}

/// Read-only strided matrix view: element `(i, j)` is
/// `data[i * rs + j * cs]`. Transposition is a stride swap.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl View<'_> {
    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

// ---- fused prologue / epilogue ----

/// Elementwise map applied to A elements *during packing* — the fusion
/// point for the cheap prologues that used to be separate full-tensor
/// passes. Every variant reproduces the standalone kernel's arithmetic
/// exactly (same operand order), so fused ≡ unfused at the bit level.
///
/// `Rows` variants index per-token state by the A row (row-major
/// activations in forward/`dX` GEMMs); `Cols` variants by the A column
/// (the `Aᵀ` views of `dW = Xᵀ·dY` GEMMs, where tokens run along k).
#[derive(Clone, Copy)]
pub enum Prologue<'a> {
    /// Identity: plain packing.
    None,
    /// RMSNorm fused on a row-major activation:
    /// `a'[i,p] = (a[i,p] · inv[i]) · gain[p]` — `inv` is per-row
    /// (token) inverse RMS from [`crate::rmsnorm::inv_rms`], `gain` the
    /// learned per-feature gain.
    NormRows { inv: &'a [f32], gain: &'a [f32] },
    /// RMSNorm fused on a transposed activation view:
    /// `a'[i,p] = (a[i,p] · inv[p]) · gain[i]`.
    NormCols { inv: &'a [f32], gain: &'a [f32] },
    /// SwiGLU fused on the row-major gate tensor (A **is** `gate`):
    /// `a'[i,p] = silu(a[i,p]) · up[i,p]`.
    SwigluRows { up: &'a Tensor },
    /// SwiGLU fused on the transposed gate view:
    /// `a'[i,p] = silu(a[i,p]) · up[p,i]`.
    SwigluCols { up: &'a Tensor },
}

impl Prologue<'_> {
    /// Shape-check the prologue operands against the A *view* extents
    /// (`vi` output rows, `vp` k entries) — a mis-sized `inv`/`gain`/`up`
    /// must panic at the entry point, not silently read wrong elements.
    fn validate(&self, vi: usize, vp: usize) {
        match self {
            Prologue::None => {}
            Prologue::NormRows { inv, gain } => {
                assert_eq!(inv.len(), vi, "NormRows inv length mismatch");
                assert_eq!(gain.len(), vp, "NormRows gain length mismatch");
            }
            Prologue::NormCols { inv, gain } => {
                assert_eq!(inv.len(), vp, "NormCols inv length mismatch");
                assert_eq!(gain.len(), vi, "NormCols gain length mismatch");
            }
            Prologue::SwigluRows { up } => {
                assert_eq!(up.shape(), (vi, vp), "SwigluRows up shape mismatch");
            }
            Prologue::SwigluCols { up } => {
                assert_eq!(up.shape(), (vp, vi), "SwigluCols up shape mismatch");
            }
        }
    }

    /// Map element value `x` at logical A position `(i, p)`.
    #[inline(always)]
    fn apply(&self, x: f32, i: usize, p: usize) -> f32 {
        match self {
            Prologue::None => x,
            Prologue::NormRows { inv, gain } => (x * inv[i]) * gain[p],
            Prologue::NormCols { inv, gain } => (x * inv[p]) * gain[i],
            Prologue::SwigluRows { up } => silu(x) * up.as_slice()[i * up.cols() + p],
            Prologue::SwigluCols { up } => silu(x) * up.as_slice()[p * up.cols() + i],
        }
    }
}

/// Elementwise op applied on the register tile at writeback, after the
/// last rank update — fuses what used to be a separate output pass.
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// Plain writeback.
    None,
    /// `C = A·B + X` — the residual add, `X` shaped like C.
    Add(&'a Tensor),
}

// ---- persistent packed weights ----

/// A weight matrix packed once into the blocked kernel's B-panel layout:
/// `nr`-column k-major slivers grouped into `(jc, pc)` panels, in a
/// pool-backed 64-byte-aligned buffer. Logically always the `(k, n)` B
/// operand of `C[m,n] = A[m,k] · B[k,n]`; the *orientation* of the
/// underlying tensor is baked in at pack time ([`PackedMat::pack_nn`] /
/// [`PackedMat::pack_nt`]), so callers never re-derive strides.
///
/// Dropping a `PackedMat` recycles its buffer into the aligned pool, so
/// rebuilt stages re-pack allocation-free.
pub struct PackedMat {
    k: usize,
    n: usize,
    nr: usize,
    data: ManuallyDrop<pool::AlignedVec>,
}

/// Packed length of a `(k, n)` B operand at sliver width `nr`.
fn packed_len(k: usize, n: usize, nr: usize) -> usize {
    let full = (n / NC) * NC * k;
    let rem = n % NC;
    full + rem.div_ceil(nr) * nr * k
}

/// Element offset of the `(jc, pc)` panel inside the packed buffer.
/// Column panels are stored jc-major; within one, `KC`-strips are
/// consecutive, each `slivers · nr · kc` long.
fn panel_offset(k: usize, n: usize, nr: usize, jc: usize, pc: usize) -> usize {
    // Every previous column panel is a full NC wide and nr divides NC.
    let prev = jc * k;
    let slivers = (n - jc).min(NC).div_ceil(nr);
    prev + slivers * nr * pc
}

impl PackedMat {
    fn pack(view: View<'_>, k: usize, n: usize) -> Self {
        let nr = kernel_nr();
        let mut data = pool::take_aligned(packed_len(k, n, nr));
        for jc in (0..n).step_by(NC) {
            let nc = (n - jc).min(NC);
            let slivers = nc.div_ceil(nr);
            for pc in (0..k).step_by(KC) {
                let kc = (k - pc).min(KC);
                let off = panel_offset(k, n, nr, jc, pc);
                pack_b(&mut data[off..off + slivers * nr * kc], view, pc, jc, kc, nc, nr);
            }
        }
        slimpipe_obs::counters::WEIGHT_PACKS.incr();
        PackedMat { k, n, nr, data: ManuallyDrop::new(data) }
    }

    /// Pack `w` as-is: the `B` of forward `C = A · W`, `W: (k, n)`.
    pub fn pack_nn(w: &Tensor) -> Self {
        Self::pack(
            View { data: w.as_slice(), rs: w.cols(), cs: 1 },
            w.rows(),
            w.cols(),
        )
    }

    /// Pack `wᵀ`: the `B` of backward `dX = dY · Wᵀ`, `W: (n, k)`.
    pub fn pack_nt(w: &Tensor) -> Self {
        Self::pack(
            View { data: w.as_slice(), rs: 1, cs: w.cols() },
            w.cols(),
            w.rows(),
        )
    }

    /// Inner (k) dimension of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output-column (n) dimension of the packed operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `(jc, pc)` panel slice, identical in layout to what a per-call
    /// `pack_b` would produce.
    fn panel(&self, jc: usize, pc: usize, kc: usize) -> &[f32] {
        let slivers = (self.n - jc).min(NC).div_ceil(self.nr);
        let off = panel_offset(self.k, self.n, self.nr, jc, pc);
        &self.data[off..off + slivers * self.nr * kc]
    }

    /// In-place `packed += alpha · G` where `g` is viewed in this pack's
    /// orientation — keeps the pack bit-identical to a fresh pack of the
    /// updated weight (`w + alpha·g` is computed with the same expression
    /// [`Tensor::axpy`] uses) without counting as a re-pack.
    fn axpy(&mut self, alpha: f32, g: View<'_>) {
        let (k, n, nr) = (self.k, self.n, self.nr);
        for jc in (0..n).step_by(NC) {
            let nc = (n - jc).min(NC);
            let slivers = nc.div_ceil(nr);
            for pc in (0..k).step_by(KC) {
                let kc = (k - pc).min(KC);
                let off = panel_offset(k, n, nr, jc, pc);
                let panel = &mut self.data[off..off + slivers * nr * kc];
                for t in 0..slivers {
                    let cols = (nc - t * nr).min(nr);
                    let base = t * kc * nr;
                    for p in 0..kc {
                        let row = &mut panel[base + p * nr..base + p * nr + cols];
                        for (c, dst) in row.iter_mut().enumerate() {
                            *dst += alpha * g.at(pc + p, jc + t * nr + c);
                        }
                    }
                }
            }
        }
    }
}

impl Drop for PackedMat {
    fn drop(&mut self) {
        // Safety: `data` is never touched again after take.
        pool::recycle_aligned(unsafe { ManuallyDrop::take(&mut self.data) });
    }
}

impl std::fmt::Debug for PackedMat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedMat(k={}, n={}, nr={})", self.k, self.n, self.nr)
    }
}

/// A weight tensor bundled with its two persistent packed forms — what a
/// layer owns instead of a bare [`Tensor`]. Packed once at build; the
/// optimizer applies updates *into* the packs ([`PackedWeight::axpy`]), so
/// the steady-state training loop never re-packs (see
/// [`gemm_packs_per_step`]).
pub struct PackedWeight {
    t: Tensor,
    nn: PackedMat,
    nt: PackedMat,
}

impl PackedWeight {
    /// Pack `t` in both GEMM orientations (2 weight packs).
    pub fn new(t: Tensor) -> Self {
        let nn = PackedMat::pack_nn(&t);
        let nt = PackedMat::pack_nt(&t);
        Self { t, nn, nt }
    }

    /// The plain weight tensor (checkpointing, comparisons, tests).
    pub fn tensor(&self) -> &Tensor {
        &self.t
    }

    /// Packed form for `C = A · W` (forward projections).
    pub fn nn(&self) -> &PackedMat {
        &self.nn
    }

    /// Packed form for `C = A · Wᵀ` (backward `dX` GEMMs).
    pub fn nt(&self) -> &PackedMat {
        &self.nt
    }

    /// Optimizer update `w += alpha · g`, applied to the tensor **and**
    /// both packed forms in place — bit-identical to re-packing the
    /// updated tensor, without the pack.
    pub fn axpy(&mut self, alpha: f32, g: &Tensor) {
        assert_eq!(self.t.shape(), g.shape(), "packed axpy shape mismatch");
        self.t.axpy(alpha, g);
        self.nn.axpy(alpha, View { data: g.as_slice(), rs: g.cols(), cs: 1 });
        self.nt.axpy(alpha, View { data: g.as_slice(), rs: 1, cs: g.cols() });
    }
}

impl Clone for PackedWeight {
    fn clone(&self) -> Self {
        Self::new(self.t.clone())
    }
}

impl std::fmt::Debug for PackedWeight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedWeight({}x{})", self.t.rows(), self.t.cols())
    }
}

// ---- pack kernels ----

/// Pack `mc×kc` of A (from `(i0, p0)`) into `MR`-row k-major slivers,
/// zero-padding the ragged last sliver, applying the fused prologue per
/// element.
fn pack_a(dst: &mut [f32], a: View<'_>, pro: &Prologue<'_>, i0: usize, p0: usize, mc: usize, kc: usize) {
    let slivers = mc.div_ceil(MR);
    for s in 0..slivers {
        let rows = (mc - s * MR).min(MR);
        let base = s * kc * MR;
        if a.cs == 1 && rows == MR {
            // Row-major A, full sliver: copy rows through slices so the
            // inner loop is contiguous loads with hoisted bounds checks.
            // The prologue match is per-row, not per-element.
            for r in 0..MR {
                let gi = i0 + s * MR + r;
                let src = &a.data[gi * a.rs + p0..][..kc];
                match pro {
                    Prologue::None => {
                        for (p, &v) in src.iter().enumerate() {
                            dst[base + p * MR + r] = v;
                        }
                    }
                    Prologue::NormRows { inv, gain } => {
                        let ir = inv[gi];
                        let g = &gain[p0..p0 + kc];
                        for (p, &v) in src.iter().enumerate() {
                            dst[base + p * MR + r] = (v * ir) * g[p];
                        }
                    }
                    Prologue::SwigluRows { up } => {
                        let u = &up.as_slice()[gi * up.cols() + p0..][..kc];
                        for (p, &v) in src.iter().enumerate() {
                            dst[base + p * MR + r] = silu(v) * u[p];
                        }
                    }
                    _ => {
                        for (p, &v) in src.iter().enumerate() {
                            dst[base + p * MR + r] = pro.apply(v, gi, p0 + p);
                        }
                    }
                }
            }
        } else {
            for p in 0..kc {
                let d = &mut dst[base + p * MR..base + (p + 1) * MR];
                for (r, dr) in d.iter_mut().enumerate() {
                    *dr = if r < rows {
                        let gi = i0 + s * MR + r;
                        pro.apply(a.at(gi, p0 + p), gi, p0 + p)
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// Pack `kc×nc` of B (from `(p0, j0)`) into `nr`-column k-major slivers,
/// zero-padding the ragged last sliver.
fn pack_b(dst: &mut [f32], b: View<'_>, p0: usize, j0: usize, kc: usize, nc: usize, nr: usize) {
    let slivers = nc.div_ceil(nr);
    for t in 0..slivers {
        let cols = (nc - t * nr).min(nr);
        let base = t * kc * nr;
        if b.cs == 1 && cols == nr {
            for p in 0..kc {
                let src = &b.data[(p0 + p) * b.rs + j0 + t * nr..][..nr];
                dst[base + p * nr..base + (p + 1) * nr].copy_from_slice(src);
            }
        } else if b.rs == 1 && cols == nr {
            // Column-strided view (a transposed row-major matrix): iterate
            // source rows so reads are contiguous; writes stride by nr.
            for (c, col) in (0..nr).map(|c| {
                (c, &b.data[(j0 + t * nr + c) * b.cs + p0..][..kc])
            }) {
                for (p, &v) in col.iter().enumerate() {
                    dst[base + p * nr + c] = v;
                }
            }
        } else {
            for p in 0..kc {
                let d = &mut dst[base + p * nr..base + (p + 1) * nr];
                for (c, dc) in d.iter_mut().enumerate() {
                    *dc = if c < cols { b.at(p0 + p, j0 + t * nr + c) } else { 0.0 };
                }
            }
        }
    }
}

// ---- micro-kernels ----

/// `MR×8` register micro-kernel: `tile = Σ_p a_sliver[p] ⊗ b_sliver[p]`.
#[inline(always)]
fn micro_kernel8(kc: usize, a: &[f32], b: &[f32], tile: &mut [f32; MR * NR_NARROW]) {
    let mut acc = [0.0f32; MR * NR_NARROW];
    for p in 0..kc {
        // Fixed-size chunks eliminate bounds checks and let LLVM hold the
        // 64 accumulators in vector registers.
        let av: &[f32; MR] = a[p * MR..p * MR + MR].try_into().unwrap();
        let bv: &[f32; NR_NARROW] = b[p * NR_NARROW..(p + 1) * NR_NARROW].try_into().unwrap();
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR_NARROW {
                acc[i * NR_NARROW + j] += ai * bv[j];
            }
        }
    }
    *tile = acc;
}

/// `MR×16` register micro-kernel — the wide tile: one AVX-512 vector of
/// accumulators per row. The autovectorizer refuses to keep a 128-float
/// accumulator tile in registers (it spills every iteration, ~10× slower
/// measured), so the AVX-512 path is written with explicit intrinsics:
/// 8 zmm accumulators, one zmm load of `b` and 8 broadcast·mul·add per
/// rank-1 update. `mul` + `add` — **not** `fmadd`: rustc never contracts
/// `x*y + z`, so fused-multiply-add would change the bits relative to the
/// scalar and 8-wide kernels, and every "bit-identical across widths"
/// guarantee with them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_kernel16_avx512(kc: usize, a: &[f32], b: &[f32], tile: &mut [f32; MR * NR_WIDE]) {
    use std::arch::x86_64::*;
    debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR_WIDE);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = [_mm512_setzero_ps(); MR];
    // Two rank-1 updates per iteration: the second b-vector load issues
    // while the first update's adds drain, hiding load latency. Ascending
    // p order per accumulator is preserved exactly.
    let mut p = 0;
    while p + 4 <= kc {
        // Safety: the pack buffers are sized to kc slivers (asserted
        // above); loads stay in bounds.
        let bv0 = _mm512_loadu_ps(bp.add(p * NR_WIDE));
        let bv1 = _mm512_loadu_ps(bp.add((p + 1) * NR_WIDE));
        let bv2 = _mm512_loadu_ps(bp.add((p + 2) * NR_WIDE));
        let bv3 = _mm512_loadu_ps(bp.add((p + 3) * NR_WIDE));
        let av = ap.add(p * MR);
        for (i, accr) in acc.iter_mut().enumerate() {
            let a0 = _mm512_set1_ps(*av.add(i));
            let a1 = _mm512_set1_ps(*av.add(MR + i));
            let a2 = _mm512_set1_ps(*av.add(2 * MR + i));
            let a3 = _mm512_set1_ps(*av.add(3 * MR + i));
            let t0 = _mm512_add_ps(*accr, _mm512_mul_ps(a0, bv0));
            let t1 = _mm512_add_ps(t0, _mm512_mul_ps(a1, bv1));
            let t2 = _mm512_add_ps(t1, _mm512_mul_ps(a2, bv2));
            *accr = _mm512_add_ps(t2, _mm512_mul_ps(a3, bv3));
        }
        p += 4;
    }
    while p + 2 <= kc {
        let bv0 = _mm512_loadu_ps(bp.add(p * NR_WIDE));
        let bv1 = _mm512_loadu_ps(bp.add((p + 1) * NR_WIDE));
        let av = ap.add(p * MR);
        for (i, accr) in acc.iter_mut().enumerate() {
            let a0 = _mm512_set1_ps(*av.add(i));
            let a1 = _mm512_set1_ps(*av.add(MR + i));
            let t = _mm512_add_ps(*accr, _mm512_mul_ps(a0, bv0));
            *accr = _mm512_add_ps(t, _mm512_mul_ps(a1, bv1));
        }
        p += 2;
    }
    if p < kc {
        let bv = _mm512_loadu_ps(bp.add(p * NR_WIDE));
        let av = ap.add(p * MR);
        for (i, accr) in acc.iter_mut().enumerate() {
            let ai = _mm512_set1_ps(*av.add(i));
            *accr = _mm512_add_ps(*accr, _mm512_mul_ps(ai, bv));
        }
    }
    for (i, v) in acc.iter().enumerate() {
        _mm512_storeu_ps(tile.as_mut_ptr().add(i * NR_WIDE), *v);
    }
}

/// Portable 16-wide kernel (non-AVX-512 hosts). Same arithmetic order as
/// the intrinsic path: `acc = acc + a_i · b_vec`, ascending `p`.
fn micro_kernel16_scalar(kc: usize, a: &[f32], b: &[f32], tile: &mut [f32; MR * NR_WIDE]) {
    let mut acc = [0.0f32; MR * NR_WIDE];
    for p in 0..kc {
        let av: &[f32; MR] = a[p * MR..p * MR + MR].try_into().unwrap();
        let bv: &[f32; NR_WIDE] = b[p * NR_WIDE..(p + 1) * NR_WIDE].try_into().unwrap();
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR_WIDE {
                acc[i * NR_WIDE + j] += ai * bv[j];
            }
        }
    }
    *tile = acc;
}

/// Resolve the wide kernel's SIMD dispatch once per block, not per tile —
/// the feature check is a cached atomic load, but the micro-kernel runs
/// millions of times per step and doesn't need to repeat it.
#[inline(always)]
fn wide_simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[inline(always)]
fn micro_kernel16(kc: usize, a: &[f32], b: &[f32], tile: &mut [f32; MR * NR_WIDE], simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // Safety: `simd` is wide_simd_available(), i.e. avx512f detected.
        unsafe { micro_kernel16_avx512(kc, a, b, tile) };
        return;
    }
    let _ = simd;
    micro_kernel16_scalar(kc, a, b, tile)
}

// ---- blocked kernel core ----

/// The B operand: a strided view (packed per `(jc, pc)` panel on the
/// fly) or a persistent pre-packed weight.
#[derive(Clone, Copy)]
enum BOperand<'a> {
    View(View<'a>),
    Packed(&'a PackedMat),
}

/// One `MC`-row block's worth of rank-`kc` update: pack A, run the micro
/// tiles, write/accumulate into the block's rows of C, applying the
/// epilogue on the final strip.
#[allow(clippy::too_many_arguments)]
fn block_update(
    cblock: &mut [f32],
    n: usize,
    a: View<'_>,
    pro: &Prologue<'_>,
    apack: &mut [f32],
    bpack: &[f32],
    nr: usize,
    i0: usize,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    first_strip: bool,
    last_strip: bool,
    epi: &Epilogue<'_>,
) {
    let mc = cblock.len() / n;
    pack_a(apack, a, pro, i0, pc, mc, kc);
    let simd = wide_simd_available();
    let mut tile8 = [0.0f32; MR * NR_NARROW];
    let mut tile16 = [0.0f32; MR * NR_WIDE];
    for jr in 0..nc.div_ceil(nr) {
        let nr_eff = (nc - jr * nr).min(nr);
        let bsl = &bpack[jr * kc * nr..][..kc * nr];
        for ir in 0..mc.div_ceil(MR) {
            let mr_eff = (mc - ir * MR).min(MR);
            let asl = &apack[ir * kc * MR..][..kc * MR];
            let tile: &[f32] = if nr == NR_WIDE {
                micro_kernel16(kc, asl, bsl, &mut tile16, simd);
                &tile16
            } else {
                micro_kernel8(kc, asl, bsl, &mut tile8);
                &tile8
            };
            for i in 0..mr_eff {
                let gi = i0 + ir * MR + i;
                let crow = &mut cblock[(ir * MR + i) * n + jc + jr * nr..][..nr_eff];
                let trow = &tile[i * nr..i * nr + nr_eff];
                let xrow = match (last_strip, epi) {
                    (true, Epilogue::Add(x)) => {
                        Some(&x.as_slice()[gi * n + jc + jr * nr..][..nr_eff])
                    }
                    _ => None,
                };
                // One tight loop per writeback mode — no per-element
                // branching.
                match (first_strip, xrow) {
                    (true, None) => crow.copy_from_slice(trow),
                    (false, None) => {
                        for (cj, tj) in crow.iter_mut().zip(trow) {
                            *cj += tj;
                        }
                    }
                    (true, Some(x)) => {
                        for ((cj, tj), xj) in crow.iter_mut().zip(trow).zip(x) {
                            *cj = tj + xj;
                        }
                    }
                    (false, Some(x)) => {
                        for ((cj, tj), xj) in crow.iter_mut().zip(trow).zip(x) {
                            *cj = (*cj + tj) + xj;
                        }
                    }
                }
            }
        }
    }
}

/// The shared blocked kernel. With `overwrite` the prior contents of `c`
/// are ignored (the first rank update writes); without, strips accumulate
/// into what `c` already holds (`C += A·B`, the gradient shape).
#[allow(clippy::too_many_arguments)]
fn gemm_core(
    m: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    pro: &Prologue<'_>,
    b: BOperand<'_>,
    epi: &Epilogue<'_>,
    c: &mut [f32],
    overwrite: bool,
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // A·B is all-zero; honour the contract anyway.
        if overwrite {
            c.fill(0.0);
        }
        if let Epilogue::Add(x) = epi {
            for (cj, xj) in c.iter_mut().zip(x.as_slice()) {
                *cj += xj;
            }
        }
        return;
    }
    let nr = match b {
        BOperand::Packed(pm) => {
            assert_eq!(pm.k, k, "packed inner dimension mismatch");
            assert_eq!(pm.n, n, "packed output dimension mismatch");
            pm.nr
        }
        BOperand::View(_) => kernel_nr(),
    };
    let n_blocks = m.div_ceil(MC);
    let parallel = m.saturating_mul(n).saturating_mul(k) >= PAR_GEMM_FLOPS
        && n_blocks > 1
        && rayon::current_num_threads() > 1;
    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            let first = overwrite && pc == 0;
            let last = pc + kc == k;
            // Pack buffers come from the pool on the calling thread only,
            // keeping workers allocation-free and pool counters
            // deterministic. Persistent packs skip this entirely.
            let mut bscratch: Option<Vec<f32>> = None;
            let bpack: &[f32] = match b {
                BOperand::Packed(pm) => pm.panel(jc, pc, kc),
                BOperand::View(v) => {
                    let mut buf = pool::take_raw(nc.div_ceil(nr) * nr * kc);
                    pack_b(&mut buf, v, pc, jc, kc, nc, nr);
                    bscratch = Some(buf);
                    bscratch.as_deref().unwrap()
                }
            };
            // Parallel tasks each need a private A block; the sequential
            // path packs and consumes one block at a time, so a single
            // block's worth of scratch suffices.
            let apack_blocks = if parallel { n_blocks } else { 1 };
            let mut apack = pool::take_raw(apack_blocks * MC * kc);
            if parallel {
                let ascratch = SyncSliceMut::new(&mut apack);
                c.par_chunks_mut(MC * n).enumerate().for_each(|(blk, cblock)| {
                    // Safety: one exclusive range per block index.
                    let ap = unsafe { ascratch.range_mut(blk * MC * kc, MC * kc) };
                    block_update(
                        cblock, n, a, pro, ap, bpack, nr, blk * MC, pc, jc, kc, nc, first,
                        last, epi,
                    );
                });
            } else {
                for (blk, cblock) in c.chunks_mut(MC * n).enumerate() {
                    block_update(
                        cblock, n, a, pro, &mut apack, bpack, nr, blk * MC, pc, jc, kc, nc,
                        first, last, epi,
                    );
                }
            }
            pool::recycle(apack);
            if let Some(buf) = bscratch {
                pool::recycle(buf);
            }
        }
    }
}

/// Blocked GEMM into a fresh pooled output.
fn gemm(m: usize, n: usize, k: usize, a: View<'_>, b: View<'_>) -> Tensor {
    if k == 0 {
        return Tensor::zeros_pooled(m, n);
    }
    // The first rank update writes every element, so the buffer may start
    // with arbitrary recycled contents.
    let mut c = Tensor::uninit_pooled(m, n);
    gemm_core(m, n, k, a, &Prologue::None, BOperand::View(b), &Epilogue::None, c.as_mut_slice(), true);
    c
}

/// `C = A · B` with `A: (m, k)`, `B: (k, n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    if m * n * k < SMALL_GEMM_FLOPS {
        return small_nn(a, b);
    }
    gemm(
        m,
        n,
        k,
        View { data: a.as_slice(), rs: k, cs: 1 },
        View { data: b.as_slice(), rs: n, cs: 1 },
    )
}

/// `C = A · Bᵀ` with `A: (m, k)`, `B: (n, k)` — the orientation of
/// `dX = dY · Wᵀ` and of attention scores `Q · Kᵀ`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.cols(), "matmul_nt inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.rows();
    if m * n * k < SMALL_GEMM_FLOPS {
        return small_nt(a, b);
    }
    gemm(
        m,
        n,
        k,
        View { data: a.as_slice(), rs: k, cs: 1 },
        // Bᵀ element (p, j) = B[j, p] = data[j*k + p]: stride swap.
        View { data: b.as_slice(), rs: 1, cs: k },
    )
}

/// `C = Aᵀ · B` with `A: (k, m)`, `B: (k, n)` — the orientation of
/// `dW = Xᵀ · dY` (weight gradients).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rows(), b.rows(), "matmul_tn inner dimension mismatch");
    let (k, m) = a.shape();
    let n = b.cols();
    if m * n * k < SMALL_GEMM_FLOPS {
        return small_tn(a, b);
    }
    gemm(
        m,
        n,
        k,
        // Aᵀ element (i, p) = A[p, i] = data[p*m + i]: stride swap.
        View { data: a.as_slice(), rs: 1, cs: m },
        View { data: b.as_slice(), rs: n, cs: 1 },
    )
}

// ---- fused / packed entry points (always the blocked kernel) ----

/// `C = pro(A) · B` against a persistent pack, with a fused epilogue:
/// the workhorse of the layer forward (`A` row-major `(m, k)`, `B`'s
/// orientation baked into the pack). No small-size fallback: the cached
/// pack removes the overhead the fallback exists to dodge.
pub fn matmul_fused(a: &Tensor, b: &PackedMat, pro: Prologue<'_>, epi: Epilogue<'_>) -> Tensor {
    assert_eq!(a.cols(), b.k, "matmul_fused inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.n;
    pro.validate(m, k);
    if let Epilogue::Add(x) = &epi {
        assert_eq!(x.shape(), (m, n), "epilogue operand shape mismatch");
    }
    let mut c = if k == 0 { Tensor::zeros_pooled(m, n) } else { Tensor::uninit_pooled(m, n) };
    gemm_core(
        m,
        n,
        k,
        View { data: a.as_slice(), rs: k, cs: 1 },
        &pro,
        BOperand::Packed(b),
        &epi,
        c.as_mut_slice(),
        true,
    );
    c
}

/// `C += A · B` against a persistent pack — the `d_normed` accumulation
/// shape of the layer backward. Bit-identical to
/// `c.add_assign_recycle(matmul_fused(a, b, ..))` at every size: below
/// `KC` the single rank update accumulates in the same element order, and
/// past `KC` the fallback literally is that composition. (Packed GEMMs
/// are always blocked, so past-`KC` shapes associate the k-sum per
/// `KC`-strip — like any blocked GEMM at that depth.)
pub fn matmul_fused_acc(c: &mut Tensor, a: &Tensor, b: &PackedMat) {
    assert_eq!(a.cols(), b.k, "matmul_fused_acc inner dimension mismatch");
    let (m, k) = a.shape();
    assert_eq!(c.shape(), (m, b.n), "accumulator shape mismatch");
    if k > KC {
        let t = matmul_fused(a, b, Prologue::None, Epilogue::None);
        c.add_assign_recycle(t);
        return;
    }
    let n = b.n;
    gemm_core(
        m,
        n,
        k,
        View { data: a.as_slice(), rs: k, cs: 1 },
        &Prologue::None,
        BOperand::Packed(b),
        &Epilogue::None,
        c.as_mut_slice(),
        false,
    );
}

/// `C += pro(Aᵀ) · B` with `A: (k, m)`, `B: (k, n)` unpacked — the weight
/// gradient accumulation `dW += Xᵀ · dY`, with the activation recompute
/// (RMSNorm / SwiGLU) fused into the A pack. Bit-identical to the
/// separate-pass composition (materialised prologue + `matmul_tn` +
/// `add_assign`) at **every** size: below `KC` the single rank update
/// accumulates into `c` in the same element order, and past `KC` the
/// fallback literally *is* that composition — it materialises the mapped
/// A and reuses the thresholded [`matmul_tn`], so the k-summation
/// associates exactly as the unfused path would (small loop or blocked,
/// whichever the shape picks).
pub fn matmul_tn_acc(c: &mut Tensor, a: &Tensor, b: &Tensor, pro: Prologue<'_>) {
    assert_eq!(a.rows(), b.rows(), "matmul_tn_acc inner dimension mismatch");
    let (k, m) = a.shape();
    let n = b.cols();
    assert_eq!(c.shape(), (m, n), "accumulator shape mismatch");
    pro.validate(m, k);
    if k > KC {
        let t = match &pro {
            Prologue::None => matmul_tn(a, b),
            _ => {
                // a'[r, c] = pro(a[r, c]) in view coords (i = column,
                // p = row) — exactly what rmsnorm/swiglu forward produce.
                let mut mapped = Tensor::uninit_pooled(k, m);
                for r in 0..k {
                    let (src, dst) = (a.row(r), mapped.row_mut(r));
                    for (c2, (d, &s)) in dst.iter_mut().zip(src).enumerate() {
                        *d = pro.apply(s, c2, r);
                    }
                }
                let t = matmul_tn(&mapped, b);
                mapped.recycle();
                t
            }
        };
        c.add_assign_recycle(t);
        return;
    }
    let at = View { data: a.as_slice(), rs: 1, cs: m };
    let bv = View { data: b.as_slice(), rs: n, cs: 1 };
    gemm_core(m, n, k, at, &pro, BOperand::View(bv), &Epilogue::None, c.as_mut_slice(), false);
}

// ---- direct loops for executor-scale (tiny) unpacked matrices ----

fn small_nn(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Tensor::zeros_pooled(m, n);
    let bs = b.as_slice();
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = c.row_mut(i);
        for (kk, &aik) in a_row.iter().enumerate().take(k) {
            let b_row = &bs[kk * n..(kk + 1) * n];
            for (o, bb) in out_row.iter_mut().zip(b_row) {
                *o += aik * bb;
            }
        }
    }
    c
}

fn small_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, _) = a.shape();
    let n = b.rows();
    let mut c = Tensor::uninit_pooled(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = c.row_mut(i);
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for (x, y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o = acc;
        }
    }
    c
}

fn small_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = a.shape();
    let n = b.cols();
    let mut c = Tensor::zeros_pooled(m, n);
    let bs = b.as_slice();
    let cs = c.as_mut_slice();
    for kk in 0..k {
        let a_row = a.row(kk);
        let b_row = &bs[kk * n..(kk + 1) * n];
        for (i, &aki) in a_row.iter().enumerate().take(m) {
            let out_row = &mut cs[i * n..(i + 1) * n];
            for (o, bb) in out_row.iter_mut().zip(b_row) {
                *o += aki * bb;
            }
        }
    }
    c
}

// ---- chunk-sized strided tile GEMM (the attention kernels' entry) ----

/// Read-only strided operand view for [`gemm_tile`]: element `(i, j)` is
/// `data[i * rs + j * cs]`. Transposition is a stride swap, exactly like
/// the internal blocked-kernel views — this is the public face attention
/// uses to aim head bands of `Q`/`K`/`V`/`dO` (and score/probability
/// scratch) at the micro-kernel without copying.
#[derive(Clone, Copy)]
pub struct TileView<'a> {
    pub data: &'a [f32],
    pub rs: usize,
    pub cs: usize,
}

/// Writeback mode of [`gemm_tile`].
#[derive(Clone, Copy)]
pub enum TileWrite {
    /// `C = T`.
    Assign,
    /// `C += T` — the `dQ`/`dK`/`dV`/`O`-accumulator shapes.
    Accumulate,
    /// `C = T · scale`, with the causal mask folded into the writeback:
    /// entry `(i, j)` whose global key position `kv_offset + j` exceeds its
    /// global query position `q_base + i` becomes `-inf` — the score-tile
    /// epilogue, producing a dense *masked* score tile in one pass.
    ScaledCausal { scale: f32, q_base: usize, kv_offset: usize },
}

/// Pack-scratch length [`gemm_tile`] needs for an `m×n×k` tile, sized for
/// the widest micro-kernel so one buffer serves both `SLIMPIPE_GEMM_NR`
/// regimes.
pub fn gemm_tile_scratch_len(m: usize, n: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k + n.div_ceil(NR_WIDE) * NR_WIDE * k
}

/// Chunk-sized strided GEMM through the shared register micro-kernel:
/// `C (op)= A·B` with strided operand views, a strided C (row stride
/// `c_rs`), and the causal score mask available as a writeback epilogue.
///
/// This is the blocked kernel stripped to what attention tiles need: no
/// `NC`/`KC` panel machinery (tiles are chunk-sized by construction —
/// `k ≤ KC` is asserted, one rank update per element), no parallel
/// dispatch (the *caller's* task fan-out is the parallelism), and no pool
/// traffic — pack scratch comes from the caller
/// ([`gemm_tile_scratch_len`]), so attention workers keep the
/// workers-never-touch-the-pool discipline. Each C element accumulates its
/// k-chain in ascending order inside one micro-tile, so results are
/// bit-identical across `SLIMPIPE_GEMM_NR` widths and thread counts.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tile(
    m: usize,
    n: usize,
    k: usize,
    a: TileView<'_>,
    b: TileView<'_>,
    c: &mut [f32],
    c_rs: usize,
    mode: TileWrite,
    scratch: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(k <= KC, "gemm_tile is a single rank update (k ≤ {KC})");
    assert!(c_rs >= n, "gemm_tile C row stride below row width");
    assert!(c.len() >= (m - 1) * c_rs + n, "gemm_tile C slice too short");
    let nr = kernel_nr();
    let a_slivers = m.div_ceil(MR);
    let b_slivers = n.div_ceil(nr);
    let (apack, rest) = scratch.split_at_mut(a_slivers * MR * k);
    let bpack = &mut rest[..b_slivers * nr * k];
    pack_a(apack, View { data: a.data, rs: a.rs, cs: a.cs }, &Prologue::None, 0, 0, m, k);
    pack_b(bpack, View { data: b.data, rs: b.rs, cs: b.cs }, 0, 0, k, n, nr);
    let simd = wide_simd_available();
    let mut tile8 = [0.0f32; MR * NR_NARROW];
    let mut tile16 = [0.0f32; MR * NR_WIDE];
    for jr in 0..b_slivers {
        let nr_eff = (n - jr * nr).min(nr);
        let bsl = &bpack[jr * k * nr..][..k * nr];
        for ir in 0..a_slivers {
            let mr_eff = (m - ir * MR).min(MR);
            let asl = &apack[ir * k * MR..][..k * MR];
            let tile: &[f32] = if nr == NR_WIDE {
                micro_kernel16(k, asl, bsl, &mut tile16, simd);
                &tile16
            } else {
                micro_kernel8(k, asl, bsl, &mut tile8);
                &tile8
            };
            for i in 0..mr_eff {
                let gi = ir * MR + i;
                let crow = &mut c[gi * c_rs + jr * nr..][..nr_eff];
                let trow = &tile[i * nr..i * nr + nr_eff];
                match mode {
                    TileWrite::Assign => crow.copy_from_slice(trow),
                    TileWrite::Accumulate => {
                        for (cj, tj) in crow.iter_mut().zip(trow) {
                            *cj += tj;
                        }
                    }
                    TileWrite::ScaledCausal { scale, q_base, kv_offset } => {
                        // Keys at global positions ≤ the row's query
                        // position are visible; the rest of the row is
                        // masked to -inf.
                        let vis = (q_base + gi + 1)
                            .saturating_sub(kv_offset + jr * nr)
                            .min(nr_eff);
                        for (cj, tj) in crow[..vis].iter_mut().zip(trow) {
                            *cj = tj * scale;
                        }
                        crow[vis..].fill(f32::NEG_INFINITY);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_uniform;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at(i, kk) * b.at(kk, j);
                }
                *c.at_mut(i, j) = acc;
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let a = seeded_uniform(17, 13, 1);
        let b = seeded_uniform(13, 9, 2);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&naive(&a, &b)) < 1e-4);
    }

    #[test]
    fn nt_is_b_transposed() {
        let a = seeded_uniform(11, 7, 3);
        let b = seeded_uniform(5, 7, 4);
        let c = matmul_nt(&a, &b);
        assert!(c.max_abs_diff(&matmul(&a, &b.transposed())) < 1e-4);
    }

    #[test]
    fn tn_is_a_transposed() {
        let a = seeded_uniform(7, 11, 5);
        let b = seeded_uniform(7, 5, 6);
        let c = matmul_tn(&a, &b);
        assert!(c.max_abs_diff(&matmul(&a.transposed(), &b)) < 1e-4);
    }

    #[test]
    fn identity_is_noop() {
        let a = seeded_uniform(6, 6, 7);
        let mut eye = Tensor::zeros(6, 6);
        for i in 0..6 {
            *eye.at_mut(i, i) = 1.0;
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn block_boundary_sizes() {
        // Exercise sizes around the parallel block boundary.
        for m in [1usize, 7, 8, 9, 16, 17] {
            let a = seeded_uniform(m, 3, m as u64);
            let b = seeded_uniform(3, 2, 100 + m as u64);
            assert!(matmul(&a, &b).max_abs_diff(&naive(&a, &b)) < 1e-4, "m={m}");
        }
    }

    /// Sizes that force the blocked path and straddle every tile edge:
    /// exact multiples, one-off remainders, and primes.
    #[test]
    fn tiled_path_matches_naive_across_tile_edges() {
        for &(m, k, n) in &[
            (MC, KC, NC.min(128)),          // exact tile multiples
            (MC + 1, KC + 1, 65),           // one past each boundary
            (127, 131, 67),                 // primes
            (MR, 1 << 15, MR),              // deep k, minimal m/n
            (3 * MC + 5, KC / 2 + 3, 96),   // mixed remainders
        ] {
            let a = seeded_uniform(m, k, (m * k) as u64);
            let b = seeded_uniform(k, n, (k * n + 1) as u64);
            assert!(
                m * n * k >= SMALL_GEMM_FLOPS,
                "({m},{k},{n}) must exercise the blocked path"
            );
            let got = matmul(&a, &b);
            let want = naive(&a, &b);
            // Tolerance scales with k (different summation order).
            let tol = 1e-6 * (k as f32).sqrt() * 8.0;
            assert!(
                got.max_abs_diff(&want) < tol,
                "({m},{k},{n}): diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    /// The blocked kernel must agree across orientations too.
    #[test]
    fn tiled_orientations_agree() {
        let (m, k, n) = (100, 150, 90);
        let a = seeded_uniform(m, k, 41);
        let b = seeded_uniform(k, n, 42);
        let c = matmul(&a, &b);
        assert!(matmul_nt(&a, &b.transposed()).max_abs_diff(&c) < 1e-4);
        assert!(matmul_tn(&a.transposed(), &b).max_abs_diff(&c) < 1e-4);
    }

    /// Forced multi-thread execution must be bit-identical to sequential:
    /// each C element's accumulation order is fixed by the pc-loop, not by
    /// thread interleaving.
    #[test]
    fn parallel_execution_is_bit_deterministic() {
        let a = seeded_uniform(200, 300, 50);
        let b = seeded_uniform(300, 110, 51);
        let seq = rayon::with_num_threads(1, || matmul(&a, &b));
        let par = rayon::with_num_threads(4, || matmul(&a, &b));
        assert_eq!(seq, par);
    }

    /// Both micro-kernel widths produce the same bits: the per-element
    /// k-accumulation order is independent of the column tiling.
    #[test]
    fn kernel_widths_are_bit_identical() {
        let a = seeded_uniform(70, 130, 60);
        let b = seeded_uniform(130, 90, 61);
        let narrow = with_kernel_nr(8, || matmul(&a, &b));
        let wide = with_kernel_nr(16, || matmul(&a, &b));
        assert_eq!(narrow, wide);
    }

    /// The persistent pack is just a relayout: packed GEMMs must equal the
    /// unpacked path bit-for-bit in both orientations and at both widths —
    /// including **tiny** shapes, where the packed path takes the blocked
    /// kernel while the unpacked path uses the small-size fallback (the
    /// stale-threshold regression this guards).
    #[test]
    fn packed_matches_unpacked_bitwise_at_every_size() {
        for nr in [8usize, 16] {
            with_kernel_nr(nr, || {
                for &(m, k, n) in &[
                    (1usize, 1usize, 1usize),
                    (2, 3, 4),
                    (5, 8, 16),
                    (16, 32, 24),       // executor scale
                    (17, 33, 23),       // ragged executor scale
                    (100, 150, 90),     // blocked on both paths
                ] {
                    let a = seeded_uniform(m, k, (m * k + nr) as u64);
                    let w = seeded_uniform(k, n, (k * n + nr) as u64);
                    let packed = PackedMat::pack_nn(&w);
                    let got = matmul_fused(&a, &packed, Prologue::None, Epilogue::None);
                    assert_eq!(got, matmul(&a, &w), "nn ({m},{k},{n}) nr={nr}");

                    let wt = seeded_uniform(n, k, (n * k + 3) as u64);
                    let packed_t = PackedMat::pack_nt(&wt);
                    let got = matmul_fused(&a, &packed_t, Prologue::None, Epilogue::None);
                    assert_eq!(got, matmul_nt(&a, &wt), "nt ({m},{k},{n}) nr={nr}");
                }
            });
        }
    }

    /// In-place packed axpy must equal a fresh pack of the updated weight.
    #[test]
    fn packed_axpy_tracks_fresh_pack_bitwise() {
        let w = seeded_uniform(33, 70, 77);
        let g = seeded_uniform(33, 70, 78);
        let mut pw = PackedWeight::new(w.clone());
        pw.axpy(-0.05, &g);
        let mut fresh = w.clone();
        fresh.axpy(-0.05, &g);
        assert_eq!(pw.tensor(), &fresh);
        let a = seeded_uniform(19, 33, 79);
        assert_eq!(
            matmul_fused(&a, pw.nn(), Prologue::None, Epilogue::None),
            matmul_fused(&a, PackedWeight::new(fresh.clone()).nn(), Prologue::None, Epilogue::None),
            "nn pack diverged from fresh pack after axpy"
        );
        let d = seeded_uniform(19, 70, 80);
        assert_eq!(
            matmul_fused(&d, pw.nt(), Prologue::None, Epilogue::None),
            matmul_fused(&d, PackedWeight::new(fresh).nt(), Prologue::None, Epilogue::None),
            "nt pack diverged from fresh pack after axpy"
        );
    }

    /// The fused accumulate entry points must be bit-identical to their
    /// separate-pass compositions at **every** size — including the
    /// `k > KC` window whose `m·n·k` sits below the small-GEMM threshold
    /// (n = 7 keeps `33·7·549` under it), where the unfused comparator
    /// takes the single-chain small loop and the fallback must follow it.
    #[test]
    fn acc_variants_match_separate_add_bitwise() {
        for k in [7usize, 40, KC, KC + 37] {
            let a = seeded_uniform(k, 33, k as u64);
            let b = seeded_uniform(k, 7, 1 + k as u64);
            let mut fused = seeded_uniform(33, 7, 2);
            let mut unfused = fused.clone();
            matmul_tn_acc(&mut fused, &a, &b, Prologue::None);
            unfused.add_assign_recycle(matmul_tn(&a, &b));
            assert_eq!(fused, unfused, "tn_acc k={k}");

            // With a fused RMSNorm prologue: the comparator materialises
            // the norm, exactly as the executor's PR 3 path did.
            let gain: Vec<f32> = (0..33).map(|i| 0.9 + 0.01 * i as f32).collect();
            let inv = crate::rmsnorm::inv_rms(&a);
            let mut f2 = seeded_uniform(33, 7, 3);
            let mut u2 = f2.clone();
            matmul_tn_acc(&mut f2, &a, &b, Prologue::NormCols { inv: &inv, gain: &gain });
            pool::recycle(inv);
            let normed = crate::rmsnorm::forward(&a, &gain);
            u2.add_assign_recycle(matmul_tn(&normed, &b));
            normed.recycle();
            assert_eq!(f2, u2, "tn_acc norm k={k}");

            // Packed accumulate vs its documented comparator (packed
            // temp + add): exact at any size.
            let w = seeded_uniform(21, k, 3 + k as u64);
            let d = seeded_uniform(14, k, 4 + k as u64);
            let packed = PackedMat::pack_nt(&w);
            let mut facc = seeded_uniform(14, 21, 5);
            let mut uacc = facc.clone();
            matmul_fused_acc(&mut facc, &d, &packed);
            uacc.add_assign_recycle(matmul_fused(&d, &packed, Prologue::None, Epilogue::None));
            assert_eq!(facc, uacc, "fused_acc k={k}");
        }
    }

    /// Weight-pack accounting: packs count, in-place axpy does not.
    #[test]
    fn pack_counters_track_packs_not_updates() {
        let before = weight_packs_total();
        let w = seeded_uniform(16, 16, 90);
        let mut pw = PackedWeight::new(w); // nn + nt
        assert_eq!(weight_packs_total() - before, 2);
        begin_pack_epoch();
        let g = seeded_uniform(16, 16, 91);
        pw.axpy(-0.1, &g);
        let a = seeded_uniform(4, 16, 92);
        let _ = matmul_fused(&a, pw.nn(), Prologue::None, Epilogue::None);
        assert_eq!(gemm_packs_per_step(), 0, "updates and GEMMs must not re-pack");
        let _clone = pw.clone(); // clones re-pack by design
        assert_eq!(gemm_packs_per_step(), 2);
    }
}
