//! CPU tensor substrate for the SlimPipe reproduction.
//!
//! The paper's kernels run on NVIDIA Hopper GPUs through cuDNN SDPA /
//! Flash-Attention. This crate provides the same *algorithmic contracts* on
//! CPU f32 so that the real pipeline executor (`slimpipe-exec`) can train an
//! actual transformer across threads:
//!
//! * rayon-parallel GEMM in the three orientations backward passes need
//!   (`C = A·B`, `C = A·Bᵀ`, `C = Aᵀ·B`),
//! * chunked causal attention with **online softmax** over KV chunks
//!   (forward) and a flash-style backward that recomputes probabilities from
//!   the saved log-sum-exp — the property SlimPipe's attention context
//!   exchange relies on (§4.2 of the paper: partial attention outputs merged
//!   "via the online softmax method"),
//! * memory-efficient RMSNorm (gradients from the input, not the output) and
//!   SwiGLU with swish recomputation, mirroring the paper's §5 activation
//!   savings,
//! * softmax cross-entropy, including the vocabulary-sharded two-pass variant
//!   used by vocabulary parallelism (§4.3),
//! * byte-exact activation accounting (`MemCounter`) standing in for
//!   `torch.cuda.max_memory_allocated`.

pub mod attention;
pub mod crossentropy;
pub mod embedding;
pub mod init;
pub mod matmul;
pub mod memtrack;
pub mod ops;
pub mod pool;
pub mod rmsnorm;
pub mod shared;
pub mod swiglu;
pub mod tensor;

pub use attention::{attn_kernel, merge_partials, AttnKernel, AttnPartial, FlashStats};
pub use matmul::{Epilogue, PackedMat, PackedWeight, Prologue};
pub use memtrack::MemCounter;
pub use pool::PoolStats;
pub use tensor::Tensor;
