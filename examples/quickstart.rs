//! Quickstart: train a small transformer across a real two-thread SlimPipe
//! pipeline and verify it against a single-device reference.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use slimpipe::exec::model::ExecConfig;
use slimpipe::exec::schedule::PipelineKind;
use slimpipe::exec::train::{run_reference, try_run_pipeline_traced};
use slimpipe::exec::verify::compare;
use slimpipe::exec::TraceSession;

fn main() {
    // A tiny Llama-style model: 4 layers, GQA (4 query heads, 2 KV heads),
    // 64-token context split into 4 uniform slices, 2 pipeline stages.
    let cfg = ExecConfig {
        exchange: true,       // §4.2 attention context exchange
        vocab_parallel: true, // §4.3 vocabulary parallelism
        ..ExecConfig::small()
    };

    println!("SlimPipe quickstart — {} layers over {} stages,", cfg.layers, cfg.stages);
    println!(
        "{} tokens/microbatch in {} uniform slices, {} microbatches\n",
        cfg.seq, cfg.slices, cfg.microbatches
    );

    let steps = 5;
    let lr = 0.3;
    println!("training {steps} steps on the pipeline (threads = devices)...");
    let untraced = TraceSession::disabled();
    let pipe = try_run_pipeline_traced(&cfg, PipelineKind::SlimPipe, steps, lr, &untraced)
        .expect("clean pipeline run");
    println!("training {steps} steps on a single device for reference...");
    let reference = run_reference(&cfg, steps, lr);

    println!("\nstep  pipeline loss  reference loss");
    for (i, (a, b)) in pipe.losses.iter().zip(&reference.losses).enumerate() {
        println!("{:>4}  {:>13.6}  {:>14.6}", i, a, b);
    }

    let c = compare(&pipe, &reference);
    println!("\nmax loss deviation: {:.2e}", c.max_loss_diff);
    println!(
        "worst gradient deviation: {:.2e} (at {})",
        c.worst_grad_rel, c.worst_grad_name
    );
    println!("\nper-device peak activation bytes: {:?}", pipe.peak_act_bytes);
    println!(
        "\nThe sliced, exchanged, vocabulary-parallel pipeline computes exactly \
         what the reference computes — SlimPipe only reschedules the work."
    );
}
