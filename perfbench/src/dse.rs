//! The dense DSE surface: `train --paper-subsets --config <seeded
//! dense space of 10⁴ points>` over the 13 training models.

use crate::ctx::Ctx;
use crate::gen;
use crate::proc::Run;
use crate::stats::Timings;
use std::time::{Duration, Instant};

/// Models the training phase sweeps.
pub const TRAIN_MODELS: usize = 13;

#[derive(Default)]
pub struct DseResult {
    /// Set-up repetitions: the first invocations.
    pub setup: Timings,
    pub train: Timings,
    /// Invocations of a traced run with `--metrics-json` armed.
    pub observed: Timings,
    /// Hardware points in the seeded space.
    pub points: usize,
    pub peak_rss_mb: f64,
}

/// Runs the surface for `budget` after `setups` set-ups.
pub fn run(ctx: &mut Ctx, budget: Duration, setups: usize) -> DseResult {
    let (config, points) = gen::dense_config(ctx.seed);
    let path = ctx.path("dense.json").display().to_string();
    let metrics = ctx.path("dse-metrics.json").display().to_string();
    let mut out = DseResult {
        points,
        ..DseResult::default()
    };
    if let Err(e) = std::fs::write(&path, config) {
        ctx.tally
            .fail(format!("cannot write the dense config: {e}"));
        return out;
    }
    let args = [
        "train",
        "--paper-subsets",
        "--config",
        path.as_str(),
        "--json",
    ];
    let mut reference: Option<Vec<u8>> = None;
    // One invocation; every one must print the same bytes.
    let mut invoke = |ctx: &mut Ctx, observed: bool| -> Option<Run> {
        let extra: &[&str] = if observed {
            &["--metrics-json", metrics.as_str()]
        } else {
            &[]
        };
        let r = ctx.run(&[&args[..], extra].concat())?;
        match &reference {
            None => reference = Some(r.stdout.clone()),
            Some(first) if *first == r.stdout => {}
            Some(_) => ctx
                .tally
                .mismatch("repeated dense `train` output differs".to_owned()),
        }
        Some(r)
    };
    for _ in 0..setups {
        if let Some(r) = invoke(ctx, false) {
            out.setup.push(r.wall, r.cpu);
            out.peak_rss_mb = out.peak_rss_mb.max(r.peak_rss_mb);
        }
    }
    // A traced run observes every other invocation, so traced and
    // untraced samples interleave.
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < budget {
        let observed = ctx.trace && i % 2 == 1;
        if let Some(r) = invoke(ctx, observed) {
            out.peak_rss_mb = out.peak_rss_mb.max(r.peak_rss_mb);
            let sink = if observed {
                &mut out.observed
            } else {
                &mut out.train
            };
            sink.push(r.wall, r.cpu);
        }
        i += 1;
    }
    out
}
