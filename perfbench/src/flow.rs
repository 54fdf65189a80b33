//! The CLI flow surface: interleaved one-shot invocations of the cold
//! paper flow, the warm paper flow (`--cache-dir`, which loads and
//! saves the snapshot) and `custom <zoo model>`.

use crate::ctx::Ctx;
use crate::gen;
use crate::stats::Timings;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const FLOW: [&str; 3] = ["flow", "--paper-subsets", "--json"];

#[derive(Default)]
pub struct FlowResult {
    /// Set-up repetitions: priming a fresh cache dir.
    pub setup: Timings,
    pub cold: Timings,
    pub warm: Timings,
    pub custom: Timings,
    /// Cold flows of a traced run with `--metrics-json` armed.
    pub cold_observed: Timings,
    pub peak_rss_mb: f64,
}

/// Runs the surface for `budget` after three set-ups.
pub fn run(ctx: &mut Ctx, budget: Duration) -> FlowResult {
    let mut out = FlowResult::default();
    let mut reference: Option<Vec<u8>> = None;
    // Every flow — cold, warm or priming — must print the same bytes.
    let mut check_flow = |ctx: &mut Ctx, label: &str, stdout: Vec<u8>| match &reference {
        None => reference = Some(stdout),
        Some(r) if *r == stdout => {}
        Some(_) => ctx
            .tally
            .mismatch(format!("{label} flow output differs from the first flow")),
    };

    // Set-up: prime a fresh cache dir, three times; the last one
    // serves the warm runs.
    let mut cache = String::new();
    for k in 0..3 {
        cache = ctx.path(&format!("cache-{k}")).display().to_string();
        let _ = std::fs::create_dir_all(&cache);
        if let Some(r) = ctx.run(&[&FLOW[..], &["--cache-dir", cache.as_str()]].concat()) {
            out.setup.push(r.wall, r.cpu);
            out.peak_rss_mb = out.peak_rss_mb.max(r.peak_rss_mb);
            check_flow(ctx, "priming", r.stdout);
        }
    }

    let models = gen::custom_models(ctx.seed, 4096);
    let mut customs: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let metrics = ctx.path("flow-metrics.json").display().to_string();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < budget {
        // A traced run observes every other triple, so traced and
        // untraced samples interleave.
        let observed = ctx.trace && i % 2 == 1;
        let extra: &[&str] = if observed {
            &["--metrics-json", metrics.as_str()]
        } else {
            &[]
        };
        if let Some(r) = ctx.run(&[&FLOW[..], extra].concat()) {
            if observed {
                out.cold_observed.push(r.wall, r.cpu);
            } else {
                out.cold.push(r.wall, r.cpu);
            }
            out.peak_rss_mb = out.peak_rss_mb.max(r.peak_rss_mb);
            check_flow(ctx, "cold", r.stdout);
        }
        if let Some(r) = ctx.run(&[&FLOW[..], &["--cache-dir", cache.as_str()]].concat()) {
            out.warm.push(r.wall, r.cpu);
            out.peak_rss_mb = out.peak_rss_mb.max(r.peak_rss_mb);
            check_flow(ctx, "warm", r.stdout);
        }
        let model = &models[i % models.len()];
        if let Some(r) = ctx.run(&["custom", model, "--json"]) {
            out.custom.push(r.wall, r.cpu);
            out.peak_rss_mb = out.peak_rss_mb.max(r.peak_rss_mb);
            match customs.get(model) {
                None => {
                    customs.insert(model.clone(), r.stdout);
                }
                Some(first) if *first == r.stdout => {}
                Some(_) => ctx
                    .tally
                    .mismatch(format!("repeated `custom {model}` output differs")),
            }
        }
        i += 1;
    }
    out
}
