//! CLAIRE benchmark runner.
//!
//! ```text
//! claire-perfbench --cli <claire-cli> --workload <name> --seed <n>
//!                  --seconds <s> --trace <0|1>
//! ```
//!
//! Every run drives the release `claire-cli` as a subprocess on three
//! surfaces — the one-shot CLI flow, the dense DSE `train`, and a
//! resident `serve` under open- and closed-loop load — so every
//! end-to-end metric exists on every workload. The workload picks the
//! surface that gets most of the run (its focus) and the serve
//! traffic; all inputs come from the seed. The untraced run prints the
//! end-to-end metrics; the traced run (`--trace 1`) repeats the run
//! with the program's own observability armed, replays the same
//! inputs through each crate's public calls in-process, and prints the
//! per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod ctx;
mod dse;
mod flow;
mod gen;
mod proc;
mod serve;
mod stats;
mod trace;

use ctx::{read_json, Ctx, Tally};
use gen::Traffic;
use serde::Value;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The surface a workload spends most of its run on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Focus {
    Flow,
    Dse,
    Serve,
}

/// Workloads: name, focus, serve traffic.
const WORKLOADS: [(&str, Focus, Traffic); 4] = [
    ("flow_cli", Focus::Flow, Traffic::Hot),
    ("dse_dense", Focus::Dse, Traffic::Hot),
    ("serve_hot", Focus::Serve, Traffic::Hot),
    ("serve_novel", Focus::Serve, Traffic::Novel),
];

/// Share of the run the focus surface gets; the other two split the
/// rest.
const FOCUS_SHARE: f64 = 0.6;

struct Args {
    cli: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    Ok(Args {
        cli: PathBuf::from(get("--cli")?),
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (0 for counts and derived values).
    n: usize,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, focus, traffic)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!(
            "error: unknown workload `{}` (one of {})",
            args.workload,
            WORKLOADS.map(|w| w.0).join(", ")
        );
        return ExitCode::from(2);
    };
    if !args.cli.is_file() {
        eprintln!("error: program binary {} not found", args.cli.display());
        return ExitCode::from(1);
    }
    let root =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
            .join("perfbench");
    let work = root.join(format!("run-{}", std::process::id()));
    let log = match std::fs::create_dir_all(&work).and_then(|_| {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(work.join("program-stderr.log"))
    }) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot create {}: {e}", work.display());
            return ExitCode::from(1);
        }
    };
    let mut ctx = Ctx {
        cli: args.cli.clone(),
        work: work.clone(),
        log,
        seed: args.seed,
        trace: args.trace,
        tally: Tally::default(),
    };

    let host_before = proc::host_ticks();
    let total = Duration::from_secs(args.seconds);
    let share = |f: Focus| {
        total.mul_f64(if f == focus {
            FOCUS_SHARE
        } else {
            (1.0 - FOCUS_SHARE) / 2.0
        })
    };
    let flow = flow::run(&mut ctx, share(Focus::Flow));
    let dse = dse::run(
        &mut ctx,
        share(Focus::Dse),
        if focus == Focus::Dse { 3 } else { 1 },
    );
    let serve_setups = if focus == Focus::Serve && !args.trace {
        3
    } else {
        1
    };
    let serve_budget = serve::split(share(Focus::Serve));
    let serve_plain = (args.trace && focus == Focus::Serve).then(|| {
        // The baseline of the tracing overhead: an unobserved server
        // under the same open loop, for a quarter of the budget.
        let open = share(Focus::Serve) / 4;
        serve::run(&mut ctx, traffic, (open, Duration::ZERO), 1, false)
    });
    let serve = serve::run(&mut ctx, traffic, serve_budget, serve_setups, args.trace);

    let meta = Meta::new(host_before);
    let ungated = ungated_view(focus, &flow, &dse, &serve);
    let (metrics, info, trace_value) = if args.trace {
        let mut spans = trace::Spans::new();
        let harness = trace::run(
            args.seed,
            focus == Focus::Dse,
            &ctx.path("dense.json"),
            traffic,
            &work,
            &mut spans,
        );
        for f in &harness.failures {
            ctx.tally.fail(format!("in-process harness: {f}"));
        }
        ctx.tally.attempted += harness.calls;
        let mut m = per_layer(
            &ctx,
            focus,
            &flow,
            &dse,
            &serve,
            serve_plain.as_ref(),
            &harness,
        );
        m.extend(ungated);
        (m, Vec::new(), Some(spans.to_value()))
    } else {
        (end_to_end(focus, &flow, &dse, &serve), ungated, None)
    };

    if let Err(e) = check_declared(&metrics, args.trace) {
        ctx.tally.fail(e);
    }
    // A gated metric is never 0; reading 0 means its surface measured
    // nothing.
    let measured = |m: &Metric| m.value.is_finite() && (args.trace || m.value > 0.0);
    let correct = ctx.tally.failed == 0 && metrics.iter().all(measured);
    report(&args, &meta, &ctx.tally, &metrics, &info);
    write_record(
        &root,
        &args,
        &meta,
        &ctx.tally,
        &metrics,
        &info,
        trace_value,
    );
    if ctx.tally.failed > 0 {
        print_log_tail(&work.join("program-stderr.log"));
    }
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", result_line(correct, &ctx.tally, &metrics));
    ExitCode::SUCCESS
}

/// Checks the run emits exactly the metrics `BENCHMARK.json` declares
/// for its mode, with the declared units.
fn check_declared(metrics: &[Metric], trace: bool) -> Result<(), String> {
    let spec = read_json(Path::new("BENCHMARK.json")).ok_or("cannot read BENCHMARK.json")?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let declared: Vec<(String, String)> = spec
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("unit")?.as_str()?.to_owned(),
            ))
        })
        .collect();
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    let sorted = |mut v: Vec<(String, String)>| {
        v.sort();
        v
    };
    if sorted(declared) == sorted(emitted) {
        Ok(())
    } else {
        Err(format!("emitted {key} metrics differ from BENCHMARK.json"))
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

/// The gated end-to-end metrics of an untraced run. Times are the CPU
/// time the program is charged, which a host stealing CPU from this
/// machine does not inflate; [`ungated_view`] has the wall-clock twins.
fn end_to_end(
    focus: Focus,
    flow: &flow::FlowResult,
    dse: &dse::DseResult,
    serve: &serve::ServeResult,
) -> Vec<Metric> {
    let (setup, rss) = match focus {
        Focus::Flow => (&flow.setup, flow.peak_rss_mb),
        Focus::Dse => (&dse.setup, dse.peak_rss_mb),
        Focus::Serve => (&serve.setup, serve.peak_rss_mb),
    };
    let med = |t: &stats::Timings| stats::median(&t.cpu_ms);
    vec![
        metric("setup_s", med(setup) / 1e3, "s", setup.len()),
        metric("flow_cold_cpu_ms", med(&flow.cold), "ms", flow.cold.len()),
        metric("flow_warm_cpu_ms", med(&flow.warm), "ms", flow.warm.len()),
        metric(
            "custom_cold_cpu_ms",
            med(&flow.custom),
            "ms",
            flow.custom.len(),
        ),
        metric(
            "dse_points_per_cpu_s",
            (dse::TRAIN_MODELS * dse.points) as f64 / (med(&dse.train) / 1e3),
            "points/cpu_s",
            dse.train.len(),
        ),
        metric(
            "serve_cpu_us_per_req",
            serve.open_cpu_us_per_req,
            "us",
            serve.open_due_ms.len(),
        ),
        metric("peak_rss_mb", rss, "MB", 0),
    ]
}

/// The ungated view of the same run, printed by every run and reported
/// by the traced run: the wall-clock twins of the gated metrics (what a
/// user waits for on this machine, steal included) and the closed
/// loop's CPU throughput. On a host that steals CPU these moved between
/// batches of runs by as much as, or more than, any bound could allow.
fn ungated_view(
    focus: Focus,
    flow: &flow::FlowResult,
    dse: &dse::DseResult,
    serve: &serve::ServeResult,
) -> Vec<Metric> {
    let setup = match focus {
        Focus::Flow => &flow.setup,
        Focus::Dse => &dse.setup,
        Focus::Serve => &serve.setup,
    };
    let med = |t: &stats::Timings| stats::median(&t.wall_ms);
    // Unsupported percentiles (fewer than ten samples beyond) read 0.
    let pct = |p: f64| {
        stats::percentile(&serve.open_due_ms, p)
            .value
            .unwrap_or(0.0)
    };
    let n = serve.open_due_ms.len();
    vec![
        metric("setup_wall_s", med(setup) / 1e3, "s", setup.len()),
        metric("flow_cold_ms", med(&flow.cold), "ms", flow.cold.len()),
        metric("flow_warm_ms", med(&flow.warm), "ms", flow.warm.len()),
        metric("custom_cold_ms", med(&flow.custom), "ms", flow.custom.len()),
        metric(
            "dse_points_per_s",
            (dse::TRAIN_MODELS * dse.points) as f64 / (med(&dse.train) / 1e3),
            "points/s",
            dse.train.len(),
        ),
        metric("serve_p50_ms", pct(50.0), "ms", n),
        metric("serve_p90_ms", pct(90.0), "ms", n),
        metric(
            "serve_sat_rps",
            serve.sat_rps,
            "req/s",
            serve.closed_ok as usize,
        ),
        // Ungated: between two batches of runs its median moved by
        // about a fifth as the host got busier.
        metric(
            "serve_sat_per_cpu_s",
            serve.sat_per_cpu_s,
            "req/cpu_s",
            serve.closed_ok as usize,
        ),
    ]
}

/// Memo tiers, in `EngineStats` order.
const TIERS: [&str; 9] = [
    "layer",
    "route",
    "sum",
    "louvain",
    "graph",
    "area",
    "comm",
    "louvain_warm",
    "lb",
];

/// The per-layer metrics of a traced run.
fn per_layer(
    ctx: &Ctx,
    focus: Focus,
    flow: &flow::FlowResult,
    dse: &dse::DseResult,
    serve: &serve::ServeResult,
    serve_plain: Option<&serve::ServeResult>,
    harness: &trace::Harness,
) -> Vec<Metric> {
    let mut out: Vec<Metric> = harness
        .metrics
        .iter()
        .map(|(&name, &value)| Metric {
            name,
            value,
            unit: unit_of(name),
            n: 0,
        })
        .collect();
    let mut push = |name: &'static str, value: f64| {
        out.push(Metric {
            name,
            value,
            unit: unit_of(name),
            n: 0,
        })
    };

    // The focus program's own counters: the observed cold flow's or
    // dense train's `--metrics-json`, or the loaded server's.
    let program = read_json(&ctx.path(match focus {
        Focus::Flow => "flow-metrics.json",
        Focus::Dse => "dse-metrics.json",
        Focus::Serve => "serve-metrics.json",
    }))
    .unwrap_or_default();
    let counter = |v: &Value, k: &str| {
        v.get("counters")
            .and_then(|c| c.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    for tier in TIERS {
        let hits = counter(&program, &format!("memo.{tier}.hit"));
        let misses = counter(&program, &format!("memo.{tier}.miss"));
        push(leak(format!("memo.{tier}.hits")), hits);
        push(leak(format!("memo.{tier}.misses")), misses);
        let ratio = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
        push(leak(format!("memo.{tier}.hit_ratio")), ratio);
    }
    let entries = program
        .get("gauges")
        .and_then(Value::as_object)
        .map_or(0.0, |g| {
            g.iter()
                .filter(|(k, _)| k.starts_with("memo.") && k.ends_with(".entries"))
                .filter_map(|(_, v)| v.as_f64())
                .sum()
        });
    // `serve` exports its gauges without refreshing them, so for a
    // serve focus the entry count comes from the in-process replica
    // that replayed the same stream.
    push(
        "memo.entries",
        if focus == Focus::Serve {
            harness.resident_entries
        } else {
            entries
        },
    );
    let (busy, wall) = program
        .get("worker_utilization")
        .and_then(Value::as_array)
        .map_or((0.0, 0.0), |ws| {
            ws.iter().fold((0.0, 0.0), |(b, w), x| {
                let f = |k| x.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                (b + f("busy_ms"), w + f("wall_ms"))
            })
        });
    push(
        "engine.worker_busy_share",
        if wall > 0.0 { busy / wall } else { 0.0 },
    );
    push(
        "graph.louvain_calls",
        counter(&program, "memo.louvain.miss"),
    );

    // serve: the loaded server's stats probes and event log, and the
    // open loop as the client saw it.
    let q = |which: &str, p: &str| -> f64 {
        let Some(s) = serve
            .stats
            .as_ref()
            .and_then(|s| s.get("quantiles"))
            .and_then(|q| q.get(which))
        else {
            return 0.0;
        };
        let n = s.get("count").and_then(Value::as_f64).unwrap_or(0.0) as usize;
        let pct: f64 = p[1..].parse().unwrap_or(50.0);
        let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
        if pct > 50.0 && n - rank.min(n) < stats::MIN_BEYOND {
            return 0.0;
        }
        s.get(p).and_then(Value::as_f64).unwrap_or(0.0)
    };
    let server_p50 = q("latency_us", "p50");
    push("serve.queue_wait_p50_us", q("queue_wait_us", "p50"));
    push("serve.queue_wait_p99_us", q("queue_wait_us", "p99"));
    push("serve.server_p50_us", server_p50);
    push(
        "serve.transport_p50_us",
        stats::median(&serve.open_sent_ms) * 1e3 - server_p50,
    );
    push(
        "serve.batch_size_mean",
        batch_size_mean(&ctx.path("events.log")),
    );
    let p99 = |v: &[f64]| stats::percentile(v, 99.0).value.unwrap_or(0.0);
    push("serve.client_p99_ms", p99(&serve.open_due_ms));
    push("serve.client_max_ms", stats::max(&serve.open_due_ms));
    push("serve.gen_late_p99_ms", p99(&serve.late_ms));
    let served = read_json(&ctx.path("serve-metrics.json")).unwrap_or_default();
    push("serve.shed", counter(&served, "serve.shed"));
    push(
        "serve.deadline_expired",
        counter(&served, "serve.deadline_expired"),
    );

    // Tracing overhead: the focus surface's gated (CPU) metric with the
    // program's observability armed versus not, in the same run.
    let ratio = |traced: f64, plain: f64| {
        if plain > 0.0 {
            traced / plain - 1.0
        } else {
            0.0
        }
    };
    let cpu = |t: &stats::Timings| stats::median(&t.cpu_ms);
    let overhead = match focus {
        Focus::Flow => ratio(cpu(&flow.cold_observed), cpu(&flow.cold)),
        Focus::Dse => ratio(cpu(&dse.observed), cpu(&dse.train)),
        Focus::Serve => ratio(
            serve.open_cpu_us_per_req,
            serve_plain.map_or(0.0, |p| p.open_cpu_us_per_req),
        ),
    };
    push("trace.overhead_share", overhead);
    out
}

/// Metric names built at run time live for the whole (short) process.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// A per-layer metric's unit, from its name's suffix.
fn unit_of(name: &str) -> &'static str {
    match name.rsplit(['_', '.']).next().unwrap_or("") {
        "us" => "us",
        "ms" => "ms",
        "point" => "ns",
        "bytes" => "B",
        "mean" => "req",
        "share" | "ratio" => "ratio",
        _ => "count",
    }
}

/// Mean requests per dispatched batch, from the `--event-log`.
fn batch_size_mean(path: &Path) -> f64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    let mut batches = std::collections::BTreeSet::new();
    let mut dispatched = 0u64;
    for line in text.lines() {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        if v.get("event").and_then(Value::as_str) == Some("dispatched") {
            if let Some(b) = v.get("batch").and_then(Value::as_u64) {
                batches.insert(b);
                dispatched += 1;
            }
        }
    }
    if batches.is_empty() {
        0.0
    } else {
        dispatched as f64 / batches.len() as f64
    }
}

/// What each result is recorded with.
struct Meta {
    nproc: usize,
    engine_threads: usize,
    git_sha: String,
    /// Share of the machine's CPU time the host stole during the run.
    steal_share: f64,
}

impl Meta {
    fn new(host_before: Option<(u64, u64)>) -> Self {
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
        let steal_share = match (host_before, proc::host_ticks()) {
            (Some((b0, s0)), Some((b1, s1))) if b1 + s1 > b0 + s0 => {
                (s1 - s0) as f64 / ((b1 - b0) + (s1 - s0)) as f64
            }
            _ => 0.0,
        };
        Meta {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            engine_threads: claire_core::resolve_threads(None),
            git_sha,
            steal_share,
        }
    }
}

/// The human-readable report: every metric by name, with its unit and
/// sample count, and the failure share with both counts.
fn report(args: &Args, meta: &Meta, tally: &Tally, metrics: &[Metric], info: &[Metric]) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} engine_threads={} git={} host_steal_share={:.3}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        meta.nproc,
        meta.engine_threads,
        meta.git_sha,
        meta.steal_share,
    );
    let line = |m: &Metric| {
        let n = if m.n > 0 {
            format!("  (n={})", m.n)
        } else {
            String::new()
        };
        println!("  {:<30} {:>14.4} {}{n}", m.name, m.value, m.unit);
    };
    metrics.iter().for_each(line);
    let share = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "  {:<30} {:>14.4} (failed {} / attempted {})",
        "fail_share", share, tally.failed, tally.attempted
    );
    if !info.is_empty() {
        println!("  ungated (wall-clock twins, steal included; closed-loop CPU throughput):");
        info.iter().for_each(line);
    }
    for r in &tally.reasons {
        println!("  failure: {r}");
    }
}

/// Writes the run's record (and the traced run's spans) next to the
/// work directories.
fn write_record(
    root: &Path,
    args: &Args,
    meta: &Meta,
    tally: &Tally,
    metrics: &[Metric],
    info: &[Metric],
    spans: Option<Value>,
) {
    let list = |ms: &[Metric]| {
        Value::Array(
            ms.iter()
                .map(|m| {
                    serde_json::json!({"name": m.name, "value": m.value, "unit": m.unit, "n": m.n as u64})
                })
                .collect(),
        )
    };
    let mut record = serde_json::json!({
        "workload": args.workload.clone(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": meta.nproc as u64,
        "engine_threads": meta.engine_threads as u64,
        "git_sha": meta.git_sha.clone(),
        "host_steal_share": meta.steal_share,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons.clone(),
        "metrics": list(metrics),
        "ungated": list(info),
    });
    if let (Value::Object(fields), Some(spans)) = (&mut record, spans) {
        fields.push(("trace".to_owned(), spans));
    }
    let name = format!(
        "{}-{}-seed{}.json",
        if args.trace { "trace" } else { "result" },
        args.workload,
        args.seed
    );
    if let Ok(text) = serde_json::to_string_pretty(&record) {
        let _ = std::fs::write(root.join(name), text);
    }
}

fn print_log_tail(path: &Path) {
    if let Ok(text) = std::fs::read_to_string(path) {
        let lines: Vec<&str> = text.lines().collect();
        for l in &lines[lines.len().saturating_sub(20)..] {
            eprintln!("program stderr: {l}");
        }
    }
}

/// The last stdout line.
fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    )
}
