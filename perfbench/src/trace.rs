//! The traced run's in-process harness: it replays the run's generated
//! inputs through each crate's public calls and records a span (name,
//! start, end, parent, request id) around every call, in memory,
//! written out when the run ends.

use crate::gen::{RequestStream, Traffic};
use crate::stats;
use claire_core::plan::flat::build_eval_table;
use claire_core::telemetry::Metric;
use claire_core::{
    dse, graphs, paper_table3_subsets, Claire, ClaireOptions, Constraints, CustomRequest, Engine,
    ResidentEngine, RunConfig, SubsetStrategy,
};
use claire_graph::{louvain_csr, CsrGraph};
use claire_model::parse::{parse_model, InputShape, ParseOptions};
use claire_model::{zoo, Model, ModelClass};
use claire_ppa::{HwParams, LayerBatch};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are µs since the recorder's origin.
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// In-memory span recorder.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in µs.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let index = self.spans.len();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans[index].end_us = end_us;
        (out, end_us - start_us)
    }

    /// Per span name: count, total µs and self µs (duration minus the
    /// part of it its child spans cover).
    pub fn aggregates(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_us - s.start_us;
            let covered = covered(children[i].iter().map(|&c| {
                let c = &self.spans[c];
                (c.start_us, c.end_us)
            }));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - covered;
        }
        out
    }

    pub fn to_value(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "start_us": s.start_us,
                    "end_us": s.end_us,
                    "parent": s.parent.map(|p| p as u64),
                    "request": s.request,
                })
            })
            .collect();
        let aggregates = self
            .aggregates()
            .into_iter()
            .map(|(name, (count, total, own))| {
                serde_json::json!({"name": name, "count": count, "total_us": total, "self_us": own})
            })
            .collect();
        serde_json::json!({"aggregates": Value::Array(aggregates), "spans": Value::Array(spans)})
    }
}

/// Length of the union of `intervals`.
fn covered(intervals: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// A serve request body resolved to the public-API call it makes.
enum Call {
    Custom(Model),
    Assign(Model),
    WhatIf(Model, Constraints),
}

/// Resolves a generated request body the way `serve` does.
fn resolve(body: &str) -> Option<Call> {
    resolve_value(&serde_json::from_str(body).ok()?)
}

/// [`resolve`] on an already decoded body: a zoo lookup or a parse.
fn resolve_value(v: &Value) -> Option<Call> {
    let model = match (v.get("model"), v.get("printout")) {
        (Some(name), _) => zoo::by_name(name.as_str()?)?,
        (None, Some(text)) => {
            let dims = |key: &str| -> Option<Vec<u32>> {
                v.get(key)?
                    .as_array()?
                    .iter()
                    .map(|x| x.as_u64().map(|n| n as u32))
                    .collect()
            };
            let (input, class) = match (dims("image"), dims("seq")) {
                (Some(i), _) => (
                    InputShape::Image {
                        channels: i[0],
                        height: i[1],
                        width: i[2],
                    },
                    ModelClass::Cnn,
                ),
                (None, Some(s)) => (
                    InputShape::Sequence {
                        tokens: s[0],
                        features: s[1],
                    },
                    ModelClass::Transformer,
                ),
                (None, None) => return None,
            };
            let name = v.get("name").and_then(Value::as_str).unwrap_or("parsed");
            parse_model(name, text.as_str()?, ParseOptions { input, class }).ok()?
        }
        (None, None) => return None,
    };
    match v.get("op")?.as_str()? {
        "custom" => Some(Call::Custom(model)),
        "assign" => Some(Call::Assign(model)),
        "what_if" => {
            let mut c = Constraints::default();
            for (key, x) in v.get("constraints")?.as_object()? {
                let x = x.as_f64()?;
                match key.as_str() {
                    "chiplet_area_limit_mm2" => c.chiplet_area_limit_mm2 = x,
                    "power_density_limit_w_per_mm2" => c.power_density_limit_w_per_mm2 = x,
                    "latency_slack" => c.latency_slack = x,
                    _ => return None,
                }
            }
            Some(Call::WhatIf(model, c))
        }
        _ => None,
    }
}

/// The harness's findings: per-layer metrics plus the failures it hit.
#[derive(Default)]
pub struct Harness {
    pub metrics: BTreeMap<&'static str, f64>,
    pub failures: Vec<String>,
    pub calls: u64,
    /// Memo entries of the resident replica after the replay.
    pub resident_entries: f64,
}

impl Harness {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// Replays the run's inputs through the public calls of each crate,
/// under one root span whose self time is the harness's own work
/// between calls. `dense` selects the run's dense run-config file
/// `dense_config` for the flow phases, `traffic` is the run's serve
/// traffic, `work` its scratch directory.
pub fn run(
    seed: u64,
    dense: bool,
    dense_config: &Path,
    traffic: Traffic,
    work: &Path,
    spans: &mut Spans,
) -> Harness {
    let (h, _) = spans.time("harness", None, |spans| {
        replay(seed, dense, dense_config, traffic, work, spans)
    });
    h
}

fn replay(
    seed: u64,
    dense: bool,
    dense_config: &Path,
    traffic: Traffic,
    work: &Path,
    spans: &mut Spans,
) -> Harness {
    let mut h = Harness::default();
    let paper = ClaireOptions {
        subsets: SubsetStrategy::Fixed(paper_table3_subsets()),
        ..ClaireOptions::default()
    };
    // The flow options: the paper space, or the run's dense space.
    let opts = if dense {
        match RunConfig::load(dense_config) {
            Ok(c) => ClaireOptions {
                subsets: SubsetStrategy::Fixed(paper_table3_subsets()),
                ..c.into_options()
            },
            Err(e) => {
                h.fail(format!("dense config rejected in-process: {e}"));
                return h;
            }
        }
    } else {
        paper.clone()
    };

    // claire-model: zoo construction.
    let mut zoo_us = Vec::new();
    for _ in 0..5 {
        let (_, us) = spans.time("model.zoo_build", None, |_| {
            std::hint::black_box((zoo::training_set(), zoo::test_set()))
        });
        zoo_us.push(us);
    }
    h.metrics
        .insert("model.zoo_build_us", stats::median(&zoo_us));

    // claire-model: the parser, on the seed's novel printouts.
    let mut novel = RequestStream::new(seed, Traffic::Novel, "open", 1);
    let mut parse_us = Vec::new();
    let mut parsed = Vec::new();
    while parsed.len() < 40 {
        let body = novel.next_request();
        if !body.contains("\"printout\"") {
            continue;
        }
        let Ok(value) = serde_json::from_str::<Value>(&body) else {
            continue;
        };
        let (call, us) = spans.time("model.parse", None, |_| resolve_value(&value));
        parse_us.push(us);
        match call {
            Some(Call::Custom(m) | Call::Assign(m)) => parsed.push(m),
            _ => {
                h.fail("a generated printout did not parse in-process".to_owned());
                parsed.push(zoo::by_name("Alexnet").expect("Alexnet is in the zoo"));
            }
        }
    }
    h.metrics.insert("model.parse_us", stats::median(&parse_us));

    // claire-core: the flow phases on one engine.
    let training = zoo::training_set();
    let tests = zoo::test_set();
    let claire = Claire::new(opts.clone());
    let engine = Engine::for_space(&opts.space);
    let (train, _) = spans.time("train", None, |_| {
        claire.train_with_engine(&training, &engine)
    });
    let train = match train {
        Ok(t) => t,
        Err(e) => {
            h.fail(format!("in-process training failed: {e}"));
            return h;
        }
    };
    let stages: BTreeMap<String, f64> = engine
        .telemetry()
        .stage_aggregates()
        .into_iter()
        .map(|(name, d)| (name, d.as_secs_f64() * 1e3))
        .collect();
    for (stage, metric) in [
        ("customs", "train.customs_ms"),
        ("generic", "train.generic_ms"),
        ("libraries", "train.libraries_ms"),
    ] {
        h.metrics
            .insert(metric, stages.get(stage).copied().unwrap_or(0.0));
    }
    let (test, us) = spans.time("test.assign", None, |_| {
        claire.evaluate_test_with_engine(&train, &tests, &engine)
    });
    if let Err(e) = test {
        h.fail(format!("in-process test assignment failed: {e}"));
    }
    h.metrics.insert("test.assign_ms", us / 1e3);

    // claire-core snapshot: save the flow's engine, load into fresh ones.
    let snap = work.join("harness.snapshot");
    let (mut save_ms, mut load_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (r, us) = spans.time("snapshot.save", None, |_| engine.save_snapshot(&snap));
        save_ms.push(us / 1e3);
        if let Err(e) = r {
            h.fail(format!("snapshot save failed: {e}"));
        }
        let fresh = Engine::for_space(&opts.space);
        let (r, us) = spans.time("snapshot.load", None, |_| fresh.load_snapshot(&snap));
        load_ms.push(us / 1e3);
        if !matches!(r, Ok(true)) {
            h.fail("snapshot did not load back".to_owned());
        }
    }
    h.metrics
        .insert("snapshot.save_ms", stats::median(&save_ms));
    h.metrics
        .insert("snapshot.load_ms", stats::median(&load_ms));
    h.metrics.insert(
        "snapshot.bytes",
        std::fs::metadata(&snap).map_or(0.0, |m| m.len() as f64),
    );
    let _ = std::fs::remove_file(&snap);

    // claire-core plan: the flat evaluation table on a cold engine.
    let cold = Engine::for_space(&opts.space);
    let (table, us) = spans.time("plan.build", None, |_| {
        build_eval_table(&training, &opts.space, &opts.constraints, &cold)
    });
    let points = (training.len() * opts.space.len()) as f64;
    let priced = table
        .rows
        .iter()
        .map(|r| r.reports.iter().filter(|x| x.is_some()).count())
        .sum::<usize>() as f64;
    let t = cold.telemetry();
    h.metrics.insert("plan.build_ms", us / 1e3);
    h.metrics.insert("plan.points", points);
    h.metrics
        .insert("plan.area_pruned", t.counter(Metric::DsePruned) as f64);
    h.metrics
        .insert("plan.lb_pruned", t.counter(Metric::DseLbPruned) as f64);
    h.metrics.insert("plan.priced", priced);
    h.metrics
        .insert("plan.priced_share", priced / points.max(1.0));

    // claire-ppa: the batched layer kernel over a sample of the space.
    let hw_points: Vec<HwParams> = opts
        .space
        .iter()
        .step_by(if dense { 7 } else { 1 })
        .collect();
    let batches: Vec<LayerBatch> = training
        .iter()
        .map(|m| LayerBatch::from_kinds(m.layers().iter().map(|l| &l.kind)))
        .collect();
    let (evals, us) = spans.time("ppa.eval", None, |_| {
        let mut n = 0u64;
        for b in &batches {
            for hw in &hw_points {
                std::hint::black_box(b.compute_sum(std::hint::black_box(hw)));
                n += 1;
            }
        }
        n
    });
    h.metrics
        .insert("ppa.eval_ns_per_point", us * 1e3 / evals.max(1) as f64);

    // claire-graph: Louvain on each library's universal graph and on
    // the parsed novel models' graphs.
    let mut louvain_us = Vec::new();
    let resolution = opts.louvain_resolution;
    for lib in &train.libraries {
        let members: Vec<Model> = lib.members.iter().map(|&i| training[i].clone()).collect();
        let csr = CsrGraph::from_weighted(&graphs::universal_graph(&members, &lib.config.hw));
        let (_, us) = spans.time("graph.louvain", None, |_| louvain_csr(&csr, resolution));
        louvain_us.push(us);
    }
    let hw = train
        .libraries
        .first()
        .map_or(train.generic.hw, |l| l.config.hw);
    for m in parsed.iter().take(20) {
        let csr = CsrGraph::from_weighted(&graphs::build_graph(m, &hw));
        let (_, us) = spans.time("graph.louvain", None, |_| louvain_csr(&csr, resolution));
        louvain_us.push(us);
    }
    h.metrics
        .insert("graph.louvain_us", stats::median(&louvain_us));

    // claire-core dse: the constrained sweep a what_if takes, on the
    // run's serve what_if requests.
    let mut stream = RequestStream::new(seed, traffic, "open", 1);
    let sweep_engine = Engine::for_space(&paper.space);
    let mut sweep_ms = Vec::new();
    let mut seen = 0;
    while sweep_ms.len() < 20 && seen < 2000 {
        seen += 1;
        if let Some(Call::WhatIf(m, c)) = resolve(&stream.next_request()) {
            let (_, us) = spans.time("dse.sweep", None, |_| {
                dse::custom_config_with_engine(
                    &m,
                    &paper.space,
                    &c,
                    dse::DseObjective::MinArea,
                    &sweep_engine,
                )
            });
            sweep_ms.push(us / 1e3);
        }
    }
    h.metrics.insert("dse.sweep_ms", stats::median(&sweep_ms));

    // claire-core resident: warm up like serve, then replay the run's
    // open-loop stream one request at a time.
    let resident = ResidentEngine::new(paper, zoo::training_set());
    let warm = RequestStream::new(seed, traffic, "warmup", 0).warmup();
    let mut replay = RequestStream::new(seed, traffic, "open", 1);
    let bodies: Vec<String> = warm
        .into_iter()
        .chain((0..300).map(|_| replay.next_request()))
        .collect();
    let (mut custom_us, mut assign_us, mut what_if_us) = (Vec::new(), Vec::new(), Vec::new());
    for (i, body) in bodies.iter().enumerate() {
        let id = Some(i as u64);
        let timed = i >= bodies.len() - 300;
        let ok = match resolve(body) {
            Some(Call::Custom(m)) => {
                let (r, us) = spans.time("resident.custom", id, |_| {
                    resident.custom_batch(&[CustomRequest::new(m)])
                });
                if timed {
                    custom_us.push(us);
                }
                r.iter().all(Result::is_ok)
            }
            Some(Call::Assign(m)) => {
                let (r, us) = spans.time("resident.assign", id, |_| resident.assign_batch(&[m]));
                if timed {
                    assign_us.push(us);
                }
                r.is_ok()
            }
            Some(Call::WhatIf(m, c)) => {
                let (r, us) = spans.time("resident.what_if", id, |_| resident.what_if(&m, c));
                if timed {
                    what_if_us.push(us);
                }
                r.is_ok()
            }
            None => false,
        };
        h.calls += 1;
        if !ok {
            h.fail(format!("resident replay of request {i} failed"));
        }
    }
    h.metrics
        .insert("resident.custom_us", stats::median(&custom_us));
    h.metrics
        .insert("resident.assign_us", stats::median(&assign_us));
    h.metrics
        .insert("resident.what_if_us", stats::median(&what_if_us));
    let st = resident.engine().stats();
    h.resident_entries = (st.cache_entries
        + st.route_topologies
        + st.sum_entries
        + st.louvain_entries
        + st.graph_entries
        + st.area_entries
        + st.comm_entries
        + st.louvain_warm_entries
        + st.lb_entries) as f64;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Overlapping and disjoint children: [1,3] ∪ [2,4] ∪ [6,7] = 4.
        let c = covered([(2.0, 4.0), (1.0, 3.0), (6.0, 7.0)].into_iter());
        assert!((c - 4.0).abs() < 1e-12);
        assert_eq!(covered(std::iter::empty()), 0.0);
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut spans = Spans::new();
        spans.time("outer", None, |s| {
            s.time("inner", Some(7), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[1].request, Some(7));
        let agg = spans.aggregates();
        let (_, outer_total, outer_self) = agg["outer"];
        let (_, inner_total, _) = agg["inner"];
        assert!(inner_total >= 2000.0);
        assert!((outer_total - inner_total - outer_self).abs() < 1e-6);
    }
}
