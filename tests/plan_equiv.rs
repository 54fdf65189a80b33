//! Equivalence suite for the flat execution plan: the planned flow
//! (one up-front item set through a single load-balanced parallel
//! map, selections replayed from the evaluation table) must produce
//! results **bit-identical** to the recursive flow (per-model staged
//! sweeps) — at every thread count, cache on or off, fail-fast or
//! degrade. Comparisons go through `format!("{:?}")`, which prints
//! `f64` exactly, so two equal strings mean two bit-equal result
//! sets.
//!
//! The recursive flow is this suite's oracle and lives here, in
//! [`recursive`]: the train and test phases composed from the `dse`
//! reference kernels (`custom_config_with_engine`,
//! `set_config_with_engine`) and the public clustering, relaxation,
//! subset and metric steps. Production runs only the plan.

use claire::core::{
    Claire, ClaireOptions, Constraints, CustomRequest, Engine, FaultPlan, ResidentEngine,
    RobustnessPolicy, SubsetStrategy, TelemetryOptions, WeightScale,
};
use claire::model::{zoo, Model};
use serde_json::Value;
use std::collections::BTreeSet;

/// Thread counts the suite sweeps: the serial edge case, a small
/// pool, and more workers than this container has cores.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The recursive reference flow: the same stages, selections and
/// outputs as [`Claire::train_with_engine`] /
/// [`Claire::evaluate_test_with_engine`], with every DSE selection a
/// recursive staged sweep. Stages run serially — the engine's outputs
/// do not depend on the thread count — and without fault plans.
mod recursive {
    use claire::core::assign::{partition_training_merged, scaled_vector};
    use claire::core::chiplet::cluster_into_chiplets_with_engine;
    use claire::core::dse::{
        custom_config_with_engine, set_config_with_engine, with_relaxation, DseObjective,
    };
    use claire::core::metrics::{algorithm_coverage, chiplet_utilization, normalized_nre};
    use claire::core::{
        AlgoPpa, Claire, ClaireError, ClaireOptions, CustomResult, Engine, LibraryConfig,
        SubsetStrategy, TestOutput, TestReport, TrainOutput, WeightScale,
    };
    use claire::model::{ActivationKind, Model, OpClass};
    use std::collections::BTreeMap;

    /// One custom configuration: the recursive sweep, then clustering
    /// and evaluation, down the relaxation ladder.
    pub fn custom(
        opts: &ClaireOptions,
        model: &Model,
        engine: &Engine,
    ) -> Result<CustomResult, ClaireError> {
        let ((config, report), degradation) =
            with_relaxation(opts.policy, &opts.constraints, |cons| {
                let (mut cfg, _) = custom_config_with_engine(
                    model,
                    &opts.space,
                    cons,
                    DseObjective::MinArea,
                    engine,
                )?;
                cluster_into_chiplets_with_engine(
                    &mut cfg,
                    std::slice::from_ref(model),
                    cons,
                    opts.louvain_resolution,
                    engine,
                )?;
                let report = engine.evaluate(model, &cfg)?;
                Ok((cfg, report))
            })?;
        Ok(CustomResult {
            model: model.clone(),
            config,
            report,
            degradation,
        })
    }

    /// The training phase.
    pub fn train(opts: &ClaireOptions, models: &[Model], engine: &Engine) -> TrainOutput {
        let customs: Vec<CustomResult> = models
            .iter()
            .map(|m| custom(opts, m, engine).expect("custom"))
            .collect();
        let custom_latency: BTreeMap<String, f64> = customs
            .iter()
            .map(|c| (c.model.name().to_owned(), c.report.latency_s))
            .collect();

        let refs: Vec<&Model> = models.iter().collect();
        let (generic, generic_degradation) =
            with_relaxation(opts.policy, &opts.constraints, |cons| {
                let mut generic = set_config_with_engine(
                    "C_g",
                    &refs,
                    &opts.space,
                    cons,
                    &custom_latency,
                    engine,
                )?;
                if opts.provision_tanh_in_generic {
                    generic
                        .classes
                        .insert(OpClass::Activation(ActivationKind::Tanh));
                }
                cluster_into_chiplets_with_engine(
                    &mut generic,
                    models,
                    cons,
                    opts.louvain_resolution,
                    engine,
                )?;
                Ok(generic)
            })
            .expect("generic");

        // Each subset with its merged raw node weights (`None` for a
        // pinned partition, which re-sums them).
        type SubsetVector = (Vec<usize>, Option<BTreeMap<OpClass, f64>>);
        let subsets: Vec<SubsetVector> = match &opts.subsets {
            SubsetStrategy::WeightedJaccard { threshold, scale } => {
                partition_training_merged(models, *threshold, *scale)
                    .into_iter()
                    .map(|(subset, merged)| (subset, Some(merged)))
                    .collect()
            }
            SubsetStrategy::Fixed(_) => Claire::new(opts.clone())
                .form_subsets(models)
                .into_iter()
                .map(|subset| (subset, None))
                .collect(),
        };
        let libraries: Vec<LibraryConfig> = subsets
            .iter()
            .enumerate()
            .map(|(k, (subset, merged))| {
                let name = format!("C_{}", k + 1);
                let members: Vec<&Model> = subset.iter().map(|&i| &models[i]).collect();
                let member_models: Vec<Model> = subset.iter().map(|&i| models[i].clone()).collect();
                let (config, degradation) =
                    with_relaxation(opts.policy, &opts.constraints, |cons| {
                        let mut cfg = set_config_with_engine(
                            &name,
                            &members,
                            &opts.space,
                            cons,
                            &custom_latency,
                            engine,
                        )?;
                        cluster_into_chiplets_with_engine(
                            &mut cfg,
                            &member_models,
                            cons,
                            opts.louvain_resolution,
                            engine,
                        )?;
                        Ok(cfg)
                    })
                    .expect("library");
                let raw: BTreeMap<OpClass, f64> = match merged {
                    Some(v) => v.clone(),
                    None => {
                        let mut raw = BTreeMap::new();
                        for m in &member_models {
                            for (class, w) in m.op_class_weights() {
                                *raw.entry(class).or_insert(0.0) += w;
                            }
                        }
                        raw
                    }
                };
                let vector: BTreeMap<OpClass, f64> = match opts.assign_scale {
                    WeightScale::Raw => raw,
                    WeightScale::Log => raw
                        .into_iter()
                        .map(|(k, w)| (k, (1.0 + w).log10()))
                        .collect(),
                    WeightScale::Binary => raw
                        .into_iter()
                        .map(|(k, w)| (k, if w > 0.0 { 1.0 } else { 0.0 }))
                        .collect(),
                };
                LibraryConfig {
                    nre_normalized: normalized_nre(&opts.nre, &config, &generic),
                    cumulative_custom_nre: subset
                        .iter()
                        .map(|&i| normalized_nre(&opts.nre, &customs[i].config, &generic))
                        .sum(),
                    config,
                    members: subset.clone(),
                    member_names: subset
                        .iter()
                        .map(|&i| models[i].name().to_owned())
                        .collect(),
                    vector,
                    degradation,
                }
            })
            .collect();

        let algo_ppa: Vec<AlgoPpa> = models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let lib = libraries
                    .iter()
                    .position(|l| l.members.contains(&i))
                    .expect("every model has a library");
                AlgoPpa {
                    model_name: m.name().to_owned(),
                    custom: customs[i].report,
                    generic: engine.evaluate(m, &generic).expect("generic PPA"),
                    library: engine
                        .evaluate(m, &libraries[lib].config)
                        .expect("library PPA"),
                    library_index: lib,
                }
            })
            .collect();

        TrainOutput {
            customs,
            generic,
            libraries,
            algo_ppa,
            generic_degradation,
        }
    }

    /// The test phase.
    pub fn test(
        opts: &ClaireOptions,
        train: &TrainOutput,
        tests: &[Model],
        engine: &Engine,
    ) -> TestOutput {
        let reports: Vec<TestReport> = tests
            .iter()
            .map(|m| {
                let custom = custom(opts, m, engine).expect("test custom");
                let mv = scaled_vector(m, opts.assign_scale);
                let mut ranked: Vec<(usize, f64)> = train
                    .libraries
                    .iter()
                    .enumerate()
                    .map(|(i, l)| (i, claire::graph::weighted_jaccard(&mv, &l.vector)))
                    .collect();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
                let assigned = ranked
                    .iter()
                    .find(|&&(i, _)| train.libraries[i].config.covers(m))
                    .copied();
                let generic_ppa = if train.generic.covers(m) {
                    engine.evaluate(m, &train.generic).expect("generic PPA")
                } else {
                    custom.report
                };
                let utilization_generic = chiplet_utilization(m, &train.generic);
                match assigned {
                    None => TestReport {
                        model_name: m.name().to_owned(),
                        assigned_library: None,
                        similarity: 0.0,
                        coverage: 0.0,
                        utilization_library: 0.0,
                        utilization_generic,
                        custom_config: custom.config.clone(),
                        ppa: AlgoPpa {
                            model_name: m.name().to_owned(),
                            custom: custom.report,
                            generic: generic_ppa,
                            library: custom.report,
                            library_index: usize::MAX,
                        },
                    },
                    Some((lib, similarity)) => {
                        let cfg = &train.libraries[lib].config;
                        TestReport {
                            model_name: m.name().to_owned(),
                            assigned_library: Some(lib),
                            similarity,
                            coverage: algorithm_coverage(m, cfg),
                            utilization_library: chiplet_utilization(m, cfg),
                            utilization_generic,
                            custom_config: custom.config.clone(),
                            ppa: AlgoPpa {
                                model_name: m.name().to_owned(),
                                custom: custom.report,
                                generic: generic_ppa,
                                library: engine.evaluate(m, cfg).expect("library PPA"),
                                library_index: lib,
                            },
                        }
                    }
                }
            })
            .collect();

        let mut per_lib: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (ti, r) in reports.iter().enumerate() {
            if let Some(lib) = r.assigned_library {
                per_lib.entry(lib).or_default().push(ti);
            }
        }
        let nre_rows = per_lib
            .into_iter()
            .map(|(lib, indices)| {
                let names = indices
                    .iter()
                    .map(|&i| tests[i].name().to_owned())
                    .collect();
                let cumulative = indices
                    .iter()
                    .map(|&i| normalized_nre(&opts.nre, &reports[i].custom_config, &train.generic))
                    .sum();
                (lib, names, cumulative, train.libraries[lib].nre_normalized)
            })
            .collect();
        TestOutput { reports, nre_rows }
    }
}

/// Full train + test fingerprint of one planned flow run. The model
/// slices are shared across runs so process-global instance ids
/// (which the Debug rendering includes) cancel out of the comparison.
fn run_fingerprint(
    opts: ClaireOptions,
    training: &[Model],
    tests: &[Model],
    engine: &Engine,
) -> String {
    let claire = Claire::new(opts);
    let train = claire.train_with_engine(training, engine).unwrap();
    let test = claire
        .evaluate_test_with_engine(&train, tests, engine)
        .unwrap();
    format!("{train:?}\n{test:?}")
}

/// [`run_fingerprint`] of the recursive oracle flow.
fn oracle_fingerprint(
    opts: &ClaireOptions,
    training: &[Model],
    tests: &[Model],
    engine: &Engine,
) -> String {
    let train = recursive::train(opts, training, engine);
    let test = recursive::test(opts, &train, tests, engine);
    format!("{train:?}\n{test:?}")
}

#[test]
fn planned_flow_equals_legacy_flow_bit_for_bit() {
    let training = [
        zoo::resnet18(),
        zoo::alexnet(),
        zoo::bert_base(),
        zoo::vgg16(),
    ];
    let tests = [zoo::resnet50(), zoo::vit_base()];
    let opts = ClaireOptions::default();
    let reference = oracle_fingerprint(
        &opts,
        &training,
        &tests,
        &Engine::serial().with_cache(false),
    );
    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            let got = run_fingerprint(opts.clone(), &training, &tests, &engine);
            assert_eq!(
                got, reference,
                "planned flow diverged from the recursive oracle at {threads} thread(s), \
                 cache {cache}"
            );
            let oracle_engine = Engine::new(threads).with_cache(cache);
            let oracle_got = oracle_fingerprint(&opts, &training, &tests, &oracle_engine);
            assert_eq!(
                oracle_got, reference,
                "recursive oracle self-diverged at {threads} thread(s), cache {cache}"
            );
        }
    }
}

#[test]
fn planned_flow_equals_legacy_flow_across_row_chunks() {
    // A 4,000-point space: every model's row is cut into several work
    // chunks at any thread count, so chunk boundaries, the per-chunk
    // sum-tier publish and the scatter back into rows are all crossed
    // (the 81-point cases above give rows of at most 81 points).
    let axis = |n: u32, step: u32| (1..=n).map(|i| i * step).collect::<Vec<u32>>();
    let space = claire::ppa::DseSpace {
        sa_sizes: axis(10, 12),
        n_sas: axis(10, 8),
        n_acts: axis(8, 4),
        n_pools: axis(5, 4),
        threads: None,
    };
    assert_eq!(space.len(), 4_000);
    let opts = ClaireOptions {
        space,
        ..ClaireOptions::default()
    };
    let training = [zoo::resnet18(), zoo::alexnet(), zoo::bert_base()];
    let tests = [zoo::vgg16()];
    let reference = oracle_fingerprint(&opts, &training, &tests, &Engine::serial());
    for threads in THREAD_COUNTS {
        let got = run_fingerprint(opts.clone(), &training, &tests, &Engine::new(threads));
        assert_eq!(
            got, reference,
            "planned flow diverged from the recursive oracle on the 4,000-point space \
             at {threads} thread(s)"
        );
    }
}

#[test]
fn planned_flow_equals_legacy_flow_with_jaccard_subsets() {
    // A training set chosen so agglomeration forms several
    // multi-member subsets, so the library stage's table replay (set
    // screen ⊆ member screens, member-order early-exit totals) is
    // exercised on non-singleton member lists too.
    let opts = ClaireOptions {
        subsets: SubsetStrategy::WeightedJaccard {
            threshold: 0.6,
            scale: WeightScale::Log,
        },
        ..ClaireOptions::default()
    };
    let training = [
        zoo::resnet18(),
        zoo::resnet50(),
        zoo::mobilenet_v2(),
        zoo::bert_base(),
        zoo::vit_base(),
        zoo::gpt2(),
    ];
    let reference = format!(
        "{:?}",
        recursive::train(&opts, &training, &Engine::serial().with_cache(false))
    );
    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            let got = format!(
                "{:?}",
                Claire::new(opts.clone())
                    .train_with_engine(&training, &engine)
                    .unwrap()
            );
            assert_eq!(
                got, reference,
                "planned library synthesis diverged from the recursive oracle at \
                 {threads} thread(s), cache {cache}"
            );
        }
    }
}

#[test]
fn planned_flow_equals_legacy_flow_under_degrade() {
    // An impossible chiplet-area budget forces every stage down the
    // constraint-relaxation ladder: rung 0 replays from the run's
    // table, each relaxed rung re-plans under its own constraints —
    // and the outputs must still match the recursive oracle bit for
    // bit.
    let opts = ClaireOptions {
        constraints: Constraints {
            chiplet_area_limit_mm2: 0.5,
            ..Constraints::default()
        },
        policy: RobustnessPolicy::Degrade,
        ..ClaireOptions::default()
    };
    let training = [zoo::resnet18(), zoo::alexnet()];
    let tests = [zoo::vgg16()];

    let oracle = Engine::serial().with_cache(false);
    let train_ref = recursive::train(&opts, &training, &oracle);
    assert!(train_ref.is_degraded(), "scenario must actually degrade");
    let reference = oracle_fingerprint(&opts, &training, &tests, &oracle);

    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            assert_eq!(
                run_fingerprint(opts.clone(), &training, &tests, &engine),
                reference,
                "degraded planned flow diverged from the recursive oracle at \
                 {threads} thread(s), cache {cache}"
            );
        }
    }
}

#[test]
fn plan_memo_tiers_see_traffic() {
    // The three plan-level coarse memo tiers must all carry traffic
    // on a planned multi-model flow: the comm tier serves every
    // repeated (structure, topology) edge-cost sequence, the merged
    // member-graph path gives the graph tier its first cold hits
    // (member graphs cached by the customs stage are reused by the
    // generic build), and the Louvain tier serves every repeated
    // clustering at an already-resolved resolution.
    let engine = Engine::new(2);
    let claire = Claire::new(ClaireOptions::default());
    let training = [zoo::resnet18(), zoo::alexnet(), zoo::bert_base()];
    let train = claire.train_with_engine(&training, &engine).unwrap();
    let tests = [zoo::vgg16()];
    claire
        .evaluate_test_with_engine(&train, &tests, &engine)
        .unwrap();
    let stats = engine.stats();
    assert!(stats.plan_items > 0, "no plan items enumerated: {stats:?}");
    assert!(
        stats.comm_hits > 0 && stats.comm_misses > 0,
        "comm tier saw no traffic: {stats:?}"
    );
    assert!(
        stats.louvain_hits > 0,
        "repeated clusterings never hit the louvain \
         tier — repeat-\u{3b3} requests are re-deriving: {stats:?}"
    );
    assert!(
        stats.merged_graph_builds > 0,
        "no multi-member graph assembled from cached members: {stats:?}"
    );
    assert!(
        stats.graph_hits > 0,
        "graph tier's cold hit rate is still zero: {stats:?}"
    );
    assert!(
        stats.stages.iter().any(|(name, _)| name == "plan"),
        "plan stage not timed: {stats:?}"
    );
}

/// Every zoo model: the training, test and extended test sets plus
/// the unlisted ones.
fn every_zoo_model() -> Vec<Model> {
    let mut models = zoo::training_set();
    models.extend(zoo::test_set());
    models.extend(zoo::extended_test_set());
    for name in ["UNet", "T5-small", "CLIP-ViT-B32"] {
        models.push(zoo::by_name(name).expect("zoo name"));
    }
    models
}

#[test]
fn custom_for_equals_the_recursive_custom_under_what_if_constraints() {
    // A 5 × 3 × 3 grid over serve's what_if ranges (area 55–110 mm²,
    // power density 0.6–1.2 W/mm², latency slack 0.3–0.7), fail-fast:
    // infeasible cells must fail with the same typed error.
    let mut grid = Vec::new();
    for area in [55.0, 68.75, 82.5, 96.25, 110.0] {
        for power in [0.6, 0.9, 1.2] {
            for slack in [0.3, 0.5, 0.7] {
                grid.push(Constraints {
                    chiplet_area_limit_mm2: area,
                    power_density_limit_w_per_mm2: power,
                    latency_slack: slack,
                });
            }
        }
    }
    assert!(grid.len() >= 40);
    let models = every_zoo_model();
    let oracle = Engine::serial();
    let engines = [Engine::new(1), Engine::new(2)];
    for constraints in grid {
        let opts = ClaireOptions {
            constraints,
            ..ClaireOptions::default()
        };
        let claire = Claire::new(opts.clone());
        for model in &models {
            let want = format!("{:?}", recursive::custom(&opts, model, &oracle));
            for engine in &engines {
                let got = format!("{:?}", claire.custom_for_with_engine(model, engine));
                assert_eq!(
                    got,
                    want,
                    "{} under {constraints:?} at {} thread(s)",
                    model.name(),
                    engine.threads()
                );
            }
        }
    }
}

/// The names of every complete span in `engine`'s trace.
fn span_names(engine: &Engine) -> BTreeSet<String> {
    let json = serde_json::to_string(&engine.telemetry().chrome_trace()).expect("serialise");
    let parsed: Value = serde_json::from_str(&json).expect("trace JSON reparses");
    parsed["traceEvents"]
        .as_array()
        .expect("traceEvents array")
        .iter()
        .filter(|ev| ev["ph"].as_str() == Some("X"))
        .filter_map(|ev| ev["name"].as_str().map(str::to_owned))
        .collect()
}

/// Panics unless `engine`'s trace shows the flat plan pricing points
/// (`plan.eval`) and no recursive sweep doing so (`dse.eval`).
fn assert_planned_only(what: &str, engine: &Engine) {
    let names = span_names(engine);
    assert!(names.contains("plan.eval"), "{what}: no plan.eval span");
    assert!(
        !names.contains("dse.eval"),
        "{what}: a recursive sweep ran in production (dse.eval span)"
    );
}

#[test]
fn no_recursive_sweep_runs_in_production() {
    let engine = Engine::new(2).with_tracing(true);
    Claire::default()
        .custom_for_with_engine(&zoo::alexnet(), &engine)
        .unwrap();
    assert_planned_only("custom_for_with_engine", &engine);

    // A resident engine traces iff a trace path is configured; nothing
    // is written to it unless exported.
    let traced = || ClaireOptions {
        telemetry: TelemetryOptions {
            trace_out: Some(std::env::temp_dir().join("claire-plan-equiv-unwritten.json")),
            ..TelemetryOptions::default()
        },
        ..ClaireOptions::default()
    };
    let roomy = Constraints {
        chiplet_area_limit_mm2: 90.0,
        ..Constraints::default()
    };
    let resident = ResidentEngine::new(traced(), vec![]);
    resident.what_if(&zoo::resnet18(), roomy).unwrap();
    assert_planned_only("what_if", resident.engine());

    let resident = ResidentEngine::new(traced(), vec![]);
    let mut overridden = CustomRequest::new(zoo::gpt2());
    overridden.constraints = Some(roomy);
    for result in resident.custom_batch(&[overridden]) {
        result.unwrap();
    }
    assert_planned_only("overridden custom_batch", resident.engine());

    let degrade = Claire::new(ClaireOptions {
        constraints: Constraints {
            chiplet_area_limit_mm2: 0.5,
            ..Constraints::default()
        },
        policy: RobustnessPolicy::Degrade,
        ..ClaireOptions::default()
    });
    let engine = Engine::new(2).with_tracing(true);
    let training = [zoo::resnet18(), zoo::alexnet()];
    let train = degrade.train_with_engine(&training, &engine).unwrap();
    assert!(train.is_degraded(), "scenario must actually degrade");
    degrade
        .evaluate_test_with_engine(&train, &[zoo::vgg16()], &engine)
        .unwrap();
    assert_planned_only("degraded train + test", &engine);

    let engine = Engine::new(2)
        .with_tracing(true)
        .with_faults(FaultPlan::new(7));
    Claire::default()
        .train_with_engine(&training, &engine)
        .unwrap();
    assert_planned_only("zero-rate fault-armed train", &engine);
}
