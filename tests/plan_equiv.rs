//! Equivalence suite for the flat execution plan: the planned flow
//! (one up-front item set through a single load-balanced parallel
//! map, selections replayed from the evaluation table) must produce
//! results **bit-identical** to the legacy recursive flow (per-model
//! staged sweeps) — at every thread count, cache on or off, fail-fast
//! or degrade. Comparisons go through `format!("{:?}")`, which prints
//! `f64` exactly, so two equal strings mean two bit-equal result
//! sets.
//!
//! The legacy flow stays in the tree behind
//! `ClaireOptions::legacy_flow` (CLI: `--legacy-flow`) precisely to
//! serve as this suite's oracle.

use claire::core::{
    Claire, ClaireOptions, Constraints, Engine, RobustnessPolicy, SubsetStrategy, WeightScale,
};
use claire::model::zoo;

/// Thread counts the suite sweeps: the serial edge case, a small
/// pool, and more workers than this container has cores.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn planned() -> ClaireOptions {
    ClaireOptions::default()
}

fn legacy() -> ClaireOptions {
    ClaireOptions {
        legacy_flow: true,
        ..ClaireOptions::default()
    }
}

/// Full train + test fingerprint of one flow run. The model slices
/// are shared across runs so process-global instance ids (which the
/// Debug rendering includes) cancel out of the comparison.
fn run_fingerprint(
    opts: ClaireOptions,
    training: &[claire::model::Model],
    tests: &[claire::model::Model],
    engine: &Engine,
) -> String {
    let claire = Claire::new(opts);
    let train = claire.train_with_engine(training, engine).unwrap();
    let test = claire
        .evaluate_test_with_engine(&train, tests, engine)
        .unwrap();
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
    let reference = run_fingerprint(
        legacy(),
        &training,
        &tests,
        &Engine::serial().with_cache(false),
    );
    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            let got = run_fingerprint(planned(), &training, &tests, &engine);
            assert_eq!(
                got, reference,
                "planned flow diverged from the legacy oracle at {threads} thread(s), \
                 cache {cache}"
            );
            let legacy_engine = Engine::new(threads).with_cache(cache);
            let legacy_got = run_fingerprint(legacy(), &training, &tests, &legacy_engine);
            assert_eq!(
                legacy_got, reference,
                "legacy flow self-diverged at {threads} thread(s), cache {cache}"
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
    let opts = |legacy_flow| ClaireOptions {
        space: space.clone(),
        legacy_flow,
        ..ClaireOptions::default()
    };
    let training = [zoo::resnet18(), zoo::alexnet(), zoo::bert_base()];
    let tests = [zoo::vgg16()];
    let reference = run_fingerprint(opts(true), &training, &tests, &Engine::serial());
    for threads in THREAD_COUNTS {
        let got = run_fingerprint(opts(false), &training, &tests, &Engine::new(threads));
        assert_eq!(
            got, reference,
            "planned flow diverged from the legacy oracle on the 4,000-point space \
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
    let opts = |legacy_flow| ClaireOptions {
        subsets: SubsetStrategy::WeightedJaccard {
            threshold: 0.6,
            scale: WeightScale::Log,
        },
        legacy_flow,
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
        Claire::new(opts(true))
            .train_with_engine(&training, &Engine::serial().with_cache(false))
            .unwrap()
    );
    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            let got = format!(
                "{:?}",
                Claire::new(opts(false))
                    .train_with_engine(&training, &engine)
                    .unwrap()
            );
            assert_eq!(
                got, reference,
                "planned library synthesis diverged from the legacy oracle at \
                 {threads} thread(s), cache {cache}"
            );
        }
    }
}

#[test]
fn planned_flow_equals_legacy_flow_under_degrade() {
    // An impossible chiplet-area budget forces every stage down the
    // constraint-relaxation ladder: rung 0 replays from the plan
    // table, the relaxed rungs fall back to the legacy recursive
    // sweep — and the outputs must still match the all-legacy oracle
    // bit for bit.
    let tight = Constraints {
        chiplet_area_limit_mm2: 0.5,
        ..Constraints::default()
    };
    let opts = |legacy_flow| ClaireOptions {
        constraints: tight,
        policy: RobustnessPolicy::Degrade,
        legacy_flow,
        ..ClaireOptions::default()
    };
    let claire_legacy = Claire::new(opts(true));
    let claire_planned = Claire::new(opts(false));
    let training = [zoo::resnet18(), zoo::alexnet()];
    let tests = [zoo::vgg16()];

    let oracle = Engine::serial().with_cache(false);
    let train_ref = claire_legacy.train_with_engine(&training, &oracle).unwrap();
    assert!(train_ref.is_degraded(), "scenario must actually degrade");
    let test_ref = claire_legacy
        .evaluate_test_with_engine(&train_ref, &tests, &oracle)
        .unwrap();
    let reference = format!("{train_ref:?}\n{test_ref:?}");

    for threads in THREAD_COUNTS {
        for cache in [false, true] {
            let engine = Engine::new(threads).with_cache(cache);
            let train = claire_planned
                .train_with_engine(&training, &engine)
                .unwrap();
            let test = claire_planned
                .evaluate_test_with_engine(&train, &tests, &engine)
                .unwrap();
            assert_eq!(
                format!("{train:?}\n{test:?}"),
                reference,
                "degraded planned flow diverged from the legacy oracle at \
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
    let claire = Claire::new(planned());
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

#[test]
fn legacy_flag_actually_routes_to_the_recursive_flow() {
    let engine = Engine::new(2);
    Claire::new(legacy())
        .train_with_engine(&[zoo::resnet18(), zoo::alexnet()], &engine)
        .unwrap();
    let stats = engine.stats();
    assert_eq!(
        stats.plan_items, 0,
        "legacy flow must not enumerate plan items: {stats:?}"
    );
    assert!(
        !stats.stages.iter().any(|(name, _)| name == "plan"),
        "legacy flow must not run a plan stage: {stats:?}"
    );
}
