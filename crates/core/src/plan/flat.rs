//! The flat execution plan: one up-front item set for a whole flow.
//!
//! The recursive reference sweep ([`crate::dse`]) runs one staged DSE
//! sweep per model; the outer parallel map claims whole models, the
//! nested per-point maps are forced serial inside workers, and models
//! of very different sizes leave workers idle. The flat plan instead
//! enumerates **every** `(model, hw-point)` evaluation the flow will
//! need and feeds them through one [`Engine::par_map`] per stage
//! (lower bounds, then pricing). It is the only production evaluator
//! for exhaustive selection: a custom or a relaxed rung that needs
//! other constraints plans its own table under them.
//!
//! **Work unit.** One map item is a contiguous chunk of one model's
//! row. A row is cut into about `4 × threads` chunks (see [`chunks`]),
//! so the atomic work cursor still balances rows of unequal cost, and
//! each item resolves the row's state once: the structural id and
//! interned `LayerBatch`, the comm-tier edge sequence (a monolithic
//! shell's topology does not depend on `hw`) and one scratch buffer.
//! Cooperative cancellation is still checked before every point.
//!
//! **Lock rule.** No item takes a shared memo lock per point. Stage A
//! resolves each space point's area table once, up front; an item reads
//! the compute-sum tier under one read lock and publishes its misses
//! under one write lock (see [`Engine`]'s `price_shell_points`). Lower
//! bounds are not memoized at all: each row keeps its own.
//!
//! The per-model and per-subset *selections* then replay serially from
//! the resulting [`EvalTable`]. Replay calls the exact selection code
//! the recursive flow uses ([`crate::dse::select_custom_config`],
//! [`crate::dse::select_set_hw`]) on the same point lists in the same
//! space iteration order, and every table entry is bit-identical to
//! the [`Engine::evaluate`] call the recursive flow would make —
//! deterministic and cache-state-independent by the engine's core
//! invariant — so the planned flow's outputs are bit-identical to the
//! recursive flow's at any thread count.

use crate::config::{Constraints, DesignConfig};
use crate::dse::{
    monolithic_for, select_custom_config, select_set_hw, DseObjective, DsePoint, SHELL_HW,
};
use crate::error::ClaireError;
use crate::evaluate::PpaReport;
use crate::parallel::{area_from_table, AreaTable, Engine};
use crate::telemetry::ArgValue;
use claire_model::{Model, OpClass};
use claire_ppa::{DseSpace, HwParams};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// [`ModelRow::row_of`] entry of a space point the row's area screen
/// dropped.
const NOT_IN_ROW: u32 = u32::MAX;

/// Map items per worker per row: enough that the work cursor evens out
/// rows of unequal cost, few enough that each item's set-up (a handful
/// of lock round trips) stays negligible against its points.
const CHUNKS_PER_WORKER: usize = 4;

/// Cuts `0..len` into contiguous chunks of `⌈len / (4 · threads)⌉`
/// indices — the flat plan's work items, sized from the row length and
/// the thread count alone.
fn chunks(len: usize, threads: usize) -> impl Iterator<Item = Range<usize>> {
    let size = len.div_ceil(CHUNKS_PER_WORKER * threads).max(1);
    (0..len)
        .step_by(size)
        .map(move |lo| lo..(lo + size).min(len))
}

/// One model's slice of the evaluation table: its area-screened DSE
/// points in space iteration order, with each point's
/// monolithic-shell evaluation (`None` when the evaluation surfaced
/// an error — the same points the recursive sweep drops) and a marker
/// for points the latency lower-bound screen dropped *before*
/// evaluation (the same points the recursive stage A′ drops).
///
/// The row also carries what the subset replays need so they never go
/// back to a memo tier: the shell's area and the compute-cycle lower
/// bound at each point, and a space-index → row-index map.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// The model's area-screened hardware points, in space iteration
    /// order.
    pub points: Vec<HwParams>,
    /// Per-point monolithic-shell reports, parallel to `points`.
    /// `None` for failed evaluations *and* for lb-screened points —
    /// `lb_screened` tells them apart.
    pub reports: Vec<Option<PpaReport>>,
    /// Parallel to `points`: `true` when the latency lower-bound
    /// screen proved the point can never be selected, so the plan
    /// never priced it. A subset replay that still needs such a point
    /// (its member-set bound can be looser than this row's pivot
    /// bound) prices it lazily — see [`set_config_from_table`].
    lb_screened: Vec<bool>,
    /// Parallel to `points`: the shell's monolithic area — the value
    /// stage A screened on, and the area every evaluation of the
    /// point reports.
    areas: Vec<f64>,
    /// Parallel to `points`: compute-cycle lower bounds
    /// ([`Engine::compute_cycles_lb`]); empty when the build's lb
    /// screen did not run.
    lbs: Vec<u64>,
    /// Space index → index into `points`; [`NOT_IN_ROW`] for points
    /// the area screen dropped.
    row_of: Vec<u32>,
}

impl ModelRow {
    /// The feasible [`DsePoint`]s of this row under `constraints`, in
    /// space iteration order — exactly the recursive
    /// [`crate::dse::sweep_with_engine`] survivor list: area screen,
    /// then the latency lower-bound screen, then per-point
    /// feasibility. Every selection over it is bit-identical to the
    /// recursive flow's (the shared
    /// [`crate::dse::select_custom_config`] tail, see the
    /// [`crate::search`] soundness argument).
    pub fn feasible_points(&self, constraints: &Constraints) -> Vec<DsePoint> {
        self.points
            .iter()
            .zip(&self.reports)
            .zip(&self.lb_screened)
            .filter_map(|((&hw, r), &screened)| {
                if screened {
                    return None;
                }
                let report = (*r)?;
                let feasible = report.area_mm2 <= constraints.chiplet_area_limit_mm2
                    && report.power_density_w_per_mm2()
                        <= constraints.power_density_limit_w_per_mm2;
                feasible.then_some(DsePoint { hw, report })
            })
            .collect()
    }

    /// The compute-cycle lower bound at row index `ri`: the stored
    /// bound, or the kernel when the build's lb screen did not run.
    fn cycles_lb(&self, ri: usize, model: &Model, engine: &Engine) -> u64 {
        match self.lbs.get(ri) {
            Some(&lb) => lb,
            None => engine.compute_cycles_lb(model, &self.points[ri]),
        }
    }

    /// Prices `model`'s `shell` at row index `ri` — the value the
    /// plan's pricing map produces there.
    fn price(
        &self,
        ri: usize,
        model: &Model,
        shell: &DesignConfig,
        engine: &Engine,
    ) -> Option<PpaReport> {
        let point = (self.points[ri], self.areas[ri]);
        engine.price_shell_points(model, shell, &[point], &|| false)[0]
    }

    /// The monolithic-shell report at row index `ri`: the stored one,
    /// or — for a point the row's lb screen dropped — priced now.
    fn report(
        &self,
        ri: usize,
        model: &Model,
        shell: &DesignConfig,
        engine: &Engine,
    ) -> Option<PpaReport> {
        if self.lb_screened[ri] {
            self.price(ri, model, shell, engine)
        } else {
            self.reports[ri]
        }
    }
}

/// The flat plan's output: every `(model, hw-point)` evaluation a flow
/// needs, computed once through a single load-balanced parallel map.
#[derive(Debug, Clone)]
pub struct EvalTable {
    /// The full DSE space, in iteration order (the subset replays
    /// re-screen from it).
    pub space_points: Vec<HwParams>,
    /// Per-model monolithic DSE shells, parallel to the planned model
    /// list.
    pub shells: Vec<DesignConfig>,
    /// Per-model rows, parallel to the planned model list.
    pub rows: Vec<ModelRow>,
}

/// Builds the evaluation table for `models`: screens each model's
/// points from the engine's memoized area tables (stage A of the
/// staged sweep, identical constraints and counters), bounds and
/// pivot-screens them (stage A′), then prices every surviving
/// `(model, hw-point)` through one [`Engine::par_map`] of row chunks.
/// The number of priced points lands on the `plan.items` counter.
pub fn build_eval_table(
    models: &[Model],
    space: &DseSpace,
    constraints: &Constraints,
    engine: &Engine,
) -> EvalTable {
    build_eval_table_cancellable(models, space, constraints, engine, &[])
}

/// [`build_eval_table`] with per-model cooperative cancellation.
///
/// `cancels` is parallel to `models` (an empty slice disables
/// cancellation entirely). Pricing checks a model's flag before each
/// of its points — the cooperative checkpoint — and leaves the rest of
/// the chunk unpriced once it is set, so an expired request stops
/// consuming workers at point granularity. A cancelled model's row is
/// garbage (its caller must discard it); every *other* model's row is
/// bit-identical to an uncancelled build, because screens, bounds, and
/// evaluations are per-model and the shared memo tiers hold exact
/// values — skipping a neighbour's points can only *miss* warm
/// entries, never write wrong ones.
pub fn build_eval_table_cancellable(
    models: &[Model],
    space: &DseSpace,
    constraints: &Constraints,
    engine: &Engine,
    cancels: &[Arc<AtomicBool>],
) -> EvalTable {
    let cancelled = |mi: usize| cancels.get(mi).is_some_and(|c| c.load(Ordering::Relaxed));
    let threads = engine.threads();
    let space_points: Vec<HwParams> = space.iter().collect();
    let shells: Vec<DesignConfig> = models.iter().map(|m| monolithic_for(m, SHELL_HW)).collect();

    // Stage A per model: the same sound area screen the recursive
    // sweep applies. Each space point's area table is resolved once,
    // not once per model; every model's shell area is then summed
    // from those tables.
    let tables: Vec<AreaTable> = space_points
        .iter()
        .map(|hw| engine.area_table(hw))
        .collect();
    let limit = engine
        .pruning_enabled()
        .then_some(constraints.chiplet_area_limit_mm2);
    let mut rows: Vec<ModelRow> = shells
        .iter()
        .map(|shell| {
            let span = limit.map(|_| engine.telemetry().span("dse.screen", "dse"));
            let row = screen_row(shell, &space_points, &tables, limit);
            if let Some(mut span) = span {
                let pruned = (space_points.len() - row.points.len()) as u64;
                engine.note_dse_pruned(pruned);
                span.arg("pruned", ArgValue::Int(pruned));
                span.arg("kept", ArgValue::Int(row.points.len() as u64));
            }
            row
        })
        .collect();
    drop(tables);

    // Stage A′ per model: the latency lower-bound screen — the same
    // sound pre-pricing drop the recursive sweep applies (see
    // [`crate::search`]). Every row's bounds come from one map of row
    // chunks; each model's pivot — its first minimal-bound point in
    // space order — is priced, and every point whose bound exceeds the
    // pivot's slack-widened latency is marked screened: provably never
    // selectable, so the pricing map need not price it.
    if engine.lb_screen_enabled() && constraints.latency_slack.is_finite() {
        let mut span = engine.telemetry().span("plan.lb_screen", "plan");
        let items = row_chunks(rows.iter().map(|row| row.points.len()), threads);
        let lbs: Vec<Vec<u64>> = engine.par_map(&items, |_, (mi, r)| {
            engine.cycles_lb_points(&models[*mi], &rows[*mi].points[r.clone()])
        });
        for ((mi, _), lbs) in items.iter().zip(lbs) {
            rows[*mi].lbs.extend(lbs);
        }
        // Pivot per model: first index with minimal bound (u64
        // compare — exact, order-deterministic).
        let pivots: Vec<Option<usize>> = rows
            .iter()
            .map(|row| {
                (!row.lbs.is_empty()).then(|| {
                    let mut pivot = 0usize;
                    for (i, &lb) in row.lbs.iter().enumerate() {
                        if lb < row.lbs[pivot] {
                            pivot = i;
                        }
                    }
                    pivot
                })
            })
            .collect();
        // Price every pivot (one small parallel map over models); an
        // infeasible or failed pivot yields no sound bound — keep all.
        let bounds: Vec<f64> = engine.par_map(&pivots, |mi, pivot| {
            let Some(pi) = *pivot else {
                return f64::INFINITY;
            };
            if cancelled(mi) {
                // Cooperative checkpoint: an infinite bound keeps the
                // model's points unscreened, and the pricing map below
                // skips them anyway.
                return f64::INFINITY;
            }
            match rows[mi].price(pi, &models[mi], &shells[mi], engine) {
                Some(r)
                    if r.area_mm2 <= constraints.chiplet_area_limit_mm2
                        && r.power_density_w_per_mm2()
                            <= constraints.power_density_limit_w_per_mm2 =>
                {
                    r.latency_s * (1.0 + constraints.latency_slack)
                }
                _ => f64::INFINITY,
            }
        });
        let clock = claire_ppa::tech28::CLOCK_HZ;
        let mut total_pruned: u64 = 0;
        for (row, &bound) in rows.iter_mut().zip(&bounds) {
            if !bound.is_finite() {
                continue;
            }
            for (screened, &lb) in row.lb_screened.iter_mut().zip(&row.lbs) {
                // The pivot's own bound never exceeds its latency, so
                // the pivot always survives its own screen.
                if lb as f64 / clock > bound {
                    *screened = true;
                    total_pruned += 1;
                }
            }
        }
        engine.note_dse_lb_pruned(total_pruned);
        span.arg("pruned", ArgValue::Int(total_pruned));
    }

    // The pricing map: every surviving point of the flow, claimed in
    // row chunks.
    let live: Vec<Vec<usize>> = rows
        .iter()
        .map(|row| {
            (0..row.points.len())
                .filter(|&pi| !row.lb_screened[pi])
                .collect()
        })
        .collect();
    let priced = live.iter().map(Vec::len).sum::<usize>() as u64;
    if engine.pruning_enabled() {
        engine.note_dse_evaluated(priced);
    }
    engine.note_plan_items(priced);
    let items = row_chunks(live.iter().map(Vec::len), threads);
    let mut span = engine.telemetry().span("plan.eval", "plan");
    span.arg("items", ArgValue::Int(priced));
    span.arg("chunks", ArgValue::Int(items.len() as u64));
    let reports: Vec<Vec<Option<PpaReport>>> = engine.par_map(&items, |_, (mi, r)| {
        let row = &rows[*mi];
        let points: Vec<(HwParams, f64)> = live[*mi][r.clone()]
            .iter()
            .map(|&pi| (row.points[pi], row.areas[pi]))
            .collect();
        engine.price_shell_points(&models[*mi], &shells[*mi], &points, &|| cancelled(*mi))
    });
    drop(span);

    // Scatter the chunks back into their rows; lb-screened slots stay
    // `None` (never priced).
    for row in &mut rows {
        row.reports = vec![None; row.points.len()];
    }
    for ((mi, r), chunk) in items.iter().zip(reports) {
        for (&pi, report) in live[*mi][r.clone()].iter().zip(chunk) {
            rows[*mi].reports[pi] = report;
        }
    }

    EvalTable {
        space_points,
        shells,
        rows,
    }
}

/// Stage A for one shell: the row of space points whose monolithic
/// shell area fits under `limit` (every point when `limit` is `None`,
/// i.e. pruning is off), with each kept point's area.
fn screen_row(
    shell: &DesignConfig,
    space_points: &[HwParams],
    tables: &[AreaTable],
    limit: Option<f64>,
) -> ModelRow {
    let mut row = ModelRow {
        points: Vec::new(),
        reports: Vec::new(),
        lb_screened: Vec::new(),
        areas: Vec::new(),
        lbs: Vec::new(),
        row_of: Vec::with_capacity(space_points.len()),
    };
    for (&hw, table) in space_points.iter().zip(tables) {
        let area = area_from_table(&shell.classes, table);
        if limit.is_some_and(|limit| area > limit) {
            row.row_of.push(NOT_IN_ROW);
        } else {
            row.row_of.push(row.points.len() as u32);
            row.points.push(hw);
            row.areas.push(area);
        }
    }
    row.lb_screened = vec![false; row.points.len()];
    row
}

/// The map items over rows of the given lengths: `(row, chunk)` pairs
/// in row order, then chunk order.
fn row_chunks(lens: impl Iterator<Item = usize>, threads: usize) -> Vec<(usize, Range<usize>)> {
    lens.enumerate()
        .flat_map(|(mi, len)| chunks(len, threads).map(move |r| (mi, r)))
        .collect()
}

/// The flat-plan replay of [`crate::dse::custom_config_with_engine`]:
/// filters the model's row to its feasible points (the recursive
/// sweep's exact survivor list) and runs the shared selection tail.
///
/// # Errors
///
/// Same as [`crate::dse::custom_config`].
pub fn custom_from_row(
    model: &Model,
    row: &ModelRow,
    constraints: &Constraints,
    objective: DseObjective,
) -> Result<(DesignConfig, PpaReport), ClaireError> {
    select_custom_config(
        model,
        row.feasible_points(constraints),
        constraints,
        objective,
    )
}

/// The flat-plan replay of [`crate::dse::set_config_with_engine`]:
/// screens the space for the member set (every member's shell must
/// fit, then the members' custom-latency lower bounds — same screens,
/// same counters), computes each surviving point's member-total area
/// from the table in member order (the recursive sweep's exact
/// early-exit fold), and runs the shared selection fold.
///
/// The screens read the members' rows, not the memo tiers. A point
/// fits every member's shell when it is in every member's row (the
/// rows were screened by the same area function), and its lower
/// bounds are the rows' stored ones. So `constraints` may not carry a
/// looser area limit than the build's; a tighter one selects the same
/// point, because the fold below re-checks every member's area.
///
/// A surviving point may have been lb-screened in a *member's* row
/// (the member's pivot bound can be tighter than its custom-latency
/// bound); such points are priced lazily here — bit-identical to the
/// plan's pricing, so the fold's inputs are unchanged.
///
/// # Errors
///
/// Same as [`crate::dse::set_config`].
pub fn set_config_from_table(
    name: &str,
    members: &[usize],
    models: &[Model],
    table: &EvalTable,
    constraints: &Constraints,
    custom_latency_s: &BTreeMap<String, f64>,
    engine: &Engine,
) -> Result<DesignConfig, ClaireError> {
    if members.is_empty() {
        return Err(ClaireError::EmptyAlgorithmSet);
    }
    let n = table.space_points.len();
    // A member's row index for a kept space index.
    let ri = |mi: usize, si: usize| table.rows[mi].row_of[si] as usize;
    // The surviving space indices.
    let mut kept: Vec<usize> = {
        let span = engine
            .pruning_enabled()
            .then(|| engine.telemetry().span("dse.screen", "dse"));
        let kept: Vec<usize> = (0..n)
            .filter(|&si| {
                members
                    .iter()
                    .all(|&mi| table.rows[mi].row_of[si] != NOT_IN_ROW)
            })
            .collect();
        if let Some(mut span) = span {
            let pruned = (n - kept.len()) as u64;
            engine.note_dse_pruned(pruned);
            span.arg("pruned", ArgValue::Int(pruned));
            span.arg("kept", ArgValue::Int(kept.len() as u64));
        }
        kept
    };
    // Stage A′: members with a custom latency reference admit an
    // absolute latency bound known before any pricing — the same
    // screen the recursive set sweep applies (see
    // [`crate::dse::set_config_with_engine`]); a dropped point's
    // member fold would have come back `None` anyway.
    if engine.lb_screen_enabled() && constraints.latency_slack.is_finite() && !kept.is_empty() {
        let bounds: Vec<(usize, f64)> = members
            .iter()
            .filter_map(|&mi| {
                custom_latency_s
                    .get(models[mi].name())
                    .map(|&l| (mi, l * (1.0 + constraints.latency_slack)))
            })
            .filter(|(_, b)| b.is_finite())
            .collect();
        if !bounds.is_empty() {
            let mut span = engine.telemetry().span("dse.lb_screen", "dse");
            let clock = claire_ppa::tech28::CLOCK_HZ;
            let before = kept.len();
            kept.retain(|&si| {
                bounds.iter().all(|&(mi, bound)| {
                    table.rows[mi].cycles_lb(ri(mi, si), &models[mi], engine) as f64 / clock
                        <= bound
                })
            });
            engine.note_dse_lb_pruned((before - kept.len()) as u64);
            span.arg("pruned", ArgValue::Int((before - kept.len()) as u64));
            span.arg("kept", ArgValue::Int(kept.len() as u64));
        }
    }
    if engine.pruning_enabled() {
        engine.note_dse_evaluated(kept.len() as u64);
    }
    let totals: Vec<Option<f64>> = kept
        .iter()
        .map(|&si| {
            let mut total_area = 0.0;
            for &mi in members {
                let m = &models[mi];
                let report = table.rows[mi].report(ri(mi, si), m, &table.shells[mi], engine)?;
                let latency_ok = custom_latency_s
                    .get(m.name())
                    .map(|&l| report.latency_s <= l * (1.0 + constraints.latency_slack))
                    .unwrap_or(true);
                if report.area_mm2 > constraints.chiplet_area_limit_mm2
                    || report.power_density_w_per_mm2() > constraints.power_density_limit_w_per_mm2
                    || !latency_ok
                {
                    return None;
                }
                total_area += report.area_mm2;
            }
            Some(total_area)
        })
        .collect();

    let points: Vec<HwParams> = kept.iter().map(|&si| table.space_points[si]).collect();
    let hw = select_set_hw(name, &points, &totals)?;
    let classes: BTreeSet<OpClass> = members
        .iter()
        .flat_map(|&mi| table.shells[mi].classes.iter().copied())
        .collect();
    Ok(DesignConfig::monolithic(name, hw, classes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Metric;
    use claire_model::zoo;

    fn models() -> Vec<Model> {
        vec![zoo::resnet18(), zoo::alexnet(), zoo::bert_base()]
    }

    fn row_text(row: &ModelRow) -> String {
        format!("{row:?}")
    }

    #[test]
    fn chunks_tile_the_row_in_order() {
        for len in [0, 1, 7, 81, 4_000] {
            for threads in [1, 2, 8] {
                let cut: Vec<Range<usize>> = chunks(len, threads).collect();
                let flat: Vec<usize> = cut.iter().flat_map(Clone::clone).collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "{len} at {threads}");
                assert!(cut.len() <= CHUNKS_PER_WORKER * threads);
            }
        }
    }

    #[test]
    fn chunk_pricing_equals_engine_evaluate_on_long_rows() {
        // Rows of hundreds of points, cut into chunks at every thread
        // count: each priced entry must be the report a cache-off
        // `Engine::evaluate` gives for its point.
        let axis = |n: u32, step: u32| (1..=n).map(|i| i * step).collect::<Vec<u32>>();
        let space = DseSpace {
            sa_sizes: axis(10, 12),
            n_sas: axis(10, 8),
            n_acts: axis(8, 4),
            n_pools: axis(5, 4),
            threads: None,
        };
        let constraints = Constraints::default();
        let models = [zoo::resnet18(), zoo::bert_base()];
        let oracle = Engine::serial().with_cache(false);
        let reference = build_eval_table(&models, &space, &constraints, &Engine::new(1));
        for ((m, shell), row) in models.iter().zip(&reference.shells).zip(&reference.rows) {
            assert!(
                row.points.len() > CHUNKS_PER_WORKER * 8,
                "{}",
                row.points.len()
            );
            for (pi, &hw) in row.points.iter().enumerate() {
                if row.lb_screened[pi] {
                    continue;
                }
                let mut cfg = shell.clone();
                cfg.hw = hw;
                let want = oracle.evaluate(m, &cfg).ok();
                assert_eq!(format!("{:?}", row.reports[pi]), format!("{want:?}"));
            }
        }
        for threads in [2, 8] {
            let table = build_eval_table(&models, &space, &constraints, &Engine::new(threads));
            for (row, want) in table.rows.iter().zip(&reference.rows) {
                assert_eq!(row_text(row), row_text(want), "{threads} threads");
            }
        }
    }

    #[test]
    fn model_cancelled_before_the_build_prices_nothing() {
        let (space, constraints) = (DseSpace::default(), Constraints::default());
        let models = models();
        let full = build_eval_table(&models, &space, &constraints, &Engine::new(2));

        let engine = Engine::new(2);
        let cancels: Vec<Arc<AtomicBool>> = (0..models.len())
            .map(|mi| Arc::new(AtomicBool::new(mi == 1)))
            .collect();
        let table = build_eval_table_cancellable(&models, &space, &constraints, &engine, &cancels);
        assert!(table.rows[1].reports.iter().all(Option::is_none));
        for mi in [0, 2] {
            assert_eq!(
                row_text(&table.rows[mi]),
                row_text(&full.rows[mi]),
                "row {mi}"
            );
        }

        // The cancelled model took no compute-sum miss: its neighbours
        // alone account for every one.
        let neighbours = [models[0].clone(), models[2].clone()];
        let alone = Engine::new(2);
        build_eval_table(&neighbours, &space, &constraints, &alone);
        assert!(alone.stats().sum_misses > 0);
        assert_eq!(engine.stats().sum_misses, alone.stats().sum_misses);
    }

    #[test]
    fn set_replay_reads_rows_not_the_area_or_lb_tiers() {
        let (space, constraints) = (DseSpace::default(), Constraints::default());
        let models = models();
        let engine = Engine::new(2);
        let table = build_eval_table(&models, &space, &constraints, &engine);
        let custom_latency: BTreeMap<String, f64> = models
            .iter()
            .zip(&table.rows)
            .map(|(m, row)| {
                let (_, report) =
                    custom_from_row(m, row, &constraints, DseObjective::MinArea).unwrap();
                (m.name().to_owned(), report.latency_s)
            })
            .collect();

        let t = engine.telemetry();
        let area = (t.counter(Metric::AreaHit), t.counter(Metric::AreaMiss));
        let members: Vec<usize> = (0..models.len()).collect();
        let replayed = set_config_from_table(
            "C_g",
            &members,
            &models,
            &table,
            &constraints,
            &custom_latency,
            &engine,
        )
        .unwrap();
        assert_eq!(
            (t.counter(Metric::AreaHit), t.counter(Metric::AreaMiss)),
            area
        );
        assert_eq!(engine.stats().lb_entries, 0);

        // The same selection as the recursive set sweep.
        let refs: Vec<&Model> = models.iter().collect();
        let swept = crate::dse::set_config_with_engine(
            "C_g",
            &refs,
            &space,
            &constraints,
            &custom_latency,
            &Engine::serial(),
        )
        .unwrap();
        assert_eq!(format!("{replayed:?}"), format!("{swept:?}"));
    }
}
