//! **Accuracy ↔ hardware-cost Pareto search**: trains vision models with
//! the Table-2 protocol, then runs the sensitivity-ordered greedy
//! demotion search ([`mersit_ptq::greedy_search`]) from the all-MERSIT
//! corner, pricing every candidate assignment with the gate-level MAC
//! roll-up (`mersit_hw::assignment_cost` weighted by
//! [`mersit_ptq::layer_macs`]). Emits `BENCH_pareto.json` with uniform
//! baselines, the search trajectory, Pareto-front flags, and which
//! uniform non-MERSIT formats each mixed point dominates.
//!
//! Set `MERSIT_ASSIGN` to additionally score a pinned assignment spec
//! (e.g. `MERSIT(8,2);0_conv=FP(8,4)`).
//!
//! Usage: `cargo run --release -p mersit-bench --bin pareto [-- --quick]`

#![allow(
    clippy::pedantic,
    clippy::string_slice,
    clippy::unusual_byte_groupings,
    clippy::type_complexity
)]

use mersit_core::{parse_format, FormatRef};
use mersit_nn::models::{mobilenet_v3_t, vgg_t, Model};
use mersit_nn::{synthetic_images, train_classifier, Optimizer, TrainConfig};
use mersit_obs::report::json_string;
use mersit_ptq::{
    evaluate_model, greedy_search, layer_macs, layer_sensitivity, pareto_front, Executor,
    FormatAssignment, Metric, ParetoPoint, SearchConfig,
};
use mersit_tensor::{par, Rng};
use std::fmt::Write as _;
use std::time::Instant;

/// One priced-and-scored uniform corner (or pinned assignment).
struct UniformPoint {
    format: String,
    accuracy: f64,
    area_um2: f64,
    power_uw: f64,
}

/// One search point with its front flag and dominance list.
struct FrontPoint {
    point: ParetoPoint,
    on_front: bool,
    dominates: Vec<String>,
}

struct ModelReport {
    model: String,
    fp32: f64,
    table2_mersit: f64,
    uniform: Vec<UniformPoint>,
    pinned: Vec<UniformPoint>,
    front: Vec<FrontPoint>,
}

fn main() {
    mersit_obs::init_from_env();
    let quick = std::env::args().any(|a| a == "--quick");
    let (hw, n_train, n_test, epochs, pool, stream_dot) = if quick {
        (10, 800, 250, 4, 300, 32)
    } else {
        (12, 1400, 600, 6, 2000, 32)
    };
    let threads = par::pool_size();
    let t0 = Instant::now();

    // Operand pools from an independently trained model: the "actual DNN
    // data" every MAC simulation shares (one gate-level sim per format,
    // memoized across the whole run).
    let ops = mersit_bench::trained_dnn_operands(0x0DA7A, pool);
    let mut cache = mersit_hw::MacCostCache::new(ops.weights, ops.activations, stream_dot);

    let base = parse_format("MERSIT(8,2)").expect("valid");
    // Uniform corners to score and price: the base plus the alternatives
    // whose MAC fits the gate-level simulator (wide-range formats like
    // FP(8,5) / Posit(8,3) blow the 63-bit Kulisch simulation limit).
    let uniform_fmts: Vec<FormatRef> = [
        "MERSIT(8,2)",
        "FP(8,4)",
        "FP(8,3)",
        "Posit(8,1)",
        "Posit(8,0)",
    ]
    .iter()
    .map(|n| parse_format(n).expect("valid"))
    .collect();
    // Demotion candidates for the greedy search (cheapest-area first is
    // established by the search itself; Posits are priced out).
    let cfg = SearchConfig {
        candidates: uniform_fmts[1..].to_vec(),
        tolerance: 0.8,
        max_swaps: if quick { 4 } else { 8 },
    };
    let executor = Executor::from_env();
    let pinned_assign = FormatAssignment::from_env().expect("MERSIT_ASSIGN parses");

    let ds = synthetic_images(0x1A6E, n_train, n_test, hw);
    println!(
        "pareto search on {} ({} train / {} test, {} threads){}\n",
        ds.name,
        n_train,
        n_test,
        threads,
        if quick { " [quick]" } else { "" }
    );

    let builders: [(&str, fn(usize, usize, &mut Rng) -> Model); 2] =
        [("vgg_t", vgg_t), ("mobilenet_v3_t", mobilenet_v3_t)];
    let mut reports = Vec::new();
    for (name, build) in builders {
        let t1 = Instant::now();
        let mut rng = Rng::new(0xBEEF ^ name.len() as u64);
        let mut model = build(hw, 10, &mut rng);
        let cfg_train = TrainConfig {
            epochs,
            batch_size: 32,
            opt: Optimizer::adam(2e-3),
            ..TrainConfig::default()
        };
        train_classifier(&mut model.net, &ds.train, &cfg_train);

        // Uniform sweep: Table-2 protocol, one plan per corner format.
        let (row, cal) = evaluate_model(&model, &ds, &uniform_fmts, Metric::Accuracy, 50);
        let table2_mersit = row.score_of(&base.name()).expect("base scored");

        // Per-layer MAC weights and the cost closure over the roll-up.
        let macs = layer_macs(&model, &ds.test.inputs.slice_outer(0, 1));
        let mut cost = |a: &FormatAssignment| -> Option<(f64, f64)> {
            let layers: Vec<(FormatRef, u64)> = macs
                .iter()
                .map(|l| (a.format_for(&l.path).clone(), l.macs))
                .collect();
            mersit_hw::assignment_cost(&mut cache, &layers)
                .ok()
                .map(|c| (c.area_um2, c.power_uw))
        };

        let uniform: Vec<UniformPoint> = row
            .scores
            .iter()
            .filter_map(|s| {
                let fmt = parse_format(&s.format).expect("valid");
                let (area_um2, power_uw) = cost(&FormatAssignment::uniform(fmt))?;
                Some(UniformPoint {
                    format: s.format.clone(),
                    accuracy: s.score,
                    area_um2,
                    power_uw,
                })
            })
            .collect();

        // Demotion order: least-sensitive GEMM layers first.
        let sens = layer_sensitivity(&model, &cal, &base, &ds.calib.inputs, 50);
        let mut order: Vec<(f64, String)> = sens
            .iter()
            .filter(|s| macs.iter().any(|l| l.path == s.path && l.macs > 0))
            .map(|s| (s.score(), s.path.clone()))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut seen = std::collections::HashSet::new();
        let order: Vec<String> = order
            .into_iter()
            .filter(|(_, p)| seen.insert(p.clone()))
            .map(|(_, p)| p)
            .collect();

        let points = greedy_search(
            &model,
            &cal,
            &base,
            &order,
            &ds.test.inputs,
            &ds.test.labels,
            Metric::Accuracy,
            50,
            executor,
            &cfg,
            &mut cost,
        );
        assert_eq!(
            points.first().map(|p| p.accuracy),
            Some(table2_mersit),
            "all-MERSIT corner must reproduce the Table-2 accuracy"
        );
        let flags = pareto_front(&points);
        let front: Vec<FrontPoint> = points
            .into_iter()
            .zip(flags)
            .map(|(point, on_front)| {
                let dominates = uniform
                    .iter()
                    .filter(|u| {
                        u.format != base.name()
                            && point.accuracy >= u.accuracy
                            && point.area_um2 <= u.area_um2
                            && (point.accuracy > u.accuracy || point.area_um2 < u.area_um2)
                    })
                    .map(|u| u.format.clone())
                    .collect();
                FrontPoint {
                    point,
                    on_front,
                    dominates,
                }
            })
            .collect();

        let pinned: Vec<UniformPoint> = pinned_assign
            .iter()
            .filter_map(|a| {
                let (area_um2, power_uw) = cost(a)?;
                Some(UniformPoint {
                    format: a.name(),
                    accuracy: mersit_ptq::assignment_score(
                        &model,
                        a,
                        &cal,
                        &ds.test.inputs,
                        &ds.test.labels,
                        Metric::Accuracy,
                        50,
                        executor,
                    ),
                    area_um2,
                    power_uw,
                })
            })
            .collect();

        println!(
            "  {:<16} fp32 {:5.1}  MERSIT {:5.1}  ({} layers, {} search points, {:.0?})",
            name,
            row.fp32,
            table2_mersit,
            order.len(),
            front.len(),
            t1.elapsed()
        );
        for u in &uniform {
            println!(
                "    uniform {:<12} acc {:5.1}  area {:8.1} um2/MAC  power {:7.2} uW/MAC",
                u.format, u.accuracy, u.area_um2, u.power_uw
            );
        }
        for f in &front {
            println!(
                "    swaps {:>2}  acc {:5.1}  area {:8.1}  {}{}{}",
                f.point.swaps,
                f.point.accuracy,
                f.point.area_um2,
                if f.on_front { "front" } else { "     " },
                if f.dominates.is_empty() {
                    String::new()
                } else {
                    format!("  dominates {}", f.dominates.join(", "))
                },
                if f.point.assignment.is_uniform() {
                    String::new()
                } else {
                    format!("  [{}]", f.point.assignment.name())
                }
            );
        }
        reports.push(ModelReport {
            model: name.to_owned(),
            fp32: row.fp32,
            table2_mersit,
            uniform,
            pinned,
            front,
        });
    }

    let dominating_mixed = reports
        .iter()
        .flat_map(|r| &r.front)
        .filter(|f| f.point.swaps > 0 && !f.dominates.is_empty())
        .count();
    println!(
        "\n{} mixed points strictly dominate a uniform non-MERSIT corner ({:.0?} total, {} MAC sims, {} cache hits)",
        dominating_mixed,
        t0.elapsed(),
        cache.misses(),
        cache.hits()
    );

    write_pareto_json(&reports, quick, threads, stream_dot, &cache);
    if let Ok(Some(path)) = mersit_obs::report::write_global_report("pareto") {
        println!("wrote {path}");
    }
}

fn write_uniform_entries(json: &mut String, points: &[UniformPoint]) {
    for (i, u) in points.iter().enumerate() {
        let _ = write!(
            json,
            "        {{\"format\": {}, \"accuracy\": {:.4}, \
             \"area_um2_per_mac\": {:.4}, \"power_uw_per_mac\": {:.4}}}",
            json_string(&u.format),
            u.accuracy,
            u.area_um2,
            u.power_uw
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
}

/// Hand-rolled deterministic JSON, like the other bench artifacts.
fn write_pareto_json(
    reports: &[ModelReport],
    quick: bool,
    threads: usize,
    dot_len: usize,
    cache: &mersit_hw::MacCostCache,
) {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"dot_len\": {dot_len},");
    let _ = writeln!(json, "  \"mac_sims\": {},", cache.misses());
    let _ = writeln!(json, "  \"mac_cache_hits\": {},", cache.hits());
    json.push_str("  \"models\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(json, "    {{\n      \"model\": {},", json_string(&r.model));
        let _ = writeln!(json, "      \"fp32\": {:.4},", r.fp32);
        let _ = writeln!(json, "      \"table2_mersit\": {:.4},", r.table2_mersit);
        json.push_str("      \"uniform\": [\n");
        write_uniform_entries(&mut json, &r.uniform);
        json.push_str("      ],\n      \"pinned\": [\n");
        write_uniform_entries(&mut json, &r.pinned);
        json.push_str("      ],\n      \"front\": [\n");
        for (j, f) in r.front.iter().enumerate() {
            let doms: Vec<String> = f.dominates.iter().map(|d| json_string(d)).collect();
            let _ = write!(
                json,
                "        {{\"assignment\": {}, \"swaps\": {}, \"accuracy\": {:.4}, \
                 \"area_um2_per_mac\": {:.4}, \"power_uw_per_mac\": {:.4}, \
                 \"on_front\": {}, \"dominates\": [{}]}}",
                json_string(&f.point.assignment.name()),
                f.point.swaps,
                f.point.accuracy,
                f.point.area_um2,
                f.point.power_uw,
                f.on_front,
                doms.join(", ")
            );
            json.push_str(if j + 1 < r.front.len() { ",\n" } else { "\n" });
        }
        json.push_str("      ]\n    }");
        json.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_pareto.json", &json).expect("write BENCH_pareto.json");
    println!("wrote BENCH_pareto.json");
}
