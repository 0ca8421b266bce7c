//! The Table 2 harness: trains nothing itself — given a *pre-trained*
//! model and a dataset, it calibrates once and scores every format.

use crate::assign::FormatAssignment;
use crate::bittrue::Executor;
use crate::calibrate::{calibrate, Calibration};
use crate::executor::QuantPlan;
use mersit_core::FormatRef;
use mersit_nn::{accuracy, f1_binary, matthews, predict_ref, Dataset, Model};

/// Which GLUE-style metric a task reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Top-1 accuracy (vision tasks, SST-2, MNLI).
    Accuracy,
    /// Matthews correlation ×100 (CoLA).
    Matthews,
    /// Binary F1 ×100 (MRPC).
    F1,
}

impl Metric {
    /// Scores predictions against labels.
    #[must_use]
    pub fn score(self, preds: &[usize], labels: &[usize]) -> f64 {
        match self {
            Metric::Accuracy => accuracy(preds, labels),
            Metric::Matthews => matthews(preds, labels),
            Metric::F1 => f1_binary(preds, labels),
        }
    }
}

/// Score of one format on one model.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatScore {
    /// Format name.
    pub format: String,
    /// Metric value (percent / ×100).
    pub score: f64,
}

/// One row of the Table 2 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRow {
    /// Model / task name.
    pub model: String,
    /// FP32 baseline score.
    pub fp32: f64,
    /// Per-format PTQ scores, in the order given.
    pub scores: Vec<FormatScore>,
}

impl EvalRow {
    /// Looks up a format's score by name.
    #[must_use]
    pub fn score_of(&self, format: &str) -> Option<f64> {
        self.scores
            .iter()
            .find(|s| s.format == format)
            .map(|s| s.score)
    }
}

/// Calibrates on the dataset's calibration split and evaluates the FP32
/// baseline plus every format on the test split.
///
/// Each format is compiled into a read-only [`QuantPlan`] and evaluated
/// **in format order**, with all parallelism *inside* the format: the
/// plan's batch shards and their nested GEMM dispatches fan out across
/// the global work-stealing pool (`MERSIT_THREADS` sized), which keeps
/// every core busy on the current format instead of time-slicing cores
/// across formats — per-format latency does not grow with the format
/// count and the total scales with the pool. Scores land in format order
/// and are bit-identical for every `MERSIT_THREADS` setting.
///
/// The execution engine comes from the `MERSIT_EXECUTOR` environment
/// variable ([`Executor::from_env`]): `float` (default) fake-quantizes,
/// `bittrue` runs every GEMM on raw codes with exact Kulisch
/// accumulation.
pub fn evaluate_model(
    model: &Model,
    ds: &Dataset,
    formats: &[FormatRef],
    metric: Metric,
    batch: usize,
) -> (EvalRow, Calibration) {
    let assigns: Vec<FormatAssignment> = formats
        .iter()
        .map(|f| FormatAssignment::uniform(f.clone()))
        .collect();
    evaluate_assignments(model, ds, &assigns, metric, batch)
}

/// The sweep generalized to per-layer format assignments: every entry —
/// uniform or mixed — compiles into its own [`QuantPlan`] and scores on
/// the test split. [`evaluate_model`] is the uniform special case; scores
/// are labeled by the canonical [`FormatAssignment::name`], so uniform
/// rows keep their plain format names.
pub fn evaluate_assignments(
    model: &Model,
    ds: &Dataset,
    assigns: &[FormatAssignment],
    metric: Metric,
    batch: usize,
) -> (EvalRow, Calibration) {
    let executor = Executor::from_env();
    let cal = calibrate(model, &ds.calib.inputs, batch);
    let fp_preds = predict_ref(&model.net, &ds.test.inputs, batch);
    let fp32 = metric.score(&fp_preds, &ds.test.labels);
    let scores = {
        let _sweep = mersit_obs::span("ptq.sweep");
        assigns
            .iter()
            .map(|assign| {
                let _span = mersit_obs::span_dyn(|| format!("ptq.evaluate.{}", assign.name()));
                let plan = QuantPlan::build_with(model, assign.clone(), &cal, executor);
                let preds = plan.predict(model, &ds.test.inputs, batch);
                FormatScore {
                    format: assign.name(),
                    score: metric.score(&preds, &ds.test.labels),
                }
            })
            .collect()
    };
    (
        EvalRow {
            model: model.name.clone(),
            fp32,
            scores,
        },
        cal,
    )
}

/// Renders rows as an aligned text table (the shape of Table 2).
#[must_use]
pub fn render_table(rows: &[EvalRow], formats: &[FormatRef]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<20} {:>8}", "Model", "FP32"));
    for f in formats {
        out.push_str(&format!(" {:>12}", f.name()));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<20} {:>8.2}", row.model, row.fp32));
        for f in formats {
            let v = row.score_of(&f.name()).unwrap_or(f64::NAN);
            out.push_str(&format!(" {v:>12.2}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mersit_core::parse_format;
    use mersit_nn::models::vgg_t;
    use mersit_nn::{synthetic_images, train_classifier, TrainConfig};
    use mersit_tensor::Rng;

    #[test]
    fn metric_dispatch() {
        let p = [1usize, 0, 1, 1];
        let y = [1usize, 0, 0, 1];
        assert_eq!(Metric::Accuracy.score(&p, &y), 75.0);
        assert!(Metric::Matthews.score(&p, &y) > 0.0);
        assert!(Metric::F1.score(&p, &y) > 0.0);
    }

    #[test]
    fn end_to_end_tiny_table2_row() {
        // Train a tiny model briefly, then check the harness produces
        // sane scores: near-lossless formats stay close to FP32.
        let mut rng = Rng::new(42);
        let mut model = vgg_t(8, 10, &mut rng);
        let ds = synthetic_images(7, 300, 120, 8);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 32,
            ..TrainConfig::default()
        };
        train_classifier(&mut model.net, &ds.train, &cfg);
        let formats = vec![
            parse_format("MERSIT(8,2)").unwrap(),
            parse_format("Posit(8,1)").unwrap(),
        ];
        let (row, cal) = evaluate_model(&model, &ds, &formats, Metric::Accuracy, 32);
        assert!(cal.num_sites() > 5);
        assert!(row.fp32 > 30.0, "model failed to learn: {}", row.fp32);
        for s in &row.scores {
            assert!(
                s.score > row.fp32 - 25.0,
                "{} collapsed: {} vs fp32 {}",
                s.format,
                s.score,
                row.fp32
            );
        }
        let txt = render_table(&[row], &formats);
        assert!(txt.contains("vgg_t"));
        assert!(txt.contains("MERSIT(8,2)"));
    }
}
