//! # mersit-bench — regenerators for every table and figure of the paper
//!
//! One binary per artifact (see DESIGN.md §4 for the experiment index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — MERSIT(8,2) decoding table |
//! | `fig1_layouts` | Fig. 1 — FP8 / Posit8 bit layouts |
//! | `fig2_mac_params` | Fig. 2 table — dynamic range, P, M, W |
//! | `fig3_decode_walkthrough` | Fig. 3 — MERSIT decoding example |
//! | `fig4_range_precision` | Fig. 4 — range & precision comparison |
//! | `fig5_decoder_gates` | Fig. 5 — merged decoding sub-blocks |
//! | `table2` | Table 2 — PTQ accuracy across formats × models |
//! | `fig6_rmse` | Fig. 6 — RMSE comparison |
//! | `fig7_mac_cost` | Fig. 7 — MAC area & power |
//! | `table3` | Table 3 — multiplier breakdown |
//! | `ablation_merge_level` | merge level E ∈ {1,2,3} study |
//! | `ablation_kulisch` | Kulisch margin V study |
//! | `cosim` | hw/sw co-simulation smoke — bit-true vs float executors + golden-MAC differential |
//!
//! This library hosts the shared workload machinery: quick model training
//! and the extraction of *actual DNN operand streams* for the hardware
//! power analyses (mirroring the paper's PrimeTime-PX-with-real-data
//! methodology).

#![warn(missing_docs)]
#![allow(clippy::cast_precision_loss, clippy::must_use_candidate)]

pub mod perf;
pub mod serve;

use mersit_core::Format;
use mersit_nn::models::vgg_t;
use mersit_nn::{synthetic_images, train_classifier, Ctx, Dataset, Layer, Model, Tap, TrainConfig};
use mersit_tensor::{Rng, Tensor};

/// Weight and activation value pools sampled from a trained model —
/// the "actual DNN data" for hardware power estimation.
#[derive(Debug, Clone)]
pub struct DnnOperands {
    /// Sampled weight values.
    pub weights: Vec<f64>,
    /// Sampled activation values.
    pub activations: Vec<f64>,
}

struct Collect {
    values: Vec<f64>,
    cap: usize,
    stride: usize,
    seen: usize,
}

impl Tap for Collect {
    fn activation(&mut self, _site: mersit_nn::Site<'_>, t: Tensor) -> Tensor {
        for &v in t.data() {
            if self.seen.is_multiple_of(self.stride) && self.values.len() < self.cap {
                self.values.push(f64::from(v));
            }
            self.seen += 1;
        }
        t
    }
}

/// Trains a small conv net on the synthetic image task and samples its
/// weights and activations. Deterministic in `seed`.
#[must_use]
pub fn trained_dnn_operands(seed: u64, pool: usize) -> DnnOperands {
    let mut rng = Rng::new(seed);
    let mut model: Model = vgg_t(8, 10, &mut rng);
    let ds: Dataset = synthetic_images(seed ^ 0xDA7A, 600, 60, 8);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 32,
        ..TrainConfig::default()
    };
    train_classifier(&mut model.net, &ds.train, &cfg);
    // Weight pool.
    let mut weights = Vec::new();
    model.net.visit_params_ref("", &mut |_, p| {
        if p.value.shape().len() >= 2 {
            for &v in p.value.data() {
                if weights.len() < pool {
                    weights.push(f64::from(v));
                }
            }
        }
    });
    // Activation pool from a forward pass.
    let mut tap = Collect {
        values: Vec::new(),
        cap: pool,
        stride: 7,
        seen: 0,
    };
    {
        let mut ctx = Ctx::with_tap(&mut tap);
        let _ = model
            .net
            .forward_ref(ds.test.inputs.slice_outer(0, 32), &mut ctx);
    }
    DnnOperands {
        weights,
        activations: tap.values,
    }
}

impl DnnOperands {
    /// Normalizes the pools so their maxima sit at the format's scale
    /// anchor (i.e. the data is pre-scaled the way the PTQ pipeline would
    /// scale it), then encodes operand pairs.
    #[must_use]
    pub fn encode_scaled(&self, fmt: &dyn Format, n: usize) -> Vec<(u16, u16)> {
        let anchor = mersit_ptq::scale_anchor(fmt);
        let wmax = self.weights.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let amax = self.activations.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let ws = if wmax > 0.0 { anchor / wmax } else { 1.0 };
        let ascale = if amax > 0.0 { anchor / amax } else { 1.0 };
        (0..n)
            .map(|i| {
                let w = self.weights[i % self.weights.len()] * ws;
                let a = self.activations[(i * 13 + 5) % self.activations.len()] * ascale;
                (fmt.encode(w), fmt.encode(a))
            })
            .collect()
    }
}

/// Prints a separator line of width `w`.
pub fn hr(w: usize) {
    println!("{}", "-".repeat(w));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mersit_core::parse_format;

    #[test]
    fn operand_pools_are_populated_and_deterministic() {
        let a = trained_dnn_operands(3, 500);
        let b = trained_dnn_operands(3, 500);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.activations, b.activations);
        assert!(a.weights.len() >= 400);
        assert!(a.activations.len() >= 400);
    }

    #[test]
    fn encoded_streams_use_wide_code_range() {
        let ops = trained_dnn_operands(5, 400);
        let fmt = parse_format("MERSIT(8,2)").unwrap();
        let s = ops.encode_scaled(fmt.as_ref(), 200);
        assert_eq!(s.len(), 200);
        let distinct: std::collections::BTreeSet<u16> = s.iter().map(|&(w, _)| w).collect();
        assert!(
            distinct.len() > 20,
            "only {} distinct codes",
            distinct.len()
        );
    }
}
