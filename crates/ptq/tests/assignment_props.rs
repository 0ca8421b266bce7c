//! Bit-identity contract of the assignment refactor: a *uniform*
//! [`FormatAssignment`] written as the `From<FormatRef>` sugar and one
//! that redundantly overrides every single parameter path to the same
//! format must predict bit-for-bit identically, for every Table-2
//! format, on both executors, at pool sizes 1, 2 and 7. (The outputs of
//! the uniform plans themselves are pinned by the golden logit digests
//! in `tests/golden/plan_logits.txt`.)
//!
//! The thread sweep reuses the `pool_stress` idiom: `MERSIT_THREADS` is
//! a process-global latch, so the sweep lives in one `#[test]` and
//! re-latches via `pool::shutdown()`.

use mersit_core::table2_formats;
use mersit_nn::models::vgg_t;
use mersit_nn::Layer;
use mersit_ptq::{calibrate, Executor, FormatAssignment, QuantPlan};
use mersit_tensor::{pool, Rng, Tensor};

#[test]
fn uniform_assignment_is_bit_identical_across_formats_executors_threads() {
    let formats = table2_formats();
    assert_eq!(formats.len(), 11, "Table 2 grid changed size");
    for threads in [1usize, 2, 7] {
        std::env::set_var("MERSIT_THREADS", threads.to_string());
        pool::shutdown(); // re-latch the pool at the new size
        let mut rng = Rng::new(0xA55 ^ threads as u64);
        let model = vgg_t(8, 10, &mut rng);
        let calib = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
        // 10 samples at batch 4: an uneven final shard in predict.
        let inputs = Tensor::randn(&[10, 3, 8, 8], 1.0, &mut rng);
        let cal = calibrate(&model, &calib, 4);

        // Every parameter path, for the redundant-override spelling.
        let mut param_paths = Vec::new();
        model.net.visit_params_ref("", &mut |path, _| {
            param_paths.push(path.to_owned());
        });
        assert!(param_paths.len() > 4, "vgg_t has several parameters");

        for fmt in &formats {
            for executor in [Executor::Float, Executor::BitTrue] {
                let sugar = QuantPlan::build_with(&model, fmt.clone(), &cal, executor);
                assert!(sugar.assignment().is_uniform());
                let sugar_preds = sugar.predict(&model, &inputs, 4);
                // Redundantly overriding every parameter path to the same
                // format changes nothing.
                let mut redundant = FormatAssignment::uniform(fmt.clone());
                for p in &param_paths {
                    redundant = redundant.with_override(p.clone(), fmt.clone());
                }
                assert!(!redundant.is_uniform());
                let explicit = QuantPlan::build_with(&model, redundant, &cal, executor);
                assert_eq!(
                    sugar_preds,
                    explicit.predict(&model, &inputs, 4),
                    "redundant overrides diverged: {} {executor:?} at {threads} threads",
                    fmt.name()
                );
            }
        }
    }
    std::env::remove_var("MERSIT_THREADS");
    pool::shutdown();
}
