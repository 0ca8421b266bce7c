//! What the server is sent: the model zoo it serves, the seeded input
//! samples, the seeded arrival schedule and the seeded order of keys.
//! Everything here is a pure function of `--seed` (and the fixed zoo).

use crate::spec::{Workload, HW, SAMPLES, ZOO_SEED};
use crate::stats::Schedule;
use mersit_nn::models::{mobilenet_v3_t, vgg_t};
use mersit_nn::Model;
use mersit_ptq::{calibrate, Calibration, Executor};
use mersit_tensor::{Rng, Tensor};

/// The zoo `mersit-served` serves: `vgg_t` and `mobilenet_v3_t` at
/// `HW`, seed `ZOO_SEED`, each calibrated on 16 random images.
pub fn build_zoo() -> Vec<(Model, Calibration)> {
    let mut rng = Rng::new(ZOO_SEED);
    let models = [vgg_t(HW, 10, &mut rng), mobilenet_v3_t(HW, 10, &mut rng)];
    models
        .into_iter()
        .map(|model| {
            let calib = Tensor::randn(&[16, 3, HW, HW], 1.0, &mut rng);
            let cal = calibrate(&model, &calib, 8);
            (model, cal)
        })
        .collect()
}

/// The zoo entry for a model name.
///
/// # Panics
///
/// Panics on a name the zoo does not hold: the workload tables are wrong.
pub fn zoo_entry<'a>(zoo: &'a [(Model, Calibration)], name: &str) -> (&'a Model, &'a Calibration) {
    zoo.iter()
        .find(|(m, _)| m.name == name)
        .map(|(m, c)| (m, c))
        .unwrap_or_else(|| panic!("model {name} is not in the zoo"))
}

/// The shape of one request's sample (no batch dimension).
pub const SAMPLE_SHAPE: [usize; 3] = [3, HW, HW];

/// The first `n` samples as one `[n, 3, HW, HW]` batch.
pub fn batch(samples: &[Tensor], n: usize) -> Tensor {
    let parts: Vec<Tensor> = samples[..n]
        .iter()
        .map(|s| Tensor::from_vec(s.data().to_vec(), &[1, 3, HW, HW]))
        .collect();
    Tensor::cat_outer(&parts.iter().collect::<Vec<_>>())
}

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// The workload's warm key with this index.
    Warm(usize),
    /// The never-seen mixed `vgg_t` spec with this index (see [`fresh_spec`]).
    Fresh(usize),
}

/// One request of the stream: its target and the index of its sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    pub target: Target,
    pub sample: usize,
}

/// `vgg_t` layers and formats the never-seen specs override: two layers
/// each, neither with the default format, so every spec is a distinct
/// plan-cache key.
const FRESH_LAYERS: &[&str] = &[
    "0_conv",
    "2_conv",
    "5_conv",
    "7_conv",
    "11_linear",
    "13_linear",
];
const FRESH_FORMATS: &[&str] = &[
    "INT8",
    "FP(8,3)",
    "FP(8,4)",
    "FP(8,5)",
    "Posit(8,0)",
    "Posit(8,1)",
    "Posit(8,2)",
    "MERSIT(8,1)",
    "MERSIT(8,3)",
];

/// The model and executor never-seen specs are served with.
pub const FRESH_MODEL: &str = "vgg_t";
pub const FRESH_EXECUTOR: Executor = Executor::Float;

fn fresh_count() -> usize {
    let l = FRESH_LAYERS.len();
    l * (l - 1) / 2 * FRESH_FORMATS.len() * FRESH_FORMATS.len()
}

/// The never-seen spec with index `i` (below `fresh_count()`):
/// `MERSIT(8,2)` with two layers overridden.
pub fn fresh_spec(i: usize) -> String {
    let f = FRESH_FORMATS.len();
    let (la, lb) = FRESH_LAYERS
        .iter()
        .enumerate()
        .flat_map(|(a, la)| FRESH_LAYERS[a + 1..].iter().map(move |lb| (la, lb)))
        .nth(i / (f * f))
        .unwrap_or_else(|| panic!("never-seen spec index {i} out of range"));
    let fmts = i % (f * f);
    format!(
        "MERSIT(8,2);{la}={};{lb}={}",
        FRESH_FORMATS[fmts / f],
        FRESH_FORMATS[fmts % f]
    )
}

/// The seeded request stream: sample `i mod SAMPLES` for request `i`,
/// warm keys in a fresh seeded permutation per round, and, where the
/// workload asks for it, a never-seen spec every `fresh_every` requests
/// drawn with [`Iterator::next`].
#[derive(Debug, Clone)]
pub struct Stream {
    workload: &'static Workload,
    rng: Rng,
    round: Vec<usize>,
    fresh: Vec<usize>,
    fresh_used: usize,
    n: u64,
}

impl Stream {
    fn new(workload: &'static Workload, mut rng: Rng) -> Self {
        let fresh = if workload.fresh_every.is_some() {
            rng.permutation(fresh_count())
        } else {
            Vec::new()
        };
        Self {
            workload,
            rng,
            round: Vec::new(),
            fresh,
            fresh_used: 0,
            n: 0,
        }
    }
}

impl Stream {
    /// The next request, never a never-seen spec. The saturation phase
    /// sends only these, so the number of plans built, and the memory
    /// they hold, does not depend on the throughput reached.
    pub fn next_warm(&mut self) -> Planned {
        let sample = (self.n % SAMPLES as u64) as usize;
        self.n += 1;
        if self.round.is_empty() {
            self.round = self.rng.permutation(self.workload.keys.len());
        }
        let key = self.round.pop().expect("a round holds every key");
        Planned {
            target: Target::Warm(key),
            sample,
        }
    }
}

impl Iterator for Stream {
    type Item = Planned;

    fn next(&mut self) -> Option<Planned> {
        if let Some(every) = self.workload.fresh_every {
            if (self.n + 1).is_multiple_of(every) {
                let sample = (self.n % SAMPLES as u64) as usize;
                self.n += 1;
                // A run sends far fewer than `fresh_count()` of these, so
                // the wrap-around never repeats a spec in practice.
                let spec = self.fresh[self.fresh_used % self.fresh.len()];
                self.fresh_used += 1;
                return Some(Planned {
                    target: Target::Fresh(spec),
                    sample,
                });
            }
        }
        Some(self.next_warm())
    }
}

/// Everything `--seed` drives for one workload.
#[derive(Debug)]
pub struct Traffic {
    /// The input samples, each `SAMPLE_SHAPE`.
    pub samples: Vec<Tensor>,
    /// Targets and samples, in send order across all phases.
    pub stream: Stream,
    /// Arrival schedules of the open-loop phases.
    pub arrivals: Arrivals,
}

impl Traffic {
    pub fn new(workload: &'static Workload, seed: u64) -> Self {
        let mut root = Rng::new(seed);
        let mut sample_rng = root.fork();
        let samples = (0..SAMPLES)
            .map(|_| Tensor::randn(&SAMPLE_SHAPE, 1.0, &mut sample_rng))
            .collect();
        let stream = Stream::new(workload, root.fork());
        Self {
            samples,
            stream,
            arrivals: Arrivals {
                rng: root.fork(),
                rate: workload.rate,
            },
        }
    }
}

/// Seeded Poisson schedules at the workload's rate, one per phase.
#[derive(Debug)]
pub struct Arrivals {
    rng: Rng,
    rate: f64,
}

impl Arrivals {
    /// The schedule of the next open-loop phase, offsets in seconds from
    /// the phase start.
    pub fn next_phase(&mut self) -> Schedule {
        Schedule::new(self.rng.fork(), self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use mersit_ptq::FormatAssignment;
    use std::collections::HashSet;

    fn first(t: &mut Traffic, n: usize) -> (Vec<Planned>, Vec<f64>, Vec<f64>) {
        let planned = t.stream.by_ref().take(n).collect();
        let open = t.arrivals.next_phase().take(n).collect();
        let sat = t.arrivals.next_phase().take(n).collect();
        (planned, open, sat)
    }

    #[test]
    fn request_stream_is_a_pure_function_of_the_seed() {
        for w in WORKLOADS {
            let (mut a, mut b, mut c) =
                (Traffic::new(w, 7), Traffic::new(w, 7), Traffic::new(w, 8));
            assert_eq!(a.samples, b.samples, "{}", w.name);
            assert_ne!(a.samples, c.samples, "{}", w.name);
            let (fa, fb, fc) = (first(&mut a, 500), first(&mut b, 500), first(&mut c, 500));
            assert_eq!(fa, fb, "{}", w.name);
            assert_ne!(fa.1, fc.1, "{}", w.name);
            assert_ne!(fa.2, fc.2, "{}", w.name);
            assert_ne!(fa.1, fa.2, "{}: phases share a schedule", w.name);
            if w.keys.len() > 1 {
                assert_ne!(fa.0, fc.0, "{}", w.name);
            }
        }
    }

    #[test]
    fn every_key_is_served_evenly_and_fresh_specs_are_distinct() {
        for w in WORKLOADS {
            let mut t = Traffic::new(w, 3);
            let planned: Vec<Planned> = t.stream.by_ref().take(800).collect();
            let mut per_key = vec![0usize; w.keys.len()];
            let mut fresh = HashSet::new();
            for (i, p) in planned.iter().enumerate() {
                assert_eq!(p.sample, i % SAMPLES);
                match p.target {
                    Target::Warm(k) => per_key[k] += 1,
                    Target::Fresh(f) => {
                        assert_eq!((i + 1) % 100, 0);
                        assert!(fresh.insert(f), "spec {f} repeated");
                    }
                }
            }
            let (lo, hi) = (per_key.iter().min(), per_key.iter().max());
            assert!(hi.unwrap() - lo.unwrap() <= 1, "{}: {per_key:?}", w.name);
            assert_eq!(fresh.len(), if w.fresh_every.is_some() { 8 } else { 0 });
            assert!((0..800).all(|_| matches!(t.stream.next_warm().target, Target::Warm(_))));
        }
    }

    #[test]
    fn specs_parse_and_fresh_specs_never_hit_a_warm_key() {
        let warm: HashSet<String> = WORKLOADS
            .iter()
            .flat_map(|w| w.keys)
            .filter_map(|k| k.spec)
            .map(|s| FormatAssignment::parse(s).expect("warm spec parses").name())
            .collect();
        let mut names = HashSet::new();
        for i in 0..fresh_count() {
            let name = FormatAssignment::parse(&fresh_spec(i))
                .expect("fresh spec parses")
                .name();
            assert!(!warm.contains(&name), "{name} is a warm key");
            assert!(names.insert(name), "spec {i} is not distinct");
        }
    }
}
