//! The benchmark's fixed settings: workloads, phase lengths, and the one
//! metric table that `--list`, the printed result and `BENCHMARK.json`
//! are all derived from.

use mersit_ptq::Executor;
use std::time::Duration;

/// Measured seconds per run (open + saturation phases), unless
/// `--seconds` says otherwise. Mirrored as `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 26;
/// Share of the measured seconds given to the open phase; the
/// saturation phase gets the rest.
pub const OPEN_SHARE: f64 = 0.6;
/// Discarded open-loop traffic before the measured phases, in seconds.
pub const WARMUP_SECONDS: f64 = 1.0;
/// Requests kept in flight during the saturation phase: twice the
/// default `max_batch`, so the batcher can always fill a batch.
pub const SAT_IN_FLIGHT: usize = 16;
/// Width of one saturation completion window, in seconds.
pub const WINDOW_SECONDS: f64 = 1.0;
/// Fresh set-ups per run; `setup_s` is the fastest. The host flips
/// between a fast and a slow mode (about 1.4x) every second or so, and
/// the share of time it is slow moves between a third and a half over
/// minutes. The median of the set-ups then lands in either mode from run
/// to run, while the fastest of nine spread `SETUP_GAP` apart nearly
/// always catches a fast spell, and moves only when the set-up's own
/// work does.
pub const SETUPS: usize = 9;
pub const SETUP_GAP: Duration = Duration::from_millis(250);
/// Distinct input samples per run, generated from `--seed`.
pub const SAMPLES: usize = 64;
/// Input height and width of the zoo models (the `mersit-served` default).
pub const HW: usize = 10;
/// Seed of the zoo models and their calibration data (as `mersit-served`).
pub const ZOO_SEED: u64 = 0x5E4E;
/// Threads generating load: the open phase's writer and the reader.
/// At most `min(nproc, 2)`, over one connection.
pub const LOAD_THREADS: usize = 2;
/// Worker threads of the compute pool (`MERSIT_THREADS`).
pub const THREADS: &str = "2";
/// The least generator lateness p90 that makes a run invalid, in µs.
/// Its p99 is recorded, not gated: on a shared 2-vCPU VM, 1-3 ms stalls
/// hit about 2% of wake-ups of any process while the bit-true forwards
/// run, whatever this program does.
pub const MAX_LATENESS_US: f64 = 1000.0;

/// The generator's lateness p90 above which a run at `rate` requests
/// per second is invalid, in µs: `MAX_LATENESS_US`, or one mean gap
/// between arrivals if that is longer. Below a gap, a late send does not
/// run into the next one, so the schedule still holds; host stalls of a
/// few milliseconds pushed p90 past 1 ms on otherwise sound 60/s runs.
pub fn max_lateness_us(rate: f64) -> f64 {
    MAX_LATENESS_US.max(1e6 / rate)
}
/// Seconds of arrivals that may still be in flight when the open phase
/// ends before the run counts as a growing backlog.
pub const MAX_BACKLOG_SECONDS: f64 = 1.0;
/// A request unanswered this long after its phase ended is lost.
pub const DRAIN_SECONDS: f64 = 10.0;

/// One plan the workload keeps warm: model, assignment spec (`None` is
/// the FP32 reference forward) and executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    pub model: &'static str,
    pub spec: Option<&'static str>,
    pub executor: Executor,
}

const fn key(model: &'static str, spec: Option<&'static str>, executor: Executor) -> Key {
    Key {
        model,
        spec,
        executor,
    }
}

/// One traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Open-phase arrival rate, requests per second. It keeps the server
    /// busy about a tenth of the time (a quarter for the cheap FP32
    /// forward), so latency is mostly service time: queueing would
    /// amplify the speed changes of a shared host into the percentiles.
    pub rate: f64,
    /// Warm keys; requests cycle through them in a seeded order.
    pub keys: &'static [Key],
    /// Every this many open-loop requests, one carries a never-seen
    /// mixed spec.
    pub fresh_every: Option<u64>,
}

const VGG: &str = "vgg_t";
const MOBILENET: &str = "mobilenet_v3_t";
const FLOAT: Executor = Executor::Float;
const BITTRUE: Executor = Executor::BitTrue;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fp32-ref",
        why: "vgg_t FP32 reference at 2000/s: least compute per request, so the socket loop, \
              batcher and pool wake-up dominate; bypasses all quantization, the control",
        rate: 2000.0,
        keys: &[key(VGG, None, FLOAT)],
        fresh_every: None,
    },
    Workload {
        name: "float-mersit",
        why: "vgg_t MERSIT(8,2) on the float executor at 200/s: the paper's format on the \
              fake-quant path, where per-site quantize_slice and LUT rebuilds cost most",
        rate: 200.0,
        keys: &[key(VGG, Some("MERSIT(8,2)"), FLOAT)],
        fresh_every: None,
    },
    Workload {
        name: "bittrue-mersit",
        why: "vgg_t MERSIT(8,2) on the bit-true executor at 60/s: exact Kulisch qgemm, \
              bypassing the float GEMM and the LUT fake-quant of GEMM inputs",
        rate: 60.0,
        keys: &[key(VGG, Some("MERSIT(8,2)"), BITTRUE)],
        fresh_every: None,
    },
    Workload {
        name: "spec-mix",
        why: "8 warm keys over both models, both executors and 6 specs at 60/s, a never-seen \
              spec every 100th open-loop request: plan builds beside hits, batches split by key",
        rate: 60.0,
        keys: &[
            key(VGG, Some("MERSIT(8,2)"), FLOAT),
            key(VGG, Some("MERSIT(8,2)"), BITTRUE),
            key(VGG, Some("INT8"), FLOAT),
            key(VGG, Some("MERSIT(8,2);11_linear=FP(8,4)"), BITTRUE),
            key(MOBILENET, Some("MERSIT(8,2)"), FLOAT),
            key(MOBILENET, Some("FP(8,4)"), BITTRUE),
            key(MOBILENET, Some("Posit(8,1)"), FLOAT),
            key(MOBILENET, Some("MERSIT(8,2);ir1=FP(8,4)"), FLOAT),
        ],
        fresh_every: Some(100),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Level {
    /// Gated end to end: may worsen by at most `bound` (a share of the
    /// parent's median). Measured on every workload with tracing off.
    EndToEnd { bound: f64 },
    /// Per-layer, measured on every workload by the `--trace 1` run.
    Layer,
    /// Printed and written to `--out`, never gated: either not steady
    /// enough to gate, or it applies to some workloads only.
    Recorded,
}

/// One row of the metric table.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub level: Level,
}

const fn m(name: &'static str, unit: &'static str, better: Better, level: Level) -> Metric {
    Metric {
        name,
        unit,
        better,
        level,
    }
}

const LO: Better = Better::Lower;
const HI: Better = Better::Higher;
const fn gate(bound: f64) -> Level {
    Level::EndToEnd { bound }
}
const LAYER: Level = Level::Layer;
const REC: Level = Level::Recorded;

/// The widest bound a gated metric may have.
pub const MAX_BOUND: f64 = 0.10;

/// Every metric the benchmark prints. Names are
/// `<module>.<what>[.<variant>]` for layers. The latency and throughput
/// metrics are recorded, not gated: on a shared 2-vCPU host, the spread
/// of their ten-run medians reached 10-28%, above `MAX_BOUND`, because
/// the host's speed drifts for minutes at a time (README.md).
pub const METRICS: &[Metric] = &[
    m("setup_s", "s", LO, gate(MAX_BOUND)),
    m("peak_rss_mb", "MiB", LO, gate(MAX_BOUND)),
    m("sat_rps", "req/s", HI, REC),
    m("p50_ms", "ms", LO, REC),
    m("p90_ms", "ms", LO, REC),
    m("error_frac", "ratio", LO, REC),
    m("p99_ms", "ms", LO, REC),
    m("open_samples", "count", HI, REC),
    m("lateness_p90_us", "us", LO, REC),
    m("lateness_p99_us", "us", LO, REC),
    m("serve.net.overhead_us.p50", "us", LO, LAYER),
    m("serve.net.decode_ns", "ns", LO, LAYER),
    m("serve.net.encode_ns", "ns", LO, LAYER),
    m("serve.batcher.queue_us.p50", "us", LO, LAYER),
    m("serve.batcher.compute_us.p50", "us", LO, LAYER),
    m("serve.batcher.batch_mean.open", "req", HI, LAYER),
    m("serve.batcher.batch_mean.sat", "req", HI, LAYER),
    m("ptq.plan.forward_us.b1", "us", LO, LAYER),
    m("ptq.plan.forward_us.b8", "us", LO, LAYER),
    m("nn.forward_fp32_us.b1", "us", LO, LAYER),
    m("nn.forward_fp32_us.b8", "us", LO, LAYER),
    m("tensor.gemm.gmacs.b8", "GMAC/s", HI, LAYER),
    m("tensor.qgemm.gmacs.b8", "GMAC/s", HI, LAYER),
    m("tensor.pool.dispatch_us.warm", "us", LO, LAYER),
    m("tensor.pool.dispatch_us.idle", "us", LO, LAYER),
    m("serve.cache.builds", "count", LO, REC),
    m("serve.cache.build_ms", "ms", LO, REC),
    m("ptq.quantize.sites_us.b1", "us", LO, REC),
    m("ptq.quantize.sites_us.b8", "us", LO, REC),
    m("ptq.quantize.explained_frac.b1", "ratio", HI, REC),
    m("core.lut.build_us", "us", LO, REC),
    m("core.lut.apply_ns_per_elem", "ns", LO, REC),
    m("ptq.bittrue.gemm_us.b1", "us", LO, REC),
    m("ptq.bittrue.gemm_us.b8", "us", LO, REC),
];

/// The `--list` tables: each workload with its rate and reason, then
/// each metric with its unit, direction, bound and level.
pub fn list() -> String {
    let mut out = String::new();
    for w in WORKLOADS {
        out.push_str(&format!("{:<15} {:>5}/s  {}\n", w.name, w.rate, w.why));
    }
    out.push_str(&format!(
        "\n{:<34} {:<7} {:<7} {:<6} {}\n",
        "metric", "unit", "better", "bound", "level"
    ));
    for m in METRICS {
        let (bound, level) = match m.level {
            Level::EndToEnd { bound } => (format!("{bound}"), "end_to_end"),
            Level::Layer => ("-".to_owned(), "per_layer"),
            Level::Recorded => ("-".to_owned(), "recorded"),
        };
        out.push_str(&format!(
            "{:<34} {:<7} {:<7} {:<6} {}\n",
            m.name,
            m.unit,
            m.better.name(),
            bound,
            level
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The command `BENCHMARK.json` runs, from the repository root.
    const COMMAND: &[&str] = &[
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "crates/bench/src/bin/benchmark/Cargo.toml",
        "--",
    ];
    /// The benchmark's own directory.
    const PATH: &str = "crates/bench/src/bin/benchmark";

    /// The text of `BENCHMARK.json`, rendered from the tables.
    fn benchmark_json() -> String {
        let quote = |s: &str| format!("\"{s}\"");
        let command: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    quote(w.name),
                    quote(w.why)
                )
            })
            .collect();
        let rows = |pick: fn(&Metric) -> Option<String>| -> Vec<String> {
            METRICS.iter().filter_map(pick).collect()
        };
        let end_to_end = rows(|m| match m.level {
            Level::EndToEnd { bound } => Some(format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
            m.name,
            m.unit,
            m.better.name()
        )),
            _ => None,
        });
        let per_layer = rows(|m| match m.level {
            Level::Layer => Some(format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            )),
            _ => None,
        });
        format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        quote(PATH),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
    }

    #[test]
    fn lateness_limit_is_one_arrival_gap_but_at_least_a_millisecond() {
        assert_eq!(max_lateness_us(2000.0), 1000.0);
        assert_eq!(max_lateness_us(1000.0), 1000.0);
        assert_eq!(max_lateness_us(200.0), 5000.0);
        assert!((max_lateness_us(60.0) - 16_666.67).abs() < 0.01);
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_is_rendered_from_the_table() {
        let on_disk = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json drifted from the metric table; regenerate it from \
             spec::benchmark_json()"
        );
    }

    #[test]
    fn names_units_and_bounds_are_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for name in METRICS
            .iter()
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(is_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for m in METRICS {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
            if let Level::EndToEnd { bound } = m.level {
                assert!(
                    bound > 0.0 && bound <= MAX_BOUND,
                    "{} bound {bound}",
                    m.name
                );
            }
        }
        let setup = METRICS.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = METRICS
            .iter()
            .filter_map(|m| match m.level {
                Level::EndToEnd { bound } => Some(bound),
                _ => None,
            })
            .fold(0.0, f64::max);
        assert_eq!(setup.level, Level::EndToEnd { bound: widest });
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
