//! `benchmark` — the repository benchmark: MERSIT inference served over
//! the `mersit-served` socket protocol under four traffic mixes,
//! measured end to end, with outside-in per-layer timings.
//!
//! ```sh
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload float-mersit --seed 1 --trace 0
//! ```
//!
//! Each workload runs in its own process: build the zoo, host a
//! `mersit_serve::Server` behind `net::spawn` on loopback, drive it over
//! one connection from at most two threads, check every answer, and print each
//! metric as `workload metric value unit`. The last line is a JSON
//! summary: the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. README.md beside this file explains the workloads
//! and metrics.

mod layers;
mod load;
mod spec;
mod stats;
mod stream;

use load::{OpenStats, SatStats, Session, Tally};
use mersit_nn::{predict_one_batch_ref, Model};
use mersit_ptq::{Calibration, FormatAssignment, QuantPlan};
use mersit_serve::{net, NetConfig, NetHandle, ServeConfig, Server};
use mersit_tensor::Tensor;
use spec::{Level, Metric, Workload, METRICS};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;
use stream::{batch, build_zoo, fresh_spec, zoo_entry, Traffic, FRESH_EXECUTOR, FRESH_MODEL};

const USAGE: &str = "usage: benchmark (--workload NAME | --all | --list) \
                     [--seed N] [--seconds N] [--trace 0|1] [--out PATH]";

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    all: bool,
    list: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        list: false,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(spec::workload(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--all" => args.all = true,
            "--list" => args.list = true,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if usize::from(args.workload.is_some()) + usize::from(args.all) + usize::from(args.list) != 1 {
        return Err("give exactly one of --workload, --all and --list".into());
    }
    Ok(args)
}

fn main() {
    // The pinned configuration: the pool size, the auto-detected SIMD
    // tier, and observability off. Set before anything starts the pool.
    std::env::set_var("MERSIT_THREADS", spec::THREADS);
    std::env::remove_var("MERSIT_SIMD");
    std::env::remove_var("MERSIT_OBS");
    let code = match parse_args(std::env::args().skip(1)) {
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            2
        }
        Ok(args) => match run(&args) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("benchmark: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

/// Runs what the arguments ask for; `Ok(false)` when a run was incorrect
/// or invalid.
fn run(args: &Args) -> Result<bool, String> {
    if args.list {
        print!("{}", spec::list());
        return Ok(true);
    }
    match args.workload {
        Some(w) => run_workload(w, args),
        None => run_all(args),
    }
}

/// Every workload in its own child process, one after another. With
/// `--out`, their reports are gathered into one JSON array; a child that
/// wrote no report, having failed or panicked first, is entered as
/// incorrect and the remaining workloads still run.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut ok = true;
    let mut reports = Vec::new();
    for w in spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        let part = args
            .out
            .as_ref()
            .map(|o| PathBuf::from(format!("{}.{}.part", o.display(), w.name)));
        if let Some(p) = &part {
            cmd.arg("--out").arg(p);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("running {}: {e}", w.name))?;
        ok &= status.success();
        if let Some(p) = part {
            let (report, written) = take_report(&p, w.name, args.seed);
            ok &= written;
            reports.push(report);
        }
    }
    if let Some(out) = &args.out {
        std::fs::write(out, format!("[\n{}\n]\n", reports.join(",\n")))
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(ok)
}

/// The report a child process wrote to `part`, which is then removed,
/// and `true`; or, when it wrote none, an entry marking `workload`
/// incorrect, and `false`.
fn take_report(part: &Path, workload: &str, seed: u64) -> (String, bool) {
    match std::fs::read_to_string(part) {
        Ok(text) => {
            if let Err(e) = std::fs::remove_file(part) {
                eprintln!("benchmark: {}: {e}", part.display());
            }
            (text.trim_end().to_owned(), true)
        }
        Err(e) => {
            eprintln!(
                "benchmark: {workload}: no report in {}: {e}",
                part.display()
            );
            let entry = format!(
                "{{\"workload\": {}, \"seed\": {seed}, \"correct\": false}}",
                json_str(workload)
            );
            (entry, false)
        }
    }
}

/// `expected[key][sample]`: each warm key's plan (or the FP32 reference)
/// run on each sample alone. Batched answers must match these, because
/// batched execution is bit-identical to single-sample.
fn expected_predictions(
    w: &Workload,
    zoo: &[(Model, Calibration)],
    samples: &[Tensor],
) -> Vec<Vec<usize>> {
    w.keys
        .iter()
        .map(|key| {
            let (model, cal) = zoo_entry(zoo, key.model);
            let plan = key.spec.map(|s| {
                let assign = FormatAssignment::parse(s).expect("workload specs parse");
                QuantPlan::build_with(model, assign, cal, key.executor)
            });
            samples
                .iter()
                .map(|s| {
                    let x = batch(std::slice::from_ref(s), 1);
                    match &plan {
                        Some(p) => p.predict_one_batch(model, x)[0],
                        None => predict_one_batch_ref(&model.net, x)[0],
                    }
                })
                .collect()
        })
        .collect()
}

/// Checks the never-seen-spec answers after the run; returns how many
/// were wrong.
fn check_fresh(
    zoo: &[(Model, Calibration)],
    samples: &[Tensor],
    fresh: &[(usize, usize, usize)],
) -> u64 {
    let mut by_spec: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for &(spec, sample, prediction) in fresh {
        by_spec.entry(spec).or_default().push((sample, prediction));
    }
    let (model, cal) = zoo_entry(zoo, FRESH_MODEL);
    let mut wrong = 0;
    for (spec, answers) in by_spec {
        let assign = FormatAssignment::parse(&fresh_spec(spec)).expect("fresh specs parse");
        let plan = QuantPlan::build_with(model, assign, cal, FRESH_EXECUTOR);
        for (sample, prediction) in answers {
            let x = batch(&samples[sample..=sample], 1);
            if plan.predict_one_batch(model, x)[0] != prediction {
                wrong += 1;
            }
        }
    }
    wrong
}

/// A server plus its socket front door on an ephemeral loopback port,
/// with the default batching settings.
struct Hosted {
    server: Arc<Server>,
    net: NetHandle,
}

impl Hosted {
    fn start() -> Result<Self, String> {
        let server = Arc::new(Server::start(build_zoo(), ServeConfig::default()));
        let net = net::spawn(
            Arc::clone(&server),
            NetConfig::default().addr("127.0.0.1:0"),
        )
        .map_err(|e| format!("listening on loopback: {e}"))?;
        Ok(Self { server, net })
    }

    /// Closes the session, drains and stops the server, and checks that
    /// it admitted and settled every request the session sent.
    fn retire(self, session: Session<'_>, tally: &mut Tally, invalid: &mut Vec<String>) {
        let t = session.finish();
        let sent = t.attempted;
        tally.absorb(t);
        self.net.shutdown();
        let s = self.server.stats();
        if s.submitted != s.completed + s.failed || s.submitted != sent {
            invalid.push(format!(
                "conservation: sent {sent}, submitted {}, completed {}, failed {}",
                s.submitted, s.completed, s.failed
            ));
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Writes `s` as a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(values: &[(&'static Metric, f64)]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Everything one workload's load measured.
struct Drive {
    setup: Vec<f64>,
    open: OpenStats,
    sat: SatStats,
    /// Plans the server built during the measured phases.
    builds: usize,
    tally: Tally,
}

/// The set-ups, then warm-up, open and saturation phases against the
/// last server set up. Conservation failures go to `invalid`.
fn drive(
    w: &'static Workload,
    traffic: &mut Traffic,
    expected: &[Vec<usize>],
    (open_s, sat_s): (f64, f64),
    invalid: &mut Vec<String>,
) -> Result<Drive, String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let mut tally = Tally::default();
    // Set-up: a fresh zoo, server and listener, then the first answer of
    // every warm key (which builds its plan).
    let mut setup = Vec::new();
    let mut live = None;
    for i in 0..spec::SETUPS {
        let t0 = Instant::now();
        let hosted = Hosted::start()?;
        let mut session = Session::connect(hosted.net.addr(), w, &traffic.samples, expected)
            .map_err(io("connecting"))?;
        session.warm_keys().map_err(io("warming the keys"))?;
        setup.push(t0.elapsed().as_secs_f64());
        if i + 1 < spec::SETUPS {
            hosted.retire(session, &mut tally, invalid);
            std::thread::sleep(spec::SETUP_GAP);
        } else {
            live = Some((hosted, session));
        }
    }
    let (hosted, mut session) = live.expect("at least one set-up");
    session
        .open_phase(
            traffic.arrivals.next_phase(),
            &mut traffic.stream,
            spec::WARMUP_SECONDS,
        )
        .map_err(io("warm-up"))?;
    let plans_before = hosted.server.stats().cached_plans;
    let open = session
        .open_phase(traffic.arrivals.next_phase(), &mut traffic.stream, open_s)
        .map_err(io("open phase"))?;
    let sat = session
        .sat_phase(&mut traffic.stream, sat_s)
        .map_err(io("saturation phase"))?;
    let builds = hosted.server.stats().cached_plans - plans_before;
    hosted.retire(session, &mut tally, invalid);
    Ok(Drive {
        setup,
        open,
        sat,
        builds,
        tally,
    })
}

/// One workload, start to finish. Prints the metric lines and the JSON
/// summary; `Ok(false)` when any answer was wrong or the run invalid.
fn run_workload(w: &'static Workload, args: &Args) -> Result<bool, String> {
    let seconds = args.seconds as f64;
    let (open_s, sat_s) = (
        seconds * spec::OPEN_SHARE,
        seconds * (1.0 - spec::OPEN_SHARE),
    );
    let cfg = ServeConfig::default();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let settings: Vec<(&str, String)> = vec![
        ("simd", json_str(mersit_core::simd_level().name())),
        ("threads", mersit_tensor::pool_size().to_string()),
        ("nproc", nproc.to_string()),
        ("load_threads", spec::LOAD_THREADS.to_string()),
        ("connections", "1".into()),
        ("rate_per_s", w.rate.to_string()),
        ("warmup_s", spec::WARMUP_SECONDS.to_string()),
        ("open_s", open_s.to_string()),
        ("sat_s", sat_s.to_string()),
        ("sat_in_flight", spec::SAT_IN_FLIGHT.to_string()),
        ("setups", spec::SETUPS.to_string()),
        ("max_batch", cfg.max_batch.to_string()),
        ("max_wait_us", cfg.max_wait_us.to_string()),
        ("queue_depth", cfg.queue_depth.to_string()),
    ];
    let header: Vec<String> = settings
        .iter()
        .map(|(k, v)| format!("{k}={}", v.trim_matches('"')))
        .collect();
    println!(
        "# benchmark workload={} seed={} seconds={} trace={} {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        header.join(" ")
    );

    let mut traffic = Traffic::new(w, args.seed);
    let zoo = build_zoo();
    let expected = expected_predictions(w, &zoo, &traffic.samples);
    let mut invalid = Vec::new();
    if spec::LOAD_THREADS > nproc.min(2) {
        invalid.push(format!(
            "{} load threads on {nproc} cores would measure the scheduler",
            spec::LOAD_THREADS
        ));
    }
    let Drive {
        setup,
        open,
        sat,
        builds,
        mut tally,
    } = drive(w, &mut traffic, &expected, (open_s, sat_s), &mut invalid)?;
    tally.wrong += check_fresh(&zoo, &traffic.samples, &tally.fresh);
    let rss = peak_rss_mib()?;

    let lateness_p90 = percentile(&open.lateness_us, 0.9);
    let max_lateness_us = spec::max_lateness_us(w.rate);
    if lateness_p90.is_some_and(|l| l > max_lateness_us) {
        invalid.push(format!(
            "generator lateness p90 {:.0} us exceeds {max_lateness_us:.0} us",
            lateness_p90.unwrap_or_default(),
        ));
    }
    if open.backlog as f64 > w.rate * spec::MAX_BACKLOG_SECONDS {
        invalid.push(format!(
            "backlog grew: {} requests in flight when the open phase ended",
            open.backlog
        ));
    }
    let failed = tally.failed();
    let ms = |us: Option<f64>| us.map(|u| u / 1e3);
    let mut found: Vec<(&'static str, Option<f64>)> = vec![
        ("setup_s", setup.iter().copied().reduce(f64::min)),
        ("sat_rps", sat.windows.rate(sat_s)),
        ("p50_ms", ms(percentile(&open.latency_us, 0.5))),
        ("p90_ms", ms(percentile(&open.latency_us, 0.9))),
        ("peak_rss_mb", Some(rss)),
        (
            "error_frac",
            Some(failed as f64 / tally.attempted.max(1) as f64),
        ),
        ("p99_ms", ms(percentile(&open.latency_us, 0.99))),
        ("open_samples", Some(open.latency_us.len() as f64)),
        ("lateness_p90_us", lateness_p90),
        ("lateness_p99_us", percentile(&open.lateness_us, 0.99)),
        ("serve.net.overhead_us.p50", median(&open.overhead_us)),
        ("serve.batcher.queue_us.p50", median(&open.queue_us)),
        ("serve.batcher.compute_us.p50", median(&open.compute_us)),
        ("serve.batcher.batch_mean.open", open.batch.get()),
        ("serve.batcher.batch_mean.sat", sat.batch.get()),
        ("serve.cache.builds", Some(builds as f64)),
    ];
    if args.trace {
        let layers = layers::measure(w, &zoo, &traffic.samples);
        found.extend(layers.into_iter().map(|(n, v)| (n, Some(v))));
    }
    let got: BTreeMap<&str, f64> = found
        .into_iter()
        .filter_map(|(n, v)| v.filter(|v| v.is_finite()).map(|v| (n, v)))
        .collect();
    let values: Vec<(&'static Metric, f64)> = METRICS
        .iter()
        .filter_map(|m| got.get(m.name).map(|&v| (m, v)))
        .collect();
    let wanted = |m: &Metric| match m.level {
        Level::EndToEnd { .. } => !args.trace,
        Level::Layer => args.trace,
        Level::Recorded => false,
    };
    for m in METRICS
        .iter()
        .filter(|m| wanted(m) && !got.contains_key(m.name))
    {
        invalid.push(format!("{} was not measured", m.name));
    }
    for (m, v) in &values {
        println!("{} {} {v} {}", w.name, m.name, m.unit);
    }
    for why in &invalid {
        eprintln!("benchmark: {}: invalid run: {why}", w.name);
    }
    if failed > 0 {
        eprintln!(
            "benchmark: {}: {failed} of {} requests failed ({} wrong, {} error frames, {} lost)",
            w.name, tally.attempted, tally.wrong, tally.error_frames, tally.lost
        );
    }
    let correct = failed == 0 && invalid.is_empty();
    if let Some(out) = &args.out {
        let settings: Vec<String> = settings
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let invalid: Vec<String> = invalid.iter().map(|s| json_str(s)).collect();
        let report = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"settings\": {{{}}}, \"correct\": {correct}, \"attempted\": {}, \
             \"failed\": {failed}, \"invalid\": [{}], \"metrics\": {}}}\n",
            json_str(w.name),
            args.seed,
            args.seconds,
            args.trace,
            settings.join(", "),
            tally.attempted,
            invalid.join(", "),
            json_metrics(&values),
        );
        std::fs::write(out, report).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    let summary: Vec<(&'static Metric, f64)> =
        values.iter().copied().filter(|(m, _)| wanted(m)).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        tally.attempted,
        json_metrics(&summary)
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn command_line() {
        let a = parse("--workload spec-mix --seed 9 --seconds 3 --trace 1 --out r.json").unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("spec-mix"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert_eq!(a.out, Some(PathBuf::from("r.json")));
        let d = parse("--all").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, spec::RUN_SECONDS, false));
        for bad in [
            "",
            "--list --all",
            "--workload nope",
            "--trace 2 --all",
            "--seed",
            "--all x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn a_missing_report_marks_its_workload_incorrect() {
        let part = std::env::temp_dir().join(format!("benchmark-{}.part", std::process::id()));
        let _ = std::fs::remove_file(&part);
        assert_eq!(
            take_report(&part, "spec-mix", 4),
            (
                "{\"workload\": \"spec-mix\", \"seed\": 4, \"correct\": false}".to_owned(),
                false
            )
        );
        std::fs::write(&part, "{\"workload\": \"spec-mix\"}\n").unwrap();
        assert_eq!(
            take_report(&part, "spec-mix", 4),
            ("{\"workload\": \"spec-mix\"}".to_owned(), true)
        );
        assert!(!part.exists(), "the part file is removed");
    }
}
