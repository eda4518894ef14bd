//! End-to-end benchmark of the shipped `netshare_cli` and `netshared`
//! binaries.
//!
//! ```text
//! perfbench --bin-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the programs as processes and prints the end-to-end
//! metrics; `--trace 1` replays the same work in process with every layer
//! call wrapped in a span, prints the per-span profile and the per-layer
//! metrics. Either way the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `bash
//! perfbench/run.sh ...` builds everything and runs this from the
//! repository root.

mod cli;
mod fixtures;
mod proc;
mod serve;
mod stats;
mod trace;
mod workload;

use stats::{median, percentile, Tally};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use telemetry::metrics::Snapshot;
use workload::{Workload, BULK_CLIENTS, BULK_COUNT, HIGH_RATE, LIMIT_MS, LOW_RATE};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fewest measured rounds a run makes, whatever `--seconds` says. With the
/// open-loop pulls per round below, three rounds leave at least ten
/// samples beyond every reported 90th percentile.
const MIN_ROUNDS: usize = 3;
const LOW_PULLS: usize = 35;
const HIGH_PULLS: usize = 80;

struct Args {
    bin_dir: PathBuf,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut bin_dir = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (for percentiles, the sample count).
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

struct Outcome {
    metrics: Vec<Metric>,
    /// Operations, output checks included, attempted and failed.
    tally: Tally,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(proc::LAUNCH_FLAG) {
        return proc::launch(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for bin in ["netshare_cli", "netshared"] {
        if !args.bin_dir.join(bin).is_file() {
            eprintln!("perfbench: {} not found in {}", bin, args.bin_dir.display());
            return ExitCode::from(2);
        }
    }
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let result = if args.trace {
        traced(&args, &work)
    } else {
        untraced(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let result = result.and_then(|out| check_declared(&out.metrics, section).map(|()| out));
    match result {
        Ok(out) => {
            report(&out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report(out: &Outcome) {
    println!(
        "{:<40} {:>16} {:<12} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &out.metrics {
        assert!(
            stats::valid_metric_name(m.name),
            "bad metric name {}",
            m.name
        );
        println!(
            "{:<40} {:>16.6} {:<12} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "ops attempted {} failed {} (failed_share {:.4})",
        out.tally.attempted,
        out.tally.failed,
        1.0 - out.tally.success_share()
    );
    let fields: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted.max(1),
        out.tally.failed,
        fields.join(", ")
    );
}

/// A JSON document as the serde data model's value tree.
struct Json(serde::Value);

impl serde::Deserialize for Json {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

fn parse_json(text: &str, what: &str) -> Result<serde::Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| format!("{what}: {e}"))
}

/// The entry `key` of a JSON object.
fn field<'a>(v: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Checks that the metrics printed are exactly those `BENCHMARK.json`
/// declares in `section`, with the same units.
fn check_declared(metrics: &[Metric], section: &str) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let doc = parse_json(&text, "BENCHMARK.json")?;
    let entries = field(&doc, section)
        .and_then(serde::Value::as_seq)
        .ok_or(format!("BENCHMARK.json has no {section} list"))?;
    let text_of = |e: &serde::Value, key: &str| match field(e, key) {
        Some(serde::Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let declared: Vec<(String, String)> = entries
        .iter()
        .map(|e| text_of(e, "name").zip(text_of(e, "unit")))
        .collect::<Option<_>>()
        .ok_or(format!(
            "a BENCHMARK.json {section} entry lacks a name or unit"
        ))?;
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    if declared != printed {
        return Err(format!(
            "metrics {printed:?} differ from BENCHMARK.json {section} {declared:?}"
        ));
    }
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Prints the drift diagnosis: host, build, and a fixed ALU control loop.
fn print_host() {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "host: nproc {} loadavg {:.2} build {profile} telemetry on control_loop_ms {:.2} (reported only)",
        proc::nproc(),
        proc::loadavg(),
        proc::control_loop_ms()
    );
}

fn bins(args: &Args) -> (PathBuf, PathBuf) {
    (
        args.bin_dir.join("netshare_cli"),
        args.bin_dir.join("netshared"),
    )
}

/// The offline stream every served pull must be a prefix of.
fn reference(bundle: &Path) -> Result<Vec<doppelganger::GeneratedSample>, String> {
    let bundle = doppelganger::ArtifactBundle::load(bundle)?;
    Ok(bundle.rebuild()?.sample_fast(BULK_COUNT as usize))
}

fn untraced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let (cli_bin, daemon_bin) = bins(args);
    print_host();

    // Set-up: inputs, bundle, and the daemon answering HELLO. Repeated so
    // its median is steady; the last one is kept.
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let dir = work.join(format!("setup{k}"));
        let inputs = fixtures::make(w, args.seed, &dir)?;
        let daemon = serve::Daemon::start(&daemon_bin, &inputs.bundle, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        digests.push((file_digest(&inputs.trace)?, file_digest(&inputs.bundle)?));
        if let Some((_, old, _)) = kept.replace((inputs, daemon, dir)) {
            old.stop()?;
        }
    }
    let (inputs, daemon, dir) = kept.expect("at least one set-up");
    println!("set-ups: {} s", join(&setup_s));
    if digests.windows(2).any(|d| d[0] != d[1]) {
        return Err("the same seed made different inputs".into());
    }
    let reference = reference(&inputs.bundle)?;

    let mut tally = Tally::default();
    // Rounds of one CLI run, one bulk round and a slice of each open loop,
    // repeated until `--seconds` is used. Interleaving the phases spreads a
    // slow spell of the host over every metric's samples instead of
    // landing on one phase, and the medians then ride it out.
    let t_run = Instant::now();
    let mut cli_reps: Vec<cli::Rep> = Vec::new();
    let mut first_digest = None;
    let (mut rates, mut serve_cpu) = (Vec::new(), Vec::new());
    let (mut low, mut high) = (Vec::new(), Vec::new());
    loop {
        let rep = cli::run(&cli_bin, w, &inputs.trace, &dir)?;
        let ok = match &rep.digest {
            Ok(d) if *first_digest.get_or_insert(*d) == *d => true,
            Ok(_) => {
                eprintln!("perfbench: CLI output differs between runs of one seed");
                false
            }
            Err(e) => {
                eprintln!("perfbench: CLI run failed its check: {e}");
                false
            }
        };
        tally.record(ok);
        cli_reps.push(rep);

        let cpu0 = proc::live_cpu_s(daemon.pid()).ok_or("cannot read netshared CPU time")?;
        let (wall, results) = serve::bulk(&daemon.addr, &inputs.artifact, &reference);
        let cpu1 = proc::live_cpu_s(daemon.pid()).ok_or("cannot read netshared CPU time")?;
        for r in &results {
            if let Err(e) = r {
                eprintln!("perfbench: bulk pull failed: {e}");
            }
            tally.record(r.is_ok());
        }
        rates.push((BULK_CLIENTS as u64 * BULK_COUNT) as f64 / wall);
        serve_cpu.push(cpu1 - cpu0);

        for (k, (reqs, rate, pulls)) in [
            (&mut low, LOW_RATE, LOW_PULLS),
            (&mut high, HIGH_RATE, HIGH_PULLS),
        ]
        .into_iter()
        .enumerate()
        {
            let slice = serve::open_loop(
                &daemon.addr,
                &inputs.artifact,
                rate,
                pulls,
                loop_seed(args.seed, 2 * cli_reps.len() + k),
                &reference,
                None,
            );
            for r in &slice {
                tally.record(r.done_s.is_some());
            }
            reqs.extend(slice);
        }
        let rounds = cli_reps.len();
        let elapsed = t_run.elapsed().as_secs_f64();
        if rounds >= MIN_ROUNDS && elapsed + elapsed / rounds as f64 > args.seconds {
            break;
        }
    }

    let daemon_rss_mb = proc::live_peak_rss_mb(daemon.pid()).unwrap_or(f64::NAN);
    let daemon_metrics = daemon.stop()?;
    let subscribes = counter(&daemon_metrics, "netshared.subscribes")?;
    let want = (rates.len() * BULK_CLIENTS + low.len() + high.len()) as u64;
    if subscribes != Some(want) {
        eprintln!("perfbench: netshared counted {subscribes:?} subscribes, want {want}");
    }
    tally.record(subscribes == Some(want));

    let walls: Vec<f64> = cli_reps.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = cli_reps.iter().map(|r| r.usage.cpu_s).collect();
    let rss: Vec<f64> = cli_reps.iter().map(|r| r.usage.peak_rss_mb).collect();
    let ok_ms = |reqs: &[serve::Req], f: fn(&serve::Req) -> Option<f64>| -> Vec<f64> {
        reqs.iter().filter_map(f).collect()
    };
    let (low_ms, high_ms) = (
        ok_ms(&low, serve::Req::latency_ms),
        ok_ms(&high, serve::Req::latency_ms),
    );
    let low_first = ok_ms(&low, serve::Req::first_data_ms);
    let p = |v: &[f64], q: f64| {
        if v.is_empty() {
            f64::NAN
        } else {
            percentile(v, q)
        }
    };
    let outcomes: Vec<stats::Outcome> = high.iter().map(serve::Req::latency_ms).collect();
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s", setup_s.len()),
        metric("wall_s", median(&walls), "s", walls.len()),
        metric("cpu_s", median(&cpus), "s", cpus.len()),
        metric("peak_rss_mb", median(&rss), "MB", rss.len()),
        metric(
            "success_share",
            tally.success_share(),
            "share",
            tally.attempted as usize,
        ),
        metric("serve_samples_per_s", median(&rates), "1/s", rates.len()),
        metric("serve_cpu_s", median(&serve_cpu), "s", serve_cpu.len()),
        metric(
            "in_limit_share.high",
            stats::in_limit_share(&outcomes, LIMIT_MS),
            "share",
            outcomes.len(),
        ),
    ];
    println!(
        "run: {} CLI runs, {} bulk rounds, {} + {} open-loop pulls at {}/s and {}/s, limit {} ms, \
         netshared peak RSS {:.1} MB",
        walls.len(),
        rates.len(),
        low.len(),
        high.len(),
        LOW_RATE,
        HIGH_RATE,
        LIMIT_MS,
        daemon_rss_mb,
    );
    // Latency percentiles are printed, not gated: on a shared 2-vCPU host
    // their run-to-run spread exceeds any bound the benchmark may set. The
    // traced run reports them as per-layer metrics.
    for (name, v) in [
        ("pull low", &low_ms),
        ("pull high", &high_ms),
        ("first DATA low", &low_first),
    ] {
        println!(
            "latency {name}: p50 {:.2} ms p90 {:.2} ms ({} samples)",
            p(v, 50.0),
            p(v, 90.0),
            v.len()
        );
    }
    println!(
        "rounds: wall_s {} | serve_samples_per_s {}",
        join(&walls),
        join(&rates)
    );
    Ok(Outcome { metrics, tally })
}

/// Values to three decimals, separated by spaces.
fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Seed of the `k`th open loop of a run: the run's seed scrambled, so
/// that the loops of one run and of nearby seeds start at unrelated
/// offsets.
fn loop_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x100_0000_01b3) ^ k as u64
}

fn file_digest(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|b| orchestrator::fnv1a64(&b))
        .map_err(|e| format!("read {}: {e}", path.display()))
}

/// A counter's value in a metrics snapshot JSON document.
fn counter(json: &str, name: &str) -> Result<Option<u64>, String> {
    let doc = parse_json(json, "netshared metrics")?;
    Ok(field(&doc, "counters")
        .and_then(|c| field(c, name))
        .and_then(serde::Value::as_u64))
}

fn delta_counter(a: &Snapshot, b: &Snapshot, name: &str) -> f64 {
    let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
    get(b).saturating_sub(get(a)) as f64
}

fn delta_hist_sum(a: &Snapshot, b: &Snapshot, name: &str) -> f64 {
    let get = |s: &Snapshot| s.histograms.get(name).map_or(0.0, |h| h.sum);
    get(b) - get(a)
}

fn traced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let (cli_bin, _) = bins(args);
    print_host();
    let dir = work.join("traced");
    let inputs = fixtures::make(w, args.seed, &dir)?;
    let reference = reference(&inputs.bundle)?;
    let mut tally = Tally::default();

    // The untraced program run the traced wall time is compared with.
    let plain = cli::run(&cli_bin, w, &inputs.trace, &dir)?;
    tally.record(plain.digest.is_ok());

    let tracer = Arc::new(trace::Tracer::default());
    tracer.install();
    let layers = cli::traced(&tracer, w, &inputs.trace, &dir, 1)?;
    let same = matches!((&layers.digest, &plain.digest), (Ok(a), Ok(b)) if a == b);
    if !same {
        eprintln!("perfbench: in-process run output differs from netshare_cli's");
    }
    tally.record(same);

    // Serve phase against an in-process server, so its statistics and the
    // registry can be read.
    let bundle = doppelganger::ArtifactBundle::load(&inputs.bundle)?;
    let mut rebuild_ms = Vec::new();
    for _ in 0..5 {
        let _g = tracer.span("artifact.rebuild", 2, None);
        let t = Instant::now();
        std::hint::black_box(bundle.rebuild()?);
        rebuild_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let server = netshared::Server::start(netshared::ServerConfig::default(), vec![bundle])?;
    let addr = server.local_addr().to_string();
    let s0 = telemetry::metrics::snapshot();
    {
        let _g = tracer.span("serve.bulk", 3, None);
        let (_, results) = serve::bulk(&addr, &inputs.artifact, &reference);
        for r in &results {
            tally.record(r.is_ok());
        }
    }
    let probe = {
        let _g = tracer.span("serve.probe", 4, None);
        serve::frame_pull(&addr, &inputs.artifact, BULK_COUNT, true)
    };
    let probe_ok = probe
        .as_ref()
        .is_ok_and(|p| serve::matches_reference(&p.samples, &reference));
    tally.record(probe_ok);
    let probe = probe?;
    // One open loop per rate, long enough for ten samples beyond p90.
    let pulls = stats::samples_needed(90.0);
    let mut phase = |name: &str, rate: f64, op0: u64| {
        let g = tracer.span(name, op0, None);
        let parent = Some(g.id());
        let reqs = serve::open_loop(
            &addr,
            &inputs.artifact,
            rate,
            pulls,
            loop_seed(args.seed, op0 as usize),
            &reference,
            Some((&tracer, op0, parent)),
        );
        for r in &reqs {
            tally.record(r.done_s.is_some());
        }
        reqs
    };
    let low = phase("serve.interactive.low", LOW_RATE, 1_000);
    let high = phase("serve.interactive.high", HIGH_RATE, 10_000);
    let s1 = telemetry::metrics::snapshot();
    let st = server.stats();
    server.shutdown();
    let spans = tracer.finish();

    std::fs::create_dir_all(".bench_work/traces").map_err(|e| e.to_string())?;
    let trace_file = PathBuf::from(format!(".bench_work/traces/{}-{}.jsonl", w.name, args.seed));
    trace::write_jsonl(&spans, &trace_file).map_err(|e| e.to_string())?;
    trace::print_profile(&spans);
    println!(
        "trace: {} spans written to {}",
        spans.len(),
        trace_file.display()
    );

    // Per-layer figures from spans, registry deltas and server statistics.
    let named = |pred: fn(&str) -> bool| spans.iter().filter(move |s| pred(&s.name));
    let self_time = |pred: fn(&str) -> bool| -> f64 {
        named(pred)
            .map(|s| trace::unattributed(s, &trace::children(&spans, s.id)))
            .sum()
    };
    let gen_unattr =
        self_time(|n| n.starts_with("generate_flows[") || n.starts_with("generate_packets["));
    let fit_unattr = self_time(|n| n == "pipeline.fit");
    let pretrain_s: f64 = named(|n| n == "pretrain").map(|s| s.secs()).sum();
    let finetunes: Vec<f64> = named(|n| n.ends_with("/fine_tune"))
        .map(|s| s.secs())
        .collect();
    let sample_s: f64 = spans
        .iter()
        .filter(|s| s.op == 1 && s.name.starts_with("sample_fast["))
        .map(|s| s.secs())
        .sum();
    let [before_fit, after_fit, after_gen] = &layers.snaps;
    let gen_samples = delta_counter(after_fit, after_gen, "infer.samples").max(1.0);
    let reuses = delta_counter(after_fit, after_gen, "infer.arena.reuses");
    let allocs = delta_counter(after_fit, after_gen, "infer.arena.allocs");
    let frames = probe.frame_at_s.len().max(1) as f64;
    let gaps: Vec<f64> = probe
        .frame_at_s
        .windows(2)
        .map(|p| (p[1] - p[0]) * 1e6)
        .collect();
    let late_ms: Vec<f64> = high
        .iter()
        .map(|r| (r.sent_s - r.due_s).max(0.0) * 1e3)
        .collect();
    let handshakes: Vec<f64> = low
        .iter()
        .chain(&high)
        .filter(|r| r.done_s.is_some())
        .map(|r| r.handshake_s * 1e3)
        .collect();
    let first_low: Vec<f64> = low
        .iter()
        .filter_map(|r| r.first_s.map(|f| (f - r.sent_s) * 1e3))
        .collect();
    let latency = |reqs: &[serve::Req], f: fn(&serve::Req) -> Option<f64>| -> Vec<f64> {
        reqs.iter().filter_map(f).collect()
    };
    let (low_ms, high_ms) = (
        latency(&low, serve::Req::latency_ms),
        latency(&high, serve::Req::latency_ms),
    );
    let low_first_due = latency(&low, serve::Req::first_data_ms);
    let u = |v: u64| v as f64;
    use std::sync::atomic::Ordering::Relaxed;
    let metrics = vec![
        metric("nettrace.read_s", layers.read_s, "s", 1),
        metric("postprocess.write_s", layers.write_s, "s", 1),
        metric("codec.encode_s", layers.encode_s, "s", 1),
        metric("tuplecodec.fit_s", layers.tuple_fit_s, "s", 1),
        metric("generate.unattributed_s", gen_unattr, "s", 1),
        metric(
            "generate.unattributed_us_per_record",
            gen_unattr * 1e6 / w.n as f64,
            "us/record",
            w.n,
        ),
        metric("fit.unattributed_s", fit_unattr, "s", 1),
        metric("train.pretrain_s", pretrain_s, "s", 1),
        metric(
            "train.finetune_sum_s",
            finetunes.iter().sum(),
            "s",
            finetunes.len(),
        ),
        metric(
            "train.finetune_max_s",
            finetunes.iter().copied().fold(0.0, f64::max),
            "s",
            finetunes.len(),
        ),
        metric(
            "train.gen_steps",
            delta_counter(before_fit, after_fit, "train.gen_steps"),
            "count",
            1,
        ),
        metric(
            "orchestrator.jobs",
            delta_counter(before_fit, after_fit, "orchestrator.jobs_completed"),
            "count",
            1,
        ),
        metric(
            "orchestrator.retries",
            delta_counter(before_fit, after_fit, "orchestrator.retries"),
            "count",
            1,
        ),
        metric(
            "store.bytes_written",
            delta_counter(before_fit, after_fit, "store.bytes_written"),
            "bytes",
            1,
        ),
        metric(
            "nnet.gemm_calls",
            delta_counter(before_fit, after_gen, "gemm.calls"),
            "count",
            1,
        ),
        metric(
            "nnet.gemm_s.parallel",
            delta_hist_sum(before_fit, after_gen, "gemm.us.parallel") * 1e-6,
            "s",
            1,
        ),
        metric(
            "nnet.gemm_s.tiled",
            delta_hist_sum(before_fit, after_gen, "gemm.us.tiled") * 1e-6,
            "s",
            1,
        ),
        metric(
            "nnet.gemm_s.naive",
            delta_hist_sum(before_fit, after_gen, "gemm.us.naive") * 1e-6,
            "s",
            1,
        ),
        metric(
            "nnet.gru_forward_s",
            delta_hist_sum(before_fit, after_gen, "gru.forward.us") * 1e-6,
            "s",
            1,
        ),
        metric(
            "nnet.gru_backward_s",
            delta_hist_sum(before_fit, after_gen, "gru.backward.us") * 1e-6,
            "s",
            1,
        ),
        metric("infer.sample_s", sample_s, "s", 1),
        metric(
            "infer.us_per_sample",
            sample_s * 1e6 / gen_samples,
            "us/sample",
            gen_samples as usize,
        ),
        metric(
            "infer.arena_reuse_share",
            reuses / (reuses + allocs).max(1.0),
            "share",
            1,
        ),
        metric(
            "nnet.gemm_calls_per_sample",
            delta_counter(after_fit, after_gen, "gemm.calls") / gen_samples,
            "calls/sample",
            1,
        ),
        metric(
            "artifact.rebuild_ms",
            median(&rebuild_ms),
            "ms",
            rebuild_ms.len(),
        ),
        metric(
            "client.handshake_ms",
            median(&handshakes),
            "ms",
            handshakes.len(),
        ),
        metric(
            "protocol.encode_us_per_frame",
            probe.encode_s * 1e6 / frames,
            "us/frame",
            frames as usize,
        ),
        metric(
            "protocol.decode_us_per_frame",
            probe.decode_s * 1e6 / frames,
            "us/frame",
            frames as usize,
        ),
        metric(
            "protocol.bytes_per_sample",
            probe.data_bytes as f64 / BULK_COUNT as f64,
            "bytes/sample",
            1,
        ),
        metric(
            "netshared.generate_s",
            delta_hist_sum(&s0, &s1, "infer.generate.us") * 1e-6,
            "s",
            1,
        ),
        metric(
            "client.frame_gap_p50_us",
            percentile(&gaps, 50.0),
            "us",
            gaps.len(),
        ),
        metric(
            "netshared.credit_stalls",
            u(st.credit_stalls.load(Relaxed)),
            "count",
            1,
        ),
        metric(
            "netshared.push_stalls",
            u(st.push_stalls.load(Relaxed)),
            "count",
            1,
        ),
        metric("netshared.drops", u(st.drops.load(Relaxed)), "count", 1),
        metric("netshared.shed", u(st.shed.load(Relaxed)), "count", 1),
        metric(
            "netshared.stream_max_buffered_bytes",
            u(st.stream_max_buffered.load(Relaxed)),
            "bytes",
            1,
        ),
        metric(
            "client.late_p90_ms",
            percentile(&late_ms, 90.0),
            "ms",
            late_ms.len(),
        ),
        metric(
            "pull_p50_ms.low",
            percentile(&low_ms, 50.0),
            "ms",
            low_ms.len(),
        ),
        metric(
            "pull_p50_ms.high",
            percentile(&high_ms, 50.0),
            "ms",
            high_ms.len(),
        ),
        metric(
            "first_data_p50_ms.low",
            percentile(&low_first_due, 50.0),
            "ms",
            low_first_due.len(),
        ),
        metric(
            "pull_p90_ms.low",
            percentile(&low_ms, 90.0),
            "ms",
            low_ms.len(),
        ),
        metric(
            "pull_p90_ms.high",
            percentile(&high_ms, 90.0),
            "ms",
            high_ms.len(),
        ),
        metric(
            "first_data_p90_ms.low",
            percentile(&low_first_due, 90.0),
            "ms",
            low_first_due.len(),
        ),
        metric(
            "trace.overhead_share",
            layers.program_steps_s() / plain.wall_s - 1.0,
            "share",
            1,
        ),
    ];
    println!(
        "CLI run: traced in process {:.3} s ({:.3} s less the benchmark's own tuple fit and \
         encode), untraced program {:.3} s",
        layers.wall_s,
        layers.program_steps_s(),
        plain.wall_s
    );
    println!(
        "first DATA of a low-rate pull: p50 {:.2} ms after sending, of which artifact rebuild {:.2} ms",
        percentile(&first_low, 50.0),
        median(&rebuild_ms)
    );
    Ok(Outcome { metrics, tally })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_rounds_leave_ten_samples_beyond_the_p90s() {
        let needed = stats::samples_needed(90.0);
        assert!(MIN_ROUNDS * LOW_PULLS >= needed);
        assert!(MIN_ROUNDS * HIGH_PULLS >= needed);
    }
}
