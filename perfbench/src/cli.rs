//! The CLI phase: `netshare_cli synth-flows|synth-packets` as a program
//! process, its output check, and an in-process replica of the same run
//! that times each layer for the traced split.

use crate::fixtures::{self, Trace};
use crate::proc::{self, Usage};
use crate::trace::Tracer;
use crate::workload::{Kind, Workload};
use netshare::{postprocess, NetShare, NetShareConfig};
use std::path::Path;
use std::time::Instant;
use telemetry::metrics::Snapshot;

/// The command-line flags of the measured run. The program keeps its
/// default `--seed`: it receives only the seeded input trace.
pub fn args(w: &Workload, input: &Path, output: &Path, ckpt: &Path) -> Vec<String> {
    let mut a: Vec<String> = vec![w.kind.mode().into(), path(input), path(output)];
    for (flag, v) in [("--chunks", w.chunks), ("--steps", w.steps), ("--n", w.n)] {
        a.extend([flag.to_string(), v.to_string()]);
    }
    if w.kind == Kind::Packets {
        a.extend(["--ckpt-dir".to_string(), path(ckpt)]);
    }
    a
}

fn path(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// The configuration `netshare_cli` builds from [`args`].
fn config(w: &Workload, ckpt: &Path) -> NetShareConfig {
    let mut cfg = NetShareConfig::default_config();
    cfg.n_chunks = w.chunks;
    cfg.seed_steps = w.steps;
    cfg.finetune_steps = (w.steps / 5).max(10);
    if w.kind == Kind::Packets {
        cfg.orchestrator.checkpoint_dir = Some(ckpt.to_path_buf());
    }
    cfg
}

/// Re-parses an output file: it must hold exactly `w.n` records. Returns
/// the digest of its bytes.
pub fn check_output(w: &Workload, output: &Path) -> Result<u64, String> {
    let bytes = std::fs::read(output).map_err(|e| format!("read {}: {e}", output.display()))?;
    let records = match w.kind {
        Kind::Flows => {
            let text = std::str::from_utf8(&bytes).map_err(|e| format!("output not UTF-8: {e}"))?;
            nettrace::netflow::read_netflow_csv(text)
                .map_err(|e| format!("re-parse: {e}"))?
                .len()
        }
        Kind::Packets => nettrace::pcap::read_pcap(&bytes)
            .map_err(|e| format!("re-parse: {e}"))?
            .len(),
    };
    if records != w.n {
        return Err(format!("output holds {records} records, want {}", w.n));
    }
    Ok(orchestrator::fnv1a64(&bytes))
}

/// One measured CLI run.
pub struct Rep {
    pub wall_s: f64,
    pub usage: Usage,
    pub digest: Result<u64, String>,
}

/// Runs `netshare_cli` once as a program process. A fresh checkpoint
/// directory is used for every run.
pub fn run(cli: &Path, w: &Workload, input: &Path, dir: &Path) -> Result<Rep, String> {
    let output = dir.join("synthetic.out");
    let ckpt = dir.join("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_file(&output);
    let log =
        std::fs::File::create(dir.join("cli.log")).map_err(|e| format!("create cli.log: {e}"))?;
    let (wall_s, usage) = proc::run(cli, &args(w, input, &output, &ckpt), log)?;
    let digest = if usage.success {
        check_output(w, &output)
    } else {
        let log = std::fs::read_to_string(dir.join("cli.log")).unwrap_or_default();
        Err(format!("netshare_cli failed: {}", log.trim()))
    };
    Ok(Rep {
        wall_s,
        usage,
        digest,
    })
}

/// Per-layer figures of one traced in-process run.
pub struct Layers {
    /// The whole in-process run, the benchmark's own tuple-codec fit and
    /// encode included.
    pub wall_s: f64,
    pub digest: Result<u64, String>,
    pub read_s: f64,
    pub tuple_fit_s: f64,
    pub encode_s: f64,
    pub write_s: f64,
    /// Registry snapshots before fit, after fit, after generate.
    pub snaps: [Snapshot; 3],
}

impl Layers {
    /// Seconds of the steps the program itself takes (read, fit, generate,
    /// write): the run less the tuple-codec fit and encode the benchmark
    /// makes to time them, which the fit then repeats on its own.
    pub fn program_steps_s(&self) -> f64 {
        self.wall_s - self.tuple_fit_s - self.encode_s
    }
}

/// Runs `f` inside a benchmark span; returns its value and seconds.
fn timed<T>(
    tracer: &Tracer,
    name: &str,
    op: u64,
    parent: Option<u64>,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let _span = tracer.span(name, op, parent);
    let t = Instant::now();
    let value = f()?;
    Ok((value, t.elapsed().as_secs_f64()))
}

/// The CLI run in process, each layer call wrapped in a benchmark span.
/// Writes the same output file as the program would.
pub fn traced(
    tracer: &std::sync::Arc<Tracer>,
    w: &Workload,
    input: &Path,
    dir: &Path,
    op: u64,
) -> Result<Layers, String> {
    let output = dir.join("synthetic.out");
    let ckpt = dir.join("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let cfg = config(w, &ckpt);
    let t0 = Instant::now();
    let root = tracer.span("cli.run", op, None);
    let parent = Some(root.id());
    let bytes = std::fs::read(input).map_err(|e| format!("read {}: {e}", input.display()))?;

    let (trace, read_s) = timed(tracer, "nettrace.read", op, parent, || {
        Ok(match w.kind {
            Kind::Flows => {
                let text = std::str::from_utf8(&bytes).map_err(|e| e.to_string())?;
                Trace::Flows(nettrace::netflow::read_netflow_csv(text).map_err(|e| e.to_string())?)
            }
            Kind::Packets => {
                Trace::Packets(nettrace::pcap::read_pcap(&bytes).map_err(|e| e.to_string())?)
            }
        })
    })?;
    let (tuples, tuple_fit_s) = timed(tracer, "tuplecodec.fit", op, parent, || {
        Ok(fixtures::fit_tuples(&cfg))
    })?;
    let ((), encode_s) = timed(tracer, "codec.encode", op, parent, || {
        std::hint::black_box(fixtures::encode(&trace, tuples, &cfg));
        Ok(())
    })?;

    let before_fit = telemetry::metrics::snapshot();
    let fit = tracer.span("pipeline.fit", op, parent);
    let model = match &trace {
        Trace::Flows(t) => NetShare::fit_flows(t, &cfg),
        Trace::Packets(t) => NetShare::fit_packets(t, &cfg),
    };
    // The fit routes spans into its own event log; take them from there
    // and route later ones back here.
    tracer.install();
    drop(fit);
    let mut model = model.map_err(|e| e.to_string())?;
    for e in model.events() {
        if let orchestrator::Event::Span {
            path,
            start_us,
            duration_us,
            depth,
        } = e
        {
            tracer.program(path, start_us * 1_000, duration_us * 1_000, *depth);
        }
    }
    let after_fit = telemetry::metrics::snapshot();

    let gen = tracer.span("pipeline.generate", op, parent);
    let synth = match w.kind {
        Kind::Flows => Trace::Flows(model.generate_flows(w.n)),
        Kind::Packets => Trace::Packets(model.generate_packets(w.n)),
    };
    drop(gen);
    let after_gen = telemetry::metrics::snapshot();
    let ((), write_s) = timed(tracer, "postprocess.write", op, parent, || {
        let bytes = match &synth {
            Trace::Flows(t) => postprocess::to_netflow_csv(t).into_bytes(),
            Trace::Packets(t) => postprocess::to_pcap_bytes(t),
        };
        std::fs::write(&output, bytes).map_err(|e| format!("write {}: {e}", output.display()))
    })?;
    drop(root);
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Layers {
        wall_s,
        digest: check_output(w, &output),
        read_s,
        tuple_fit_s,
        encode_s,
        write_s,
        snaps: [before_fit, after_fit, after_gen],
    })
}
