//! The serve phase: the `netshared` daemon as a program process, bulk
//! pulls through `netshared::pull`, and an open loop of short pulls made
//! by a client built on `netshared::protocol`'s frame functions, so the
//! first DATA frame of each pull is visible.

use crate::stats;
use crate::trace::Tracer;
use crate::workload::{BULK_CLIENTS, BULK_COUNT, MAX_IN_FLIGHT, PULL_COUNT};
use doppelganger::GeneratedSample;
use netshared::protocol::{self, Frame, MAX_FRAME_BYTES, PROTOCOL_VERSION};
use orchestrator::CancelToken;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A running `netshared` process. Dropping it closes its standard input,
/// which makes it drain and exit, and waits for it.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: String,
    metrics: PathBuf,
}

impl Daemon {
    /// Starts the daemon on an ephemeral port serving `bundle`, and
    /// returns once it has answered a HELLO.
    pub fn start(bin: &Path, bundle: &Path, dir: &Path) -> Result<Daemon, String> {
        let addr_file = dir.join("addr");
        let metrics = dir.join("daemon-metrics.json");
        let _ = std::fs::remove_file(&addr_file);
        let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let mut child = Command::new(bin)
            .arg("--artifact")
            .arg(bundle)
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .arg("--metrics-out")
            .arg(&metrics)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut daemon = Daemon {
            child,
            stdin,
            addr: String::new(),
            metrics,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    hello(&daemon.addr)?;
                    return Ok(daemon);
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("netshared did not write its address within 60 s".into())
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains and stops the daemon; returns its metrics snapshot.
    pub fn stop(mut self) -> Result<String, String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"shutdown\n");
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for netshared: {e}"))?;
        if !status.success() {
            return Err(format!("netshared exited with {status}"));
        }
        std::fs::read_to_string(&self.metrics).map_err(|e| format!("read netshared metrics: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.wait();
        }
    }
}

/// Connects and completes the HELLO exchange.
fn connect(addr: &str, token: &CancelToken) -> Result<TcpStream, String> {
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    sock.set_nodelay(true).map_err(|e| e.to_string())?;
    protocol::configure(&sock).map_err(|e| e.to_string())?;
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        peer: "perfbench".into(),
        artifacts: Vec::new(),
    };
    protocol::write_frame(&mut sock, &hello, token).map_err(|e| e.to_string())?;
    match protocol::read_frame(&mut sock, token).map_err(|e| e.to_string())? {
        Frame::Hello { .. } => Ok(sock),
        other => Err(format!("expected HELLO, got {other:?}")),
    }
}

fn hello(addr: &str) -> Result<(), String> {
    connect(addr, &CancelToken::new()).map(drop)
}

/// One pull made frame by frame. Times are seconds since the pull began.
pub struct FramePull {
    pub samples: Vec<GeneratedSample>,
    pub handshake_s: f64,
    pub first_data_s: f64,
    /// Arrival time of every DATA frame.
    pub frame_at_s: Vec<f64>,
    /// DATA payload bytes and the time spent decoding and (when probing)
    /// re-encoding them.
    pub data_bytes: usize,
    pub decode_s: f64,
    pub encode_s: f64,
}

/// Pulls `count` samples of `artifact`; with `probe`, every DATA frame is
/// also re-encoded to time the frame encoder.
pub fn frame_pull(
    addr: &str,
    artifact: &str,
    count: u64,
    probe: bool,
) -> Result<FramePull, String> {
    let token = CancelToken::new();
    let t0 = Instant::now();
    let mut sock = connect(addr, &token)?;
    let handshake_s = t0.elapsed().as_secs_f64();
    let sub = Frame::Subscribe {
        stream: 1,
        artifact: artifact.into(),
        count,
        credit: 4,
        from_seq: 0,
    };
    protocol::write_frame(&mut sock, &sub, &token).map_err(|e| e.to_string())?;
    let mut out = FramePull {
        samples: Vec::with_capacity(count as usize),
        handshake_s,
        first_data_s: 0.0,
        frame_at_s: Vec::new(),
        data_bytes: 0,
        decode_s: 0.0,
        encode_s: 0.0,
    };
    loop {
        let payload = orchestrator::wire::read_frame_bytes(&mut sock, &token, MAX_FRAME_BYTES)
            .map_err(|e| format!("read frame: {e:?}"))?;
        let at = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let frame = protocol::decode_frame(&payload).map_err(|e| e.to_string())?;
        out.decode_s += t.elapsed().as_secs_f64();
        match frame {
            Frame::Data { seq, samples, .. } => {
                if seq != out.frame_at_s.len() as u64 {
                    return Err(format!("DATA seq {seq} out of order"));
                }
                if probe {
                    let t = Instant::now();
                    let frame = Frame::Data {
                        stream: 1,
                        seq,
                        samples,
                    };
                    std::hint::black_box(
                        protocol::encode_frame(&frame).map_err(|e| e.to_string())?,
                    );
                    out.encode_s += t.elapsed().as_secs_f64();
                    let Frame::Data { samples, .. } = frame else {
                        unreachable!()
                    };
                    out.samples.extend(samples);
                } else {
                    out.samples.extend(samples);
                }
                if out.frame_at_s.is_empty() {
                    out.first_data_s = at;
                }
                out.frame_at_s.push(at);
                out.data_bytes += payload.len();
                let credit = Frame::Credit {
                    stream: 1,
                    frames: 1,
                };
                protocol::write_frame(&mut sock, &credit, &token).map_err(|e| e.to_string())?;
            }
            Frame::Eof { total, .. } => {
                if total != count || out.samples.len() as u64 != count {
                    return Err(format!(
                        "EOF total {total}, got {} samples, want {count}",
                        out.samples.len()
                    ));
                }
                return Ok(out);
            }
            Frame::Error { code, message, .. } => {
                return Err(format!("server error {code}: {message}"))
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
}

/// Whether `got` is bitwise the prefix of the offline reference stream.
pub fn matches_reference(got: &[GeneratedSample], reference: &[GeneratedSample]) -> bool {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    got.len() <= reference.len()
        && got.iter().zip(reference).all(|(a, b)| {
            bits(&a.meta) == bits(&b.meta)
                && a.records.len() == b.records.len()
                && a.records
                    .iter()
                    .zip(&b.records)
                    .all(|(x, y)| bits(x) == bits(y))
        })
}

/// One bulk round: `BULK_CLIENTS` concurrent `netshared::pull`s of
/// `BULK_COUNT` samples. Returns the round's wall seconds and, per pull,
/// whether it returned the full count matching the reference.
pub fn bulk(
    addr: &str,
    artifact: &str,
    reference: &[GeneratedSample],
) -> (f64, Vec<Result<(), String>>) {
    let t0 = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..BULK_CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let cfg = netshared::PullConfig::new(addr, artifact, BULK_COUNT);
                    let r =
                        netshared::pull(&cfg, &CancelToken::new()).map_err(|e| e.to_string())?;
                    if r.samples.len() as u64 != BULK_COUNT {
                        return Err(format!("bulk pull returned {} samples", r.samples.len()));
                    }
                    if !matches_reference(&r.samples, reference) {
                        return Err("bulk pull differs from the offline sample_fast stream".into());
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bulk client panicked"))
            .collect()
    });
    (t0.elapsed().as_secs_f64(), results)
}

/// One open-loop pull. Times are seconds since the loop began.
#[derive(Debug, Clone)]
pub struct Req {
    pub due_s: f64,
    pub sent_s: f64,
    /// First DATA frame and completion, `None` when the pull failed.
    pub first_s: Option<f64>,
    pub done_s: Option<f64>,
    pub handshake_s: f64,
}

impl Req {
    /// Milliseconds from when the pull was due until it completed.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_s
            .map(|d| stats::open_loop_latency(self.due_s, d) * 1e3)
    }

    /// Milliseconds from when the pull was due until its first DATA frame.
    pub fn first_data_ms(&self) -> Option<f64> {
        self.first_s
            .map(|f| stats::open_loop_latency(self.due_s, f) * 1e3)
    }
}

/// `total` pulls of `PULL_COUNT` samples due at a fixed `rate` (offsets
/// within each period from `seed`, see [`stats::due_times`]), with at most
/// `MAX_IN_FLIGHT` connections open. A pull whose connection is not free
/// when it is due waits, and that wait counts in its latency.
pub fn open_loop(
    addr: &str,
    artifact: &str,
    rate: f64,
    total: usize,
    seed: u64,
    reference: &[GeneratedSample],
    trace: Option<(&Tracer, u64, Option<u64>)>,
) -> Vec<Req> {
    let next = AtomicUsize::new(0);
    let due_s = stats::due_times(rate, total, seed);
    let reqs = Mutex::new(Vec::with_capacity(total));
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for _ in 0..MAX_IN_FLIGHT {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let due = t0 + Duration::from_secs_f64(due_s[i]);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let since = |t: Instant| t.duration_since(t0).as_secs_f64();
                let sent = Instant::now();
                let _span = trace.map(|(t, op0, parent)| t.span("pull", op0 + i as u64, parent));
                let result = frame_pull(addr, artifact, PULL_COUNT, false).and_then(|p| {
                    if matches_reference(&p.samples, reference) {
                        Ok(p)
                    } else {
                        Err("pull differs from the offline sample_fast stream".into())
                    }
                });
                let done = Instant::now();
                let req = match result {
                    Ok(p) => Req {
                        due_s: since(due),
                        sent_s: since(sent),
                        first_s: Some(since(sent) + p.first_data_s),
                        done_s: Some(since(done)),
                        handshake_s: p.handshake_s,
                    },
                    Err(e) => {
                        eprintln!("perfbench: pull {i} failed: {e}");
                        Req {
                            due_s: since(due),
                            sent_s: since(sent),
                            first_s: None,
                            done_s: None,
                            handshake_s: 0.0,
                        }
                    }
                };
                reqs.lock().expect("request log lock").push(req);
            });
        }
    });
    let mut reqs = reqs.into_inner().expect("request log lock");
    reqs.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // Due at 1.0 s, sent at 1.3 s because both connections were busy.
        let late = Req {
            due_s: 1.0,
            sent_s: 1.3,
            first_s: Some(1.32),
            done_s: Some(1.35),
            handshake_s: 0.01,
        };
        assert!((late.latency_ms().unwrap() - 350.0).abs() < 1e-9);
        assert!((late.first_data_ms().unwrap() - 320.0).abs() < 1e-9);
        let failed = Req {
            first_s: None,
            done_s: None,
            ..late
        };
        assert_eq!(failed.latency_ms(), None);
    }
}
