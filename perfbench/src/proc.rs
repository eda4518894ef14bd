//! Program-process accounting and host diagnostics.
//!
//! The CPU time and peak resident set of a program process come from
//! `wait4`, which reports both exactly when the child is reaped; the
//! standard library's `Child::wait` discards them. `ru_maxrss` also keeps
//! the peak of the address space the child replaced at `exec`, which for a
//! child spawned straight from the benchmark is the benchmark's own; so
//! program runs go through a small launcher process ([`launch`]) whose
//! peak is the one inherited, a few MiB below any program's.

use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Instant;

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s starting with `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// What a finished program process cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Whether it exited with code 0.
    pub success: bool,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) in MiB.
    pub peak_rss_mb: f64,
}

/// Reaps `child` and returns its exit status and resource usage. The
/// `Child` must not be waited on again.
pub fn reap(child: Child) -> std::io::Result<Usage> {
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut status = 0i32;
    let mut ru = RUsage::default();
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as the
        // C declarations require (`int` and `struct rusage`); `pid` is our
        // own unreaped child, so the kernel writes only into these two.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    let exited_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Usage {
        success: exited_ok,
        cpu_s: secs(ru.utime) + secs(ru.stime),
        peak_rss_mb: ru.maxrss_kib as f64 / 1024.0,
    })
}

/// First argument that turns this binary into the launcher.
pub const LAUNCH_FLAG: &str = "--launch";

/// Launcher mode: runs `argv[0]` with the rest as its arguments (standard
/// input and output closed, standard error inherited) and prints its wall
/// seconds, success, CPU seconds and peak RSS on one line.
pub fn launch(argv: &[String]) -> ExitCode {
    let Some((program, args)) = argv.split_first() else {
        eprintln!("perfbench: {LAUNCH_FLAG} needs a program");
        return ExitCode::from(2);
    };
    let t0 = Instant::now();
    let usage = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .and_then(reap);
    match usage {
        Ok(u) => {
            let wall = t0.elapsed().as_secs_f64();
            println!("{wall} {} {} {}", u.success, u.cpu_s, u.peak_rss_mb);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: run {program}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `program` with `args` to completion through the launcher; its
/// standard error goes to `stderr`. Returns wall seconds and usage.
pub fn run(program: &Path, args: &[String], stderr: std::fs::File) -> Result<(f64, Usage), String> {
    let me = std::env::current_exe().map_err(|e| format!("locate perfbench: {e}"))?;
    let out = Command::new(me)
        .arg(LAUNCH_FLAG)
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(stderr)
        .output()
        .map_err(|e| format!("launch {}: {e}", program.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let f: Vec<&str> = text.split_whitespace().collect();
    let parse = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    match (out.status.success(), parse(0), f.get(1), parse(2), parse(3)) {
        (true, Some(wall), Some(ok), Some(cpu_s), Some(peak_rss_mb)) => Ok((
            wall,
            Usage {
                success: *ok == "true",
                cpu_s,
                peak_rss_mb,
            },
        )),
        _ => Err(format!("launcher for {} failed: {text}", program.display())),
    }
}

/// User plus system CPU seconds a live process has used so far, from
/// `/proc/<pid>/stat` (clock ticks of 1/100 s).
pub fn live_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

/// Peak resident set (`VmHWM`) of a live process in MiB.
pub fn live_peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Milliseconds a fixed pure-ALU loop takes: a drift control for reading
/// runs made at different times. Reported only; never used to rescale.
pub fn control_loop_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..40_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}
