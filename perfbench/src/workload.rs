//! The workloads. Each is one session a user of the system has: a data
//! holder turns a trace into a synthetic one with `netshare_cli`, and
//! consumers pull synthetic samples from a `netshared` daemon serving a
//! bundle trained on the same kind of trace.
//!
//! `flows-generate` is generation-heavy: most of its CLI wall time is the
//! tuple decoder, which the serve phase never runs. `packets-train` is
//! training-heavy and the only one to cover pcap I/O, the packet codec and
//! the checkpoint store; it generates few packets because the decoder's
//! cost per record swings up to fourfold with the input trace, and here it
//! would drown the training time it is meant to measure. In both serve
//! phases, bulk pulls amortise the fixed cost of a pull (accept, HELLO,
//! sampler rebuild) that short interactive pulls pay every time.

/// Which trace shape a workload uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Flows,
    Packets,
}

impl Kind {
    /// `netshare_cli` mode.
    pub fn mode(self) -> &'static str {
        match self {
            Kind::Flows => "synth-flows",
            Kind::Packets => "synth-packets",
        }
    }

    /// Name of the served artifact.
    pub fn artifact(self) -> &'static str {
        match self {
            Kind::Flows => "flows",
            Kind::Packets => "packets",
        }
    }
}

/// One workload's fixed parameters.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Records (flows) or packets in the generated input trace.
    pub input_records: usize,
    /// `--chunks`, `--steps` and `--n` of the CLI run. Packet runs also
    /// checkpoint into a fresh `--ckpt-dir`.
    pub chunks: usize,
    pub steps: usize,
    pub n: usize,
}

/// Samples per interactive pull.
pub const PULL_COUNT: u64 = 64;
/// Samples per bulk pull, and bulk clients (closed loop, one pull each).
pub const BULK_COUNT: u64 = 10_000;
pub const BULK_CLIENTS: usize = 2;
/// Connections an open loop keeps in flight at most.
pub const MAX_IN_FLIGHT: usize = 2;
/// Open-loop rates of 64-sample pulls (per second), about 30% and 50% of
/// the closed-loop capacity with two connections (about 50 pulls/s)
/// measured on the commit that added the benchmark (2 vCPU, release
/// build, telemetry on).
pub const LOW_RATE: f64 = 15.0;
pub const HIGH_RATE: f64 = 25.0;
/// Latency limit for `in_limit_share.high`, in milliseconds.
pub const LIMIT_MS: f64 = 100.0;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "flows-generate",
        kind: Kind::Flows,
        input_records: 4_000,
        chunks: 4,
        steps: 30,
        n: 5_000,
    },
    Workload {
        name: "packets-train",
        kind: Kind::Packets,
        input_records: 5_000,
        chunks: 5,
        steps: 200,
        n: 500,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
