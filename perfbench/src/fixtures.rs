//! Seeded inputs: the trace file the CLI reads and the artifact bundle the
//! daemon serves, both made through the library's public APIs from the
//! workload seed alone.

use crate::workload::{Kind, Workload};
use doppelganger::{ArtifactBundle, DgConfig, DoppelGanger, FeatureSpec, TimeSeriesDataset};
use netshare::chunking::{chunk_flows, chunk_packets, Chunked, FlowGroup};
use netshare::flowcodec::FlowCodec;
use netshare::packetcodec::PacketCodec;
use netshare::tuplecodec::TupleCodec;
use netshare::NetShareConfig;
use std::path::{Path, PathBuf};

/// Generator steps the served bundle is trained for: enough to move it
/// off its initial weights, few enough to keep set-up short.
const BUNDLE_STEPS: usize = 10;

/// A parsed or generated trace of either shape.
pub enum Trace {
    Flows(nettrace::FlowTrace),
    Packets(nettrace::PacketTrace),
}

/// One group in the model's encoding: its metadata row and records.
pub type Row = (Vec<f32>, Vec<Vec<f32>>);

/// A trace in the model's encoding: the codec's feature specs and, per
/// chunk, the rows of every group active in it.
pub struct Encoded {
    pub meta_spec: FeatureSpec,
    pub record_spec: FeatureSpec,
    pub chunks: Vec<Vec<Row>>,
}

/// Fits the trace's codec on `tuples`, chunks the trace and encodes every
/// group: the steps `NetShare::fit_flows`/`fit_packets` take before
/// training.
pub fn encode(trace: &Trace, tuples: TupleCodec, cfg: &NetShareConfig) -> Encoded {
    let m = cfg.n_chunks;
    match trace {
        Trace::Flows(t) => {
            let codec = FlowCodec::fit(t, tuples, m, cfg.with_labels);
            Encoded {
                meta_spec: codec.meta_spec(),
                record_spec: codec.record_spec(),
                chunks: rows(&chunk_flows(t, m), |g, b| codec.encode_group(g, b)),
            }
        }
        Trace::Packets(t) => {
            let codec = PacketCodec::fit(t, tuples, m);
            Encoded {
                meta_spec: codec.meta_spec(),
                record_spec: codec.record_spec(),
                chunks: rows(&chunk_packets(t, m), |g, b| codec.encode_group(g, b)),
            }
        }
    }
}

fn rows<T>(
    chunked: &Chunked<T>,
    encode: impl Fn(&FlowGroup<T>, (f64, f64)) -> Row,
) -> Vec<Vec<Row>> {
    chunked
        .chunks
        .iter()
        .zip(&chunked.bounds)
        .map(|(groups, b)| groups.iter().map(|g| encode(g, *b)).collect())
        .collect()
}

/// The public IP2Vec corpus and tuple codec the program fits with `cfg`.
pub fn fit_tuples(cfg: &NetShareConfig) -> TupleCodec {
    let public =
        trace_synth::public::ip2vec_public_corpus(cfg.ip2vec_public_packets, cfg.seed ^ 0xab);
    TupleCodec::fit_public(&public, cfg.embed_dim, cfg.seed ^ 0xcd)
}

/// Files made in set-up.
pub struct Inputs {
    /// Trace the CLI reads (CSV or pcap).
    pub trace: PathBuf,
    /// Bundle the daemon serves.
    pub bundle: PathBuf,
    /// Artifact name clients subscribe to.
    pub artifact: String,
}

/// Writes the seeded trace and bundle for `w` into `dir`. Only the traces
/// come from `seed`; like the CLI run, the bundle's tuple codec and initial
/// weights use the program's default seed, so its architecture and serving
/// cost do not swing with the workload seed.
pub fn make(w: &Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut cfg = NetShareConfig::default_config();
    cfg.n_chunks = w.chunks;
    let (trace, path) = match w.kind {
        Kind::Flows => {
            let mut flows = trace_synth::ugr16::generate(w.input_records, seed);
            flows.truncate(w.input_records);
            let path = dir.join("real.csv");
            write(
                &path,
                nettrace::netflow::write_netflow_csv(&flows).as_bytes(),
            )?;
            (Trace::Flows(flows), path)
        }
        Kind::Packets => {
            let mut packets = trace_synth::caida::generate(w.input_records, seed);
            packets.truncate(w.input_records);
            let path = dir.join("real.pcap");
            write(&path, &nettrace::pcap::write_pcap(&packets))?;
            (Trace::Packets(packets), path)
        }
    };
    let encoded = encode(&trace, fit_tuples(&cfg), &cfg);
    // The bundle is trained on the first chunk, like the seed model.
    let mut chunks = encoded.chunks;
    let (meta, seqs): (Vec<_>, Vec<_>) = chunks.swap_remove(0).into_iter().unzip();
    let data = TimeSeriesDataset::new(meta, seqs, cfg.max_seq_len);
    let mut dg = DgConfig::small(encoded.meta_spec, encoded.record_spec, cfg.max_seq_len);
    dg.batch_size = cfg.batch_size;
    dg.seed = cfg.seed;
    let mut model = DoppelGanger::new(dg);
    model.train_steps(&data, BUNDLE_STEPS);
    let artifact = w.kind.artifact().to_string();
    let bundle = dir.join("bundle.json");
    ArtifactBundle::capture(&artifact, &model, None).save(&bundle)?;
    Ok(Inputs {
        trace: path,
        bundle,
        artifact,
    })
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}
