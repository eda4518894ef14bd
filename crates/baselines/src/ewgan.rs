//! E-WGAN-GP baseline (Ring et al., Computers & Security 2019):
//! "E-WGAN-GP first extends IP2Vec to embed all typical fields in a
//! NetFlow record … into a fixed-length vector. It then trains a
//! Wasserstein GAN with gradient penalty."
//!
//! Reproduced with: IP2Vec trained on the *input* (private) trace —
//! exactly the privacy weakness NetShare's Insight 2 calls out — and a
//! Wasserstein critic with weight clipping (DESIGN.md §1 substitution).
//! Continuous fields ride along as `log(1+x)`-normalized dimensions.

use crate::tabular::{GanLoss, TabularGan, TabularGanConfig};
use crate::FlowSynthesizer;
use doppelganger::{FeatureSpec, Segment};
use fieldcodec::{Candidates, ContinuousCodec, Ip2Vec, Ip2VecConfig, Word};
use nettrace::{AttackType, FiveTuple, FlowRecord, FlowTrace, Protocol, TrafficLabel};
use nnet::Tensor;

/// Per-word-kind min-max normalizer for embedding coordinates.
struct EmbedNorm {
    lo: Vec<f32>,
    hi: Vec<f32>,
}

impl EmbedNorm {
    fn fit(model: &Ip2Vec, words: &[Word], dim: usize) -> Self {
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        for w in words {
            if let Some(e) = model.embedding(w) {
                for d in 0..dim {
                    lo[d] = lo[d].min(e[d]);
                    hi[d] = hi[d].max(e[d]);
                }
            }
        }
        for d in 0..dim {
            if !lo[d].is_finite() || !hi[d].is_finite() {
                lo[d] = 0.0;
                hi[d] = 1.0;
            }
            if hi[d] - lo[d] < 1e-6 {
                hi[d] = lo[d] + 1e-6;
            }
        }
        EmbedNorm { lo, hi }
    }

    fn encode_into(&self, emb: &[f32], out: &mut Vec<f32>) {
        for (d, &v) in emb.iter().enumerate() {
            out.push(((v - self.lo[d]) / (self.hi[d] - self.lo[d])).clamp(0.0, 1.0));
        }
    }

    fn decode(&self, slice: &[f32]) -> Vec<f32> {
        slice
            .iter()
            .enumerate()
            .map(|(d, &v)| self.lo[d] + v.clamp(0.0, 1.0) * (self.hi[d] - self.lo[d]))
            .collect()
    }
}

/// The E-WGAN-GP flow synthesizer.
pub struct EWganGp {
    /// The dictionary's IP, port and protocol words, split at fit time so
    /// each decoded field scans only its own kind.
    ips: Candidates,
    ports: Candidates,
    protos: Candidates,
    dim: usize,
    ip_norm: EmbedNorm,
    port_norm: EmbedNorm,
    proto_norm: EmbedNorm,
    start: ContinuousCodec,
    duration: ContinuousCodec,
    packets: ContinuousCodec,
    bytes: ContinuousCodec,
    with_labels: bool,
    gan: TabularGan,
}

impl EWganGp {
    /// Fits on a flow trace: trains IP2Vec on its sentences, then the
    /// Wasserstein GAN on the embedded rows.
    pub fn fit_flows(trace: &FlowTrace, steps: usize, seed: u64) -> Self {
        let dim = 8;
        let ip2vec = Ip2Vec::train_on_flows(
            trace,
            Ip2VecConfig {
                dim,
                epochs: 2,
                lr: 0.05,
                negatives: 4,
                seed,
            },
        );
        // Collect the word population per kind for normalization.
        let mut ips = Vec::new();
        let mut ports = Vec::new();
        let mut protos = Vec::new();
        for f in &trace.flows {
            ips.push(Word::Ip(f.five_tuple.src_ip));
            ips.push(Word::Ip(f.five_tuple.dst_ip));
            if f.five_tuple.proto.has_ports() {
                ports.push(Word::Port(f.five_tuple.src_port));
                ports.push(Word::Port(f.five_tuple.dst_port));
            }
            protos.push(Word::Proto(f.five_tuple.proto.number()));
        }
        let ip_norm = EmbedNorm::fit(&ip2vec, &ips, dim);
        let port_norm = EmbedNorm::fit(&ip2vec, &ports, dim);
        let proto_norm = EmbedNorm::fit(&ip2vec, &protos, dim);

        let field = |f: fn(&FlowRecord) -> f64| -> Vec<f64> { trace.flows.iter().map(f).collect() };
        let start = ContinuousCodec::fit(&field(|f| f.start_ms), false);
        let duration = ContinuousCodec::fit(&field(|f| f.duration_ms), true);
        let packets = ContinuousCodec::fit(&field(|f| f.packets as f64), true);
        let bytes = ContinuousCodec::fit(&field(|f| f.bytes as f64), true);

        let with_labels = trace.flows.iter().any(|f| f.label.is_some());
        let label_dim = if with_labels { TrafficLabel::NUM_CLASSES } else { 0 };
        let row_dim = 5 * dim + 4 + label_dim;
        let mut rows = Tensor::zeros(trace.len(), row_dim);
        let fallback = vec![0.0f32; dim];
        for (i, f) in trace.flows.iter().enumerate() {
            let mut row = Vec::with_capacity(row_dim);
            let emb = |w: Word| -> Vec<f32> {
                ip2vec.embedding(&w).map(|e| e.to_vec()).unwrap_or_else(|| fallback.clone())
            };
            ip_norm.encode_into(&emb(Word::Ip(f.five_tuple.src_ip)), &mut row);
            ip_norm.encode_into(&emb(Word::Ip(f.five_tuple.dst_ip)), &mut row);
            port_norm.encode_into(&emb(Word::Port(f.five_tuple.src_port)), &mut row);
            port_norm.encode_into(&emb(Word::Port(f.five_tuple.dst_port)), &mut row);
            proto_norm.encode_into(&emb(Word::Proto(f.five_tuple.proto.number())), &mut row);
            row.push(start.encode(f.start_ms));
            row.push(duration.encode(f.duration_ms));
            row.push(packets.encode(f.packets as f64));
            row.push(bytes.encode(f.bytes as f64));
            if with_labels {
                let mut onehot = vec![0.0; TrafficLabel::NUM_CLASSES];
                onehot[f.label.map(|l| l.class_index()).unwrap_or(0)] = 1.0;
                row.extend(onehot);
            }
            rows.row_mut(i).copy_from_slice(&row);
        }

        let mut segs = vec![Segment::Continuous { dim: 5 * dim + 4 }];
        if with_labels {
            segs.push(Segment::Categorical { dim: TrafficLabel::NUM_CLASSES });
        }
        let mut cfg = TabularGanConfig::small(
            FeatureSpec::new(segs),
            GanLoss::Wasserstein,
            seed ^ 0x11,
        );
        cfg.steps = steps;
        let mut gan = TabularGan::new(cfg);
        gan.fit(&rows, &Tensor::zeros(rows.rows(), 0));

        EWganGp {
            ips: ip2vec.candidates(|w| matches!(w, Word::Ip(_))),
            ports: ip2vec.candidates(Word::is_port),
            protos: ip2vec.candidates(Word::is_proto),
            dim,
            ip_norm,
            port_norm,
            proto_norm,
            start,
            duration,
            packets,
            bytes,
            with_labels,
            gan,
        }
    }

    fn decode_row(&self, row: &[f32]) -> FlowRecord {
        let d = self.dim;
        let nearest = |slice: &[f32], norm: &EmbedNorm, words: &Candidates| {
            words.nearest(&norm.decode(slice))
        };
        let ip = |slice: &[f32]| match nearest(slice, &self.ip_norm, &self.ips) {
            Some(Word::Ip(ip)) => ip,
            _ => 0,
        };
        let port = |slice: &[f32]| match nearest(slice, &self.port_norm, &self.ports) {
            Some(Word::Port(p)) => p,
            _ => 0,
        };
        let src_ip = ip(&row[0..d]);
        let dst_ip = ip(&row[d..2 * d]);
        let proto_num = match nearest(&row[4 * d..5 * d], &self.proto_norm, &self.protos) {
            Some(Word::Proto(p)) => p,
            _ => 6,
        };
        let proto = Protocol::from_number(proto_num);
        let (src_port, dst_port) = if proto.has_ports() {
            (port(&row[2 * d..3 * d]), port(&row[3 * d..4 * d]))
        } else {
            (0, 0)
        };
        let c = &row[5 * d..];
        let mut rec = FlowRecord::new(
            FiveTuple::new(src_ip, dst_ip, src_port, dst_port, proto),
            self.start.decode(c[0]),
            self.duration.decode(c[1]).max(0.0),
            self.packets.decode(c[2]).round().max(1.0) as u64,
            self.bytes.decode(c[3]).round().max(1.0) as u64,
        );
        if self.with_labels && c.len() >= 4 + TrafficLabel::NUM_CLASSES {
            let onehot = &c[4..4 + TrafficLabel::NUM_CLASSES];
            let cls = onehot
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            rec.label = Some(if cls == 0 {
                TrafficLabel::Benign
            } else {
                TrafficLabel::Attack(AttackType::ALL[cls - 1])
            });
        }
        rec
    }
}

impl FlowSynthesizer for EWganGp {
    fn name(&self) -> &'static str {
        "E-WGAN-GP"
    }

    fn generate_flows(&mut self, n: usize) -> FlowTrace {
        let rows = self.gan.sample(n, None);
        FlowTrace::from_records((0..n).map(|r| self.decode_row(rows.row(r))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::{generate_flows, DatasetKind};

    #[test]
    fn end_to_end_generates_dictionary_values() {
        let real = generate_flows(DatasetKind::Ugr16, 400, 1);
        let mut model = EWganGp::fit_flows(&real, 30, 2);
        let synth = model.generate_flows(120);
        assert_eq!(synth.len(), 120);
        // Every generated IP must come from the training dictionary —
        // the data-dependence that breaks DP (paper Insight 2).
        let train_ips: std::collections::HashSet<u32> = real
            .flows
            .iter()
            .flat_map(|f| [f.five_tuple.src_ip, f.five_tuple.dst_ip])
            .collect();
        assert!(synth
            .flows
            .iter()
            .all(|f| train_ips.contains(&f.five_tuple.src_ip)));
        assert_eq!(model.name(), "E-WGAN-GP");
    }
}
