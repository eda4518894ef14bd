//! Five-tuple ↔ metadata-vector codec (paper Insight 2 / Table 2).
//!
//! Layout per tuple: `[src_ip 32 bits ‖ dst_ip 32 bits ‖ src-port hybrid ‖
//! dst-port hybrid ‖ protocol hybrid]`.
//!
//! * IPs use the data-independent bit encoding (DP-safe).
//! * Ports and protocol use a **hybrid categorical + IP2Vec** encoding:
//!   a softmax over the top-K most frequent port words of the *public*
//!   corpus (DoppelGANger's native treatment of categorical metadata)
//!   plus the IP2Vec embedding, which both disambiguates the "other"
//!   bucket and carries semantics for rare ports. The categorical
//!   vocabulary is derived from public data only, so — like the bit
//!   encoding — it never touches the private trace (the Insight-2 privacy
//!   requirement). Decoding uses the category when it names a concrete
//!   port and falls back to nearest-neighbour search over the public
//!   dictionary otherwise, restricted to (port, protocol) pairs the
//!   public corpus exhibits (keeps Appendix-B Test 3 compliance).
//!
//! Every decode restriction depends only on the protocol, so the fit
//! resolves it once: per port-carrying protocol, a flag per categorical
//! slot and one pre-filtered candidate set ([`fieldcodec::Candidates`]).
//! A decode is then at most one scan of one set, returning the word the
//! filtered whole-dictionary search would.

use doppelganger::Segment;
use fieldcodec::{BitCodec, Candidates, Ip2Vec, Ip2VecConfig, Word};
use nettrace::{FiveTuple, PacketTrace, Protocol};
use std::collections::{BTreeMap, BTreeSet};

/// Number of public-corpus service ports given categorical slots.
const TOP_PORTS: usize = 40;
/// Protocol categorical vocabulary (TCP, UDP, ICMP) + other.
const PROTO_VOCAB: [u8; 3] = [6, 17, 1];
/// Embedding widths up to this denormalise their query on the stack.
const STACK_DIM: usize = 64;

/// Port decoding for one port-carrying protocol, resolved at fit time.
struct PortDecoder {
    /// Per categorical slot: the service port is publicly attested with
    /// this protocol, so the category is accepted as decoded.
    accept: Vec<bool>,
    /// The embedding path's candidates: the first non-empty of the
    /// non-catalogue ports attested with this protocol, all ports attested
    /// with it, and all ports. A search finds a word exactly when its set
    /// is non-empty, so decode never needs the later sets once an earlier
    /// one has a word. Empty only if the dictionary has no ports.
    candidates: Candidates,
}

impl PortDecoder {
    fn fit(ip2vec: &Ip2Vec, pairs: &BTreeSet<(u16, u8)>, service_ports: &[u16], proto: u8) -> Self {
        let attested = |p: u16| pairs.contains(&(p, proto));
        let accept = service_ports.iter().map(|&p| attested(p)).collect();
        let port = |w: &Word| match *w {
            Word::Port(p) => Some(p),
            _ => None,
        };
        let mut candidates = ip2vec
            .candidates(|w| port(w).is_some_and(|p| !service_ports.contains(&p) && attested(p)));
        if candidates.is_empty() {
            candidates = ip2vec.candidates(|w| port(w).is_some_and(attested));
        }
        if candidates.is_empty() {
            candidates = ip2vec.candidates(Word::is_port);
        }
        PortDecoder { accept, candidates }
    }
}

/// A fitted five-tuple codec.
pub struct TupleCodec {
    ip2vec: Ip2Vec,
    ip_bits: BitCodec,
    embed_dim: usize,
    /// Top-K public ports, most frequent first; index = categorical slot.
    service_ports: Vec<u16>,
    service_index: BTreeMap<u16, usize>,
    port_lo: Vec<f32>,
    port_hi: Vec<f32>,
    proto_lo: Vec<f32>,
    proto_hi: Vec<f32>,
    /// Fallback port embedding for out-of-dictionary ports (zeros before
    /// normalization — decodes to the dictionary's most central port).
    fallback_port: Vec<f32>,
    fallback_proto: Vec<f32>,
    tcp_ports: PortDecoder,
    udp_ports: PortDecoder,
    /// Every protocol word, for the "other" protocol category.
    protos: Candidates,
}

impl TupleCodec {
    /// Trains the IP2Vec dictionary on a public packet corpus and fits the
    /// categorical vocabulary and embedding normalization ranges.
    pub fn fit_public(public: &PacketTrace, embed_dim: usize, seed: u64) -> Self {
        let cfg = Ip2VecConfig {
            dim: embed_dim,
            epochs: 2,
            lr: 0.05,
            negatives: 4,
            seed,
        };
        let ip2vec = Ip2Vec::train_on_packets(public, cfg);

        // Port popularity + per-kind embedding ranges over the corpus.
        let mut port_counts: BTreeMap<u16, u64> = BTreeMap::new();
        let mut port_lo = vec![f32::INFINITY; embed_dim];
        let mut port_hi = vec![f32::NEG_INFINITY; embed_dim];
        let mut proto_lo = vec![f32::INFINITY; embed_dim];
        let mut proto_hi = vec![f32::NEG_INFINITY; embed_dim];
        let mut any_port = vec![0.0f32; embed_dim];
        let mut any_proto = vec![0.0f32; embed_dim];
        let mut n_port = 0u32;
        let mut n_proto = 0u32;
        let mut port_proto_pairs = BTreeSet::new();
        for p in &public.packets {
            if p.five_tuple.proto.has_ports() {
                let pr = p.five_tuple.proto.number();
                port_proto_pairs.insert((p.five_tuple.src_port, pr));
                port_proto_pairs.insert((p.five_tuple.dst_port, pr));
                // Destination ports define "service" popularity.
                *port_counts.entry(p.five_tuple.dst_port).or_insert(0) += 1;
            }
            for w in fieldcodec::ip2vec::sentence(p.five_tuple) {
                if let Some(e) = ip2vec.embedding(&w) {
                    match w {
                        Word::Port(_) => {
                            for d in 0..embed_dim {
                                port_lo[d] = port_lo[d].min(e[d]);
                                port_hi[d] = port_hi[d].max(e[d]);
                                any_port[d] += e[d];
                            }
                            n_port += 1;
                        }
                        Word::Proto(_) => {
                            for d in 0..embed_dim {
                                proto_lo[d] = proto_lo[d].min(e[d]);
                                proto_hi[d] = proto_hi[d].max(e[d]);
                                any_proto[d] += e[d];
                            }
                            n_proto += 1;
                        }
                        Word::Ip(_) => {}
                    }
                }
            }
        }
        let mut by_count: Vec<(u16, u64)> = port_counts.into_iter().collect();
        by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let service_ports: Vec<u16> = by_count.iter().take(TOP_PORTS).map(|&(p, _)| p).collect();
        let service_index = service_ports
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i))
            .collect();

        let fix = |lo: &mut Vec<f32>, hi: &mut Vec<f32>| {
            for d in 0..embed_dim {
                if !lo[d].is_finite() || !hi[d].is_finite() {
                    lo[d] = 0.0;
                    hi[d] = 1.0;
                }
                if hi[d] - lo[d] < 1e-6 {
                    hi[d] = lo[d] + 1e-6;
                }
            }
        };
        fix(&mut port_lo, &mut port_hi);
        fix(&mut proto_lo, &mut proto_hi);
        let fallback_port = any_port
            .iter()
            .map(|s| if n_port > 0 { s / n_port as f32 } else { 0.0 })
            .collect();
        let fallback_proto = any_proto
            .iter()
            .map(|s| if n_proto > 0 { s / n_proto as f32 } else { 0.0 })
            .collect();
        let tcp_ports = PortDecoder::fit(&ip2vec, &port_proto_pairs, &service_ports, 6);
        let udp_ports = PortDecoder::fit(&ip2vec, &port_proto_pairs, &service_ports, 17);
        let protos = ip2vec.candidates(Word::is_proto);
        TupleCodec {
            ip2vec,
            ip_bits: BitCodec::ipv4(),
            embed_dim,
            service_ports,
            service_index,
            port_lo,
            port_hi,
            proto_lo,
            proto_hi,
            fallback_port,
            fallback_proto,
            tcp_ports,
            udp_ports,
            protos,
        }
    }

    /// Width of one hybrid port block: categorical (K + other) + embedding.
    fn port_block(&self) -> usize {
        self.service_ports.len() + 1 + self.embed_dim
    }

    /// Width of the hybrid protocol block: categorical (3 + other) + embedding.
    fn proto_block(&self) -> usize {
        PROTO_VOCAB.len() + 1 + self.embed_dim
    }

    /// Encoded width.
    pub fn dim(&self) -> usize {
        64 + 2 * self.port_block() + self.proto_block()
    }

    /// Embedding width.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// The feature-spec segments for this codec's output, in order — the
    /// GAN applies softmax to the categorical slots and sigmoid to the
    /// rest (DoppelGANger's native categorical treatment).
    pub fn segments(&self) -> Vec<Segment> {
        let k = self.service_ports.len() + 1;
        vec![
            Segment::Continuous { dim: 64 },
            Segment::Categorical { dim: k },
            Segment::Continuous { dim: self.embed_dim },
            Segment::Categorical { dim: k },
            Segment::Continuous { dim: self.embed_dim },
            Segment::Categorical { dim: PROTO_VOCAB.len() + 1 },
            Segment::Continuous { dim: self.embed_dim },
        ]
    }

    fn norm(v: f32, lo: f32, hi: f32) -> f32 {
        ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
    }

    fn denorm(v: f32, lo: f32, hi: f32) -> f32 {
        lo + v.clamp(0.0, 1.0) * (hi - lo)
    }

    fn encode_port(&self, port: u16, out: &mut Vec<f32>) {
        let k = self.service_ports.len() + 1;
        let start = out.len();
        out.resize(start + k, 0.0);
        match self.service_index.get(&port) {
            Some(&i) => out[start + i] = 1.0,
            None => out[start + k - 1] = 1.0, // "other"
        }
        let emb = self
            .ip2vec
            .embedding(&Word::Port(port))
            .unwrap_or(&self.fallback_port);
        for (d, &e) in emb.iter().enumerate().take(self.embed_dim) {
            out.push(Self::norm(e, self.port_lo[d], self.port_hi[d]));
        }
    }

    fn encode_proto(&self, proto: Protocol, out: &mut Vec<f32>) {
        let k = PROTO_VOCAB.len() + 1;
        let start = out.len();
        out.resize(start + k, 0.0);
        match PROTO_VOCAB.iter().position(|&p| p == proto.number()) {
            Some(i) => out[start + i] = 1.0,
            None => out[start + k - 1] = 1.0,
        }
        let emb = self
            .ip2vec
            .embedding(&Word::Proto(proto.number()))
            .unwrap_or(&self.fallback_proto);
        for (d, &e) in emb.iter().enumerate().take(self.embed_dim) {
            out.push(Self::norm(e, self.proto_lo[d], self.proto_hi[d]));
        }
    }

    /// Appends the encoding of a five-tuple to `out`.
    pub fn encode_into(&self, ft: &FiveTuple, out: &mut Vec<f32>) {
        self.ip_bits.encode_into(ft.src_ip as u64, out);
        self.ip_bits.encode_into(ft.dst_ip as u64, out);
        self.encode_port(ft.src_port, out);
        self.encode_port(ft.dst_port, out);
        self.encode_proto(ft.proto, out);
    }

    /// Encodes into a fresh vector.
    pub fn encode(&self, ft: &FiveTuple) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim());
        self.encode_into(ft, &mut out);
        out
    }

    fn argmax(slice: &[f32]) -> usize {
        slice
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Denormalises an embedding block and searches `candidates` with it.
    fn nearest(block: &[f32], lo: &[f32], hi: &[f32], candidates: &Candidates) -> Option<Word> {
        let mut stack = [0.0f32; STACK_DIM];
        let mut heap = Vec::new();
        let q = if block.len() <= STACK_DIM {
            &mut stack[..block.len()]
        } else {
            heap.resize(block.len(), 0.0);
            &mut heap[..]
        };
        for (d, (q, &x)) in q.iter_mut().zip(block).enumerate() {
            *q = Self::denorm(x, lo[d], hi[d]);
        }
        candidates.nearest(q)
    }

    /// Decodes one port block; `proto` must carry ports.
    fn decode_port(&self, block: &[f32], proto: Protocol) -> u16 {
        let ports = match proto {
            Protocol::Udp => &self.udp_ports,
            _ => &self.tcp_ports,
        };
        let k = self.service_ports.len() + 1;
        let cat = Self::argmax(&block[..k]);
        // Only accept the categorical decode when the (port, proto) pair
        // is publicly attested; otherwise fall through to the
        // protocol-compatible embedding path (Appendix-B Test 3), which
        // prefers non-catalogue ports: catalogue ports have their own
        // slots, so the embedding path represents the ephemeral mass.
        if ports.accept.get(cat) == Some(&true) {
            return self.service_ports[cat];
        }
        match Self::nearest(&block[k..], &self.port_lo, &self.port_hi, &ports.candidates) {
            Some(Word::Port(p)) => p,
            _ => 0,
        }
    }

    fn decode_proto(&self, block: &[f32]) -> Protocol {
        let k = PROTO_VOCAB.len() + 1;
        let cat = Self::argmax(&block[..k]);
        if cat < PROTO_VOCAB.len() {
            return Protocol::from_number(PROTO_VOCAB[cat]);
        }
        match Self::nearest(&block[k..], &self.proto_lo, &self.proto_hi, &self.protos) {
            Some(Word::Proto(p)) => Protocol::from_number(p),
            _ => Protocol::Tcp,
        }
    }

    /// Decodes a generated metadata slice back to a five-tuple.
    ///
    /// # Panics
    /// Panics if `v.len() != self.dim()`.
    pub fn decode(&self, v: &[f32]) -> FiveTuple {
        assert_eq!(v.len(), self.dim(), "metadata width mismatch");
        let pb = self.port_block();
        let src_ip = self.ip_bits.decode(&v[0..32]) as u32;
        let dst_ip = self.ip_bits.decode(&v[32..64]) as u32;
        let proto = self.decode_proto(&v[64 + 2 * pb..]);
        let (src_port, dst_port) = if proto.has_ports() {
            (
                self.decode_port(&v[64..64 + pb], proto),
                self.decode_port(&v[64 + pb..64 + 2 * pb], proto),
            )
        } else {
            (0, 0)
        };
        FiveTuple::new(src_ip, dst_ip, src_port, dst_port, proto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::public::ip2vec_public_corpus;

    fn codec() -> TupleCodec {
        TupleCodec::fit_public(&ip2vec_public_corpus(2_000, 3), 8, 11)
    }

    /// Decoding as it was before the fit resolved the candidate sets: a
    /// filtered search of the whole dictionary on every call, and a second
    /// one when the first finds nothing.
    mod reference {
        use super::super::*;

        /// The (port, protocol) pairs of the public corpus.
        pub fn pairs(public: &PacketTrace) -> BTreeSet<(u16, u8)> {
            let mut pairs = BTreeSet::new();
            for p in &public.packets {
                if p.five_tuple.proto.has_ports() {
                    let pr = p.five_tuple.proto.number();
                    pairs.insert((p.five_tuple.src_port, pr));
                    pairs.insert((p.five_tuple.dst_port, pr));
                }
            }
            pairs
        }

        fn nearest_compatible_port(
            c: &TupleCodec,
            pairs: &BTreeSet<(u16, u8)>,
            vec: &[f32],
            proto_num: u8,
        ) -> u16 {
            let restricted = c.ip2vec.nearest(vec, |w| match w {
                Word::Port(p) => pairs.contains(&(*p, proto_num)),
                _ => false,
            });
            match restricted {
                Some(Word::Port(p)) => p,
                _ => c.ip2vec.nearest_port(vec).unwrap_or(0),
            }
        }

        fn decode_port(
            c: &TupleCodec,
            pairs: &BTreeSet<(u16, u8)>,
            block: &[f32],
            proto_num: u8,
        ) -> u16 {
            let k = c.service_ports.len() + 1;
            let cat = TupleCodec::argmax(&block[..k]);
            if cat < c.service_ports.len() {
                let port = c.service_ports[cat];
                if pairs.contains(&(port, proto_num)) {
                    return port;
                }
            }
            let emb: Vec<f32> = block[k..]
                .iter()
                .enumerate()
                .map(|(d, &x)| TupleCodec::denorm(x, c.port_lo[d], c.port_hi[d]))
                .collect();
            let restricted = c.ip2vec.nearest(&emb, |w| match w {
                Word::Port(p) => {
                    !c.service_index.contains_key(p) && pairs.contains(&(*p, proto_num))
                }
                _ => false,
            });
            match restricted {
                Some(Word::Port(p)) => p,
                _ => nearest_compatible_port(c, pairs, &emb, proto_num),
            }
        }

        fn decode_proto(c: &TupleCodec, block: &[f32]) -> Protocol {
            let k = PROTO_VOCAB.len() + 1;
            let cat = TupleCodec::argmax(&block[..k]);
            if cat < PROTO_VOCAB.len() {
                return Protocol::from_number(PROTO_VOCAB[cat]);
            }
            let emb: Vec<f32> = block[k..]
                .iter()
                .enumerate()
                .map(|(d, &x)| TupleCodec::denorm(x, c.proto_lo[d], c.proto_hi[d]))
                .collect();
            Protocol::from_number(c.ip2vec.nearest_proto(&emb).unwrap_or(6))
        }

        pub fn decode(c: &TupleCodec, pairs: &BTreeSet<(u16, u8)>, v: &[f32]) -> FiveTuple {
            let pb = c.port_block();
            let src_ip = c.ip_bits.decode(&v[0..32]) as u32;
            let dst_ip = c.ip_bits.decode(&v[32..64]) as u32;
            let proto = decode_proto(c, &v[64 + 2 * pb..]);
            let (src_port, dst_port) = if proto.has_ports() {
                (
                    decode_port(c, pairs, &v[64..64 + pb], proto.number()),
                    decode_port(c, pairs, &v[64 + pb..64 + 2 * pb], proto.number()),
                )
            } else {
                (0, 0)
            };
            FiveTuple::new(src_ip, dst_ip, src_port, dst_port, proto)
        }
    }

    #[test]
    fn decode_matches_whole_dictionary_search_at_shipped_scale() {
        use rand::prelude::*;
        // The codec the CLI fits by default.
        let cfg = crate::NetShareConfig::default_config();
        let public = ip2vec_public_corpus(cfg.ip2vec_public_packets, cfg.seed ^ 0xab);
        let c = TupleCodec::fit_public(&public, cfg.embed_dim, cfg.seed ^ 0xcd);
        let pairs = reference::pairs(&public);
        let spec = doppelganger::FeatureSpec::new(c.segments());
        let (k, pb) = (c.service_ports.len() + 1, c.port_block());
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.5, 1.5];
        let mut rng = StdRng::seed_from_u64(13);
        let mut slots = BTreeSet::new();
        let (mut other, mut unattested, mut other_proto) = (0, 0, 0);
        for i in 0..10_000 {
            let mut v: Vec<f32> = (0..c.dim()).map(|_| rng.gen()).collect();
            spec.harden_row(&mut v);
            if i % 50 == 0 {
                // Out-of-range and non-finite embedding coordinates.
                for start in [64 + k, 64 + pb + k, 64 + 2 * pb + PROTO_VOCAB.len() + 1] {
                    v[start + i / 50 % c.embed_dim] = specials[i / 50 % specials.len()];
                }
            }
            let want = reference::decode(&c, &pairs, &v);
            assert_eq!(c.decode(&v), want, "row {i}");
            if TupleCodec::argmax(&v[64 + 2 * pb..64 + 2 * pb + PROTO_VOCAB.len() + 1]) == 3 {
                other_proto += 1;
            }
            if want.proto.has_ports() {
                for block in [&v[64..64 + k], &v[64 + pb..64 + pb + k]] {
                    let slot = TupleCodec::argmax(block);
                    slots.insert((want.proto.number(), slot));
                    if slot == k - 1 {
                        other += 1;
                    } else if !pairs.contains(&(c.service_ports[slot], want.proto.number())) {
                        unattested += 1;
                    }
                }
            }
        }
        assert_eq!(slots.len(), 2 * k, "every slot of TCP and UDP decoded");
        assert!(
            other > 0 && unattested > 0 && other_proto > 0,
            "{other} {unattested} {other_proto}"
        );
    }

    #[test]
    fn encode_decode_round_trips_common_tuples() {
        let c = codec();
        for &(sp, dp, proto) in &[
            (40_000u16, 80u16, Protocol::Tcp),
            (51_515, 53, Protocol::Udp),
            (0, 0, Protocol::Icmp),
        ] {
            let ft = FiveTuple::new(0x0a010203, 0xc0a80011, sp, dp, proto);
            let enc = c.encode(&ft);
            assert_eq!(enc.len(), c.dim());
            assert!(enc.iter().all(|&x| (0.0..=1.0).contains(&x)), "encoded in [0,1]");
            let back = c.decode(&enc);
            assert_eq!(back.src_ip, ft.src_ip);
            assert_eq!(back.dst_ip, ft.dst_ip);
            assert_eq!(back.proto, ft.proto, "protocol survives");
            assert_eq!(back.dst_port, ft.dst_port, "well-known port survives");
        }
    }

    #[test]
    fn segments_cover_the_full_dim() {
        let c = codec();
        let total: usize = c.segments().iter().map(|s| s.dim()).sum();
        assert_eq!(total, c.dim());
    }

    #[test]
    fn service_ports_use_categorical_slots() {
        let c = codec();
        // Port 80 must be in the public top-K (it dominates the corpus).
        assert!(c.service_index.contains_key(&80), "80 in catalogue");
        let ft = FiveTuple::new(1, 2, 40_000, 80, Protocol::Tcp);
        let enc = c.encode(&ft);
        let k = c.service_ports.len() + 1;
        let dst_cat = &enc[64 + c.port_block()..64 + c.port_block() + k];
        assert_eq!(dst_cat.iter().filter(|&&x| x == 1.0).count(), 1);
        assert!(dst_cat[c.service_index[&80]] == 1.0);
    }

    #[test]
    fn icmp_decodes_with_zero_ports() {
        let c = codec();
        let ft = FiveTuple::new(1, 2, 0, 0, Protocol::Icmp);
        let back = c.decode(&c.encode(&ft));
        assert_eq!(back.src_port, 0);
        assert_eq!(back.dst_port, 0);
    }

    #[test]
    fn unknown_port_falls_back_gracefully() {
        let c = codec();
        let ft = FiveTuple::new(1, 2, 65_535, 80, Protocol::Tcp);
        let back = c.decode(&c.encode(&ft));
        assert_eq!(back.dst_port, 80);
    }

    #[test]
    fn decoded_ports_are_protocol_compatible() {
        // Even for arbitrary metadata vectors, the decoded (port, proto)
        // pair must be valid (Appendix-B Test 3).
        let c = codec();
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let mut v: Vec<f32> = (0..c.dim()).map(|_| rng.gen()).collect();
            // Harden the categorical slots like generation does.
            let spec = doppelganger::FeatureSpec::new(c.segments());
            spec.harden_row(&mut v);
            let ft = c.decode(&v);
            assert!(
                nettrace::validity::test3_port_protocol(ft.src_port, ft.dst_port, ft.proto),
                "incompatible decode: {ft}"
            );
        }
    }

    #[test]
    fn ephemeral_ports_decode_via_embedding() {
        let c = codec();
        // A high ephemeral port not in the catalogue should round-trip to
        // *some* non-catalogue port via the embedding path (exact identity
        // is not required for ephemeral ports).
        let ft = FiveTuple::new(1, 2, 1024, 49_000, Protocol::Tcp);
        let enc = c.encode(&ft);
        let back = c.decode(&enc);
        // Ephemeral identity is not preserved, but the decode must land
        // outside the service catalogue (the "other" mass stays ephemeral).
        assert!(
            !c.service_index.contains_key(&back.dst_port),
            "ephemeral decoded into the catalogue: {}",
            back.dst_port
        );
    }
}
