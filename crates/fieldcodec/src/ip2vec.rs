//! IP2Vec: Word2Vec-style embeddings of header-field "words"
//! (Ring et al., ICDMW 2017), as used by NetShare and E-WGAN-GP.
//!
//! Each five-tuple is a *sentence*; its IPs, ports, and protocol are
//! *words*. A skip-gram model with negative sampling learns a fixed-length
//! vector per word; generated vectors are decoded back to words by
//! nearest-neighbour search over the dictionary.
//!
//! The privacy subtlety the paper leans on (Insight 2): the dictionary is
//! training-data-dependent, so NetShare trains the embedding **only on
//! public data** and uses it **only for ports and protocols**, whose public
//! support ("almost every possible port number and protocol") covers the
//! private data's words. IPs get the data-independent bit encoding instead.

use nettrace::{FlowTrace, PacketTrace};
use rand::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A vocabulary item: one value of one header field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Word {
    /// An IPv4 address.
    Ip(u32),
    /// A port number (source or destination — IP2Vec does not distinguish).
    Port(u16),
    /// A transport protocol number.
    Proto(u8),
}

impl Word {
    /// True for port words (the nearest-neighbour filter NetShare uses).
    pub fn is_port(&self) -> bool {
        matches!(self, Word::Port(_))
    }

    /// True for protocol words.
    pub fn is_proto(&self) -> bool {
        matches!(self, Word::Proto(_))
    }
}

/// IP2Vec training hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Ip2VecConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Passes over the sentence corpus.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Ip2VecConfig {
    fn default() -> Self {
        Ip2VecConfig {
            dim: 16,
            epochs: 3,
            lr: 0.05,
            negatives: 5,
            seed: 0x1926ec,
        }
    }
}

/// A trained IP2Vec model: dictionary plus input/output embeddings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ip2Vec {
    cfg: Ip2VecConfig,
    vocab: Vec<Word>,
    #[serde(skip)]
    index: BTreeMap<Word, usize>,
    /// Input embeddings, `vocab.len() × dim`, row-major.
    emb: Vec<f32>,
    /// Output (context) embeddings, same layout.
    ctx: Vec<f32>,
}

impl Ip2Vec {
    /// Trains on explicit sentences (each a slice of words).
    pub fn train(sentences: &[Vec<Word>], cfg: Ip2VecConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Build vocabulary + unigram counts, mapping the words of all
        // sentences to vocabulary indices once (concatenated, in order) so
        // the epochs never touch the index.
        let mut index: BTreeMap<Word, usize> = BTreeMap::new();
        let mut vocab: Vec<Word> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut ids: Vec<usize> = Vec::with_capacity(sentences.iter().map(Vec::len).sum());
        for w in sentences.iter().flatten() {
            let i = match index.get(w) {
                Some(&i) => {
                    counts[i] += 1;
                    i
                }
                None => {
                    index.insert(*w, vocab.len());
                    vocab.push(*w);
                    counts.push(1);
                    vocab.len() - 1
                }
            };
            ids.push(i);
        }
        let v = vocab.len().max(1);
        let dim = cfg.dim;
        let mut emb: Vec<f32> = (0..v * dim)
            .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
            .collect();
        let mut ctx: Vec<f32> = vec![0.0; v * dim];

        // Negative-sampling distribution: unigram^0.75 CDF.
        let weights: Vec<f64> = counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(v);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total.max(f64::MIN_POSITIVE);
            cdf.push(acc);
        }
        let sample_negative = |rng: &mut StdRng| -> usize {
            let u = rng.gen::<f64>();
            cdf.partition_point(|&c| c < u).min(v - 1)
        };

        let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());

        let mut grad_c = vec![0.0f32; dim];
        for _ in 0..cfg.epochs {
            let mut rest = &ids[..];
            for sentence in sentences {
                let (s, tail) = rest.split_at(sentence.len());
                rest = tail;
                for (ci, &c_idx) in s.iter().enumerate() {
                    for (oi, &o_idx) in s.iter().enumerate() {
                        if ci == oi {
                            continue;
                        }
                        // Positive update + negatives, accumulating the
                        // center-gradient before applying it.
                        grad_c.fill(0.0);
                        {
                            let (vc, uo) = (c_idx * dim, o_idx * dim);
                            let dot: f32 = (0..dim).map(|d| emb[vc + d] * ctx[uo + d]).sum();
                            let g = (sigmoid(dot) - 1.0) * cfg.lr;
                            for d in 0..dim {
                                grad_c[d] += g * ctx[uo + d];
                                ctx[uo + d] -= g * emb[vc + d];
                            }
                        }
                        for _ in 0..cfg.negatives {
                            let n_idx = sample_negative(&mut rng);
                            if n_idx == o_idx {
                                continue;
                            }
                            let (vc, un) = (c_idx * dim, n_idx * dim);
                            let dot: f32 = (0..dim).map(|d| emb[vc + d] * ctx[un + d]).sum();
                            let g = sigmoid(dot) * cfg.lr;
                            for d in 0..dim {
                                grad_c[d] += g * ctx[un + d];
                                ctx[un + d] -= g * emb[vc + d];
                            }
                        }
                        let vc = c_idx * dim;
                        for d in 0..dim {
                            emb[vc + d] -= grad_c[d];
                        }
                    }
                }
            }
        }

        Ip2Vec {
            cfg,
            vocab,
            index,
            emb,
            ctx,
        }
    }

    /// Trains from a packet trace: one sentence per packet,
    /// `[src_ip, src_port, dst_ip, dst_port, proto]` (port words only for
    /// TCP/UDP).
    pub fn train_on_packets(trace: &PacketTrace, cfg: Ip2VecConfig) -> Self {
        let sentences: Vec<Vec<Word>> = trace
            .packets
            .iter()
            .map(|p| sentence(p.five_tuple))
            .collect();
        Self::train(&sentences, cfg)
    }

    /// Trains from a flow trace (one sentence per record).
    pub fn train_on_flows(trace: &FlowTrace, cfg: Ip2VecConfig) -> Self {
        let sentences: Vec<Vec<Word>> = trace
            .flows
            .iter()
            .map(|f| sentence(f.five_tuple))
            .collect();
        Self::train(&sentences, cfg)
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Dictionary size.
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// Rebuilds the word index after deserialization.
    pub fn rebuild_index(&mut self) {
        self.index = self
            .vocab
            .iter()
            .enumerate()
            .map(|(i, w)| (*w, i))
            .collect();
    }

    /// The embedding of a word, if in the dictionary.
    pub fn embedding(&self, w: &Word) -> Option<&[f32]> {
        self.index.get(w).map(|&i| self.row(i))
    }

    /// Embedding row `i`.
    fn row(&self, i: usize) -> &[f32] {
        &self.emb[i * self.cfg.dim..(i + 1) * self.cfg.dim]
    }

    /// Nearest dictionary word to `vec` (by Euclidean distance) among
    /// words passing `filter`. This is the paper's decode step: "upon
    /// generating a new embedding, it is mapped to a word via
    /// nearest-neighbor search over the dictionary." Euclidean (rather
    /// than cosine) distance makes decoding *exact* for vectors that are
    /// themselves dictionary embeddings, regardless of embedding quality.
    ///
    /// Decoders that search the same filter repeatedly should build it
    /// once with [`Ip2Vec::candidates`]; its search returns the same word.
    pub fn nearest(&self, vec: &[f32], filter: impl Fn(&Word) -> bool) -> Option<Word> {
        assert_eq!(vec.len(), self.cfg.dim, "query dimension mismatch");
        argmin(
            self.vocab
                .iter()
                .enumerate()
                .filter(|(_, w)| filter(w))
                .map(|(i, w)| (w, self.row(i))),
            vec,
        )
    }

    /// The words passing `filter`, with their embedding rows copied into
    /// one contiguous block in vocabulary order.
    pub fn candidates(&self, filter: impl Fn(&Word) -> bool) -> Candidates {
        let mut words = Vec::new();
        let mut emb = Vec::new();
        for (i, w) in self.vocab.iter().enumerate() {
            if filter(w) {
                words.push(*w);
                emb.extend_from_slice(self.row(i));
            }
        }
        Candidates {
            dim: self.cfg.dim,
            words,
            emb,
        }
    }

    /// Decodes a generated vector to the nearest port word.
    pub fn nearest_port(&self, vec: &[f32]) -> Option<u16> {
        match self.nearest(vec, Word::is_port) {
            Some(Word::Port(p)) => Some(p),
            _ => None,
        }
    }

    /// Decodes a generated vector to the nearest protocol word.
    pub fn nearest_proto(&self, vec: &[f32]) -> Option<u8> {
        match self.nearest(vec, Word::is_proto) {
            Some(Word::Proto(p)) => Some(p),
            _ => None,
        }
    }
}

/// A pre-filtered slice of an [`Ip2Vec`] dictionary, built by
/// [`Ip2Vec::candidates`]: one scan of it costs only its own words, with
/// no filter to run per word.
///
/// [`Candidates::nearest`] returns exactly the word
/// `Ip2Vec::nearest(vec, filter)` returns for the filter it was built
/// with: the rows keep vocabulary order, and both searches run the same
/// argmin, so the distances are the same floats compared in the same
/// order, and the first of tied minima wins in both.
#[derive(Debug, Clone)]
pub struct Candidates {
    dim: usize,
    words: Vec<Word>,
    /// `words.len() × dim`, row-major.
    emb: Vec<f32>,
}

impl Candidates {
    /// Nearest candidate to `vec` by Euclidean distance; `None` only if
    /// the set is empty.
    pub fn nearest(&self, vec: &[f32]) -> Option<Word> {
        assert_eq!(vec.len(), self.dim, "query dimension mismatch");
        let d = self.dim;
        argmin(
            self.words
                .iter()
                .enumerate()
                .map(|(i, w)| (w, &self.emb[i * d..(i + 1) * d])),
            vec,
        )
    }

    /// True if no word passed the filter.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// The first row with the least squared distance to `q`. The first row is
/// always taken, so the result is `None` only for no rows, even when
/// every distance is NaN; later rows replace it only when strictly
/// closer. The squared distance is a sequential left fold, so a given
/// row and query always produce the same float.
fn argmin<'a>(rows: impl Iterator<Item = (&'a Word, &'a [f32])>, q: &[f32]) -> Option<Word> {
    let mut best: Option<(Word, f32)> = None;
    for (w, e) in rows {
        let d2: f32 = e.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
        if best.map(|(_, b)| d2 < b).unwrap_or(true) {
            best = Some((*w, d2));
        }
    }
    best.map(|(w, _)| w)
}

/// The IP2Vec sentence for a five-tuple.
pub fn sentence(ft: nettrace::FiveTuple) -> Vec<Word> {
    let mut s = vec![Word::Ip(ft.src_ip)];
    if ft.proto.has_ports() {
        s.push(Word::Port(ft.src_port));
    }
    s.push(Word::Ip(ft.dst_ip));
    if ft.proto.has_ports() {
        s.push(Word::Port(ft.dst_port));
    }
    s.push(Word::Proto(ft.proto.number()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::{FiveTuple, Protocol};

    /// A toy corpus with two strongly-separated "services": port 53 always
    /// appears with UDP and subnet A; port 80 with TCP and subnet B.
    fn toy_corpus() -> Vec<Vec<Word>> {
        let mut sentences = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..400 {
            if rng.gen::<bool>() {
                let ft = FiveTuple::new(
                    0x0a000000 + rng.gen_range(0..4u32),
                    0x0a0000ff,
                    rng.gen_range(1024..2048),
                    53,
                    Protocol::Udp,
                );
                sentences.push(sentence(ft));
            } else {
                let ft = FiveTuple::new(
                    0x14000000 + rng.gen_range(0..4u32),
                    0x140000ff,
                    rng.gen_range(1024..2048),
                    80,
                    Protocol::Tcp,
                );
                sentences.push(sentence(ft));
            }
        }
        sentences
    }

    fn cos(a: &[f32], b: &[f32]) -> f32 {
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>() / (na * nb)
    }

    fn small_cfg() -> Ip2VecConfig {
        Ip2VecConfig {
            dim: 12,
            epochs: 6,
            lr: 0.05,
            negatives: 4,
            seed: 1,
        }
    }

    #[test]
    fn cooccurring_words_embed_close() {
        let model = Ip2Vec::train(&toy_corpus(), small_cfg());
        let p53 = model.embedding(&Word::Port(53)).unwrap().to_vec();
        let udp = model.embedding(&Word::Proto(17)).unwrap().to_vec();
        let p80 = model.embedding(&Word::Port(80)).unwrap().to_vec();
        let tcp = model.embedding(&Word::Proto(6)).unwrap().to_vec();
        assert!(
            cos(&p53, &udp) > cos(&p53, &tcp),
            "53 is closer to UDP than TCP: {} vs {}",
            cos(&p53, &udp),
            cos(&p53, &tcp)
        );
        assert!(cos(&p80, &tcp) > cos(&p80, &udp), "80 closer to TCP");
    }

    #[test]
    fn embeddings_decode_to_themselves() {
        let model = Ip2Vec::train(&toy_corpus(), small_cfg());
        let e53 = model.embedding(&Word::Port(53)).unwrap().to_vec();
        assert_eq!(model.nearest_port(&e53), Some(53));
        let etcp = model.embedding(&Word::Proto(6)).unwrap().to_vec();
        assert_eq!(model.nearest_proto(&etcp), Some(6));
    }

    #[test]
    fn nearest_respects_filter() {
        let model = Ip2Vec::train(&toy_corpus(), small_cfg());
        let e = model.embedding(&Word::Proto(6)).unwrap().to_vec();
        // Even querying with a protocol vector, a port filter returns a port.
        let w = model.nearest(&e, Word::is_port).unwrap();
        assert!(w.is_port());
    }

    #[test]
    fn unknown_word_has_no_embedding() {
        let model = Ip2Vec::train(&toy_corpus(), small_cfg());
        assert!(model.embedding(&Word::Port(9999)).is_none());
    }

    #[test]
    fn sentence_omits_ports_for_icmp() {
        let ft = FiveTuple::new(1, 2, 0, 0, Protocol::Icmp);
        let s = sentence(ft);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|w| !w.is_port()));
    }

    /// The training loop before sentences were mapped to vocabulary
    /// indices once: two index lookups and a fresh gradient buffer per
    /// pair. Returns the input and output embeddings.
    fn train_reference(sentences: &[Vec<Word>], cfg: Ip2VecConfig) -> (Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut index: BTreeMap<Word, usize> = BTreeMap::new();
        let mut counts: Vec<u64> = Vec::new();
        for s in sentences {
            for w in s {
                match index.get(w) {
                    Some(&i) => counts[i] += 1,
                    None => {
                        index.insert(*w, counts.len());
                        counts.push(1);
                    }
                }
            }
        }
        let v = counts.len().max(1);
        let dim = cfg.dim;
        let mut emb: Vec<f32> = (0..v * dim)
            .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
            .collect();
        let mut ctx: Vec<f32> = vec![0.0; v * dim];
        let weights: Vec<f64> = counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(v);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total.max(f64::MIN_POSITIVE);
            cdf.push(acc);
        }
        let sample_negative = |rng: &mut StdRng| -> usize {
            let u = rng.gen::<f64>();
            cdf.partition_point(|&c| c < u).min(v - 1)
        };
        let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
        for _ in 0..cfg.epochs {
            for s in sentences {
                for (ci, c) in s.iter().enumerate() {
                    let c_idx = index[c];
                    for (oi, o) in s.iter().enumerate() {
                        if ci == oi {
                            continue;
                        }
                        let o_idx = index[o];
                        let mut grad_c = vec![0.0f32; dim];
                        {
                            let (vc, uo) = (c_idx * dim, o_idx * dim);
                            let dot: f32 = (0..dim).map(|d| emb[vc + d] * ctx[uo + d]).sum();
                            let g = (sigmoid(dot) - 1.0) * cfg.lr;
                            for d in 0..dim {
                                grad_c[d] += g * ctx[uo + d];
                                ctx[uo + d] -= g * emb[vc + d];
                            }
                        }
                        for _ in 0..cfg.negatives {
                            let n_idx = sample_negative(&mut rng);
                            if n_idx == o_idx {
                                continue;
                            }
                            let (vc, un) = (c_idx * dim, n_idx * dim);
                            let dot: f32 = (0..dim).map(|d| emb[vc + d] * ctx[un + d]).sum();
                            let g = sigmoid(dot) * cfg.lr;
                            for d in 0..dim {
                                grad_c[d] += g * ctx[un + d];
                                ctx[un + d] -= g * emb[vc + d];
                            }
                        }
                        let vc = c_idx * dim;
                        for d in 0..dim {
                            emb[vc + d] -= grad_c[d];
                        }
                    }
                }
            }
        }
        (emb, ctx)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn training_matches_reference_loop_bitwise() {
        // The toy corpus plus sentences that repeat a word (equal ports)
        // and port-less ICMP sentences.
        let mut corpus = toy_corpus();
        corpus.push(sentence(FiveTuple::new(7, 8, 53, 53, Protocol::Udp)));
        corpus.push(sentence(FiveTuple::new(7, 7, 80, 80, Protocol::Tcp)));
        corpus.push(sentence(FiveTuple::new(9, 10, 0, 0, Protocol::Icmp)));
        for cfg in [small_cfg(), Ip2VecConfig::default()] {
            let model = Ip2Vec::train(&corpus, cfg);
            let (emb, ctx) = train_reference(&corpus, cfg);
            assert_eq!(bits(&model.emb), bits(&emb), "input embeddings");
            assert_eq!(bits(&model.ctx), bits(&ctx), "output embeddings");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = toy_corpus();
        let a = Ip2Vec::train(&corpus, small_cfg());
        let b = Ip2Vec::train(&corpus, small_cfg());
        assert_eq!(a.emb, b.emb);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const DIM: usize = 3;

        /// An untrained model whose word `i` has kind `kinds[i]` and
        /// embedding `rows[i]`.
        fn model_with_rows(rows: &[Vec<f32>], kinds: &[u8]) -> Ip2Vec {
            let vocab = (0..rows.len())
                .map(|i| match kinds[i] {
                    0 => Word::Ip(i as u32),
                    1 => Word::Port(i as u16),
                    _ => Word::Proto(i as u8),
                })
                .collect();
            let emb = rows.concat();
            let mut model = Ip2Vec {
                cfg: Ip2VecConfig {
                    dim: DIM,
                    ..Ip2VecConfig::default()
                },
                vocab,
                index: BTreeMap::new(),
                ctx: vec![0.0; emb.len()],
                emb,
            };
            model.rebuild_index();
            model
        }

        fn filter(which: u8) -> impl Fn(&Word) -> bool {
            move |w: &Word| match which {
                0 => w.is_port(),
                1 => w.is_proto(),
                2 => matches!(w, Word::Ip(_)),
                3 => true,
                4 => false,
                _ => match w {
                    Word::Ip(x) => x % 2 == 0,
                    Word::Port(x) => x % 2 == 0,
                    Word::Proto(x) => x % 2 == 0,
                },
            }
        }

        fn coord() -> impl Strategy<Value = f32> {
            prop_oneof![
                -2.0f32..2.0,
                -2.0f32..2.0,
                -2.0f32..2.0,
                Just(f32::NAN),
                Just(f32::INFINITY),
                Just(f32::NEG_INFINITY),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn candidate_search_equals_filtered_search(
                rows in prop::collection::vec(prop::collection::vec(-2.0f32..2.0, DIM), 0..24),
                kinds in prop::collection::vec(0u8..3, 24),
                dups in prop::collection::vec((0usize..24, 0usize..24), 0..6),
                query in prop::collection::vec(coord(), DIM),
                which in 0u8..6,
            ) {
                // Duplicate some rows so tied minima occur.
                let mut rows = rows;
                for &(from, to) in &dups {
                    if from < rows.len() && to < rows.len() {
                        rows[to] = rows[from].clone();
                    }
                }
                let model = model_with_rows(&rows, &kinds);
                let set = model.candidates(filter(which));
                let expected = model.nearest(&query, filter(which));
                prop_assert_eq!(set.nearest(&query), expected);
                prop_assert_eq!(expected.is_none(), set.is_empty());
                // A query equal to a row finds the first row with that value.
                for (i, row) in rows.iter().enumerate() {
                    let w = model.vocab[i];
                    if filter(which)(&w) {
                        let first = rows.iter().zip(&model.vocab).position(|(r, v)| {
                            filter(which)(v) && r == row
                        });
                        prop_assert_eq!(set.nearest(row), first.map(|j| model.vocab[j]));
                    }
                }
            }
        }
    }
}
