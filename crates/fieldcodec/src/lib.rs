//! # fieldcodec
//!
//! Header-field encodings — the realization of the paper's Table 2
//! ("Encoding tradeoffs for various fields") and Insight 2.
//!
//! NetShare's choices, reproduced here:
//!
//! * **IP addresses → bit encoding** ([`bits::BitCodec`]): 32 binary
//!   dimensions. Vector embeddings of IPs would be higher-fidelity but the
//!   embedding dictionary is training-data-dependent and therefore not DP.
//! * **Ports & protocol → IP2Vec embeddings** ([`ip2vec::Ip2Vec`]): a
//!   Word2Vec-style skip-gram model with negative sampling, trained on
//!   *public* data so the dictionary never touches the private trace;
//!   decoding is nearest-neighbour search over the dictionary.
//! * **Large-support numeric fields → `log(1+x)` + min-max** to `[0, 1]`
//!   ([`continuous::ContinuousCodec`]), taming the mice-to-elephants range
//!   of packets/bytes per flow (paper Fig. 2).
//!
//! The byte encoding ([`bits::ByteCodec`]) and one-hot encoding
//! ([`onehot::OneHotCodec`]) used by the *baselines* (PAC-GAN,
//! PacketCGAN, Flow-WGAN, STAN) live here too, so the `tab2` encoding
//! ablation can compare all of them under one roof.

pub mod bits;
pub mod continuous;
pub mod ip2vec;
pub mod onehot;

pub use bits::{BitCodec, ByteCodec};
pub use continuous::ContinuousCodec;
pub use ip2vec::{Candidates, Ip2Vec, Ip2VecConfig, Word};
pub use onehot::OneHotCodec;
