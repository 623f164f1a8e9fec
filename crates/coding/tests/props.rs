//! Randomized (deterministic, seeded) tests for the entropy-coding
//! substrate. Formerly proptest-based; the container builds offline with
//! no registry, so these now drive the same properties from the in-tree
//! [`codecomp_core::fault::XorShift64`] PRNG.

use codecomp_coding::arith::{compress_bytes_adaptive, decompress_bytes_adaptive};
use codecomp_coding::bits::{BitReader, BitWriter};
use codecomp_coding::huffman::{HuffmanDecoder, HuffmanEncoder};
use codecomp_coding::model::ContextModel;
use codecomp_coding::mtf::{mtf_decode, mtf_encode};
use codecomp_core::fault::XorShift64;

const CASES: u64 = 64;

fn sym_vec(rng: &mut XorShift64, alphabet: u64, max_len: usize) -> Vec<u32> {
    let len = rng.below(max_len as u64 + 1) as usize;
    (0..len).map(|_| rng.below(alphabet) as u32).collect()
}

#[test]
fn msb_bits_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x1000 + case);
        let n_chunks = rng.below(64) as usize;
        let chunks: Vec<(u64, u8)> = (0..n_chunks)
            .map(|_| (rng.next_u64(), rng.range_usize(1, 65) as u8))
            .collect();
        let mut w = BitWriter::new();
        for &(v, n) in &chunks {
            w.write_bits(v & (u64::MAX >> (64 - n)), n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &chunks {
            assert_eq!(r.read_bits(n).unwrap(), v & (u64::MAX >> (64 - n)));
        }
    }
}

fn huffman_case(seed: u64, alphabet: usize, limit: u8) {
    let mut rng = XorShift64::new(seed);
    let len = rng.range_usize(1, 512);
    let data: Vec<usize> = (0..len)
        .map(|_| rng.below(alphabet as u64) as usize)
        .collect();
    let mut freqs = vec![0u64; alphabet];
    for &s in &data {
        freqs[s] += 1;
    }
    let enc = HuffmanEncoder::from_frequencies(&freqs, limit).unwrap();
    assert!(enc.lengths().iter().all(|&l| l <= limit));
    let bits = enc.encode_symbols(data.iter().copied()).unwrap();
    let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
    assert_eq!(dec.decode_exact(&bits, data.len()).unwrap(), data);
}

#[test]
fn huffman_roundtrip() {
    for case in 0..CASES {
        huffman_case(0x3000 + case, 64, 15);
    }
}

#[test]
fn huffman_length_limited_roundtrip() {
    for case in 0..CASES {
        huffman_case(0x4000 + case, 200, 9);
    }
}

#[test]
fn mtf_paper_variant_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x5000 + case);
        let data = sym_vec(&mut rng, 32, 256);
        let enc = mtf_encode(&data);
        let back = mtf_decode(&enc.indices, enc.table.len()).unwrap();
        assert!(back.iter().map(|&i| enc.table[i as usize]).eq(data));
    }
}

#[test]
fn mtf_table_len_equals_distinct_symbols() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x7000 + case);
        let data = sym_vec(&mut rng, 16, 256);
        let enc = mtf_encode(&data);
        let distinct = {
            let mut v = data.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert_eq!(enc.table.len(), distinct);
        assert_eq!(enc.indices.iter().filter(|&&i| i == 0).count(), distinct);
    }
}

#[test]
fn arith_adaptive_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x8000 + case);
        let len = rng.below(512) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let packed = compress_bytes_adaptive(&data);
        assert_eq!(decompress_bytes_adaptive(&packed, data.len()).unwrap(), data);
    }
}

#[test]
fn context_model_estimate_is_finite_and_positive() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x9000 + case);
        let len = rng.range_usize(1, 256);
        let data: Vec<u32> = (0..len).map(|_| rng.below(8) as u32).collect();
        let order = rng.below(3) as usize;
        let mut m = ContextModel::new(order, 8);
        m.train(&data).unwrap();
        let bits = m.estimate_bits(&data);
        assert!(bits.is_finite());
        assert!(bits >= 0.0);
    }
}
