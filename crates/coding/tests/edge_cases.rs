//! Decoder edge cases: empty inputs, EOF mid-symbol, hostile MTF
//! indices, Huffman code-length completeness, and out-of-range model
//! queries (every model API returns `Result` rather than panicking, so
//! corrupt streams fail cleanly all the way up the decode stack).

use codecomp_coding::arith::{
    compress_bytes_adaptive, decompress_bytes_adaptive, ArithDecoder, ArithEncoder,
};
use codecomp_coding::bits::{BitReader, BitWriter};
use codecomp_coding::huffman::HuffmanDecoder;
use codecomp_coding::model::{AdaptiveModel, ContextModel, FrequencyTable};
use codecomp_coding::mtf::{mtf_decode, mtf_encode};
use codecomp_coding::CodingError;

#[test]
fn empty_input_hits_eof_immediately() {
    assert_eq!(BitReader::new(&[]).read_bit(), Err(CodingError::UnexpectedEof));
    assert_eq!(
        BitReader::new(&[]).read_bits(1),
        Err(CodingError::UnexpectedEof)
    );
}

#[test]
fn msb_reader_eof_mid_symbol() {
    // One byte holds 8 bits; a 4-bit read succeeds, the following 8-bit
    // read starts inside the stream but runs off the end.
    let mut r = BitReader::new(&[0xA5]);
    assert!(r.read_bits(4).is_ok());
    assert_eq!(r.read_bits(8), Err(CodingError::UnexpectedEof));
}

#[test]
fn mtf_decode_rejects_out_of_range_recency_index() {
    // Index 7 refers to recency position 6 of an empty list.
    assert_eq!(mtf_decode(&[7], 0), None);
    // Index 2 after a single "new" symbol: recency list has one entry.
    assert_eq!(mtf_decode(&[0, 2], 1), None);
}

#[test]
fn mtf_decode_rejects_exhausted_side_table() {
    // Two "new symbol" indices but only one table entry.
    assert_eq!(mtf_decode(&[0, 0], 1), None);
}

#[test]
fn mtf_empty_stream_roundtrips() {
    let enc = mtf_encode::<u32>(&[]);
    assert!(enc.indices.is_empty() && enc.table.is_empty());
    assert_eq!(mtf_decode(&enc.indices, 0), Some(vec![]));
}

#[test]
fn huffman_decoder_rejects_incomplete_length_sets() {
    // Oversubscribed: three 1-bit codes.
    assert!(HuffmanDecoder::from_lengths(&[1, 1, 1]).is_err());
    // Undersubscribed with more than one code: two 2-bit codes.
    assert!(HuffmanDecoder::from_lengths(&[2, 2]).is_err());
    // Degenerate single code is the only tolerated incomplete set (the
    // wire format emits it for single-symbol streams).
    assert!(HuffmanDecoder::from_lengths(&[1]).is_ok());
    // Complete sets decode.
    assert!(HuffmanDecoder::from_lengths(&[1, 2, 2]).is_ok());
}

#[test]
fn frequency_table_rejects_out_of_range_queries() {
    let t = FrequencyTable::with_smoothing(&[3, 1, 5]);
    assert!(matches!(
        t.bounds(3),
        Err(CodingError::SymbolOutOfRange {
            symbol: 3,
            alphabet: 3
        })
    ));
    // Cumulative point at or past the total is a data error, not a
    // panic: a corrupt arithmetic stream can produce any point.
    assert!(matches!(
        t.symbol_for(t.total()),
        Err(CodingError::InvalidModel(_))
    ));
    assert!(t.symbol_for(t.total() - 1).is_ok());
    let mut t = t;
    assert!(t.bump(7, 1).is_err());
    assert!(t.bump(2, 1).is_ok());
}

#[test]
fn adaptive_model_rejects_out_of_range_queries() {
    let mut m = AdaptiveModel::new(4);
    assert!(matches!(
        m.bounds(4),
        Err(CodingError::SymbolOutOfRange {
            symbol: 4,
            alphabet: 4
        })
    ));
    assert!(matches!(
        m.locate(m.total()),
        Err(CodingError::InvalidModel(_))
    ));
    assert!(m.locate(m.total() - 1).is_ok());
    assert!(m.update(4).is_err());
    assert!(m.update(3).is_ok());
}

#[test]
fn context_model_train_rejects_out_of_range_but_keeps_prior_counts() {
    let mut m = ContextModel::new(1, 3);
    assert_eq!(
        m.train(&[0, 1, 9]),
        Err(CodingError::SymbolOutOfRange {
            symbol: 9,
            alphabet: 3
        })
    );
    // The symbols before the bad one were counted.
    assert_eq!(m.order0_counts(), &[1, 1, 0]);
}

#[test]
fn arith_decoder_on_empty_input_is_total() {
    // An empty stream decodes as an endless run of zero bits; whatever
    // symbols fall out, nothing may panic and every point stays valid.
    let model = AdaptiveModel::new(5);
    let dec = ArithDecoder::new(&[]).unwrap();
    let point = dec.decode_point(model.total()).unwrap();
    assert!(point < model.total());
    assert_eq!(
        decompress_bytes_adaptive(&[], 0).unwrap(),
        Vec::<u8>::new()
    );
    // Asking for output from nothing still must not panic.
    assert!(decompress_bytes_adaptive(&[], 64).is_ok());
}

#[test]
fn arith_decoder_survives_exhausted_input_mid_symbol() {
    // Compress 256 bytes, then hand the decoder every strict prefix.
    // Missing bits read as zeros, so decoding may produce wrong bytes —
    // but it must stay total and in-range for the declared length.
    let data: Vec<u8> = (0..=255).collect();
    let packed = compress_bytes_adaptive(&data);
    for cut in 0..packed.len().min(64) {
        let _ = decompress_bytes_adaptive(&packed[..cut], data.len());
    }
    let _ = decompress_bytes_adaptive(&packed[..packed.len() - 1], data.len());
}

#[test]
fn arith_decode_with_mismatched_table_fails_cleanly() {
    // Encode under a 4-symbol table, decode under a 2-symbol one: the
    // decoder sees cumulative points beyond the smaller table's range
    // of symbols, which must surface as errors, never indexing panics.
    let enc_table = FrequencyTable::with_smoothing(&[1, 1, 1, 1]);
    let mut enc = ArithEncoder::new();
    for s in [3usize, 3, 3, 3] {
        enc.encode_with_table(s, &enc_table).unwrap();
    }
    let bytes = enc.finish();
    let dec_table = FrequencyTable::with_smoothing(&[1, 1]);
    let mut dec = ArithDecoder::new(&bytes).unwrap();
    for _ in 0..4 {
        if dec.decode_with_table(&dec_table).is_err() {
            return; // clean rejection is the expected outcome
        }
    }
    // All four decoding as valid 2-symbol output is acceptable too
    // (the streams are ambiguous); the test asserts totality.
}

#[test]
fn encode_with_table_rejects_out_of_alphabet_symbol() {
    let table = FrequencyTable::with_smoothing(&[1, 1]);
    let mut enc = ArithEncoder::new();
    assert!(matches!(
        enc.encode_with_table(2, &table),
        Err(CodingError::SymbolOutOfRange { .. })
    ));
}

#[test]
fn huffman_decode_eof_mid_symbol() {
    let dec = HuffmanDecoder::from_lengths(&[2, 2, 2, 2]).unwrap();
    // One bit of input: every symbol needs two.
    let mut w = BitWriter::new();
    w.write_bit(true);
    let bytes = w.finish();
    let mut r = BitReader::new(&bytes);
    // The trailing pad bits of the byte may decode as a symbol; the
    // guarantee under test is totality, not rejection.
    for _ in 0..16 {
        if dec.decode_one(&mut r).is_err() {
            return;
        }
    }
    panic!("decoder consumed more symbols than the stream can hold");
}
