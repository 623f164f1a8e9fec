//! Wire-format edge cases: degenerate modules and hostile containers.

use codecomp_front::compile;
use codecomp_ir::Module;
use codecomp_wire::{compress, decompress, DemandImage, WireError, WireOptions};

#[test]
fn empty_module_roundtrips() {
    let module = Module::new();
    let packed = compress(&module, WireOptions::default()).unwrap();
    assert_eq!(decompress(&packed.bytes).unwrap(), module);
}

#[test]
fn zero_function_module_with_globals_roundtrips() {
    // Globals only; the function-count field is zero on the wire.
    let module = compile("int g = 5; char buf[16]; int zeros[4];").unwrap();
    assert!(module.functions.is_empty());
    let packed = compress(&module, WireOptions::default()).unwrap();
    assert_eq!(decompress(&packed.bytes).unwrap(), module);
}

#[test]
fn empty_input_rejected() {
    assert!(decompress(&[]).is_err());
}

#[test]
fn bad_magic_rejected() {
    let module = Module::new();
    let mut bytes = compress(&module, WireOptions::default()).unwrap().bytes;
    bytes[0] ^= 0xFF;
    assert!(decompress(&bytes).is_err());
}

#[test]
fn every_prefix_of_a_real_image_rejected() {
    let module = compile("int main() { return 40 + 2; }").unwrap();
    let bytes = compress(&module, WireOptions::default()).unwrap().bytes;
    for len in 0..bytes.len() {
        assert!(decompress(&bytes[..len]).is_err(), "prefix {len} accepted");
    }
}

#[test]
fn demand_global_size_past_32_bits_rejected() {
    // One global "g" of size 2^32 + 5, which must not decode as size 5.
    let bytes = [
        b'C', b'C', b'W', b'D', // magic
        0x17, // default options
        1, // one global
        1, b'g', // its name
        0x85, 0x80, 0x80, 0x80, 0x10, // its size: 2^32 + 5
        0, // no initializer
        0, // no units
    ];
    let err = DemandImage::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, WireError::Corrupt(_)), "got {err:?}");
}
