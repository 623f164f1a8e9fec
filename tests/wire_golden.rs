//! Pins the wire format's output: for every corpus program and three
//! synthetic programs under all 24 `WireOptions` combinations, the
//! FNV-1a hash and length of the `wire::compress` image and of the
//! serialized `DemandImage` must equal the recorded values. Both
//! encoders are deterministic, so any drift here is a format change,
//! not noise.
//!
//! The 300-function synthetic module is `#[ignore]`d (too slow for the
//! debug profile); `scripts/ci.sh` runs it with `--release
//! --include-ignored`.
//!
//! A mismatch prints every case's actual row in the table's syntax.

use code_compression::corpus::{benchmarks, synthetic, SynthConfig};
use code_compression::front::compile;
use code_compression::ir::tree::Module;
use code_compression::wire::{compress, Coder, DemandImage, WireOptions};

/// One pinned encoding: program, option set, wire image hash and
/// length, demand image hash and length.
type Row = (&'static str, &'static str, u64, usize, u64, usize);

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// All 24 option sets, each with a stable label such as
/// `split-mtf-huffman-deflate` or `mixed-raw`.
fn option_matrix() -> Vec<(String, WireOptions)> {
    let mut out = Vec::new();
    for split_streams in [true, false] {
        for mtf in [true, false] {
            for coder in [Coder::Raw, Coder::Huffman, Coder::Arithmetic] {
                for deflate in [true, false] {
                    let label = format!(
                        "{}{}-{}{}",
                        if split_streams { "split" } else { "mixed" },
                        if mtf { "-mtf" } else { "" },
                        format!("{coder:?}").to_lowercase(),
                        if deflate { "-deflate" } else { "" },
                    );
                    let options = WireOptions {
                        split_streams,
                        mtf,
                        coder,
                        deflate,
                    };
                    out.push((label, options));
                }
            }
        }
    }
    out
}

type Actual = (String, String, u64, usize, u64, usize);

fn pin(program: &str, label: &str, module: &Module, options: WireOptions) -> Actual {
    let wire = compress(module, options).unwrap().bytes;
    let demand = DemandImage::build(module, options).unwrap().to_bytes();
    (
        program.to_string(),
        label.to_string(),
        fnv1a(&wire),
        wire.len(),
        fnv1a(&demand),
        demand.len(),
    )
}

/// Compares actual rows to the expected table, reporting every
/// mismatch and the full actual table on failure.
fn check(actual: &[Actual], expected: &[Row]) {
    let mut bad = Vec::new();
    for a in actual {
        let row = (a.0.as_str(), a.1.as_str(), a.2, a.3, a.4, a.5);
        match expected.iter().find(|e| e.0 == row.0 && e.1 == row.1) {
            Some(e) if *e == row => {}
            Some(e) => bad.push(format!("{}/{}: expected {e:?}, got {row:?}", a.0, a.1)),
            None => bad.push(format!("{}/{}: no recorded row", a.0, a.1)),
        }
    }
    if !bad.is_empty() {
        let table: String = actual
            .iter()
            .map(|r| {
                format!(
                    "    ({:?}, {:?}, {:#018x}, {}, {:#018x}, {}),\n",
                    r.0, r.1, r.2, r.3, r.4, r.5
                )
            })
            .collect();
        panic!("{}\nactual rows:\n{table}", bad.join("\n"));
    }
    assert_eq!(actual.len(), expected.len(), "case count");
}

fn pin_matrix(program: &str, module: &Module, actual: &mut Vec<Actual>) {
    for (label, options) in option_matrix() {
        actual.push(pin(program, &label, module, options));
    }
}

#[rustfmt::skip]
const CORPUS: &[Row] = &[
    ("vmsim", "split-mtf-raw-deflate", 0xc948238279e049ca, 952, 0x1f12d560412b806a, 1685),
    ("vmsim", "split-mtf-raw", 0x24b109108a0b926b, 1507, 0x6eb1a989e87b7af3, 2074),
    ("vmsim", "split-mtf-huffman-deflate", 0x8f8648508fc2c511, 1026, 0x292be6d17017f03a, 1733),
    ("vmsim", "split-mtf-huffman", 0xbaad70f5f8ac2423, 1156, 0x4a81419b685c818f, 1793),
    ("vmsim", "split-mtf-arithmetic-deflate", 0xa19619641c4272b9, 987, 0xad08085e449785d4, 1621),
    ("vmsim", "split-mtf-arithmetic", 0x79c64addfa1b1513, 1031, 0xc9242074f4953749, 1587),
    ("vmsim", "split-raw-deflate", 0xbd4d74645a616ce4, 989, 0x60bc8d459dfb564e, 1711),
    ("vmsim", "split-raw", 0x0a78911f4dec58c4, 1507, 0x3dfb1a053d0f61ff, 2074),
    ("vmsim", "split-huffman-deflate", 0xc943cc8885ca6c70, 1103, 0x6129e76312d82939, 1764),
    ("vmsim", "split-huffman", 0x763ffdd911c1315f, 1213, 0x18ac15a79c255223, 1808),
    ("vmsim", "split-arithmetic-deflate", 0x37787fa9e7cdfad5, 1104, 0x297ce837e63a7e4f, 1734),
    ("vmsim", "split-arithmetic", 0x082f001ee779a2f4, 1135, 0xb44c4b97519d59d2, 1683),
    ("vmsim", "mixed-mtf-raw-deflate", 0xa9dbd798bbc1667d, 861, 0x69547a5626714089, 1393),
    ("vmsim", "mixed-mtf-raw", 0x67d99c252bf44c70, 1360, 0x1351977648755ad1, 1817),
    ("vmsim", "mixed-mtf-huffman-deflate", 0x8e270d6f54a47ecc, 977, 0x0debb01fa5e52aca, 1476),
    ("vmsim", "mixed-mtf-huffman", 0x6a4ce03d1246097a, 1086, 0xf63f1c70238f64f1, 1543),
    ("vmsim", "mixed-mtf-arithmetic-deflate", 0x1c5b6087ba87a04d, 952, 0x17d8f5842a2a1488, 1412),
    ("vmsim", "mixed-mtf-arithmetic", 0x2b4bc8beadea6303, 1010, 0x0b741c24e501e2d1, 1407),
    ("vmsim", "mixed-raw-deflate", 0x2f210aee43570c20, 909, 0xf02e16c400bbb415, 1426),
    ("vmsim", "mixed-raw", 0xa2787df7adf2e066, 1360, 0x9740b52c11748191, 1817),
    ("vmsim", "mixed-huffman-deflate", 0xf64c290629ae283b, 1049, 0x8ff7914122857b4c, 1531),
    ("vmsim", "mixed-huffman", 0x44e26e9024ae6d0a, 1150, 0x687f7b71642b2967, 1595),
    ("vmsim", "mixed-arithmetic-deflate", 0x18ec98de888371c4, 1046, 0xb0ac3cac6850f088, 1512),
    ("vmsim", "mixed-arithmetic", 0x106b4848a38a4362, 1100, 0xa6184a91eaa0ebf2, 1504),
    ("dsp", "split-mtf-raw-deflate", 0xcab72c0b17b93203, 842, 0x3a4e6a91c68b87ba, 1944),
    ("dsp", "split-mtf-raw", 0x2f2385743f45ef11, 1153, 0xd1a4c0ba5b5bbfc3, 2037),
    ("dsp", "split-mtf-huffman-deflate", 0x2e0fae17208e80cc, 863, 0x09acf5c47d66cb10, 2036),
    ("dsp", "split-mtf-huffman", 0xb82b16b3420b2953, 1013, 0x91401fc2c62c659e, 2070),
    ("dsp", "split-mtf-arithmetic-deflate", 0xd9451aa928fcc300, 814, 0x497deb77170be8b7, 1859),
    ("dsp", "split-mtf-arithmetic", 0x5d0668ec2cf87809, 939, 0xb655536d8a1bc92e, 1846),
    ("dsp", "split-raw-deflate", 0x4ceb8ad49d9515ab, 855, 0x44129d488080933c, 1977),
    ("dsp", "split-raw", 0xa3658c0f6657fa23, 1153, 0xad0700d4137c61f5, 2037),
    ("dsp", "split-huffman-deflate", 0xee2109971dea909e, 880, 0xcfaf42f2d2c8adab, 2014),
    ("dsp", "split-huffman", 0x428699d072a536a0, 1028, 0x0db002b9bae4c948, 2050),
    ("dsp", "split-arithmetic-deflate", 0xbc94301b0304fd5c, 853, 0x717d9d9e29541b35, 1940),
    ("dsp", "split-arithmetic", 0xb4e0797f50ff7a0e, 975, 0xf00b691e8c8279d1, 1923),
    ("dsp", "mixed-mtf-raw-deflate", 0xf918b5bb267c132e, 727, 0x1f7b0979af990b43, 1435),
    ("dsp", "mixed-mtf-raw", 0x71b21ad5af47c9ca, 1040, 0x7ff02963a4f381e9, 1643),
    ("dsp", "mixed-mtf-huffman-deflate", 0x18ef2405131050b9, 765, 0xbca5cba68dc4b9f6, 1487),
    ("dsp", "mixed-mtf-huffman", 0x98ebf97223de3bea, 927, 0x8693b92f2f74fa27, 1588),
    ("dsp", "mixed-mtf-arithmetic-deflate", 0xb1e125f312fb6827, 734, 0x6174a89552065f09, 1386),
    ("dsp", "mixed-mtf-arithmetic", 0x74e4812a0e96deed, 871, 0xffdaf421382ff9e3, 1441),
    ("dsp", "mixed-raw-deflate", 0xa6bb8c05c31b1993, 740, 0x495a4de169747056, 1484),
    ("dsp", "mixed-raw", 0x54a8e272eec78002, 1040, 0x729d080538953422, 1643),
    ("dsp", "mixed-huffman-deflate", 0x5869f2ce7c4f6a1b, 801, 0x87001b9947892c17, 1529),
    ("dsp", "mixed-huffman", 0x4f738ec8593757b4, 959, 0x1fd751f8bfd5c40a, 1638),
    ("dsp", "mixed-arithmetic-deflate", 0x115ef2836278e28f, 786, 0xcc2cbd73d12b4acd, 1489),
    ("dsp", "mixed-arithmetic", 0x6a1a25a7492bcdac, 919, 0xfe2319c55d010b72, 1541),
    ("pack", "split-mtf-raw-deflate", 0x9c6bfebff8c1d399, 785, 0xca405b8c718347f0, 1721),
    ("pack", "split-mtf-raw", 0x0d13207580ec7ba2, 1030, 0x58451162635dca57, 1774),
    ("pack", "split-mtf-huffman-deflate", 0xd9342e0e86fad026, 797, 0x75980dd385ec567f, 1809),
    ("pack", "split-mtf-huffman", 0x8ced6297733a9b69, 921, 0xb60ff3021e99bb5a, 1814),
    ("pack", "split-mtf-arithmetic-deflate", 0x5f72f517a3575974, 750, 0x72ec64114ca6a6f5, 1654),
    ("pack", "split-mtf-arithmetic", 0xd85acfdbc6350a0a, 844, 0x2abe54c6af13ce53, 1627),
    ("pack", "split-raw-deflate", 0x0ce915459f891a03, 799, 0x3deecf0c8ca395a3, 1756),
    ("pack", "split-raw", 0x8a4a29aa8501f7a5, 1030, 0x2aedf16032b01b9e, 1774),
    ("pack", "split-huffman-deflate", 0x02cd7ac0cbcf6fcf, 814, 0xfc459491dbea568f, 1769),
    ("pack", "split-huffman", 0xdd0faf344c8e611a, 928, 0x481f9217245ffaee, 1786),
    ("pack", "split-arithmetic-deflate", 0xd91852697f3357f0, 787, 0x2c06190af1c5f9b1, 1704),
    ("pack", "split-arithmetic", 0xfaec4d5ce7384589, 878, 0x1df938e60f969f52, 1674),
    ("pack", "mixed-mtf-raw-deflate", 0xfd994d2a1a556449, 642, 0x88e9829889367ca0, 1224),
    ("pack", "mixed-mtf-raw", 0x56000db0f7283ecd, 905, 0x241dc8f4fe98d88c, 1394),
    ("pack", "mixed-mtf-huffman-deflate", 0xa3e5bec5dd366d2a, 663, 0x6dd707847a2fe86b, 1267),
    ("pack", "mixed-mtf-huffman", 0x794ea8f17fe3d441, 805, 0xcd73a72f8eae77f1, 1343),
    ("pack", "mixed-mtf-arithmetic-deflate", 0x0b00e493dc21be8d, 647, 0xab9caa17cd7adf1d, 1181),
    ("pack", "mixed-mtf-arithmetic", 0x1a9f6a9ab0bd94cf, 756, 0xb805f70d13845872, 1223),
    ("pack", "mixed-raw-deflate", 0x346246ef8aba9c66, 659, 0x0f4f8bc8d4cc159b, 1262),
    ("pack", "mixed-raw", 0x87b8fdf1b1eb300d, 905, 0x413f0cce224e1115, 1394),
    ("pack", "mixed-huffman-deflate", 0x7730c3ebac722688, 700, 0x64de670845c5b2b6, 1293),
    ("pack", "mixed-huffman", 0x91a37d472ab0a61e, 829, 0x243a9670f183b047, 1376),
    ("pack", "mixed-arithmetic-deflate", 0xc787d5f1b504861f, 688, 0x1b80c37a70ec0bcf, 1264),
    ("pack", "mixed-arithmetic", 0xb42d131d35d490e5, 794, 0x65728395b0686dc3, 1298),
    ("sortlib", "split-mtf-raw-deflate", 0x60b0f1a5e9114acd, 1059, 0x22b9d1602cdd0779, 2297),
    ("sortlib", "split-mtf-raw", 0x5954e81c9f22acc0, 1570, 0xd773a14878c30d2f, 2564),
    ("sortlib", "split-mtf-huffman-deflate", 0x676bfdc7521fdccb, 1093, 0xf80821e28363d2a8, 2388),
    ("sortlib", "split-mtf-huffman", 0x5492652f4acec1db, 1345, 0x08375112902e9df3, 2541),
    ("sortlib", "split-mtf-arithmetic-deflate", 0x9edf94c011c32cf2, 1031, 0x3a5c7f8f4bb61adc, 2199),
    ("sortlib", "split-mtf-arithmetic", 0x468195ff8ece95a2, 1238, 0xf530157fda690c0b, 2272),
    ("sortlib", "split-raw-deflate", 0xa385941e2f93941d, 1083, 0xab6e22aeab001054, 2350),
    ("sortlib", "split-raw", 0xdb988e9ad298aba9, 1570, 0xc2001b02718b4f32, 2564),
    ("sortlib", "split-huffman-deflate", 0x383fa579751e0725, 1122, 0x73f980fbfcb7aeca, 2376),
    ("sortlib", "split-huffman", 0x354804db40455bd7, 1372, 0xef5eef05b61bba93, 2518),
    ("sortlib", "split-arithmetic-deflate", 0x6b4d20d1781d4a48, 1102, 0xc905bf7aafb4a23b, 2301),
    ("sortlib", "split-arithmetic", 0x2e25f683a2408d69, 1303, 0xaad269bedf5ee034, 2364),
    ("sortlib", "mixed-mtf-raw-deflate", 0xc85096610ba4be76, 911, 0x311179dfd844cc33, 1674),
    ("sortlib", "mixed-mtf-raw", 0x96c30784eb5d24db, 1410, 0x166d1256f2e412b3, 2072),
    ("sortlib", "mixed-mtf-huffman-deflate", 0x40cf3b66b78332f4, 960, 0x05d99674b38a9b3a, 1748),
    ("sortlib", "mixed-mtf-huffman", 0x12196b481eac9c91, 1230, 0x361f7b6b04a533b1, 1963),
    ("sortlib", "mixed-mtf-arithmetic-deflate", 0x5c5c1d5175d7fb68, 934, 0x4f19f69488bcbeb1, 1639),
    ("sortlib", "mixed-mtf-arithmetic", 0x3a9211a3abf57023, 1156, 0x820a9916a62ef460, 1794),
    ("sortlib", "mixed-raw-deflate", 0x731e3b54dc819252, 940, 0x26e7d6bd1e221bd2, 1748),
    ("sortlib", "mixed-raw", 0xdd6252425e14a34f, 1410, 0xf6c276217d742e40, 2072),
    ("sortlib", "mixed-huffman-deflate", 0x4d2bdf326fa4b8dc, 1019, 0x9aaf7fd8ea644088, 1786),
    ("sortlib", "mixed-huffman", 0xe60483788c7f78ae, 1279, 0xa83b3b9b253460d3, 2018),
    ("sortlib", "mixed-arithmetic-deflate", 0xd5cfaca4bcf4cd24, 1016, 0xea41220c4e4fd15b, 1760),
    ("sortlib", "mixed-arithmetic", 0x4ecfebed8608eb5c, 1231, 0x71a9e427913cc1d8, 1908),
    ("calc", "split-mtf-raw-deflate", 0x6d5c6f67b1003b54, 832, 0x6a81761f88681635, 2095),
    ("calc", "split-mtf-raw", 0xf0d5df7ca6979ed4, 1126, 0x758a8a18fb29cce1, 2147),
    ("calc", "split-mtf-huffman-deflate", 0xd49333c8263c70d8, 861, 0xb5134dbb8773504b, 2166),
    ("calc", "split-mtf-huffman", 0x909973e28a321fad, 992, 0xdf20dbbe90b5d9f6, 2188),
    ("calc", "split-mtf-arithmetic-deflate", 0xb8fb80d937268e33, 811, 0x95a2afec92bafb68, 1990),
    ("calc", "split-mtf-arithmetic", 0xd59d4576bceeb675, 912, 0xa56d79f460c52882, 1960),
    ("calc", "split-raw-deflate", 0xc8348d626035aab5, 839, 0x23dc0ee57e840104, 2114),
    ("calc", "split-raw", 0xf421b9acda3703a7, 1126, 0xaeb57058476901d5, 2147),
    ("calc", "split-huffman-deflate", 0x8500efb2b27693bf, 877, 0x9fb564ba7f401844, 2134),
    ("calc", "split-huffman", 0x595975aa31611483, 1004, 0xea1834b0318b36ef, 2163),
    ("calc", "split-arithmetic-deflate", 0xba38b249a87fd415, 849, 0xdf01ed2f4a31ef2b, 2061),
    ("calc", "split-arithmetic", 0x249fc024e35f011d, 950, 0x0a5d37f841f7b12c, 2029),
    ("calc", "mixed-mtf-raw-deflate", 0x3a140cd1f5d5d0ff, 712, 0xb143c95e1adca2b3, 1598),
    ("calc", "mixed-mtf-raw", 0xa6236003fec23051, 1009, 0xb06bff9948f06c39, 1759),
    ("calc", "mixed-mtf-huffman-deflate", 0xd600eb1d3848a70b, 751, 0x624f324e80749bec, 1620),
    ("calc", "mixed-mtf-huffman", 0x8813cf3d6c3d1442, 902, 0x3afcd7f185db681d, 1711),
    ("calc", "mixed-mtf-arithmetic-deflate", 0x4e662fd3c2953497, 731, 0x9d98e9e39d93a351, 1510),
    ("calc", "mixed-mtf-arithmetic", 0x9c2a18bad7169e66, 843, 0xecc3ae3e28e671a9, 1550),
    ("calc", "mixed-raw-deflate", 0x956789b166afc6bd, 722, 0xc6aa8a2b4ee4e749, 1653),
    ("calc", "mixed-raw", 0x3be244c1ded63f68, 1009, 0x481dda86fc8e248f, 1759),
    ("calc", "mixed-huffman-deflate", 0xb1738354edd866b4, 797, 0x6a3a8cd1ee79849f, 1660),
    ("calc", "mixed-huffman", 0x8f31429137c270a8, 931, 0x843ad6298a0791a6, 1756),
    ("calc", "mixed-arithmetic-deflate", 0x133dca0bcc0fd742, 780, 0xcec23233dba99f64, 1617),
    ("calc", "mixed-arithmetic", 0xad6c58205e113e6a, 890, 0x63ed9cb11656b65a, 1654),
    ("life", "split-mtf-raw-deflate", 0xcfb015effc33ee8f, 764, 0x17e04f3525decf2d, 1530),
    ("life", "split-mtf-raw", 0xc64525fb9e481ced, 1040, 0x049fdb2da0924b5b, 1655),
    ("life", "split-mtf-huffman-deflate", 0x591bd11751cb7d4e, 806, 0x5035336e755a3765, 1575),
    ("life", "split-mtf-huffman", 0xc9816eacb9dcd450, 868, 0xe1e8f3e8a5963da3, 1586),
    ("life", "split-mtf-arithmetic-deflate", 0x35ab97d004dcc152, 750, 0xde67b9bb096bd95d, 1453),
    ("life", "split-mtf-arithmetic", 0x611db38fa7856105, 790, 0x794c414070f68e2c, 1418),
    ("life", "split-raw-deflate", 0x73fbd90d6baf6aca, 784, 0x8d316d9c0620c897, 1560),
    ("life", "split-raw", 0xfcf047d8f7dde3be, 1040, 0x08cb6c6a3389767d, 1655),
    ("life", "split-huffman-deflate", 0xb328397496f7d11a, 833, 0xc715afa1d74432f8, 1574),
    ("life", "split-huffman", 0x608cb92e1e880ff3, 893, 0xd99ff34394738a31, 1579),
    ("life", "split-arithmetic-deflate", 0xb04ca34941d93983, 803, 0xcf227eaa86d6d18e, 1525),
    ("life", "split-arithmetic", 0xb5bffed0e6366bc8, 841, 0x79ede6df17e9f326, 1479),
    ("life", "mixed-mtf-raw-deflate", 0x2c381d95cf54a0d8, 638, 0xa861e71bf6bb1927, 1187),
    ("life", "mixed-mtf-raw", 0x7c33d51025fbfcc4, 923, 0x15d1db8b54e6231b, 1369),
    ("life", "mixed-mtf-huffman-deflate", 0x163f4742c6d88212, 696, 0x476ce768d737684f, 1211),
    ("life", "mixed-mtf-huffman", 0x98858c8ca4555e96, 773, 0xb2af7401a783b44a, 1250),
    ("life", "mixed-mtf-arithmetic-deflate", 0xd3e09b0892b69a3b, 657, 0x36fdfe343d978343, 1130),
    ("life", "mixed-mtf-arithmetic", 0x84fe60723b92ee29, 717, 0x32358d23c84a618e, 1138),
    ("life", "mixed-raw-deflate", 0x1cc8898e0a55d8b8, 679, 0x623600c643a3b2d9, 1228),
    ("life", "mixed-raw", 0x095157624bb551f7, 923, 0xf788bf0334039a63, 1369),
    ("life", "mixed-huffman-deflate", 0x5d59cb865d808e0c, 738, 0xa8b1de5a678089b1, 1244),
    ("life", "mixed-huffman", 0xad5bb16021c01460, 820, 0xa505cbb847b44b7f, 1294),
    ("life", "mixed-arithmetic-deflate", 0x7a5fae5af59e7e85, 725, 0x5b92292e2b62de4a, 1219),
    ("life", "mixed-arithmetic", 0x838410216b508280, 784, 0xc932b898f1d45284, 1223),
    ("hash", "split-mtf-raw-deflate", 0x2ec6cf129f6b68e8, 622, 0xff402de1f3dd7655, 1255),
    ("hash", "split-mtf-raw", 0x4373635fbe587c5b, 737, 0x6e38fd3fbb67edc0, 1257),
    ("hash", "split-mtf-huffman-deflate", 0x3ea67b8925246318, 626, 0x5910d41f924d5235, 1330),
    ("hash", "split-mtf-huffman", 0x75cb0cbd18ca5181, 670, 0xe5298ad5bb0047e7, 1300),
    ("hash", "split-mtf-arithmetic-deflate", 0xcd8922e8eb2c7252, 589, 0x98911bf5b29fa0c1, 1213),
    ("hash", "split-mtf-arithmetic", 0x0ffccaebd7489170, 610, 0xb3229bcd44df9838, 1159),
    ("hash", "split-raw-deflate", 0x99d7043503d7976e, 627, 0x4379f36dced95b22, 1274),
    ("hash", "split-raw", 0x3b49f42496192039, 737, 0x5633e9fb95b33568, 1257),
    ("hash", "split-huffman-deflate", 0x43227d74a3600e18, 642, 0x9e89c5752a578118, 1310),
    ("hash", "split-huffman", 0x27d3d2a7285e10b6, 679, 0x127e91bacd46248c, 1278),
    ("hash", "split-arithmetic-deflate", 0x97ab2959edc555d8, 621, 0xb6fe0325890b01a2, 1252),
    ("hash", "split-arithmetic", 0x611192587fb6e9d4, 642, 0x086cba31f0140b14, 1194),
    ("hash", "mixed-mtf-raw-deflate", 0x1c4bd5b89a3b0902, 516, 0xf3e9c9ce25280723, 924),
    ("hash", "mixed-mtf-raw", 0x04cb4964203d96c5, 653, 0xb3ed8e923befc223, 1001),
    ("hash", "mixed-mtf-huffman-deflate", 0x843d6b5dd0ef9bda, 540, 0x0bc87eb720465802, 949),
    ("hash", "mixed-mtf-huffman", 0x6fed366450b92a20, 598, 0x469a7d445fe24a15, 979),
    ("hash", "mixed-mtf-arithmetic-deflate", 0xbd2b53b4fd8dff51, 516, 0x6780a39be2939769, 887),
    ("hash", "mixed-mtf-arithmetic", 0x27cf745262f497a8, 550, 0xd52e40c4b13024e9, 883),
    ("hash", "mixed-raw-deflate", 0x41f2398dd3627a90, 534, 0x76d335aaf68fed32, 956),
    ("hash", "mixed-raw", 0xa64b0ce17e65877c, 653, 0x63bc96352d7b9bfb, 1001),
    ("hash", "mixed-huffman-deflate", 0x7d247f3f42b3abe7, 565, 0x12494430454dcf03, 985),
    ("hash", "mixed-huffman", 0x872b937ad2221796, 621, 0xcaae3d764f754c53, 1004),
    ("hash", "mixed-arithmetic-deflate", 0x415c9e91109da7c6, 555, 0xa2c0095d9c7e5bb6, 952),
    ("hash", "mixed-arithmetic", 0x0b758ff5f1f53ee9, 589, 0x70d57529dd529d50, 944),
    ("regex", "split-mtf-raw-deflate", 0x09ae25069c68a9a8, 902, 0x5c6d3dca98549ea9, 1896),
    ("regex", "split-mtf-raw", 0x4a2964dee5d9d974, 1247, 0x9eca08611ac6b6c2, 2015),
    ("regex", "split-mtf-huffman-deflate", 0xb5381657bb1c752a, 920, 0xefd7298a271a35a6, 1957),
    ("regex", "split-mtf-huffman", 0xf0396232080e0e10, 1117, 0x51bc2fae1a3e13f1, 2017),
    ("regex", "split-mtf-arithmetic-deflate", 0x9059fd2887a218aa, 866, 0xa85fdcc42dd0663f, 1826),
    ("regex", "split-mtf-arithmetic", 0x645eabdc855c4332, 1037, 0xc7d3fa4feb15db6b, 1829),
    ("regex", "split-raw-deflate", 0x5b7fef0e82e626a4, 919, 0xec7e67cde266ec0b, 1947),
    ("regex", "split-raw", 0xe81111f962ea0975, 1247, 0xb00c59c3afe5735c, 2015),
    ("regex", "split-huffman-deflate", 0x25c8f2c23965e91f, 945, 0xe30bc46c338de84f, 1951),
    ("regex", "split-huffman", 0x5ac2e54f98e33a14, 1136, 0x499acdb7bf01ccae, 2001),
    ("regex", "split-arithmetic-deflate", 0xa4204194a86443c5, 919, 0xf20f30f0163844f8, 1884),
    ("regex", "split-arithmetic", 0x903222302c312af9, 1085, 0x01928779253211e2, 1890),
    ("regex", "mixed-mtf-raw-deflate", 0xa2d4a7be14678190, 758, 0x84a1ee7dad2ea70a, 1470),
    ("regex", "mixed-mtf-raw", 0x4c18cba0e767581a, 1126, 0x272d56f5082a65bf, 1669),
    ("regex", "mixed-mtf-huffman-deflate", 0xc5591c33fd66b6e1, 797, 0x7a66db4011f8066a, 1477),
    ("regex", "mixed-mtf-huffman", 0x3ef26b248aed8414, 1011, 0x473697029461602d, 1597),
    ("regex", "mixed-mtf-arithmetic-deflate", 0x971cdc78b7830939, 770, 0x4b45dc48f56b1c78, 1407),
    ("regex", "mixed-mtf-arithmetic", 0x6d05b85aa6b9c4d2, 957, 0x8c38c2144058bd74, 1473),
    ("regex", "mixed-raw-deflate", 0xd81233b2e0c35ab2, 782, 0xbabc65aec43ed9e3, 1519),
    ("regex", "mixed-raw", 0xfdb5dad118fe4b3e, 1126, 0xc6c81ac3f4109a82, 1669),
    ("regex", "mixed-huffman-deflate", 0x31f70757856d359d, 836, 0xfdccee336733850a, 1532),
    ("regex", "mixed-huffman", 0x354bcfb18d345317, 1042, 0x494908605db2355e, 1636),
    ("regex", "mixed-arithmetic-deflate", 0x9410933842d7a037, 822, 0xeaeb6a873cbe317e, 1492),
    ("regex", "mixed-arithmetic", 0x26ac6b111bb43802, 1005, 0xa3613b2bb0bd665e, 1554),
    ("bignum", "split-mtf-raw-deflate", 0x0f1fb35717d09f4c, 840, 0xd09d44db19a35b40, 2431),
    ("bignum", "split-mtf-raw", 0x0293a09426448972, 1175, 0x8449dc5980b3d490, 2466),
    ("bignum", "split-mtf-huffman-deflate", 0x7e4d14097aa02600, 855, 0x45e1227c5a688215, 2544),
    ("bignum", "split-mtf-huffman", 0x9c1b0509e48ab562, 1016, 0xb816e4ac98c22bc3, 2560),
    ("bignum", "split-mtf-arithmetic-deflate", 0xc1ab194e7e639456, 804, 0xba0bac0a21819bac, 2345),
    ("bignum", "split-mtf-arithmetic", 0xb26aa558f5dba448, 945, 0x05502c307bc25c36, 2299),
    ("bignum", "split-raw-deflate", 0xec9e369bf2b0be45, 835, 0x8c7bef40af826aeb, 2475),
    ("bignum", "split-raw", 0xde7e7c3ca4321ce5, 1175, 0x463213b2c45bda4f, 2466),
    ("bignum", "split-huffman-deflate", 0x8c2278946c0e46c2, 865, 0x2478142df165c1dc, 2510),
    ("bignum", "split-huffman", 0x4d6e1479092156e5, 1025, 0x8788696fc42076dd, 2515),
    ("bignum", "split-arithmetic-deflate", 0xd497044768a45d73, 840, 0x92a72046f1604467, 2416),
    ("bignum", "split-arithmetic", 0xecc4dce63838dff1, 980, 0xe33b20266f4264e7, 2365),
    ("bignum", "mixed-mtf-raw-deflate", 0x22e61096a6e298bd, 722, 0x274ba418628a6ca3, 1778),
    ("bignum", "mixed-mtf-raw", 0x39dfdab35f072975, 1061, 0xcd78432f9c20f516, 1958),
    ("bignum", "mixed-mtf-huffman-deflate", 0x08d8f91c685a8f5a, 745, 0xca62e6e1975e5416, 1824),
    ("bignum", "mixed-mtf-huffman", 0xd47da380ef8954cc, 928, 0xc18734407014f4e1, 1925),
    ("bignum", "mixed-mtf-arithmetic-deflate", 0xed6afd8ebd527fa9, 724, 0x0ab756fef25ec2aa, 1692),
    ("bignum", "mixed-mtf-arithmetic", 0xeafc4191e32495b0, 875, 0xb02c6d19882107e7, 1743),
    ("bignum", "mixed-raw-deflate", 0xe18a8ea271a1626e, 718, 0x9607ac358306d81c, 1826),
    ("bignum", "mixed-raw", 0x9eba8e3d666a22b4, 1061, 0x90de94c01a958aa1, 1958),
    ("bignum", "mixed-huffman-deflate", 0xc9b9a40b4f691f7e, 785, 0x4a2aa601a1e8466a, 1852),
    ("bignum", "mixed-huffman", 0x8d21f8929c2aee12, 957, 0x6d521fc0a8f8c1eb, 1963),
    ("bignum", "mixed-arithmetic-deflate", 0xbb3b6ba89b511359, 775, 0xac8427aaf1205618, 1805),
    ("bignum", "mixed-arithmetic", 0x293d16cf8f324353, 924, 0xed1efb8062563845, 1851),
    ("queens", "split-mtf-raw-deflate", 0xdd90f66c457c3cf0, 514, 0x218acd6422092401, 866),
    ("queens", "split-mtf-raw", 0xde17b2f547fe9a29, 636, 0xbb13cb087aa01263, 935),
    ("queens", "split-mtf-huffman-deflate", 0x48446c01be6db5c1, 529, 0x2a59aeb76d36eb12, 899),
    ("queens", "split-mtf-huffman", 0x6e1b35c23f63d504, 576, 0x78dd363fb39dad1a, 928),
    ("queens", "split-mtf-arithmetic-deflate", 0xccdd9b699646576c, 487, 0x752c6a6ab7645ae2, 827),
    ("queens", "split-mtf-arithmetic", 0x7ebdb4e4c7c4592d, 526, 0xbc1bf011f9cc34d2, 831),
    ("queens", "split-raw-deflate", 0xbefe0f4137ce305d, 504, 0x5628b5c08343954c, 866),
    ("queens", "split-raw", 0xbca975741154611f, 636, 0xf9e55ef29f5f02de, 935),
    ("queens", "split-huffman-deflate", 0xfdea19d4c7cb998f, 528, 0xf11e0051f985a8eb, 895),
    ("queens", "split-huffman", 0xf1ed744b02c4b828, 579, 0x629ab86a620fec76, 920),
    ("queens", "split-arithmetic-deflate", 0xbffc6a1950178d13, 509, 0xeff0c915d3f6acd8, 860),
    ("queens", "split-arithmetic", 0x70902ae95e143088, 546, 0x10b9556bb6059320, 863),
    ("queens", "mixed-mtf-raw-deflate", 0xe526b468ef8d9806, 412, 0x37691b7d12576839, 671),
    ("queens", "mixed-mtf-raw", 0x0dd92cabd1bde59f, 550, 0x9b27e603caf3df71, 769),
    ("queens", "mixed-mtf-huffman-deflate", 0xea407dbe4bc929c5, 432, 0x3aaa4440d0c9624a, 678),
    ("queens", "mixed-mtf-huffman", 0x55e114d7cf293f13, 498, 0x81ec142e2e4d35f6, 736),
    ("queens", "mixed-mtf-arithmetic-deflate", 0xf08e440d17cf5365, 414, 0xaf7cf47773742dda, 638),
    ("queens", "mixed-mtf-arithmetic", 0xcb993a398240bcbd, 465, 0x10b33b4c22c274a5, 671),
    ("queens", "mixed-raw-deflate", 0xda3e73e6982b73fc, 407, 0x13bfbdf749193058, 677),
    ("queens", "mixed-raw", 0x62cd91482cb878cf, 550, 0x1ea13aa57bccc1e9, 769),
    ("queens", "mixed-huffman-deflate", 0x293de879703cb0dc, 441, 0x626705ec9c47feee, 695),
    ("queens", "mixed-huffman", 0x81ab2f51cdd5ccc1, 506, 0x095eafeb3aa6166d, 751),
    ("queens", "mixed-arithmetic-deflate", 0xbad4d1b503eb12ed, 433, 0x473486b586bd9804, 676),
    ("queens", "mixed-arithmetic", 0x2f04d59179546539, 483, 0x4924e4d540b7b207, 710),
];

#[rustfmt::skip]
const SYNTHETIC: &[Row] = &[
    ("synth-1", "split-mtf-raw-deflate", 0x075bc4e22631fd10, 1775, 0x885f26f7e1b162ec, 5323),
    ("synth-1", "split-mtf-raw", 0x11c8086762691f88, 3138, 0x6354c407daa3eec9, 6121),
    ("synth-1", "split-mtf-huffman-deflate", 0xdd88d51d7451709a, 1870, 0x0ba1ef20b645ac1c, 5493),
    ("synth-1", "split-mtf-huffman", 0xdc140b0dcb8e2ddc, 2421, 0xede29f8d77a8a7ca, 5928),
    ("synth-1", "split-mtf-arithmetic-deflate", 0x6e8ab3c2e3bcbf89, 1780, 0xcea9e4f647c0d3e0, 5031),
    ("synth-1", "split-mtf-arithmetic", 0x99a6afb4d5108c45, 2269, 0x08871edd971d25bd, 5236),
    ("synth-1", "split-raw-deflate", 0xe9c0be548e0b46d9, 1760, 0x7779b373e255b34b, 5417),
    ("synth-1", "split-raw", 0x5e69d3fce2810a1a, 3138, 0x3a8bd8434f3ca5f4, 6121),
    ("synth-1", "split-huffman-deflate", 0x6a5ab3c6787d7c3c, 1918, 0xfdaf445658b7c459, 5578),
    ("synth-1", "split-huffman", 0x8ec28023a23c2214, 2491, 0x3391aad90317121c, 5942),
    ("synth-1", "split-arithmetic-deflate", 0x1552e96dd45186f0, 1906, 0xf1b370ca7b792b66, 5363),
    ("synth-1", "split-arithmetic", 0x9f0737b48a7eb667, 2389, 0x2c3ac56750fa04da, 5535),
    ("synth-1", "mixed-mtf-raw-deflate", 0x3796945cd08ab062, 1779, 0xf47b9ff9e3496ed5, 3902),
    ("synth-1", "mixed-mtf-raw", 0x8fa47666f94a989f, 2959, 0x152b2ebcf41848ca, 5060),
    ("synth-1", "mixed-mtf-huffman-deflate", 0xb1f99d772919981e, 1926, 0x8c1a10fc346866ce, 4150),
    ("synth-1", "mixed-mtf-huffman", 0x3e678a826c1b2303, 2492, 0xa32fae4556955b56, 4731),
    ("synth-1", "mixed-mtf-arithmetic-deflate", 0xf6f649849e179970, 1878, 0xf13df1a03fe70660, 3886),
    ("synth-1", "mixed-mtf-arithmetic", 0x1e2e05ac06af7bd4, 2382, 0x9b696d6f165b1ddc, 4245),
    ("synth-1", "mixed-raw-deflate", 0xad90d9ef3666a3bd, 1729, 0x21d493a5d5a6f448, 4047),
    ("synth-1", "mixed-raw", 0x8b83fe6b3ff8aa12, 2959, 0xc21740e44946d0c5, 5060),
    ("synth-1", "mixed-huffman-deflate", 0x919dbc81875c3fca, 1963, 0xa335e55ae644126a, 4320),
    ("synth-1", "mixed-huffman", 0xb6c317946c2b5bb1, 2537, 0xf0f448662405c112, 4930),
    ("synth-1", "mixed-arithmetic-deflate", 0x7131b0e6d3283392, 1961, 0xe9224da1ac5804b3, 4275),
    ("synth-1", "mixed-arithmetic", 0xc2cbab2bfd562926, 2459, 0xa692d8cdf7466877, 4611),
    ("synth-2", "split-mtf-raw-deflate", 0x539dc29dfdf5b105, 1686, 0x13e5c53da97f735a, 5301),
    ("synth-2", "split-mtf-raw", 0x249d62f3ec517e06, 2974, 0xe457139aa0943142, 6055),
    ("synth-2", "split-mtf-huffman-deflate", 0x1c7a5340e7623ebe, 1745, 0xc84ee23adc6ba9e4, 5473),
    ("synth-2", "split-mtf-huffman", 0xe9ef0f392f306448, 2241, 0x1d88629f3bc33bb6, 5865),
    ("synth-2", "split-mtf-arithmetic-deflate", 0x4d930ab3cd873a74, 1665, 0x6f077ec41a98607a, 5030),
    ("synth-2", "split-mtf-arithmetic", 0xa9002f5835c5606f, 2108, 0x53a0e69c3efd6b2b, 5205),
    ("synth-2", "split-raw-deflate", 0x9d59a183e1b2befc, 1685, 0xb6ae96a17cc5367f, 5392),
    ("synth-2", "split-raw", 0xbad061530828a93f, 2974, 0x91647a68f06cb41e, 6055),
    ("synth-2", "split-huffman-deflate", 0x96af5ff524072126, 1805, 0x77ee6e84468692f2, 5521),
    ("synth-2", "split-huffman", 0x3ac9f57271614ae2, 2309, 0x1ab3f47410852f9e, 5869),
    ("synth-2", "split-arithmetic-deflate", 0x9cc1c2673f29219a, 1779, 0xba0a3251a5184915, 5314),
    ("synth-2", "split-arithmetic", 0xb8c645ed4afcc8f5, 2215, 0xcd359f5b7a5765d9, 5471),
    ("synth-2", "mixed-mtf-raw-deflate", 0x2b330c1b72fb4b98, 1714, 0x03b8f94b2c0bed61, 3870),
    ("synth-2", "mixed-mtf-raw", 0xd1ac07ad69cf4079, 2819, 0x43bfc711353a864b, 4980),
    ("synth-2", "mixed-mtf-huffman-deflate", 0xa4798d1753af132c, 1838, 0x754f4af81242b208, 4074),
    ("synth-2", "mixed-mtf-huffman", 0x7be3772445ebe03f, 2353, 0xdd79a0414a6e101a, 4657),
    ("synth-2", "mixed-mtf-arithmetic-deflate", 0x42c7e629862c3471, 1798, 0x64abd63082466d90, 3823),
    ("synth-2", "mixed-mtf-arithmetic", 0x785f0254ea8675c5, 2251, 0xb56ce2bfa9d7ae77, 4179),
    ("synth-2", "mixed-raw-deflate", 0x7ba80445b74a7d2d, 1643, 0x2e7693d1946a9e65, 4026),
    ("synth-2", "mixed-raw", 0xb05e4571e4ad459c, 2819, 0x53e8dedb32fb578a, 4980),
    ("synth-2", "mixed-huffman-deflate", 0xd41920c1d5d3e4ee, 1889, 0x465d8e4067afe407, 4243),
    ("synth-2", "mixed-huffman", 0x63dc359497b498b5, 2391, 0x0aa9ce7a0d72fad5, 4840),
    ("synth-2", "mixed-arithmetic-deflate", 0x3f5c1ebc462f3328, 1869, 0x5677e32dba8be103, 4193),
    ("synth-2", "mixed-arithmetic", 0x10316ad08148322f, 2318, 0xeee6b9993b1ab944, 4528),
    ("synth-3", "split-mtf-raw-deflate", 0xa1bea93b007a27b9, 1771, 0xfb818ea53257e0e9, 5455),
    ("synth-3", "split-mtf-raw", 0x4c3759a6648d8850, 3042, 0x8b034a318139138f, 6241),
    ("synth-3", "split-mtf-huffman-deflate", 0x46c6bc5c3d28d186, 1834, 0x58a907a431afdbb7, 5636),
    ("synth-3", "split-mtf-huffman", 0xccd49fca5dba7ef0, 2306, 0x3cc77ecf1db28fa6, 6060),
    ("synth-3", "split-mtf-arithmetic-deflate", 0xcb950d0db5886b54, 1756, 0x2b9dd0f8fd5765fc, 5168),
    ("synth-3", "split-mtf-arithmetic", 0xb87176659f079581, 2168, 0x3723838deec507be, 5358),
    ("synth-3", "split-raw-deflate", 0x386570161f4a5b59, 1730, 0x8f6a9340a85a73a2, 5552),
    ("synth-3", "split-raw", 0x938c051b0a3d68e5, 3042, 0x8a174226ce69e805, 6241),
    ("synth-3", "split-huffman-deflate", 0xf9a55ccc9542eed1, 1889, 0x4006832a2b227b9b, 5670),
    ("synth-3", "split-huffman", 0x2861616a59936aed, 2367, 0xd4f4b242e77e45d2, 6075),
    ("synth-3", "split-arithmetic-deflate", 0x85d5e2c32b944a8f, 1862, 0x2c4cc76d5635471f, 5495),
    ("synth-3", "split-arithmetic", 0xb0da43fd048a59a1, 2267, 0x47902d1b2f9c4b3c, 5663),
    ("synth-3", "mixed-mtf-raw-deflate", 0xafd383c13c1438b7, 1776, 0x4789c87fcc0b3c8f, 3986),
    ("synth-3", "mixed-mtf-raw", 0x1588584259f0e638, 2874, 0x9a201ef7025358f2, 5156),
    ("synth-3", "mixed-mtf-huffman-deflate", 0xd5e82f2ed398feea, 1903, 0x780c2b3f4c5bd1d4, 4226),
    ("synth-3", "mixed-mtf-huffman", 0x2cafa52a46183faa, 2397, 0xdc99a5ab4cda1b8e, 4832),
    ("synth-3", "mixed-mtf-arithmetic-deflate", 0x0f83dda9e5ab0448, 1867, 0x915465df845d1162, 3960),
    ("synth-3", "mixed-mtf-arithmetic", 0xaeab7034e019f33d, 2292, 0x16121492f1809a06, 4324),
    ("synth-3", "mixed-raw-deflate", 0xf1263d02c86107e5, 1711, 0x4f565d93c543a694, 4149),
    ("synth-3", "mixed-raw", 0xdc888d888b2a9c27, 2874, 0x91be4475ee661927, 5156),
    ("synth-3", "mixed-huffman-deflate", 0xf15c5adfb0442e89, 1953, 0x37f6c145cca0401a, 4408),
    ("synth-3", "mixed-huffman", 0x980813cd289bac77, 2441, 0xa80b1e5aee93191f, 5044),
    ("synth-3", "mixed-arithmetic-deflate", 0x6fe231ff6e2445b8, 1947, 0x2c1d9143b2f5b110, 4367),
    ("synth-3", "mixed-arithmetic", 0xae40f059088ff69e, 2364, 0xe3e99a049baf1976, 4716),
];

#[rustfmt::skip]
const SYNTH_LARGE: Row =
    ("synth-300", "split-mtf-huffman-deflate", 0x6ece172a45577b16, 27485, 0xa48d5bf25837ed89, 143220);

#[test]
fn corpus_images_match_recorded_values_under_every_option_set() {
    let mut actual = Vec::new();
    for b in benchmarks() {
        pin_matrix(b.name, &b.compile().unwrap(), &mut actual);
    }
    check(&actual, CORPUS);
}

#[test]
fn synthetic_images_match_recorded_values_under_every_option_set() {
    let config = SynthConfig {
        functions: 12,
        statements_per_function: 8,
        globals: 4,
    };
    let mut actual = Vec::new();
    for (name, seed) in [("synth-1", 1), ("synth-2", 2), ("synth-3", 3)] {
        let module = compile(&synthetic(seed, config)).unwrap();
        pin_matrix(name, &module, &mut actual);
    }
    check(&actual, SYNTHETIC);
}

#[test]
#[ignore = "300-function module: run with --release --include-ignored"]
fn large_synthetic_module_matches_recorded_value() {
    let src = synthetic(
        0xC0DE,
        SynthConfig {
            functions: 300,
            statements_per_function: 10,
            globals: 12,
        },
    );
    let module = compile(&src).unwrap();
    let actual = pin(
        "synth-300",
        "split-mtf-huffman-deflate",
        &module,
        WireOptions::default(),
    );
    check(&[actual], &[SYNTH_LARGE]);
}
