//! Property tests: compression must be lossless on arbitrary inputs.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = dude_compress::compress(&data);
        let d = dude_compress::decompress(&c).unwrap();
        prop_assert_eq!(d, data);
    }

    #[test]
    fn roundtrip_skewed_words(words in proptest::collection::vec(0u64..32, 0..1024)) {
        // Word streams drawn from a small alphabet — redo-log-like input.
        let data: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let c = dude_compress::compress(&data);
        prop_assert_eq!(dude_compress::decompress(&c).unwrap(), data);
    }

    #[test]
    fn a_reused_compressor_matches_the_one_shot(
        inputs in proptest::collection::vec(proptest::collection::vec(0u8..8, 0..2048), 1..8),
    ) {
        // Small-alphabet blocks, so every block finds matches in the table
        // the blocks before it left behind.
        let mut lz = dude_compress::Compressor::default();
        let mut out = Vec::new();
        for data in &inputs {
            lz.compress_into(data, &mut out);
            prop_assert_eq!(&out, &dude_compress::compress(data));
        }
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Must return an error or some bytes, never panic.
        let _ = dude_compress::decompress(&data);
    }

    #[test]
    fn truncation_never_panics(data in proptest::collection::vec(any::<u8>(), 1..1024), cut_ppm in 0u32..1_000_000) {
        let c = dude_compress::compress(&data);
        let cut = (c.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
        let _ = dude_compress::decompress(&c[..cut]);
    }
}
