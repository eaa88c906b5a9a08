//! The interleaved object fill is the per-object fill: whatever the
//! number and sizes of the buffers, `init_fill_all` leaves the bytes and
//! returns the checksums of one `init_fill` per buffer, and both are the
//! serial chain written out below.

use proptest::prelude::*;
use tahoe_realmem::traffic::{init_fill, init_fill_all};

/// The fill as one serial chain: each word, then each tail byte, is the
/// next `mix` of the previous state. Kept here, apart from the library's
/// lane code, so the sequence itself is pinned.
fn serial_fill(buf: &mut [u8], seed: u64) -> u64 {
    let mix = |mut z: u64| {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let (mut state, mut sum) = (seed, 0u64);
    let (words, tail) = buf.as_chunks_mut::<8>();
    for w in words {
        state = mix(state);
        *w = state.to_le_bytes();
        sum = sum.wrapping_add(state);
    }
    for (i, b) in tail.iter_mut().enumerate() {
        state = mix(state);
        *b = (state >> (8 * i)) as u8;
        sum = sum.wrapping_add(*b as u64);
    }
    sum
}

/// Object `i`'s seed in a set seeded by `base`.
fn object_seed(base: u64, i: usize) -> u64 {
    base ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A buffer length up to 5000 bytes; one in four is 0–8 bytes (empty,
/// a tail alone, exactly one word).
fn buffer_len() -> impl Strategy<Value = usize> {
    (0usize..4, 0usize..5001).prop_map(|(short, n)| if short == 0 { n % 9 } else { n })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 0–40 buffers of 0–5000 bytes: empty buffers, lengths that are not
    /// a multiple of 8, fewer buffers than lanes and lanes that run out
    /// at different words.
    #[test]
    fn interleaved_fill_equals_one_fill_per_buffer(
        sizes in proptest::collection::vec(buffer_len(), 0..41),
        base in 0u64..u64::MAX,
        stale in 0u8..u8::MAX,
    ) {
        let fresh = || sizes.iter().map(|&n| vec![stale; n]).collect::<Vec<Vec<u8>>>();
        let (mut expect, mut one, mut all) = (fresh(), fresh(), fresh());
        let expect_sums: Vec<u64> = expect
            .iter_mut()
            .enumerate()
            .map(|(i, buf)| serial_fill(buf, object_seed(base, i)))
            .collect();
        let one_sums: Vec<u64> = one
            .iter_mut()
            .enumerate()
            .map(|(i, buf)| init_fill(buf, object_seed(base, i)))
            .collect();
        let mut views: Vec<&mut [u8]> = all.iter_mut().map(Vec::as_mut_slice).collect();
        let all_sums = init_fill_all(&mut views, |i| object_seed(base, i));

        prop_assert_eq!(&one_sums, &expect_sums);
        prop_assert_eq!(&all_sums, &expect_sums);
        for (i, e) in expect.iter().enumerate() {
            prop_assert!(one[i] == *e, "init_fill: buffer {} ({} bytes) differs", i, e.len());
            prop_assert!(all[i] == *e, "init_fill_all: buffer {} ({} bytes) differs", i, e.len());
        }
    }
}
