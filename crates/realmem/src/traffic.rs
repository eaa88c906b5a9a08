//! Deterministic real-memory traffic synthesis.
//!
//! Measured mode must *touch* the bytes the simulator only reasons
//! about. These kernels turn a task's declared access into physical
//! traffic over any `[u8]` buffer — arena-backed or a plain `Vec` — and
//! return a checksum that depends on every byte read and deterministically
//! determines every byte written. Running the same kernel sequence over
//! two substrates therefore yields bit-for-bit identical buffers and
//! checksums, which is exactly the equality the measured-mode acceptance
//! test checks. Everything is `black_box`-protected so the traffic
//! cannot be elided under optimization.
//!
//! [`run_access`] picks the kernel from the access's shape alone: loads
//! and stores → [`stream_update`], stores only → [`stream_write`],
//! anything else → [`stream_read`]. A pointer-chasing access
//! (`read_chasing`) is therefore a streaming read here; its latency
//! shows up in the injected per-tier delay, not in a dependent walk.
//!
//! Object initialization ([`init_fill_all`]) is the one place several
//! buffers are filled back to back, so it interleaves their fill
//! chains; every byte and checksum is that of one [`init_fill`] each.

use std::hint::black_box;

/// Word the kernels traffic in. 8 B keeps bandwidth honest without
/// SIMD-dependent behaviour.
const WORD: usize = 8;

/// Split a buffer into its aligned `u64` words (via chunks, no unsafe).
#[inline]
fn words(buf: &[u8]) -> impl Iterator<Item = u64> + '_ {
    buf.chunks_exact(WORD)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
}

/// A cheap splittable PRNG step (splitmix64): deterministic fills
/// without an RNG dependency.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fill `buf` deterministically from `seed` (object initialization).
/// Returns a checksum of the written contents.
///
/// Each word is the next step of one chain of `mix` calls, so a fill
/// is latency-bound; [`init_fill_all`] overlaps many objects' chains.
pub fn init_fill(buf: &mut [u8], seed: u64) -> u64 {
    let mut sum = [0];
    fill_chains(&mut [buf], |_| seed, &mut sum);
    black_box(sum[0])
}

/// [`init_fill`] every buffer, object `i` from `seed(i)`, keeping four
/// objects' chains in flight at once. Returns each buffer's
/// checksum, in buffer order. Bytes and checksums are exactly those of
/// one [`init_fill`] per buffer.
pub fn init_fill_all(bufs: &mut [&mut [u8]], seed: impl Fn(usize) -> u64) -> Vec<u64> {
    let mut sums = vec![0; bufs.len()];
    fill_chains(bufs, seed, &mut sums);
    black_box(sums)
}

/// Independent fill chains [`init_fill_all`] interleaves. One chain
/// waits on its multiplies; four overlap them. Eight ran faster on warm
/// buffers (`benches/fill.rs` in `tahoe-bench`) but no faster in a
/// measured run's fill into freshly faulted arena pages.
const LANES: usize = 4;

/// One object's fill in progress.
#[derive(Default)]
struct Chain<'a> {
    object: usize,
    /// Whole words not yet written.
    words: &'a mut [[u8; WORD]],
    /// The bytes past the last whole word.
    tail: &'a mut [u8],
    state: u64,
    sum: u64,
}

impl Chain<'_> {
    /// Write the byte tail, one [`mix`] per byte, once the words are done.
    fn finish(&mut self) -> u64 {
        for (i, b) in self.tail.iter_mut().enumerate() {
            self.state = mix(self.state);
            *b = (self.state >> (8 * (i % 8))) as u8;
            self.sum = self.sum.wrapping_add(*b as u64);
        }
        self.sum
    }
}

/// The one fill loop: each lane takes the next object when its current
/// one ends, and the live lanes step together, one word each, until
/// the shortest runs out of words.
fn fill_chains(bufs: &mut [&mut [u8]], seed: impl Fn(usize) -> u64, sums: &mut [u64]) {
    let mut next = bufs.iter_mut().enumerate();
    let mut lanes: [Chain<'_>; LANES] = Default::default();
    let mut live = 0;
    loop {
        while live < LANES {
            let Some((object, buf)) = next.next() else {
                break;
            };
            let (words, tail) = buf.as_chunks_mut::<WORD>();
            lanes[live] = Chain {
                object,
                words,
                tail,
                state: seed(object),
                sum: 0,
            };
            live += 1;
        }
        let Some(n) = lanes[..live].iter().map(|c| c.words.len()).min() else {
            return;
        };
        // One arm per live count up to `LANES`, so each chain's state
        // stays in a register.
        match live {
            1 => step::<1>(&mut lanes[..1], n),
            2 => step::<2>(&mut lanes[..2], n),
            3 => step::<3>(&mut lanes[..3], n),
            4 => step::<4>(&mut lanes[..4], n),
            _ => unreachable!("at most LANES live chains"),
        }
        let mut l = 0;
        while l < live {
            if lanes[l].words.is_empty() {
                sums[lanes[l].object] = lanes[l].finish();
                live -= 1;
                lanes.swap(l, live);
            } else {
                l += 1;
            }
        }
    }
}

/// Advance `K` chains by `n` words each.
#[inline(always)]
fn step<const K: usize>(lanes: &mut [Chain<'_>], n: usize) {
    let lanes: &mut [Chain<'_>; K] = lanes.try_into().expect("K live chains");
    let mut state = lanes.each_ref().map(|c| c.state);
    let mut sum = lanes.each_ref().map(|c| c.sum);
    let mut words = lanes.each_mut().map(|c| {
        let (head, rest) = std::mem::take(&mut c.words).split_at_mut(n);
        c.words = rest;
        head
    });
    for i in 0..n {
        for ((state, sum), words) in state.iter_mut().zip(&mut sum).zip(&mut words) {
            *state = mix(*state);
            words[i] = state.to_le_bytes();
            *sum = sum.wrapping_add(*state);
        }
    }
    for (c, (state, sum)) in lanes.iter_mut().zip(state.into_iter().zip(sum)) {
        c.state = state;
        c.sum = sum;
    }
}

/// Sequentially read the whole buffer (streaming loads). Returns the
/// word sum, so the reads cannot be dead-code-eliminated.
pub fn stream_read(buf: &[u8]) -> u64 {
    let mut sum = 0u64;
    for w in words(buf) {
        sum = sum.wrapping_add(w);
    }
    let tail_start = buf.len() - buf.len() % WORD;
    for &b in &buf[tail_start..] {
        sum = sum.wrapping_add(b as u64);
    }
    black_box(sum)
}

/// Sequentially overwrite the buffer from `seed` (streaming stores).
/// Identical to [`init_fill`] but named for its role in task execution.
pub fn stream_write(buf: &mut [u8], seed: u64) -> u64 {
    init_fill(buf, seed)
}

/// Read-modify-write pass: every word is read, mixed with `seed`, and
/// written back. The result is still a pure function of the prior
/// contents and `seed`.
pub fn stream_update(buf: &mut [u8], seed: u64) -> u64 {
    let mut sum = 0u64;
    for chunk in buf.chunks_exact_mut(WORD) {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
        let new = mix(w ^ seed);
        chunk.copy_from_slice(&new.to_le_bytes());
        sum = sum.wrapping_add(new);
    }
    let tail_start = buf.len() - buf.len() % WORD;
    for &mut ref mut b in &mut buf[tail_start..] {
        let new = mix(*b as u64 ^ seed) as u8;
        *b = new;
        sum = sum.wrapping_add(new as u64);
    }
    black_box(sum)
}

/// Execute one declared access as physical traffic. `loads`/`stores`
/// (cache-line counts from the task's `AccessProfile`) decide the kind
/// of traffic; the byte volume is the buffer itself, walked once per
/// call. Returns the checksum.
pub fn run_access(buf: &mut [u8], loads: u64, stores: u64, seed: u64) -> u64 {
    match (loads > 0, stores > 0) {
        (true, true) => stream_update(buf, seed),
        (false, true) => stream_write(buf, seed),
        // Pure reads and the degenerate no-traffic case both leave the
        // buffer untouched; a read still sums it.
        _ => stream_read(buf),
    }
}

/// [`run_access`] through a raw pointer, for the parallel measured path.
///
/// Task-graph dependences give writers exclusive access, but concurrent
/// *readers* of the same object are legal and common; materializing a
/// `&mut [u8]` per reader (as `run_access` requires) would create
/// aliasing exclusive references. This variant only forms a `&mut` for
/// the mutating kernels and hands pure reads a shared slice.
///
/// # Safety
/// `[ptr, ptr+len)` must be valid for reads (and, when `stores > 0`, for
/// exclusive writes — the caller's dependence tracking must guarantee no
/// concurrent access of any kind to a written object).
pub unsafe fn run_access_ptr(ptr: *mut u8, len: usize, loads: u64, stores: u64, seed: u64) -> u64 {
    if stores > 0 {
        // SAFETY: the caller guarantees exclusive access for writes, so
        // the `&mut` view aliases nothing for its whole lifetime.
        run_access(
            unsafe { std::slice::from_raw_parts_mut(ptr, len) },
            loads,
            stores,
            seed,
        )
    } else {
        // SAFETY: shared view; the caller guarantees read validity and no
        // concurrent writer (writers are exclusive by dependence order).
        stream_read(unsafe { std::slice::from_raw_parts(ptr, len) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_deterministic_across_buffers() {
        let mut a = vec![0u8; 1000];
        let mut b = vec![0xFFu8; 1000];
        let ca = init_fill(&mut a, 42);
        let cb = init_fill(&mut b, 42);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        let cc = init_fill(&mut b, 43);
        assert_ne!(cc, ca);
    }

    #[test]
    fn read_checksum_matches_contents() {
        let mut a = vec![0u8; 4096];
        init_fill(&mut a, 7);
        assert_eq!(stream_read(&a), stream_read(&a.clone()));
        a[100] ^= 1;
        assert_ne!(stream_read(&a), {
            a[100] ^= 1;
            stream_read(&a)
        });
    }

    #[test]
    fn update_is_a_pure_function_of_state_and_seed() {
        let mut a = vec![0u8; 512];
        let mut b = vec![0u8; 512];
        init_fill(&mut a, 1);
        init_fill(&mut b, 1);
        let ca = stream_update(&mut a, 99);
        let cb = stream_update(&mut b, 99);
        assert_eq!(a, b);
        assert_eq!(ca, cb);
    }

    #[test]
    fn unaligned_tails_are_covered() {
        // 1003 % 8 != 0: the tail paths must still be deterministic.
        let mut a = vec![0u8; 1003];
        let mut b = vec![0u8; 1003];
        assert_eq!(init_fill(&mut a, 9), init_fill(&mut b, 9));
        assert_eq!(a, b);
        assert_eq!(stream_update(&mut a, 2), stream_update(&mut b, 2));
        assert_eq!(a, b);
        assert_eq!(stream_read(&a), stream_read(&b));
    }

    #[test]
    fn run_access_dispatches_on_profile_shape() {
        let mut a = vec![0u8; 256];
        init_fill(&mut a, 1);
        let ro = a.clone();
        assert_eq!(run_access(&mut a, 10, 0, 0), stream_read(&ro));
        assert_eq!(a, ro, "pure loads must not mutate");
        let mut w = ro.clone();
        let mut u = ro.clone();
        run_access(&mut w, 0, 10, 77);
        run_access(&mut u, 10, 10, 77);
        assert_ne!(w, ro);
        assert_ne!(u, ro);
        assert_ne!(w, u, "write and update produce different contents");
    }
}
