//! The throttled inter-tier copy engine.
//!
//! A migration on real NVM hardware is an ordinary `memcpy` that runs at
//! the *slower* device's bandwidth plus a device-access latency. The
//! engine reproduces that on plain DRAM: the copy proceeds in bounded
//! chunks, and after each chunk the engine waits until wall time catches
//! up with where the modelled copy would be — injected startup latency
//! plus bytes-so-far over the modelled copy bandwidth. It waits by
//! sleeping, so the helper thread holds a core only while it copies:
//! the deadline is cumulative, the next chunk absorbs an oversleep, and
//! only the tail of the last chunk is spun so the copy ends on its
//! modelled time. Chunking keeps
//! the pacing error bounded regardless of object size and mirrors how
//! the paper's helper thread copies (it must yield periodically to honor
//! cancellation and pinning).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use tahoe_hms::CopyOutcome;

use crate::throttle::{pace_until, sleep_toward, SPIN_TAIL_NS};

/// Copy-engine configuration, derived from the platform's tier specs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyConfig {
    /// Modelled copy bandwidth, GB/s (== bytes/ns). The migration runs
    /// no faster than this end to end.
    pub bandwidth_gbps: f64,
    /// Injected one-time startup latency per migration, ns (device
    /// access latency of the slower endpoint).
    pub latency_ns: f64,
    /// Copy chunk size, bytes.
    pub chunk_bytes: u64,
}

impl CopyConfig {
    /// An unthrottled engine (DRAM-to-DRAM speed), still chunked.
    pub fn unthrottled() -> Self {
        CopyConfig {
            bandwidth_gbps: f64::INFINITY,
            latency_ns: 0.0,
            chunk_bytes: DEFAULT_CHUNK,
        }
    }
}

/// Default chunk size: 256 KiB — small enough that pacing converges
/// quickly, large enough that `memcpy` dominates loop overhead.
pub const DEFAULT_CHUNK: u64 = 256 << 10;

/// Execute one throttled copy of `len` bytes from `src` to `dst`.
///
/// # Safety
/// `src` must be valid for reads of `len` bytes, `dst` for writes of
/// `len` bytes, and the two ranges must not overlap.
pub unsafe fn throttled_copy(
    src: *const u8,
    dst: *mut u8,
    len: u64,
    cfg: &CopyConfig,
) -> CopyOutcome {
    let never = AtomicBool::new(false);
    // SAFETY: forwards the caller's contract verbatim.
    let (out, completed) = unsafe { throttled_copy_cancellable(src, dst, len, cfg, &never) };
    debug_assert!(completed, "uncancellable copy must complete");
    out
}

/// [`throttled_copy`] with cooperative cancellation: the flag is checked
/// between chunks, so a cancel takes effect within one chunk's worth of
/// copying (the background migration engine aborts its in-flight move
/// when the runtime shuts down mid-copy).
///
/// Returns the outcome (with `bytes` = bytes actually copied) and whether
/// the copy ran to completion.
///
/// # Safety
/// Same contract as [`throttled_copy`].
pub unsafe fn throttled_copy_cancellable(
    src: *const u8,
    dst: *mut u8,
    len: u64,
    cfg: &CopyConfig,
    cancel: &AtomicBool,
) -> (CopyOutcome, bool) {
    // SAFETY: forwards the caller's contract verbatim.
    unsafe { throttled_copy_observed(src, dst, len, cfg, cancel, &mut |_| {}) }
}

/// [`throttled_copy_cancellable`] with a per-chunk observer: `on_chunk`
/// receives the wall-clock ns each chunk took (memcpy + pacing), which
/// the background migrator feeds into the flight recorder's
/// `mig_chunk_ns` histogram. The observer runs outside any lock and must
/// be cheap (two atomic adds in the recorder case).
///
/// # Safety
/// Same contract as [`throttled_copy`].
pub unsafe fn throttled_copy_observed(
    src: *const u8,
    dst: *mut u8,
    len: u64,
    cfg: &CopyConfig,
    cancel: &AtomicBool,
    on_chunk: &mut dyn FnMut(f64),
) -> (CopyOutcome, bool) {
    let start = Instant::now();
    let chunk = cfg.chunk_bytes.max(1);
    let mut copied = 0u64;
    let mut chunks = 0u32;
    let mut throttle_ns = 0.0;
    while copied < len {
        if cancel.load(Ordering::Relaxed) {
            return (
                CopyOutcome {
                    bytes: copied,
                    wall_ns: start.elapsed().as_nanos() as f64,
                    throttle_ns,
                    chunks,
                },
                false,
            );
        }
        let chunk_t0 = Instant::now();
        let n = chunk.min(len - copied);
        // SAFETY: `copied + n <= len`, so both ranges stay inside the
        // caller-guaranteed `len`-byte regions, which do not overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.add(copied as usize),
                dst.add(copied as usize),
                n as usize,
            );
        }
        copied += n;
        chunks += 1;
        // Where should the modelled copy be by now?
        if cfg.bandwidth_gbps.is_finite() || cfg.latency_ns > 0.0 {
            let modelled = cfg.latency_ns
                + if cfg.bandwidth_gbps.is_finite() {
                    copied as f64 / cfg.bandwidth_gbps
                } else {
                    0.0
                };
            throttle_ns += if copied < len {
                sleep_toward(start, modelled)
            } else {
                sleep_toward(start, modelled - SPIN_TAIL_NS) + pace_until(start, modelled)
            };
        }
        on_chunk(chunk_t0.elapsed().as_nanos() as f64);
    }
    (
        CopyOutcome {
            bytes: len,
            wall_ns: start.elapsed().as_nanos() as f64,
            throttle_ns,
            chunks,
        },
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(len: usize, fill: u8) -> Vec<u8> {
        vec![fill; len]
    }

    #[test]
    fn copy_moves_the_bytes_exactly() {
        let src: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut dst = buf(src.len(), 0);
        let out = unsafe {
            throttled_copy(
                src.as_ptr(),
                dst.as_mut_ptr(),
                src.len() as u64,
                &CopyConfig::unthrottled(),
            )
        };
        assert_eq!(dst, src);
        assert_eq!(out.bytes, src.len() as u64);
        assert_eq!(out.chunks, 1); // 100 kB < 256 kB chunk
    }

    #[test]
    fn chunking_covers_the_tail() {
        let src = buf(10_000, 7);
        let mut dst = buf(10_000, 0);
        let cfg = CopyConfig {
            bandwidth_gbps: f64::INFINITY,
            latency_ns: 0.0,
            chunk_bytes: 4096,
        };
        let out = unsafe { throttled_copy(src.as_ptr(), dst.as_mut_ptr(), 10_000, &cfg) };
        assert_eq!(out.chunks, 3); // 4096 + 4096 + 1808
        assert_eq!(dst, src);
    }

    #[test]
    fn throttled_copy_takes_at_least_modelled_time() {
        let len = 1u64 << 20; // 1 MiB
        let src = buf(len as usize, 3);
        let mut dst = buf(len as usize, 0);
        // 0.25 GB/s => 1 MiB should take >= ~4.2 ms; latency adds 50 µs.
        // The modelled time is deliberately huge next to a real memcpy
        // so only a multi-ms OS preemption could make throttling
        // unnecessary — and a few attempts absorb even that.
        let cfg = CopyConfig {
            bandwidth_gbps: 0.25,
            latency_ns: 50_000.0,
            chunk_bytes: 256 << 10,
        };
        let modelled = cfg.latency_ns + len as f64 / cfg.bandwidth_gbps;
        let mut throttled = false;
        for _ in 0..3 {
            let out = unsafe { throttled_copy(src.as_ptr(), dst.as_mut_ptr(), len, &cfg) };
            assert!(
                out.wall_ns >= modelled,
                "wall {} < modelled {}",
                out.wall_ns,
                modelled
            );
            assert_eq!(dst, src);
            if out.throttle_ns > 0.0 {
                throttled = true;
                break;
            }
        }
        assert!(throttled, "a slow modelled copy must throttle");
    }

    #[test]
    fn cancelled_copy_stops_at_a_chunk_boundary() {
        let src = buf(64 << 10, 5);
        let mut dst = buf(64 << 10, 0);
        let cfg = CopyConfig {
            bandwidth_gbps: f64::INFINITY,
            latency_ns: 0.0,
            chunk_bytes: 4096,
        };
        // Pre-set cancel: not a single chunk may be copied.
        let cancel = AtomicBool::new(true);
        let (out, completed) = unsafe {
            throttled_copy_cancellable(src.as_ptr(), dst.as_mut_ptr(), 64 << 10, &cfg, &cancel)
        };
        assert!(!completed);
        assert_eq!(out.bytes, 0);
        assert_eq!(out.chunks, 0);
        assert!(dst.iter().all(|&b| b == 0));
        // Unset: completes and reports every byte.
        cancel.store(false, Ordering::Relaxed);
        let (out, completed) = unsafe {
            throttled_copy_cancellable(src.as_ptr(), dst.as_mut_ptr(), 64 << 10, &cfg, &cancel)
        };
        assert!(completed);
        assert_eq!(out.bytes, 64 << 10);
        assert_eq!(dst, src);
    }

    #[test]
    fn observer_sees_one_callback_per_chunk() {
        let src = buf(10_000, 7);
        let mut dst = buf(10_000, 0);
        let cfg = CopyConfig {
            bandwidth_gbps: f64::INFINITY,
            latency_ns: 0.0,
            chunk_bytes: 4096,
        };
        let mut samples = Vec::new();
        let cancel = AtomicBool::new(false);
        let (out, completed) = unsafe {
            throttled_copy_observed(
                src.as_ptr(),
                dst.as_mut_ptr(),
                10_000,
                &cfg,
                &cancel,
                &mut |ns| samples.push(ns),
            )
        };
        assert!(completed);
        assert_eq!(samples.len() as u32, out.chunks);
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|&ns| ns >= 0.0));
        assert_eq!(dst, src);
    }

    #[test]
    fn faster_config_is_not_slower() {
        let len = 1u64 << 19;
        let src = buf(len as usize, 9);
        let mut dst = buf(len as usize, 0);
        let slow = CopyConfig {
            bandwidth_gbps: 1.0,
            latency_ns: 0.0,
            chunk_bytes: DEFAULT_CHUNK,
        };
        let t_slow = unsafe { throttled_copy(src.as_ptr(), dst.as_mut_ptr(), len, &slow) }.wall_ns;
        let t_fast = unsafe {
            throttled_copy(
                src.as_ptr(),
                dst.as_mut_ptr(),
                len,
                &CopyConfig::unthrottled(),
            )
        }
        .wall_ns;
        // The slow engine is paced to >= len/1.0 ns; the fast one is not.
        assert!(t_slow >= len as f64);
        assert!(t_fast < t_slow);
    }
}
