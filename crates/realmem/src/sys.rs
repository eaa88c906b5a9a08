//! Minimal raw bindings to the handful of POSIX/Linux calls the real
//! backend needs.
//!
//! The build environment has no `libc` crate, so the declarations live
//! here as direct `extern "C"` items — `std` already links the C
//! library, so the symbols resolve without any extra linkage. Only what
//! the arenas and the NUMA layer use is declared; everything is gated to
//! Unix and falls back to heap allocation elsewhere.

#![allow(non_camel_case_types)]

/// Pointer-sized signed integer, the C `long` on LP64 Linux.
pub type c_long = i64;

#[cfg(unix)]
mod ffi {
    use super::c_long;

    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_FAILED: *mut core::ffi::c_void = usize::MAX as *mut core::ffi::c_void;

    pub const MADV_DONTNEED: i32 = 4;
    pub const MADV_HUGEPAGE: i32 = 14;

    pub const _SC_PAGESIZE: i32 = 30;

    /// `struct iovec`: one range of a vectored call.
    #[repr(C)]
    pub struct IoVec {
        pub base: *mut core::ffi::c_void,
        pub len: usize,
    }

    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, length: usize) -> i32;
        pub fn madvise(addr: *mut core::ffi::c_void, length: usize, advice: i32) -> i32;
        pub fn sysconf(name: i32) -> c_long;
        pub fn syscall(num: c_long, ...) -> c_long;
    }
}

/// The transparent-huge-page size on x86-64 and 4 KiB-granule aarch64:
/// the alignment an arena's base needs for its first page to be huge.
pub const HUGE_PAGE: usize = 2 << 20;

/// The kernel's transparent-huge-page mode, the bracketed word of
/// `/sys/kernel/mm/transparent_hugepage/enabled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThpMode {
    /// Every anonymous mapping may get huge pages.
    Always,
    /// Only mappings advised by [`advise_huge_pages`] get huge pages.
    Madvise,
    /// No mapping gets huge pages; the advice is accepted and ignored.
    Never,
    /// No THP support visible (non-Linux, or a kernel built without it).
    Unavailable,
}

impl ThpMode {
    /// The mode's sysfs word (`"unavailable"` when there is none).
    pub fn label(self) -> &'static str {
        match self {
            ThpMode::Always => "always",
            ThpMode::Madvise => "madvise",
            ThpMode::Never => "never",
            ThpMode::Unavailable => "unavailable",
        }
    }

    /// Whether [`advise_huge_pages`] can give a mapping huge pages
    /// under this mode.
    pub fn honours_advice(self) -> bool {
        matches!(self, ThpMode::Always | ThpMode::Madvise)
    }
}

/// The host's THP mode, read once per process.
pub fn thp_mode() -> ThpMode {
    static MODE: std::sync::OnceLock<ThpMode> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| {
        let text = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        let chosen = text.ok().and_then(|t| {
            let open = t.find('[')?;
            let close = open + t[open..].find(']')?;
            Some(t[open + 1..close].to_string())
        });
        match chosen.as_deref() {
            Some("always") => ThpMode::Always,
            Some("madvise") => ThpMode::Madvise,
            Some("never") => ThpMode::Never,
            _ => ThpMode::Unavailable,
        }
    })
}

/// The system page size in bytes (4096 when it cannot be queried).
pub fn page_size() -> u64 {
    #[cfg(unix)]
    {
        // SAFETY: sysconf takes no pointers and cannot fault.
        let ps = unsafe { ffi::sysconf(ffi::_SC_PAGESIZE) };
        if ps > 0 {
            return ps as u64;
        }
    }
    4096
}

/// An anonymous private mapping (or, off Unix, a leaked heap block that
/// the same `unmap` call releases).
#[derive(Debug)]
pub struct Mapping {
    ptr: *mut u8,
    len: usize,
    #[cfg(not(unix))]
    layout: std::alloc::Layout,
}

// SAFETY: the mapping is plain anonymous memory owned exclusively by
// this struct; ownership semantics are those of a `Vec<u8>` buffer, so
// moving it to another thread is sound.
unsafe impl Send for Mapping {}

impl Mapping {
    /// Base address of the mapping.
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a successful map).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` (and off Unix, `layout`) are exactly what
        // `map_anonymous` obtained; Drop runs once, so no double free.
        #[cfg(unix)]
        unsafe {
            ffi::munmap(self.ptr.cast(), self.len);
        }
        #[cfg(not(unix))]
        unsafe {
            std::alloc::dealloc(self.ptr, self.layout);
        }
    }
}

/// Map `len` bytes of zeroed, page-aligned anonymous memory.
pub fn map_anonymous(len: usize) -> Result<Mapping, String> {
    map_aligned(len, page_size() as usize)
}

/// Map `len` bytes (rounded up to whole pages) of zeroed anonymous
/// memory whose base is a multiple of `align`, a power of two.
///
/// Kernels before 6.7 place anonymous mappings at any page boundary, so
/// an alignment above the page size over-maps by `align` and unmaps the
/// slack on both sides.
pub fn map_aligned(len: usize, align: usize) -> Result<Mapping, String> {
    if len == 0 {
        return Err("cannot map zero bytes".to_string());
    }
    if !align.is_power_of_two() {
        return Err(format!("alignment {align} is not a power of two"));
    }
    let ps = page_size() as usize;
    let len = len.div_ceil(ps) * ps;
    #[cfg(unix)]
    {
        let slack = if align > ps { align } else { 0 };
        let padded = len
            .checked_add(slack)
            .ok_or_else(|| format!("mapping of {len} B overflows"))?;
        // SAFETY: anonymous private mapping with a null hint — no file
        // descriptor, no existing memory touched; failure is checked.
        let ptr = unsafe {
            ffi::mmap(
                core::ptr::null_mut(),
                padded,
                ffi::PROT_READ | ffi::PROT_WRITE,
                ffi::MAP_PRIVATE | ffi::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if ptr == ffi::MAP_FAILED {
            return Err(format!(
                "mmap of {padded} B failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        let raw = ptr as usize;
        let base = raw.next_multiple_of(align.max(ps));
        let (head, tail) = (base - raw, padded - (base - raw) - len);
        // SAFETY: `[raw, base)` and `[base + len, raw + padded)` are
        // whole pages of the mapping just made (every bound is a page
        // multiple), outside the range handed out, and nothing has
        // touched them.
        unsafe {
            if head > 0 {
                ffi::munmap(ptr, head);
            }
            if tail > 0 {
                ffi::munmap((base + len) as *mut core::ffi::c_void, tail);
            }
        }
        Ok(Mapping {
            ptr: base as *mut u8,
            len,
        })
    }
    #[cfg(not(unix))]
    {
        let layout =
            std::alloc::Layout::from_size_align(len, align.max(ps)).map_err(|e| e.to_string())?;
        // SAFETY: `layout` has nonzero size (len == 0 rejected above).
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        if ptr.is_null() {
            return Err(format!("allocation of {len} B failed"));
        }
        Ok(Mapping { ptr, len, layout })
    }
}

/// Advise the whole of `mapping` `MADV_HUGEPAGE`: back it with
/// transparent huge pages where the kernel can. Returns whether the
/// kernel accepted the advice.
pub fn advise_huge_pages(mapping: &Mapping) -> bool {
    #[cfg(unix)]
    {
        // SAFETY: the range is exactly the mapping; madvise never writes.
        unsafe { ffi::madvise(mapping.ptr.cast(), mapping.len, ffi::MADV_HUGEPAGE) == 0 }
    }
    #[cfg(not(unix))]
    {
        let _ = mapping;
        false
    }
}

/// `UIO_MAXIOV`: the most ranges one vectored call takes.
pub const MAX_IOV: usize = 1024;

/// How [`release`] hands a batch of ranges to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleasePath {
    /// One `process_madvise` for the whole batch until the kernel
    /// refuses one, then one `madvise` per range.
    Batched,
    /// One `madvise` per range.
    PerRange,
}

/// Set once the kernel refuses a batched release (`ENOSYS`, `EINVAL`,
/// `EPERM`, or a short count): every later batch goes range by range.
#[cfg(target_os = "linux")]
static BATCH_REFUSED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// A pidfd of this process for the batched call, opened once and kept
/// for the process's lifetime; `None` once the kernel has refused a
/// batch (kernels before about 6.13 refuse `MADV_DONTNEED` there).
#[cfg(target_os = "linux")]
fn batch_pidfd() -> Option<c_long> {
    static PIDFD: std::sync::OnceLock<Option<c_long>> = std::sync::OnceLock::new();
    if BATCH_REFUSED.load(std::sync::atomic::Ordering::Relaxed) {
        return None;
    }
    *PIDFD.get_or_init(|| {
        let pid = c_long::from(std::process::id());
        let fd = syscall6(nr::pidfd_open()?, pid, 0, 0, 0, 0, 0);
        (fd >= 0).then_some(fd)
    })
}

/// `process_madvise(pidfd, ranges, MADV_DONTNEED)`; whether the kernel
/// released every byte asked for.
#[cfg(target_os = "linux")]
fn process_madvise_dontneed(pidfd: c_long, mapping: &Mapping, ranges: &[(usize, usize)]) -> bool {
    let Some(num) = nr::process_madvise() else {
        return false;
    };
    let iov: Vec<ffi::IoVec> = ranges
        .iter()
        .map(|&(offset, len)| ffi::IoVec {
            // SAFETY: the caller bounds-checked every range.
            base: unsafe { mapping.ptr.add(offset) }.cast(),
            len,
        })
        .collect();
    let want: usize = ranges.iter().map(|&(_, len)| len).sum();
    let got = syscall6(
        num,
        pidfd,
        iov.as_ptr() as c_long,
        iov.len() as c_long,
        c_long::from(ffi::MADV_DONTNEED),
        0,
        0,
    );
    usize::try_from(got) == Ok(want)
}

/// Hand the pages of every `(offset, len)` range of `mapping` back to
/// the kernel (`MADV_DONTNEED`): the mapping stays, and the next touch
/// of a released page faults in a zeroed one. Every range must be
/// page-aligned and inside the mapping, and at most [`MAX_IOV`] of them.
/// Returns the system calls it took: one for a batch the kernel takes
/// whole, else one per range (plus the refused batched call, the first
/// time only).
///
/// # Safety
///
/// Releasing a page writes zeros over it: no reference into the ranges
/// may be live, and no other thread may access them during the call.
pub unsafe fn release(mapping: &Mapping, ranges: &[(usize, usize)], path: ReleasePath) -> u64 {
    let ps = page_size() as usize;
    assert!(
        ranges.len() <= MAX_IOV,
        "{} ranges in one batch",
        ranges.len()
    );
    for &(offset, len) in ranges {
        assert!(
            offset % ps == 0 && len % ps == 0 && offset.saturating_add(len) <= mapping.len,
            "release of [{offset}, +{len}) is not whole pages of a {} B mapping",
            mapping.len
        );
    }
    if ranges.is_empty() {
        return 0;
    }
    let mut calls = 0;
    #[cfg(target_os = "linux")]
    if path == ReleasePath::Batched {
        if let Some(pidfd) = batch_pidfd() {
            if process_madvise_dontneed(pidfd, mapping, ranges) {
                return 1;
            }
            BATCH_REFUSED.store(true, std::sync::atomic::Ordering::Relaxed);
            calls = 1;
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = path;
    for &(offset, len) in ranges {
        // SAFETY: `[offset, offset + len)` was checked above to be whole
        // pages inside the mapping, and the caller guarantees nothing
        // accesses them.
        #[cfg(unix)]
        unsafe {
            ffi::madvise(mapping.ptr.add(offset).cast(), len, ffi::MADV_DONTNEED);
        }
        // SAFETY: as above; off Unix the heap block cannot return pages,
        // so the range is zeroed as a released one would read.
        #[cfg(not(unix))]
        unsafe {
            mapping.ptr.add(offset).write_bytes(0, len);
        }
        calls += 1;
    }
    calls
}

/// Invoke a raw Linux syscall with three pointer-sized arguments.
/// Returns the raw (possibly negative) result; `None` off Unix.
#[cfg(all(unix, target_os = "linux"))]
pub fn syscall6(
    num: c_long,
    a1: c_long,
    a2: c_long,
    a3: c_long,
    a4: c_long,
    a5: c_long,
    a6: c_long,
) -> c_long {
    // SAFETY: the caller supplies a valid syscall number and arguments;
    // the kernel validates pointers and returns -EFAULT on bad ones
    // rather than faulting the process.
    unsafe { ffi::syscall(num, a1, a2, a3, a4, a5, a6) }
}

/// Syscall numbers for the NUMA memory-policy calls, per architecture.
/// `None` on architectures we have not tabulated — callers degrade to
/// pure emulation.
#[cfg(all(unix, target_os = "linux"))]
pub mod nr {
    /// `mbind(2)`.
    pub fn mbind() -> Option<super::c_long> {
        #[cfg(target_arch = "x86_64")]
        {
            Some(237)
        }
        #[cfg(target_arch = "aarch64")]
        {
            Some(235)
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            None
        }
    }

    /// `move_pages(2)`.
    pub fn move_pages() -> Option<super::c_long> {
        #[cfg(target_arch = "x86_64")]
        {
            Some(279)
        }
        #[cfg(target_arch = "aarch64")]
        {
            Some(239)
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            None
        }
    }

    /// `pidfd_open(2)`: the same number on both tabulated architectures
    /// (syscalls added after 4.20 share one table).
    pub fn pidfd_open() -> Option<super::c_long> {
        cfg!(any(target_arch = "x86_64", target_arch = "aarch64")).then_some(434)
    }

    /// `process_madvise(2)`, likewise.
    pub fn process_madvise() -> Option<super::c_long> {
        cfg!(any(target_arch = "x86_64", target_arch = "aarch64")).then_some(440)
    }
}

/// Whether `calls` is a count [`release`] on the batched path can
/// return for `ranges` ranges: one call, else one per range once the
/// kernel refused the batched call (plus that call, the first time).
#[cfg(test)]
pub(crate) fn batched_calls_ok(calls: u64, ranges: u64) -> bool {
    calls == 1 || calls == ranges || calls == ranges + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_is_a_power_of_two() {
        let ps = page_size();
        assert!(ps >= 512);
        assert!(ps.is_power_of_two());
    }

    #[test]
    fn map_is_zeroed_writable_and_page_aligned() {
        let m = map_anonymous(3 * page_size() as usize).unwrap();
        assert_eq!(m.as_ptr() as usize % page_size() as usize, 0);
        // SAFETY: `m` maps exactly `len` writable bytes and outlives the view.
        let bytes = unsafe { std::slice::from_raw_parts_mut(m.as_ptr(), m.len()) };
        assert!(bytes.iter().all(|&b| b == 0));
        bytes[0] = 0xAB;
        bytes[m.len() - 1] = 0xCD;
        assert_eq!(bytes[0], 0xAB);
        assert_eq!(bytes[m.len() - 1], 0xCD);
    }

    #[test]
    fn zero_length_map_is_rejected() {
        assert!(map_anonymous(0).is_err());
        assert!(map_aligned(0, HUGE_PAGE).is_err());
        assert!(map_aligned(4096, 3 << 20).is_err());
    }

    #[test]
    fn aligned_map_starts_on_the_boundary_and_keeps_its_length() {
        let ps = page_size() as usize;
        for len in [1, ps, 5 * ps + 1, HUGE_PAGE + ps] {
            let m = map_aligned(len, HUGE_PAGE).unwrap();
            assert_eq!(m.as_ptr() as usize % HUGE_PAGE, 0, "{len} B");
            assert_eq!(m.len(), len.div_ceil(ps) * ps, "page-rounded, not padded");
            // SAFETY: `m` maps `len` writable bytes and outlives the view.
            let bytes = unsafe { std::slice::from_raw_parts_mut(m.as_ptr(), m.len()) };
            bytes[0] = 1;
            bytes[m.len() - 1] = 2;
            assert!(bytes[1..m.len() - 1].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn release_zeroes_exactly_the_given_pages_on_both_paths() {
        let ps = page_size() as usize;
        for path in [ReleasePath::Batched, ReleasePath::PerRange] {
            let m = map_anonymous(8 * ps).unwrap();
            // SAFETY: `m` maps `len` writable bytes and outlives the view.
            let bytes = unsafe { std::slice::from_raw_parts_mut(m.as_ptr(), m.len()) };
            bytes.fill(0x5C);
            // SAFETY: `bytes` is not read until the call returns.
            let calls = unsafe { release(&m, &[(ps, ps), (4 * ps, 2 * ps)], path) };
            match path {
                ReleasePath::Batched => assert!(batched_calls_ok(calls, 2), "{calls} calls"),
                ReleasePath::PerRange => assert_eq!(calls, 2),
            }
            for (i, page) in bytes.chunks(ps).enumerate() {
                let want = if matches!(i, 1 | 4 | 5) { 0 } else { 0x5C };
                assert!(page.iter().all(|&b| b == want), "{path:?}: page {i}");
            }
            // SAFETY: an empty batch touches nothing.
            assert_eq!(unsafe { release(&m, &[], path) }, 0);
        }
    }

    /// From Linux 6.13 a process may `process_madvise` itself with any
    /// advice, so a batch of scattered ranges is one call there. Older
    /// kernels (and a seccomp filter that refuses the call) take the
    /// per-range path, which the test above covers.
    #[test]
    fn a_kernel_from_6_13_takes_a_batch_in_one_call() {
        let Some(release_word) = std::fs::read_to_string("/proc/sys/kernel/osrelease").ok() else {
            println!("skipped: no /proc/sys/kernel/osrelease");
            return;
        };
        let mut numbers = release_word
            .trim()
            .split(['.', '-'])
            .map(|p| p.parse::<u32>().ok());
        let version = (numbers.next().flatten(), numbers.next().flatten());
        let (Some(major), Some(minor)) = version else {
            println!("skipped: kernel release `{}`", release_word.trim());
            return;
        };
        if (major, minor) < (6, 13) {
            println!("skipped: Linux {major}.{minor} refuses the batched call");
            return;
        }
        let ps = page_size() as usize;
        let m = map_anonymous(64 * ps).unwrap();
        // SAFETY: `m` maps `len` writable bytes and outlives the view.
        let bytes = unsafe { std::slice::from_raw_parts_mut(m.as_ptr(), m.len()) };
        bytes.fill(0x5C);
        let ranges: Vec<_> = (0..32).map(|i| (2 * i * ps, ps)).collect();
        // SAFETY: `bytes` is not read until the call returns.
        let calls = unsafe { release(&m, &ranges, ReleasePath::Batched) };
        assert_eq!(
            calls, 1,
            "Linux {major}.{minor} refused process_madvise (a seccomp filter?)"
        );
        for (i, page) in bytes.chunks(ps).enumerate() {
            let want = if i % 2 == 0 { 0 } else { 0x5C };
            assert!(page.iter().all(|&b| b == want), "page {i}");
        }
    }

    #[test]
    #[should_panic(expected = "not whole pages")]
    fn release_refuses_a_partial_page() {
        let m = map_anonymous(2 * page_size() as usize).unwrap();
        // SAFETY: nothing references `m`; the call panics before any release.
        unsafe { release(&m, &[(1, page_size() as usize)], ReleasePath::PerRange) };
    }

    #[test]
    fn thp_mode_is_one_of_the_kernels_words() {
        let mode = thp_mode();
        assert!(["always", "madvise", "never", "unavailable"].contains(&mode.label()));
        assert_eq!(
            mode.honours_advice(),
            matches!(mode, ThpMode::Always | ThpMode::Madvise)
        );
    }
}
