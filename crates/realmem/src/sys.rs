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

    pub const MADV_WILLNEED: i32 = 3;
    pub const MADV_DONTNEED: i32 = 4;
    pub const MADV_HUGEPAGE: i32 = 14;

    pub const _SC_PAGESIZE: i32 = 30;

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

/// `madvise` advice understood by [`advise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Pages will be needed soon (pre-fault hint).
    WillNeed,
    /// Pages can be dropped (free physical memory, keep the mapping).
    DontNeed,
    /// Back the range with transparent huge pages where the kernel can.
    HugePage,
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
    /// Only mappings advised [`Advice::HugePage`] get huge pages.
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

    /// Whether advising [`Advice::HugePage`] can give a mapping huge
    /// pages under this mode.
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

/// Best-effort `madvise` over `[offset, offset+len)` of a mapping.
/// Returns whether the kernel accepted the advice; callers that only
/// hint may ignore it — advice is advice.
pub fn advise(mapping: &Mapping, offset: usize, len: usize, advice: Advice) -> bool {
    if offset.saturating_add(len) > mapping.len {
        return false;
    }
    #[cfg(unix)]
    {
        let adv = match advice {
            Advice::WillNeed => ffi::MADV_WILLNEED,
            Advice::DontNeed => ffi::MADV_DONTNEED,
            Advice::HugePage => ffi::MADV_HUGEPAGE,
        };
        // Page-align the start downward; advice applies to whole pages.
        let ps = page_size() as usize;
        let start = offset / ps * ps;
        let end = offset + len;
        // SAFETY: `[start, end)` was bounds-checked against the mapping
        // and rounded to whole pages inside it; madvise never writes.
        unsafe { ffi::madvise(mapping.ptr.add(start).cast(), end - start, adv) == 0 }
    }
    #[cfg(not(unix))]
    {
        let _ = (mapping, advice);
        false
    }
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
        // Advice must not invalidate the mapping itself.
        advise(&m, 0, m.len(), Advice::WillNeed);
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
    fn thp_mode_is_one_of_the_kernels_words() {
        let mode = thp_mode();
        assert!(["always", "madvise", "never", "unavailable"].contains(&mode.label()));
        assert_eq!(
            mode.honours_advice(),
            matches!(mode, ThpMode::Always | ThpMode::Madvise)
        );
    }
}
