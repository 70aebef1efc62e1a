//! Large zeroed word arrays, backed by transparent huge pages where the
//! kernel offers them (DESIGN.md §Memory).

use std::sync::atomic::AtomicU64;

/// Size of a transparent huge page on x86-64 and aarch64 Linux.
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// A zero-filled array of `n` words whose pages are first touched after
/// the kernel was asked to back them with transparent huge pages.
///
/// The persistent heap's DRAM shadow, the emulated device and the lock
/// table are hundreds of megabytes, first touched one word per 4 KiB page;
/// with huge pages that is one fault per 2 MiB. The request covers only the
/// 2 MiB-aligned interior of the allocation, its result is ignored, and it
/// cannot change memory contents: where huge pages are off (THP `never`,
/// or not Linux) this is a plain zeroed allocation.
///
/// # Example
///
/// ```
/// use std::sync::atomic::Ordering;
///
/// let words = dude_txapi::zeroed_words(1 << 20);
/// assert_eq!(words.len(), 1 << 20);
/// assert!(words.iter().all(|w| w.load(Ordering::Relaxed) == 0));
/// ```
pub fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    let mut words: Vec<AtomicU64> = Vec::with_capacity(n);
    advise_huge_pages(
        words.as_ptr() as usize,
        n * std::mem::size_of::<AtomicU64>(),
    );
    words.resize_with(n, || AtomicU64::new(0));
    // len == capacity: the boxed slice keeps the advised allocation.
    words.into_boxed_slice()
}

/// Asks for transparent huge pages over the 2 MiB-aligned pages inside
/// `[addr, addr + len)`.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn advise_huge_pages(addr: usize, len: usize) {
    use std::ffi::{c_int, c_void};

    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    /// Linux `MADV_HUGEPAGE`.
    const MADV_HUGEPAGE: c_int = 14;

    let start = addr.next_multiple_of(HUGE_PAGE_BYTES);
    let end = (addr + len) / HUGE_PAGE_BYTES * HUGE_PAGE_BYTES;
    if start < end {
        // SAFETY: `[start, end)` lies inside one live allocation that the
        // caller owns and has not yet initialised, and is page-aligned.
        // `MADV_HUGEPAGE` only sets a flag on the mapping that lets the
        // kernel back it with huge pages; it neither reads, writes, maps
        // nor unmaps memory, so no Rust-visible state changes. An error
        // (THP off, EINVAL on an old kernel) leaves the mapping as it was
        // and is ignored.
        unsafe { madvise(start as *mut c_void, end - start, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_addr: usize, _len: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn zeroed_at_every_size() {
        for n in [0, 1, 511, 512, (HUGE_PAGE_BYTES / 8) * 3 + 5] {
            let words = zeroed_words(n);
            assert_eq!(words.len(), n);
            assert!(words.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        }
    }
}
