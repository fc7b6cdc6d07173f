//! Cache-control intrinsics behind a portable face.

/// The cache-line size the hints assume.
const LINE: usize = 64;

/// Best-effort prefetch of the cache line holding `p` into L1.
///
/// Purely a scheduling hint: no observable effect on results, and it
/// compiles to nothing on architectures without a stable prefetch
/// intrinsic.
#[inline(always)]
pub(crate) fn prefetch<T>(p: &T) {
    prefetch_line((p as *const T).cast());
}

/// Best-effort prefetch of every cache line `value` spans.
///
/// A record no larger than a line still straddles two whenever it does
/// not start on a line boundary — an array from the allocator is only
/// 16-byte aligned — and the second line misses on its own. Like
/// [`prefetch`], a pure scheduling hint.
#[inline(always)]
pub(crate) fn prefetch_all<T>(value: &T) {
    let start = (value as *const T).cast::<u8>();
    let offset = start as usize % LINE;
    let first = start.wrapping_sub(offset);
    let mut at = 0;
    while at < offset + std::mem::size_of::<T>() {
        prefetch_line(first.wrapping_add(at));
        at += LINE;
    }
}

/// Hints the line holding `p`; `p` need not be dereferenceable, since a
/// prefetch never faults.
#[inline(always)]
fn prefetch_line(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch reads nothing the program can observe and never
    // faults, whatever the address; SSE is part of the x86_64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p.cast::<i8>(), std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}
