//! Best-effort huge-page advice for the simulator's big flat arrays.
//!
//! The L2 metadata arrays and the sharer directory's slot table are a few
//! megabytes each and are accessed at random, so with 4 KB pages nearly
//! every touch also risks a TLB miss — and x86 silently drops software
//! prefetches whose translation misses, which defeats the access path's
//! latency-hiding (see `Directory::prefetch` / `Cache::prefetch_set`).
//! Backing the arrays with 2 MB pages removes that pressure: the whole
//! working set maps with a handful of entries.
//!
//! Hosts commonly ship transparent huge pages in `madvise` mode, where
//! only regions that ask get them, so we ask — *before* first touch,
//! because the kernel materializes huge pages at fault time and only
//! slowly collapses already-faulted small pages. The request is advisory
//! in every sense: the kernel may ignore it, and on other platforms the
//! function compiles to nothing. Behavior is identical either way.

/// Advises the kernel to back the allocation at `ptr..ptr+size` with huge
/// pages (`MADV_HUGEPAGE`). Call right after allocating, before writing.
/// Returns the raw syscall result (0 on success) for diagnostics; callers
/// are free to ignore it — this is purely a performance hint.
pub(crate) fn advise_huge_raw(ptr: *const u8, size: usize) -> isize {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    unsafe {
        if size < (2 << 20) {
            return 0; // smaller than one huge page; nothing to gain
        }
        const PAGE: usize = 4096;
        const SYS_MADVISE: usize = 28;
        const MADV_HUGEPAGE: usize = 14;
        let start = ptr as usize & !(PAGE - 1);
        let len = ptr as usize + size - start;
        let ret: isize;
        // Raw syscall keeps the workspace dependency-free; clobbers per
        // the x86-64 Linux syscall ABI (rcx/r11 smashed by `syscall`).
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MADVISE => ret,
            in("rdi") start,
            in("rsi") len,
            in("rdx") MADV_HUGEPAGE,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags)
        );
        ret
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = (ptr, size);
        0
    }
}

/// Hints the CPU to pull the cache line at `p` into this core in
/// *writable* (exclusive) state. The simulator's metadata touches almost
/// always write — directory slots on every residency change, LRU stacks
/// on every hit — so fetching the line shared (as the preceding volatile
/// read does) would pay a second coherence round-trip for the ownership
/// upgrade. `PREFETCHW` starts that upgrade early; CPUs without the
/// feature have always executed the opcode as a NOP, so no detection is
/// needed. Issued *after* a real load of the same line: by then the
/// translation is warm, so the (droppable) prefetch actually runs.
///
/// # Safety
///
/// `p` must be a valid address (it is dereferenced by the preceding
/// volatile load in all callers; the prefetch itself cannot fault).
#[inline]
pub(crate) unsafe fn prefetch_write(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::asm!("prefetchw [{0}]", in(reg) p, options(nostack, preserves_flags, readonly));
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

/// Allocates a `len`-element vector filled with `value`, advising huge
/// pages on the backing memory before the fill touches it.
pub(crate) fn huge_vec<T: Clone>(len: usize, value: T) -> Vec<T> {
    let mut v = Vec::with_capacity(len);
    let _ = advise_huge_raw(v.as_ptr() as *const u8, len * std::mem::size_of::<T>());
    v.resize(len, value);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advice_applies_to_large_allocations() {
        let v: Vec<u64> = Vec::with_capacity(1 << 20); // 8 MB untouched
        let ret = advise_huge_raw(v.as_ptr() as *const u8, (1 << 20) * 8);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert_eq!(ret, 0, "madvise(MADV_HUGEPAGE) rejected");
        let _ = ret;
    }

    #[test]
    fn huge_vec_is_filled() {
        let v = huge_vec(1 << 19, 0xABu8);
        assert_eq!(v.len(), 1 << 19);
        assert!(v.iter().all(|&b| b == 0xAB));
    }
}
