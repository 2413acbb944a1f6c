//! Best-effort huge-page advice for the simulator's big flat arrays.
//!
//! The set-major L2 tag table of a many-processor system is megabytes
//! touched at random (every group's tags in one array, see
//! [`Cache::partitioned`](crate::cache::Cache::partitioned)), so with 4 KB
//! pages nearly every access path also risks a TLB miss. Backing the
//! array with 2 MB pages removes that pressure: the whole table maps with
//! a handful of entries.
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
