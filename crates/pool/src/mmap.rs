//! Thin `mmap` wrapper: shared file mappings at a requested base, plus the
//! advisory file lock that makes a pool single-writer.
//!
//! Declared directly against the C library (the build environment vendors no
//! `libc` crate): `mmap`/`munmap`/`msync`/`flock` are part of every Unix
//! libc that std already links. The declarations assume LP64 (`off_t` =
//! i64), so the real implementation is gated to 64-bit Unix; on every other
//! target these entry points compile but return `ErrorKind::Unsupported`,
//! keeping the workspace buildable (the simulator and hardware backends are
//! fully portable; only the pool is not).

use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
    unsafe extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
        fn flock(fd: c_int, operation: c_int) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_SHARED: c_int = 0x01;
    #[cfg(target_os = "linux")]
    const MAP_FIXED_NOREPLACE: c_int = 0x10_0000;
    const MS_SYNC: c_int = 4;
    const MAP_FAILED: usize = usize::MAX;
    const LOCK_EX: c_int = 2;
    const LOCK_NB: c_int = 4;

    pub fn map_shared(
        file: &File,
        len: usize,
        hint: Option<usize>,
        require_exact: bool,
    ) -> io::Result<usize> {
        let addr = hint.unwrap_or(0) as *mut c_void;
        #[cfg(target_os = "linux")]
        let flags = if require_exact && hint.is_some() {
            MAP_SHARED | MAP_FIXED_NOREPLACE
        } else {
            MAP_SHARED
        };
        #[cfg(not(target_os = "linux"))]
        let flags = MAP_SHARED;
        // SAFETY: len > 0, fd is a valid open file, and we never pass
        // MAP_FIXED, so no existing mapping can be clobbered.
        let p = unsafe {
            mmap(
                addr,
                len,
                PROT_READ | PROT_WRITE,
                flags,
                file.as_raw_fd(),
                0,
            )
        } as usize;
        if p == MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        if require_exact {
            if let Some(want) = hint {
                if p != want {
                    // Non-Linux: the hint was best-effort; undo and report
                    // "range unavailable" so the caller rebases.
                    unmap(p, len);
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("could not map at {want:#x}"),
                    ));
                }
            }
        }
        Ok(p)
    }

    pub fn unmap(base: usize, len: usize) {
        // SAFETY: only called with (base, len) pairs returned by map_shared.
        unsafe {
            munmap(base as *mut c_void, len);
        }
    }

    pub fn sync(base: usize, len: usize) -> io::Result<()> {
        // SAFETY: only called with live (base, len) pairs from map_shared.
        let rc = unsafe { msync(base as *mut c_void, len, MS_SYNC) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    pub fn lock_exclusive(file: &File) -> io::Result<()> {
        // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
        let rc = unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Reserves (PROT_NONE) an anonymous region at exactly `addr` — used by
    /// tests to force the rebased-open path. Returns false if the range is
    /// taken.
    #[cfg(all(test, target_os = "linux"))]
    pub fn reserve_anon_at(addr: usize, len: usize) -> bool {
        const PROT_NONE: c_int = 0;
        const MAP_PRIVATE: c_int = 0x02;
        const MAP_ANONYMOUS: c_int = 0x20;
        // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
        let p = unsafe {
            mmap(
                addr as *mut c_void,
                len,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE,
                -1,
                0,
            )
        } as usize;
        p == addr
    }
    #[cfg(all(test, not(target_os = "linux")))]
    pub fn reserve_anon_at(_addr: usize, _len: usize) -> bool {
        false
    }

    /// Maps an anonymous PROT_NONE region wherever the kernel chooses —
    /// used by tests to take whatever range the kernel hands out next.
    #[cfg(all(test, target_os = "linux"))]
    pub fn map_anon(len: usize) -> usize {
        const PROT_NONE: c_int = 0;
        const MAP_PRIVATE: c_int = 0x02;
        const MAP_ANONYMOUS: c_int = 0x20;
        // SAFETY: a fresh kernel-placed anonymous mapping aliases nothing.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        } as usize;
        assert_ne!(p, MAP_FAILED, "anonymous mmap failed");
        p
    }
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
mod sys {
    use std::fs::File;
    use std::io;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "nvtraverse-pool requires a 64-bit Unix mmap; this target has none",
        ))
    }

    pub fn map_shared(
        _file: &File,
        _len: usize,
        _hint: Option<usize>,
        _require_exact: bool,
    ) -> io::Result<usize> {
        unsupported()
    }
    pub fn unmap(_base: usize, _len: usize) {}
    pub fn sync(_base: usize, _len: usize) -> io::Result<()> {
        unsupported()
    }
    pub fn lock_exclusive(_file: &File) -> io::Result<()> {
        unsupported()
    }
    #[allow(dead_code)]
    pub fn reserve_anon_at(_addr: usize, _len: usize) -> bool {
        false
    }
}

/// Maps `len` bytes of `file` shared and read-write.
///
/// With `hint`, the kernel is asked for that base; with `require_exact` the
/// call fails rather than mapping elsewhere (`MAP_FIXED_NOREPLACE`, so an
/// occupied range is an error, never a clobber).
pub fn map_shared(
    file: &File,
    len: usize,
    hint: Option<usize>,
    require_exact: bool,
) -> io::Result<usize> {
    sys::map_shared(file, len, hint, require_exact)
}

/// Unmaps a region previously returned by [`map_shared`].
pub fn unmap(base: usize, len: usize) {
    sys::unmap(base, len)
}

/// `msync(MS_SYNC)` over a mapped region.
pub fn sync(base: usize, len: usize) -> io::Result<()> {
    sys::sync(base, len)
}

/// Takes a non-blocking exclusive `flock` on the pool file.
///
/// The lock lives as long as the file descriptor, making each pool
/// single-writer across *and within* processes: a second open of a live
/// pool fails instead of racing the allocator over shared pages.
pub fn lock_exclusive(file: &File) -> io::Result<()> {
    sys::lock_exclusive(file)
}

/// Test hook: occupies `[addr, addr+len)` with an anonymous mapping.
#[cfg(test)]
pub fn reserve_anon_at(addr: usize, len: usize) -> bool {
    sys::reserve_anon_at(addr, len)
}

/// Test hook: an anonymous `len`-byte mapping at a kernel-chosen address.
#[cfg(all(test, target_os = "linux"))]
pub fn map_anon(len: usize) -> usize {
    sys::map_anon(len)
}

/// First byte of the pool arena: 32 TiB. On x86-64 Linux this is far below
/// the randomized mmap area (just under 128 TiB, growing down) and the PIE
/// and `brk` heap (around 85 TiB), and above the shadow ranges sanitizers
/// reserve (AddressSanitizer's ends just past 16 TiB), so nothing the
/// kernel places on its own lands in it.
const ARENA: usize = 0x2000_0000_0000;
/// Pool slots in the arena.
const SLOTS: usize = 64;
/// Bytes between slot bases.
const STEP: usize = 16 << 30;

/// Whether `base` lies inside the pool arena.
#[cfg(all(test, target_os = "linux"))]
pub fn in_arena(base: usize) -> bool {
    (ARENA..ARENA + SLOTS * STEP).contains(&base)
}

/// FNV-1a of the path, reduced to an arena slot index.
fn slot_of(path: &Path) -> usize {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in path.as_os_str().as_encoded_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % SLOTS as u64) as usize
}

/// The base of the path's hashed arena slot, where [`map_in_arena`] tries
/// first: the same pool file gets the same base in every process that
/// creates it, and two different pools rarely share a slot.
#[cfg(test)]
pub fn base_hint(path: &Path) -> usize {
    ARENA + slot_of(path) * STEP
}

/// Maps `len` bytes of `file` at the first free arena slot, trying the
/// path's hashed slot first and then the following ones in order,
/// wrapping. Every attempt is exact (`MAP_FIXED_NOREPLACE`), so the
/// pool never gets a kernel-chosen base that a later mapping in the same
/// process could take before a reopen.
///
/// # Errors
///
/// `AddrInUse` when every slot is taken; any other `mmap` failure as is.
pub fn map_in_arena(file: &File, len: usize, path: &Path) -> io::Result<usize> {
    let first = slot_of(path);
    for i in 0..SLOTS {
        let base = ARENA + (first + i) % SLOTS * STEP;
        let err = match map_shared(file, len, Some(base), true) {
            Ok(b) => return Ok(b),
            Err(e) => e,
        };
        // EEXIST from MAP_FIXED_NOREPLACE, or `AddrInUse` where the kernel
        // treated the address as a hint: the slot is taken, try the next.
        if !matches!(err.kind(), io::ErrorKind::AlreadyExists | io::ErrorKind::AddrInUse) {
            return Err(err);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::AddrInUse,
        format!("no free pool arena slot for {len} bytes (all {SLOTS} taken)"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_write_sync_read_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("nvt-mmap-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .unwrap();
        file.set_len(8192).unwrap();
        let base = map_shared(&file, 8192, None, false).unwrap();
        unsafe { (base as *mut u64).write(0xDEAD_BEEF) };
        sync(base, 8192).unwrap();
        unmap(base, 8192);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], &0xDEAD_BEEFu64.to_le_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hint_is_deterministic_and_aligned() {
        let a = base_hint(Path::new("/tmp/a.pool"));
        let b = base_hint(Path::new("/tmp/a.pool"));
        let c = base_hint(Path::new("/tmp/b.pool"));
        assert_eq!(a, b);
        assert_eq!(a % 4096, 0);
        // Different paths usually differ (not guaranteed; just sanity).
        let _ = c;
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn exact_mapping_at_free_base_succeeds_and_conflict_fails() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("nvt-mmap-fixed-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .unwrap();
        file.set_len(4096).unwrap();
        let want = base_hint(&path);
        let base = map_shared(&file, 4096, Some(want), true).unwrap();
        assert_eq!(base, want);
        // The same range is now occupied: an exact request must fail.
        assert!(map_shared(&file, 4096, Some(want), true).is_err());
        unmap(base, 4096);
        std::fs::remove_file(&path).unwrap();
    }
}
