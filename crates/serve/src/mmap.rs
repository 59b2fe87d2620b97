//! Read-only memory mapping, dependency-free.
//!
//! Arena blobs at million-user scale are hundreds of megabytes; reading
//! them eagerly would make server cold start O(catalogue). This module
//! maps the file instead, so cold start touches only the pages a request
//! actually scores. On `x86_64` Linux the map is a raw `mmap(2)` syscall
//! (the workspace vendors no libc); elsewhere — and on big-endian
//! targets, where the on-disk little-endian f32s cannot be reinterpreted
//! in place — [`Mmap::open`] degrades to an eager heap read with the same
//! API and the same bytes, so every caller and test is portable.
//!
//! This file, `om_tensor::runtime` and `om_tensor::simd` are the only
//! modules allowed to contain `unsafe` (the workspace denies
//! `unsafe_code`; each of the three expects it); every site carries a
//! `// SAFETY:` argument (`clippy::undocumented_unsafe_blocks`).

#![expect(unsafe_code, reason = "raw mmap(2) syscalls and zero-copy f32 views of mapped arena blobs")]

use std::fs::File;
use std::io;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::Arc;

/// A read-only view of a whole file: page-mapped where supported, an
/// eager heap copy elsewhere.
pub struct Mmap {
    inner: Inner,
}

enum Inner {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Sys { ptr: *const u8, len: usize },
    Heap(Vec<u8>),
}

// SAFETY: the mapping is immutable for its whole lifetime — PROT_READ and
// MAP_PRIVATE, so neither this process nor any other can write the pages
// this handle observes — and the heap fallback is an owned `Vec<u8>` that
// is never mutated after construction. Shared or transferred access from
// any thread therefore only ever reads frozen bytes.
unsafe impl Send for Mmap {}
// SAFETY: as above — `&Mmap` exposes only reads of immutable memory.
unsafe impl Sync for Mmap {}

// Linux x86_64 syscall numbers and flags for the two calls used here.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    pub const MMAP: i64 = 9;
    pub const MUNMAP: i64 = 11;
    pub const PROT_READ: usize = 0x1;
    pub const MAP_PRIVATE: usize = 0x2;
}

impl Mmap {
    /// Map `path` read-only. Zero-length files yield an empty view (an
    /// `mmap` of length 0 is `EINVAL`, so they short-circuit to a heap
    /// vector). IO and syscall failures surface as `io::Error`.
    pub fn open(path: &Path) -> io::Result<Mmap> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len_usize =
            usize::try_from(len).map_err(|_| io::Error::other("file exceeds address space"))?;
        if len_usize == 0 {
            return Ok(Mmap { inner: Inner::Heap(Vec::new()) });
        }
        Mmap::map_or_read(file, len_usize)
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn map_or_read(file: File, len: usize) -> io::Result<Mmap> {
        use std::os::fd::AsRawFd;
        let fd = file.as_raw_fd();
        let ret: isize;
        // SAFETY: a raw `mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)`
        // syscall. All arguments are passed in the registers the x86_64
        // Linux syscall ABI specifies; `rcx`/`r11` are declared clobbered
        // (the kernel overwrites them) and no memory the compiler knows
        // about is touched. `fd` is open for the duration of the call and
        // the kernel validates every argument, returning -errno on any
        // problem — checked below before the pointer is ever used.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") sys::MMAP as isize => ret,
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") sys::PROT_READ,
                in("r10") sys::MAP_PRIVATE,
                in("r8") fd as isize,
                in("r9") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if (-4095..0).contains(&ret) {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        om_obs::metrics::counter("serve.mmap.maps").add(1);
        Ok(Mmap { inner: Inner::Sys { ptr: ret as *const u8, len } })
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn map_or_read(file: File, len: usize) -> io::Result<Mmap> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len);
        let mut file = file;
        file.read_to_end(&mut buf)?;
        Ok(Mmap { inner: Inner::Heap(buf) })
    }

    /// The full mapped (or read) contents.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            // SAFETY: `ptr` came from a successful PROT_READ/MAP_PRIVATE
            // mmap of exactly `len` bytes, is non-null (error returns were
            // rejected in `map_or_read`), and stays mapped until `Drop`
            // munmaps it — which cannot happen while `&self` is borrowed.
            // The mapping is private, so no other process can mutate the
            // pages under us.
            Inner::Sys { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Inner::Heap(v) => v,
        }
    }

    /// Whether the contents are genuinely page-mapped (as opposed to the
    /// eager heap fallback) — lets callers report which cold-start regime
    /// they actually measured.
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Inner::Sys { .. } => true,
            Inner::Heap(_) => false,
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Inner::Sys { ptr, len } = self.inner {
            // SAFETY: `ptr`/`len` describe exactly the region the
            // constructor mapped, unmapped exactly once (Drop runs once
            // and no other code munmaps). A failure here leaks the
            // mapping, which is safe; the return value is ignored.
            unsafe {
                let _ret: isize;
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") sys::MUNMAP as isize => _ret,
                    in("rdi") ptr,
                    in("rsi") len,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
        }
    }
}

/// Element types a [`MapView`] may reinterpret mapped bytes as.
///
/// # Safety
///
/// Every bit pattern of `size_of::<Self>()` bytes must be a valid value
/// of the type, which must own no memory.
// SAFETY: declaring the trait is sound by itself; each `unsafe impl`
// below argues the condition above for its type.
pub(crate) unsafe trait Plain: Copy {}

// SAFETY: every 32-bit pattern is a valid f32 (NaN payloads included).
unsafe impl Plain for f32 {}

// SAFETY: every byte is a valid i8.
unsafe impl Plain for i8 {}

/// A `[T]` window into an [`Mmap`], kept alive by an `Arc` — the
/// zero-copy backing a mapped arena hands to the scoring kernels (f32
/// feature rows and scales, int8 codes).
pub(crate) struct MapView<T: Plain> {
    map: Arc<Mmap>,
    byte_off: usize,
    len: usize,
    elem: PhantomData<T>,
}

impl<T: Plain> MapView<T> {
    /// A view of `len` elements starting `byte_off` bytes into the map.
    /// The range must be in bounds and aligned for `T` relative to the
    /// map base (mmap bases are page-aligned, so absolute alignment
    /// follows); the caller (the blob loader) has already validated
    /// both, and this re-checks rather than trusts.
    ///
    /// Multi-byte elements are only valid on little-endian targets, where
    /// the on-disk little-endian representation *is* the in-memory one;
    /// the blob loader routes big-endian targets through an owned decode
    /// instead. Single bytes have no byte order.
    pub(crate) fn new(map: Arc<Mmap>, byte_off: usize, len: usize) -> MapView<T> {
        let size = std::mem::size_of::<T>();
        assert!(
            size == 1 || cfg!(target_endian = "little"),
            "zero-copy multi-byte views require a little-endian target"
        );
        let bytes = map.as_bytes();
        let end = len
            .checked_mul(size)
            .and_then(|n| byte_off.checked_add(n))
            .expect("mapped view length overflow");
        assert!(end <= bytes.len(), "mapped view out of bounds");
        assert!(
            (bytes.as_ptr() as usize + byte_off).is_multiple_of(std::mem::align_of::<T>()),
            "mapped view misaligned"
        );
        MapView { map, byte_off, len, elem: PhantomData }
    }

    /// The element slice.
    pub(crate) fn as_slice(&self) -> &[T] {
        let bytes = self.map.as_bytes();
        // SAFETY: the constructor checked that
        // `byte_off..byte_off + len * size_of::<T>()` is in bounds of the
        // map and that the start address is aligned for `T`; the map
        // lives as long as `self` via the `Arc`; `T: Plain` makes any bit
        // pattern a valid `T`; and the constructor admits multi-byte
        // elements only on little-endian targets, where the on-disk order
        // is the in-memory one.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().add(self.byte_off) as *const T, self.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("om-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write tmp file");
        path
    }

    #[test]
    fn maps_bytes_back_verbatim() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = tmp_file("verbatim.bin", &payload);
        let map = Mmap::open(&path).expect("open");
        assert_eq!(map.as_bytes(), &payload[..]);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(map.is_mapped(), "expected a real mapping on linux/x86_64");
    }

    #[test]
    fn empty_file_yields_empty_view() {
        let path = tmp_file("empty.bin", &[]);
        let map = Mmap::open(&path).expect("open");
        assert!(map.as_bytes().is_empty());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(Mmap::open(Path::new("/nonexistent/om-mmap-test")).is_err());
    }

    #[test]
    fn f32_view_roundtrips_written_values() {
        let vals: Vec<f32> = (0..257).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut bytes = vec![0u8; 8]; // 8-byte header keeps the view aligned
        for v in &vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let path = tmp_file("f32s.bin", &bytes);
        let map = Arc::new(Mmap::open(&path).expect("open"));
        let view = MapView::<f32>::new(map, 8, vals.len());
        assert_eq!(view.as_slice(), &vals[..]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn f32_view_rejects_out_of_bounds() {
        let path = tmp_file("short.bin", &[0u8; 16]);
        let map = Arc::new(Mmap::open(&path).expect("open"));
        let _ = MapView::<f32>::new(map, 8, 3);
    }
}
