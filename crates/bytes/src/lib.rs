//! Std-only, in-workspace implementation of the subset of the `bytes`
//! crate API this workspace uses.
//!
//! The build environment has no crates.io access, so the external `bytes`
//! crate cannot resolve; this crate keeps every `use bytes::…` call site
//! compiling unchanged. [`Bytes`] is a cheaply cloneable, immutable byte
//! buffer, built in place by [`Bytes::build`]; [`Buf`]/[`BufMut`] are
//! the minimal cursor traits the codec needs.
//!
//! # Layout
//!
//! A [`Bytes`] is one pointer (8 bytes, and so is `Option<Bytes>`) to a
//! single allocation of `8 + len` bytes:
//!
//! ```text
//! [ refs: AtomicU32 | len: u32 | data: [u8; len] ]
//! ```
//!
//! `refs` counts the handles; there are no weak handles and no
//! separate slice length in the handle. A cached 64-byte copy costs a
//! 72-byte allocation and an 8-byte handle, where `Arc<[u8]>` costs an
//! 80-byte allocation (strong + weak counts) and a 16-byte handle.
//!
//! # Limits
//!
//! `len` is a `u32`: every constructor panics, before it allocates,
//! when asked for more than `u32::MAX` bytes. Frames are far smaller
//! (the wire's `MAX_FRAME_LEN` is 64 MiB). A clone that would take
//! `refs` past `u32::MAX / 2` aborts the process, as `Arc` does past
//! `isize::MAX`: so many handles to one buffer is a leak, and wrapping
//! the count would free a buffer still in use.
//!
//! # Memory ordering
//!
//! The data is written only before the buffer's first handle exists
//! and never after, so readers need nothing from the count but the
//! buffer's lifetime. The argument is `Arc`'s:
//! - A clone increments `Relaxed`. A new handle is made from an
//!   existing one, which already keeps the buffer alive, and the thread
//!   that receives it is synchronised with the sender by whatever
//!   moved the handle across.
//! - A drop decrements with `Release`, so every use of the buffer
//!   through that handle happens before the decrement. The one that
//!   takes the count to zero then issues an `Acquire` fence, which
//!   synchronises with every earlier `Release` decrement: all other
//!   handles' uses happen before the free.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::alloc::{self, Layout};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::slice;
use std::sync::atomic::{self, AtomicU32, Ordering};

/// The start of every buffer; its data follows at [`HEADER`].
#[repr(C)]
struct Header {
    /// Live handles.
    refs: AtomicU32,
    /// Data bytes; fixed at allocation.
    len: u32,
}

/// Bytes before the data.
const HEADER: usize = size_of::<Header>();

/// More handles than this to one buffer aborts the process.
const MAX_REFS: u32 = u32::MAX / 2;

/// A cheaply cloneable immutable byte buffer.
pub struct Bytes {
    /// Always a live allocation from [`Bytes::allocate`], whose data
    /// is initialised and never written again, counted in `refs`.
    ptr: NonNull<Header>,
}

// SAFETY: the data behind `ptr` is immutable once a handle exists and
// the count is atomic, so handles may move to and be shared between
// threads as `Arc<[u8]>`'s are; the last drop frees on whichever
// thread it happens (see the module's memory-ordering argument).
unsafe impl Send for Bytes {}
// SAFETY: as `Send`: `&Bytes` gives only reads of immutable data and
// atomic updates of the count (through `clone`).
unsafe impl Sync for Bytes {}

/// The allocation for `len` data bytes. Panics when `len` exceeds the
/// header's `u32`.
fn layout(len: usize) -> Layout {
    assert!(
        u32::try_from(len).is_ok(),
        "a Bytes holds at most u32::MAX bytes"
    );
    let size = HEADER
        .checked_add(len)
        .expect("a u32 length plus 8 fits usize");
    Layout::from_size_align(size, align_of::<Header>()).expect("size fits isize")
}

impl Bytes {
    /// A new buffer of `len` bytes, its count 1 and its data zeroed
    /// when `zeroed`, else uninitialised. Panics before allocating when
    /// `len` exceeds `u32::MAX`.
    fn allocate(len: usize, zeroed: bool) -> NonNull<Header> {
        let layout = layout(len);
        // SAFETY: `layout` has a non-zero size, at least `HEADER`.
        let raw = unsafe {
            if zeroed {
                alloc::alloc_zeroed(layout)
            } else {
                alloc::alloc(layout)
            }
        };
        let Some(ptr) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        let header = Header {
            refs: AtomicU32::new(1),
            len: len as u32,
        };
        // SAFETY: `ptr` is a fresh allocation aligned for `Header` and
        // at least `HEADER` bytes long.
        unsafe { ptr.write(header) };
        ptr
    }

    fn header(&self) -> &Header {
        // SAFETY: `ptr` is live while this handle is, and its header
        // was initialised at allocation.
        unsafe { self.ptr.as_ref() }
    }

    /// The first data byte: `len` bytes follow it in the allocation.
    fn data(ptr: NonNull<Header>) -> *mut u8 {
        // SAFETY: the allocation is `HEADER + len` bytes, so the data
        // starts inside it or, when empty, one past its end.
        unsafe { ptr.as_ptr().cast::<u8>().add(HEADER) }
    }

    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::copy_from_slice(&[])
    }

    /// Wraps a static slice (copied once; the real crate borrows, but the
    /// observable behavior is identical).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `bytes` into a new buffer: one allocation, written once.
    pub fn copy_from_slice(bytes: &[u8]) -> Bytes {
        let ptr = Bytes::allocate(bytes.len(), false);
        // SAFETY: the new allocation's data is `bytes.len()` writable
        // bytes that no other pointer reaches, so it cannot overlap
        // `bytes`.
        unsafe { ptr::copy_nonoverlapping(bytes.as_ptr(), Bytes::data(ptr), bytes.len()) };
        Bytes { ptr }
    }

    /// `len` bytes that `fill` writes over zeros, in one allocation:
    /// the buffer is made at its final size and shared only once filled.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        let bytes = Bytes {
            ptr: Bytes::allocate(len, true),
        };
        // SAFETY: the `len` data bytes are zeroed, and `bytes` is the
        // buffer's only handle and is not read until `fill` returns,
        // so this is the only reference to them.
        fill(unsafe { slice::from_raw_parts_mut(Bytes::data(bytes.ptr), len) });
        bytes
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.header().len as usize
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Clone for Bytes {
    fn clone(&self) -> Bytes {
        // `Relaxed`: this handle already keeps the buffer alive.
        if self.header().refs.fetch_add(1, Ordering::Relaxed) > MAX_REFS {
            std::process::abort();
        }
        Bytes { ptr: self.ptr }
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        if self.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        atomic::fence(Ordering::Acquire);
        let layout = layout(self.len());
        // SAFETY: the count reached zero, so this was the last handle
        // and, after the fence, every other handle's use is over; the
        // allocation was made with this `layout`.
        unsafe { alloc::dealloc(self.ptr.as_ptr().cast(), layout) }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: the `len` data bytes were initialised before the
        // first handle existed, are never written again and outlive
        // `self`.
        unsafe { slice::from_raw_parts(Bytes::data(self.ptr), self.len()) }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// One allocation: the bytes are copied straight out of `v`,
    /// whatever its spare capacity, and its buffer is freed.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// Read cursor over a byte source. Implemented for `&[u8]`, which
/// advances through the slice as values are read.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// `true` while bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte. Panics when empty (callers bounds-check first).
    fn get_u8(&mut self) -> u8;

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;

    /// Copies the next `n` bytes out as [`Bytes`].
    fn copy_to_bytes(&mut self, n: usize) -> Bytes;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let (head, rest) = self.split_at(1);
        *self = rest;
        head[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        *self = rest;
        u32::from_le_bytes(head.try_into().expect("split_at(4)"))
    }

    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        *self = rest;
        u64::from_le_bytes(head.try_into().expect("split_at(8)"))
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let (head, rest) = self.split_at(n);
        *self = rest;
        Bytes::copy_from_slice(head)
    }
}

/// Write cursor for building messages. Implemented for `Vec<u8>`,
/// which grows, and for `&mut [u8]`, which fills the slice from the
/// front and panics past its end.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for &mut [u8] {
    fn put_slice(&mut self, src: &[u8]) {
        let (head, rest) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_and_equality() {
        let a = Bytes::from_static(b"hello");
        let b = Bytes::from(b"hello".to_vec());
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert_eq!(&a[..2], b"he");
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn builder_writes_little_endian() {
        let put = |b: &mut dyn BufMut| {
            b.put_u8(0xAB);
            b.put_u32_le(0x0102_0304);
            b.put_u64_le(1);
            b.put_slice(b"xy");
        };
        let want = [0xAB, 4, 3, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, b'x', b'y'];
        let mut v = Vec::new();
        put(&mut v);
        assert_eq!(v, want);
        let b = Bytes::build(want.len(), |mut s| put(&mut s));
        assert_eq!(&b[..], &want[..]);
        let long = Bytes::build(1000, |s| s[999] = 7);
        assert_eq!((long.len(), long[998], long[999]), (1000, 0, 7));
    }

    #[test]
    fn slice_buf_advances() {
        let data = [7u8, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9, 9];
        let mut buf = &data[..];
        assert_eq!(buf.get_u8(), 7);
        assert_eq!(buf.get_u32_le(), 1);
        assert_eq!(buf.get_u64_le(), 2);
        assert_eq!(buf.remaining(), 2);
        let tail = buf.copy_to_bytes(2);
        assert_eq!(&tail[..], &[9, 9]);
        assert!(!buf.has_remaining());
    }
}
