//! Std-only, in-workspace implementation of the subset of the `bytes`
//! crate API this workspace uses.
//!
//! The build environment has no crates.io access, so the external `bytes`
//! crate cannot resolve; this crate keeps every `use bytes::…` call site
//! compiling unchanged. [`Bytes`] is a cheaply cloneable, immutable byte
//! buffer (`Arc<[u8]>` inside); [`BytesMut`] is a growable builder that
//! [`BytesMut::freeze`]s into one; [`Buf`]/[`BufMut`] are the minimal
//! cursor traits the codec needs.

#![warn(missing_docs)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes {
            data: Arc::from(&[][..]),
        }
    }

    /// Wraps a static slice (copied once; the real crate borrows, but the
    /// observable behavior is identical).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            data: Arc::from(bytes),
        }
    }

    /// Copies `bytes` into a new buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Bytes {
        Bytes {
            data: Arc::from(bytes),
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
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
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    /// One allocation, the `Arc`'s: the bytes are copied straight out of
    /// `v`, whatever its spare capacity, and its buffer is freed.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { data: Arc::from(v) }
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
        self.data[..] == other.data[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self.data[..] == other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.data.hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte builder that freezes into [`Bytes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
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

/// Write cursor for building messages.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);

    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
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
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(0xAB);
        m.put_u32_le(0x0102_0304);
        m.put_u64_le(1);
        m.put_slice(b"xy");
        let b = m.freeze();
        assert_eq!(
            &b[..],
            &[0xAB, 4, 3, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, b'x', b'y'][..]
        );
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
