//! Length-prefixed framing over a byte stream.
//!
//! Frames are `u32` little-endian length + payload, the same payload
//! bytes the in-memory transport carries, so the protocol stack is
//! transport-agnostic. A sanity cap rejects absurd lengths from corrupt
//! or hostile peers before any allocation happens.
//!
//! The blocking [`read_frame`]/[`write_frame`] pair frames the hello
//! exchange on outbound dials and serves as the oracle the incremental
//! [`crate::wire::FrameDecoder`] is property-tested against. The
//! sockets themselves live in [`crate::poll`].

use crate::wire;
use bytes::Bytes;
use std::io::{self, Read, Write};

/// Maximum accepted frame payload (64 MiB), matching the codec's field
/// cap.
pub const MAX_FRAME_LEN: u32 = wire::MAX_FRAME_LEN;

/// Writes one frame to `w`.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME_LEN`] with
/// [`io::ErrorKind::InvalidInput`].
///
/// # Examples
///
/// ```
/// use vl_net::tcp::{read_frame, write_frame};
/// use bytes::Bytes;
///
/// let mut buf = Vec::new();
/// write_frame(&mut buf, &Bytes::from_static(b"ping"))?;
/// let got = read_frame(&mut buf.as_slice())?;
/// assert_eq!(&got[..], b"ping");
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write_frame<W: Write>(w: &mut W, payload: &Bytes) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_LEN",
        ));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame from `r`, blocking until complete.
///
/// # Errors
///
/// Propagates I/O errors (including [`io::ErrorKind::UnexpectedEof`] on
/// a half-frame); rejects lengths over [`MAX_FRAME_LEN`] with
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Bytes> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Bytes::from(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    #[test]
    fn roundtrip_through_a_buffer() {
        let frames: Vec<Bytes> = vec![
            Bytes::new(),
            Bytes::from_static(b"a"),
            Bytes::from(vec![0xAB; 100_000]),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = buf.as_slice();
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap(), *f);
        }
    }

    #[test]
    fn half_frame_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Bytes::from_static(b"hello")).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut buf.as_slice())
            .and_then(|_| read_frame(&mut [].as_slice()))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn absurd_length_rejected_before_allocation() {
        let buf = u32::MAX.to_le_bytes();
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn loopback_tcp_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let frame = read_frame(&mut stream).unwrap();
            write_frame(&mut stream, &frame).unwrap(); // echo
        });
        let mut client = TcpStream::connect(addr).unwrap();
        write_frame(&mut client, &Bytes::from_static(b"echo me")).unwrap();
        let back = read_frame(&mut client).unwrap();
        assert_eq!(&back[..], b"echo me");
        server.join().unwrap();
    }

    #[test]
    fn many_frames_interleave_correctly_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..50 {
                let f = read_frame(&mut stream).unwrap();
                write_frame(&mut stream, &f).unwrap();
            }
        });
        let mut client = TcpStream::connect(addr).unwrap();
        for i in 0..50u32 {
            let payload = Bytes::from(i.to_le_bytes().to_vec());
            write_frame(&mut client, &payload).unwrap();
            assert_eq!(read_frame(&mut client).unwrap(), payload);
        }
        server.join().unwrap();
    }
}
