//! Bit-exact binary state (de)serialisation for trainable modules.
//!
//! Checkpoint/resume requires restoring shared weights and optimizer
//! moments *exactly* — a resumed search must be byte-identical to an
//! uninterrupted one — so floating-point values round-trip through
//! [`f32::to_bits`] rather than any textual form. The format is a flat
//! little-endian byte stream with length-prefixed buffers; modules write
//! and read their buffers in a fixed order, and the reader validates every
//! length against the live module so a blob from a differently-shaped
//! network is rejected instead of silently mis-loaded.

use std::fmt;

/// Errors raised while restoring module state from bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The byte stream ended before the next field.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A length-prefixed buffer does not match the destination buffer.
    LengthMismatch {
        /// Length of the live destination buffer.
        expected: usize,
        /// Length recorded in the byte stream.
        found: usize,
    },
    /// Bytes remained after the module finished reading — the blob came
    /// from a larger network.
    TrailingBytes {
        /// Number of unread bytes.
        count: usize,
    },
    /// An optimizer step counter that the next training step could not
    /// advance without overflowing.
    StepCounter {
        /// The counter recorded in the byte stream.
        found: u64,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Truncated { needed, available } => {
                write!(
                    f,
                    "state truncated: needed {needed} bytes, {available} left"
                )
            }
            StateError::LengthMismatch { expected, found } => {
                write!(
                    f,
                    "state buffer length mismatch: module expects {expected}, blob has {found}"
                )
            }
            StateError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after module state")
            }
            StateError::StepCounter { found } => {
                write!(f, "optimizer step counter {found} cannot advance")
            }
        }
    }
}

impl std::error::Error for StateError {}

/// Appends module state to a flat byte buffer.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed `f32` buffer, bit-exactly.
    pub fn put_f32_slice(&mut self, values: &[f32]) {
        self.put_u64(values.len() as u64);
        for v in values {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Consumes the writer, yielding the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads module state back out of a flat byte buffer.
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Wraps a byte slice produced by a [`StateWriter`].
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let available = self.bytes.len() - self.pos;
        if available < n {
            return Err(StateError::Truncated {
                needed: n,
                available,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`StateError::Truncated`] if fewer than 8 bytes remain.
    #[expect(
        clippy::expect_used,
        reason = "chunk width fixed by take()/chunks_exact"
    )]
    pub fn take_u64(&mut self) -> Result<u64, StateError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed `f32` buffer into `dst`, requiring the
    /// recorded length to match `dst.len()` exactly.
    ///
    /// # Errors
    ///
    /// [`StateError::LengthMismatch`] on a shape disagreement,
    /// [`StateError::Truncated`] if the stream ends early.
    pub fn read_f32_slice(&mut self, dst: &mut [f32]) -> Result<(), StateError> {
        let found = self.take_u64()? as usize;
        if found != dst.len() {
            return Err(StateError::LengthMismatch {
                expected: dst.len(),
                found,
            });
        }
        let bytes = self.take(found * 4)?;
        #[expect(
            clippy::expect_used,
            reason = "chunk width fixed by take()/chunks_exact"
        )]
        for (d, chunk) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
            *d = f32::from_bits(u32::from_le_bytes(chunk.try_into().expect("4 bytes")));
        }
        Ok(())
    }

    /// Reads a length-prefixed `f32` buffer of whatever length the stream
    /// recorded (for buffers that legitimately vary, e.g. optimizer slots).
    ///
    /// # Errors
    ///
    /// [`StateError::Truncated`] if the stream ends early, or records more
    /// bytes than a buffer can hold.
    #[expect(
        clippy::expect_used,
        reason = "chunk width fixed by take()/chunks_exact"
    )]
    pub fn take_f32_vec(&mut self) -> Result<Vec<f32>, StateError> {
        let len = self.take_u64()? as usize;
        // No stream holds `usize::MAX` bytes, so a length whose byte count
        // overflows is truncation.
        let bytes = self.take(len.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|chunk| f32::from_bits(u32::from_le_bytes(chunk.try_into().expect("4 bytes"))))
            .collect())
    }

    /// Asserts the whole stream was consumed.
    ///
    /// # Errors
    ///
    /// [`StateError::TrailingBytes`] if unread bytes remain.
    pub fn finish(self) -> Result<(), StateError> {
        let count = self.bytes.len() - self.pos;
        if count != 0 {
            return Err(StateError::TrailingBytes { count });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trip_is_bit_exact() {
        let values = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, -3.25e-30, 1e30];
        let mut w = StateWriter::new();
        w.put_u64(7);
        w.put_f32_slice(&values);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.take_u64().unwrap(), 7);
        let mut out = [9.0f32; 6];
        r.read_f32_slice(&mut out).unwrap();
        r.finish().unwrap();
        for (a, b) in values.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut w = StateWriter::new();
        w.put_f32_slice(&[1.0, 2.0]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let mut dst = [0.0f32; 3];
        assert_eq!(
            r.read_f32_slice(&mut dst),
            Err(StateError::LengthMismatch {
                expected: 3,
                found: 2
            })
        );
    }

    #[test]
    fn truncation_rejected() {
        let mut w = StateWriter::new();
        w.put_f32_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..bytes.len() - 2]);
        let mut dst = [0.0f32; 3];
        assert!(matches!(
            r.read_f32_slice(&mut dst),
            Err(StateError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = StateWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        r.take_u64().unwrap();
        assert_eq!(r.finish(), Err(StateError::TrailingBytes { count: 8 }));
    }

    #[test]
    fn huge_recorded_length_is_truncation() {
        let mut w = StateWriter::new();
        w.put_u64(1 << 62);
        w.put_u64(0);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(
            r.take_f32_vec(),
            Err(StateError::Truncated {
                needed: usize::MAX,
                available: 8
            })
        );
    }

    #[test]
    fn variable_length_vec_round_trips() {
        let mut w = StateWriter::new();
        w.put_f32_slice(&[]);
        w.put_f32_slice(&[4.0, 5.0]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.take_f32_vec().unwrap(), Vec::<f32>::new());
        assert_eq!(r.take_f32_vec().unwrap(), vec![4.0, 5.0]);
        r.finish().unwrap();
    }
}
