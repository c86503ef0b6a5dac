//! Shared little-endian binary codec — the serialisation idioms `h2o-ckpt`
//! pioneered (length-prefixed byte strings, floats as IEEE-754 bit
//! patterns, bounds-checked decode with typed errors), extracted here so
//! the node transport's frames and the checkpoint files speak the same
//! byte dialect. `h2o-ckpt` re-wires its payload codec through this module;
//! the frame layer ([`crate::frame`]) builds its headers on it.
//!
//! The codec is deliberately boring: `u64`/`u32` little-endian, `f64` via
//! [`f64::to_bits`] (so round trips are bit-exact and determinism proofs
//! can compare CSVs byte-for-byte across processes), byte strings as a
//! `u64` length prefix followed by the raw bytes, and unsigned LEB128
//! varints for small integers that would waste most of a `u64`. Every
//! decode is bounds-checked and returns a typed [`WireError`] — never a
//! panic — on truncated or inconsistent input.

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over a byte slice: the workspace's standard content checksum
/// (checkpoint files and transport frames both end in one).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A decode failure. Deliberately small: callers that need richer error
/// vocabularies (`h2o-ckpt`'s `CkptError`, the transport's `ExecError`)
/// wrap these two cases into their own types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ends before the declared content does.
    Truncated,
    /// The input decoded inconsistently (absurd lengths, bad flags,
    /// trailing bytes).
    Corrupt(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Corrupt(why) => write!(f, "input corrupt: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian `u64` from an exactly-8-byte slice. Callers slice lengths
/// they have already bounds-checked; the typed error arm guards future
/// offset mistakes instead of an `expect`.
pub fn read_u64_le(chunk: &[u8]) -> Result<u64, WireError> {
    let arr: [u8; 8] = chunk.try_into().map_err(|_| WireError::Truncated)?;
    Ok(u64::from_le_bytes(arr))
}

/// Little-endian `u32` from an exactly-4-byte slice (see [`read_u64_le`]).
pub fn read_u32_le(chunk: &[u8]) -> Result<u32, WireError> {
    let arr: [u8; 4] = chunk.try_into().map_err(|_| WireError::Truncated)?;
    Ok(u32::from_le_bytes(arr))
}

/// Append-only encoder over a growable buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round
    /// trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends an unsigned LEB128 varint: seven bits per byte, lowest
    /// group first, the high bit set on every byte but the last.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// The encoded bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked cursor decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let end = self.pos.checked_add(8).ok_or(WireError::Truncated)?;
        let chunk = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        read_u64_le(chunk)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.pos.checked_add(4).ok_or(WireError::Truncated)?;
        let chunk = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        read_u32_le(chunk)
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an unsigned LEB128 varint (see [`Enc::varint`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if the input ends inside the varint;
    /// [`WireError::Corrupt`] for a value past `u64::MAX` or an encoding
    /// longer than the value needs (so every value has exactly one).
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
            self.pos += 1;
            let group = u64::from(byte & 0x7f);
            if shift == 63 && group > 1 {
                return Err(WireError::Corrupt("varint exceeds u64".into()));
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(WireError::Corrupt("overlong varint".into()));
                }
                return Ok(value);
            }
        }
        Err(WireError::Corrupt("varint exceeds u64".into()))
    }

    /// Reads a varint count that must not exceed the remaining bytes (see
    /// [`Dec::len`]): every counted item takes at least one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] or [`WireError::Corrupt`].
    pub fn varint_len(&mut self, what: &str) -> Result<usize, WireError> {
        let n = self.varint()?;
        if n > (self.bytes.len() - self.pos) as u64 {
            return Err(WireError::Corrupt(format!(
                "{what} count {n} exceeds payload"
            )));
        }
        Ok(n as usize)
    }

    /// Reads a `u64` count that must not exceed the remaining bytes —
    /// rejects absurd lengths *before* any allocation. `what` names the
    /// field in the error message.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] or [`WireError::Corrupt`].
    pub fn len(&mut self, what: &str) -> Result<usize, WireError> {
        let n = self.u64()?;
        if n > (self.bytes.len() - self.pos) as u64 {
            return Err(WireError::Corrupt(format!(
                "{what} length {n} exceeds payload"
            )));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte string into an owned buffer.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] or [`WireError::Corrupt`].
    pub fn bytes_vec(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.len("byte string")?;
        let end = self.pos + n;
        let chunk = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(chunk.to_vec())
    }

    /// Asserts the decoder consumed every byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] naming the trailing byte count otherwise.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(WireError::Corrupt(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_bit_exact() {
        let mut e = Enc::new();
        e.u64(u64::MAX);
        e.u32(0xDEAD_BEEF);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.bytes(b"shard job");
        let buf = e.into_vec();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.bytes_vec().unwrap(), b"shard job");
        d.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed() {
        let mut d = Dec::new(&[1, 2, 3]);
        assert_eq!(d.u64(), Err(WireError::Truncated));
        let mut d = Dec::new(&[1, 2]);
        assert_eq!(d.u32(), Err(WireError::Truncated));
    }

    #[test]
    fn absurd_lengths_are_rejected_before_allocation() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // declared length far past the buffer
        let buf = e.into_vec();
        let mut d = Dec::new(&buf);
        assert!(matches!(d.len("test"), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut e = Enc::new();
        e.u64(7);
        e.u32(9);
        let buf = e.into_vec();
        let mut d = Dec::new(&buf);
        d.u64().unwrap();
        assert!(matches!(d.finish(), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn varints_round_trip_at_every_group_boundary() {
        let values = [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            1 << 35,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut e = Enc::new();
        for v in values {
            e.varint(v);
        }
        let buf = e.into_vec();
        // 1+1+1+2+2+3+6+10+10 bytes: seven value bits per byte.
        assert_eq!(buf.len(), 36);
        let mut d = Dec::new(&buf);
        for v in values {
            assert_eq!(d.varint().unwrap(), v);
        }
        d.finish().unwrap();
    }

    #[test]
    fn malformed_varints_are_typed() {
        assert_eq!(Dec::new(&[0x80, 0x80]).varint(), Err(WireError::Truncated));
        // Zero as two bytes: decodable, but not the one encoding of 0.
        assert!(matches!(
            Dec::new(&[0x80, 0x00]).varint(),
            Err(WireError::Corrupt(_))
        ));
        // Ten bytes whose last group carries bits past 2^64.
        let mut past = [0xff; 10];
        past[9] = 0x02;
        assert!(matches!(
            Dec::new(&past).varint(),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            Dec::new(&[0xff; 11]).varint(),
            Err(WireError::Corrupt(_))
        ));
        let mut d = Dec::new(&[5, 1, 2]);
        assert!(matches!(d.varint_len("test"), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a 64-bit of the empty string is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
