//! Validating `.gtrace` import.
//!
//! [`crate::trace_io::read`] trusts its input — it was written for files
//! this harness produced moments earlier. External traces (captured on
//! other machines, converted from CPU/graph-analytics LLC dumps, or
//! hand-built) go through [`import`] instead: every header field and
//! record is checked, and each failure mode is a distinct
//! [`ImportError`] variant, so tools can report *what* is wrong with a
//! file rather than a generic "invalid data".
//!
//! The accepted format is exactly the GRTR format `trace_io::write`
//! emits; a round trip (export → import → export) is byte-identical.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

use crate::io as trace_io;
use crate::{Access, Trace};

/// Exclusive upper bound on imported block addresses (64 TiB of physical
/// address space — far above anything the simulator allocates, low enough
/// to catch garbage bytes parsed as addresses).
pub const MAX_IMPORT_ADDR: u64 = 1 << 46;

/// Why a `.gtrace` import failed. Each variant is one distinct way a file
/// can be malformed.
#[derive(Debug)]
pub enum ImportError {
    /// The underlying reader failed (not a format problem).
    Io(io::Error),
    /// The file does not start with the `GRTR` magic.
    BadMagic([u8; 4]),
    /// The format version is not one this build understands.
    UnsupportedVersion(u32),
    /// The header is malformed (bad name length or non-UTF-8 name).
    BadHeader(String),
    /// The file ended before the header said it would.
    TruncatedBody {
        /// Records the header promised.
        expected: u64,
        /// Records actually present.
        got: u64,
    },
    /// The header declares zero accesses — an empty trace replays as a
    /// no-op and is always a tooling mistake.
    ZeroAccesses,
    /// Record `index` carries a stream code outside the known streams.
    BadStreamCode {
        /// Zero-based record index.
        index: u64,
        /// The offending code byte.
        code: u8,
    },
    /// Record `index` carries an address outside the simulated physical
    /// space (zero, or at/above [`MAX_IMPORT_ADDR`]).
    AddressOutOfRange {
        /// Zero-based record index.
        index: u64,
        /// The offending byte address.
        addr: u64,
    },
    /// Bytes follow the last declared record.
    TrailingBytes {
        /// Records the header declared (all of them were read).
        expected: u64,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Io(e) => write!(f, "I/O error: {e}"),
            ImportError::BadMagic(m) => {
                write!(f, "bad magic {m:?} (expected \"GRTR\"); not a .gtrace file")
            }
            ImportError::UnsupportedVersion(v) => {
                write!(f, "unsupported .gtrace version {v} (this build reads version 1)")
            }
            ImportError::BadHeader(why) => write!(f, "malformed header: {why}"),
            ImportError::TruncatedBody { expected, got } => {
                write!(f, "truncated body: header declares {expected} accesses, file holds {got}")
            }
            ImportError::ZeroAccesses => write!(f, "header declares zero accesses"),
            ImportError::BadStreamCode { index, code } => {
                write!(f, "record {index}: unknown stream code {code} (valid codes are 0..=8)")
            }
            ImportError::AddressOutOfRange { index, addr } => {
                write!(
                    f,
                    "record {index}: address {addr:#x} outside the simulated space \
                     (must be nonzero and below {MAX_IMPORT_ADDR:#x})"
                )
            }
            ImportError::TrailingBytes { expected } => {
                write!(f, "trailing bytes after the {expected} declared accesses")
            }
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ImportError {
    fn from(e: io::Error) -> Self {
        ImportError::Io(e)
    }
}

/// Reads exactly `buf.len()` bytes, mapping a clean EOF to the
/// caller-supplied truncation error.
fn read_exactly<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    on_eof: impl FnOnce() -> ImportError,
) -> Result<(), ImportError> {
    match reader.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(on_eof()),
        Err(e) => Err(ImportError::Io(e)),
    }
}

/// Imports and fully validates a `.gtrace` stream.
///
/// # Errors
///
/// An [`ImportError`] naming the first problem found; see the variant
/// docs for the checks performed.
///
/// # Example
///
/// ```
/// use grtrace::{import, io as trace_io, Access, StreamId, Trace};
///
/// let mut t = Trace::new("external", 0);
/// t.push(Access::load(0x4000, StreamId::Other));
/// let mut bytes = Vec::new();
/// trace_io::write(&mut bytes, &t).unwrap();
/// let back = import(&bytes[..]).unwrap();
/// assert_eq!(back, t);
///
/// assert!(import(&b"not a trace"[..]).is_err());
/// ```
pub fn import<R: Read>(mut reader: R) -> Result<Trace, ImportError> {
    let mut magic = [0u8; 4];
    read_exactly(&mut reader, &mut magic, || {
        ImportError::BadHeader("file shorter than the magic".into())
    })?;
    if &magic != trace_io::MAGIC {
        return Err(ImportError::BadMagic(magic));
    }
    let mut u32b = [0u8; 4];
    read_exactly(&mut reader, &mut u32b, || ImportError::BadHeader("missing version".into()))?;
    let version = u32::from_le_bytes(u32b);
    if version != trace_io::VERSION {
        return Err(ImportError::UnsupportedVersion(version));
    }
    read_exactly(&mut reader, &mut u32b, || ImportError::BadHeader("missing name length".into()))?;
    let name_len = u32::from_le_bytes(u32b) as usize;
    if name_len > 4096 {
        return Err(ImportError::BadHeader(format!("app name length {name_len} exceeds 4096")));
    }
    let mut name = vec![0u8; name_len];
    read_exactly(&mut reader, &mut name, || {
        ImportError::BadHeader("file ends inside the app name".into())
    })?;
    let app = String::from_utf8(name)
        .map_err(|_| ImportError::BadHeader("app name is not UTF-8".into()))?;
    read_exactly(&mut reader, &mut u32b, || ImportError::BadHeader("missing frame index".into()))?;
    let frame = u32::from_le_bytes(u32b);
    let mut u64b = [0u8; 8];
    read_exactly(&mut reader, &mut u64b, || ImportError::BadHeader("missing access count".into()))?;
    let count = u64::from_le_bytes(u64b);
    if count == 0 {
        return Err(ImportError::ZeroAccesses);
    }

    let mut trace = Trace::with_capacity(&app, frame, count.min(1 << 24) as usize);
    let mut rec = [0u8; trace_io::RECORD_BYTES];
    for index in 0..count {
        read_exactly(&mut reader, &mut rec, || ImportError::TruncatedBody {
            expected: count,
            got: index,
        })?;
        let addr = u64::from_le_bytes(rec[0..8].try_into().expect("8-byte slice"));
        let stream = trace_io::stream_from_code(rec[8])
            .ok_or(ImportError::BadStreamCode { index, code: rec[8] })?;
        if addr == 0 || addr >= MAX_IMPORT_ADDR {
            return Err(ImportError::AddressOutOfRange { index, addr });
        }
        let access =
            if rec[9] != 0 { Access::store(addr, stream) } else { Access::load(addr, stream) };
        trace.push(access);
    }
    let mut probe = [0u8; 1];
    match reader.read_exact(&mut probe) {
        Ok(()) => return Err(ImportError::TrailingBytes { expected: count }),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {}
        Err(e) => return Err(ImportError::Io(e)),
    }
    Ok(trace)
}

/// Imports and validates the `.gtrace` file at `path`.
///
/// # Errors
///
/// See [`import`]; open failures surface as [`ImportError::Io`].
pub fn import_file<P: AsRef<Path>>(path: P) -> Result<Trace, ImportError> {
    import(BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamId;

    fn sample_trace() -> Trace {
        let mut t = Trace::new("ext", 3);
        for i in 1..=64u64 {
            let stream = StreamId::ALL[(i % 9) as usize];
            if i % 3 == 0 {
                t.push(Access::store(i * 64, stream));
            } else {
                t.push(Access::load(i * 64, stream));
            }
        }
        t
    }

    fn sample_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        trace_io::write(&mut bytes, &sample_trace()).unwrap();
        bytes
    }

    #[test]
    fn round_trip_is_identical_and_reexports_identically() {
        let bytes = sample_bytes();
        let back = import(&bytes[..]).unwrap();
        assert_eq!(back, sample_trace());
        assert_eq!(back.app(), "ext");
        assert_eq!(back.frame(), 3);
        let mut again = Vec::new();
        trace_io::write(&mut again, &back).unwrap();
        assert_eq!(again, bytes, "export -> import -> export must be byte-identical");
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_bytes();
        bytes[0..4].copy_from_slice(b"NOPE");
        assert!(matches!(import(&bytes[..]), Err(ImportError::BadMagic(m)) if &m == b"NOPE"));
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut bytes = sample_bytes();
        bytes[4..8].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(import(&bytes[..]), Err(ImportError::UnsupportedVersion(7))));
    }

    #[test]
    fn truncated_body_reports_expected_and_got() {
        let bytes = sample_bytes();
        let cut = bytes.len() - 5;
        match import(&bytes[..cut]) {
            Err(ImportError::TruncatedBody { expected: 64, got: 63 }) => {}
            other => panic!("expected TruncatedBody {{64, 63}}, got {other:?}"),
        }
        // Truncation inside the header is a header error, not a panic.
        assert!(matches!(import(&bytes[..6]), Err(ImportError::BadHeader(_))));
        assert!(matches!(import(&bytes[..2]), Err(ImportError::BadHeader(_))));
    }

    #[test]
    fn zero_access_file_is_rejected() {
        let mut bytes = Vec::new();
        trace_io::write(&mut bytes, &Trace::new("empty", 0)).unwrap();
        assert!(matches!(import(&bytes[..]), Err(ImportError::ZeroAccesses)));
    }

    #[test]
    fn bad_stream_code_is_typed() {
        let mut bytes = sample_bytes();
        let body = bytes.len() - 64 * 10;
        bytes[body + 8] = 9; // first record's stream byte
        assert!(matches!(
            import(&bytes[..]),
            Err(ImportError::BadStreamCode { index: 0, code: 9 })
        ));
    }

    #[test]
    fn out_of_range_addresses_are_typed() {
        let mut bytes = sample_bytes();
        let body = bytes.len() - 64 * 10;
        // Second record's address -> above the cap.
        bytes[body + 10..body + 18].copy_from_slice(&(MAX_IMPORT_ADDR + 64).to_le_bytes());
        assert!(matches!(import(&bytes[..]), Err(ImportError::AddressOutOfRange { index: 1, .. })));
        // Zero address is equally invalid (address 0 is never allocated).
        let mut bytes = sample_bytes();
        bytes[body..body + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            import(&bytes[..]),
            Err(ImportError::AddressOutOfRange { index: 0, addr: 0 })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_bytes();
        bytes.push(0xAB);
        assert!(matches!(import(&bytes[..]), Err(ImportError::TrailingBytes { expected: 64 })));
    }

    /// Imports `bytes`, failing the test with `case` if the import panics
    /// or reports an untyped I/O error (a byte slice never fails to read,
    /// so `Io` would mean an end-of-file escaped its typed mapping).
    fn import_typed(bytes: &[u8], case: &str) -> Result<Trace, ImportError> {
        let result = std::panic::catch_unwind(|| import(bytes))
            .unwrap_or_else(|_| panic!("import panicked on {case}"));
        if let Err(ImportError::Io(e)) = &result {
            panic!("untyped I/O error on {case}: {e}");
        }
        result
    }

    /// Every truncation of a valid file is a typed error, and every
    /// single-bit flip is either accepted or a typed error — never a panic.
    #[test]
    fn truncations_and_bit_flips_never_panic() {
        let bytes = sample_bytes();
        for cut in 0..bytes.len() {
            let result = import_typed(&bytes[..cut], &format!("truncation at {cut}"));
            assert!(result.is_err(), "truncation at {cut} was accepted");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = import_typed(&flipped, &format!("flip of bit {bit}"));
        }
    }

    #[test]
    fn errors_display_actionable_messages() {
        let err = import(&b"XXXXrest"[..]).unwrap_err();
        assert!(err.to_string().contains("GRTR"), "{err}");
        let mut bytes = sample_bytes();
        bytes.truncate(bytes.len() - 1);
        let err = import(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("63"), "{err}");
    }
}
