//! Validating `.gtrace` import.
//!
//! External traces (captured on other machines, converted from CPU or
//! graph-analytics LLC dumps, or hand-built) enter through [`import`]. It
//! drains the one GRTR decoder, [`trace_io::ChunkedReader`], and adds the checks
//! that only apply at this boundary: a zero access count, addresses
//! outside the simulated space and bytes after the last record. Each
//! failure mode is a distinct [`ImportError`] variant — the decoder
//! reports the format ones too — so tools can report *what* is wrong
//! with a file rather than a generic "invalid data". [`validate`] runs the
//! same checks, chunk by chunk, without building the [`Trace`].
//!
//! The accepted format is exactly the GRTR format `trace_io::write`
//! emits; a round trip (export → import → export) is byte-identical.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

use crate::io as trace_io;
use crate::{Access, AccessSource, Trace};

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

/// Recovers the typed variant an `io::Result` API (such as
/// [`trace_io::ChunkedReader`]'s) carried; any other error is [`ImportError::Io`].
impl From<io::Error> for ImportError {
    fn from(e: io::Error) -> Self {
        if e.get_ref().is_some_and(|inner| inner.is::<ImportError>()) {
            let inner = e.into_inner().expect("checked above");
            *inner.downcast::<ImportError>().expect("checked above")
        } else {
            ImportError::Io(e)
        }
    }
}

/// Carries a format error through an `io::Result` API as `InvalidData`;
/// [`ImportError::Io`] unwraps to the error it holds.
impl From<ImportError> for io::Error {
    fn from(e: ImportError) -> Self {
        match e {
            ImportError::Io(e) => e,
            e => io::Error::new(io::ErrorKind::InvalidData, e),
        }
    }
}

/// Imports and fully validates a `.gtrace` stream.
///
/// # Errors
///
/// An [`ImportError`] naming the problem found; see the variant docs for
/// the checks performed.
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
pub fn import<R: Read>(reader: R) -> Result<Trace, ImportError> {
    check(
        reader,
        // A damaged header can declare any count; reserve at most 16 Mi
        // accesses up front and let the body prove the rest.
        |header| {
            let cap = header.remaining().min(1 << 24) as usize;
            Trace::with_capacity(header.app(), header.frame(), cap)
        },
        |trace, chunk| trace.extend(chunk.iter().copied()),
    )
}

/// The header of a `.gtrace` stream that passed every [`import`] check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Validated {
    /// Application name recorded in the header.
    pub app: String,
    /// Frame number recorded in the header.
    pub frame: u32,
    /// Access count recorded in the header (and present in the body).
    pub count: u64,
}

/// Checks a `.gtrace` stream exactly as [`import`] does, one decoder chunk
/// at a time, and keeps none of its accesses.
///
/// # Errors
///
/// The [`ImportError`] [`import`] would return for the same bytes.
pub fn validate<R: Read>(reader: R) -> Result<Validated, ImportError> {
    check(
        reader,
        |header| Validated {
            app: header.app().to_string(),
            frame: header.frame(),
            count: header.remaining(),
        },
        |_, _| {},
    )
}

/// The one check path of [`import`] and [`validate`]: decodes `reader`
/// chunk by chunk, checks each chunk's addresses, hands each checked chunk
/// to `add` on the value `start` made from the header, and finally checks
/// that nothing follows the last record.
fn check<R: Read, T>(
    reader: R,
    start: impl FnOnce(&trace_io::ChunkedReader<R>) -> T,
    mut add: impl FnMut(&mut T, &[Access]),
) -> Result<T, ImportError> {
    let mut source = trace_io::ChunkedReader::new(reader, trace_io::DEFAULT_CHUNK)?;
    let expected = source.remaining();
    if expected == 0 {
        return Err(ImportError::ZeroAccesses);
    }
    let mut out = start(&source);
    let out_of_range = |a: &Access| a.addr() == 0 || a.addr() >= MAX_IMPORT_ADDR;
    let mut index = 0;
    while source.advance()? {
        let chunk = source.chunk().accesses;
        if let Some(i) = chunk.iter().position(out_of_range) {
            let (index, addr) = (index + i as u64, chunk[i].addr());
            return Err(ImportError::AddressOutOfRange { index, addr });
        }
        add(&mut out, chunk);
        index += chunk.len() as u64;
    }
    match source.into_inner().read_exact(&mut [0u8; 1]) {
        Ok(()) => Err(ImportError::TrailingBytes { expected }),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(out),
        Err(e) => Err(ImportError::Io(e)),
    }
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

    /// `validate` accepts what `import` accepts, with the same header,
    /// and rejects the rest with the same error, on every truncation and
    /// single-bit flip of a valid file.
    #[test]
    fn validate_agrees_with_import() {
        let bytes = sample_bytes();
        let outcome = |b: &[u8]| {
            let header = |t: Trace| (t.app().to_string(), t.frame(), t.len() as u64);
            let imported = import(b).map(header).map_err(|e| e.to_string());
            let validated =
                validate(b).map(|v| (v.app, v.frame, v.count)).map_err(|e| e.to_string());
            (imported, validated)
        };
        let mut cases: Vec<Vec<u8>> = (0..=bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            cases.push(flipped);
        }
        for case in &cases {
            let (imported, validated) = outcome(case);
            assert_eq!(imported, validated, "{} bytes", case.len());
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
