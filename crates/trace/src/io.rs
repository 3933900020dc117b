//! Binary serialization of traces, whole-trace and streaming.
//!
//! A compact little-endian format (`GRTR` magic, version 1) so traces can
//! be generated once and replayed across runs or shared between tools:
//!
//! ```text
//! "GRTR" | u32 version | u32 app-name bytes | app name (UTF-8)
//! u32 frame | u64 access count | accesses...
//! ```
//!
//! Each access is 10 bytes: `u64` byte address, `u8` stream, `u8` write
//! flag.
//!
//! This module is the only code that knows the layout. One function
//! encodes the header and one decodes it; records are written by
//! [`write`] / [`TraceWriter`] and read by one decoder, [`ChunkedReader`]:
//!
//! * [`write`] — a whole, materialized trace,
//! * [`TraceWriter`] — incremental writing (the access count is patched in
//!   at [`TraceWriter::finish`]) so a trace can be streamed to disk without
//!   ever existing in memory,
//! * [`ChunkedReader`] — a bounded-memory [`AccessSource`] that replays a
//!   trace file chunk by chunk (peak memory is the chunk capacity, not the
//!   trace length), or drains it whole with [`ChunkedReader::read_trace`].
//!
//! Every malformation the decoder finds is one of [`ImportError`]'s typed
//! variants, carried inside an `InvalidData` [`io::Error`] where the
//! signature is `io::Result`; [`ImportError::from`] recovers the variant.
//! [`crate::import`] adds the checks that only apply to external files.
//!
//! A trace file may have a *next-use sidecar* (`GRNU` magic, conventionally
//! a `.nu` file next to the `.grtr`) carrying the Belady next-use
//! annotation — one `u64` per access — written by [`write_next_use`] and
//! consumed whole by [`read_next_use`] or streamed alongside the trace via
//! [`ChunkedReader::with_next_use`].

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Access, AccessSource, Chunk, ImportError, StreamId, Trace};

const MAGIC: &[u8; 4] = b"GRTR";
const VERSION: u32 = 1;
const NU_MAGIC: &[u8; 4] = b"GRNU";
const NU_VERSION: u32 = 1;
/// Bytes of one serialized access record.
const RECORD_BYTES: usize = 10;

/// Default [`ChunkedReader`] chunk capacity, in accesses (64 Ki accesses
/// ≈ 512 KiB resident once decoded).
pub const DEFAULT_CHUNK: usize = 1 << 16;

fn stream_from_code(code: u8) -> Option<StreamId> {
    StreamId::ALL.get(usize::from(code)).copied()
}

/// Writes the header of a trace of `count` accesses to frame `frame` of
/// `app`.
fn write_header<W: Write>(writer: &mut W, app: &str, frame: u32, count: u64) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(app.len() as u32).to_le_bytes())?;
    writer.write_all(app.as_bytes())?;
    writer.write_all(&frame.to_le_bytes())?;
    writer.write_all(&count.to_le_bytes())
}

#[inline]
fn write_record<W: Write>(writer: &mut W, a: &Access) -> io::Result<()> {
    // The stream and write bytes go in as one 16-bit store: two byte
    // stores that the copy into the buffer reads back as one 16-bit load
    // cannot be store-forwarded, which stalls every record.
    let tail = u16::from(a.stream_code()) | u16::from(a.write()) << 8;
    let mut record = [0u8; RECORD_BYTES];
    record[..8].copy_from_slice(&a.addr().to_le_bytes());
    record[8..].copy_from_slice(&tail.to_le_bytes());
    writer.write_all(&record)
}

/// Writes `trace` to `writer` in the binary format.
///
/// A mutable reference also works as the writer (`write(&mut file, ..)`).
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write<W: Write>(mut writer: W, trace: &Trace) -> io::Result<()> {
    write_header(&mut writer, trace.app(), trace.frame(), trace.len() as u64)?;
    trace.iter().try_for_each(|a| write_record(&mut writer, a))
}

/// The fixed metadata at the head of a trace file.
struct Header {
    app: String,
    frame: u32,
    count: u64,
}

/// Reads exactly `buf.len()` header bytes; a clean end of input is a
/// [`ImportError::BadHeader`] naming the `missing` field.
fn read_field<R: Read>(reader: &mut R, buf: &mut [u8], missing: &str) -> Result<(), ImportError> {
    match reader.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            Err(ImportError::BadHeader(missing.into()))
        }
        Err(e) => Err(ImportError::Io(e)),
    }
}

/// Decodes a trace header, leaving `reader` at the first record.
fn read_header<R: Read>(reader: &mut R) -> Result<Header, ImportError> {
    let mut magic = [0u8; 4];
    read_field(reader, &mut magic, "file shorter than the magic")?;
    if &magic != MAGIC {
        return Err(ImportError::BadMagic(magic));
    }
    let mut u32b = [0u8; 4];
    read_field(reader, &mut u32b, "missing version")?;
    let version = u32::from_le_bytes(u32b);
    if version != VERSION {
        return Err(ImportError::UnsupportedVersion(version));
    }
    read_field(reader, &mut u32b, "missing name length")?;
    let name_len = u32::from_le_bytes(u32b) as usize;
    if name_len > 4096 {
        return Err(ImportError::BadHeader(format!("app name length {name_len} exceeds 4096")));
    }
    let mut name = vec![0u8; name_len];
    read_field(reader, &mut name, "file ends inside the app name")?;
    let app = String::from_utf8(name)
        .map_err(|_| ImportError::BadHeader("app name is not UTF-8".into()))?;
    read_field(reader, &mut u32b, "missing frame index")?;
    let frame = u32::from_le_bytes(u32b);
    let mut u64b = [0u8; 8];
    read_field(reader, &mut u64b, "missing access count")?;
    Ok(Header { app, frame, count: u64::from_le_bytes(u64b) })
}

/// Writes a trace record by record, for producers that never hold the whole
/// trace: the header goes out immediately with a zero access count, and
/// [`TraceWriter::finish`] seeks back to patch in the real count — which is
/// why the writer must be seekable (a file, not a pipe).
///
/// # Example
///
/// ```
/// use grtrace::{io as trace_io, Access, StreamId};
///
/// # fn main() -> std::io::Result<()> {
/// let mut w = trace_io::TraceWriter::new(std::io::Cursor::new(Vec::new()), "demo", 3)?;
/// w.push(&Access::load(0x40, StreamId::Z))?;
/// let buf = w.finish()?.into_inner();
/// let back = trace_io::ChunkedReader::new(&buf[..], trace_io::DEFAULT_CHUNK)?.read_trace()?;
/// assert_eq!(back.len(), 1);
/// assert_eq!(back.frame(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    writer: W,
    count_pos: u64,
    count: u64,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Writes the header for frame `frame` of `app` and prepares for
    /// record-by-record appends.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    pub fn new(mut writer: W, app: &str, frame: u32) -> io::Result<Self> {
        write_header(&mut writer, app, frame, 0)?;
        // The count is the header's last field.
        let count_pos = writer.stream_position()? - 8;
        Ok(TraceWriter { writer, count_pos, count: 0 })
    }

    /// Appends one access record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    #[inline]
    pub fn push(&mut self, access: &Access) -> io::Result<()> {
        write_record(&mut self.writer, access)?;
        self.count += 1;
        Ok(())
    }

    /// Accesses written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Patches the access count into the header and returns the writer
    /// (positioned at the end of the stream).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.writer.seek(SeekFrom::Start(self.count_pos))?;
        self.writer.write_all(&self.count.to_le_bytes())?;
        self.writer.seek(SeekFrom::End(0))?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// Drains `source` into `writer` in the binary format through a
/// [`TraceWriter`], returning the number of accesses written. The source
/// is never materialized.
///
/// # Errors
///
/// Returns any error from the source or the underlying writer.
pub fn write_source<W: Write + Seek, S: AccessSource>(
    writer: W,
    source: &mut S,
    app: &str,
    frame: u32,
) -> io::Result<u64> {
    let mut out = TraceWriter::new(writer, app, frame)?;
    while source.advance()? {
        for a in source.chunk().accesses {
            out.push(a)?;
        }
    }
    let count = out.count();
    out.finish()?;
    Ok(count)
}

/// The exact byte length of a well-formed trace file whose header names
/// `app` and declares `count` accesses — what a cache compares a file's
/// length with to catch a truncated body. `None` when `count` is too large
/// for any file to hold, as in a damaged header.
pub fn trace_file_len(app: &str, count: u64) -> Option<u64> {
    // magic, version, name length, name, frame, count, then the records.
    let header = (4 + 4 + 4 + app.len() + 4 + 8) as u64;
    (RECORD_BYTES as u64).checked_mul(count)?.checked_add(header)
}

/// The exact byte length of a well-formed next-use sidecar declaring
/// `count` entries; `None` when no file could hold that many.
pub fn nu_file_len(count: u64) -> Option<u64> {
    8u64.checked_mul(count)?.checked_add(16)
}

/// Writes a next-use sidecar (`GRNU` format): the Belady annotation for a
/// trace, one `u64` per access, `u64::MAX` = never reused.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_next_use<W: Write>(mut writer: W, next_uses: &[u64]) -> io::Result<()> {
    writer.write_all(NU_MAGIC)?;
    writer.write_all(&NU_VERSION.to_le_bytes())?;
    writer.write_all(&(next_uses.len() as u64).to_le_bytes())?;
    for &n in next_uses {
        writer.write_all(&n.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a next-use sidecar written by [`write_next_use`].
///
/// # Errors
///
/// Returns `InvalidData` for a bad magic number or unsupported version, and
/// any I/O error from the underlying reader.
pub fn read_next_use<R: Read>(mut reader: R) -> io::Result<Vec<u64>> {
    let count = read_nu_header(&mut reader)?;
    let mut out = Vec::with_capacity(count as usize);
    let mut b = [0u8; 8];
    for _ in 0..count {
        reader.read_exact(&mut b)?;
        out.push(u64::from_le_bytes(b));
    }
    Ok(out)
}

/// Reads a `.nu` sidecar header, returning the annotation count and leaving
/// the reader positioned at the first entry.
pub fn read_nu_header<R: Read>(reader: &mut R) -> io::Result<u64> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != NU_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a GRNU sidecar"));
    }
    let mut u32b = [0u8; 4];
    reader.read_exact(&mut u32b)?;
    let version = u32::from_le_bytes(u32b);
    if version != NU_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported next-use sidecar version {version}"),
        ));
    }
    let mut u64b = [0u8; 8];
    reader.read_exact(&mut u64b)?;
    Ok(u64::from_le_bytes(u64b))
}

/// Writes `path` without ever exposing a partial file: `fill` writes a
/// temp file in the same directory whose name is unique to this process
/// and call, which is flushed and then renamed over `path`. A concurrent
/// reader — another thread, or another process sharing the directory —
/// sees either the previous file or the complete new one. On any error the
/// temp file is removed. Temp names end in `.tmp`, never in the target's
/// own extension, so a directory scan by extension skips them.
///
/// # Errors
///
/// Returns any I/O error from creating, filling, flushing or renaming the
/// temp file.
pub fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().expect("atomic writes name a file").to_os_string();
    name.push(format!(".{}-{}.tmp", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    let tmp = path.with_file_name(name);
    let written = (|| {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        fill(&mut writer)?;
        writer.flush()?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// A bounded-memory [`AccessSource`] over the `GRTR` disk format.
///
/// The header is parsed eagerly (so [`ChunkedReader::app`] and friends work
/// before the first chunk); records are then decoded `chunk_capacity`
/// accesses at a time. Peak resident memory is
/// `chunk_capacity × (10 raw + 8 decoded [+ 8 annotation]) bytes`
/// regardless of the trace length — this is what lets full-scale
/// (`GR_SCALE=1`) frames replay on small machines.
///
/// # Example
///
/// ```
/// use grtrace::{io as trace_io, Access, AccessSource, StreamId, Trace};
///
/// # fn main() -> std::io::Result<()> {
/// let mut t = Trace::new("demo", 0);
/// for i in 0..100u64 {
///     t.push(Access::load(i * 64, StreamId::Texture));
/// }
/// let mut buf = Vec::new();
/// trace_io::write(&mut buf, &t)?;
///
/// let mut src = trace_io::ChunkedReader::new(&buf[..], 32)?;
/// assert_eq!(src.app(), "demo");
/// let mut n = 0;
/// while src.advance()? {
///     assert!(src.chunk().accesses.len() <= 32);
///     n += src.chunk().accesses.len();
/// }
/// assert_eq!(n, 100);
/// # Ok(())
/// # }
/// ```
pub struct ChunkedReader<R> {
    reader: R,
    /// Streaming next-use sidecar, consumed in lock-step with the records.
    next_use: Option<Box<dyn Read + Send>>,
    app: String,
    frame: u32,
    total: u64,
    consumed: u64,
    chunk_cap: usize,
    accesses: Vec<Access>,
    next_uses: Vec<u64>,
    raw: Vec<u8>,
}

impl<R: Read> ChunkedReader<R> {
    /// Parses the trace header from `reader` and prepares chunked decoding
    /// with at most `chunk_capacity` accesses resident at once.
    ///
    /// # Errors
    ///
    /// Returns an `InvalidData` error carrying the [`ImportError`] for a
    /// malformed header, and any I/O error from the underlying reader.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_capacity` is zero.
    pub fn new(mut reader: R, chunk_capacity: usize) -> io::Result<Self> {
        assert!(chunk_capacity > 0, "chunk capacity must be non-zero");
        let header = read_header(&mut reader)?;
        Ok(ChunkedReader {
            reader,
            next_use: None,
            app: header.app,
            frame: header.frame,
            total: header.count,
            consumed: 0,
            chunk_cap: chunk_capacity,
            accesses: Vec::new(),
            next_uses: Vec::new(),
            raw: Vec::new(),
        })
    }

    /// Attaches a next-use sidecar stream (`GRNU` format); its annotation
    /// is then decoded alongside each chunk and exposed via
    /// [`Chunk::next_uses`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a malformed sidecar header or when the
    /// sidecar's entry count disagrees with the trace's access count.
    pub fn with_next_use(mut self, reader: impl Read + Send + 'static) -> io::Result<Self> {
        let mut reader = Box::new(reader);
        let count = read_nu_header(&mut reader)?;
        if count != self.total {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("next-use sidecar has {count} entries for {} accesses", self.total),
            ));
        }
        self.next_use = Some(reader);
        Ok(self)
    }

    /// Application name from the trace header.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Frame number from the trace header.
    pub fn frame(&self) -> u32 {
        self.frame
    }

    /// Accesses not yet produced.
    pub fn remaining(&self) -> u64 {
        self.total - self.consumed
    }

    /// The configured chunk capacity, in accesses.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_cap
    }

    /// Decodes every remaining record into one [`Trace`] named by the
    /// header.
    ///
    /// # Errors
    ///
    /// As [`AccessSource::advance`].
    pub fn read_trace(&mut self) -> io::Result<Trace> {
        // A damaged header can declare any count; reserve at most 16 Mi
        // accesses up front and let the body prove the rest.
        let cap = self.remaining().min(1 << 24) as usize;
        let mut trace = Trace::with_capacity(self.app.clone(), self.frame, cap);
        while self.advance()? {
            for &a in &self.accesses {
                trace.push(a);
            }
        }
        Ok(trace)
    }

    /// The underlying reader, positioned after the last record decoded.
    pub fn into_inner(self) -> R {
        self.reader
    }
}

impl<R: Read> AccessSource for ChunkedReader<R> {
    /// # Errors
    ///
    /// A truncated body, an unknown stream code or an address no
    /// [`Access`] can hold (at or above [`Access::ADDR_LIMIT`]) is an
    /// `InvalidData` error carrying [`ImportError::TruncatedBody`] (with
    /// the whole records present), [`ImportError::BadStreamCode`] or
    /// [`ImportError::AddressOutOfRange`].
    fn advance(&mut self) -> io::Result<bool> {
        let n = self.remaining().min(self.chunk_cap as u64) as usize;
        if n == 0 {
            self.accesses.clear();
            self.next_uses.clear();
            return Ok(false);
        }
        self.raw.clear();
        self.raw.reserve(n * RECORD_BYTES);
        self.reader.by_ref().take((n * RECORD_BYTES) as u64).read_to_end(&mut self.raw)?;
        let whole = self.raw.len() / RECORD_BYTES;
        self.accesses.clear();
        for (i, rec) in self.raw.chunks_exact(RECORD_BYTES).enumerate() {
            let Some(stream) = stream_from_code(rec[8]) else {
                let index = self.consumed + i as u64;
                return Err(ImportError::BadStreamCode { index, code: rec[8] }.into());
            };
            let addr = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
            if addr >= Access::ADDR_LIMIT {
                let index = self.consumed + i as u64;
                return Err(ImportError::AddressOutOfRange { index, addr }.into());
            }
            self.accesses.push(Access::new(addr, stream, rec[9] != 0));
        }
        if whole < n {
            let got = self.consumed + whole as u64;
            return Err(ImportError::TruncatedBody { expected: self.total, got }.into());
        }
        if let Some(nu) = self.next_use.as_mut() {
            self.raw.resize(n * 8, 0);
            nu.read_exact(&mut self.raw)?;
            self.next_uses.clear();
            self.next_uses.extend(
                self.raw
                    .chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes"))),
            );
        }
        self.consumed += n as u64;
        Ok(true)
    }

    fn chunk(&self) -> Chunk<'_> {
        Chunk {
            accesses: &self.accesses,
            next_uses: self.next_use.is_some().then_some(&self.next_uses[..]),
        }
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

impl<R> std::fmt::Debug for ChunkedReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedReader")
            .field("app", &self.app)
            .field("frame", &self.frame)
            .field("total", &self.total)
            .field("consumed", &self.consumed)
            .field("chunk_cap", &self.chunk_cap)
            .field("annotated", &self.next_use.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains serialized `bytes` through the one decoder.
    fn drain(bytes: &[u8]) -> Result<Trace, ImportError> {
        Ok(ChunkedReader::new(bytes, DEFAULT_CHUNK)?.read_trace()?)
    }

    fn sample() -> Trace {
        let mut t = Trace::new("Röntgen", 42);
        for (i, s) in StreamId::ALL.iter().enumerate() {
            t.push(Access::new(i as u64 * 1000, *s, i % 2 == 0));
        }
        t
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        write(&mut buf, &t).unwrap();
        assert_eq!(drain(&buf).unwrap(), t);
    }

    /// A failed atomic write leaves the previous file and no temp file.
    #[test]
    fn failed_atomic_write_keeps_the_old_file() {
        let dir = std::env::temp_dir().join(format!("grtrace-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        write_atomic(&path, |w| w.write_all(b"old")).unwrap();
        let failed = write_atomic(&path, |w| {
            w.write_all(b"half of the new")?;
            Err(io::Error::other("fill failed"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "temp file left behind");
        write_atomic(&path, |w| w.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        std::fs::remove_dir_all(dir).ok();
    }

    /// The streamed writer emits the whole-trace format byte for byte, and
    /// the expected-length helpers agree with what the writers produce.
    #[test]
    fn streamed_write_matches_whole_write() {
        let t = sample();
        let mut whole = Vec::new();
        write(&mut whole, &t).unwrap();
        let mut streamed = io::Cursor::new(Vec::new());
        let n = write_source(&mut streamed, &mut t.source(), t.app(), t.frame()).unwrap();
        assert_eq!(n, t.len() as u64);
        assert_eq!(streamed.into_inner(), whole);
        assert_eq!(trace_file_len(t.app(), n), Some(whole.len() as u64));
        assert_eq!(trace_file_len(t.app(), u64::MAX), None);
        let mut nu = Vec::new();
        write_next_use(&mut nu, &[1, 2, u64::MAX]).unwrap();
        assert_eq!(nu_file_len(3), Some(nu.len() as u64));
        assert_eq!(nu_file_len(u64::MAX), None);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new("", 0);
        let mut buf = Vec::new();
        write(&mut buf, &t).unwrap();
        assert_eq!(drain(&buf).unwrap(), t);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = ChunkedReader::new(&b"NOPE........."[..], 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(matches!(ImportError::from(err), ImportError::BadMagic(m) if &m == b"NOPE"));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write(&mut buf, &Trace::new("x", 0)).unwrap();
        buf[4] = 99;
        assert!(matches!(drain(&buf), Err(ImportError::UnsupportedVersion(99))));
    }

    #[test]
    fn rejects_bad_stream_code() {
        let mut buf = Vec::new();
        write(&mut buf, &sample()).unwrap();
        // Corrupt the first access's stream byte.
        let header = 4 + 4 + 4 + "Röntgen".len() + 4 + 8;
        buf[header + 8] = 200;
        assert!(matches!(drain(&buf), Err(ImportError::BadStreamCode { index: 0, code: 200 })));
    }

    #[test]
    fn rejects_truncated_input() {
        let mut buf = Vec::new();
        write(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(drain(&buf), Err(ImportError::TruncatedBody { .. })));
    }

    /// Advances `src` until it fails.
    fn first_error(mut src: ChunkedReader<&[u8]>) -> io::Error {
        loop {
            match src.advance() {
                Ok(true) => {}
                Ok(false) => panic!("the damaged body decoded cleanly"),
                Err(e) => return e,
            }
        }
    }

    /// The decoder types both body faults: a truncation reports the exact
    /// count of whole records present, and a bad stream code the index of
    /// its record, wherever the chunk boundaries fall.
    #[test]
    fn chunked_reader_types_body_errors() {
        let t = big_sample(50);
        let mut buf = Vec::new();
        write(&mut buf, &t).unwrap();
        let body = buf.len() - 50 * RECORD_BYTES;
        for chunk in [1, 7, 16, 64] {
            for cut in [1, 9, 10, 11, 255] {
                let short = &buf[..buf.len() - cut];
                let got = ((short.len() - body) / RECORD_BYTES) as u64;
                let err = first_error(ChunkedReader::new(short, chunk).unwrap());
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                match ImportError::from(err) {
                    ImportError::TruncatedBody { expected: 50, got: g } if g == got => {}
                    other => panic!("chunk {chunk} cut {cut}: {other:?}"),
                }
            }
            let mut bad = buf.clone();
            bad[body + 37 * RECORD_BYTES + 8] = 9;
            let err = first_error(ChunkedReader::new(&bad[..], chunk).unwrap());
            assert!(matches!(
                ImportError::from(err),
                ImportError::BadStreamCode { index: 37, code: 9 }
            ));
        }
    }

    /// A record whose address no `Access` can hold is a typed error
    /// naming its record, not a panic, wherever the chunk boundaries fall.
    #[test]
    fn chunked_reader_rejects_unpackable_addresses() {
        let mut buf = Vec::new();
        write(&mut buf, &big_sample(50)).unwrap();
        let body = buf.len() - 50 * RECORD_BYTES;
        for addr in [Access::ADDR_LIMIT, u64::MAX] {
            let mut bad = buf.clone();
            let rec = body + 23 * RECORD_BYTES;
            bad[rec..rec + 8].copy_from_slice(&addr.to_le_bytes());
            for chunk in [1, 7, 64] {
                let err = first_error(ChunkedReader::new(&bad[..], chunk).unwrap());
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                match ImportError::from(err) {
                    ImportError::AddressOutOfRange { index: 23, addr: a } if a == addr => {}
                    other => panic!("chunk {chunk} addr {addr:#x}: {other:?}"),
                }
            }
        }
    }

    fn big_sample(n: u64) -> Trace {
        let mut t = Trace::new("chunky", 9);
        for i in 0..n {
            let stream = StreamId::ALL[(i % StreamId::ALL.len() as u64) as usize];
            t.push(Access::new(i * 64, stream, i % 3 == 0));
        }
        t
    }

    #[test]
    fn trace_writer_matches_whole_trace_write() {
        let t = sample();
        let mut whole = Vec::new();
        write(&mut whole, &t).unwrap();

        let mut w = TraceWriter::new(io::Cursor::new(Vec::new()), t.app(), t.frame()).unwrap();
        for a in t.iter() {
            w.push(a).unwrap();
        }
        assert_eq!(w.count(), t.len() as u64);
        let streamed = w.finish().unwrap().into_inner();
        assert_eq!(streamed, whole, "incremental writing must produce identical bytes");
    }

    #[test]
    fn chunked_reader_reproduces_read_for_any_chunk_size() {
        let t = big_sample(1000);
        let mut buf = Vec::new();
        write(&mut buf, &t).unwrap();
        for chunk in [1, 7, 256, 1000, 5000] {
            let mut src = ChunkedReader::new(&buf[..], chunk).unwrap();
            assert_eq!(src.app(), "chunky");
            assert_eq!(src.frame(), 9);
            assert_eq!(src.len_hint(), Some(1000));
            let mut out = Vec::new();
            while src.advance().unwrap() {
                assert!(src.chunk().accesses.len() <= chunk);
                assert!(src.chunk().next_uses.is_none());
                out.extend_from_slice(src.chunk().accesses);
            }
            assert_eq!(out, t.accesses(), "chunk size {chunk}");
            assert_eq!(src.remaining(), 0);
        }
    }

    #[test]
    fn chunked_reader_streams_next_use_sidecar() {
        let t = big_sample(100);
        let nu: Vec<u64> = (0..100u64).map(|i| if i % 4 == 0 { u64::MAX } else { i + 1 }).collect();
        let mut buf = Vec::new();
        write(&mut buf, &t).unwrap();
        let mut nubuf = Vec::new();
        write_next_use(&mut nubuf, &nu).unwrap();

        let mut src = ChunkedReader::new(&buf[..], 33)
            .unwrap()
            .with_next_use(io::Cursor::new(nubuf))
            .unwrap();
        let (mut accs, mut uses) = (Vec::new(), Vec::new());
        while src.advance().unwrap() {
            let c = src.chunk();
            let chunk_nu = c.next_uses.expect("annotated chunks");
            assert_eq!(chunk_nu.len(), c.accesses.len());
            accs.extend_from_slice(c.accesses);
            uses.extend_from_slice(chunk_nu);
        }
        assert_eq!(accs, t.accesses());
        assert_eq!(uses, nu);
    }

    #[test]
    fn sidecar_count_mismatch_is_rejected() {
        let t = big_sample(10);
        let mut buf = Vec::new();
        write(&mut buf, &t).unwrap();
        let mut nubuf = Vec::new();
        write_next_use(&mut nubuf, &[1, 2, 3]).unwrap();
        let err = ChunkedReader::new(&buf[..], 8).unwrap().with_next_use(io::Cursor::new(nubuf));
        assert_eq!(err.err().map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
    }

    #[test]
    fn next_use_sidecar_roundtrips() {
        let nu = vec![0, u64::MAX, 42, 7];
        let mut buf = Vec::new();
        write_next_use(&mut buf, &nu).unwrap();
        assert_eq!(read_next_use(&buf[..]).unwrap(), nu);
    }

    #[test]
    fn next_use_sidecar_rejects_bad_magic() {
        let err = read_next_use(&b"NOPE...................."[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn chunked_reader_rejects_truncated_records() {
        let t = big_sample(50);
        let mut buf = Vec::new();
        write(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 25);
        let mut src = ChunkedReader::new(&buf[..], 16).unwrap();
        let mut result = Ok(true);
        while matches!(result, Ok(true)) {
            result = src.advance();
        }
        assert!(result.is_err(), "truncation must surface as an error");
    }

    #[test]
    fn stream_codes_are_stable() {
        // The on-disk format depends on these indices; breaking them
        // breaks old traces.
        let stream_code = |s| Access::load(0, s).stream_code();
        assert_eq!(stream_code(StreamId::Vertex), 0);
        assert_eq!(stream_code(StreamId::Display), 7);
        assert_eq!(stream_from_code(8), Some(StreamId::Other));
        assert_eq!(stream_from_code(9), None);
    }
}
