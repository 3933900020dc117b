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
//! Three access paths share the format:
//!
//! * [`write`] / [`read`] — whole traces, materialized,
//! * [`TraceWriter`] — incremental writing (the access count is patched in
//!   at [`TraceWriter::finish`]) so a trace can be streamed to disk without
//!   ever existing in memory,
//! * [`ChunkedReader`] — a bounded-memory [`AccessSource`] that replays a
//!   trace file chunk by chunk; peak memory is the chunk capacity, not the
//!   trace length.
//!
//! A trace file may have a *next-use sidecar* (`GRNU` magic, conventionally
//! a `.nu` file next to the `.grtr`) carrying the Belady next-use
//! annotation — one `u64` per access — written by [`write_next_use`] and
//! consumed whole by [`read_next_use`] or streamed alongside the trace via
//! [`ChunkedReader::with_next_use`].

use std::io::{self, Read, Seek, SeekFrom, Write};

use crate::{Access, AccessSource, Chunk, StreamId, Trace};

pub(crate) const MAGIC: &[u8; 4] = b"GRTR";
pub(crate) const VERSION: u32 = 1;
const NU_MAGIC: &[u8; 4] = b"GRNU";
const NU_VERSION: u32 = 1;
/// Bytes of one serialized access record.
pub(crate) const RECORD_BYTES: usize = 10;

/// Default [`ChunkedReader`] chunk capacity, in accesses (64 Ki accesses
/// ≈ 1 MiB resident once decoded).
pub const DEFAULT_CHUNK: usize = 1 << 16;

fn stream_code(s: StreamId) -> u8 {
    s.index() as u8
}

pub(crate) fn stream_from_code(code: u8) -> Option<StreamId> {
    StreamId::ALL.get(usize::from(code)).copied()
}

/// Writes `trace` to `writer` in the binary format.
///
/// A mutable reference also works as the writer (`write(&mut file, ..)`).
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write<W: Write>(mut writer: W, trace: &Trace) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    let name = trace.app().as_bytes();
    writer.write_all(&(name.len() as u32).to_le_bytes())?;
    writer.write_all(name)?;
    writer.write_all(&trace.frame().to_le_bytes())?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    for a in trace.iter() {
        writer.write_all(&a.addr.to_le_bytes())?;
        writer.write_all(&[stream_code(a.stream), u8::from(a.write)])?;
    }
    Ok(())
}

/// Reads a trace previously written with [`write()`](fn@write).
///
/// # Errors
///
/// Returns `InvalidData` for a bad magic number, unsupported version, or
/// corrupt stream codes, and any I/O error from the underlying reader.
///
/// # Example
///
/// ```
/// use grtrace::{io as trace_io, Access, StreamId, Trace};
///
/// # fn main() -> std::io::Result<()> {
/// let mut t = Trace::new("demo", 7);
/// t.push(Access::load(0x40, StreamId::Texture));
/// let mut buf = Vec::new();
/// trace_io::write(&mut buf, &t)?;
/// let back = trace_io::read(&buf[..])?;
/// assert_eq!(back, t);
/// # Ok(())
/// # }
/// ```
pub fn read<R: Read>(mut reader: R) -> io::Result<Trace> {
    let header = read_header(&mut reader)?;
    let mut trace = Trace::with_capacity(header.app, header.frame, header.count as usize);
    let mut rec = [0u8; RECORD_BYTES];
    for _ in 0..header.count {
        reader.read_exact(&mut rec)?;
        trace.push(decode_record(&rec)?);
    }
    Ok(trace)
}

/// The fixed metadata at the head of a trace file.
struct Header {
    app: String,
    frame: u32,
    count: u64,
}

fn read_header<R: Read>(reader: &mut R) -> io::Result<Header> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a GRTR trace"));
    }
    let mut u32b = [0u8; 4];
    reader.read_exact(&mut u32b)?;
    let version = u32::from_le_bytes(u32b);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    reader.read_exact(&mut u32b)?;
    let name_len = u32::from_le_bytes(u32b) as usize;
    if name_len > 4096 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "app name too long"));
    }
    let mut name = vec![0u8; name_len];
    reader.read_exact(&mut name)?;
    let app = String::from_utf8(name).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    reader.read_exact(&mut u32b)?;
    let frame = u32::from_le_bytes(u32b);
    let mut u64b = [0u8; 8];
    reader.read_exact(&mut u64b)?;
    let count = u64::from_le_bytes(u64b);
    Ok(Header { app, frame, count })
}

#[inline]
fn decode_record(rec: &[u8; RECORD_BYTES]) -> io::Result<Access> {
    let addr = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
    let stream = stream_from_code(rec[8])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad stream code"))?;
    Ok(Access { addr, stream, write: rec[9] != 0 })
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
/// let back = trace_io::read(&buf[..])?;
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
        writer.write_all(MAGIC)?;
        writer.write_all(&VERSION.to_le_bytes())?;
        let name = app.as_bytes();
        writer.write_all(&(name.len() as u32).to_le_bytes())?;
        writer.write_all(name)?;
        writer.write_all(&frame.to_le_bytes())?;
        let count_pos = writer.stream_position()?;
        writer.write_all(&0u64.to_le_bytes())?;
        Ok(TraceWriter { writer, count_pos, count: 0 })
    }

    /// Appends one access record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    #[inline]
    pub fn push(&mut self, access: &Access) -> io::Result<()> {
        self.writer.write_all(&access.addr.to_le_bytes())?;
        self.writer.write_all(&[stream_code(access.stream), u8::from(access.write)])?;
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

/// A bounded-memory [`AccessSource`] over the `GRTR` disk format.
///
/// The header is parsed eagerly (so [`ChunkedReader::app`] and friends work
/// before the first chunk); records are then decoded `chunk_capacity`
/// accesses at a time. Peak resident memory is
/// `chunk_capacity × (10 raw + 16 decoded [+ 8 annotation]) bytes`
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
    /// Returns `InvalidData` for a malformed header and any I/O error from
    /// the underlying reader.
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
}

impl<R: Read> AccessSource for ChunkedReader<R> {
    fn advance(&mut self) -> io::Result<bool> {
        let n = self.remaining().min(self.chunk_cap as u64) as usize;
        if n == 0 {
            self.accesses.clear();
            self.next_uses.clear();
            return Ok(false);
        }
        self.raw.resize(n * RECORD_BYTES, 0);
        self.reader.read_exact(&mut self.raw)?;
        self.accesses.clear();
        for rec in self.raw.chunks_exact(RECORD_BYTES) {
            self.accesses.push(decode_record(rec.try_into().expect("10 bytes"))?);
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

    fn sample() -> Trace {
        let mut t = Trace::new("Röntgen", 42);
        for (i, s) in StreamId::ALL.iter().enumerate() {
            t.push(Access { addr: i as u64 * 1000, stream: *s, write: i % 2 == 0 });
        }
        t
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        write(&mut buf, &t).unwrap();
        assert_eq!(read(&buf[..]).unwrap(), t);
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
        assert_eq!(read(&buf[..]).unwrap(), t);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read(&b"NOPE........."[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write(&mut buf, &Trace::new("x", 0)).unwrap();
        buf[4] = 99;
        assert!(read(&buf[..]).is_err());
    }

    #[test]
    fn rejects_bad_stream_code() {
        let mut buf = Vec::new();
        write(&mut buf, &sample()).unwrap();
        // Corrupt the first access's stream byte.
        let header = 4 + 4 + 4 + "Röntgen".len() + 4 + 8;
        buf[header + 8] = 200;
        assert!(read(&buf[..]).is_err());
    }

    #[test]
    fn rejects_truncated_input() {
        let mut buf = Vec::new();
        write(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read(&buf[..]).is_err());
    }

    fn big_sample(n: u64) -> Trace {
        let mut t = Trace::new("chunky", 9);
        for i in 0..n {
            t.push(Access {
                addr: i * 64,
                stream: StreamId::ALL[(i % StreamId::ALL.len() as u64) as usize],
                write: i % 3 == 0,
            });
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
        assert_eq!(stream_code(StreamId::Vertex), 0);
        assert_eq!(stream_code(StreamId::Display), 7);
        assert_eq!(stream_from_code(8), Some(StreamId::Other));
        assert_eq!(stream_from_code(9), None);
    }
}
