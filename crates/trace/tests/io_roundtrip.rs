//! Randomized test: the binary trace format round-trips arbitrary traces,
//! deterministically seeded (no property-testing dependency).

use grtrace::{io as trace_io, Access, StreamId, Trace};

/// Decodes `bytes` whole through the one GRTR decoder.
fn drain(bytes: &[u8]) -> std::io::Result<Trace> {
    trace_io::ChunkedReader::new(bytes, trace_io::DEFAULT_CHUNK)?.read_trace()
}

/// SplitMix64 — a tiny deterministic generator for test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn roundtrip() {
    const APP_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz\
                               ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-";
    let mut rng = Rng(41);
    for _ in 0..64 {
        let app: String = (0..rng.below(25))
            .map(|_| APP_CHARS[rng.below(APP_CHARS.len() as u64) as usize] as char)
            .collect();
        let mut t = Trace::new(app, rng.next() as u32);
        for _ in 0..rng.below(300) {
            // Any address an access can hold.
            let addr = rng.below(Access::ADDR_LIMIT);
            let stream = StreamId::ALL[rng.below(9) as usize];
            t.push(Access::new(addr, stream, rng.next() & 1 == 1));
        }
        let mut buf = Vec::new();
        trace_io::write(&mut buf, &t).expect("write to Vec cannot fail");
        let back = drain(&buf).expect("roundtrip read");
        assert_eq!(back, t);
    }
}

/// Arbitrary garbage never panics the reader — it errors.
#[test]
fn fuzz_reader_never_panics() {
    let mut rng = Rng(42);
    for _ in 0..256 {
        let bytes: Vec<u8> = (0..rng.below(256)).map(|_| rng.next() as u8).collect();
        let _ = drain(&bytes);
    }
}

/// Truncating a valid trace at any point yields an error, not a panic
/// or a silently short trace.
#[test]
fn truncation_is_an_error() {
    let mut t = Trace::new("app", 1);
    for i in 0..4u64 {
        t.push(Access::load(i * 64, StreamId::Z));
    }
    let mut buf = Vec::new();
    trace_io::write(&mut buf, &t).unwrap();
    for cut in 0..buf.len() {
        let mut short = buf.clone();
        short.truncate(cut);
        assert!(drain(&short).is_err(), "cut at {cut}");
    }
}
