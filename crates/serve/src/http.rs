//! A hand-rolled HTTP/1.1 subset — just enough protocol for the serving
//! layer, now built around an **incremental** parser so the event loop
//! can feed it whatever bytes the socket had and get back zero or more
//! complete requests (keep-alive and pipelining fall out of that shape).
//!
//! Deliberately not implemented: chunked transfer encoding, TLS, trailer
//! headers, `Expect: 100-continue`. Clients that speak plain `curl` work;
//! the point is a dependency-free front end, not a general web server.
//!
//! The hard limits are part of the abuse story (satellite: slow/abusive
//! clients must cost a bounded buffer, never a hung slot):
//! head over [`MAX_HEAD_BYTES`] → 431, declared body over
//! [`MAX_BODY_BYTES`] → 413, anything unparseable → 400. The read
//! *deadline* lives in the event loop (408), since only it owns time.

/// Upper bound on the request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body, bytes. Job specs are tiny; anything
/// bigger is a client bug.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …) exactly as sent.
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Header names lowercased; values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body (`Content-Length` bytes).
    pub body: Vec<u8>,
    /// The client asked for this to be the last request on the
    /// connection (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
}

impl Request {
    /// The first header named `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; [`error_response`] maps each
/// variant to a status code. Every variant is fatal for the connection —
/// after a parse error the byte stream can no longer be framed.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed request line, header, or length field → 400.
    Malformed(String),
    /// Request head over [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// Declared body over [`MAX_BODY_BYTES`] → 413.
    BodyTooLarge(usize),
}

/// The error response for a failed parse, ready to serialize. Always
/// `Connection: close` — framing is lost after a parse error.
pub fn error_response(err: &ParseError) -> Response {
    match err {
        ParseError::Malformed(msg) => {
            Response::new(400).with_json(format!("{{\"error\": \"{msg}\"}}"))
        }
        ParseError::HeadTooLarge => Response::new(431)
            .with_json(format!("{{\"error\": \"request head over {MAX_HEAD_BYTES} bytes\"}}")),
        ParseError::BodyTooLarge(n) => {
            Response::new(413).with_json(format!("{{\"error\": \"body of {n} bytes refused\"}}"))
        }
    }
}

/// Incremental request parser: push bytes in as they arrive, pop complete
/// requests out. One parser per connection; pipelined requests queue up
/// in the internal buffer and come out one `next()` at a time.
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily on push.
    start: usize,
}

impl RequestParser {
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 8 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// True when a partially received request is sitting in the buffer —
    /// the event loop's read-deadline (408) trigger.
    pub fn has_partial(&self) -> bool {
        self.start < self.buf.len()
    }

    /// Tries to parse one complete request off the front of the buffer.
    /// `Ok(None)` means "incomplete, feed me more bytes".
    pub fn pop(&mut self) -> Result<Option<Request>, ParseError> {
        let data = &self.buf[self.start..];
        if data.is_empty() {
            return Ok(None);
        }
        let Some(head_len) = find_head_end(data) else {
            if data.len() > MAX_HEAD_BYTES {
                return Err(ParseError::HeadTooLarge);
            }
            return Ok(None);
        };
        if head_len > MAX_HEAD_BYTES {
            return Err(ParseError::HeadTooLarge);
        }
        let head = std::str::from_utf8(&data[..head_len])
            .map_err(|_| ParseError::Malformed("non-UTF-8 request head".into()))?;

        let mut lines = head.split("\r\n");
        let line = lines.next().unwrap_or("");
        let mut parts = line.split_whitespace();
        let method = parts.next().unwrap_or("").to_string();
        let target = parts.next().unwrap_or("").to_string();
        let version = parts.next().unwrap_or("");
        if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
            return Err(ParseError::Malformed(format!("bad request line: {line:?}")));
        }
        // Strip any query string; the API is entirely path + body driven.
        let path = target.split('?').next().unwrap_or("").to_string();

        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(ParseError::Malformed(format!("bad header: {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
            None => 0,
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| ParseError::Malformed(format!("bad content-length: {v:?}")))?,
        };
        if content_length > MAX_BODY_BYTES {
            return Err(ParseError::BodyTooLarge(content_length));
        }
        let total = head_len + 4 + content_length;
        if data.len() < total {
            return Ok(None);
        }
        let body = data[head_len + 4..total].to_vec();

        let close = match headers.iter().find(|(k, _)| k == "connection") {
            Some((_, v)) if v.eq_ignore_ascii_case("close") => true,
            Some((_, v)) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => version == "HTTP/1.0",
        };

        self.start += total;
        Ok(Some(Request { method, path, headers, body, close }))
    }
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(data: &[u8]) -> Option<usize> {
    data.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// A response with the given status and an empty body.
    pub fn new(status: u16) -> Response {
        Response { status, headers: Vec::new(), body: Vec::new() }
    }

    /// A 200 response carrying a JSON body.
    pub fn json(body: impl Into<String>) -> Response {
        Response::new(200).with_json(body)
    }

    /// Sets a JSON body (and content type).
    pub fn with_json(mut self, body: impl Into<String>) -> Response {
        self.body = body.into().into_bytes();
        self.headers.push(("Content-Type".into(), "application/json".into()));
        self
    }

    /// Sets a plain-text body (and content type) — `/metrics` uses this.
    pub fn with_text(mut self, body: impl Into<String>) -> Response {
        self.body = body.into().into_bytes();
        self.headers.push(("Content-Type".into(), "text/plain; version=0.0.4".into()));
        self
    }

    /// Appends a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The status code (tests use this).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The body bytes (tests use this).
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Serializes the response into `out`. `keep_alive` picks the
    /// `Connection` header; the event loop passes `false` for the final
    /// response before it closes.
    pub fn write_into(&self, out: &mut Vec<u8>, keep_alive: bool) {
        out.extend_from_slice(
            format!("HTTP/1.1 {} {}\r\n", self.status, status_text(self.status)).as_bytes(),
        );
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        let conn = if keep_alive { "keep-alive" } else { "close" };
        out.extend_from_slice(
            format!("Content-Length: {}\r\nConnection: {conn}\r\n\r\n", self.body.len()).as_bytes(),
        );
        out.extend_from_slice(&self.body);
    }
}

/// Reason phrases for every status the server emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(text: &str) -> Request {
        let mut p = RequestParser::new();
        p.push(text.as_bytes());
        p.pop().expect("parse").expect("complete")
    }

    #[test]
    fn response_serializes_with_length_and_connection_header() {
        let mut out = Vec::new();
        Response::json("{\"ok\": true}")
            .with_header("Retry-After", "1")
            .write_into(&mut out, false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\": true}"));

        let mut out = Vec::new();
        Response::new(202).write_into(&mut out, true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    #[test]
    fn status_texts_cover_served_codes() {
        for code in [200, 202, 400, 404, 405, 408, 413, 429, 431, 500, 503] {
            assert_ne!(status_text(code), "Unknown", "missing reason for {code}");
        }
    }

    #[test]
    fn incremental_parse_across_arbitrary_splits() {
        let wire = "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        // Feed the same request one byte at a time and in two uneven
        // halves; both must yield the identical parse.
        for split in [1usize, 7, wire.len() - 1] {
            let mut p = RequestParser::new();
            p.push(&wire.as_bytes()[..split]);
            assert!(p.pop().expect("no error").is_none(), "split {split} completed early");
            p.push(&wire.as_bytes()[split..]);
            let req = p.pop().expect("parse").expect("complete");
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/jobs");
            assert_eq!(req.body, b"hello");
            assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
            assert!(!p.has_partial());
        }
    }

    #[test]
    fn pipelined_requests_pop_in_order() {
        let mut p = RequestParser::new();
        p.push(
            b"GET /v1/apps HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n\
              POST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        );
        let paths: Vec<String> =
            std::iter::from_fn(|| p.pop().expect("parse")).map(|request| request.path).collect();
        assert_eq!(paths, ["/v1/apps", "/metrics", "/v1/jobs"]);
        assert!(!p.has_partial());
    }

    #[test]
    fn connection_semantics() {
        assert!(parse_one("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").close);
        assert!(parse_one("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").close);
        assert!(!parse_one("GET / HTTP/1.1\r\n\r\n").close);
        assert!(parse_one("GET / HTTP/1.0\r\n\r\n").close, "HTTP/1.0 defaults to close");
        assert!(!parse_one("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").close);
    }

    #[test]
    fn limits_map_to_the_right_errors() {
        // Unterminated giant head → 431.
        let mut p = RequestParser::new();
        p.push(&vec![b'A'; MAX_HEAD_BYTES + 1]);
        assert!(matches!(p.pop(), Err(ParseError::HeadTooLarge)));

        // Oversized declared body → 413, and the error response says so.
        let mut p = RequestParser::new();
        p.push(
            format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1).as_bytes(),
        );
        let err = p.pop().expect_err("body too large");
        assert!(matches!(err, ParseError::BodyTooLarge(_)));
        assert_eq!(error_response(&err).status(), 413);

        // Garbage request line → 400.
        let mut p = RequestParser::new();
        p.push(b"nonsense\r\n\r\n");
        let err = p.pop().expect_err("malformed");
        assert!(matches!(err, ParseError::Malformed(_)));
        assert_eq!(error_response(&err).status(), 400);
    }

    /// Seeded xorshift64: the fuzz test below is reproducible and std-only.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn word(&mut self, max_len: usize) -> String {
            const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
            let len = 1 + self.below(max_len);
            (0..len).map(|_| CHARS[self.below(CHARS.len())] as char).collect()
        }

        /// `data` cut at up to `max_cuts` random byte boundaries.
        fn split<'d>(&mut self, data: &'d [u8], max_cuts: usize) -> Vec<&'d [u8]> {
            let mut cuts: Vec<usize> =
                (0..self.below(max_cuts + 1)).map(|_| self.below(data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut start = 0;
            cuts.into_iter()
                .map(|end| {
                    let piece = &data[start..end];
                    start = end;
                    piece
                })
                .collect()
        }
    }

    /// A random valid request: its wire bytes and the `(method, path,
    /// body, close)` the parser must recover. Only the last request of a
    /// pipeline may ask to close.
    fn valid_request(rng: &mut XorShift, last: bool) -> (Vec<u8>, (String, String, Vec<u8>, bool)) {
        let method = ["GET", "POST", "PUT", "DELETE"][rng.below(4)];
        let path = format!("/{}", rng.word(12));
        let query = if rng.below(3) == 0 { format!("?{}", rng.word(6)) } else { String::new() };
        let http10 = rng.below(5) == 0;
        let mut head = format!("{method} {path}{query} HTTP/1.{}\r\n", u8::from(!http10));
        for _ in 0..rng.below(4) {
            head += &format!("X-{}: {}\r\n", rng.word(8), rng.word(20));
        }
        let body: Vec<u8> = match rng.below(3) {
            0 => Vec::new(),
            _ => (0..rng.below(300)).map(|_| rng.next() as u8).collect(),
        };
        if !body.is_empty() || rng.below(2) == 0 {
            let name = ["Content-Length", "content-length", "CONTENT-LENGTH"][rng.below(3)];
            head += &format!("{name}: {}\r\n", body.len());
        }
        let close = match rng.below(3) {
            0 if last => {
                head += "Connection: close\r\n";
                true
            }
            1 => {
                head += "Connection: keep-alive\r\n";
                false
            }
            _ => http10,
        };
        head += "\r\n";
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&body);
        (wire, (method.to_string(), path, body, close))
    }

    /// A random request the parser must refuse, with the status its
    /// error maps to.
    fn invalid_request(rng: &mut XorShift) -> (Vec<u8>, u16) {
        let filler = |rng: &mut XorShift, head: &mut String| {
            while head.len() <= MAX_HEAD_BYTES {
                *head += &format!("X-{}: {}\r\n", rng.word(8), rng.word(200));
            }
        };
        match rng.below(7) {
            0 => {
                // Random bytes with no '/', so never a valid request line.
                let mut wire: Vec<u8> = (0..rng.below(400))
                    .map(|_| rng.next() as u8)
                    .map(|b| if b == b'/' { b'.' } else { b })
                    .collect();
                wire.extend_from_slice(b"\r\n\r\n");
                (wire, 400)
            }
            1 => (format!("GET / HTTP/1.1\r\n{}\r\n\r\n", rng.word(30)).into_bytes(), 400),
            2 => {
                let length = format!("x{}", rng.word(10));
                (format!("POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\n").into_bytes(), 400)
            }
            3 => (format!("GET /{} HTTP/2.0\r\n\r\n", rng.word(10)).into_bytes(), 400),
            4 => {
                // Oversized head that never terminates.
                let mut head = "GET / HTTP/1.1\r\n".to_string();
                filler(rng, &mut head);
                (head.into_bytes(), 431)
            }
            5 => {
                let mut head = "GET / HTTP/1.1\r\n".to_string();
                filler(rng, &mut head);
                head += "\r\n";
                (head.into_bytes(), 431)
            }
            _ => {
                let length = MAX_BODY_BYTES + 1 + rng.below(1 << 30);
                let mut wire =
                    format!("POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\n").into_bytes();
                wire.extend((0..rng.below(64)).map(|_| rng.next() as u8));
                (wire, 413)
            }
        }
    }

    /// Feeds `pieces` to one parser as the event loop does: push, then pop
    /// until it needs more bytes, stopping at the first error. Returns the
    /// parsed requests and the error's status, and checks after every
    /// push that an incomplete request never holds more than one head and
    /// one body's worth of bytes.
    fn drive(pieces: &[&[u8]]) -> (Vec<Request>, Option<u16>) {
        let mut p = RequestParser::new();
        let mut requests = Vec::new();
        for piece in pieces {
            p.push(piece);
            loop {
                match p.pop() {
                    Ok(Some(request)) => requests.push(request),
                    Ok(None) => break,
                    Err(err) => return (requests, Some(error_response(&err).status())),
                }
            }
            let pending = &p.buf[p.start..];
            assert!(pending.len() <= MAX_HEAD_BYTES + 4 + MAX_BODY_BYTES);
            assert!(pending.len() <= MAX_HEAD_BYTES || find_head_end(pending).is_some());
        }
        (requests, None)
    }

    fn fields(requests: &[Request]) -> Vec<String> {
        requests.iter().map(|r| format!("{r:?}")).collect()
    }

    #[test]
    fn fuzzed_pipelines_parse_the_same_at_any_split() {
        let mut rng = XorShift(0x5EED_F4E7);
        for _ in 0..200 {
            let n = 1 + rng.below(5);
            let mut wire = Vec::new();
            let mut expected = Vec::new();
            for i in 0..n {
                let (bytes, fields) = valid_request(&mut rng, i + 1 == n);
                wire.extend_from_slice(&bytes);
                expected.push(fields);
            }
            let (whole, err) = drive(&[&wire]);
            assert_eq!(err, None);
            let parsed: Vec<_> = whole
                .iter()
                .map(|r| (r.method.clone(), r.path.clone(), r.body.clone(), r.close))
                .collect();
            assert_eq!(parsed, expected);
            let (split, err) = drive(&rng.split(&wire, 16));
            assert_eq!(err, None);
            assert_eq!(fields(&split), fields(&whole));
        }
    }

    #[test]
    fn fuzzed_bad_requests_end_in_the_documented_error() {
        let mut rng = XorShift(0xBAD_5EED);
        for _ in 0..200 {
            let mut wire = Vec::new();
            let good = rng.below(3);
            for _ in 0..good {
                wire.extend_from_slice(&valid_request(&mut rng, false).0);
            }
            let (bad, status) = invalid_request(&mut rng);
            wire.extend_from_slice(&bad);
            let (whole, err) = drive(&[&wire]);
            assert_eq!(whole.len(), good, "valid prefix lost before the bad request");
            assert_eq!(err, Some(status), "wrong error for {:?}", String::from_utf8_lossy(&bad));
            let (split, err) = drive(&rng.split(&wire, 8));
            assert_eq!(fields(&split), fields(&whole));
            assert_eq!(err, Some(status));
        }
    }

    #[test]
    fn bad_content_length_is_malformed() {
        let mut p = RequestParser::new();
        p.push(b"POST / HTTP/1.1\r\nContent-Length: ducks\r\n\r\n");
        assert!(matches!(p.pop(), Err(ParseError::Malformed(_))));
    }
}
