//! Minimal first-party HTTP/1.1: enough protocol for a localhost job
//! daemon, and nothing more.
//!
//! The workspace builds offline, so like the `mlp-json` parser this is
//! a deliberate subset rather than a dependency: request line, headers
//! and an optional `Content-Length` body in, one `Connection: close`
//! response out. Every connection serves exactly one request — job
//! submissions are long-lived server-side anyway, so keep-alive would
//! buy nothing and cost connection-state bookkeeping.
//!
//! Hostile-input posture: header section capped at 16 KiB, bodies capped
//! at 1 MiB, ASCII-validated request line, and a read timeout installed
//! by the caller — a slow or malformed client costs one bounded thread,
//! never a wedged acceptor. The client half ([`read_response`]) applies
//! the same header cap and never allocates more than the server sends.
//! Both parsers are total: `tests/http_prop.rs` feeds them arbitrary and
//! damaged messages.

use std::io::{BufRead, Read, Write};

/// Largest accepted header section (request line + headers), bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Largest accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the client already; not folded).
    pub method: String,
    /// The request target, e.g. `/v1/run` (query strings are kept as-is).
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the named header (lowercase `name`), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed. Rendered as a 400 by the server.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket error (including read timeouts).
    Io(std::io::Error),
    /// Protocol violation; the message names it.
    Malformed(&'static str),
    /// The request exceeded a size cap.
    TooLarge(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Reads one line (terminated by `\n`, `\r` trimmed), charging its bytes
/// against `budget`.
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = r.read(&mut byte)?;
        if n == 0 {
            if line.is_empty() {
                return Err(HttpError::Malformed("connection closed early"));
            }
            break;
        }
        *budget = budget
            .checked_sub(1)
            .ok_or(HttpError::TooLarge("header section"))?;
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("non-utf8 header line"))
}

/// Parses one request from the stream, honouring the size caps.
pub fn read_request(r: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let request_line = read_line(r, &mut budget)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or(HttpError::Malformed("request method"))?
        .to_string();
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or(HttpError::Malformed("request target"))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::Malformed("http version")),
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed("content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("body"));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// A response ready to serialize.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (always sent with an exact `Content-Length`).
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
        }
    }

    /// Canonical reason phrase for the status codes this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Writes the response (status line, headers, body) and flushes.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// One blocking HTTP exchange against `addr` (`host:port`): sends
/// `method path` with `body`, returns `(status, body)`. The shared
/// client side of `mlp-loadgen`, the benchmark's serve clients and the
/// chaos tests — no curl required.
pub fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: std::time::Duration,
) -> std::io::Result<(u16, Vec<u8>)> {
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut w = stream.try_clone()?;
    write!(
        w,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()?;
    read_response(&mut std::io::BufReader::new(stream))
}

/// Parses one response from the stream: `(status, body)`. The server is
/// not trusted either: the header section is capped like a request's,
/// and a `Content-Length` body is read through [`Read::take`] after
/// reserving at most [`MAX_BODY_BYTES`], so an absurd length costs only
/// the bytes actually sent. A body shorter than announced is
/// `UnexpectedEof`; without `Content-Length` the body runs to EOF.
pub fn read_response(r: &mut impl BufRead) -> std::io::Result<(u16, Vec<u8>)> {
    let mut budget = MAX_HEADER_BYTES;
    let status_line = read_line(r, &mut budget).map_err(response_error)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| response_error(HttpError::Malformed("status line")))?;
    let mut content_length: Option<u64> = None;
    loop {
        let line = read_line(r, &mut budget).map_err(response_error)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.reserve(n.min(MAX_BODY_BYTES as u64) as usize);
            r.take(n).read_to_end(&mut body)?;
            if (body.len() as u64) < n {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
        }
        None => {
            r.read_to_end(&mut body)?;
        }
    }
    Ok((status, body))
}

/// A parse failure on the client side, where the message at fault is
/// the server's response; socket errors keep their kind.
fn response_error(e: HttpError) -> std::io::Error {
    let message = match e {
        HttpError::Io(e) => return e,
        HttpError::Malformed(what) => format!("malformed response: {what}"),
        HttpError::TooLarge(what) => format!("response too large: {what}"),
    };
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse(raw).expect("well-formed");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/run");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_a_bodyless_get_with_bare_lf() {
        let raw = b"GET /healthz HTTP/1.0\nX-Custom: v\n\n";
        let req = parse(raw).expect("lenient on line endings");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("x-custom"), Some("v"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(
            parse(b"bogus\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET nopath HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / SPDY/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(parse(b""), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn enforces_size_caps() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(
            format!("X-Big: {}\r\n\r\n", "a".repeat(MAX_HEADER_BYTES)).as_bytes(),
        );
        assert!(matches!(parse(&raw), Err(HttpError::TooLarge(_))));
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(raw.as_bytes()), Err(HttpError::TooLarge(_))));
    }

    /// Serves one connection on a local listener with `response`
    /// verbatim, then returns what `exchange` made of it.
    fn exchange_against(response: impl Into<Vec<u8>>) -> std::io::Result<(u16, Vec<u8>)> {
        let response = response.into();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let _ = read_request(&mut BufReader::new(&stream));
            let _ = (&stream).write_all(&response);
        });
        let got = exchange(&addr, "GET", "/", b"", std::time::Duration::from_secs(30));
        server.join().unwrap();
        got
    }

    #[test]
    fn exchange_survives_a_lying_content_length() {
        let ok = exchange_against(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
        assert_eq!(ok.unwrap(), (200, b"ok".to_vec()));
        // Lengths that would overflow `Vec` capacity, or exhaust memory,
        // if trusted.
        for length in ["18446744073709551615", "1000000000000"] {
            let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\nshort");
            let got = exchange_against(head);
            let err = got.expect_err(length);
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{length}");
        }
    }

    #[test]
    fn response_serializes_with_exact_length() {
        let mut out = Vec::new();
        Response::json(429, "{\"error\":\"shed\"}")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"shed\"}"));
    }
}
