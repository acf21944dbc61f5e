//! Property-based tests of the HTTP layer: both parsers are total over
//! arbitrary bytes and damaged messages, and the size caps hold at their
//! exact boundaries.

use mlp_serve::http::{
    read_request, read_response, HttpError, Request, Response, MAX_BODY_BYTES, MAX_HEADER_BYTES,
};
use proptest::prelude::*;
use proptest::strategy::LazyGen;
use proptest::test_runner::TestRng;
use std::io::BufReader;

fn request(raw: &[u8]) -> Result<Request, HttpError> {
    read_request(&mut BufReader::new(raw))
}

fn response(raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    read_response(&mut BufReader::new(raw))
}

/// Well-formed requests of the shapes the daemon serves.
fn requests() -> Vec<Vec<u8>> {
    let job = r#"{"experiment":"fm","scale":"quick","priority":"normal"}"#;
    vec![
        b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:9\r\nConnection: close\r\n\r\n".to_vec(),
        format!(
            "POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{job}",
            job.len()
        )
        .into_bytes(),
        b"GET /v1/jobs/7 HTTP/1.0\nX-Custom: v\n\n".to_vec(),
    ]
}

/// Well-formed responses: what the daemon writes, plus one without a
/// `Content-Length` (its body runs to EOF).
fn responses() -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = [(200, r#"{"status":"ok"}"#), (429, r#"{"error":"shed"}"#)]
        .into_iter()
        .map(|(status, body)| {
            let mut raw = Vec::new();
            Response::json(status, body).write_to(&mut raw).unwrap();
            raw
        })
        .collect();
    out.push(b"HTTP/1.1 404 Not Found\r\nConnection: close\r\n\r\nuntil eof".to_vec());
    out
}

/// Bytes built from HTTP-shaped fragments, so arbitrary inputs reach
/// past the first line instead of failing on the first byte.
fn gen_fragments(rng: &mut TestRng) -> Vec<u8> {
    const FRAGMENTS: [&str; 22] = [
        "GET",
        "POST",
        " ",
        "/",
        "/v1/run",
        "HTTP/1.1",
        "HTTP/1.1 200 OK",
        "\r\n",
        "\n",
        "\r",
        ":",
        "Content-Length: ",
        "content-length:",
        "0",
        "17",
        "1048577",
        "18446744073709551615",
        "99999999999999999999999",
        "-1",
        "Host: x",
        "{\"experiment\":\"fm\"}",
        "é",
    ];
    let mut out = Vec::new();
    for _ in 0..rng.below(48) {
        if rng.ratio(1, 8) {
            out.push(rng.next_u64() as u8);
        } else {
            let f = FRAGMENTS[rng.below(FRAGMENTS.len() as u64) as usize];
            out.extend_from_slice(f.as_bytes());
        }
    }
    out
}

/// A header section of exactly `size` bytes: `first_line`, then `lines`
/// padding headers, then the blank line.
fn header_section(first_line: &str, size: usize, lines: usize) -> Vec<u8> {
    const PAD_OVERHEAD: usize = "X-Pad: \r\n".len();
    let fixed = first_line.len() + 2 + 2;
    let values = size - fixed - lines * PAD_OVERHEAD;
    let mut out = format!("{first_line}\r\n").into_bytes();
    for i in 0..lines {
        let len = values / lines + if i == 0 { values % lines } else { 0 };
        out.extend_from_slice(format!("X-Pad: {}\r\n", "a".repeat(len)).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    assert_eq!(out.len(), size);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Totality: arbitrary bytes never panic either parser.
    #[test]
    fn arbitrary_bytes_never_panic(
        text in LazyGen::new(gen_fragments),
        raw in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        for input in [&text, &raw] {
            let _ = request(input);
            let _ = response(input);
        }
    }

    /// Totality: a well-formed message with one byte replaced, or cut
    /// short, parses or fails cleanly in both parsers.
    #[test]
    fn damaged_messages_never_panic(
        pick in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let messages: Vec<Vec<u8>> = requests().into_iter().chain(responses()).collect();
        let message = &messages[pick.index(messages.len())];
        let i = at.index(message.len());
        let mut mutated = message.clone();
        mutated[i] = byte;
        for input in [&mutated[..], &message[..i]] {
            let _ = request(input);
            let _ = response(input);
        }
    }

    /// A response cut inside its announced body is an error, never a
    /// short body.
    #[test]
    fn truncated_response_bodies_are_errors(
        pick in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
    ) {
        // The daemon's own responses, which all carry a Content-Length.
        let sized = &responses()[..2];
        let message = &sized[pick.index(sized.len())];
        let body_at = message.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let end = body_at + at.index(message.len() - body_at);
        let got = response(&message[..end]);
        prop_assert!(
            matches!(&got, Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "cut at {}: {:?}",
            end,
            got
        );
    }

    /// The header cap holds at its exact boundary, for requests and for
    /// responses alike.
    #[test]
    fn header_sections_are_capped_exactly(
        size in MAX_HEADER_BYTES - 2048..MAX_HEADER_BYTES + 2048,
        lines in 1usize..16,
    ) {
        let req = request(&header_section("GET / HTTP/1.1", size, lines));
        let resp = response(&header_section("HTTP/1.1 200 OK", size, lines));
        if size <= MAX_HEADER_BYTES {
            prop_assert!(req.is_ok(), "{} bytes: {:?}", size, req.err());
            prop_assert!(resp.is_ok(), "{} bytes: {:?}", size, resp.err());
        } else {
            prop_assert!(matches!(req, Err(HttpError::TooLarge(_))), "{} bytes", size);
            prop_assert!(resp.is_err(), "{} bytes", size);
        }
    }

    /// A request announcing a body over the cap is refused before any of
    /// it is read or allocated.
    #[test]
    fn oversized_request_bodies_are_too_large(length in MAX_BODY_BYTES + 1..=usize::MAX) {
        let raw = format!("POST /v1/run HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}");
        prop_assert!(matches!(request(raw.as_bytes()), Err(HttpError::TooLarge(_))));
    }
}

#[test]
fn well_formed_messages_parse() {
    let post = request(&requests()[1]).expect("well-formed POST");
    assert_eq!(
        (post.method.as_str(), post.path.as_str()),
        ("POST", "/v1/run")
    );
    assert!(post.body.starts_with(b"{\"experiment\""));
    for raw in requests() {
        request(&raw).expect("well-formed request");
    }
    let bodies: Vec<(u16, Vec<u8>)> = responses().iter().map(|r| response(r).unwrap()).collect();
    assert_eq!(bodies[0], (200, br#"{"status":"ok"}"#.to_vec()));
    assert_eq!(bodies[1], (429, br#"{"error":"shed"}"#.to_vec()));
    assert_eq!(bodies[2], (404, b"until eof".to_vec()));
}

#[test]
fn malformed_status_lines_are_errors() {
    for raw in [
        &b""[..],
        b"HTTP/1.1 OK\r\n\r\n",
        b"HTTP/1.1 70000 X\r\n\r\n",
    ] {
        let err = response(raw).expect_err("no status code");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

#[test]
fn a_body_at_the_cap_is_accepted() {
    let mut raw =
        format!("POST / HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n").into_bytes();
    raw.resize(raw.len() + MAX_BODY_BYTES, b'x');
    assert_eq!(
        request(&raw).expect("at the cap").body.len(),
        MAX_BODY_BYTES
    );
}
