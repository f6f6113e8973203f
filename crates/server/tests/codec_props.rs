//! Property tests for the sans-io HTTP codec: however the transport
//! fragments the byte stream, the parse must be identical — that is the
//! whole contract that lets one parser serve both the blocking engine
//! (BufReader-sized chunks) and the reactor (whatever epoll hands us).
//!
//! Each property runs 64 seeded cases whose inputs are drawn from
//! `Xoshiro256pp::seed_from(seed)`. A failure names its seed, which
//! replays the case exactly.

use psd_dist::rng::Xoshiro256pp;
use psd_server::{HttpRequest, RequestCodec, Response, WriteBuf};

/// Run `case` once per seed, each with its own generator.
fn each_seed(mut case: impl FnMut(u64, &mut Xoshiro256pp)) {
    for seed in 0..64 {
        case(seed, &mut Xoshiro256pp::seed_from(seed));
    }
}

/// Uniform integer in `[lo, hi)`.
fn between(rng: &mut Xoshiro256pp, lo: usize, hi: usize) -> usize {
    lo + (rng.next_f64() * (hi - lo) as f64) as usize
}

/// Decode everything a codec can produce from one whole feed.
fn decode_all(raw: &[u8]) -> Vec<HttpRequest> {
    let mut codec = RequestCodec::new();
    codec.feed(raw);
    let mut out = Vec::new();
    while let Ok(Some(req)) = codec.poll() {
        out.push(req);
    }
    out
}

/// Decode the same bytes delivered in the given chunk sizes (cycled
/// until the input is exhausted; zero-length chunks exercise empty
/// feeds).
fn decode_chunked(raw: &[u8], chunks: &[usize]) -> Vec<HttpRequest> {
    let mut codec = RequestCodec::new();
    let mut out = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < raw.len() {
        let step = chunks[i % chunks.len()].min(raw.len() - pos);
        i += 1;
        codec.feed(&raw[pos..pos + step]);
        pos += step;
        while let Ok(Some(req)) = codec.poll() {
            out.push(req);
        }
    }
    out
}

/// Build one well-formed request from generated knobs.
fn build_request(
    class: usize,
    cost_milli: u64,
    keep_alive: bool,
    body_len: usize,
    extra_headers: usize,
) -> String {
    let mut req = format!(
        "POST /class{class}/page?cost={}.{:03} HTTP/1.1\r\n",
        cost_milli / 1000,
        cost_milli % 1000
    );
    req.push_str(&format!("X-Class: {class}\r\n"));
    for h in 0..extra_headers {
        req.push_str(&format!("X-Filler-{h}: value-{h}\r\n"));
    }
    if !keep_alive {
        req.push_str("Connection: close\r\n");
    }
    req.push_str(&format!("Content-Length: {body_len}\r\n\r\n"));
    req.push_str(&"b".repeat(body_len));
    req
}

/// A pipelined stream of randomized requests parses to the same
/// request sequence whether fed whole, in random split sizes, or
/// byte at a time.
#[test]
fn fragmentation_never_changes_the_parse() {
    each_seed(|seed, rng| {
        let specs: Vec<(usize, u64, bool, usize, usize)> = (0..between(rng, 1, 6))
            .map(|_| {
                let (class, cost) = (between(rng, 0, 3), between(rng, 1, 5000) as u64);
                let keep = rng.next_f64() < 0.5;
                (class, cost, keep, between(rng, 0, 200), between(rng, 0, 5))
            })
            .collect();
        let chunks: Vec<usize> = (0..between(rng, 1, 12)).map(|_| between(rng, 0, 37)).collect();
        let raw: String = specs
            .iter()
            .map(|&(class, cost, keep, body, extra)| build_request(class, cost, keep, body, extra))
            .collect();
        let raw = raw.as_bytes();

        let whole = decode_all(raw);
        assert_eq!(whole.len(), specs.len(), "seed {seed}: every request parses whole");
        for (req, &(class, _, keep, body, _)) in whole.iter().zip(&specs) {
            let want_class = format!("{class}");
            assert_eq!(req.x_class.as_deref(), Some(want_class.as_str()), "seed {seed}");
            assert_eq!(req.keep_alive(), keep, "seed {seed}");
            assert_eq!(req.content_length, body as u64, "seed {seed}");
            assert!(req.cost.is_some(), "seed {seed}: cost query must parse");
        }

        let split = decode_chunked(raw, &chunks);
        assert_eq!(whole, split, "seed {seed}: random splits must not change the parse");

        let bytewise = decode_chunked(raw, &[1]);
        assert_eq!(whole, bytewise, "seed {seed}: byte-at-a-time must not change the parse");
    });
}

/// Serialized responses survive arbitrary partial-write schedules:
/// flushing through a writer that accepts random amounts per call
/// reproduces the exact byte stream.
#[test]
fn partial_writes_reassemble_exactly() {
    struct Throttle<'a> {
        out: Vec<u8>,
        quotas: &'a [usize],
        i: usize,
    }
    impl std::io::Write for Throttle<'_> {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            let q = self.quotas[self.i % self.quotas.len()];
            self.i += 1;
            // Every few calls, pretend the socket buffer is full.
            if self.i % 4 == 3 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = q.min(data.len());
            self.out.extend_from_slice(&data[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    each_seed(|seed, rng| {
        let bodies: Vec<usize> = (0..between(rng, 1, 5)).map(|_| between(rng, 0, 400)).collect();
        let quotas: Vec<usize> = (0..between(rng, 1, 10)).map(|_| between(rng, 1, 61)).collect();
        let keep = rng.next_f64() < 0.5;
        let responses: Vec<Response> = bodies
            .iter()
            .enumerate()
            .map(|(i, &len)| Response {
                http11: true,
                status: 200,
                reason: "OK",
                keep_alive: keep,
                extra_headers: vec![("X-Class", i.to_string())],
                body: bytes::Bytes::from("r".repeat(len)),
            })
            .collect();

        let mut expected = Vec::new();
        let mut wb = WriteBuf::new();
        for r in &responses {
            r.encode_into(&mut expected);
            wb.push_response(r);
        }
        let mut w = Throttle { out: Vec::new(), quotas: &quotas, i: 0 };
        // Drive like the reactor: flush until drained, resuming after
        // each WouldBlock as if a writable event arrived.
        let mut rounds = 0;
        while !wb.flush_into(&mut w).unwrap() {
            rounds += 1;
            assert!(rounds < 100_000, "seed {seed}: flush must make progress");
        }
        assert!(wb.is_empty(), "seed {seed}");
        assert_eq!(w.out, expected, "seed {seed}: partial writes must splice back exactly");
    });
}

/// Interleaved feed/poll with a body split anywhere keeps frames
/// aligned: the next request on the connection always parses.
#[test]
fn body_split_points_never_desync() {
    each_seed(|seed, rng| {
        let (split, body_len) = (between(rng, 0, 120), between(rng, 1, 60));
        let first = build_request(1, 1500, true, body_len, 0);
        let second = "GET /after HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut raw = first.into_bytes();
        raw.extend_from_slice(second.as_bytes());
        let split = split.min(raw.len());

        let mut codec = RequestCodec::new();
        let mut got = Vec::new();
        codec.feed(&raw[..split]);
        while let Ok(Some(r)) = codec.poll() {
            got.push(r);
        }
        codec.feed(&raw[split..]);
        while let Ok(Some(r)) = codec.poll() {
            got.push(r);
        }
        assert_eq!(got.len(), 2, "seed {seed}: both requests must parse");
        assert_eq!(got[0].path.as_str(), "/class1/page", "seed {seed}");
        assert_eq!(got[1].path.as_str(), "/after", "seed {seed}");
        assert!(!got[1].keep_alive(), "seed {seed}");
    });
}
