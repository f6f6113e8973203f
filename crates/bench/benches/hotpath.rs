//! Hot-path microbenches for the serving stack (`BENCH_hotpath`
//! trajectory): HTTP codec parse throughput and task-server submit
//! throughput — the two per-request costs every front-end engine pays
//! before any scheduling policy runs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use psd_server::{RequestCodec, Response, WriteBuf};

/// One keep-alive GET with a cost query and two headers — the shape
/// the load generator hammers.
const REQUEST: &[u8] =
    b"GET /class1/page?cost=1.500000 HTTP/1.1\r\nX-Class: 1\r\nConnection: keep-alive\r\n\r\n";

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.bench_function("parse_keep_alive_request", |b| {
        let mut codec = RequestCodec::new();
        b.iter(|| {
            for _ in 0..1_000 {
                codec.feed(REQUEST);
                let req = codec.poll().expect("valid").expect("complete");
                black_box(req.cost);
            }
        })
    });
    group.bench_function("parse_byte_fragmented", |b| {
        let mut codec = RequestCodec::new();
        b.iter(|| {
            for _ in 0..100 {
                for chunk in REQUEST.chunks(7) {
                    codec.feed(chunk);
                    let _ = black_box(codec.poll());
                }
            }
        })
    });
    group.bench_function("encode_response", |b| {
        let resp = Response {
            http11: true,
            status: 200,
            reason: "OK",
            keep_alive: true,
            extra_headers: vec![("X-Class", "1".into()), ("X-Slowdown", "2.5000".into())],
            body: bytes::Bytes::from(&b"served path=/class1/page class=1\n"[..]),
        };
        let mut wb = WriteBuf::new();
        b.iter(|| {
            for _ in 0..1_000 {
                wb.push_response(&resp);
                let mut sink = std::io::sink();
                black_box(wb.flush_into(&mut sink).expect("sink accepts all"));
            }
        })
    });
    group.finish();
}

fn bench_queue_submit(c: &mut Criterion) {
    use psd_server::{PsdServer, ServerConfig};
    use std::time::Duration;

    let mut group = c.benchmark_group("queue_submit");
    // Submit+drain cycles through the full facade: lane, finish
    // deadline, timer-thread fire, completion notification.
    group.bench_function(BenchmarkId::new("submit_sync", "rate_partition_wheel"), |b| {
        let server = PsdServer::start(ServerConfig {
            deltas: vec![1.0, 2.0],
            work_unit: Duration::from_micros(1),
            control_window: Duration::from_secs(60),
            ..ServerConfig::default()
        });
        b.iter(|| {
            for i in 0..200 {
                black_box(server.submit_sync(i % 2, 1.0).expect("executes"));
            }
        });
    });
    group.finish();
}

/// The io_uring engine's submit path: what one `io_uring_enter` costs
/// and how batching amortizes it. `nop_batch/N` pushes N no-op SQEs
/// and reaps their CQEs around a single enter — the per-operation cost
/// should fall roughly as 1/N, which is the whole mechanism behind the
/// engine's syscall gate (`tests/syscall_gate.rs`). The echo case runs
/// a registered-buffer write + read round trip over a socketpair, the
/// exact SQE shapes the reactor's hot path submits per request.
/// Self-skips on kernels that refuse io_uring.
fn bench_uring_submit(c: &mut Criterion) {
    use polling::uring::UringEngine;
    use std::os::fd::AsRawFd;

    if !polling::uring::available() {
        eprintln!("skipping uring_submit benches: io_uring unavailable on this kernel");
        return;
    }
    let mut group = c.benchmark_group("uring_submit");
    for batch in [1usize, 32, 256] {
        group.bench_with_input(BenchmarkId::new("nop_batch", batch), &batch, |b, &n| {
            let mut eng = UringEngine::new(512, 8, 4096).expect("ring");
            b.iter(|| {
                for i in 0..n {
                    eng.push_nop(i as u64).expect("push nop");
                }
                eng.submit().expect("enter");
                let mut done = 0;
                while done < n {
                    match eng.pop() {
                        Some(cqe) => {
                            black_box(cqe.result);
                            done += 1;
                        }
                        None => eng.submit_and_wait(None).expect("wait"),
                    }
                }
            })
        });
    }
    group.bench_function("fixed_write_read_echo", |b| {
        let (tx, rx) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        let mut eng = UringEngine::new(64, 8, 4096).expect("ring");
        let write_slot = eng.alloc_slot();
        let read_slot = eng.alloc_slot();
        assert!(eng.slot_is_fixed(write_slot) && eng.slot_is_fixed(read_slot));
        let payload = [0x61u8; 512];
        b.iter(|| {
            eng.push_write(tx.as_raw_fd(), write_slot, &payload, 1).expect("push write");
            eng.push_read(rx.as_raw_fd(), read_slot, 2).expect("push read");
            let mut done = 0;
            while done < 2 {
                match eng.pop() {
                    Some(cqe) => {
                        assert!(cqe.result > 0, "echo op failed: {}", cqe.result);
                        done += 1;
                    }
                    None => eng.submit_and_wait(None).expect("wait"),
                }
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_queue_submit, bench_uring_submit);
criterion_main!(benches);
