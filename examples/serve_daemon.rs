//! The serving daemon, in-process: a `tdals serve`-style [`Daemon`] on
//! an ephemeral TCP port, a client speaking the versioned frame
//! protocol over a real socket — submit, stream events, fetch the
//! result, check health, shut down.
//!
//! ```sh
//! cargo run --release --example serve_daemon
//! ```

use tdals::circuits::Benchmark;
use tdals::obs::json::Json;
use tdals::server::{
    as_error, connect, Connection, Daemon, DaemonConfig, FlowJob, Listener, Request,
};

fn call(conn: &mut Connection<tdals::server::Stream>, request: &Request) -> Json {
    conn.send(&request.to_json()).expect("send frame");
    let reply = conn.receive().expect("read frame").expect("daemon replied");
    if let Some((code, message)) = as_error(&reply) {
        panic!("daemon error {code}: {message}");
    }
    reply
}

fn main() {
    // A daemon over two worker slots, with a per-tenant quota of one
    // live session — the same admission control `tdals serve` runs.
    let daemon = Daemon::new(DaemonConfig::new(2).with_tenant_quota(1)).expect("non-zero budget");
    let listener = Listener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let spec = listener.local_spec();
    println!("daemon listening on {spec}");
    let server = std::thread::spawn(move || daemon.serve(listener).expect("serve loop"));

    // The client half: every frame here is exactly what
    // `tdals submit --connect {spec}` would send.
    let mut conn = Connection::new(connect(&spec).expect("dial the daemon"));

    let job = FlowJob::benchmark(Benchmark::Int2float)
        .with_bound(0.05)
        .with_scale(8, 6)
        .with_vectors(1024)
        .with_seed(11);
    let reply = call(
        &mut conn,
        &Request::Submit {
            job,
            tenant: Some("acme".into()),
        },
    );
    let session = reply.get("session").and_then(Json::as_f64).expect("id") as u64;
    println!("submitted session {session}");

    // Block for the result, then drain the event stream the session
    // buffered along the way (each event is delivered exactly once).
    let result = call(
        &mut conn,
        &Request::Result {
            session,
            wait: true,
        },
    );
    println!(
        "result: status {}, record {}",
        result.get("status").and_then(Json::as_str).unwrap_or("?"),
        result.get("record").expect("record").compact()
    );
    let events = call(&mut conn, &Request::Events { session });
    if let Some(Json::Arr(frames)) = events.get("events") {
        println!("{} buffered event frame(s), e.g.:", frames.len());
        for frame in frames.iter().take(3) {
            println!("  {}", frame.compact());
        }
    }

    let health = call(&mut conn, &Request::Health);
    println!("health: {}", health.compact());

    // Graceful exit: drain + stop, then join the serve loop.
    call(&mut conn, &Request::Shutdown);
    drop(conn);
    server.join().expect("daemon thread");
    println!("daemon shut down");
}
