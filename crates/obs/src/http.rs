//! A std-only Prometheus scrape endpoint: one background thread, a
//! blocking [`TcpListener`], serial request handling. A scrape target
//! needs nothing more — requests are tiny, responses are one render of
//! the registry — and keeping it `std`-only honours the offline-build
//! constraint (no hyper/tokio). This is deliberately the first network
//! listener in the codebase: the TCP front end on the ROADMAP can grow
//! from the same shape.
//!
//! Endpoints:
//! * `GET /metrics` — [`crate::render_prometheus`] output (the whole
//!   registry), `text/plain; version=0.0.4`.
//! * `GET /healthz` — `ok`.
//!
//! Opt in from the shell with `--metrics-addr HOST:PORT` or
//! `MAYBMS_METRICS_ADDR`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Bind `addr` (e.g. `127.0.0.1:9187`; port 0 picks a free port) and
/// serve metrics from a background thread for the life of the process.
/// Returns the bound address.
pub fn serve(addr: &str) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new()
        .name("maybms-metrics".into())
        .spawn(move || {
            for mut stream in listener.incoming().flatten() {
                let _ = handle(&mut stream);
            }
        })?;
    Ok(local)
}

/// Read one request head (cap 8 KiB), answer it, close. Errors only
/// ever drop the connection — a malformed scrape must never take the
/// database down.
fn handle(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut head = Vec::with_capacity(1024);
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 8192 {
            return respond(stream, 431, "request head too large\n");
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(()); // peer went away
        }
        head.extend_from_slice(&buf[..n]);
    }
    let request_line = head
        .split(|&b| b == b'\r')
        .next()
        .map(String::from_utf8_lossy)
        .unwrap_or_default()
        .into_owned();
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(stream, 405, "only GET is supported\n");
    }
    // Scrape paths carry no query strings we care about.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => respond_with(
            stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &crate::render_prometheus(),
        ),
        "/healthz" => respond(stream, 200, "ok\n"),
        _ => respond(stream, 404, "not found (try /metrics or /healthz)\n"),
    }
}

fn respond(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    respond_with(stream, status, "text/plain; charset=utf-8", body)
}

fn respond_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to exporter");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .lines()
            .next()
            .and_then(|l| l.split_ascii_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let addr = serve("127.0.0.1:0").expect("bind exporter");
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE maybms_query_total counter"), "{body}");
        assert!(
            body.contains("maybms_query_seconds_bucket{kind=\"conf\",le=\"+Inf\"}"),
            "{body}"
        );
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
    }

    #[test]
    fn rejects_non_get() {
        let addr = serve("127.0.0.1:0").expect("bind exporter");
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut line = String::new();
        std::io::BufReader::new(stream)
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("405"), "{line}");
    }
}
