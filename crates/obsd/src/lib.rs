//! # imp-obsd — minimal observability exposition server
//!
//! A deliberately tiny HTTP/1.1 server built on nothing but `std::net`,
//! just capable enough to serve Prometheus scrapes, JSON introspection
//! and trace exports from an in-process observability hub. It is
//! **not** a general web server:
//!
//! - `GET` only (anything else is `405`), no keep-alive
//!   (`Connection: close` on every response), no TLS, no chunked bodies.
//! - Exact-path routing via [`Router`]; a query string is split off the
//!   path and dropped.
//! - A blocking accept loop plus a small fixed worker pool. Handlers run
//!   on pool threads and must never block on the process under
//!   observation — by construction the IMP glue layer reads only
//!   snapshots (`MetricsRegistry::sample`, `SnapshotBoard::read`, span
//!   rings), so a slow scraper can never stall maintenance.
//!
//! Shutdown is cooperative: [`Server`] sets a flag and self-connects to
//! unblock `accept`, then joins the accept thread and every worker.
//! Dropping the server shuts it down.
//!
//! ```no_run
//! use imp_obsd::{Response, Router, Server};
//!
//! let mut router = Router::new();
//! router.get("/ping", |_req| Response::text(200, "pong"));
//! let server = Server::bind("127.0.0.1:0", router, 2).unwrap();
//! println!("listening on http://{}", server.local_addr());
//! drop(server); // joins all threads
//! ```

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on request head size (request line + headers); larger heads are
/// rejected with `431` to bound per-connection memory.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Per-connection socket timeout: a stalled scraper is cut loose rather
/// than pinning a worker thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed (GET) request: method and path.
#[derive(Debug, Clone)]
pub struct Request {
    method: String,
    path: String,
}

impl Request {
    /// Request method (`GET` for anything a handler will ever see).
    pub fn method(&self) -> &str {
        &self.method
    }

    /// Path without the query string, e.g. `/metrics`.
    pub fn path(&self) -> &str {
        &self.path
    }
}

/// A response: status code, content type, and body bytes.
#[derive(Debug, Clone)]
pub struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    /// Plain-text response (`text/plain; charset=utf-8`).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// JSON response (`application/json`).
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// Prometheus text-exposition response.
    pub fn prometheus(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// Status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Exact-path GET router. Unknown paths get `404`; non-GET methods get
/// `405` before routing.
#[derive(Default, Clone)]
pub struct Router {
    routes: Vec<(String, Handler)>,
}

impl Router {
    /// Empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Register `handler` for `GET path` (exact match, no patterns).
    pub fn get(
        &mut self,
        path: impl Into<String>,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> &mut Router {
        self.routes.push((path.into(), Arc::new(handler)));
        self
    }

    /// Registered paths, in registration order (index pages, tests).
    pub fn paths(&self) -> Vec<&str> {
        self.routes.iter().map(|(p, _)| p.as_str()).collect()
    }

    fn dispatch(&self, req: &Request) -> Response {
        if req.method != "GET" {
            return Response::text(405, "method not allowed\n");
        }
        match self.routes.iter().find(|(p, _)| *p == req.path) {
            Some((_, handler)) => handler(req),
            None => Response::text(404, "not found\n"),
        }
    }
}

/// Running exposition server; dropping it shuts it down and joins every
/// thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `router` on `threads` worker threads (clamped to ≥ 1).
    pub fn bind(addr: &str, router: Router, threads: usize) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let router = Arc::new(router);

        // Accepted connections flow through a small bounded channel to the
        // worker pool; the bound sheds load to the OS backlog instead of
        // queueing unboundedly in-process.
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) = sync_channel(64);
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let router = Arc::clone(&router);
                std::thread::Builder::new()
                    .name(format!("imp-obsd-{i}"))
                    .spawn(move || loop {
                        let stream = match rx.lock().expect("obsd worker queue").recv() {
                            Ok(s) => s,
                            Err(_) => return, // accept loop gone
                        };
                        let _ = serve_connection(stream, &router);
                    })
                    .expect("spawn obsd worker")
            })
            .collect();

        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("imp-obsd-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            return; // drops tx → workers drain and exit
                        }
                        if let Ok(stream) = stream {
                            // If the pool is saturated the send blocks,
                            // back-pressuring into the OS accept backlog.
                            if tx.send(stream).is_err() {
                                return;
                            }
                        }
                    }
                })
                .expect("spawn obsd accept loop")
        };

        Ok(Server {
            addr: local,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight requests, and join all threads.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Read one request head, dispatch it, write the response, close.
fn serve_connection(mut stream: TcpStream, router: &Router) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let response = match read_request(&mut stream) {
        Ok(Some(req)) => router.dispatch(&req),
        Ok(None) => Response::text(431, "request head too large\n"),
        Err(ParseError::Malformed) => Response::text(400, "bad request\n"),
        Err(ParseError::Io(e)) => return Err(e),
    };
    response.write_to(&mut stream)
}

enum ParseError {
    Malformed,
    Io(io::Error),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> ParseError {
        ParseError::Io(e)
    }
}

/// Parse the request line and discard headers up to the blank line.
/// `Ok(None)` means the head exceeded [`MAX_HEAD_BYTES`].
fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, ParseError> {
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES as u64 + 1));
    let mut line = String::new();
    let mut total = reader.read_line(&mut line)?;
    if total == 0 || total > MAX_HEAD_BYTES {
        return if total == 0 {
            Err(ParseError::Malformed)
        } else {
            Ok(None)
        };
    }

    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(ParseError::Malformed)?.to_string();
    let target = parts.next().ok_or(ParseError::Malformed)?;
    let version = parts.next().ok_or(ParseError::Malformed)?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed);
    }
    let path = target
        .split_once('?')
        .map_or(target, |(p, _)| p)
        .to_string();

    // Consume headers until the blank line; contents are irrelevant for
    // GET-only exposition, but the head-size cap still applies.
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header)?;
        total += n;
        if total > MAX_HEAD_BYTES {
            return Ok(None);
        }
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }

    Ok(Some(Request { method, path }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_router() -> Router {
        let mut router = Router::new();
        router.get("/ping", |_req| Response::text(200, "pong"));
        router
    }

    fn raw_request(addr: SocketAddr, head: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(head.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn get(addr: SocketAddr, target: &str) -> String {
        raw_request(
            addr,
            &format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n"),
        )
    }

    #[test]
    fn serves_registered_route() {
        let server = Server::bind("127.0.0.1:0", test_router(), 2).unwrap();
        let reply = get(server.local_addr(), "/ping");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("Connection: close"), "{reply}");
        assert!(reply.ends_with("pong"), "{reply}");
    }

    #[test]
    fn unknown_path_is_404_and_non_get_is_405() {
        let server = Server::bind("127.0.0.1:0", test_router(), 1).unwrap();
        let missing = get(server.local_addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let post = raw_request(
            server.local_addr(),
            "POST /ping HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
    }

    #[test]
    fn a_query_string_is_split_off_the_path() {
        let server = Server::bind("127.0.0.1:0", test_router(), 1).unwrap();
        let reply = get(server.local_addr(), "/ping?x=1");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.ends_with("pong"), "{reply}");
    }

    #[test]
    fn malformed_request_line_is_400() {
        let server = Server::bind("127.0.0.1:0", test_router(), 1).unwrap();
        let reply = raw_request(server.local_addr(), "garbage\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    }

    #[test]
    fn oversized_head_is_431() {
        let server = Server::bind("127.0.0.1:0", test_router(), 1).unwrap();
        // Exactly MAX_HEAD_BYTES + 1 bytes total: one over the limit, yet
        // fully consumed by the server's capped reader, so the close is
        // clean (no unread bytes → no TCP RST racing the response).
        let request_line = "GET /ping HTTP/1.1\r\n";
        let pad = MAX_HEAD_BYTES + 1 - request_line.len() - "X-Pad: ".len();
        let head = format!("{request_line}X-Pad: {}", "a".repeat(pad));
        assert_eq!(head.len(), MAX_HEAD_BYTES + 1);
        let reply = raw_request(server.local_addr(), &head);
        assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");
    }

    #[test]
    fn concurrent_scrapes_all_succeed() {
        let server = Server::bind("127.0.0.1:0", test_router(), 4).unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..16)
            .map(|_| std::thread::spawn(move || get(addr, "/ping")))
            .collect();
        for h in handles {
            let reply = h.join().unwrap();
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        }
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let mut server = Server::bind("127.0.0.1:0", test_router(), 2).unwrap();
        let addr = server.local_addr();
        assert!(get(addr, "/ping").starts_with("HTTP/1.1 200"));
        server.shutdown();
        server.shutdown(); // idempotent
                           // The listener is gone: either refused outright or accepted by the
                           // OS backlog and then closed without a response.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                let _ = s.write_all(b"GET /ping HTTP/1.1\r\n\r\n");
                let mut buf = String::new();
                let n = s.read_to_string(&mut buf).unwrap_or(0);
                assert_eq!(n, 0, "got response after shutdown: {buf}");
            }
        }
    }
}
