//! Pluggable transports over the line-oriented core.
//!
//! Anything that can move newline-delimited text is a valid transport;
//! both implementations here feed [`crate::Server::handle_line`]:
//!
//! * [`InProcClient`] / [`ChannelConnection`] — an in-process pair of
//!   mpsc channels. Zero I/O, usable in tests and CI with no network or
//!   filesystem footprint, and exercises the exact same code path as a
//!   real socket.
//! * [`UnixServer`] — a unix domain socket listener for out-of-process
//!   clients (`nc -U`, scripts, sidecars). Accepts on a non-blocking
//!   listener so shutdown is prompt; each connection gets a thread.
//!   Request lines longer than [`MAX_LINE_BYTES`] get one `error`
//!   response and the connection is closed.

use crate::protocol::{encode_failure, STATUS_ERROR};
use crate::server::{Server, ServerState};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request line the unix transport reads, in bytes, not counting
/// the terminating newline. A peer that sends more without a newline
/// cannot grow the server's line buffer past this.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A bidirectional line connection, as seen from the server side.
pub trait Connection: Send {
    /// Receives the next request line; `None` when the peer is gone.
    fn recv_line(&mut self) -> Option<String>;
    /// Sends one response line; `false` when the peer is gone.
    fn send_line(&mut self, line: &str) -> bool;
}

/// Serves one connection to completion: request line in, response line
/// out, until the peer disconnects.
fn serve_connection(state: &Arc<ServerState>, conn: &mut dyn Connection) {
    while let Some(line) = conn.recv_line() {
        let response = state.handle_line(&line);
        if !conn.send_line(&response) {
            break;
        }
    }
}

/// Server half of an in-process channel transport.
#[derive(Debug)]
pub struct ChannelConnection {
    requests: Receiver<String>,
    responses: Sender<String>,
}

impl Connection for ChannelConnection {
    fn recv_line(&mut self) -> Option<String> {
        self.requests.recv().ok()
    }

    fn send_line(&mut self, line: &str) -> bool {
        self.responses.send(line.to_string()).is_ok()
    }
}

/// Client half of an in-process channel transport. Cheap to create — a
/// concurrency test can open one per thread.
#[derive(Debug)]
pub struct InProcClient {
    requests: Sender<String>,
    responses: Receiver<String>,
}

impl InProcClient {
    /// Sends one raw line and blocks for the response line. `None` if
    /// the server side is gone.
    #[must_use]
    pub fn request_line(&self, line: &str) -> Option<String> {
        self.requests.send(line.to_string()).ok()?;
        self.responses.recv().ok()
    }

    /// Sends a typed request and parses the typed response.
    ///
    /// # Errors
    ///
    /// Returns a description when the connection is closed or the
    /// response does not parse.
    pub fn request(&self, request: &crate::Request) -> Result<crate::Response, String> {
        let line = self
            .request_line(&request.to_line())
            .ok_or_else(|| "connection closed".to_string())?;
        crate::Response::parse(&line)
    }
}

impl Server {
    /// Opens an in-process connection served by a dedicated thread. The
    /// connection closes (and its thread exits) when the returned client
    /// is dropped.
    #[must_use]
    pub fn connect(&self) -> InProcClient {
        let (request_tx, request_rx) = channel();
        let (response_tx, response_rx) = channel();
        let mut conn = ChannelConnection {
            requests: request_rx,
            responses: response_tx,
        };
        let state = self.state();
        std::thread::Builder::new()
            .name("ramp-serve-conn".to_string())
            .spawn(move || serve_connection(&state, &mut conn))
            .expect("spawning a connection thread succeeds"); // ramp-lint:allow(panic-hygiene) -- thread spawn fails only on resource exhaustion
        InProcClient {
            requests: request_tx,
            responses: response_rx,
        }
    }

    /// Starts serving on a unix domain socket at `path` (removed and
    /// re-created if it exists). One accept loop; a thread per
    /// connection.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the socket cannot be bound.
    pub fn serve_unix(&self, path: &Path) -> std::io::Result<UnixServer> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = self.state();
        let accept_shutdown = Arc::clone(&shutdown);
        let accept = std::thread::Builder::new()
            .name("ramp-serve-accept".to_string())
            .spawn(move || accept_loop(&state, &listener, &accept_shutdown))
            .expect("spawning the accept thread succeeds"); // ramp-lint:allow(panic-hygiene) -- thread spawn fails only on resource exhaustion
        Ok(UnixServer {
            path: path.to_path_buf(),
            shutdown,
            accept: Some(accept),
        })
    }
}

fn accept_loop(state: &Arc<ServerState>, listener: &UnixListener, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    ramp_obs::warn!("serve: failed to configure accepted unix stream");
                    continue;
                }
                let state = Arc::clone(state);
                let spawned = std::thread::Builder::new()
                    .name("ramp-serve-unix-conn".to_string())
                    .spawn(move || match UnixConnection::new(stream) {
                        Ok(mut conn) => serve_connection(&state, &mut conn),
                        Err(e) => ramp_obs::warn!("serve: unix connection setup failed: {}", e),
                    });
                if spawned.is_err() {
                    ramp_obs::warn!("serve: failed to spawn unix connection thread");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                ramp_obs::warn!("serve: unix accept failed: {}", e);
                break;
            }
        }
    }
}

/// A unix-socket connection on the server side.
#[derive(Debug)]
struct UnixConnection {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl UnixConnection {
    fn new(stream: UnixStream) -> std::io::Result<Self> {
        let writer = stream.try_clone()?;
        Ok(UnixConnection {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

impl Connection for UnixConnection {
    fn recv_line(&mut self) -> Option<String> {
        let mut line = Vec::new();
        let limit = MAX_LINE_BYTES as u64 + 1;
        match self.reader.by_ref().take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                ramp_obs::counter("serve.lines_rejected").incr();
                let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                self.send_line(&encode_failure(0, STATUS_ERROR, &message));
                None
            }
            Ok(_) => String::from_utf8(line)
                .ok()
                .map(|line| line.trim_end_matches(['\r', '\n']).to_string()),
        }
    }

    fn send_line(&mut self, line: &str) -> bool {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .is_ok()
    }
}

/// Handle to a running unix-socket listener. Stops accepting (and
/// removes the socket file) on [`UnixServer::stop`] or drop.
#[derive(Debug)]
pub struct UnixServer { // ramp-lint:allow(atomic-ordering) -- shutdown flag is a one-way Relaxed latch
    path: PathBuf,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl UnixServer {
    /// Path of the bound socket file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stops the accept loop and removes the socket file. Established
    /// connections keep draining until their clients disconnect.
    pub fn stop(mut self) {
        self.stop_in_place();
    }

    fn stop_in_place(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept.take() {
            if handle.join().is_err() {
                ramp_obs::warn!("serve: unix accept thread panicked during shutdown");
            }
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for UnixServer {
    fn drop(&mut self) {
        self.stop_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use crate::server::ServeOptions;
    use ramp_core::mechanisms::PerMechanism;
    use ramp_core::{PipelineConfig, Qualification, QueryEngine};

    fn test_server() -> Server {
        let qualification =
            Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap();
        let engine = QueryEngine::with_qualification(
            qualification,
            PipelineConfig::quick(),
            "transport-tests",
        );
        Server::start(
            engine,
            ServeOptions {
                threads: 1,
                ..ServeOptions::default()
            },
        )
    }

    #[test]
    fn inproc_roundtrip() {
        let server = test_server();
        let client = server.connect();
        let response = client.request(&Request::ping(1)).unwrap();
        assert!(response.is_ok());
        assert_eq!(response.id, 1);
    }

    #[test]
    fn inproc_clients_are_independent() {
        let server = test_server();
        let a = server.connect();
        let b = server.connect();
        drop(a);
        let response = b.request(&Request::ping(2)).unwrap();
        assert_eq!(response.id, 2);
    }

    #[test]
    fn unix_socket_roundtrip() {
        let server = test_server();
        let dir = std::env::temp_dir().join(format!("ramp-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("roundtrip.sock");
        let unix = server.serve_unix(&socket).unwrap();

        let mut stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        stream
            .write_all((Request::ping(3).to_line() + "\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = crate::Response::parse(line.trim_end()).unwrap();
        assert!(response.is_ok());
        assert_eq!(response.id, 3);
        drop(stream);
        unix.stop();
        assert!(!socket.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unix_socket_rejects_an_unbounded_line_and_keeps_serving() {
        let server = test_server();
        let dir = std::env::temp_dir().join(format!("ramp-serve-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("cap.sock");
        let unix = server.serve_unix(&socket).unwrap();
        let connect = || loop {
            match UnixStream::connect(&socket) {
                Ok(s) => {
                    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    break s;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let read_response = |stream: &UnixStream| {
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            crate::Response::parse(line.trim_end()).unwrap()
        };
        let rejected_before = ramp_obs::counter("serve.lines_rejected").get();

        // 1 MiB with no newline: the server stops reading at the cap, so
        // the tail of this write may fail once it closes the connection.
        let mut hostile = connect();
        let _ = hostile.write_all(&vec![b'x'; 1 << 20]);
        let response = read_response(&hostile);
        assert_eq!(response.status, crate::protocol::STATUS_ERROR);
        let error = response.error.unwrap();
        assert!(error.contains(&MAX_LINE_BYTES.to_string()), "names the limit: {error}");
        assert!(ramp_obs::counter("serve.lines_rejected").get() > rejected_before);

        let mut next = connect();
        next.write_all((Request::ping(4).to_line() + "\n").as_bytes())
            .unwrap();
        let pong = read_response(&next);
        assert!(pong.is_ok());
        assert_eq!(pong.id, 4);
        unix.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
