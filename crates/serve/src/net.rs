//! Socket transport for the daemon: TCP and Unix-domain listeners
//! speaking the length-prefixed frame protocol of [`crate::protocol`].
//!
//! Each accepted connection gets its own thread and its own client
//! identity (for the scheduler's per-client fairness and admission
//! accounting). Malformed or oversized frames are answered with typed
//! [`Response::Rejected`] replies — a bad request never disconnects a
//! client, and never takes the daemon down. Only transport-level failures
//! (EOF, truncated frame, I/O error) end a connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use muml_obs::json::ToJson;

use crate::error::ServeError;
use crate::protocol::{read_frame, write_frame, FrameError, Request, Response};
use crate::server::Daemon;

/// A duplex byte stream over either transport.
#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Arms the per-read/write socket timeouts (slowloris defence — see
    /// [`crate::ServeConfig::io_timeout`]).
    fn set_io_timeout(&self, timeout: Option<Duration>) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.set_read_timeout(timeout);
                let _ = s.set_write_timeout(timeout);
            }
            Stream::Unix(s) => {
                let _ = s.set_read_timeout(timeout);
                let _ = s.set_write_timeout(timeout);
            }
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

struct ServerInner {
    daemon: Daemon,
    stopping: AtomicBool,
    stop_signal: Mutex<bool>,
    stopped: Condvar,
    next_client: AtomicU64,
    /// A clone of every open connection's socket, by client id, so a stop
    /// can unblock its reader. Event pumps leave this list: they end when
    /// the daemon's shutdown disconnects their channel, after delivering
    /// every event emitted before it.
    conns: Mutex<Vec<(u64, Stream)>>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl ServerInner {
    /// Flips the stop flag and unblocks every parked thread: acceptors
    /// (via self-connect), connection readers (via socket shutdown), and
    /// [`Server::wait`] callers (via the condvar).
    fn begin_stop(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(addr) = self.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(path) = &self.unix_path {
            let _ = UnixStream::connect(path);
        }
        for (_, conn) in self
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            conn.shutdown();
        }
        *self
            .stop_signal
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
        self.stopped.notify_all();
    }
}

/// A daemon bound to its sockets.
///
/// Dropping the handle does *not* stop the server; call [`Server::stop`]
/// (or let a client's `shutdown` request trigger it) first.
pub struct Server {
    inner: Arc<ServerInner>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("tcp_addr", &self.inner.tcp_addr)
            .field("unix_path", &self.inner.unix_path)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the daemon to a TCP address and/or a Unix socket path and
    /// starts accepting connections. At least one transport must be
    /// given. A pre-existing file at the Unix path is removed first (a
    /// stale socket from a crashed daemon would otherwise block binding).
    ///
    /// # Errors
    ///
    /// Propagates bind failures; fails with [`io::ErrorKind::InvalidInput`]
    /// when neither transport is requested.
    pub fn bind(daemon: Daemon, tcp: Option<&str>, unix: Option<&Path>) -> io::Result<Server> {
        if tcp.is_none() && unix.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "muml-serve needs at least one of --tcp / --unix",
            ));
        }
        let tcp_listener = match tcp {
            Some(addr) => {
                let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
                Some(TcpListener::bind(&addrs[..])?)
            }
            None => None,
        };
        let unix_listener = match unix {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Some(UnixListener::bind(path)?)
            }
            None => None,
        };
        let inner = Arc::new(ServerInner {
            daemon,
            stopping: AtomicBool::new(false),
            stop_signal: Mutex::new(false),
            stopped: Condvar::new(),
            next_client: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            tcp_addr: tcp_listener.as_ref().and_then(|l| l.local_addr().ok()),
            unix_path: unix.map(Path::to_path_buf),
        });
        let mut acceptors = Vec::new();
        if let Some(listener) = tcp_listener {
            let inner = Arc::clone(&inner);
            acceptors.push(thread::spawn(move || {
                accept_loop(inner, move || {
                    listener.accept().map(|(s, _)| {
                        // Frames are small request/reply pairs; Nagle
                        // would add ~40ms per round trip.
                        let _ = s.set_nodelay(true);
                        Stream::Tcp(s)
                    })
                });
            }));
        }
        if let Some(listener) = unix_listener {
            let inner = Arc::clone(&inner);
            acceptors.push(thread::spawn(move || {
                accept_loop(inner, move || {
                    listener.accept().map(|(s, _)| Stream::Unix(s))
                });
            }));
        }
        inner
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(acceptors);
        Ok(Server { inner })
    }

    /// The bound TCP address (with the OS-assigned port when bound to
    /// port 0), if TCP was requested.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.inner.tcp_addr
    }

    /// The bound Unix socket path, if requested.
    pub fn unix_path(&self) -> Option<&Path> {
        self.inner.unix_path.as_deref()
    }

    /// Blocks until the server begins stopping (a client sent `shutdown`,
    /// or another thread called [`Server::stop`]), then joins all server
    /// threads and the daemon's workers.
    pub fn wait(&self) {
        let mut stopped = self
            .inner
            .stop_signal
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !*stopped {
            stopped = self
                .inner
                .stopped
                .wait(stopped)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(stopped);
        self.join_threads();
    }

    /// Stops the server: shuts the daemon down, closes listeners and live
    /// connections, and joins every thread. Safe to call more than once.
    pub fn stop(&self) {
        self.inner.daemon.shutdown();
        self.inner.begin_stop();
        self.join_threads();
    }

    fn join_threads(&self) {
        let handles: Vec<_> = self
            .inner
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.inner.daemon.join();
        if let Some(path) = &self.inner.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn accept_loop(inner: Arc<ServerInner>, accept: impl Fn() -> io::Result<Stream>) {
    loop {
        let stream = match accept() {
            Ok(stream) => stream,
            Err(_) => {
                if inner.stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.stopping.load(Ordering::SeqCst) {
            return;
        }
        let client = inner.next_client.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            inner
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((client, clone));
        }
        let conn_inner = Arc::clone(&inner);
        let handle = thread::spawn(move || handle_conn(conn_inner, client, stream));
        inner
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
    }
}

fn handle_conn(inner: Arc<ServerInner>, client: u64, mut stream: Stream) {
    serve_conn(&inner, client, &mut stream);
    // The acceptor holds a clone of this socket (for shutdown-on-stop), so
    // dropping our handle is not enough — shut the connection down so the
    // peer observes the disconnect.
    stream.shutdown();
}

fn serve_conn(inner: &Arc<ServerInner>, client: u64, stream: &mut Stream) {
    let config = inner.daemon.config();
    let max_frame = config.max_frame;
    let idle_deadline = config.idle_timeout;
    stream.set_io_timeout(config.io_timeout);
    // Idle accounting is anchored to the last *complete* frame: partial
    // bytes trickling in do not reset the clock.
    let mut last_frame = std::time::Instant::now();
    loop {
        if inner.stopping.load(Ordering::SeqCst) {
            return;
        }
        let frame = match read_frame(stream, max_frame) {
            Ok(frame) => {
                last_frame = std::time::Instant::now();
                frame
            }
            // Recoverable: the stream is still in sync, answer typed.
            Err(FrameError::Oversized { length, max }) => {
                let reply = Response::Rejected {
                    error: ServeError::OversizedFrame { length, max },
                };
                if write_frame(stream, &reply.to_json()).is_err() {
                    return;
                }
                continue;
            }
            Err(FrameError::Malformed(detail)) => {
                let reply = Response::Rejected {
                    error: ServeError::Malformed { detail },
                };
                if write_frame(stream, &reply.to_json()).is_err() {
                    return;
                }
                continue;
            }
            // A timeout at a frame boundary: the stream is in sync, so
            // only the idle deadline (when configured) ends the
            // connection.
            Err(FrameError::IdleTimeout) => match idle_deadline {
                Some(deadline) if last_frame.elapsed() >= deadline => return,
                _ => continue,
            },
            // Fatal for this connection only: a peer that stalled
            // mid-frame (slowloris) can never resynchronize.
            Err(
                FrameError::Closed
                | FrameError::Truncated
                | FrameError::Stalled
                | FrameError::Io(_),
            ) => return,
        };
        let request = match Request::from_json(&frame) {
            Ok(request) => request,
            Err(error) => {
                let reply = Response::Rejected { error };
                if write_frame(stream, &reply.to_json()).is_err() {
                    return;
                }
                continue;
            }
        };
        match request {
            Request::Submit { request, priority } => {
                let reply = match inner.daemon.submit(client, &request, priority) {
                    Ok(job) => Response::Accepted { job },
                    Err(error) => Response::Rejected { error },
                };
                if write_frame(stream, &reply.to_json()).is_err() {
                    return;
                }
            }
            Request::Wait { job } => {
                let reply = match inner.daemon.wait(job) {
                    Ok(record) => Response::Verdict(record),
                    Err(error) => Response::Rejected { error },
                };
                if write_frame(stream, &reply.to_json()).is_err() {
                    return;
                }
            }
            Request::Cancel { job } => {
                let reply = match inner.daemon.cancel(job) {
                    Ok(state) => Response::Cancelled { job, state },
                    Err(error) => Response::Rejected { error },
                };
                if write_frame(stream, &reply.to_json()).is_err() {
                    return;
                }
            }
            Request::History => {
                let reply = Response::History {
                    entries: inner.daemon.history(),
                };
                if write_frame(stream, &reply.to_json()).is_err() {
                    return;
                }
            }
            Request::Stats => {
                let reply = Response::Stats(inner.daemon.stats());
                if write_frame(stream, &reply.to_json()).is_err() {
                    return;
                }
            }
            Request::Subscribe => {
                let events = inner.daemon.subscribe();
                if write_frame(stream, &Response::Subscribed.to_json()).is_err() {
                    return;
                }
                // The connection becomes an event pump until it drops or
                // the daemon shuts down. A stop must not cut it off while
                // events are still buffered — a client that saw a verdict
                // may stop the server before the pump wrote that job's
                // `job_finished` — so it leaves the stop's shutdown list
                // and drains its channel, which the daemon's shutdown
                // (always first in a stop) disconnects.
                inner
                    .conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .retain(|(id, _)| *id != client);
                loop {
                    match events.recv_timeout(Duration::from_millis(100)) {
                        Ok(event) => {
                            if write_frame(stream, &event.to_json()).is_err() {
                                return;
                            }
                        }
                        // A backstop only: every stop shuts the daemon
                        // down first, which disconnects the channel.
                        Err(RecvTimeoutError::Timeout) => {
                            if inner.stopping.load(Ordering::SeqCst) {
                                return;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            }
            Request::Shutdown => {
                inner.daemon.shutdown();
                let _ = write_frame(stream, &Response::ShuttingDown.to_json());
                // Wake `Server::wait` and close everything; joining is
                // the waiter's job (we're one of the joined threads).
                inner.begin_stop();
                return;
            }
        }
    }
}
