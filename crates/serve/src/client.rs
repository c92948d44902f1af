//! Blocking client for the daemon's wire protocol.
//!
//! [`ServeClient`] speaks the same length-prefixed JSON frames as the
//! server over TCP or a Unix socket, and surfaces every failure — typed
//! server rejections and transport faults alike — as a [`ServeError`].

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

use muml_fleet::JobRequest;
use muml_obs::json::{Json, ToJson};

use crate::error::ServeError;
use crate::protocol::{
    read_frame, write_frame, CancelState, FrameError, Priority, Request, Response, ServerStats,
    VerdictRecord, MAX_FRAME_DEFAULT,
};

/// The client's transport.
#[derive(Debug)]
enum ClientStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            ClientStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

/// A blocking connection to a `muml-serve` daemon.
///
/// One connection is one scheduling client: the daemon's per-client
/// fairness and admission limits key on it. Calls are synchronous
/// request/reply; [`ServeClient::subscribe`] consumes the connection and
/// turns it into an event stream.
#[derive(Debug)]
pub struct ServeClient {
    stream: ClientStream,
    max_frame: usize,
}

fn frame_to_serve(error: FrameError) -> ServeError {
    match error {
        FrameError::Closed => ServeError::Transport {
            detail: "server closed the connection".into(),
        },
        FrameError::Truncated => ServeError::Transport {
            detail: "truncated frame".into(),
        },
        FrameError::Oversized { length, max } => ServeError::OversizedFrame { length, max },
        FrameError::Malformed(detail) => ServeError::Malformed { detail },
        // The client never arms socket timeouts itself, but a caller may
        // have set them on the raw socket; map both to transport errors.
        FrameError::IdleTimeout | FrameError::Stalled => ServeError::Transport {
            detail: "socket timeout".into(),
        },
        FrameError::Io(e) => ServeError::from(e),
    }
}

impl ServeClient {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] on connection failure.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<ServeClient, ServeError> {
        let stream = TcpStream::connect(addr).map_err(ServeError::from)?;
        stream.set_nodelay(true).map_err(ServeError::from)?;
        Ok(ServeClient {
            stream: ClientStream::Tcp(stream),
            max_frame: MAX_FRAME_DEFAULT,
        })
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] on connection failure.
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<ServeClient, ServeError> {
        let stream = UnixStream::connect(path).map_err(ServeError::from)?;
        Ok(ServeClient {
            stream: ClientStream::Unix(stream),
            max_frame: MAX_FRAME_DEFAULT,
        })
    }

    /// Sets the maximum reply-frame size this client will accept.
    #[must_use]
    pub fn with_max_frame(mut self, max_frame: usize) -> Self {
        self.max_frame = max_frame.max(64);
        self
    }

    /// One request/reply round trip. Server-side rejections come back as
    /// `Ok(Response::Rejected { .. })`; the `Err` arm is transport-only.
    fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.stream, &request.to_json()).map_err(ServeError::from)?;
        let frame = read_frame(&mut self.stream, self.max_frame).map_err(frame_to_serve)?;
        Response::from_json(&frame)
    }

    /// Submits a job and returns its daemon-assigned id.
    ///
    /// # Errors
    ///
    /// The daemon's typed rejection (admission, resolution, shutdown) or
    /// a transport failure.
    pub fn submit(&mut self, request: &JobRequest, priority: Priority) -> Result<u64, ServeError> {
        match self.call(&Request::Submit {
            request: request.clone(),
            priority,
        })? {
            Response::Accepted { job } => Ok(job),
            Response::Rejected { error } => Err(error),
            other => Err(unexpected(&other)),
        }
    }

    /// Blocks until the job's verdict is available.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] or a transport failure.
    pub fn wait(&mut self, job: u64) -> Result<VerdictRecord, ServeError> {
        match self.call(&Request::Wait { job })? {
            Response::Verdict(record) => Ok(record),
            Response::Rejected { error } => Err(error),
            other => Err(unexpected(&other)),
        }
    }

    /// Cancels a job (dequeues it, or signals it if already running).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] or a transport failure.
    pub fn cancel(&mut self, job: u64) -> Result<CancelState, ServeError> {
        match self.call(&Request::Cancel { job })? {
            Response::Cancelled { state, .. } => Ok(state),
            Response::Rejected { error } => Err(error),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the daemon's bounded verdict history, oldest first.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn history(&mut self) -> Result<Vec<VerdictRecord>, ServeError> {
        match self.call(&Request::History)? {
            Response::History { entries } => Ok(entries),
            Response::Rejected { error } => Err(error),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the daemon's counters.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            Response::Rejected { error } => Err(error),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the daemon to shut down (queued jobs are cancelled, running
    /// ones signalled, the server stops accepting connections).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Rejected { error } => Err(error),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends a raw pre-encoded frame and returns the decoded reply.
    /// Intended for protocol testing (unknown methods, foreign versions).
    ///
    /// # Errors
    ///
    /// Transport failures; malformed replies.
    pub fn call_raw(&mut self, frame: &Json) -> Result<Response, ServeError> {
        write_frame(&mut self.stream, frame).map_err(ServeError::from)?;
        let reply = read_frame(&mut self.stream, self.max_frame).map_err(frame_to_serve)?;
        Response::from_json(&reply)
    }

    /// Turns this connection into a live event stream. Consumes the
    /// client: after subscribing, the connection only carries events.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn subscribe(mut self) -> Result<EventStream, ServeError> {
        match self.call(&Request::Subscribe)? {
            Response::Subscribed => Ok(EventStream {
                stream: self.stream,
                max_frame: self.max_frame,
            }),
            Response::Rejected { error } => Err(error),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(response: &Response) -> ServeError {
    ServeError::Malformed {
        detail: format!("unexpected reply: {}", response.to_json().encode()),
    }
}

/// A subscribed connection yielding daemon events until the server
/// closes it (daemon shutdown) or an I/O error occurs.
#[derive(Debug)]
pub struct EventStream {
    stream: ClientStream,
    max_frame: usize,
}

impl Iterator for EventStream {
    type Item = Response;

    fn next(&mut self) -> Option<Response> {
        loop {
            let frame = read_frame(&mut self.stream, self.max_frame).ok()?;
            match Response::from_json(&frame) {
                Ok(response) => return Some(response),
                Err(_) => continue,
            }
        }
    }
}
