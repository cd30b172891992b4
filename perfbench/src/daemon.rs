//! One in-process `rpcd` connection over loopback TCP: the daemon's
//! `serve_stream` dispatch loop on its own thread, serving one accepted
//! socket with `TCP_NODELAY` set as the daemon's accept loop sets it.

use crate::bench::Wire;
use ofl_rpc::{FrameError, FrameTransport, RemoteEndpoint, WireCounter};
use ofl_rpcd::{serve_stream, Connection};
use std::net::TcpListener;
use std::thread::JoinHandle;

/// A running daemon thread and the client's view of its socket.
pub struct Daemon {
    server: JoinHandle<Result<u64, FrameError>>,
    counter: WireCounter,
}

impl Daemon {
    /// Serves `conn` on a fresh loopback port and connects to it,
    /// returning the daemon and the connected client transport.
    pub fn start(conn: Connection) -> (Daemon, Box<dyn FrameTransport>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address").to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener
                .accept()
                .map_err(|e| FrameError::Io(format!("accept: {e}")))?;
            stream
                .set_nodelay(true)
                .map_err(|e| FrameError::Io(format!("nodelay: {e}")))?;
            serve_stream(stream, conn)
        });
        let (transport, counter) = RemoteEndpoint::Tcp(addr)
            .connect_counted()
            .expect("connect to the in-process rpcd");
        (Daemon { server, counter }, transport)
    }

    /// Waits for the daemon to end — the client must have hung up or
    /// said `Shutdown` — and returns the socket's counters, noting in
    /// `problems` a daemon failure or a frame the daemon did not serve.
    pub fn join(self, problems: &mut Vec<String>) -> Wire {
        let frames_served = match self.server.join() {
            Ok(Ok(frames)) => frames,
            Ok(Err(e)) => {
                problems.push(format!("daemon failed: {e}"));
                0
            }
            Err(_) => {
                problems.push("daemon thread panicked".into());
                0
            }
        };
        let wire = Wire {
            frames_sent: self.counter.frames_sent(),
            recv_wait_s: self.counter.recv_wait_secs(),
            frames_served,
        };
        if wire.frames_sent != wire.frames_served {
            problems.push(format!(
                "client sent {} frames but the daemon served {}",
                wire.frames_sent, wire.frames_served
            ));
        }
        wire
    }
}
