//! A Flask-like routed service abstraction.
//!
//! The paper's backend is a Flask app the DApp calls for heavy lifting
//! (model aggregation on the buyer's GPU workstation). [`Service`] models
//! that: named routes with handlers, invoked through a [`crate::link::Link`]
//! that charges request/response transfer time to the virtual clock, plus an
//! access log for inspection.

use crate::clock::{SimClock, SimDuration};
use crate::link::Link;
use std::collections::HashMap;

/// A request to a service route.
#[derive(Debug, Clone)]
pub struct Request {
    /// Route path, e.g. `/aggregate`.
    pub path: String,
    /// Opaque payload.
    pub body: Vec<u8>,
}

/// A response from a handler.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP-ish status (200 = ok).
    pub status: u16,
    /// Opaque payload.
    pub body: Vec<u8>,
    /// Simulated server-side processing time (e.g. GPU aggregation).
    pub processing: SimDuration,
}

impl Response {
    /// A 200 response with no processing delay.
    pub fn ok(body: Vec<u8>) -> Response {
        Response {
            status: 200,
            body,
            processing: SimDuration::ZERO,
        }
    }

    /// Attaches a processing time.
    pub fn with_processing(mut self, d: SimDuration) -> Response {
        self.processing = d;
        self
    }

    /// A 404 response.
    pub fn not_found() -> Response {
        Response {
            status: 404,
            body: b"not found".to_vec(),
            processing: SimDuration::ZERO,
        }
    }
}

/// One access-log entry.
#[derive(Debug, Clone)]
pub struct AccessLogEntry {
    /// Route requested.
    pub path: String,
    /// Response status.
    pub status: u16,
    /// Total virtual time the call took (network + processing).
    pub duration: SimDuration,
}

type Handler = Box<dyn FnMut(&Request) -> Response + Send>;

/// A routed service reachable over a link.
pub struct Service {
    name: String,
    routes: HashMap<String, Handler>,
    log: Vec<AccessLogEntry>,
}

impl Service {
    /// Creates an empty service.
    pub fn new(name: impl Into<String>) -> Service {
        Service {
            name: name.into(),
            routes: HashMap::new(),
            log: Vec::new(),
        }
    }

    /// Service name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a route handler (replacing any previous one). Handlers
    /// are `Send`, so a service moves with its owner onto a worker thread.
    pub fn route(
        &mut self,
        path: impl Into<String>,
        handler: impl FnMut(&Request) -> Response + Send + 'static,
    ) {
        self.routes.insert(path.into(), Box::new(handler));
    }

    /// Calls a route through `link`, advancing `clock` by request transfer +
    /// processing + response transfer. Returns the response.
    pub fn call(&mut self, clock: &SimClock, link: &Link, path: &str, body: Vec<u8>) -> Response {
        let started = clock.now();
        let request = Request {
            path: path.to_string(),
            body,
        };
        clock.advance(link.transfer_time(request.body.len() as u64));
        let response = match self.routes.get_mut(path) {
            Some(handler) => handler(&request),
            None => Response::not_found(),
        };
        clock.advance(response.processing);
        clock.advance(link.transfer_time(response.body.len() as u64));
        self.log.push(AccessLogEntry {
            path: path.to_string(),
            status: response.status,
            duration: clock.now().since(started),
        });
        response
    }

    /// The access log.
    pub fn access_log(&self) -> &[AccessLogEntry] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    fn test_link() -> Link {
        Link::new(SimDuration::from_millis(1), 1_000_000.0)
    }

    #[test]
    fn routes_dispatch_and_log() {
        let clock = SimClock::new();
        let mut svc = Service::new("backend");
        svc.route("/ping", |_req| Response::ok(b"pong".to_vec()));
        let resp = svc.call(&clock, &test_link(), "/ping", vec![]);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"pong");
        assert_eq!(svc.access_log().len(), 1);
        assert_eq!(svc.access_log()[0].path, "/ping");
        // Two 1 ms latencies + 4 bytes of payload.
        assert!(clock.elapsed_secs() >= 0.002);
    }

    #[test]
    fn unknown_route_404s() {
        let clock = SimClock::new();
        let mut svc = Service::new("backend");
        let resp = svc.call(&clock, &test_link(), "/nope", vec![]);
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn processing_time_charged() {
        let clock = SimClock::new();
        let mut svc = Service::new("backend");
        svc.route("/slow", |_req| {
            Response::ok(vec![]).with_processing(SimDuration::from_secs(3))
        });
        svc.call(&clock, &test_link(), "/slow", vec![]);
        assert!(clock.elapsed_secs() >= 3.002);
        assert!(svc.access_log()[0].duration >= SimDuration::from_secs(3));
    }

    #[test]
    fn handler_state_mutates() {
        let clock = SimClock::new();
        let mut svc = Service::new("counter");
        let mut count = 0u32;
        svc.route("/inc", move |_req| {
            count += 1;
            Response::ok(count.to_be_bytes().to_vec())
        });
        svc.call(&clock, &test_link(), "/inc", vec![]);
        let resp = svc.call(&clock, &test_link(), "/inc", vec![]);
        assert_eq!(resp.body, 2u32.to_be_bytes());
    }

    #[test]
    fn payload_size_affects_duration() {
        let clock = SimClock::new();
        let mut svc = Service::new("upload");
        svc.route("/put", |_req| Response::ok(vec![]));
        svc.call(&clock, &test_link(), "/put", vec![0u8; 1_000_000]);
        // 1 MB over 1 MB/s plus latencies ≈ 1 s.
        assert!(clock.elapsed_secs() > 1.0);
    }
}
