//! The two servers a workload can drive, both behind one line-in/line-out
//! interface.
//!
//! * [`Plain`] is the measured boundary: `SessionManager::handle_line`,
//!   the exact per-line body of a `ses serve --listen` connection thread.
//! * [`Traced`] composes the same public calls in the order
//!   `NetSession::handle` uses them — decode, resolve, handle (or answer
//!   from the published view), publish, encode — and records one span per
//!   call. Its responses are byte-equal to [`Plain`]'s by construction,
//!   and the workloads check that they are.

use ses_algorithms::service::net::DEFAULT_SESSION;
use ses_algorithms::service::{
    is_read_only, wire, DurableService, Query, ReadView, Request, Response, SesService,
    SessionBackend, SessionManager,
};
use ses_core::error::ServiceError;
use ses_core::model::Instance;
use ses_core::parallel::Threads;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Something that answers one wire request line with one response line.
pub trait Server: Sync {
    /// Answers one request line.
    fn handle_line(&self, line: &str) -> String;

    /// Every span recorded so far; none for an untraced server.
    fn spans(&self) -> Vec<Span> {
        Vec::new()
    }
}

/// The untraced server: a [`SessionManager`] driven at its line boundary.
pub struct Plain(pub SessionManager);

impl Server for Plain {
    fn handle_line(&self, line: &str) -> String {
        self.0.handle_line(line)
    }
}

/// One recorded span. Times are nanoseconds since the server was built.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which of the run's servers recorded it (0 = the booted one; each
    /// `ingest_durable_20k` segment has its own).
    pub server: u64,
    /// Span id (unique per server, starting at 1).
    pub id: u64,
    /// Enclosing span id; 0 for a request's root span.
    pub parent: u64,
    /// Request sequence number (1-based).
    pub request: u64,
    /// Which call the span wraps.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span length in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The traced server: the calls of `SessionManager::handle_line` and
/// `NetSession::handle`, composed by hand so that each one can be timed.
/// It serves one session's requests; the session-control requests
/// (`OpenSession`, `CloseSession`, `ListSessions`), which no workload
/// sends, are not routed to the manager.
pub struct Traced {
    /// Answers `resolve` for the default session, exactly as the manager
    /// inside [`Plain`] does; requests are then served by `writer`.
    resolver: SessionManager,
    writer: Mutex<SessionBackend>,
    published: RwLock<Arc<ReadView>>,
    spans: Mutex<Vec<Span>>,
    epoch: Instant,
    next_id: AtomicU64,
    next_request: AtomicU64,
}

impl Traced {
    /// A traced in-memory session (`state_dir` `None`) or durable session
    /// under `state_dir`, starting from `inst`.
    ///
    /// # Errors
    /// Durable-open failures.
    pub fn new(
        inst: Instance,
        threads: Threads,
        state_dir: Option<&Path>,
    ) -> Result<Self, ServiceError> {
        let (resolver, _) = SessionManager::new(inst.clone(), threads, None, 0, 1)?;
        let backend = match state_dir {
            None => SessionBackend::Plain(SesService::new(inst).with_threads(threads)),
            Some(dir) => SessionBackend::Durable(
                DurableService::open(&dir.join(DEFAULT_SESSION), inst, threads, 0)?.0,
            ),
        };
        let published = RwLock::new(Arc::new(backend.service().read_view()));
        Ok(Self {
            resolver,
            writer: Mutex::new(backend),
            published,
            spans: Mutex::new(Vec::new()),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// Records child spans of one request.
struct RequestSpans<'a> {
    server: &'a Traced,
    request: u64,
    root: u64,
    spans: Vec<Span>,
}

impl RequestSpans<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.server.now_ns();
        let out = f();
        let end_ns = self.server.now_ns();
        let id = self.server.id();
        self.spans.push(Span {
            server: 0,
            id,
            parent: self.root,
            request: self.request,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Writes spans as JSON lines to `path`.
///
/// # Errors
/// Filesystem errors.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"server\":{},\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.server, s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

impl Server for Traced {
    fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    fn handle_line(&self, line: &str) -> String {
        let start_ns = self.now_ns();
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        let root = self.id();
        let mut rs = RequestSpans { server: self, request, root, spans: Vec::with_capacity(5) };
        let resp = match rs.time("wire.decode", || wire::decode_request_routed(line)) {
            Err(e) => error_response(&e),
            Ok((req, session)) => {
                let name = session.as_deref().unwrap_or(DEFAULT_SESSION);
                match rs.time("net.resolve", || self.resolver.resolve(name)) {
                    Err(e) => error_response(&e),
                    Ok(_) if is_read_only(&req) => {
                        let view = Arc::clone(&self.published.read().expect("read-view lock"));
                        rs.time(answer_span(&req), || view.answer(&req))
                    }
                    Ok(_) => {
                        let mut writer = self.writer.lock().expect("writer lock");
                        let resp = rs.time(handle_span(&req), || writer.handle(&req));
                        rs.time("net.publish", || {
                            let fresh = Arc::new(writer.service().read_view());
                            *self.published.write().expect("read-view lock") = fresh;
                        });
                        resp
                    }
                }
            }
        };
        let out = rs.time("wire.encode", || wire::encode_response(&resp));
        let end_ns = self.now_ns();
        let mut spans = rs.spans;
        spans.push(Span {
            server: 0,
            id: root,
            parent: 0,
            request,
            name: "request",
            start_ns,
            end_ns,
        });
        self.spans.lock().expect("span lock").extend(spans);
        out
    }
}

fn error_response(e: &ServiceError) -> Response {
    Response::Error { code: e.code().to_string(), message: e.to_string() }
}

/// Span name of a published-view answer.
fn answer_span(req: &Request) -> &'static str {
    match req {
        Request::Query { query: Query::Event { .. } } => "view.answer.Event",
        Request::Query { query: Query::User { .. } } => "view.answer.User",
        Request::Query { query: Query::Interval { .. } } => "view.answer.Interval",
        _ => "view.answer.Snapshot",
    }
}

/// Span name of a writer-side `SessionBackend::handle`.
fn handle_span(req: &Request) -> &'static str {
    match req {
        Request::Schedule { algorithm, .. } => match algorithm.as_str() {
            "ALG" => "service.handle.Schedule.ALG",
            "INC" => "service.handle.Schedule.INC",
            "HOR" => "service.handle.Schedule.HOR",
            "HOR-I" => "service.handle.Schedule.HOR-I",
            _ => "service.handle.Schedule",
        },
        Request::ApplyOps { .. } => "service.handle.ApplyOps",
        Request::Repair { .. } => "service.handle.Repair",
        Request::Persist => "service.handle.Persist",
        Request::Restore => "service.handle.Restore",
        _ => "service.handle.other",
    }
}
