//! A small blocking client for the serving protocol, used by the
//! integration tests, the CI smoke test, the shard [`router`]
//! (crate::router), and the `reds_client` CLI.
//!
//! Every read runs under a socket read timeout with a bounded retry
//! budget — a stalled or wedged server surfaces as a structured
//! [`ClientError::Timeout`] after the configured patience instead of
//! blocking the calling thread forever. `too_busy` refusals (a full
//! prediction queue, or admission control at accept time) can
//! optionally be retried with jittered exponential [`Backoff`],
//! reconnecting per attempt because the server may have closed the
//! refused connection.

use std::fmt;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use reds_json::Json;
use reds_subgroup::SdResult;

use crate::backoff::Backoff;
use crate::protocol::{write_predict_batch, DiscoverParams, Request, StreamDiscoverParams};
use crate::wire::{self, Frame, RetryBudget};

/// How long each blocking read waits before re-checking its budget;
/// the total patience is [`Client::set_timeout`]'s duration rounded up
/// to a whole number of these slices.
const READ_SLICE: Duration = Duration::from_millis(250);

/// Replies slower than this are treated as a dead server. Generous,
/// because `discover` at large `l` legitimately takes a while — but
/// finite, so no caller ever hangs forever by default.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(120);

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server's reply could not be understood.
    Protocol(String),
    /// No complete reply arrived within the configured read timeout.
    Timeout {
        /// The total patience that was exhausted.
        after: Duration,
    },
    /// The server answered with a structured error.
    Server {
        /// Wire error code ("parse", "bad_request", "too_busy", …).
        code: String,
        /// Server-provided description.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Protocol(m) => write!(f, "protocol error: {m}"),
            Self::Timeout { after } => {
                write!(f, "no reply within {:.1}s", after.as_secs_f64())
            }
            Self::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Retry policy for `too_busy` refusals.
struct BusyRetry {
    retries: u32,
    backoff: Backoff,
}

/// One connection to a serving process.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: SocketAddr,
    next_id: u64,
    timeout: Duration,
    busy: Option<BusyRetry>,
}

impl Client {
    /// Connects to a running server. Replies are awaited under
    /// [`DEFAULT_TIMEOUT`]; adjust with [`Client::set_timeout`].
    /// `too_busy` refusals are returned immediately; opt into retries
    /// with [`Client::set_busy_retry`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        stream.set_nodelay(true).ok();
        // The socket timeout paces the retry loop; the *total* patience
        // is enforced by a RetryBudget per read, so it can be changed
        // later without touching socket options.
        stream.set_read_timeout(Some(READ_SLICE))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            peer,
            next_id: 1,
            timeout: DEFAULT_TIMEOUT,
            busy: None,
        })
    }

    /// Sets the total patience for each reply. `None` restores the
    /// default — reads are always bounded; there is no infinite mode.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.timeout = timeout.unwrap_or(DEFAULT_TIMEOUT);
        Ok(())
    }

    /// Enables retrying `too_busy` server refusals: up to `retries`
    /// extra attempts, sleeping a jittered exponential delay drawn from
    /// `backoff` between attempts. Each retry reconnects, because an
    /// admission-control refusal closes the rejected connection.
    pub fn set_busy_retry(&mut self, retries: u32, backoff: Backoff) {
        self.busy = Some(BusyRetry { retries, backoff });
    }

    /// Disables `too_busy` retries (the default).
    pub fn clear_busy_retry(&mut self) {
        self.busy = None;
    }

    /// Reconnects to the same peer, replacing the underlying stream;
    /// the id counter and timeout carry over.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(self.peer)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_SLICE))?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        Ok(())
    }

    /// Sends one raw line and reads one raw response line — the escape
    /// hatch the malformed-frame tests use.
    pub fn send_raw_line(&mut self, line: &str) -> Result<Json, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Json, ClientError> {
        let mut budget = RetryBudget::for_total(self.timeout, READ_SLICE);
        // The server never sends a frame this large; the cap only stops
        // a corrupted or hostile stream from ballooning client memory.
        const MAX_RESPONSE_BYTES: usize = 256 << 20;
        match wire::read_frame(&mut self.reader, MAX_RESPONSE_BYTES, &mut budget)? {
            Frame::Line(line) => {
                let text = String::from_utf8_lossy(&line);
                reds_json::from_str(text.trim())
                    .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))
            }
            Frame::Eof => Err(ClientError::Protocol(
                "server closed the connection".to_string(),
            )),
            Frame::TooLarge => Err(ClientError::Protocol(format!(
                "response frame exceeds {MAX_RESPONSE_BYTES} bytes"
            ))),
            Frame::TimedOut => Err(ClientError::Timeout {
                after: self.timeout,
            }),
        }
    }

    /// Sends a request and returns the `result` object of a successful
    /// response, or the structured server error. With
    /// [`Client::set_busy_retry`] enabled, `too_busy` refusals are
    /// retried under jittered exponential backoff.
    pub fn call(&mut self, request: &Request) -> Result<Json, ClientError> {
        self.call_frame(request.id(), request.to_json().to_string_compact())
    }

    /// [`Client::call`] on a request already encoded as its wire text.
    fn call_frame(&mut self, sent_id: u64, mut frame: String) -> Result<Json, ClientError> {
        frame.push('\n');
        if let Some(b) = self.busy.as_mut() {
            b.backoff.reset();
        }
        let mut attempt = 0u32;
        loop {
            let outcome = self.call_once(sent_id, &frame);
            let busy =
                matches!(&outcome, Err(ClientError::Server { code, .. }) if code == "too_busy");
            if !busy {
                return outcome;
            }
            let delay = match self.busy.as_mut() {
                Some(b) if attempt < b.retries => b.backoff.next_delay(),
                _ => return outcome,
            };
            attempt += 1;
            std::thread::sleep(delay);
            // The refusal may have come with a closed connection
            // (accept-time admission control does that); a fresh
            // connection covers both cases.
            self.reconnect()?;
        }
    }

    fn call_once(&mut self, sent_id: u64, frame: &str) -> Result<Json, ClientError> {
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()?;
        let doc = self.read_response()?;
        let id = doc.get("id").and_then(Json::as_f64).unwrap_or(-1.0);
        let ok = doc.get("ok").and_then(Json::as_bool);
        // Accept error frames carrying id 0 even when a different id was
        // sent: the server answers pre-request failures that way — an
        // admission-control `too_busy` refusal at accept time, or a
        // frame the server could not parse back to an id.
        if id != sent_id as f64 && !(id == 0.0 && ok == Some(false)) {
            return Err(ClientError::Protocol(format!(
                "response id {id} does not match request id {sent_id}"
            )));
        }
        match ok {
            // Moved out of the reply rather than cloned; the first
            // `result` wins, as with `Json::get`.
            Some(true) => match doc {
                Json::Obj(pairs) => pairs.into_iter().find(|(k, _)| k == "result"),
                _ => None,
            }
            .map(|(_, result)| result)
            .ok_or_else(|| ClientError::Protocol("missing 'result'".to_string())),
            Some(false) => {
                let error = doc.get("error");
                let get = |key: &str| {
                    error
                        .and_then(|e| e.get(key))
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_string()
                };
                Err(ClientError::Server {
                    code: get("code"),
                    message: get("message"),
                })
            }
            None => Err(ClientError::Protocol("missing 'ok'".to_string())),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Predicts every row of a row-major buffer with `m` columns
    /// against the server's default model.
    pub fn predict_batch(&mut self, points: &[f64], m: usize) -> Result<Vec<f64>, ClientError> {
        self.predict_batch_on(None, points, m)
            .map(|(_, preds)| preds)
    }

    /// Predicts against a named registry model (`None` = the default),
    /// also returning the registry version that served the batch.
    pub fn predict_batch_on(
        &mut self,
        model: Option<&str>,
        points: &[f64],
        m: usize,
    ) -> Result<(u64, Vec<f64>), ClientError> {
        let result = self.predict_batch_result(model, points, m)?;
        let arr = result
            .get("predictions")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("missing 'predictions'".to_string()))?;
        let preds = arr
            .iter()
            .map(|v| {
                // Numbers plus the "inf"/"-inf"/"nan" markers, matching
                // the server's (and the model files') encoding.
                reds_metamodel::persist::f64_from_json(v)
                    .map_err(|_| ClientError::Protocol("non-numeric prediction".to_string()))
            })
            .collect::<Result<Vec<f64>, ClientError>>()?;
        let version = result.get("version").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        Ok((version, preds))
    }

    /// Sends a `predict_batch` frame written straight from `points`
    /// (no request tree, no copy of the points) and returns the reply's
    /// `result` object.
    pub(crate) fn predict_batch_result(
        &mut self,
        model: Option<&str>,
        points: &[f64],
        m: usize,
    ) -> Result<Json, ClientError> {
        let id = self.fresh_id();
        let mut frame = String::new();
        write_predict_batch(&mut frame, id, points, m, model);
        self.call_frame(id, frame)
    }

    /// Runs scenario discovery on the server's default model.
    pub fn discover(&mut self, params: &DiscoverParams) -> Result<SdResult, ClientError> {
        self.discover_on(None, params)
    }

    /// Runs scenario discovery on a named registry model.
    pub fn discover_on(
        &mut self,
        model: Option<&str>,
        params: &DiscoverParams,
    ) -> Result<SdResult, ClientError> {
        let id = self.fresh_id();
        let result = self.call(&Request::Discover {
            id,
            params: params.clone(),
            model: model.map(str::to_string),
        })?;
        SdResult::from_json(&result)
            .ok_or_else(|| ClientError::Protocol("unparseable 'boxes'".to_string()))
    }

    /// Runs streaming scenario discovery on the server's default
    /// model. Omitting the seed (`params.seed = None`) asks the server
    /// to stream the pool recorded in its artifact (`pool_seed`),
    /// reproducible from the artifact file alone.
    pub fn discover_streaming(
        &mut self,
        params: &StreamDiscoverParams,
    ) -> Result<SdResult, ClientError> {
        self.discover_streaming_on(None, params)
    }

    /// Runs streaming scenario discovery on a named registry model.
    pub fn discover_streaming_on(
        &mut self,
        model: Option<&str>,
        params: &StreamDiscoverParams,
    ) -> Result<SdResult, ClientError> {
        let id = self.fresh_id();
        let result = self.call(&Request::DiscoverStreaming {
            id,
            params: params.clone(),
            model: model.map(str::to_string),
        })?;
        SdResult::from_json(&result)
            .ok_or_else(|| ClientError::Protocol("unparseable 'boxes'".to_string()))
    }

    /// Hot-swaps a registry model (`None` = the default) to the
    /// artifact at `path` on the server's filesystem; returns the
    /// swap outcome object (new version, drain report).
    pub fn swap(&mut self, model: Option<&str>, path: &str) -> Result<Json, ClientError> {
        let id = self.fresh_id();
        self.call(&Request::Swap {
            id,
            model: model.map(str::to_string),
            path: path.to_string(),
        })
    }

    /// Fetches the model/server description.
    pub fn info(&mut self) -> Result<Json, ClientError> {
        let id = self.fresh_id();
        self.call(&Request::Info { id })
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.call(&Request::Shutdown { id }).map(|_| ())
    }
}
