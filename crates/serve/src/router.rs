//! The shard router: one front process fanning requests across worker
//! serving processes.
//!
//! The router is just another [`FrameHandler`] plugged into the same
//! reactor connection core as [`Service`](crate::server::Service) — a
//! client cannot tell a router from a single-process server by the
//! wire protocol. A logical `predict_batch` is split row-contiguously
//! across the shard workers, answered by each over NDJSON framing, and
//! reassembled **bit-identically**: the per-row kernels are
//! row-independent, the split preserves row order, and predictions are
//! re-concatenated as raw JSON values (never re-parsed through `f64`),
//! so the fanned answer equals the single-process answer byte for
//! byte.
//!
//! `discover` cannot be split (one SD run consumes the whole pseudo-
//! labelled sample), so it routes whole to one shard chosen by seed —
//! every shard serves the same artifact, so any shard's answer is the
//! canonical one. `swap` broadcasts so the fleet flips together; `info`
//! aggregates per-shard state.

use std::sync::Mutex;

use reds_json::Json;

use crate::client::{Client, ClientError};
use crate::protocol::{error_response, ok_response, Request, ServeError, ServeLimits};
use crate::reactor::{poller_backend, FrameHandler};
use crate::server::validate_points;

/// One worker serving process the router fans out to, with a small
/// pool of idle connections (one per concurrent executor in practice).
struct Shard {
    addr: String,
    pool: Mutex<Vec<Client>>,
}

/// A shard-routing front handler; serve it with
/// [`serve_handler`](crate::server::serve_handler).
pub struct Router {
    shards: Vec<Shard>,
    limits: ServeLimits,
    propagate_shutdown: bool,
}

impl Router {
    /// Builds a router over worker addresses. Connections are opened
    /// lazily per request and pooled, so workers may come up after the
    /// router does.
    pub fn new(addrs: Vec<String>, limits: ServeLimits) -> Self {
        assert!(!addrs.is_empty(), "router needs at least one shard");
        Self {
            shards: addrs
                .into_iter()
                .map(|addr| Shard {
                    addr,
                    pool: Mutex::new(Vec::new()),
                })
                .collect(),
            limits,
            propagate_shutdown: false,
        }
    }

    /// When enabled, a `shutdown` request to the router is broadcast
    /// (best-effort) to every shard before the router itself stops.
    pub fn propagate_shutdown(mut self, yes: bool) -> Self {
        self.propagate_shutdown = yes;
        self
    }

    /// Number of shard workers behind this router.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Checks a client out of shard `i`'s pool (connecting if the pool
    /// is dry), runs `call` on it, and returns the client to the pool
    /// unless the transport failed.
    fn call_shard(
        &self,
        i: usize,
        call: impl FnOnce(&mut Client) -> Result<Json, ClientError>,
    ) -> Result<Json, ClientError> {
        let shard = &self.shards[i];
        let pooled = shard.pool.lock().expect("shard pool").pop();
        let mut client = match pooled {
            Some(c) => c,
            None => Client::connect(&*shard.addr)?,
        };
        let outcome = call(&mut client);
        // A structured server error leaves the connection healthy (the
        // reply was framed normally); only transport-level failures
        // poison the pooled connection.
        if !matches!(
            outcome,
            Err(ClientError::Io(_)) | Err(ClientError::Timeout { .. })
        ) {
            shard.pool.lock().expect("shard pool").push(client);
        }
        outcome
    }

    /// Maps a shard call failure to the structured error the router
    /// answers with: shard-side errors keep their code, transport
    /// failures become `internal`.
    fn shard_error(&self, i: usize, e: ClientError) -> ServeError {
        match e {
            ClientError::Server { code, message } => {
                let message = format!("shard {i}: {message}");
                match code.as_str() {
                    "parse" => ServeError::parse(message),
                    "bad_request" => ServeError::bad_request(message),
                    "too_large" => ServeError::too_large(message),
                    "too_busy" => ServeError::too_busy(message),
                    _ => ServeError::internal(message),
                }
            }
            other => ServeError::internal(format!(
                "shard {i} ({}) failed: {other}",
                self.shards[i].addr
            )),
        }
    }

    /// Splits `rows` as evenly as possible across the shards while
    /// preserving order: shard `i` serves a contiguous run of
    /// `rows/S` rows, with the first `rows % S` shards taking one
    /// extra. Returns `(start_row, row_count)` per shard.
    fn split_rows(&self, rows: usize) -> Vec<(usize, usize)> {
        let s = self.shards.len();
        let base = rows / s;
        let extra = rows % s;
        let mut start = 0;
        (0..s)
            .map(|i| {
                let take = base + usize::from(i < extra);
                let span = (start, take);
                start += take;
                span
            })
            .collect()
    }

    fn predict_batch(
        &self,
        points: &[f64],
        m: usize,
        model: Option<&str>,
    ) -> Result<Json, ServeError> {
        // The router enforces the whole-request limits itself (with
        // `model_m = m`, since only the shards know the model width):
        // splitting first would let an oversized request slip through
        // as S under-limit shard requests.
        validate_points(points, m, m, &self.limits)?;
        let rows = points.len() / m;
        let spans = self.split_rows(rows);
        // Fan the shard calls out concurrently; each shard owns its
        // own connection pool, so the scope only shares `&self`.
        let outcomes: Vec<Option<Result<Json, ClientError>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = spans
                .iter()
                .enumerate()
                .map(|(i, &(start, take))| {
                    if take == 0 {
                        return None;
                    }
                    let rows = &points[start * m..(start + take) * m];
                    Some(scope.spawn(move || {
                        self.call_shard(i, |c| c.predict_batch_result(model, rows, m))
                    }))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.map(|h| h.join().expect("shard fan-out thread")))
                .collect()
        });
        let mut predictions = Vec::with_capacity(rows);
        let mut version = 0u64;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let Some(outcome) = outcome else { continue };
            let result = outcome.map_err(|e| self.shard_error(i, e))?;
            let part = result
                .get("predictions")
                .and_then(Json::as_array)
                .ok_or_else(|| {
                    ServeError::internal(format!("shard {i} answered without 'predictions'"))
                })?;
            // Concatenate the shard's prediction *values* verbatim —
            // no f64 round-trip, so the reassembled reply is the exact
            // bytes a single-process server would have sent.
            predictions.extend(part.iter().cloned());
            let v = result.get("version").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            version = version.max(v);
        }
        Ok(Json::obj([
            ("predictions", Json::Arr(predictions)),
            ("version", Json::num(version as f64)),
        ]))
    }

    /// Routes a whole request to the shard picked by `seed` — discover
    /// runs are indivisible, and every shard serves the same artifact.
    fn route_whole(&self, seed: u64, request: &Request) -> Result<Json, ServeError> {
        let i = (seed % self.shards.len() as u64) as usize;
        self.call_shard(i, |c| c.call(request))
            .map_err(|e| self.shard_error(i, e))
    }

    fn swap_all(&self, model: Option<&str>, path: &str) -> Result<Json, ServeError> {
        let mut outcomes = Vec::with_capacity(self.shards.len());
        for i in 0..self.shards.len() {
            let request = Request::Swap {
                id: 1,
                model: model.map(str::to_string),
                path: path.to_string(),
            };
            // A mid-broadcast failure leaves earlier shards on the new
            // version — surfaced as an error so the operator retries
            // until the whole fleet agrees.
            let outcome = self
                .call_shard(i, |c| c.call(&request))
                .map_err(|e| self.shard_error(i, e))?;
            outcomes.push(outcome);
        }
        Ok(Json::obj([("shards", Json::Arr(outcomes))]))
    }

    fn info(&self) -> Result<Json, ServeError> {
        let mut infos = Vec::with_capacity(self.shards.len());
        for i in 0..self.shards.len() {
            let request = Request::Info { id: 1 };
            let info = self
                .call_shard(i, |c| c.call(&request))
                .map_err(|e| self.shard_error(i, e))?;
            infos.push(info);
        }
        Ok(Json::obj([
            ("router", Json::Bool(true)),
            ("reactor", Json::str(poller_backend())),
            ("shards", Json::num(self.shards.len() as f64)),
            (
                "shard_addrs",
                Json::arr(self.shards.iter().map(|s| Json::str(s.addr.clone()))),
            ),
            ("shard_info", Json::Arr(infos)),
        ]))
    }

    fn dispatch(&self, request: Request) -> (Json, bool) {
        match request {
            Request::PredictBatch {
                id,
                points,
                m,
                model,
            } => match self.predict_batch(&points, m, model.as_deref()) {
                Ok(result) => (ok_response(id, result), false),
                Err(e) => (error_response(id, &e), false),
            },
            Request::Discover {
                id,
                ref params,
                model: _,
            } => match self.route_whole(params.seed, &request) {
                Ok(result) => (ok_response(id, result), false),
                Err(e) => (error_response(id, &e), false),
            },
            Request::DiscoverStreaming {
                id,
                ref params,
                model: _,
            } => match self.route_whole(params.seed.unwrap_or(0), &request) {
                Ok(result) => (ok_response(id, result), false),
                Err(e) => (error_response(id, &e), false),
            },
            Request::Swap { id, model, path } => match self.swap_all(model.as_deref(), &path) {
                Ok(result) => (ok_response(id, result), false),
                Err(e) => (error_response(id, &e), false),
            },
            Request::Info { id } => match self.info() {
                Ok(result) => (ok_response(id, result), false),
                Err(e) => (error_response(id, &e), false),
            },
            Request::Shutdown { id } => {
                if self.propagate_shutdown {
                    for i in 0..self.shards.len() {
                        let _ = self.call_shard(i, |c| c.call(&Request::Shutdown { id: 1 }));
                    }
                }
                (
                    ok_response(id, Json::obj([("shutdown", Json::Bool(true))])),
                    true,
                )
            }
        }
    }
}

impl FrameHandler for Router {
    fn handle_frame(&self, line: &str) -> (Json, bool) {
        crate::protocol::answer_frame(line, |request| self.dispatch(request))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(n: usize) -> Router {
        Router::new(
            (0..n)
                .map(|i| format!("127.0.0.1:{}", 50_000 + i))
                .collect(),
            ServeLimits::default(),
        )
    }

    #[test]
    fn split_rows_is_contiguous_balanced_and_ordered() {
        for shards in 1..=5usize {
            let r = router(shards);
            for rows in [0usize, 1, 2, 3, 7, 64, 1_000] {
                let spans = r.split_rows(rows);
                assert_eq!(spans.len(), shards);
                let mut next = 0;
                for &(start, take) in &spans {
                    assert_eq!(start, next, "contiguous, ordered");
                    next += take;
                }
                assert_eq!(next, rows, "every row assigned exactly once");
                let max = spans.iter().map(|s| s.1).max().unwrap();
                let min = spans.iter().map(|s| s.1).min().unwrap();
                assert!(max - min <= 1, "balanced: {spans:?}");
            }
        }
    }

    #[test]
    fn router_rejects_bad_requests_without_touching_shards() {
        // No shard listens on these addresses — validation must fail
        // first, proving limits are enforced at the front.
        let r = router(2);
        let err = r.predict_batch(&[1.0, 2.0, 3.0], 2, None).unwrap_err();
        assert_eq!(err.code, crate::protocol::ErrorCode::BadRequest);
        let tight = Router::new(
            vec!["127.0.0.1:1".to_string()],
            ServeLimits {
                max_rows_per_request: 2,
                ..Default::default()
            },
        );
        let err = tight.predict_batch(&[0.0; 6], 2, None).unwrap_err();
        assert_eq!(err.code, crate::protocol::ErrorCode::TooLarge);
    }

    #[test]
    fn unreachable_shards_surface_as_internal_errors() {
        let r = router(1);
        let err = r.predict_batch(&[0.5, 0.5], 2, None).unwrap_err();
        assert_eq!(err.code, crate::protocol::ErrorCode::Internal);
        assert!(err.message.contains("shard 0"), "{}", err.message);
    }
}
