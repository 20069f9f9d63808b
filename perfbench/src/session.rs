//! One client session on the NDJSON `serve` wire, over in-memory pipes.
//!
//! `serve` runs on its own thread exactly as `termite serve` runs it; the
//! client keeps at most [`MAX_IN_FLIGHT`] requests outstanding (a closed
//! loop) and times each from writing its request line to reading its
//! response line.

use crate::workloads::Input;
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};
use termite_driver::json::Json;
use termite_driver::{serve, EngineSelection, ResultCache, ServeConfig};

/// Requests the client keeps in flight, and the service's worker count: one
/// per core of the 2-core machine the benchmark is sized for.
pub const MAX_IN_FLIGHT: usize = 2;

/// Per-request analysis budget; a request that hits it answers `unknown`
/// and fails its known-answer check.
pub const REQUEST_TIMEOUT_MS: u64 = 30_000;

/// Reads the request stream; end of stream once the client drops its sender.
struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Collects the response stream into lines for the client.
struct PipeWriter {
    tx: Sender<Vec<u8>>,
    line: Vec<u8>,
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        for &byte in data {
            if byte == b'\n' {
                let line = std::mem::take(&mut self.line);
                self.tx
                    .send(line)
                    .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
            } else {
                self.line.push(byte);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One answered request.
pub struct Response {
    pub input: Input,
    /// From writing the request line to reading the response line.
    pub latency_ms: f64,
    /// The parsed response line.
    pub doc: Json,
}

impl Response {
    /// The verdict name; `error` for a response that carries none.
    pub fn verdict(&self) -> &str {
        match self.doc.get("status").and_then(Json::as_str) {
            Some("ok") => self
                .doc
                .get("verdict")
                .and_then(Json::as_str)
                .unwrap_or("error"),
            _ => "error",
        }
    }

    /// Whether the service answered from its result cache.
    pub fn cached(&self) -> bool {
        self.doc
            .get("from_cache")
            .and_then(Json::as_bool)
            .unwrap_or(false)
    }

    /// Analysis time the service reports for the job.
    pub fn wall_ms(&self) -> f64 {
        self.doc
            .get("wall_millis")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }
}

/// Runs one session: requests come from `next` until it returns `None`,
/// each answered response goes to `on_response`. Returns the
/// `{"stats": true}` snapshot taken after the last response.
pub fn run(
    selection: &EngineSelection,
    cache: Option<&ResultCache>,
    trace: bool,
    mut next: impl FnMut() -> Result<Option<Input>, String>,
    mut on_response: impl FnMut(Response) -> Result<(), String>,
) -> Result<Json, String> {
    let config = ServeConfig {
        workers: MAX_IN_FLIGHT,
        selection: selection.clone(),
        max_inflight: MAX_IN_FLIGHT,
        ..ServeConfig::default()
    };
    let (request_tx, request_rx) = channel::<Vec<u8>>();
    let (response_tx, response_rx) = channel::<Vec<u8>>();
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let input = BufReader::new(PipeReader {
                rx: request_rx,
                buf: Vec::new(),
                pos: 0,
            });
            let output = PipeWriter {
                tx: response_tx,
                line: Vec::new(),
            };
            serve(input, output, &config, cache)
        });
        let client = drive(
            &request_tx,
            &response_rx,
            trace,
            &mut next,
            &mut on_response,
        );
        // End of the request stream: the service drains and returns.
        drop(request_tx);
        let served = server
            .join()
            .map_err(|_| "the serve thread panicked".to_string())?;
        served.map_err(|e| format!("serve: {e}"))?;
        client
    })
}

fn drive(
    requests: &Sender<Vec<u8>>,
    responses: &Receiver<Vec<u8>>,
    trace: bool,
    next: &mut dyn FnMut() -> Result<Option<Input>, String>,
    on_response: &mut dyn FnMut(Response) -> Result<(), String>,
) -> Result<Json, String> {
    let mut sent = 0usize;
    let mut in_flight: HashMap<String, (Input, Instant)> = HashMap::new();
    let mut send = |input: Input, in_flight: &mut HashMap<String, (Input, Instant)>| {
        let id = format!("r{sent}");
        sent += 1;
        let line = format!(
            "{{\"id\":\"{id}\",\"program\":{},\"timeout_ms\":{REQUEST_TIMEOUT_MS}{}}}\n",
            Json::String(input.text.clone()),
            if trace { ",\"trace\":true" } else { "" }
        );
        in_flight.insert(id, (input, Instant::now()));
        requests
            .send(line.into_bytes())
            .map_err(|_| "the service closed its input".to_string())
    };
    let receive = || -> Result<(Json, Instant), String> {
        let line = responses
            .recv_timeout(Duration::from_millis(2 * REQUEST_TIMEOUT_MS))
            .map_err(|_| "no response from the service".to_string())?;
        let at = Instant::now();
        let text = String::from_utf8(line).map_err(|_| "response is not UTF-8".to_string())?;
        let doc = Json::parse(&text).map_err(|e| format!("response line: {e}"))?;
        Ok((doc, at))
    };

    while in_flight.len() < MAX_IN_FLIGHT {
        match next()? {
            Some(input) => send(input, &mut in_flight)?,
            None => break,
        }
    }
    while !in_flight.is_empty() {
        let (doc, at) = receive()?;
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("response without an id: {doc}"))?
            .to_string();
        // An error or cancelled line has no verdict: the known-answer check
        // counts it as a failed job.
        let (input, sent_at) = in_flight
            .remove(&id)
            .ok_or_else(|| format!("response for unknown id `{id}`"))?;
        on_response(Response {
            input,
            latency_ms: (at - sent_at).as_secs_f64() * 1000.0,
            doc,
        })?;
        if let Some(input) = next()? {
            send(input, &mut in_flight)?;
        }
    }
    requests
        .send(b"{\"stats\":true,\"id\":\"stats\"}\n".to_vec())
        .map_err(|_| "the service closed its input".to_string())?;
    let (stats, _) = receive()?;
    if stats.get("status").and_then(Json::as_str) != Some("stats") {
        return Err(format!("expected the stats line, got {stats}"));
    }
    Ok(stats)
}
