//! Serve-path regression test for cancellation *during invariant
//! refinement* (ISSUE 5 satellite): the Houdini strengthening loop and the
//! `FixpointPipeline` feasibility probes used to build bare `SmtContext`s
//! with no interrupt installed, so a `{"cancel": id}` arriving while a job
//! was inside a refinement round could only land once the whole round
//! finished (seconds later). With the engine's token threaded through
//! `FixpointPipeline::set_interrupt`, the cancel must land within one SMT
//! query.
//!
//! The test calibrates itself against the machine: it first measures the
//! refinement-free prefix of the analysis (initial pipeline stages plus the
//! one failing synthesis attempt), then cancels the served job a fraction
//! *after* that prefix has elapsed — i.e. provably inside the refinement
//! rounds, which take several times the prefix — and requires the cancelled
//! response within one further prefix-duration.

use std::io::{BufReader, Read, Write};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use termite_core::{prove_termination, AnalysisOptions, CancelToken, Engine, Verdict};
use termite_driver::json::Json;
use termite_driver::{parse_selection, serve, ServeConfig};
use termite_ir::parse_named_program;

/// A loop whose conditional-termination proof spends most of its time in
/// precondition-refinement rounds: the `x = x + y` core fails without a
/// precondition on `y`, and the six gcd-style companions make every
/// refinement round's forward + Houdini + feasibility stages expensive
/// (large disjunctive transition formulas, many guard candidates, eight
/// variables' worth of separating half-spaces to try).
const HEAVY_REFINE: &str = "var x, y, a, b, c, d, e, f;\n\
    while (x > 0 && a != b && c != d && e != f) {\n\
      x = x + y;\n\
      if (a > b) { a = a - b; } else { b = b - a; }\n\
      if (c > d) { c = c - d; } else { d = d - c; }\n\
      if (e > f) { e = e - f; } else { f = f - e; }\n\
    }\n";

/// A blocking line source, as `serve`'s intake would see a socket.
struct ChannelReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(mut line) => {
                    line.push('\n');
                    self.buf = line.into_bytes();
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // all senders dropped: EOF
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A writer the test can observe while `serve` is still running.
#[derive(Clone, Default)]
struct SharedWriter(Arc<Mutex<Vec<u8>>>);

impl Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedWriter {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }

    fn response(&self, id: &str) -> Option<Json> {
        self.text()
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .find(|doc| doc.get("id").and_then(Json::as_str) == Some(id))
    }
}

#[test]
fn cancel_lands_mid_refinement_not_after_it() {
    // Calibration: the refinement-free prefix of the very analysis the
    // service will run (initial pipeline stages + the one failing synthesis
    // attempt). The refinement rounds the served job then enters take
    // several times this long, so "prefix + 25%" is inside them on any
    // machine, fast or slow.
    let program = parse_named_program(HEAVY_REFINE, "heavy").unwrap();
    let prefix_options = AnalysisOptions {
        max_refinements: 0,
        ..AnalysisOptions::default()
    };
    let calibration = Instant::now();
    let prefix_report = prove_termination(&program, &prefix_options);
    let prefix = calibration.elapsed();
    assert!(
        matches!(prefix_report.verdict, Verdict::Unknown { .. }),
        "calibration run must fail without refinement (got {:?})",
        prefix_report.verdict
    );
    // Sanity for the timing argument: with refinement enabled the analysis
    // must run much longer than the prefix (measured ~3.5x; anything ≥ 2x
    // keeps the cancel window wide open).
    let cancel_at = prefix + prefix / 4;

    let (line_tx, line_rx) = channel::<String>();
    let reader = ChannelReader {
        rx: line_rx,
        buf: Vec::new(),
        pos: 0,
    };
    let writer = SharedWriter::default();
    let observed = writer.clone();
    let config = ServeConfig {
        workers: 1,
        selection: parse_selection("termite").unwrap(),
        options: AnalysisOptions::with_engine(Engine::Termite).with_cancel(CancelToken::new()),
        job_timeout: None,
        max_inflight: 4,
        stats_every: None,
        ..ServeConfig::default()
    };

    let serve_thread =
        std::thread::spawn(move || serve(BufReader::new(reader), writer, &config, None));

    let request = Json::object([
        ("id", Json::String("refine".to_string())),
        ("program", Json::String(HEAVY_REFINE.to_string())),
    ]);
    let submitted = Instant::now();
    line_tx.send(request.to_string()).unwrap();

    // Let the job run into its refinement rounds, then cancel.
    std::thread::sleep(cancel_at);
    let cancelled_at = Instant::now();
    line_tx.send(r#"{"cancel": "refine"}"#.to_string()).unwrap();
    drop(line_tx); // EOF: serve exits once the job answers

    let summary = serve_thread.join().unwrap().expect("serve succeeds");
    let latency = cancelled_at.elapsed();
    let response = observed
        .response("refine")
        .unwrap_or_else(|| panic!("no response for `refine`; stream: {}", observed.text()));
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("cancelled"),
        "the mid-refinement cancel must be acknowledged as cancelled"
    );
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.ok, 0);
    // The heart of the regression: before the interrupt was threaded into
    // the invariant pipeline's SMT loops, the cancel could not land until
    // the refinement round finished — several prefix-durations later. With
    // it, the latency is one SMT query (milliseconds); one prefix-duration
    // is orders of magnitude of slack without being flaky on slow machines.
    assert!(
        latency < prefix.max(Duration::from_secs(2)),
        "cancel took {latency:?} to land (prefix was {prefix:?}): \
         the refinement loops are not polling the interrupt"
    );
    // And the job genuinely was cancelled mid-run, not pre-run: it had been
    // running for the whole calibrated window before the cancel line.
    assert!(submitted.elapsed() >= cancel_at);
}
