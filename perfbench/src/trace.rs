//! In-memory spans around each layer call, timed by the harness-side
//! [`WallClock`], and written out once when the run ends.
//!
//! Spans come from two sources. The benchmark opens one around every
//! call into a layer. Inside the protocol call, the network engine's
//! `round` begin/end events (recorded on a wall-clocked
//! [`TelemetrySink`]) are joined to the protocol's `phase` events, which
//! give each phase's round range, to yield one `netsim.<phase>` span per
//! round.

use npd_experiments::trace::WallClock;
use npd_telemetry::{Clock, EventKind, FieldValue, TelemetrySink};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One timed interval of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Trial index within the run.
    pub trial: u32,
    /// Layer name (`design`, `amp.iterate`, `netsim.select`, …).
    pub name: &'static str,
    /// Enclosing layer span, if any.
    pub parent: Option<&'static str>,
    /// Start, microseconds on the run's clock.
    pub start_us: u64,
    /// End, microseconds on the run's clock.
    pub end_us: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_us.saturating_sub(self.start_us) as f64 * 1e-6
    }
}

/// Records layer spans for one run; disabled tracers only run the calls.
pub struct Tracer<'c> {
    clock: &'c WallClock,
    enabled: bool,
    trial: u32,
    /// Offset of the current protocol sink's clock on the run's clock.
    sink_origin_us: u64,
    spans: Vec<Span>,
}

/// The protocol phases the engine's rounds are attributed to.
const PHASES: [(&str, &str); 4] = [
    ("measure", "netsim.measure"),
    ("accumulate", "netsim.accumulate"),
    ("select", "netsim.select"),
    ("assign", "netsim.assign"),
];

impl<'c> Tracer<'c> {
    /// A tracer on the run's clock.
    pub fn new(clock: &'c WallClock) -> Self {
        Self {
            clock,
            enabled: false,
            trial: 0,
            sink_origin_us: 0,
            spans: Vec::new(),
        }
    }

    /// Turns span recording on or off for the next trial.
    pub fn set_enabled(&mut self, trial: u32, enabled: bool) {
        self.trial = trial;
        self.enabled = enabled;
    }

    /// The run's clock, in microseconds.
    pub fn now_us(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Runs `f` as the layer `name`, recording its span when enabled.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        self.spans.push(Span {
            trial: self.trial,
            name,
            parent: None,
            start_us,
            end_us,
        });
        out
    }

    /// The sink to hand the protocol: wall-clocked when tracing, off
    /// otherwise (the untraced path pays nothing).
    pub fn protocol_sink(&mut self) -> TelemetrySink {
        if !self.enabled {
            return TelemetrySink::default();
        }
        // `WallClock` is 1-based from its construction; pin that origin
        // on the run's clock so round spans line up with layer spans.
        self.sink_origin_us = self.now_us().saturating_sub(1);
        TelemetrySink::with_clock(Box::new(WallClock::new()))
    }

    /// Joins the engine's round spans to the protocol's phase events and
    /// records one `netsim.<phase>` span per round.
    pub fn join_protocol(&mut self, sink: &TelemetrySink) {
        let Some(recorder) = sink.recorder() else {
            return;
        };
        let events = recorder.events();
        let mut ranges: Vec<(u64, u64, &'static str)> = Vec::new();
        for e in events.iter().filter(|e| e.event.name == "phase") {
            let field = |name: &str| {
                e.event.fields.iter().find_map(|(f, v)| match v {
                    FieldValue::U64(u) if *f == name => Some(*u),
                    _ => None,
                })
            };
            let span_name = PHASES.iter().find(|(p, _)| *p == e.event.phase);
            if let (Some(first), Some(last), Some(&(_, name))) =
                (field("first_round"), field("last_round"), span_name)
            {
                ranges.push((first, last, name));
            }
        }
        let mut open: BTreeMap<u64, u64> = BTreeMap::new();
        for e in events.iter().filter(|e| e.event.name == "round") {
            match e.event.kind {
                EventKind::Begin => {
                    open.insert(e.event.round, e.wall_micros);
                }
                EventKind::End => {
                    let Some(begin) = open.remove(&e.event.round) else {
                        continue;
                    };
                    let round = e.event.round;
                    let name = ranges
                        .iter()
                        .find(|(first, last, _)| (*first..=*last).contains(&round))
                        .map_or("netsim.unphased", |r| r.2);
                    self.spans.push(Span {
                        trial: self.trial,
                        name,
                        parent: Some("protocol"),
                        start_us: self.sink_origin_us + begin,
                        end_us: self.sink_origin_us + e.wall_micros,
                    });
                }
                EventKind::Instant => {}
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Writes spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete event per span, one track per trial.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}{sep}",
            s.name,
            s.parent.unwrap_or("trial"),
            s.start_us,
            s.end_us.saturating_sub(s.start_us),
            s.trial,
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}
