//! The benchmark's own in-memory span recorder.
//!
//! Spans wrap the calls the benchmark makes into the crates' public
//! functions — nothing is recorded inside the crates. They are kept in
//! memory and written once, at exit, as a Chrome trace. When the recorder
//! is off (every untraced run) `enter`/`exit` are one branch each.

use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The public function (or call group) the span wraps.
    pub name: String,
    /// Host ns since the recorder was created.
    pub start_ns: u64,
    /// Host ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
}

/// Span recorder; see the module docs.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Tag subsequent spans with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            rep: self.rep,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = end_ns;
    }

    /// The recorded spans, in `enter` order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent never overlap (the recorder is a
/// stack), so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self time summed by span name, largest first — where a repetition's
/// host time went, by public call.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64)> {
    let own = self_times(spans);
    let mut by_name: Vec<(String, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(own) {
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, acc)) => *acc += t,
            None => by_name.push((s.name.clone(), t)),
        }
    }
    by_name.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    by_name
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, timestamps in µs, with the span id, its
/// parent, its repetition and its self time under `args`.
pub fn to_chrome_json(workload: &str, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut s = String::from("{\"traceEvents\":[\n");
    for (i, (sp, own_ns)) in spans.iter().zip(&own).enumerate() {
        let parent = sp.parent.map_or(-1, |p| p as i64);
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"rep\":{},\"self_us\":{:.3}}}}}{}\n",
            escape(&sp.name),
            escape(workload),
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
            i,
            parent,
            sp.rep,
            *own_ns as f64 / 1e3,
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    s.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    s
}

/// JSON string escaping for the names the benchmark generates.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let by = self_time_by_name(&spans);
        assert_eq!(by[0], ("b".to_string(), 40));
        assert_eq!(by.iter().map(|(_, t)| t).sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_tags_repetitions() {
        let mut r = Recorder::on();
        r.set_rep(3);
        r.enter("outer");
        r.enter("inner");
        r.exit();
        r.enter("sibling");
        r.exit();
        r.exit();
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.rep == 3 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut r = Recorder::off();
        r.enter("x");
        r.exit();
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_json_is_valid() {
        let spans = vec![
            span("rep \"0\"", 0, 2_000, None),
            span("Machine::send", 500, 1_500, Some(0)),
        ];
        let doc = to_chrome_json("pod_exchange", &spans);
        telemetry::validate_json_doc(&doc, &["\"traceEvents\"", "\"self_us\"", "\"parent\""])
            .expect("valid chrome trace");
        assert!(doc.contains("\\\"0\\\""));
        telemetry::validate_json_doc(&to_chrome_json("w", &[]), &["\"traceEvents\""])
            .expect("empty trace is valid");
    }
}
