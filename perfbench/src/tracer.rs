//! In-memory span recorder for the traced run.
//!
//! Each call into a layer is wrapped in a span: name, start, end, the
//! enclosing span, and an item id shared by every span of one design
//! point or one engine run. Spans stay in memory and are written once,
//! at exit, as Chrome trace-event JSON (open it in `chrome://tracing` or
//! Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    item: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_item: u64,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    // Wall-clock measurement is this harness's purpose.
    #[allow(clippy::disallowed_methods)]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_item: 0,
        }
    }

    /// A fresh item id for one design point or engine run.
    pub fn item(&mut self) -> u64 {
        self.next_item += 1;
        self.next_item
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under the innermost open span.
    pub fn span<R>(&mut self, name: &str, item: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            item,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).sum::<u64>() as f64 * 1e-9
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.durations(name).count()
    }

    /// Shortest duration of the spans named `name`, in seconds.
    pub fn fastest_s(&self, name: &str) -> f64 {
        self.durations(name).min().unwrap_or(0) as f64 * 1e-9
    }

    /// Median duration of the spans named `name`, in seconds.
    pub fn median_s(&self, name: &str) -> f64 {
        let d: Vec<f64> = self.durations(name).map(|ns| ns as f64 * 1e-9).collect();
        crate::measure::median(&d)
    }

    fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed over spans of that name, in seconds.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as Chrome trace-event JSON ("X" complete events, times
    /// in microseconds).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"item\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.item,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
