//! Host-time spans recorded around the benchmark's calls into the
//! workspace crates, and the Chrome trace (Perfetto-loadable) that puts
//! them beside the simulated-time spans `nc-telemetry` records.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed host-time span. `parent` is the id of the span that was open
/// when this one started.
#[derive(Debug, Clone)]
pub struct HostSpan {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_s: f64,
    pub dur_s: f64,
}

/// Records nested host-time spans when enabled; when disabled it only
/// measures, so the measured and traced runs share one code path.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    t0: Instant,
    open: Vec<usize>,
    next_id: usize,
    done: Vec<HostSpan>,
}

impl Spans {
    /// A recorder that keeps nothing.
    #[must_use]
    pub fn off() -> Self {
        Spans {
            enabled: false,
            t0: Instant::now(),
            open: Vec::new(),
            next_id: 0,
            done: Vec::new(),
        }
    }

    /// A recorder that keeps every span.
    #[must_use]
    pub fn on() -> Self {
        Spans {
            enabled: true,
            ..Spans::off()
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// host seconds it took.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let dur_s = start.elapsed().as_secs_f64();
        self.open.pop();
        if self.enabled {
            self.done.push(HostSpan {
                id,
                parent,
                name: name.to_owned(),
                start_s: start.duration_since(self.t0).as_secs_f64(),
                dur_s,
            });
        }
        (out, dur_s)
    }

    /// Closed spans, in closing order.
    #[must_use]
    pub fn spans(&self) -> &[HostSpan] {
        &self.done
    }

    /// Total host seconds of the spans named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.done
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_s)
    }

    /// Each span's self time: its duration minus the time its children
    /// cover.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<usize, f64> {
        let mut out: BTreeMap<usize, f64> = self.done.iter().map(|s| (s.id, s.dur_s)).collect();
        for s in &self.done {
            if let Some(p) = s.parent {
                if let Some(t) = out.get_mut(&p) {
                    *t -= s.dur_s;
                }
            }
        }
        out
    }
}

/// Pulls the raw text of `"key": <value>` out of one single-line trace
/// event (the `nc-telemetry` exporter writes one event per line).
#[must_use]
pub fn field<'a>(event: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = event.find(&pat)? + pat.len();
    let rest = &event[start..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The `ph:"X"` events of a trace whose category is `cat`.
pub fn events<'a>(trace: &'a str, cat: &'a str) -> impl Iterator<Item = &'a str> + 'a {
    trace
        .lines()
        .map(str::trim)
        .filter(move |l| l.starts_with("{\"ph\": \"X\"") && field(l, "cat") == Some(cat))
}

/// Builds one Chrome trace from the benchmark's host spans and several
/// `nc-telemetry` traces. Each part is shifted by its time offset (in
/// seconds) and its process/thread ids are renumbered by name, so parts
/// recorded by separate sinks share tracks instead of colliding.
pub struct TraceWriter {
    events: Vec<String>,
    pids: Vec<String>,
    tids: Vec<(usize, String)>,
}

impl TraceWriter {
    #[must_use]
    pub fn new() -> Self {
        TraceWriter {
            events: Vec::new(),
            pids: Vec::new(),
            tids: Vec::new(),
        }
    }

    fn pid(&mut self, process: &str) -> usize {
        if let Some(i) = self.pids.iter().position(|p| p == process) {
            return i + 1;
        }
        self.pids.push(process.to_owned());
        self.pids.len()
    }

    fn tid(&mut self, pid: usize, thread: &str) -> usize {
        if let Some(i) = self.tids.iter().position(|(p, t)| *p == pid && t == thread) {
            return i + 1;
        }
        self.tids.push((pid, thread.to_owned()));
        self.tids.len()
    }

    /// Adds the host spans on the `bench` track, with the run id, the
    /// span's own id, its parent's id and its self time as arguments.
    pub fn add_host(&mut self, spans: &Spans, run_id: u64) {
        let pid = self.pid("bench");
        let tid = self.tid(pid, "host");
        let selfs = spans.self_times();
        for s in spans.spans() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            self.events.push(format!(
                "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"name\": \"{}\", \"cat\": \"bench\", \"args\": {{\"run_id\": {run_id}, \
                 \"span_id\": {}, \"parent_id\": {parent}, \"self_s\": {:.9}}}}}",
                s.start_s * 1e6,
                s.dur_s * 1e6,
                s.name,
                s.id,
                selfs.get(&s.id).copied().unwrap_or(0.0)
            ));
        }
    }

    /// Adds every event of one `nc-telemetry` Chrome trace, shifted by
    /// `offset_s`.
    pub fn add_telemetry(&mut self, trace: &str, offset_s: f64) {
        let mut procs: BTreeMap<String, String> = BTreeMap::new();
        let mut threads: BTreeMap<(String, String), String> = BTreeMap::new();
        let lines: Vec<&str> = trace
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("{\"ph\""))
            .map(|l| l.trim_end_matches(','))
            .collect();
        for l in &lines {
            if field(l, "ph") != Some("M") {
                continue;
            }
            let (Some(pid), Some(tid)) = (field(l, "pid"), field(l, "tid")) else {
                continue;
            };
            let name = l
                .rfind("\"name\": \"")
                .map(|i| &l[i + 9..])
                .and_then(|s| s.split('"').next())
                .unwrap_or_default();
            if field(l, "name") == Some("process_name") {
                procs.insert(pid.to_owned(), name.to_owned());
            } else {
                threads.insert((pid.to_owned(), tid.to_owned()), name.to_owned());
            }
        }
        for l in &lines {
            if field(l, "ph") == Some("M") {
                continue;
            }
            let (Some(pid), Some(tid), Some(ts)) =
                (field(l, "pid"), field(l, "tid"), field(l, "ts"))
            else {
                continue;
            };
            let process = procs.get(pid).cloned().unwrap_or_default();
            let thread = threads
                .get(&(pid.to_owned(), tid.to_owned()))
                .cloned()
                .unwrap_or_default();
            let new_pid = self.pid(&process);
            let new_tid = self.tid(new_pid, &thread);
            let ts: f64 = ts.parse().unwrap_or(0.0);
            let head = format!(
                "\"pid\": {pid}, \"tid\": {tid}, \"ts\": {}",
                field(l, "ts").unwrap_or("0")
            );
            let new_head = format!(
                "\"pid\": {new_pid}, \"tid\": {new_tid}, \"ts\": {:.3}",
                ts + offset_s * 1e6
            );
            self.events.push(l.replacen(&head, &new_head, 1));
        }
    }

    /// Renders the trace document.
    #[must_use]
    pub fn render(&self) -> String {
        let mut all = Vec::new();
        for (i, p) in self.pids.iter().enumerate() {
            all.push(format!(
                "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {}, \"tid\": 0, \"args\": {{\"name\": \"{p}\"}}}}",
                i + 1
            ));
        }
        for (i, (pid, t)) in self.tids.iter().enumerate() {
            all.push(format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {pid}, \"tid\": {}, \"args\": {{\"name\": \"{t}\"}}}}",
                i + 1
            ));
        }
        all.extend(self.events.iter().cloned());
        let mut out = String::from("{\n  \"traceEvents\": [\n");
        for (i, e) in all.iter().enumerate() {
            let sep = if i + 1 < all.len() { "," } else { "" };
            let _ = writeln!(out, "    {e}{sep}");
        }
        out.push_str("  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
        out
    }
}

impl Default for TraceWriter {
    fn default() -> Self {
        TraceWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::on();
        s.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let outer = s.spans().iter().find(|x| x.name == "outer").unwrap();
        let inner = s.spans().iter().find(|x| x.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let selfs = s.self_times();
        assert!((selfs[&outer.id] - (outer.dur_s - inner.dur_s)).abs() < 1e-12);
    }

    #[test]
    fn fields_parse_from_one_event_line() {
        let l = r#"{"ph": "X", "pid": 2, "tid": 3, "ts": 1.5, "dur": 2.0, "name": "mac-reduce", "cat": "functional.op", "args": {"compute_cycles": 42}}"#;
        assert_eq!(field(l, "name"), Some("mac-reduce"));
        assert_eq!(field(l, "compute_cycles"), Some("42"));
        assert_eq!(field(l, "pid"), Some("2"));
        let mut w = TraceWriter::new();
        let doc = "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 2, \"tid\": 0, \"args\": {\"name\": \"functional\"}},\n\
                   {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 2, \"tid\": 3, \"args\": {\"name\": \"ops\"}},\n"
            .to_owned()
            + l;
        w.add_telemetry(&doc, 1.0);
        let out = w.render();
        assert!(out.contains("\"ts\": 1000001.500"), "{out}");
        assert!(out.contains("\"name\": \"functional\""));
        assert!(out.contains("\"pid\": 1, \"tid\": 1,"));
    }
}
