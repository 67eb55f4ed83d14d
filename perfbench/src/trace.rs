//! The benchmark's span recorder. Spans are recorded in memory around the
//! calls the benchmark makes into each layer and written out once, as
//! one JSON file, when the run ends. Per-name totals (count, duration,
//! self time) cover every span; the stored list keeps the first
//! [`STORED_SPANS`] so the file stays a few MB.
//!
//! A span's self time is its duration minus its children's durations.
//! The children of one span never overlap in this benchmark: each client
//! thread makes one call at a time.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept for the JSON file.
pub const STORED_SPANS: usize = 100_000;

/// One finished span: a named interval, the span that caused it, and the
/// key (search or session id) shared by the spans of one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub key: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Default)]
struct Store {
    next_id: u64,
    /// Open spans with the child time they have covered so far; a handful
    /// at a time (a root and one child per client thread).
    open: Vec<(Span, u64)>,
    stored: Vec<Span>,
    /// Per-name totals; few names, so a list beats a map.
    totals: Vec<(&'static str, Totals)>,
}

/// An in-memory span store, shareable across client threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    store: Mutex<Store>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            store: Mutex::new(Store::default()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`Tracer::end`] closes it.
    pub fn begin(&self, name: &'static str, key: u64, parent: Option<u64>) -> u64 {
        let start_ns = self.now_ns();
        let mut store = self.store.lock().expect("span store poisoned");
        let id = store.next_id;
        store.next_id += 1;
        let span = Span {
            id,
            name,
            key,
            parent,
            start_ns,
            end_ns: start_ns,
        };
        store.open.push((span, 0));
        id
    }

    /// Closes span `id`; returns its duration in ns.
    pub fn end(&self, id: u64) -> u64 {
        let end_ns = self.now_ns();
        let mut store = self.store.lock().expect("span store poisoned");
        let at = store
            .open
            .iter()
            .rposition(|(s, _)| s.id == id)
            .expect("span is open");
        let (mut span, covered) = store.open.swap_remove(at);
        span.end_ns = end_ns;
        let duration = end_ns - span.start_ns;
        if let Some(parent) = span.parent {
            if let Some((_, parent_covered)) = store.open.iter_mut().find(|(s, _)| s.id == parent) {
                *parent_covered += duration;
            }
        }
        let t = match store.totals.iter().position(|(name, _)| *name == span.name) {
            Some(k) => &mut store.totals[k].1,
            None => {
                store.totals.push((span.name, Totals::default()));
                &mut store.totals.last_mut().expect("just pushed").1
            }
        };
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(covered);
        if store.stored.len() < STORED_SPANS {
            store.stored.push(span);
        }
        duration
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        key: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, key, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Per-name totals over every closed span.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let store = self.store.lock().expect("span store poisoned");
        store.totals.iter().copied().collect()
    }

    /// The stored spans, in the order they closed.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.store
            .lock()
            .expect("span store poisoned")
            .stored
            .clone()
    }

    /// Writes the stored spans and the totals as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> Result<(), String> {
        let store = self.store.lock().expect("span store poisoned");
        let mut out = String::with_capacity(store.stored.len() * 112 + 1024);
        out.push_str("{\"totals\": {");
        let totals: Vec<String> = BTreeMap::from_iter(store.totals.iter().copied())
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.count, t.total_ns, t.self_ns
                )
            })
            .collect();
        out.push_str(&totals.join(", "));
        out.push_str("},\n\"spans\": [\n");
        for (i, s) in store.stored.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {}, \"name\": \"{}\", \"key\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.id,
                s.name,
                s.key,
                s.start_ns,
                s.end_ns,
                if i + 1 < store.stored.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_time() {
        let tracer = Tracer::default();
        let root = tracer.begin("search", 7, None);
        tracer.span("ask", 7, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let eval = tracer.begin("eval", 7, Some(root));
        tracer.span("kernel", 7, Some(eval), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let eval_ns = tracer.end(eval);
        let root_ns = tracer.end(root);
        let t = tracer.totals();
        assert_eq!(t["search"].count, 1);
        assert_eq!(t["search"].total_ns, root_ns);
        assert_eq!(
            t["search"].self_ns,
            root_ns - t["ask"].total_ns - eval_ns,
            "children are subtracted, grandchildren are not"
        );
        assert_eq!(t["eval"].self_ns, eval_ns - t["kernel"].total_ns);
        assert_eq!(t["kernel"].self_ns, t["kernel"].total_ns);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans.last().unwrap().id, root);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn spans_write_as_one_json_document() {
        let tracer = Tracer::default();
        let root = tracer.begin("search", 1, None);
        tracer.span("ask", 1, Some(root), || ());
        tracer.end(root);
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.json");
        tracer.write_json(&path).unwrap();
        let doc = serde_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_seq().unwrap().len(), 2);
        assert!(doc.get("totals").unwrap().get("ask").is_some());
    }
}
