//! Host-time spans recorded around calls into the library layers, and
//! the forwarding [`Timed`] manager wrapper that records the manager
//! hooks as child spans.
//!
//! Spans are kept in memory per scenario (one [`Tracer`] per job, used
//! from the one worker thread that runs the job) and handed back when the
//! job ends. Nothing here runs inside the simulator's access loop:
//! `Workload::tick` and individual accesses are never wrapped, so the
//! loop's time is derived as the stepping span minus its hook children.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use tiersim::addr::VirtAddr;
use tiersim::machine::Machine;
use tiersim::sim::{MemoryManager, RegionStats};
use tiersim::tenant::Share;
use tiersim::tier::ComponentId;

/// Reads the host clock. Every clock read of the benchmark goes through
/// here; the readings only ever reach the benchmark's own output.
#[inline]
pub fn now() -> Instant {
    // lint:allow(wall-clock): benchmark host timing; never feeds a simulated report
    Instant::now()
}

/// One recorded span. `parent` and `id` index the owning scenario's span
/// list; all spans of one scenario share `scenario`.
#[derive(Clone, Debug)]
pub struct Span {
    /// Scenario (job) index within its pass.
    pub scenario: u32,
    /// Index of this span in the scenario's list.
    pub id: u32,
    /// Enclosing span, `None` for the scenario's root.
    pub parent: Option<u32>,
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, ns since the pass epoch.
    pub start_ns: u64,
    /// End, ns since the pass epoch.
    pub end_ns: u64,
    /// Calls folded into this span (1, or the call count of an
    /// aggregated `placement` span).
    pub calls: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Open span on the tracer's stack, with the placement calls made while
/// it was innermost.
struct Open {
    id: u32,
    placement_ns: u64,
    placement_calls: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<Open>,
}

/// Span recorder of one scenario.
///
/// `placement` runs once per page fault — hundreds of thousands of times
/// per scenario — so its calls are not recorded one by one: each span
/// gets one aggregated `placement` child holding the summed time and the
/// call count of the faults taken while it was innermost.
pub struct Tracer {
    scenario: u32,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A tracer for scenario `scenario`, timing relative to `epoch`.
    pub fn new(scenario: u32, epoch: Instant) -> Tracer {
        Tracer { scenario, epoch, inner: RefCell::new(Inner::default()) }
    }

    fn stamp(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.stamp(now());
        {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len() as u32;
            let parent = inner.open.last().map(|o| o.id);
            inner.spans.push(Span {
                scenario: self.scenario,
                id,
                parent,
                name,
                start_ns: start,
                end_ns: start,
                calls: 1,
            });
            inner.open.push(Open { id, placement_ns: 0, placement_calls: 0 });
        }
        let out = f();
        let end = self.stamp(now());
        let mut inner = self.inner.borrow_mut();
        let open = inner.open.pop().expect("span stack is balanced");
        inner.spans[open.id as usize].end_ns = end;
        if open.placement_calls > 0 {
            let id = inner.spans.len() as u32;
            inner.spans.push(Span {
                scenario: self.scenario,
                id,
                parent: Some(open.id),
                name: "placement",
                start_ns: start,
                end_ns: start + open.placement_ns,
                calls: open.placement_calls,
            });
        }
        out
    }

    /// Adds one placement call to the innermost open span.
    pub fn add_placement(&self, took: Duration) {
        let mut inner = self.inner.borrow_mut();
        if let Some(open) = inner.open.last_mut() {
            open.placement_ns += took.as_nanos() as u64;
            open.placement_calls += 1;
        }
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// A [`MemoryManager`] that forwards every trait method to `inner` and
/// records `init`, `on_subinterval` and `on_interval` as spans and
/// `placement` as an aggregated span. Forwarding is exact, so a wrapped
/// run produces the same report as an unwrapped one.
pub struct Timed<'t> {
    inner: Box<dyn MemoryManager + 't>,
    tracer: &'t Tracer,
}

impl<'t> Timed<'t> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn MemoryManager + 't>, tracer: &'t Tracer) -> Timed<'t> {
        Timed { inner, tracer }
    }
}

impl MemoryManager for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&mut self, m: &mut Machine) {
        let inner = &mut self.inner;
        self.tracer.span("init", || inner.init(m));
    }

    fn placement(&mut self, m: &Machine, tid: usize, va: VirtAddr) -> Vec<ComponentId> {
        let t0 = now();
        let order = self.inner.placement(m, tid, va);
        self.tracer.add_placement(t0.elapsed());
        order
    }

    fn on_interval(&mut self, m: &mut Machine, interval: u64) {
        let inner = &mut self.inner;
        self.tracer.span("interval", || inner.on_interval(m, interval));
    }

    fn sub_intervals(&self) -> u32 {
        self.inner.sub_intervals()
    }

    fn on_subinterval(&mut self, m: &mut Machine, interval: u64, k: u32) {
        let inner = &mut self.inner;
        self.tracer.span("subinterval", || inner.on_subinterval(m, interval, k));
    }

    fn hot_bytes_identified(&self) -> u64 {
        self.inner.hot_bytes_identified()
    }

    fn metadata_bytes(&self) -> u64 {
        self.inner.metadata_bytes()
    }

    fn region_stats(&self) -> Option<RegionStats> {
        self.inner.region_stats()
    }

    fn set_share(&mut self, share: Share) {
        self.inner.set_share(share);
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.load_state(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_placement_aggregates() {
        let t = Tracer::new(3, now());
        t.span("outer", || {
            t.add_placement(Duration::from_nanos(5));
            t.span("inner", || t.add_placement(Duration::from_nanos(7)));
            t.add_placement(Duration::from_nanos(5));
        });
        let spans = t.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.calls)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 1),
                ("inner", Some(0), 1),
                ("placement", Some(1), 1),
                ("placement", Some(0), 2)
            ]
        );
        assert_eq!(spans[3].end_ns - spans[3].start_ns, 10);
        assert!(spans.iter().all(|s| s.scenario == 3 && s.end_ns >= s.start_ns));
    }
}
