//! Virtual-time accounting.
//!
//! The simulator advances a virtual clock instead of measuring wall time.
//! Application accesses are charged with a roofline-style model evaluated
//! per profiling interval: every thread accumulates latency cost for the
//! accesses it issued, every (node, component) link accumulates the bytes
//! it transferred, and the interval's wall time is
//!
//! ```text
//! max( max_thread(latency_sum), max_link(bytes / bandwidth) )
//! ```
//!
//! which captures both latency-bound and bandwidth-bound execution (e.g. 24
//! threads hammering the 1 GB/s remote-PM link become bandwidth-bound, the
//! effect behind the paper's Fig. 12). Profiling work and the critical-path
//! part of migration are charged to separate buckets, which the harness
//! reports as the paper's Fig. 5 breakdown.

use crate::tier::Topology;

/// Time spent in each activity class, in virtual nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Application execution (access latency + bandwidth stalls).
    pub app_ns: f64,
    /// Memory profiling (PTE scans, PEBS drain, hint faults).
    pub profiling_ns: f64,
    /// Page migration exposed on the critical path.
    pub migration_ns: f64,
}

impl TimeBreakdown {
    /// Total virtual time across all buckets.
    pub fn total_ns(&self) -> f64 {
        self.app_ns + self.profiling_ns + self.migration_ns
    }
}

/// The machine clock: per-interval accumulators plus committed totals.
#[derive(Clone, Debug)]
pub struct Clock {
    threads: usize,
    nodes: usize,
    components: usize,
    /// Latency cost accumulated by each thread in the open interval.
    thread_ns: Vec<f64>,
    /// Bytes moved per (node, component) link in the open interval.
    link_bytes: Vec<f64>,
    /// Committed virtual time.
    breakdown: TimeBreakdown,
    intervals_committed: u64,
}

impl Clock {
    /// Creates a clock for `threads` application threads on a topology.
    pub fn new(threads: usize, topo: &Topology) -> Clock {
        let nodes = topo.nodes as usize;
        let components = topo.num_components();
        Clock {
            threads,
            nodes,
            components,
            thread_ns: vec![0.0; threads],
            link_bytes: vec![0.0; nodes * components],
            breakdown: TimeBreakdown::default(),
            intervals_committed: 0,
        }
    }

    /// Charges one access: `lat_ns` of latency to `tid`, `bytes` across the
    /// `(node, component)` link.
    #[inline]
    pub fn charge_access(&mut self, tid: usize, lat_ns: f64, node: u16, component: u16, bytes: f64) {
        self.thread_ns[tid] += lat_ns;
        self.link_bytes[node as usize * self.components + component as usize] += bytes;
    }

    /// Wall time of the open interval so far, under the roofline model.
    pub fn open_interval_ns(&self, topo: &Topology) -> f64 {
        let lat = self.thread_ns.iter().copied().fold(0.0_f64, f64::max);
        let mut bw = 0.0_f64;
        for node in 0..self.nodes {
            for comp in 0..self.components {
                let bytes = self.link_bytes[node * self.components + comp];
                if bytes > 0.0 {
                    let spec = topo.link(node as u16, comp as u16);
                    bw = bw.max(bytes / spec.bytes_per_ns());
                }
            }
        }
        lat.max(bw)
    }

    /// Closes the open interval, adding its wall time to the application
    /// bucket, and returns that wall time.
    pub fn commit_interval(&mut self, topo: &Topology) -> f64 {
        let elapsed = self.open_interval_ns(topo);
        self.breakdown.app_ns += elapsed;
        self.thread_ns.iter_mut().for_each(|t| *t = 0.0);
        self.link_bytes.iter_mut().for_each(|b| *b = 0.0);
        self.intervals_committed += 1;
        elapsed
    }

    /// Charges profiling work (serialized onto the timeline).
    #[inline]
    pub fn charge_profiling(&mut self, ns: f64) {
        self.breakdown.profiling_ns += ns;
    }

    /// Charges migration work exposed on the critical path.
    #[inline]
    pub fn charge_migration(&mut self, ns: f64) {
        self.breakdown.migration_ns += ns;
    }

    /// Committed virtual time plus the open interval estimate.
    pub fn now_ns(&self, topo: &Topology) -> f64 {
        self.breakdown.total_ns() + self.open_interval_ns(topo)
    }

    /// Committed time breakdown (open interval excluded).
    pub fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// Number of intervals committed so far.
    pub fn intervals(&self) -> u64 {
        self.intervals_committed
    }

    /// Number of application threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Latency clock of one thread within the open interval.
    #[inline]
    pub fn thread_ns(&self, tid: usize) -> f64 {
        self.thread_ns[tid]
    }

    /// Serializes the clock's dynamic state (accumulators as exact f64
    /// bit patterns).
    pub fn save(&self, w: &mut obs::wire::Writer) {
        w.varint(self.thread_ns.len() as u64);
        for &t in &self.thread_ns {
            w.f64(t);
        }
        w.varint(self.link_bytes.len() as u64);
        for &b in &self.link_bytes {
            w.f64(b);
        }
        w.f64(self.breakdown.app_ns);
        w.f64(self.breakdown.profiling_ns);
        w.f64(self.breakdown.migration_ns);
        w.u64(self.intervals_committed);
    }

    /// Restores state saved with [`Clock::save`] into this clock. The
    /// accumulator shapes (thread and link counts) must match.
    pub fn load(&mut self, r: &mut obs::wire::Reader) -> Result<(), String> {
        let threads = r.varint()? as usize;
        if threads != self.thread_ns.len() {
            return Err(format!(
                "clock: thread count mismatch (saved {threads}, have {})",
                self.thread_ns.len()
            ));
        }
        for t in self.thread_ns.iter_mut() {
            *t = r.f64()?;
        }
        let links = r.varint()? as usize;
        if links != self.link_bytes.len() {
            return Err(format!(
                "clock: link count mismatch (saved {links}, have {})",
                self.link_bytes.len()
            ));
        }
        for b in self.link_bytes.iter_mut() {
            *b = r.f64()?;
        }
        self.breakdown.app_ns = r.f64()?;
        self.breakdown.profiling_ns = r.f64()?;
        self.breakdown.migration_ns = r.f64()?;
        self.intervals_committed = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::tiny_two_tier;

    #[test]
    fn latency_bound_interval() {
        let topo = tiny_two_tier(1 << 21, 1 << 21);
        let mut clock = Clock::new(2, &topo);
        clock.charge_access(0, 100.0, 0, 0, 64.0);
        clock.charge_access(0, 100.0, 0, 0, 64.0);
        clock.charge_access(1, 50.0, 0, 0, 64.0);
        // Thread 0 accumulated 200 ns; bandwidth cost is 192/50 ≈ 3.8 ns.
        let t = clock.open_interval_ns(&topo);
        assert!((t - 200.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_bound_interval() {
        let topo = tiny_two_tier(1 << 21, 1 << 21);
        let mut clock = Clock::new(4, &topo);
        // Slow tier: 5 GB/s => 5 bytes/ns. 1 MB across it = 209715.2 ns.
        for tid in 0..4 {
            clock.charge_access(tid, 10.0, 0, 1, 262144.0);
        }
        let t = clock.open_interval_ns(&topo);
        assert!((t - 1048576.0 / 5.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn commit_resets_accumulators() {
        let topo = tiny_two_tier(1 << 21, 1 << 21);
        let mut clock = Clock::new(1, &topo);
        clock.charge_access(0, 500.0, 0, 0, 64.0);
        let e = clock.commit_interval(&topo);
        assert_eq!(e, 500.0);
        assert_eq!(clock.open_interval_ns(&topo), 0.0);
        assert_eq!(clock.breakdown().app_ns, 500.0);
        assert_eq!(clock.intervals(), 1);
    }

    #[test]
    fn buckets_accumulate_independently() {
        let topo = tiny_two_tier(1 << 21, 1 << 21);
        let mut clock = Clock::new(1, &topo);
        clock.charge_profiling(10.0);
        clock.charge_migration(20.0);
        clock.charge_access(0, 30.0, 0, 0, 64.0);
        clock.commit_interval(&topo);
        let b = clock.breakdown();
        assert_eq!(b.profiling_ns, 10.0);
        assert_eq!(b.migration_ns, 20.0);
        assert_eq!(b.app_ns, 30.0);
        assert_eq!(b.total_ns(), 60.0);
    }
}
