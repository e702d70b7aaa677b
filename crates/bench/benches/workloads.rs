//! Workload-setup benchmarks: R-MAT generation of the BFS/SSSP graph at
//! the quick-profile shape (scale 4096: 220 K vertices, 3.4 M edges).

use mtm_bench::Bench;
use mtm_workloads::graph::rmat;
use mtm_workloads::BfsConfig;

fn main() {
    let mut b = Bench::new("workloads");

    let params = BfsConfig::paper(4096, 1).graph;
    b.iter_throughput("workloads/rmat_quick", params.edges, || rmat(params));

    b.finish();
}
