//! The twins must measure the same traffic as the drivers: run untraced
//! and traced, each twin reproduces its driver's output bit for bit, and
//! the traced twin issues exactly the logical ops the workload counts.
//!
//! Sizes are cut to a tenth of the benchmark's so the test runs quickly in
//! debug builds; the twins' code paths do not depend on the size. The
//! benchmark's traced run repeats the check at full size on every run.

use perfbench::trace::{Ledger, TracedRunner};
use perfbench::twin::{run_twin, Plain};
use perfbench::workload::Workload;

const SEEDS: [u64; 2] = [2012, 7];
/// Includes a worker count that does not divide the blob chunk count.
const WORKERS: [usize; 3] = [1, 3, 8];

#[test]
fn twins_reproduce_every_driver_bit_for_bit() {
    for wl in Workload::ALL {
        for seed in SEEDS {
            let cfg = wl.config(seed).with_scale(wl.scale() / 10.0);
            for w in WORKERS {
                let driver = wl.run_driver(&cfg, w).words(&cfg);
                let plain = run_twin(wl, &cfg, w, &Plain).words(&cfg);
                assert_eq!(
                    plain,
                    driver,
                    "{} seed {seed}, {w} workers: untraced twin",
                    wl.name()
                );

                let ledger = Ledger::default();
                let traced = run_twin(wl, &cfg, w, &TracedRunner::new(&ledger)).words(&cfg);
                assert_eq!(
                    traced,
                    driver,
                    "{} seed {seed}, {w} workers: traced twin",
                    wl.name()
                );
                assert_eq!(
                    ledger.ops.get(),
                    wl.logical_ops(&cfg, w),
                    "{} seed {seed}, {w} workers: logical op count",
                    wl.name()
                );
            }
        }
    }
}
