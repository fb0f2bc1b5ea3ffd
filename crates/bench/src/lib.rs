//! Home of the `engine_baseline` and `fabric_throughput` binaries (run
//! by `scripts/bench_baseline.sh` and `scripts/bench_fabric.sh`); the
//! declared benchmark is `perfbench/`.
