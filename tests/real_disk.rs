//! The physical I/O path: the same jobs on the real-file VFS backend
//! must produce identical results and identical byte accounting to the
//! in-memory backend.

use hybridgraph::prelude::*;
use hybridgraph_core::WorkerDisks;
use hybridgraph_graph::gen;
use hybridgraph_storage::DirVfs;
use std::path::Path;
use std::sync::Arc;

/// One real-file disk per worker, under `root/w{i}`.
fn dir_disks(root: &Path, workers: usize) -> WorkerDisks {
    let disk = |i| Arc::new(DirVfs::new(root.join(format!("w{i}"))).unwrap()) as Arc<dyn Vfs>;
    WorkerDisks((0..workers).map(disk).collect())
}

#[test]
fn dir_vfs_matches_mem_vfs() {
    let g = gen::rmat(300, 3000, gen::RmatParams::default(), 21);
    let root = std::env::temp_dir().join(format!("hygraph-disk-{}", std::process::id()));
    for mode in [Mode::Push, Mode::BPull, Mode::Hybrid] {
        let mem_cfg = JobConfig::new(mode, 3).with_buffer(64);
        let disk_cfg = mem_cfg.clone().with_worker_disks(dir_disks(&root, 3));

        let mem = hybridgraph_core::run_job(Arc::new(PageRank::new(5)), &g, mem_cfg).unwrap();
        let disk = hybridgraph_core::run_job(Arc::new(PageRank::new(5)), &g, disk_cfg).unwrap();

        for (a, b) in mem.values.iter().zip(&disk.values) {
            assert!((a - b).abs() < 1e-9, "{mode:?}: {a} vs {b}");
        }
        // Byte accounting is backend-independent.
        assert_eq!(
            mem.metrics.total_io_bytes(),
            disk.metrics.total_io_bytes(),
            "{mode:?}"
        );
        assert_eq!(mem.metrics.supersteps(), disk.metrics.supersteps());
    }
    // The worker directories and store files really exist on disk.
    assert!(root.join("w0").exists());
    let files: Vec<_> = std::fs::read_dir(root.join("w1"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(files.iter().any(|f| f == "values"), "files: {files:?}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sssp_on_real_disk() {
    let g = gen::randomize_weights(&gen::uniform(150, 900, 5), 1.0, 4.0, 5);
    let root = std::env::temp_dir().join(format!("hygraph-sssp-{}", std::process::id()));
    let cfg = JobConfig::new(Mode::Hybrid, 2)
        .with_buffer(32)
        .with_worker_disks(dir_disks(&root, 2));
    let res = hybridgraph_core::run_job(Arc::new(Sssp::new(VertexId(0))), &g, cfg).unwrap();
    let want = hybridgraph_algos::reference::reference_run(&Sssp::new(VertexId(0)), &g);
    for (got, want) in res.values.iter().zip(&want) {
        assert!(
            (got.is_infinite() && want.is_infinite()) || (got - want).abs() < 1e-4,
            "{got} vs {want}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}
