//! Kill-injection stress for the worker transports, driven through the
//! `usnae` CLI: workers killed abruptly mid-round (`USNAE_WORKER_KILL_SEED`)
//! must fail the build with a typed worker error within its timeout,
//! never hang.
//!
//! The kill switch lives in an env var, and env vars are process-global,
//! so the injection runs in a *child* `usnae` process with the var set only
//! on that command, never in this (concurrently tested) process. Cargo
//! builds the CLI for this crate's integration tests; the child finds
//! `usnae-worker` next to itself, which a workspace-level `cargo build` or
//! `cargo test` produces (alone, build `-p usnae-workers` first).

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use usnae_graph::generators;

#[test]
fn killed_workers_fail_typed_within_timeout() {
    let cli = env!("CARGO_BIN_EXE_usnae");
    // Without the worker binary every leg would fail at spawn, with a
    // worker error that passes the assertions below without killing any
    // worker.
    let worker =
        Path::new(cli).with_file_name(format!("usnae-worker{}", std::env::consts::EXE_SUFFIX));
    assert!(
        worker.is_file(),
        "{} not found next to the CLI: build `-p usnae-workers` (same profile) first",
        worker.display()
    );
    let dir = std::env::temp_dir().join(format!("usnae-worker-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let edges_path = dir.join("g.edges");
    let g = generators::gnp_connected(130, 8.0 / 130.0, 5).expect("valid gnp parameters");
    let mut text = String::new();
    for (u, v) in g.edges() {
        text.push_str(&format!("{u} {v}\n"));
    }
    std::fs::write(&edges_path, text).unwrap();

    for transport in ["process", "socket"] {
        let mut child = Command::new(cli)
            .args([
                "run",
                "--algo",
                "fast-centralized",
                "--input",
                edges_path.to_str().unwrap(),
                "--transport",
                transport,
                "--shards",
                "2",
            ])
            .env("USNAE_WORKER_KILL_SEED", "99")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn usnae CLI");
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            match child.try_wait().expect("try_wait") {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    panic!("{transport}: killed-worker build hung past the timeout");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        let out = child.wait_with_output().expect("collect child output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !status.success(),
            "{transport}: build with killed workers must fail (stderr: {stderr})"
        );
        assert!(
            stderr.contains("worker"),
            "{transport}: expected a typed worker error, got: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
