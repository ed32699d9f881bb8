//! Parallel construction bench: phase-0 (exploration) speedup of the
//! sharded build engine across thread counts, on a large sparse graph.
//!
//! ```text
//! cargo bench --bench parallel                      # n = 100_000
//! cargo bench --bench parallel -- --n 20000 \
//!     --json target/bench-parallel.json             # CI smoke
//! ```
//!
//! For each sharded algorithm the bench builds the same graph at threads
//! {1, 2, 4, 8}, verifies the outputs are identical (the determinism
//! contract), and reports total and phase-0 wall clock from
//! [`BuildOutput::stats`]. The headline number is the phase-0 speedup at
//! 4 threads over 1; it is written, with every raw timing, to the JSON
//! artifact for CI trend tracking. (On a single-core runner the speedup
//! degenerates to ~1.0 — the engine adds no overhead but has no cores to
//! use.)
//!
//! A second leg per algorithm (JSON name `<algo>+sharded`) rebuilds at
//! threads {1, 4} with the graph split into 4 degree-balanced CSR shards
//! (`usnae_graph::partition`), so the trend tracks partitioned vs
//! shared-array phase-0 side by side; the fingerprint check asserts the
//! sharded stream is identical to the shared-array one. A third leg
//! (`<algo>+workers`) reruns the 4-shard layout on the channel worker
//! transport and emits the measured message complexity (rounds, messages,
//! bytes) into the JSON, so the trend also tracks worker-protocol
//! traffic. `--n` scales the input through the 100k (default) to 1M
//! regime.
//!
//! A final `message_ratio` field compares the measured worker traffic
//! against the CONGEST simulator's idealized counts for the same
//! construction on a bounded side graph (the simulator must not dominate
//! the bench at 100k vertices) — the E10 eval experiment's ratio, kept in
//! the `BENCH_<sha>.json` trend so worker-protocol overhead regressions
//! are visible next to the timing legs.

use std::time::Duration;
use usnae_bench::rss;
use usnae_bench::timing::json_string;
use usnae_core::api::{
    Algorithm, BuildOutput, Emulator, MessageStats, PartitionPolicy, TransportKind,
};
use usnae_graph::generators;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SHARDED_THREAD_COUNTS: [usize; 2] = [1, 4];
const BENCH_SHARDS: usize = 4;

struct Run {
    threads: usize,
    total: Duration,
    phase0: Duration,
    explorations: usize,
    /// Peak RSS (`VmHWM`) over this sample's build, MiB; `None` off-procfs.
    peak_rss_mb: Option<f64>,
}

fn build(
    g: &usnae_graph::Graph,
    algorithm: Algorithm,
    threads: usize,
    shards: usize,
    transport: TransportKind,
) -> BuildOutput {
    Emulator::builder(g)
        .epsilon(0.5)
        .kappa(4)
        .algorithm(algorithm)
        .threads(threads)
        .partition(PartitionPolicy::DegreeBalanced, shards)
        .transport(transport)
        .build()
        .expect("valid bench configuration")
}

/// Benches one (algorithm, layout) leg. `baseline_stream` seeds the
/// fingerprint check: passing the shared-array leg's fingerprint into the
/// sharded leg asserts sharded-vs-shared identity, not just internal
/// consistency. Returns the runs, the phase-0 speedup at 4 threads, and
/// the leg's stream fingerprint.
fn bench_algorithm(
    g: &usnae_graph::Graph,
    algorithm: Algorithm,
    samples: usize,
    shards: usize,
    transport: TransportKind,
    thread_counts: &[usize],
    baseline_stream: Option<u64>,
) -> (Vec<Run>, f64, u64, Option<MessageStats>) {
    let tag = if transport != TransportKind::Inproc {
        "+workers"
    } else if shards > 0 {
        "+sharded"
    } else {
        ""
    };
    println!("\n== parallel/{}{tag} ==", algorithm.name());
    let mut runs = Vec::new();
    let mut baseline_stream = baseline_stream;
    let mut layout_printed = false;
    let mut messages = None;
    for &threads in thread_counts {
        let mut best: Option<Run> = None;
        for _ in 0..samples {
            // Per-sample peak: reset the high-water mark so the reading
            // covers this build alone (best-effort; a denied reset
            // degrades to a whole-process peak, still comparable
            // between the base and PR runs of the same CI image).
            rss::reset_peak();
            let out = build(g, algorithm, threads, shards, transport);
            let peak_rss_mb = rss::peak_rss_mb();
            if messages.is_none() {
                messages = out.stats.messages.clone();
            }
            if shards > 0 && !layout_printed {
                layout_printed = true;
                for sh in &out.stats.shards {
                    println!(
                        "  shard {}: {} vertices, {} local edges, {} cut edges, built in {:.3?}",
                        sh.shard, sh.vertices, sh.local_edges, sh.cut_edges, sh.duration
                    );
                }
            }
            match baseline_stream {
                None => baseline_stream = Some(out.stream_fingerprint()),
                Some(f) => assert_eq!(
                    f,
                    out.stream_fingerprint(),
                    "{}{tag} at {threads} threads / {shards} shards diverged from the baseline build",
                    algorithm.name()
                ),
            }
            let run = Run {
                threads,
                total: out.stats.total,
                phase0: out.stats.phase0().unwrap_or_default(),
                explorations: out.stats.phases.first().map_or(0, |p| p.explorations),
                peak_rss_mb,
            };
            if best.as_ref().is_none_or(|b| run.total < b.total) {
                best = Some(run);
            }
        }
        let best = best.expect("at least one sample");
        println!(
            "{:<28} total {:>10.3?}  phase0 {:>10.3?}  ({} explorations{})",
            format!("{}{tag}/threads={threads}", algorithm.name()),
            best.total,
            best.phase0,
            best.explorations,
            best.peak_rss_mb
                .map_or(String::new(), |mb| format!(", peak rss {mb:.1} MB"))
        );
        runs.push(best);
    }
    let p0_1 = runs[0].phase0.as_secs_f64();
    let p0_4 = runs
        .iter()
        .find(|r| r.threads == 4)
        .expect("4-thread leg present")
        .phase0
        .as_secs_f64();
    let speedup = if p0_4 > 0.0 { p0_1 / p0_4 } else { 1.0 };
    println!(
        "{}{tag}: phase-0 speedup at 4 threads = {speedup:.2}x",
        algorithm.name()
    );
    if let Some(m) = &messages {
        println!(
            "{}{tag}: measured {} round(s), {} message(s), {} byte(s) over {} shard pair(s)",
            algorithm.name(),
            m.rounds,
            m.messages,
            m.bytes,
            m.pairs.len()
        );
    }
    (
        runs,
        speedup,
        baseline_stream.expect("at least one build ran"),
        messages,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut n = 100_000usize;
    let mut samples = 3usize;
    let mut json_path = "target/bench-parallel.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--n" => n = it.next().and_then(|v| v.parse().ok()).expect("--n <size>"),
            "--samples" => {
                samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--samples <k>")
            }
            "--json" => json_path = it.next().expect("--json <path>").clone(),
            // `cargo bench` forwards its own flags (e.g. --bench); ignore.
            _ => {}
        }
    }

    let g = generators::gnp_connected(n, 8.0 / n as f64, 42).expect("valid gnp parameters");
    println!(
        "parallel bench: {} vertices, {} edges, {} hardware threads available",
        g.num_vertices(),
        g.num_edges(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );

    let mut algo_json = Vec::new();
    for algorithm in [
        Algorithm::Centralized,
        Algorithm::FastCentralized,
        Algorithm::Spanner,
    ] {
        let (runs, speedup, fingerprint, _) = bench_algorithm(
            &g,
            algorithm,
            samples,
            0,
            TransportKind::Inproc,
            &THREAD_COUNTS,
            None,
        );
        // Sharded leg: same graph split into 4 degree-balanced CSR shards;
        // the interesting diff is phase-0 sharded vs shared at 4 threads.
        // Seeding with the shared leg's fingerprint makes every sharded
        // build assert identity against the shared-array stream.
        let (sharded_runs, sharded_speedup, _, _) = bench_algorithm(
            &g,
            algorithm,
            samples,
            BENCH_SHARDS,
            TransportKind::Inproc,
            &SHARDED_THREAD_COUNTS,
            Some(fingerprint),
        );
        // Worker leg: the same 4-shard layout with each shard's
        // explorations on its own channel worker; measures the wire
        // traffic the process transport would pay.
        let (worker_runs, worker_speedup, _, worker_messages) = bench_algorithm(
            &g,
            algorithm,
            samples,
            BENCH_SHARDS,
            TransportKind::Channel,
            &SHARDED_THREAD_COUNTS,
            Some(fingerprint),
        );
        let worker_messages = worker_messages.expect("worker leg measures messages");
        let shared_p0 = runs
            .iter()
            .find(|r| r.threads == 4)
            .expect("4-thread leg present")
            .phase0
            .as_secs_f64();
        let sharded_p0 = sharded_runs
            .iter()
            .find(|r| r.threads == 4)
            .expect("4-thread sharded leg present")
            .phase0
            .as_secs_f64();
        if sharded_p0 > 0.0 {
            println!(
                "{}: sharded/shared phase-0 ratio at 4 threads = {:.2}x",
                algorithm.name(),
                sharded_p0 / shared_p0.max(f64::EPSILON)
            );
        }
        let message_json = format!(
            "{{\"rounds\":{},\"messages\":{},\"bytes\":{},\"pairs\":{}}}",
            worker_messages.rounds,
            worker_messages.messages,
            worker_messages.bytes,
            worker_messages.pairs.len()
        );
        for (name, legs, spd, messages) in [
            (algorithm.name().to_string(), &runs, speedup, None),
            (
                format!("{}+sharded", algorithm.name()),
                &sharded_runs,
                sharded_speedup,
                None,
            ),
            (
                format!("{}+workers", algorithm.name()),
                &worker_runs,
                worker_speedup,
                Some(message_json),
            ),
        ] {
            let runs_json: Vec<String> = legs
                .iter()
                .map(|r| {
                    let rss_field = r
                        .peak_rss_mb
                        .map_or(String::new(), |mb| format!(",\"peak_rss_mb\":{mb}"));
                    format!(
                        "{{\"threads\":{},\"total_s\":{},\"phase0_s\":{},\"explorations\":{}{rss_field}}}",
                        r.threads,
                        r.total.as_secs_f64(),
                        r.phase0.as_secs_f64(),
                        r.explorations
                    )
                })
                .collect();
            let messages_field = messages.map_or(String::new(), |m| format!(",\"messages\":{m}"));
            algo_json.push(format!(
                "{{\"name\":{},\"phase0_speedup_at_4_threads\":{spd}{messages_field},\"runs\":[{}]}}",
                json_string(&name),
                runs_json.join(",")
            ));
        }
    }
    // Measured vs simulated message complexity (the E10 ratio) on a
    // bounded side graph: real channel-worker traffic for the
    // fast-centralized build against the CONGEST simulator's idealized
    // counts for the distributed build of the same input.
    let ratio_n = n.min(2048);
    let rg =
        generators::gnp_connected(ratio_n, 8.0 / ratio_n as f64, 42).expect("valid gnp parameters");
    let measured = build(
        &rg,
        Algorithm::FastCentralized,
        1,
        BENCH_SHARDS,
        TransportKind::Channel,
    )
    .stats
    .messages
    .expect("worker builds measure messages");
    let sim = Emulator::builder(&rg)
        .epsilon(0.5)
        .kappa(4)
        .rho(0.5)
        .algorithm(Algorithm::Distributed)
        .build()
        .expect("valid bench configuration");
    let sim_metrics = &sim
        .congest
        .as_ref()
        .expect("distributed builds report")
        .metrics;
    let msg_ratio = measured.messages as f64 / sim_metrics.messages.max(1) as f64;
    println!(
        "message ratio at n={ratio_n}: measured {} vs simulated {} = {msg_ratio:.2}x",
        measured.messages, sim_metrics.messages
    );
    let ratio_json = format!(
        "{{\"n\":{ratio_n},\"measured_rounds\":{},\"measured_messages\":{},\"measured_bytes\":{},\"sim_rounds\":{},\"sim_messages\":{},\"ratio\":{msg_ratio}}}",
        measured.rounds, measured.messages, measured.bytes, sim_metrics.rounds, sim_metrics.messages
    );

    let doc = format!(
        "{{\"n\":{},\"edges\":{},\"hardware_threads\":{},\"message_ratio\":{ratio_json},\"algorithms\":[{}]}}\n",
        g.num_vertices(),
        g.num_edges(),
        std::thread::available_parallelism().map_or(1, usize::from),
        algo_json.join(",")
    );
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&json_path, &doc).expect("write bench JSON");
    println!("\ntiming JSON written to {json_path}");
}
