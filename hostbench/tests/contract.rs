//! The benchmark's own checks: names agree with `BENCHMARK.json`, the
//! digest gate notices a single perturbed counter, provenance guards
//! comparisons, and a tiny run prints every metric with its unit.

use hostbench::output::{incomparable, parse_args, run_traced, run_untraced, Args};
use hostbench::workload::build_jbb;
use hostbench::{gate, Scale, Workload, END_TO_END, PER_LAYER};
use probes::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::elements)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn names_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::elements)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
}

#[test]
fn one_perturbed_counter_trips_the_digest() {
    let mut m = build_jbb(1, 2, 32, memsys::MemoryConfig::Flat, 7).machine;
    m.run_until(1_000_000);
    let snap = m.counters();
    let pairs: Vec<(&str, u64)> = snap.iter().map(|(n, _, v)| (n, v)).collect();
    let good = gate::digest_pairs(pairs.iter().copied());
    assert_eq!(good, gate::digest(std::slice::from_ref(&snap)));
    assert!(gate::check_digest(good, good, Some(good)).is_empty());
    for i in [0, pairs.len() / 2, pairs.len() - 1] {
        let mut bad = pairs.clone();
        bad[i].1 += 1;
        let digest = gate::digest_pairs(bad);
        assert_ne!(digest, good, "perturbing {} went unnoticed", pairs[i].0);
        assert_eq!(gate::check_digest(digest, good, Some(good)).len(), 2);
    }
}

#[test]
fn pinned_digests_apply_only_to_the_default_seed_at_bench_scale() {
    let w = Workload::Jbb8Fig10;
    assert!(gate::pinned(w, hostbench::DEFAULT_SEED, Scale::BENCH).is_some());
    assert!(gate::pinned(w, hostbench::DEFAULT_SEED + 1, Scale::BENCH).is_none());
    assert!(gate::pinned(w, hostbench::DEFAULT_SEED, Scale::SMOKE).is_none());
}

#[test]
fn comparisons_across_provenance_are_refused() {
    let record = |mode: &str, seed: u64| {
        json::parse(&format!(
            "{{\"provenance\":{{\"git_rev\":\"a\",\"hostname\":\"h\",\"cpu_count\":2,\
             \"timestamp\":1,\"workers\":1,\"effort\":\"quick\",\"sim_mode\":\"{mode}\"}},\
             \"workload\":\"jbb8_fig10\",\"seed\":{seed},\"trace\":0,\"result\":{{}}}}"
        ))
        .expect("record parses")
    };
    assert_eq!(incomparable(&record("full", 1), &record("full", 1)), None);
    assert!(incomparable(&record("full", 1), &record("sampled", 1)).is_some());
    assert!(incomparable(&record("full", 1), &record("full", 2)).is_some());
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    assert_eq!(
        parse_args(&args(
            "--workload ecperf8_sampled --seed 9 --seconds 3 --trace 1"
        )),
        Ok(Args {
            workload: Workload::Ecperf8Sampled,
            seed: 9,
            seconds: 3.0,
            trace: true,
        })
    );
    for bad in [
        "--workload nope",
        "--workload sweep_dram_2w",
        "--workload jbb8_fig10 --trace 2",
        "--workload jbb8_fig10 --seconds -1",
        "--seed 1",
        "--workload",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad}");
    }
}

/// Every metric of `table`, in order, with its unit, in the final line.
fn assert_prints(line: &str, table: &[(&str, &str)]) {
    let doc = json::parse(line).expect("the result line is JSON");
    let keys: Vec<&str> = doc
        .members()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let metrics = doc.get("metrics").and_then(Json::members).expect("metrics");
    assert_eq!(metrics.len(), table.len());
    for ((name, m), &(want, unit)) in metrics.iter().zip(table) {
        assert_eq!(name, want);
        assert!(
            m.get("value")
                .and_then(Json::as_num)
                .is_some_and(f64::is_finite),
            "{name}"
        );
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
    }
}

#[test]
fn tiny_single_repetition_smoke_prints_every_metric() {
    for workload in Workload::ALL {
        let args = Args {
            workload,
            seed: 3,
            seconds: 1e-6,
            trace: false,
        };
        let prov = hostbench::output::provenance(workload);
        let out = run_untraced(&args, Scale::SMOKE, &prov);
        assert_eq!(out.attempted, 1, "{}", workload.name());
        assert_prints(&out.to_json(), &END_TO_END);
        let traced = run_traced(
            &Args {
                trace: true,
                ..args
            },
            Scale::SMOKE,
            &prov,
        );
        assert_prints(&traced.to_json(), &PER_LAYER);
    }
}
