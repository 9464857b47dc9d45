//! Self-tests of the benchmark: its percentile and fastest-sample
//! selectors, metric-name validity, digest stability, span accounting,
//! the host-speed gauge, and that a corrupted fabric output is counted
//! as a failure. The benchmark's modules are
//! compiled here as they are in the bench target; the parts only the
//! bench's `main` uses are dead code here.

#![allow(dead_code)]

#[path = "../benches/pixbench/affinity.rs"]
mod affinity;
#[path = "../benches/pixbench/fabric.rs"]
mod fabric;
#[path = "../benches/pixbench/gauge.rs"]
mod gauge;
#[path = "../benches/pixbench/serving.rs"]
mod serving;
#[path = "../benches/pixbench/stats.rs"]
mod stats;
#[path = "../benches/pixbench/trace.rs"]
mod trace;

mod stats_tests {
    use super::stats::*;

    #[test]
    fn percentile_selects_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 1000 samples: p99 leaves exactly ten samples above it.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&w, 99.0);
        assert_eq!(w.iter().filter(|&&x| x > p99).count(), 10);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_handles_even_odd_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn sum_of_fastest_takes_each_calls_minimum() {
        let runs = [
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 9.0, 0.5],
        ];
        assert_eq!(sum_of_fastest(&runs), 2.0 + 1.0 + 0.5);
        assert_eq!(sum_of_fastest(&[[7.0]]), 7.0);
        let none: [Vec<f64>; 0] = [];
        assert!(sum_of_fastest(&none).is_nan());
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "fabric.ee.vgg16_conv1_ms",
            "model.oo.energy_uj",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a/b", "a b", "a{b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        let mut m = Metrics::default();
        m.push("ok", 1.0, "s");
        m.push("ok", 2.0, "s");
        m.push("bad name", 1.0, "s");
        m.push("nan", f64::NAN, "s");
        assert_eq!(m.defects().len(), 3);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut a = Digest::default();
        a.update_debug(&(1.5f64, "x", 3u64));
        let mut b = Digest::default();
        b.update_debug(&(1.5f64, "x", 3u64));
        assert_eq!(a, b);
        // Pinned: the digest of a fixed input must never change, or two
        // builds' printed digests stop being comparable.
        let mut pinned = Digest::default();
        pinned.update(b"pixel");
        assert_eq!(pinned.value(), 0x77fc_9a65_be19_6ad7);
        let mut c = Digest::default();
        c.update_debug(&(1.5f64 + f64::EPSILON, "x", 3u64));
        assert_ne!(a, c);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        m.push("setup_s", 0.5, "s");
        let line = m.result_line(true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}

mod trace_tests {
    use super::trace::*;
    use std::time::Duration;
    use std::time::Instant;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("x", 0, None);
        t.end(s);
        assert!(s.is_none());
        assert!(t.spans().is_empty());
        assert_eq!(t.median_ms("x"), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_absorb_keeps_links() {
        let origin = Instant::now();
        let at = |ms| origin + Duration::from_millis(ms);
        let mut t = Tracer::new(true, origin);
        let root = t.record("pass", 1, None, at(0), at(10));
        t.record("a", 1, root, at(1), at(4));
        t.record("b", 1, root, at(5), at(7));
        assert_eq!(t.self_ns(), vec![5_000_000, 3_000_000, 2_000_000]);
        assert_eq!(t.median_child_sum_ms(|n| n == "pass", |n| n == "a"), 3.0);
        let mut other = t.fork();
        let r = other.record("req", 9, None, at(0), at(2));
        other.record("send", 9, r, at(0), at(1));
        t.absorb(other);
        assert_eq!(t.spans()[4].parent, Some(3));
        assert_eq!(t.to_jsonl().lines().count(), 5);
    }
}

mod fabric_tests {
    use super::fabric::*;
    use super::stats::Tally;
    use super::trace::Tracer;
    use std::time::Instant;

    fn tiny_case() -> Case {
        let mut case = Case::build("serve_paper_mix", 3).expect("case builds");
        case.steps.truncate(2);
        case.reference.truncate(2);
        case
    }

    #[test]
    fn a_clean_pass_checks_every_image_and_conv() {
        let case = tiny_case();
        let units = case.units(false);
        let mut tracer = Tracer::new(true, Instant::now());
        let (_, tally) = run_pass(&case, &units[0], &mut tracer, 1).expect("pass runs");
        // Per step: one length check, one image, one detected-words check.
        assert_eq!(
            tally,
            Tally {
                attempted: 6,
                failed: 0
            }
        );
        assert_eq!(tracer.durations_ms("fabric.ee.serve_conv").len(), 2);
    }

    #[test]
    fn a_corrupted_fabric_output_counts_as_a_failure() {
        let mut case = tiny_case();
        // Corrupt the expectation the fabric output is compared with:
        // exactly the image whose output differs must fail.
        let want = &mut case.reference[1][0];
        let v = want.get(0, 0, 0);
        want.set(0, 0, 0, v ^ 1);
        let units = case.units(false);
        let mut tracer = Tracer::new(false, Instant::now());
        for unit in &units {
            let (_, tally) = run_pass(&case, unit, &mut tracer, 1).expect("pass runs");
            assert_eq!(tally.failed, 1, "{}", unit.label);
        }
        let mut tally = Tally::default();
        let got = vec![case.reference[0][0].clone()];
        let mut bad = got.clone();
        let v = bad[0].get(1, 1, 1);
        bad[0].set(1, 1, 1, v + 1);
        check_outputs(&bad, &got, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn workload_shapes_match_their_reasons() {
        let lenet = Case::build("lenet_b64", 1).expect("lenet");
        assert_eq!(
            lenet.tail_window_share(),
            0.0,
            "LeNet batches fill every plane group"
        );
        let serve = Case::build("serve_paper_mix", 1).expect("serve");
        assert_eq!(
            serve.tail_window_share(),
            1.0,
            "the serving conv is all tail"
        );
        assert!(Case::build("nope", 1).is_err());
    }
}

mod gauge_tests {
    use super::gauge::*;

    #[test]
    fn gauge_work_is_fixed_and_speed_scales_by_the_fastest_slice() {
        let mut g = Gauge::new();
        // Pinned: the gauge must do the same work in every build, or
        // runs of two builds stop measuring the host the same way.
        assert_eq!(g.conv(), Gauge::new().conv());
        assert_eq!(g.conv(), 132_797_268);
        assert!(g.fastest().is_nan());
        for _ in 0..3 {
            g.sample();
        }
        assert_eq!(g.slices(), 3);
        let fastest = g.fastest();
        assert!(fastest > 0.0 && fastest.is_finite());
        assert!((g.speed() * fastest - REFERENCE_SLICE_S).abs() < 1e-15);
    }
}

mod affinity_tests {
    use super::affinity::*;

    #[test]
    fn cpu_sets_round_trip_and_pinning_keeps_the_thread_running() {
        assert_eq!(CpuSet::only(0).cpus(), vec![0]);
        assert_eq!(CpuSet::only(70).cpus(), vec![70]);
        assert_eq!(CpuSet::only(3).without(3), CpuSet::only(3), "never empty");
        assert_eq!(CpuSet::only(3).without(4), CpuSet::only(3));
        if let Some(home) = current() {
            let first = home.cpus()[0];
            assert!(pin(&CpuSet::only(first)));
            assert_eq!(current().map(|s| s.cpus()), Some(vec![first]));
            assert!(pin(&home));
            assert_eq!(current(), Some(home));
        }
    }
}

mod serving_tests {
    use super::serving::*;
    use pixel_serve::Workload;

    #[test]
    fn open_loop_schedules_share_their_gaps_across_seeds() {
        let workload = Workload::paper_mix();
        let a = Schedule::open_loop(&workload, 100.0, 1000, 1);
        let b = Schedule::open_loop(&workload, 100.0, 1000, 2);
        assert_eq!(a.requests.len(), 1000);
        // Same seed, same inputs.
        assert_eq!(
            a.requests,
            Schedule::open_loop(&workload, 100.0, 1000, 1).requests
        );
        let gaps = |s: &Schedule| {
            let mut prev = std::time::Duration::ZERO;
            let mut g: Vec<u128> = s
                .requests
                .iter()
                .map(|r| {
                    let gap = r.0 - prev;
                    prev = r.0;
                    gap.as_micros()
                })
                .collect();
            g.sort_unstable();
            g
        };
        // Another seed reorders the same gaps (up to float rounding of the
        // running sum) and draws other tenants and networks.
        let (ga, gb) = (gaps(&a), gaps(&b));
        assert!(ga.iter().zip(&gb).all(|(x, y)| x.abs_diff(*y) <= 1));
        assert_ne!(a.requests, b.requests);
        // Mean rate as asked, to within the quantile-midpoint truncation.
        let rate = 1000.0 / a.span().as_secs_f64();
        assert!((rate - 100.0).abs() < 2.0, "{rate}");
    }
}
