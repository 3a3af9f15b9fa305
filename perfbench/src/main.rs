//! `sdr-perfbench`: host-time benchmark of the SDR stack.
//!
//! ```text
//! sdr-perfbench --workload <bulk_sr|adaptive_step|flow_fanout> \
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats rounds of the workload for `--seconds` and prints
//! the end-to-end metrics; `--trace 1` runs the per-layer measurement
//! (see `layers.rs`). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Lines before
//! it are a human-readable table and `#`-prefixed JSON records (machine
//! fingerprint, sample counts, the cross-check detail).

mod layers;
mod util;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use util::{fingerprint, harrell_davis, jain, median, peak_rss_mib, percentile, tail_quantile};
use workloads::{round_seed, Round, RoundCfg, Workload};

const GIB: f64 = (1u64 << 30) as f64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One printed metric: value, unit, the samples it summarises (0 when
/// that varies by metric), a note.
struct Out {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
}

fn out(name: &str, value: f64, unit: &'static str, samples: usize, note: &str) -> Out {
    Out {
        name: name.into(),
        value,
        unit,
        samples,
        note: note.into(),
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

/// The end-to-end metrics over a measured run's rounds.
fn end_to_end(w: Workload, rounds: &[Round], peak_rss: f64) -> (Vec<Out>, String) {
    let n = rounds.len();
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let host_gbps = per_round(&|r| r.bytes_ok() as f64 * 8.0 / r.run.wall_s.max(1e-12) / 1e9);
    let cpu = per_round(&|r| r.run.cpu_s / (r.bytes_ok() as f64 / GIB).max(1e-12));
    let setup = per_round(&|r| r.setup_s());

    let sim = &rounds[..w.sim_rounds().min(n)];
    let mut fct: Vec<f64> = sim
        .iter()
        .flat_map(|r| &r.xfers)
        .map(|x| x.done.saturating_sub(x.due).as_secs_f64() * 1e3)
        .collect();
    fct.sort_by(f64::total_cmp);
    let span_s: f64 = sim
        .iter()
        .filter(|r| !r.xfers.is_empty())
        .map(|r| {
            let first = r.xfers.iter().map(|x| x.due).min().expect("non-empty");
            let last = r.xfers.iter().map(|x| x.done).max().expect("non-empty");
            last.saturating_sub(first).as_secs_f64()
        })
        .sum();
    let sim_bytes: u64 = sim.iter().map(|r| r.bytes_ok()).sum();
    let tail_q = tail_quantile(fct.len());
    let attempted: usize = sim.iter().map(|r| r.xfers.len()).sum();
    let ok: usize = sim
        .iter()
        .map(|r| r.xfers.iter().filter(|x| x.ok).count())
        .sum();
    let sim_note = format!("first {} round(s) of the seed", sim.len());
    let metrics = vec![
        out(
            "host_gbps",
            host_gbps,
            "Gb/s",
            n,
            "median over rounds; run phase only",
        ),
        out(
            "host_cpu_s_per_gib",
            cpu,
            "s/GiB",
            n,
            "median over rounds; user+sys, all threads",
        ),
        out(
            "setup_s",
            setup,
            "s",
            n,
            "median over rounds; deployment up to the first submit",
        ),
        out(
            "peak_rss_mib",
            peak_rss,
            "MiB",
            1,
            "VmHWM after the first round",
        ),
        out(
            "sim_goodput_gbps",
            sim_bytes as f64 * 8.0 / span_s.max(1e-12) / 1e9,
            "Gb/s",
            sim.len(),
            &sim_note,
        ),
        out(
            "sim_fct_p50_ms",
            harrell_davis(&fct, 0.5),
            "ms",
            fct.len(),
            &format!("Harrell-Davis p50; {sim_note}"),
        ),
        out(
            "sim_fct_tail_ms",
            harrell_davis(&fct, tail_q),
            "ms",
            fct.len(),
            &format!(
                "Harrell-Davis p{:.2}, the highest with >= 10 samples beyond",
                tail_q * 100.0
            ),
        ),
        out("sim_jain", jain(&fct), "ratio", fct.len(), &sim_note),
        out(
            "delivered_frac",
            ok as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
            &format!("byte-exact, delivered outcome; {sim_note}"),
        ),
    ];
    (metrics, detail(w, sim, &fct))
}

/// The cross-check record: the sim metrics at full precision, the
/// nearest-rank percentiles the Harrell–Davis ones replace (so
/// `steadiness.py` can compare the two), and the first transfer of round
/// 0, for comparison with the figure binaries.
fn detail(w: Workload, sim: &[Round], fct: &[f64]) -> String {
    let r0 = &sim[0];
    let first = r0.xfers.first();
    let mut s = format!(
        "{{\"workload\": \"{}\", \"sim_transfers\": {}, \"round0_events\": {}, \
         \"nearest_rank_p50_ms\": {}, \"nearest_rank_tail_ms\": {}",
        w.name(),
        fct.len(),
        r0.events,
        num(percentile(fct, 0.5)),
        num(percentile(fct, tail_quantile(fct.len())))
    );
    if let Some(x) = first {
        let _ = write!(
            s,
            ", \"first_done_ms\": {}, \"first_fct_ms\": {}",
            num(x.done.as_secs_f64() * 1e3),
            num(x.done.saturating_sub(x.due).as_secs_f64() * 1e3)
        );
    }
    if let Some(rep) = r0.counts.adapt.first() {
        let _ = write!(
            s,
            ", \"first_switches\": {}, \"first_proposals\": {}, \"first_final\": \"{}\"",
            rep.switches, rep.proposals, rep.final_spec
        );
    }
    if let Some(st) = r0.counts.flow_rx {
        let mut d: Vec<f64> = r0
            .xfers
            .iter()
            .map(|x| x.done.saturating_sub(x.due).as_secs_f64() * 1e3)
            .collect();
        d.sort_by(f64::total_cmp);
        let last = r0.xfers.iter().map(|x| x.done).max().expect("flows ran");
        let _ = write!(
            s,
            ", \"round0_goodput_gbps\": {}, \"round0_p50_ms\": {}, \"round0_p99_ms\": {}, \
             \"round0_jain\": {}, \"round0_parked_opens\": {}",
            num(r0.bytes_ok() as f64 * 8.0 / last.as_secs_f64() / 1e9),
            num(percentile(&d, 0.5)),
            num(percentile(&d, 0.99)),
            num(jain(&d)),
            st.parked_opens
        );
    }
    s.push('}');
    s
}

fn print_table(title: &str, rows: &[Out]) {
    println!("{title}");
    println!(
        "  {:<28} {:>16} {:<7} {:>8}  note",
        "metric", "value", "unit", "samples"
    );
    for r in rows {
        let samples = match r.samples {
            0 => "-".to_string(),
            n => n.to_string(),
        };
        println!(
            "  {:<28} {:>16.6} {:<7} {:>8}  {}",
            r.name, r.value, r.unit, samples, r.note
        );
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Out]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "# sdr-perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# fingerprint {}", fingerprint());

    let (rounds, metrics, mut problems) = if args.trace {
        let t = layers::traced_run(w, args.seed, args.seconds);
        for line in &t.log {
            println!("  {line}");
        }
        for note in &t.notes {
            println!("# note {note}");
        }
        let rows: Vec<Out> = t
            .metrics
            .iter()
            .map(|m| out(m.name, m.value, m.unit, 0, m.layer))
            .collect();
        print_table(
            &format!(
                "per-layer metrics, {} ({} rounds; counters from one windowed round, \
                 host-time ratios as medians; note = layer)",
                w.name(),
                t.rounds.len()
            ),
            &rows,
        );
        (t.rounds, rows, t.problems)
    } else {
        let t0 = Instant::now();
        let mut rounds = Vec::new();
        let mut peak_rss = 0.0;
        while rounds.len() < w.sim_rounds() || t0.elapsed().as_secs_f64() < args.seconds {
            let cfg = RoundCfg::new(round_seed(args.seed, rounds.len()));
            rounds.push(w.round(&cfg));
            // One deployment's footprint: read after the first round, so
            // the figure does not depend on how many rounds the host had
            // time for.
            if rounds.len() == 1 {
                peak_rss = peak_rss_mib();
            }
        }
        let (rows, detail) = end_to_end(w, &rounds, peak_rss);
        println!("# detail {detail}");
        let list = |f: &dyn Fn(&Round) -> f64| {
            rounds
                .iter()
                .map(|r| format!("{:.4}", f(r)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "# rounds {{\"host_gbps\": [{}], \"setup_s\": [{}]}}",
            list(&|r| r.bytes_ok() as f64 * 8.0 / r.run.wall_s.max(1e-12) / 1e9),
            list(&|r| r.setup_s())
        );
        print_table(
            &format!(
                "end-to-end metrics, {} ({} rounds in {:.1} s)",
                w.name(),
                rounds.len(),
                t0.elapsed().as_secs_f64()
            ),
            &rows,
        );
        (rounds, rows, Vec::new())
    };
    for (i, r) in rounds.iter().enumerate() {
        problems.extend(r.problems.iter().map(|p| format!("round {i}: {p}")));
    }
    let attempted: usize = rounds.iter().map(|r| r.xfers.len()).sum();
    let failed: usize = rounds
        .iter()
        .map(|r| r.xfers.iter().filter(|x| !x.ok).count())
        .sum();
    for p in &problems {
        println!("# problem {p}");
    }
    let correct = failed == 0 && problems.is_empty() && attempted > 0;
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
