//! `cmm-benchmark aa`: the noise self-check. Every workload is run
//! `sets` times on the current build, each time with another seed and in
//! a process of its own (as the driver runs it), and for each
//! workload/metric pairing the set values, their largest pairwise
//! deviation and their quartile spread are printed beside the bound.
//! Two sets of runs of the same code must agree within the benchmark's
//! own bounds, or the bounds mean nothing.

use std::io;
use std::process::Command;

use crate::{canary, stats, workloads, Options, END_TO_END};

/// The value of metric `name` in a run's last output line.
fn metric_value(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

pub fn run(opts: &Options, sets: usize) -> io::Result<()> {
    // values[workload][metric][set]
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; workloads::WORKLOADS.len()];
    let mut canaries = Vec::new();
    for set in 0..sets {
        for (w, workload) in workloads::WORKLOADS.iter().enumerate() {
            let mut cmd = Command::new(std::env::current_exe()?);
            cmd.args(["--workload", workload, "--trace", "0", "--root"])
                .arg(&opts.root);
            cmd.args([
                "--seed",
                &(opts.seed + set as u64).to_string(),
                "--seconds",
                &opts.seconds.to_string(),
            ]);
            cmd.args(["--threads", &opts.threads.to_string()]);
            if opts.oversubscribed {
                cmd.arg("--oversubscribed");
            }
            let out = cmd.output()?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            if !out.status.success() {
                return Err(io::Error::other(format!(
                    "{workload} failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )));
            }
            for (m, (name, _, _)) in END_TO_END.iter().enumerate() {
                let v = metric_value(last, name)
                    .ok_or_else(|| io::Error::other(format!("{workload}: no {name} in {last}")))?;
                values[w][m].push(v);
            }
            canaries.push(canary::read(opts.threads));
            eprintln!("aa: set {} of {sets}, {workload} done", set + 1);
        }
    }
    println!(
        "host: {} cpus, T = {}, canary {:.2} ms (nominal {} ms), host.canary_iqr_pct {:.1}, host.loadavg {:.2}, {sets} sets, seeds {}..{}, {} s a run",
        crate::host_cpus(),
        opts.threads,
        stats::median(&canaries),
        canary::CANARY_NOMINAL_MS,
        stats::iqr_share(&canaries) * 100.0,
        crate::loadavg(),
        opts.seed,
        opts.seed + sets as u64 - 1,
        opts.seconds
    );
    println!();
    println!("| workload | metric | unit | set values | largest pairwise deviation | quartile spread / median | bound |");
    println!("|---|---|---|---|---|---|---|");
    let mut worst = 0.0f64;
    for (w, workload) in workloads::WORKLOADS.iter().enumerate() {
        for (m, (name, unit, bound)) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            let spread = stats::iqr_share(v);
            worst = worst.max(spread / bound);
            println!(
                "| {workload} | {name} | {unit} | {} | {:.2} % | {:.2} % | {:.0} % |",
                shown.join(" "),
                stats::max_pairwise_deviation(v) * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    println!();
    println!("largest quartile spread as a share of its bound: {worst:.2}");
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn metric_value_reads_the_result_line() {
        let line = r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 0.5432, "unit": "s"}, "op_ms": {"value": 363.28, "unit": "ms"}}}"#;
        assert_eq!(super::metric_value(line, "setup_s"), Some(0.5432));
        assert_eq!(super::metric_value(line, "op_ms"), Some(363.28));
        assert_eq!(super::metric_value(line, "guard_ms"), None);
    }
}
