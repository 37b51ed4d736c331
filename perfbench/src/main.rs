//! `perfbench --workload <audit|fleet|churn> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`: the
//! end-to-end metrics with `--trace 0`, the per-layer time budget with
//! `--trace 1`. The line before it is the run's record (host cores,
//! git revision, seed, sample counts, work counts, churn drift). A
//! traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.json`.

use perfbench::{audit, churn, fleet, host_cores, Params, Run, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <audit|fleet|churn> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    params: Params,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        params: Params {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        },
    })
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{name}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_map<V: std::fmt::Display>(entries: impl IntoIterator<Item = (String, V)>) -> String {
    let body: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn record(workload: &str, params: &Params, run: &Run) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host_cores\":{},\"git_rev\":\"{}\",\"samples\":{},\"counts\":{}",
        params.seed,
        params.seconds,
        params.trace,
        host_cores(),
        git_rev(),
        json_map(run.samples.iter().map(|(k, v)| (k.to_string(), v))),
        json_map(run.counts.iter().map(|(k, v)| (k.to_string(), v))),
    );
    if let Some(drift) = &run.drift {
        let _ = write!(out, ",\"drift\":{drift}");
    }
    if workload == "audit" {
        let excluded: Vec<String> = perfbench::inputs::EXCLUDED
            .iter()
            .map(|e| format!("\"{e}\""))
            .collect();
        let _ = write!(out, ",\"excluded\":[{}]", excluded.join(","));
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let p = args.params;
    let run = match args.workload.as_str() {
        "audit" => audit::run(&p, audit::Size::for_seconds(p.seconds)),
        "fleet" => fleet::run(&p, fleet::Size::for_seconds(p.seconds)),
        "churn" => churn::run(&p, churn::Size::for_seconds(p.seconds)),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for f in run.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    let record = record(&args.workload, &p, &run);
    if let Some(spans) = &run.trace_json {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, p.seed));
        let doc = format!("{{\"record\":{record},\"spans\":{spans}}}\n");
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    let wanted = if p.trace { PER_LAYER } else { END_TO_END };
    let metrics = wanted.iter().map(|&(name, unit)| {
        let value = run.value(name).unwrap_or(0.0);
        (
            name.to_string(),
            format!("{{\"value\":{value},\"unit\":\"{unit}\"}}"),
        )
    });
    println!("{{\"record\":{record}}}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.failures.is_empty(),
        run.attempted,
        run.failures.len(),
        json_map(metrics)
    );
    ExitCode::SUCCESS
}
