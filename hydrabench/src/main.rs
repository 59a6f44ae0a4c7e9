//! One benchmark run of the HydraDB reproduction, in a fresh process.
//!
//! ```text
//! hydrabench --workload <name> --seed <n> [--trace <spans.csv>]
//! ```
//!
//! Builds the workload's cluster, loads and warms it, measures the YCSB
//! stream through the public driver and checks the results. Prints one JSON
//! object: the virtual-clock metrics, the host-clock metrics, every
//! correctness check and, with `--trace`, the per-layer metrics (request
//! spans and phase spans go to the named file). `run.py` in this directory
//! builds the binary, repeats runs and aggregates them.

mod metrics;
mod probe;
mod replay;
mod run;
mod util;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use util::Json;

struct Args {
    workload: String,
    seed: u64,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--trace" => trace = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace,
    })
}

/// Writes request and phase spans as CSV.
fn write_trace(
    path: &Path,
    out: &run::Outcome,
    phases: &[(&str, Instant, Instant)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "# phase spans: phase,name,host_start_ns,host_end_ns (from process start)"
    )?;
    let ns = |t: Instant| (t - out.process_start).as_nanos();
    for (name, a, b) in phases {
        writeln!(w, "phase,{name},{},{}", ns(*a), ns(*b))?;
    }
    writeln!(
        w,
        "# request spans: req,id,kind,virtual_issue_ns,virtual_complete_ns,host_issue_ns,ok"
    )?;
    for s in out.rec.borrow().spans() {
        writeln!(
            w,
            "req,{},{},{},{},{},{}",
            s.id,
            s.kind.name(),
            s.issued,
            s.completed,
            s.host_ns,
            u8::from(s.ok)
        )?;
    }
    w.flush()
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hydrabench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload, args.seed) else {
        eprintln!(
            "hydrabench: unknown workload {:?} (one of {:?})",
            args.workload,
            workloads::NAMES
        );
        std::process::exit(2);
    };
    let traced = args.trace.is_some();

    let mut out = run::run(&spec, traced, process_start);
    let setup_s = out.setup_s();
    let run_s = out.run_s();

    let t = Instant::now();
    let streams = spec.workload.generate(workloads::CLIENTS);
    let generate_s = t.elapsed().as_secs_f64();

    let (virt, mut checks) = metrics::virtual_metrics(&out);
    let mut layers = Json::obj();
    let mut phases = vec![
        ("setup", out.process_start, out.first.at),
        ("load_warmup", out.call_at, out.first.at),
        ("measured", out.first.at, out.last.at),
        ("drain", out.last.at, out.returned),
    ];
    if traced {
        metrics::layer_metrics(&out, &mut layers);
        layers.set("ycsb.generate_s", Json::Num(generate_s));
        phases.extend(replay::replay_all(
            &spec.cluster,
            &spec.workload,
            &streams,
            &mut layers,
        ));
    }
    checks.extend(metrics::checks(&spec, &mut out, &streams));
    if let Some(path) = &args.trace {
        if let Err(e) = write_trace(path, &out, &phases) {
            checks.push(("trace_written".into(), false, e.to_string()));
        }
    }

    let mut host = Json::obj();
    host.set("setup_s", Json::Num(setup_s));
    host.set("run_s", Json::Num(run_s));
    host.set("peak_rss_mib", Json::Num(out.hwm_kib as f64 / 1024.0));

    let mut doc = Json::obj();
    doc.set("workload", Json::Str(spec.name.into()));
    doc.set("seed", Json::Int(args.seed));
    doc.set("traced", Json::Bool(traced));
    doc.set("correct", Json::Bool(checks.iter().all(|(_, ok, _)| *ok)));
    doc.set("attempted", Json::Int(out.attempted));
    doc.set("failed", Json::Int(metrics::failed(&out)));
    doc.set("virtual", virt);
    doc.set("host", host);
    doc.set("layers", layers);
    doc.set(
        "checks",
        Json::Arr(
            checks
                .into_iter()
                .map(|(name, ok, detail)| {
                    let mut c = Json::obj();
                    c.set("name", Json::Str(name));
                    c.set("ok", Json::Bool(ok));
                    c.set("detail", Json::Str(detail));
                    c
                })
                .collect(),
        ),
    );
    println!("{}", doc.render());
}
