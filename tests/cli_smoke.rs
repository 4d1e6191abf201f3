//! CLI smoke tier: drives the built `campaign` and `replay` binaries the
//! way `scripts/ci.sh` used to in bash + python, asserting on exit codes
//! and on the files they write.
//!
//! So far this holds the triage smoke (injected bug → bundle → replay)
//! and the hostile-bundle cases around it; the other `ci.sh` blocks move
//! here one by one.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory private to one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cli-smoke-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

fn campaign(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_campaign"), args)
}

fn replay(bundle: &Path) -> Output {
    run(
        env!("CARGO_BIN_EXE_replay"),
        &["--bundle", bundle.to_str().unwrap()],
    )
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path:?}: {e:?}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Run the injected-bug campaign of the triage smoke into `scratch` and
/// return the bundle file of its first diverged job.
fn diverged_bundle(scratch: &Scratch) -> PathBuf {
    let report = scratch.path("report.json");
    let bundles = scratch.path("bundles");
    // The injected MulLowBit bug must make some seeds diverge, so the
    // campaign exits 1 by contract.
    let out = campaign(&[
        "--torture-seeds",
        "0..3",
        "--configs",
        "small-nh",
        "--inject-bug",
        "mul-low-bit",
        "--lightsss",
        "2000",
        "--max-cycles",
        "8000000",
        "--workers",
        "3",
        "--no-minimize",
        "--bundle-dir",
        bundles.to_str().unwrap(),
        "--out",
        report.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "diverged jobs exit 1: {}",
        stderr(&out)
    );

    let r = read_json(&report);
    assert_eq!(r["schema_version"], campaign::SCHEMA_VERSION);
    let jobs = r["jobs"].as_array().expect("jobs array");
    let job = jobs
        .iter()
        .find(|j| j["verdict"].get("Diverged").is_some())
        .expect("injected bug produced no divergence");
    let b = &job["triage"];
    assert!(!b.is_null(), "diverged jobs carry a triage bundle");
    assert_eq!(b["schema_version"], campaign::BUNDLE_SCHEMA_VERSION);
    assert_eq!(b["trigger"], "diverged");
    assert_eq!(b["reproduced"], true);
    assert!(
        b["at_commit"].as_u64().unwrap() > 0,
        "bundle lacks the commit anchor"
    );
    assert!(
        !b["commit_tail"].as_array().unwrap().is_empty(),
        "bundle lacks the commit tail"
    );
    let file = bundles.join(format!("job{}.bundle.json", job["index"].as_u64().unwrap()));
    assert_eq!(
        &read_json(&file),
        b,
        "the bundle file is the embedded bundle"
    );
    file
}

#[test]
fn triage_bundle_replays_at_the_same_commit() {
    let scratch = Scratch::new("triage");
    let bundle = diverged_bundle(&scratch);
    // The bundle alone must reproduce the divergence at the same commit
    // index (replay exits 0 only on REPRODUCED).
    let out = replay(&bundle);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replay: REPRODUCED"), "{stdout}");
}

#[test]
fn hostile_bundles_are_setup_errors_not_panics() {
    let scratch = Scratch::new("hostile");
    let good = read_json(&diverged_bundle(&scratch));
    let sample = serde_json::from_str::<Value>(
        r#"{"Sample":{"interval":1,"interval_len":5000,"kernel":"sjeng",
            "ref_model":"nosuch","warmup":100,"window":100}}"#,
    )
    .unwrap();
    let kernel = serde_json::from_str::<Value>(r#"{"Kernel":{"name":"nosuch"}}"#).unwrap();
    // (case, fields to overwrite, the diagnosis `replay` must print)
    let cases = [
        (
            "schema",
            vec![("schema_version", Value::from(99u64))],
            "bundle schema version 99",
        ),
        (
            "kernel",
            vec![("source", kernel)],
            "unknown workload `nosuch`",
        ),
        (
            "ref-model",
            vec![("source", sample)],
            "unknown profiling personality `nosuch`",
        ),
        // The preset exists; the model refuses it for this core count.
        (
            "config",
            vec![
                ("config", Value::from("small-yqh")),
                ("cores", Value::from(2u64)),
            ],
            "no shared last-level cache",
        ),
    ];
    for (name, edits, diagnosis) in cases {
        let mut b = good.clone();
        let Value::Object(map) = &mut b else {
            panic!("a bundle is an object");
        };
        for (key, value) in edits {
            map.insert(key.into(), value);
        }
        let file = scratch.path(&format!("{name}.bundle.json"));
        std::fs::write(&file, serde_json::to_string_pretty(&b).unwrap()).unwrap();
        let out = replay(&file);
        let err = stderr(&out);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: setup errors exit 2: {err}"
        );
        assert!(err.contains(diagnosis), "{name}: {err}");
        assert!(
            !err.contains("unknown configuration preset"),
            "{name}: {err}"
        );
        assert!(!err.contains("panicked"), "{name}: no panic output: {err}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("replay:"),
            "{name}: nothing is simulated: {stdout}"
        );
    }
}
