//! Self-test of the benchmark at test scale (tiny TPC-H, latency-free
//! disk): every workload runs in both modes, every metric `BENCHMARK.json`
//! names is emitted with its unit, and the answer check passes.
//!
//! Run with `cargo test --release --manifest-path qbench/Cargo.toml`.

use qbench::{run, Options, Report, Workload};
use qpipe_workloads::harness::SystemProfile;
use qpipe_workloads::tpch::TpchScale;
use std::collections::BTreeMap;

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        scale: TpchScale::tiny(),
        disk: SystemProfile::instant().disk,
        ..Options::experiment(workload, 7, 0.4, trace)
    }
}

/// `name -> unit` of one metric list (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text);
    let Json::Arr(items) = json.get(list) else { panic!("{list} is not a list") };
    items
        .iter()
        .map(|m| {
            let (Json::Str(name), Json::Str(unit)) = (m.get("name"), m.get("unit")) else {
                panic!("metric without a name or unit in {list}")
            };
            (name.clone(), unit.clone())
        })
        .collect()
}

fn emitted(report: &Report) -> BTreeMap<String, String> {
    report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

fn check_run(workload: Workload, trace: bool) -> Report {
    let report = run(&tiny(workload, trace)).expect("benchmark run");
    assert!(report.correct, "{}: an answer differs from the iterator engine's", workload.name());
    assert!(report.attempted > 0, "{}: no query ran", workload.name());
    assert_eq!(report.failed, 0, "{}: queries failed", workload.name());
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
    report
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        assert_eq!(emitted(&check_run(workload, false)), end_to_end, "{}", workload.name());
        assert_eq!(emitted(&check_run(workload, true)), per_layer, "{}", workload.name());
    }
}

/// `BENCHMARK.json` lists every workload except `mix_shared_cached`, which
/// is runnable by name but too sensitive to host CPU speed to hold a bound
/// (see README.md).
#[test]
fn declared_workloads_are_the_benchmarks() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let Json::Arr(items) = json.get("workloads") else { panic!("workloads is not a list") };
    let names: Vec<&str> = items
        .iter()
        .map(|w| match w.get("name") {
            Json::Str(s) => s.as_str(),
            _ => panic!("workload without a name"),
        })
        .collect();
    let ours: Vec<&str> =
        Workload::ALL.iter().filter(|w| **w != Workload::SharedCached).map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn cached_workload_reads_no_blocks_and_serial_never_shares() {
    let layer = |report: &Report, name: &str| {
        report.metrics.iter().find(|m| m.name == name).map(|m| m.value).expect(name)
    };
    let cached = check_run(Workload::SharedCached, true);
    assert_eq!(layer(&cached, "disk.blocks_read_per_query"), 0.0);
    let serial = check_run(Workload::SerialDisk, true);
    assert!(layer(&serial, "scan.attaches_per_query") < 0.05);
}

/// Just enough JSON for `BENCHMARK.json`: no escapes inside strings.
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Other,
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        p.value()
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
        .unwrap_or_else(|| panic!("no key {key}"))
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let hit = self.s.get(self.i) == Some(&c);
        self.i += hit as usize;
        hit
    }

    fn string(&mut self) -> String {
        assert!(self.eat(b'"'), "expected a string at byte {}", self.i);
        let start = self.i;
        while self.s[self.i] != b'"' {
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("UTF-8")
    }

    fn value(&mut self) -> Json {
        self.skip_ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                while !self.eat(b'}') {
                    self.eat(b',');
                    let key = self.string();
                    assert!(self.eat(b':'), "expected ':' at byte {}", self.i);
                    fields.push((key, self.value()));
                }
                Json::Obj(fields)
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                while !self.eat(b']') {
                    self.eat(b',');
                    items.push(self.value());
                }
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                while self.s.get(self.i).is_some_and(|c| !b",}] \n\r\t".contains(c)) {
                    self.i += 1;
                }
                Json::Other
            }
        }
    }
}
