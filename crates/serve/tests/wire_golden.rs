//! Golden wire bytes: the exact JSON the loopback transport puts on the
//! wire for every request and response shape, and the pretty form the
//! BENCH and repro writers use. Any drifted byte fails here, so a codec
//! change that claims byte identity has to prove it against these pins.

use emr_core::{Ensured, Model, RoutePlan, SafetyLevel};
use emr_mesh::{Coord, UNBOUNDED};
use emr_serve::api::*;
use emr_serve::loopback;
use serde::{Serialize, Value};

fn every_request() -> Vec<Request> {
    vec![
        Request::Register(RegisterMesh {
            mesh: "m\"1\\\n".to_string(),
            width: 8,
            height: 6,
            faults: vec![Coord::new(3, 3), Coord::new(-1, 0)],
        }),
        Request::Register(RegisterMesh {
            mesh: "empty".to_string(),
            width: 1,
            height: 1,
            faults: vec![],
        }),
        Request::Route(RouteQuery {
            mesh: "m".to_string(),
            at_epoch: None,
            model: Model::FaultBlock,
            s: Coord::new(0, 0),
            d: Coord::new(7, 5),
        }),
        Request::Route(RouteQuery {
            mesh: "m".to_string(),
            at_epoch: Some(u64::MAX),
            model: Model::Mcc,
            s: Coord::new(i32::MIN, i32::MAX),
            d: Coord::new(1, 2),
        }),
        Request::Safety(SafetyQuery {
            mesh: "m".to_string(),
            at_epoch: Some(3),
            model: Model::Mcc,
            at: Coord::new(2, 4),
        }),
        Request::Reach(ReachQuery {
            mesh: "m".to_string(),
            at_epoch: None,
            s: Coord::new(1, 1),
            d: Coord::new(6, 4),
        }),
        Request::Inject(InjectFault {
            mesh: "m".to_string(),
            fault: Coord::new(5, 2),
        }),
        Request::Advance(AdvanceEpoch {
            mesh: "m".to_string(),
        }),
        Request::Warm(WarmDecision {
            mesh: "m".to_string(),
            model: Model::FaultBlock,
            s: Coord::new(0, 5),
            d: Coord::new(7, 0),
        }),
        Request::Stats(SnapshotStats {
            mesh: "ünïcode ✓".to_string(),
        }),
    ]
}

fn every_response() -> Vec<Response> {
    let plans = [
        RoutePlan::Direct,
        RoutePlan::ViaNeighbor(Coord::new(1, 0)),
        RoutePlan::ViaAxis(Coord::new(0, 4)),
        RoutePlan::ViaPivot(Coord::new(3, -2)),
    ];
    let mut out = vec![
        Response::Registered(Registered { epoch: 0 }),
        Response::Routed(Routed {
            epoch: 1,
            decision: None,
        }),
    ];
    for (i, plan) in plans.into_iter().enumerate() {
        out.push(Response::Routed(Routed {
            epoch: i as u64,
            decision: Some(Ensured::Minimal(plan)),
        }));
        out.push(Response::Warmed(Warmed {
            working_epoch: i as u64 + 10,
            decision: Some(Ensured::SubMinimal(plan)),
        }));
    }
    out.extend([
        Response::Warmed(Warmed {
            working_epoch: 2,
            decision: None,
        }),
        Response::Safety(SafetyAnswer {
            epoch: 4,
            level: SafetyLevel::UNBOUNDED,
        }),
        Response::Safety(SafetyAnswer {
            epoch: 5,
            level: SafetyLevel::new(1, UNBOUNDED, 0, 7),
        }),
        Response::Reached(Reached {
            epoch: 6,
            reachable: true,
        }),
        Response::Reached(Reached {
            epoch: 6,
            reachable: false,
        }),
        Response::Injected(Injected {
            working_epoch: 7,
            changed: true,
        }),
        Response::Published(Published {
            epoch: 7,
            fresh: false,
        }),
        Response::Stats(StatsReport {
            working_epoch: 8,
            published_epoch: 7,
            epochs_retained: 4,
            approx_snapshot_bytes: 123_456,
            memo_entries: 9,
            faults: 12,
        }),
        Response::Error(ServeError::UnknownMesh("ghost".to_string())),
        Response::Error(ServeError::AlreadyRegistered("m".to_string())),
        Response::Error(ServeError::BadMesh("tab\there".to_string())),
        Response::Error(ServeError::EpochNotRetained(EpochWindow {
            requested: 1,
            oldest: 2,
            latest: 5,
        })),
        Response::Error(ServeError::OffMesh(Coord::new(-1, 9))),
    ]);
    out
}

const REQUESTS_WIRE: &str = concat!(
    r#"["#,
    r#"{"Register":{"mesh":"m\"1\\\n","width":8,"height":6,"faults":[{"x":3,"y":3},{"x":-1,"y":0}]}},"#,
    r#"{"Register":{"mesh":"empty","width":1,"height":1,"faults":[]}},"#,
    r#"{"Route":{"mesh":"m","at_epoch":null,"model":"FaultBlock","s":{"x":0,"y":0},"d":{"x":7,"y":5}}},"#,
    r#"{"Route":{"mesh":"m","at_epoch":18446744073709551615,"model":"Mcc","s":{"x":-2147483648,"y":2147483647},"d":{"x":1,"y":2}}},"#,
    r#"{"Safety":{"mesh":"m","at_epoch":3,"model":"Mcc","at":{"x":2,"y":4}}},"#,
    r#"{"Reach":{"mesh":"m","at_epoch":null,"s":{"x":1,"y":1},"d":{"x":6,"y":4}}},"#,
    r#"{"Inject":{"mesh":"m","fault":{"x":5,"y":2}}},"#,
    r#"{"Advance":{"mesh":"m"}},"#,
    r#"{"Warm":{"mesh":"m","model":"FaultBlock","s":{"x":0,"y":5},"d":{"x":7,"y":0}}},"#,
    r#"{"Stats":{"mesh":"ünïcode ✓"}}"#,
    r#"]"#,
);

const RESPONSES_WIRE: &str = concat!(
    r#"["#,
    r#"{"Registered":{"epoch":0}},"#,
    r#"{"Routed":{"epoch":1,"decision":null}},"#,
    r#"{"Routed":{"epoch":0,"decision":{"Minimal":"Direct"}}},"#,
    r#"{"Warmed":{"working_epoch":10,"decision":{"SubMinimal":"Direct"}}},"#,
    r#"{"Routed":{"epoch":1,"decision":{"Minimal":{"ViaNeighbor":{"x":1,"y":0}}}}},"#,
    r#"{"Warmed":{"working_epoch":11,"decision":{"SubMinimal":{"ViaNeighbor":{"x":1,"y":0}}}}},"#,
    r#"{"Routed":{"epoch":2,"decision":{"Minimal":{"ViaAxis":{"x":0,"y":4}}}}},"#,
    r#"{"Warmed":{"working_epoch":12,"decision":{"SubMinimal":{"ViaAxis":{"x":0,"y":4}}}}},"#,
    r#"{"Routed":{"epoch":3,"decision":{"Minimal":{"ViaPivot":{"x":3,"y":-2}}}}},"#,
    r#"{"Warmed":{"working_epoch":13,"decision":{"SubMinimal":{"ViaPivot":{"x":3,"y":-2}}}}},"#,
    r#"{"Warmed":{"working_epoch":2,"decision":null}},"#,
    r#"{"Safety":{"epoch":4,"level":{"dists":[4294967295,4294967295,4294967295,4294967295]}}},"#,
    r#"{"Safety":{"epoch":5,"level":{"dists":[1,7,0,4294967295]}}},"#,
    r#"{"Reached":{"epoch":6,"reachable":true}},"#,
    r#"{"Reached":{"epoch":6,"reachable":false}},"#,
    r#"{"Injected":{"working_epoch":7,"changed":true}},"#,
    r#"{"Published":{"epoch":7,"fresh":false}},"#,
    r#"{"Stats":{"working_epoch":8,"published_epoch":7,"epochs_retained":4,"approx_snapshot_bytes":123456,"memo_entries":9,"faults":12}},"#,
    r#"{"Error":{"UnknownMesh":"ghost"}},"#,
    r#"{"Error":{"AlreadyRegistered":"m"}},"#,
    r#"{"Error":{"BadMesh":"tab\there"}},"#,
    r#"{"Error":{"EpochNotRetained":{"requested":1,"oldest":2,"latest":5}}},"#,
    r#"{"Error":{"OffMesh":{"x":-1,"y":9}}}"#,
    r#"]"#,
);

#[test]
fn request_batch_wire_bytes_are_pinned() {
    let batch = every_request();
    let wire = loopback::encode(&batch);
    assert_eq!(wire, REQUESTS_WIRE);
    assert_eq!(serde_json::to_string(&batch).unwrap(), REQUESTS_WIRE);
    let back: Vec<Request> = serde_json::from_str(REQUESTS_WIRE).unwrap();
    assert_eq!(back, batch);
}

#[test]
fn response_batch_wire_bytes_are_pinned() {
    let batch = every_response();
    let wire = serde_json::to_string(&batch).unwrap();
    assert_eq!(wire, RESPONSES_WIRE);
    assert_eq!(loopback::decode(RESPONSES_WIRE), batch);
}

/// A record in the shape of the BENCH writers' output.
#[derive(Serialize)]
struct Record {
    name: String,
    empty_seq: Vec<u32>,
    nested_seq: Vec<Vec<i32>>,
    floats: Vec<f64>,
    models: Vec<Model>,
    plan: Option<Ensured>,
    absent: Option<u32>,
    extra: Value,
}

const RECORD_PRETTY: &str = r#"{
  "name": "pretty",
  "empty_seq": [],
  "nested_seq": [
    [
      1,
      -2
    ],
    [],
    [
      3
    ]
  ],
  "floats": [
    0.0,
    -0.0,
    3.0,
    -2.0,
    0.25,
    0.00000015,
    123456.789,
    100000000000000000000,
    null,
    null
  ],
  "models": [
    "FaultBlock",
    "Mcc"
  ],
  "plan": {
    "Minimal": {
      "ViaPivot": {
        "x": 2,
        "y": 3
      }
    }
  },
  "absent": null,
  "extra": {
    "empty_map": {},
    "empty_seq": [],
    "inner": {
      "seq": [
        -1,
        [],
        null
      ],
      "big": 18446744073709551615,
      "f": 2.0,
      "b": true
    },
    "key \"q\"": "ctl\u0001"
  }
}"#;

#[test]
fn pretty_record_bytes_are_pinned() {
    let record = Record {
        name: "pretty".to_string(),
        empty_seq: vec![],
        nested_seq: vec![vec![1, -2], vec![], vec![3]],
        floats: vec![
            0.0,
            -0.0,
            3.0,
            -2.0,
            0.25,
            1.5e-7,
            123_456.789,
            1e20,
            f64::NAN,
            f64::INFINITY,
        ],
        models: vec![Model::FaultBlock, Model::Mcc],
        plan: Some(Ensured::Minimal(RoutePlan::ViaPivot(Coord::new(2, 3)))),
        absent: None,
        extra: Value::Map(vec![
            ("empty_map".to_string(), Value::Map(vec![])),
            ("empty_seq".to_string(), Value::Seq(vec![])),
            (
                "inner".to_string(),
                Value::Map(vec![
                    (
                        "seq".to_string(),
                        Value::Seq(vec![Value::Int(-1), Value::Seq(vec![]), Value::Null]),
                    ),
                    ("big".to_string(), Value::UInt(u64::MAX)),
                    ("f".to_string(), Value::Float(2.0)),
                    ("b".to_string(), Value::Bool(true)),
                ]),
            ),
            ("key \"q\"".to_string(), Value::Str("ctl\u{1}".to_string())),
        ]),
    };
    let pretty = serde_json::to_string_pretty(&record).unwrap();
    assert_eq!(pretty, RECORD_PRETTY);
}

#[test]
fn malformed_batch_answer_bytes_are_pinned() {
    let store = emr_serve::Store::new(emr_serve::StoreConfig::default());
    let client = emr_serve::LoopbackClient::new(std::sync::Arc::new(store));
    let wire = client.send_encoded(r#"[{"Advance":{"mesh":"m"}} {"Stats":{"mesh":"m"}}]"#);
    assert_eq!(
        wire,
        r#"[{"Error":{"Malformed":"expected `,` or `]` at byte 26"}}]"#
    );
    let error = ServeError::Malformed("expected `,` or `]` at byte 26".to_string());
    assert_eq!(
        error.to_string(),
        "malformed request batch: expected `,` or `]` at byte 26"
    );
    assert_eq!(loopback::decode(&wire), vec![Response::Error(error)]);
}
