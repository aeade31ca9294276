//! Malformed wire input gives a typed error, never a panic or a stack
//! overflow: seeded, deterministic truncations and byte mutations of valid
//! request and response batches, and nesting far past the parser's depth
//! cap.

use std::panic::{catch_unwind, AssertUnwindSafe};

use emr_core::{Ensured, Model, RoutePlan, SafetyLevel};
use emr_mesh::Coord;
use emr_serve::api::{
    AdvanceEpoch, InjectFault, ReachQuery, Reached, RegisterMesh, Request, Response, RouteQuery,
    Routed, SafetyAnswer, SafetyQuery, ServeError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::de::DeserializeOwned;

fn request_wire() -> String {
    let batch = vec![
        Request::Register(RegisterMesh {
            mesh: "t\"0".to_string(),
            width: 16,
            height: 16,
            faults: vec![Coord::new(3, 4), Coord::new(9, 9)],
        }),
        Request::Route(RouteQuery {
            mesh: "t0".to_string(),
            at_epoch: Some(2),
            model: Model::Mcc,
            s: Coord::new(0, 15),
            d: Coord::new(-7, 1),
        }),
        Request::Safety(SafetyQuery {
            mesh: "t0".to_string(),
            at_epoch: None,
            model: Model::FaultBlock,
            at: Coord::new(5, 5),
        }),
        Request::Reach(ReachQuery {
            mesh: "é".to_string(),
            at_epoch: None,
            s: Coord::new(1, 2),
            d: Coord::new(3, 4),
        }),
        Request::Inject(InjectFault {
            mesh: "t0".to_string(),
            fault: Coord::new(6, 6),
        }),
        Request::Advance(AdvanceEpoch {
            mesh: "t0".to_string(),
        }),
    ];
    serde_json::to_string(&batch).unwrap()
}

fn response_wire() -> String {
    let batch = vec![
        Response::Routed(Routed {
            epoch: 3,
            decision: Some(Ensured::SubMinimal(RoutePlan::ViaAxis(Coord::new(2, 0)))),
        }),
        Response::Safety(SafetyAnswer {
            epoch: 3,
            level: SafetyLevel::UNBOUNDED,
        }),
        Response::Reached(Reached {
            epoch: 1,
            reachable: true,
        }),
        Response::Error(ServeError::OffMesh(Coord::new(-1, 0))),
    ];
    serde_json::to_string(&batch).unwrap()
}

/// Decodes `bytes` (lossily, as text) as a `T`, failing the test with the
/// input if decoding panics.
fn decodes_without_panic<T: DeserializeOwned>(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    catch_unwind(AssertUnwindSafe(|| {
        serde_json::from_str::<T>(&text).is_ok()
    }))
    .unwrap_or_else(|_| panic!("decoding panicked on {text:?}"))
}

/// Bytes worth inserting: JSON structure, escapes, digits, letters and
/// non-ASCII.
const ALPHABET: &[u8] = b"{}[]\":,\\-+.eE0123456789ntfrulsaxyu \n\x00\x7f\xc3\xa9\xff";

fn mutate(rng: &mut StdRng, wire: &[u8]) -> Vec<u8> {
    let mut bytes = wire.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..3) {
            0 => bytes[at] ^= 1u8 << rng.gen_range(0..8u32),
            1 => bytes.insert(at, ALPHABET[rng.gen_range(0..ALPHABET.len())]),
            _ => {
                bytes.remove(at);
            }
        }
        if bytes.is_empty() {
            break;
        }
    }
    bytes
}

fn hammer<T: DeserializeOwned>(wire: &str, seed: u64) -> (usize, usize) {
    assert!(decodes_without_panic::<T>(wire.as_bytes()));
    let mut oks = 0;
    let mut tries = 0;
    for end in 0..wire.len() {
        tries += 1;
        oks += usize::from(decodes_without_panic::<T>(&wire.as_bytes()[..end]));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..6000 {
        tries += 1;
        oks += usize::from(decodes_without_panic::<T>(&mutate(
            &mut rng,
            wire.as_bytes(),
        )));
    }
    (oks, tries)
}

#[test]
fn mutated_request_batches_decode_or_error() {
    let (oks, tries) = hammer::<Vec<Request>>(&request_wire(), 0x5eed);
    // Most mutations break the batch; a few (a digit flipped inside a
    // number, a changed name byte) still decode.
    assert!(oks < tries / 2, "{oks} of {tries} mutants decoded");
}

#[test]
fn mutated_response_batches_decode_or_error() {
    let (oks, tries) = hammer::<Vec<Response>>(&response_wire(), 0xfeed);
    assert!(oks < tries / 2, "{oks} of {tries} mutants decoded");
}

#[test]
fn nesting_past_the_depth_cap_is_a_typed_error() {
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    let junk = format!(r#"[{{"Advance":{{"junk":{deep},"mesh":"m"}}}}]"#);
    let err = serde_json::from_str::<Vec<Request>>(&junk).unwrap_err();
    assert!(err.to_string().contains("nested deeper"), "{err}");
    let err = serde_json::from_str::<serde::Value>(&deep).unwrap_err();
    assert!(err.to_string().contains("nested deeper"), "{err}");
    // Nesting where a request belongs fails on its shape straight away.
    assert!(serde_json::from_str::<Vec<Request>>(&deep).is_err());
    // The same key at a shallow depth is skipped.
    let shallow = r#"[{"Advance":{"junk":[[{"a":[]}]],"mesh":"m"}}]"#;
    assert_eq!(
        serde_json::from_str::<Vec<Request>>(shallow).unwrap(),
        vec![Request::Advance(AdvanceEpoch {
            mesh: "m".to_string()
        })]
    );
}

#[test]
fn undecodable_request_wires_are_answered_malformed() {
    let store = emr_serve::Store::new(emr_serve::StoreConfig::default());
    let client = emr_serve::LoopbackClient::new(std::sync::Arc::new(store));
    let wire = request_wire();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let truncations = (0..wire.len()).map(|end| wire.as_bytes()[..end].to_vec());
    let mutations = (0..6000).map(|_| mutate(&mut rng, wire.as_bytes()));
    let mut malformed = 0;
    for bytes in truncations.chain(mutations) {
        let text = String::from_utf8_lossy(&bytes);
        let answer = catch_unwind(AssertUnwindSafe(|| client.send_encoded(&text)))
            .unwrap_or_else(|_| panic!("send_encoded panicked on {text:?}"));
        let answer: Vec<Response> = serde_json::from_str(&answer).unwrap();
        match serde_json::from_str::<Vec<Request>>(&text) {
            Ok(batch) => assert_eq!(answer.len(), batch.len(), "{text:?}"),
            Err(e) => {
                malformed += 1;
                let expected = Response::Error(ServeError::Malformed(e.to_string()));
                assert_eq!(answer, vec![expected], "{text:?}");
            }
        }
    }
    assert!(malformed > wire.len(), "{malformed} texts failed to decode");
}
