//! The in-process loopback transport.
//!
//! A real deployment would put the store behind a socket; this crate's
//! transport is a loopback that still crosses a **full wire boundary**:
//! request batches are JSON-encoded, decoded on the "server" side,
//! answered by the shared [`Store`], and the responses JSON-encoded back.
//! Every served byte therefore exercises exactly the serialization a
//! remote client would see, and swapping in a socket transport later
//! changes no types.

use std::sync::Arc;

use crate::api::{Request, Response};
use crate::store::Store;

/// A client handle on a shared [`Store`]. Cheap to clone per thread.
#[derive(Clone)]
pub struct LoopbackClient {
    store: Arc<Store>,
}

impl LoopbackClient {
    /// A client for `store`.
    pub fn new(store: Arc<Store>) -> LoopbackClient {
        LoopbackClient { store }
    }

    /// The shared store (for tests that want to bypass the wire).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Sends a batch through the wire boundary and returns the decoded
    /// responses, positionally matched to the requests.
    pub fn send(&self, batch: &[Request]) -> Vec<Response> {
        let wire = self.send_encoded(&encode(batch));
        decode(&wire)
    }

    /// Sends one request.
    pub fn send_one(&self, req: &Request) -> Response {
        self.send(std::slice::from_ref(req))
            .pop()
            // emr-lint: allow(A1, "handle_batch answers every request positionally, so a one-request batch always yields one response")
            .unwrap_or_else(|| panic!("loopback dropped a response"))
    }

    /// The raw wire entry point: a JSON-encoded `Vec<Request>` in, a
    /// JSON-encoded `Vec<Response>` out.
    pub fn send_encoded(&self, request_json: &str) -> String {
        let batch: Vec<Request> = match serde_json::from_str(request_json) {
            Ok(batch) => batch,
            // emr-lint: allow(A1, "corrupt bytes at the in-process loopback are a programmer error; a socket transport would answer ServeError instead")
            Err(e) => panic!("malformed request batch on the wire: {e:?}"),
        };
        let responses = self.store.handle_batch(&batch);
        serde_json::to_string(&responses)
            // emr-lint: allow(A1, "every Response variant derives Serialize; failure here means the wire types themselves are broken")
            .unwrap_or_else(|e| panic!("unserializable response batch: {e:?}"))
    }
}

/// Encodes a request batch exactly as [`LoopbackClient::send`] does.
pub fn encode(batch: &[Request]) -> String {
    serde_json::to_string(batch)
        // emr-lint: allow(A1, "every Request variant derives Serialize; failure here means the wire types themselves are broken")
        .unwrap_or_else(|e| panic!("unserializable request batch: {e:?}"))
}

/// Decodes a response batch from wire bytes.
pub fn decode(wire: &str) -> Vec<Response> {
    match serde_json::from_str(wire) {
        Ok(responses) => responses,
        // emr-lint: allow(A1, "corrupt bytes at the in-process loopback are a programmer error; a socket transport would answer ServeError instead")
        Err(e) => panic!("malformed response batch on the wire: {e:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{RegisterMesh, Request, Response, RouteQuery, ServeError};
    use crate::store::StoreConfig;
    use emr_core::Model;
    use emr_mesh::Coord;

    #[test]
    fn round_trips_through_json() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let client = LoopbackClient::new(store);
        let responses = client.send(&[
            Request::Register(RegisterMesh {
                mesh: "m".to_string(),
                width: 8,
                height: 8,
                faults: vec![Coord::new(3, 3)],
            }),
            Request::Route(RouteQuery {
                mesh: "m".to_string(),
                at_epoch: None,
                model: Model::FaultBlock,
                s: Coord::new(0, 0),
                d: Coord::new(7, 7),
            }),
            Request::Route(RouteQuery {
                mesh: "missing".to_string(),
                at_epoch: None,
                model: Model::FaultBlock,
                s: Coord::new(0, 0),
                d: Coord::new(7, 7),
            }),
        ]);
        assert_eq!(responses.len(), 3);
        assert!(matches!(responses[0], Response::Registered(_)));
        assert!(matches!(responses[1], Response::Routed(_)));
        assert!(matches!(
            responses[2],
            Response::Error(ServeError::UnknownMesh(_))
        ));
    }
}
