//! Determinism regression for the load generator: the whole report —
//! the response checksum and every counter — must be bit-identical
//! across worker thread counts and across shard counts.

use emr_serve::loadgen::{run, LoadConfig};

fn small(threads: usize, shards: usize, verify: bool) -> LoadConfig {
    LoadConfig {
        mesh: 12,
        tenants: 3,
        clients: 24,
        epochs: 3,
        queries_per_client: 12,
        warm_per_epoch: 3,
        shards,
        retain: 4,
        threads,
        verify,
        ..LoadConfig::default()
    }
}

#[test]
fn thread_count_is_unobservable() {
    let base = run(&small(1, 4, true));
    assert_eq!(base.errors, 0, "well-formed run produced error responses");
    assert_eq!(
        base.verify_failures, 0,
        "served answers diverged from direct replay"
    );
    assert!(base.queries > 0 && base.routed > 0 && base.safety > 0 && base.reached > 0);
    for threads in [2, 8] {
        let other = run(&small(threads, 4, true));
        assert_eq!(base, other, "report drifted at {threads} threads");
    }
}

#[test]
fn shard_count_is_unobservable() {
    let base = run(&small(2, 1, false));
    for shards in [3, 9] {
        let other = run(&small(2, shards, false));
        assert_eq!(base, other, "report drifted at {shards} shards");
    }
}

#[test]
fn verification_does_not_change_the_checksum() {
    let plain = run(&small(1, 2, false));
    let verified = run(&small(1, 2, true));
    assert_eq!(plain.checksum, verified.checksum);
    assert_eq!(plain.queries, verified.queries);
    assert_eq!(verified.verify_failures, 0);
}
