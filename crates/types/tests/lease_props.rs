//! Seeded model test for `LeaseSet`: random grant and revoke sequences,
//! checked step by step against a `BTreeMap` that plays the reference.
//!
//! Ids are drawn from a range wider than the 256 holders the shipped
//! workloads put on one object, in no particular order, so grants land
//! at the front, in the middle and past the end of the sorted arrays.
//! A second test replays a write's traffic — revokes from the front in
//! ascending order, regrants above the last holder — so the ring
//! buffers wrap. Every run explores the identical cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use vl_types::{ClientId, LeaseSet, Timestamp};

/// After any op sequence the set answers exactly as the model does:
/// what `grant` and `revoke` return, `expiry_of`, validity on both sides
/// of each expiry, and the entries in ascending id order.
#[test]
fn invariants_hold() {
    let mut rng = StdRng::seed_from_u64(0x1ea5e);
    for case in 0..64 {
        let mut set = LeaseSet::new();
        let mut model: BTreeMap<ClientId, Timestamp> = BTreeMap::new();
        // Half the cases grow past 256 holders; half churn a few ids.
        let ids = if case % 2 == 0 { 1_024 } else { 16 };
        for step in 0..1_200 {
            let c = ClientId(rng.gen_range(0u32..ids));
            // Grants outnumber revokes, so the set grows.
            if rng.gen_range(0u32..4) == 0 {
                assert_eq!(set.revoke(c), model.remove(&c), "case {case} step {step}");
            } else {
                let e = Timestamp::from_millis(rng.gen_range(1u64..10_000));
                assert_eq!(
                    set.grant(c, e),
                    model.insert(c, e),
                    "case {case} step {step}"
                );
            }
            let probe = ClientId(rng.gen_range(0u32..ids));
            let want = model.get(&probe).copied();
            assert_eq!(set.expiry_of(probe), want, "case {case} step {step}");
            if let Some(e) = want {
                let before = Timestamp::from_millis(e.as_millis() - 1);
                assert!(set.is_valid_for(probe, before), "case {case} step {step}");
                assert!(!set.is_valid_for(probe, e), "case {case} step {step}");
            } else {
                assert!(!set.is_valid_for(probe, Timestamp::ZERO), "case {case}");
            }
        }
        let entries: Vec<_> = set.iter().collect();
        let reference: Vec<_> = model.into_iter().collect();
        assert_eq!(entries, reference, "case {case}");
        if case % 2 == 0 {
            assert!(
                entries.len() > 256,
                "case {case}: {} holders",
                entries.len()
            );
        }
    }
}

/// Checks every read the set answers against the model: `expiry_of`
/// and validity on both sides of the expiry for `probe`, and the
/// entries in ascending id order.
fn agrees(set: &LeaseSet, model: &BTreeMap<ClientId, Timestamp>, probe: ClientId, at: &str) {
    let want = model.get(&probe).copied();
    assert_eq!(set.expiry_of(probe), want, "{at}");
    match want {
        Some(e) => {
            let before = Timestamp::from_millis(e.as_millis() - 1);
            assert!(set.is_valid_for(probe, before), "{at}");
            assert!(!set.is_valid_for(probe, e), "{at}");
        }
        None => assert!(!set.is_valid_for(probe, Timestamp::ZERO), "{at}"),
    }
    let entries: Vec<_> = set.iter().collect();
    let reference: Vec<_> = model.iter().map(|(&c, &e)| (c, e)).collect();
    assert_eq!(entries, reference, "{at}");
}

/// Rounds of a write's fan-out: the lowest holders revoked in ascending
/// order (the order acks arrive in), fresh ids granted above the
/// highest, and now and then a grant or revoke in the middle. Ids only
/// climb, so the live window slides through the buffers and wraps them
/// many times over.
#[test]
fn the_ring_wraps_under_front_revokes_and_back_grants() {
    let mut rng = StdRng::seed_from_u64(0x5115);
    for case in 0..16 {
        let mut set = LeaseSet::new();
        let mut model: BTreeMap<ClientId, Timestamp> = BTreeMap::new();
        let mut next = 0u32;
        let expiry = |rng: &mut StdRng| Timestamp::from_millis(rng.gen_range(1u64..10_000));
        // Cases differ in how many holders the window keeps.
        let window = 8 + 31 * case;
        for step in 0..600 {
            let at = format!("case {case} step {step}");
            while model.len() < window as usize {
                let (c, e) = (ClientId(next), expiry(&mut rng));
                next += 1;
                assert_eq!(set.grant(c, e), model.insert(c, e), "{at}");
            }
            let ids: Vec<ClientId> = model.keys().copied().collect();
            match rng.gen_range(0u32..8) {
                // A run of acks takes the front entries in order.
                0..=4 => {
                    for &c in ids.iter().take(rng.gen_range(1..=ids.len().min(6))) {
                        assert_eq!(set.revoke(c), model.remove(&c), "{at}");
                    }
                }
                // A renewal or a fresh id inside the window.
                5 => {
                    let lo = ids[0].0;
                    let c = ClientId(rng.gen_range(lo..next));
                    let e = expiry(&mut rng);
                    assert_eq!(set.grant(c, e), model.insert(c, e), "{at}");
                }
                // A revoke from the middle, held or not.
                6 => {
                    let c = ClientId(rng.gen_range(ids[0].0..next));
                    assert_eq!(set.revoke(c), model.remove(&c), "{at}");
                }
                // A revoke of an id that never held or is long gone.
                _ => {
                    let c = ClientId(next + rng.gen_range(0u32..4));
                    assert_eq!(set.revoke(c), None, "{at}");
                }
            }
            let probe = ClientId(rng.gen_range(ids[0].0..next + 2));
            agrees(&set, &model, probe, &at);
        }
        assert!(next > 4 * window, "case {case}: only {next} ids granted");
    }
}
