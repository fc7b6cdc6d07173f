//! Seeded model test for `LeaseSet`: random grant and revoke sequences,
//! checked step by step against a `BTreeMap` that plays the reference.
//!
//! Ids are drawn from a range wider than the 256 holders the shipped
//! workloads put on one object, in no particular order, so grants land
//! at the front, in the middle and past the end of the sorted arrays.
//! Every run explores the identical cases.

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
