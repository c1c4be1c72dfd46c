//! Cross-crate property tests: invariants that must hold when the pieces
//! compose (gate × entropy × data × models).

use proptest::prelude::*;
use teamnet_core::{assignment_shares, entropy_matrix, weighted_argmin, DynamicGate, GateConfig};
use teamnet_tensor::Tensor;

fn probability_rows(n: usize, classes: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(0.01f32..1.0, n * classes).prop_map(move |raw| {
        let mut t = Tensor::from_vec(raw, [n, classes]).expect("volume");
        for r in 0..n {
            let row = t.row_mut(r);
            let sum: f32 = row.iter().sum();
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The gate always returns a complete, in-range partition of the batch
    /// whose shares sum to one, no matter what entropy landscape the
    /// experts produce.
    #[test]
    fn gate_assignment_is_a_partition(
        n in 8usize..48,
        k in 2usize..5,
        seed in 0u64..500,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let entropy = Tensor::rand_uniform([n, k], 0.01, 2.3, &mut rng);
        let mut gate = DynamicGate::new(k, GateConfig::default(), seed);
        let decision = gate.assign(&entropy);

        prop_assert_eq!(decision.assignment.len(), n);
        prop_assert!(decision.assignment.iter().all(|&a| a < k));
        let share_sum: f32 = decision.gamma_bar.iter().sum();
        prop_assert!((share_sum - 1.0).abs() < 1e-4);
        prop_assert!(decision.delta.iter().all(|&d| d > 0.0 && d.is_finite()));
        // The returned assignment is consistent with the returned δ.
        let recomputed = weighted_argmin(&entropy, &decision.delta);
        prop_assert_eq!(recomputed, decision.assignment.clone());
        let shares = assignment_shares(&decision.assignment, k);
        prop_assert_eq!(shares, decision.gamma_bar.clone());
    }

    /// Entropy matrices built from arbitrary expert probability outputs
    /// are finite, non-negative, and bounded by ln(classes).
    #[test]
    fn entropy_matrix_is_well_formed(
        n in 1usize..20,
        classes in 2usize..11,
        k in 1usize..5,
        seed in 0u64..100,
    ) {
        use proptest::strategy::ValueTree;
        let _ = seed;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let probs: Vec<Tensor> = (0..k)
            .map(|_| {
                probability_rows(n, classes)
                    .new_tree(&mut runner)
                    .expect("tree")
                    .current()
            })
            .collect();
        let h = match entropy_matrix(&probs) {
            Ok(h) => h,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(e.to_string())),
        };
        prop_assert_eq!(h.dims(), &[n, k]);
        prop_assert!(h.all_finite());
        prop_assert!(h.min() >= 0.0);
        prop_assert!(h.max() <= (classes as f32).ln() + 1e-4);
    }

    /// Handicapping one expert with a larger δ can only reduce the number
    /// of inputs it wins (monotonicity of the weighted arg-min gate).
    #[test]
    fn handicap_is_monotone(
        n in 4usize..40,
        seed in 0u64..500,
        factor in 1.1f32..20.0,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let entropy = Tensor::rand_uniform([n, 3], 0.05, 2.0, &mut rng);
        let base = weighted_argmin(&entropy, &[1.0, 1.0, 1.0]);
        let handicapped = weighted_argmin(&entropy, &[factor, 1.0, 1.0]);
        let wins_before = base.iter().filter(|&&a| a == 0).count();
        let wins_after = handicapped.iter().filter(|&&a| a == 0).count();
        prop_assert!(wins_after <= wins_before);
        // Rows that expert 0 lost stay lost.
        for (b, h) in base.iter().zip(&handicapped) {
            if *b != 0 {
                prop_assert_ne!(*h, 0);
            }
        }
    }
}

#[test]
fn wire_codec_roundtrips_model_state() {
    use teamnet_core::recover::{state_from_bytes, state_to_bytes};
    use teamnet_nn::{load_state, state_vec, Layer, Mode, ModelSpec};

    let spec = ModelSpec::mlp(3, 16);
    let mut trained = spec.build(11);
    let state = state_vec(&mut trained);
    let bytes = state_to_bytes(&state);
    assert_eq!(bytes.len() % 4, 0);
    let back = state_from_bytes(&bytes).unwrap();
    assert_eq!(back, state);

    // Loading the decoded state reproduces the source model exactly.
    let mut fresh = spec.build(0);
    load_state(&mut fresh, &back);
    let x = Tensor::ones([2, 784]);
    assert_eq!(
        fresh.forward(&x, Mode::Eval),
        trained.forward(&x, Mode::Eval)
    );
}

#[test]
fn wire_codec_rejects_damage() {
    use teamnet_core::recover::{state_from_bytes, state_to_bytes};
    use teamnet_nn::{state_vec, ModelSpec};

    let mut model = ModelSpec::mlp(2, 8).build(3);
    let state = state_vec(&mut model);
    let bytes = state_to_bytes(&state);
    // Truncation anywhere fails.
    assert!(state_from_bytes(&bytes[..bytes.len() - 1]).is_err());
    assert!(state_from_bytes(&bytes[..3]).is_err());
    // Trailing garbage fails.
    let mut long = bytes.clone();
    long.extend_from_slice(&[0; 4]);
    assert!(state_from_bytes(&long).is_err());
    // An implausible rank fails without allocating.
    let mut bad_rank = bytes.clone();
    bad_rank[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(state_from_bytes(&bad_rank).is_err());
    // Empty state roundtrips.
    assert_eq!(state_from_bytes(&state_to_bytes(&[])).unwrap(), vec![]);
}

#[test]
fn migrated_state_is_a_count_then_wire_codec_tensors() {
    use teamnet_core::recover::{state_from_bytes, state_to_bytes};
    use teamnet_net::codec::encode_f32s;

    let state = vec![
        Tensor::from_vec(vec![1.0, -2.0, 3.5, 0.0, 7.0, 8.0], vec![2, 3]).unwrap(),
        Tensor::from_vec(vec![4.25], Vec::<usize>::new()).unwrap(),
    ];
    let mut want = 2u32.to_le_bytes().to_vec();
    for t in &state {
        want.extend_from_slice(&encode_f32s(t.dims(), t.data()));
    }
    assert_eq!(state_to_bytes(&state), want);
    assert_eq!(state_from_bytes(&want).unwrap(), state);
}

/// Models serialized through the workspace wire format survive a full
/// encode/decode round trip with their predictions intact.
#[test]
fn model_state_roundtrips_through_wire_codec() {
    use teamnet_core::build_expert;
    use teamnet_net::codec::{decode_f32s, encode_f32s};
    use teamnet_nn::{load_state, state_vec, Layer, Mode, ModelSpec};

    let spec = ModelSpec::mlp(3, 24);
    let mut original = build_expert(&spec, 9);
    let state = state_vec(&mut original);

    // Encode every tensor as wire bytes and decode back.
    let decoded: Vec<Tensor> = state
        .iter()
        .map(|t| {
            let bytes = encode_f32s(t.dims(), t.data());
            let (dims, data) = decode_f32s(&bytes).expect("decode");
            Tensor::from_vec(data, dims).expect("rebuild")
        })
        .collect();

    let mut restored = build_expert(&spec, 1234);
    load_state(&mut restored, &decoded);
    let x = Tensor::rand_uniform(
        [3, 1, 28, 28],
        0.0,
        1.0,
        &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5),
    );
    let a = original.forward(&x, Mode::Eval);
    let b = restored.forward(&x, Mode::Eval);
    assert_eq!(a, b);
}
