//! Property-based tests of the search-space DSL: unit-cube round trips,
//! sampling bounds, and perturbation closure over randomly generated spaces.

use asha_space::{ParamSpec, ParamValue, Scale, SearchSpace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy for one random-but-valid parameter spec.
fn spec_strategy() -> impl Strategy<Value = ParamSpec> {
    prop_oneof![
        // Continuous linear: ordered finite bounds.
        (-1e3f64..1e3, 1e-6f64..1e3).prop_map(|(low, width)| ParamSpec::Continuous {
            low,
            high: low + width,
            scale: Scale::Linear,
        }),
        // Continuous log: positive ordered bounds.
        (1e-6f64..1e3, 1.0001f64..1e4).prop_map(|(low, ratio)| ParamSpec::Continuous {
            low,
            high: low * ratio,
            scale: Scale::Log,
        }),
        // Discrete range.
        (-1000i64..1000, 0i64..500).prop_map(|(low, width)| ParamSpec::Discrete {
            low,
            high: low + width,
        }),
        // Ordinal choices.
        prop::collection::vec(-1e3f64..1e3, 1..8).prop_map(|values| ParamSpec::Ordinal { values }),
        // Categorical labels.
        (1usize..6).prop_map(|n| ParamSpec::Categorical {
            labels: (0..n).map(|i| format!("c{i}")).collect(),
        }),
    ]
}

fn space_strategy() -> impl Strategy<Value = SearchSpace> {
    prop::collection::vec(spec_strategy(), 1..8).prop_map(|specs| {
        let mut b = SearchSpace::builder();
        for (i, spec) in specs.into_iter().enumerate() {
            let name = format!("p{i}");
            b = match spec {
                ParamSpec::Continuous { low, high, scale } => b.continuous(&name, low, high, scale),
                ParamSpec::Discrete { low, high } => b.discrete(&name, low, high),
                ParamSpec::Ordinal { values } => b.ordinal(&name, &values),
                ParamSpec::Categorical { labels } => {
                    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                    b.categorical(&name, &refs)
                }
            };
        }
        b.build().expect("generated specs are valid")
    })
}

/// A value's exact bits, so float comparisons are on representation, not
/// on `==`.
fn bits(v: &ParamValue) -> (u8, u64) {
    match v {
        ParamValue::Float(x) => (0, x.to_bits()),
        ParamValue::Int(x) => (1, *x as u64),
        ParamValue::Index(x) => (2, *x as u64),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // `SearchSpace` reads the logarithms of log-scale bounds from a cache;
    // `ParamSpec` takes them on every call and is the reference.
    #[test]
    fn space_methods_equal_the_per_parameter_methods_bit_for_bit(
        space in space_strategy(),
        seed in any::<u64>(),
        // Out-of-range coordinates clamp; a short vector defaults to 0.5.
        unit in prop::collection::vec(-0.5f64..1.5, 0..8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut twin = rng.clone();
        for _ in 0..4 {
            let config = space.sample(&mut rng);
            let u = space.to_unit(&config).expect("own config embeds");
            for (i, (_, spec)) in space.iter().enumerate() {
                let reference = spec.sample(&mut twin);
                prop_assert_eq!(bits(&config.values()[i]), bits(&reference), "sample, param {}", i);
                prop_assert_eq!(u[i].to_bits(), spec.to_unit(&reference).to_bits(), "to_unit, param {}", i);
            }
        }
        let config = space.from_unit(&unit);
        prop_assert_eq!(config.len(), space.len());
        for (i, (_, spec)) in space.iter().enumerate() {
            let reference = spec.from_unit(unit.get(i).copied().unwrap_or(0.5));
            prop_assert_eq!(bits(&config.values()[i]), bits(&reference), "from_unit, param {}", i);
        }
    }

    #[test]
    fn sampled_configs_embed_into_the_unit_cube(space in space_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = space.sample(&mut rng);
        let unit = space.to_unit(&config).expect("own config embeds");
        prop_assert_eq!(unit.len(), space.len());
        prop_assert!(unit.iter().all(|&u| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn finite_values_round_trip_exactly(space in space_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = space.sample(&mut rng);
        let unit = space.to_unit(&config).expect("own config embeds");
        let back = space.from_unit(&unit);
        for (i, (orig, rt)) in config.values().iter().zip(back.values()).enumerate() {
            match (orig, rt) {
                (ParamValue::Float(a), ParamValue::Float(b)) => {
                    // Continuous coordinates round-trip to tight relative
                    // precision (log scale multiplies rounding error).
                    prop_assert!(
                        (a - b).abs() <= 1e-6 * (1.0 + a.abs() + b.abs()),
                        "param {i}: {a} vs {b}"
                    );
                }
                (a, b) => prop_assert_eq!(a, b, "param {}", i),
            }
        }
    }

    #[test]
    fn perturbation_stays_within_the_space(space in space_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = space.sample(&mut rng);
        for _ in 0..5 {
            let perturbed = space.perturb(&config, 1.2, &[], &mut rng).expect("valid arity");
            let unit = space.to_unit(&perturbed).expect("perturbed stays valid");
            prop_assert!(unit.iter().all(|&u| (0.0..=1.0).contains(&u)));
        }
    }

    #[test]
    fn display_mentions_every_parameter(space in space_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = space.sample(&mut rng);
        let text = space.display(&config).expect("valid arity");
        for (name, _) in space.iter() {
            prop_assert!(text.contains(name));
        }
    }

    #[test]
    fn default_config_is_valid_and_central(space in space_strategy()) {
        let config = space.default_config();
        let unit = space.to_unit(&config).expect("default embeds");
        // Central-ish: no coordinate at the extreme ends for continuous
        // params (finite domains map to bin centers anyway).
        prop_assert!(unit.iter().all(|&u| u > 0.0 && u < 1.0));
    }
}
