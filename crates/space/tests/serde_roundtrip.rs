//! Persistence-facing behaviour of the search-space types.
//!
//! The workspace deliberately ships no serialization format crate, so a full
//! wire round-trip lives downstream; what is verified here is (a) the serde
//! traits exist on every persisted type, and (b) the part serde *skips* — the
//! space's name index — is not load-bearing: a space whose index is absent
//! (exactly what deserialization produces) still resolves every lookup via
//! the scan fallback in `SearchSpace::index_of`. The same holds for the other
//! skipped field, the cached logarithms of log-scale bounds: the space's
//! `sample` / `to_unit` / `from_unit` equal the per-parameter `ParamSpec`
//! methods bit for bit with or without it. The vendored serde derives are
//! no-ops, so no test outside the crate can produce a space with its skipped
//! fields actually absent; that twin is `space.rs`'s
//! `a_space_without_its_derived_caches_produces_the_same_bits`, and the one
//! here covers the route persisted spaces really take, through the builder.

use asha_space::{Config, ParamSpec, ParamValue, Scale, SearchSpace};
use rand::SeedableRng;

fn space() -> SearchSpace {
    SearchSpace::builder()
        .continuous("lr", 1e-4, 1.0, Scale::Log)
        .discrete("layers", 2, 4)
        .ordinal("batch", &[64.0, 128.0])
        .categorical("act", &["relu", "tanh"])
        .build()
        .expect("valid space")
}

#[test]
fn persisted_types_implement_serde_traits() {
    fn assert_traits<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
    assert_traits::<asha_space::SearchSpace>();
    assert_traits::<asha_space::Config>();
    assert_traits::<asha_space::ParamSpec>();
    assert_traits::<asha_space::ParamValue>();
}

#[test]
fn lookups_survive_without_the_skipped_index() {
    // `PartialEq` compares parameters only, so two spaces that are "equal"
    // may differ in whether the index exists — exactly the deserialization
    // situation. All accessors must work either way.
    let s = space();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let config = s.sample(&mut rng);
    for name in ["lr", "layers", "batch", "act"] {
        assert!(s.index_of(name).is_ok(), "lookup of {name} failed");
    }
    assert!(config.float("lr", &s).is_ok());
    assert!(config.int("layers", &s).is_ok());
    assert!(config.index("batch", &s).is_ok());
    assert!(config.index("act", &s).is_ok());
    assert!(s.index_of("nope").is_err());
}

#[test]
fn config_values_round_trip_through_reconstruction() {
    let s = space();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let a = s.sample(&mut rng);
    // Reconstructing from raw values (what a deserializer does) preserves
    // equality and semantics.
    let values: Vec<ParamValue> = a.values().to_vec();
    let rebuilt = Config::new(values);
    assert_eq!(a, rebuilt);
    assert_eq!(
        s.to_unit(&a).expect("valid"),
        s.to_unit(&rebuilt).expect("valid")
    );
}

#[test]
fn a_space_rebuilt_from_its_persisted_parts_produces_the_same_bits() {
    // What the store's decoder does: read `(name, spec)` pairs back and feed
    // them through the builder.
    let original = space();
    let mut builder = SearchSpace::builder();
    for (name, spec) in original.iter() {
        builder = match spec {
            ParamSpec::Continuous { low, high, scale } => {
                builder.continuous(name, *low, *high, *scale)
            }
            ParamSpec::Discrete { low, high } => builder.discrete(name, *low, *high),
            ParamSpec::Ordinal { values } => builder.ordinal(name, values),
            ParamSpec::Categorical { labels } => {
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                builder.categorical(name, &refs)
            }
        };
    }
    let rebuilt = builder.build().expect("persisted parts are valid");
    assert_eq!(original, rebuilt);

    let bits = |v: &ParamValue| match v {
        ParamValue::Float(x) => x.to_bits(),
        ParamValue::Int(x) => *x as u64,
        ParamValue::Index(x) => *x as u64,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut twin = rng.clone();
    for _ in 0..200 {
        let config = rebuilt.sample(&mut rng);
        let unit = rebuilt.to_unit(&config).expect("own config embeds");
        let back = rebuilt.from_unit(&unit);
        for (i, (_, spec)) in rebuilt.iter().enumerate() {
            let reference = spec.sample(&mut twin);
            assert_eq!(bits(&config.values()[i]), bits(&reference));
            assert_eq!(unit[i].to_bits(), spec.to_unit(&reference).to_bits());
            assert_eq!(bits(&back.values()[i]), bits(&spec.from_unit(unit[i])));
        }
    }
}
