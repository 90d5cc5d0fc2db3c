//! Exact-roundtrip serialization of per-rung observation buffers — the
//! sampler *cursor* that [`asha_core::ConfigSampler::export_cursor`] hands
//! to durable snapshots.
//!
//! The format is a single line of ASCII:
//!
//! ```text
//! <header>;<rung>=<obs>|<obs>|...;<rung>=...
//! obs := <loss_bits_hex>:<x_bits_hex>,<x_bits_hex>,...
//! ```
//!
//! Every `f64` is written as the hex of its IEEE-754 bit pattern, so restore
//! is bit-exact (including negative zeros and infinities) and a restored
//! sampler proposes byte-identical configurations — the property the
//! kill-and-recover tests assert. Decoding is atomic: a malformed cursor is
//! rejected wholesale rather than partially applied, and a sampler also
//! refuses, whole, a cursor whose rows do not fit its space ([`rows_fit`]).

use std::collections::BTreeMap;

/// Per-rung observations: unit-space points and losses, in arrival order.
pub(crate) type ByRung = BTreeMap<usize, Vec<(Vec<f64>, f64)>>;

/// Encode `by_rung` under the given version header (e.g. `"tpe-v1"`).
pub(crate) fn encode_by_rung(header: &str, by_rung: &ByRung) -> String {
    let mut out = String::from(header);
    for (&rung, obs) in by_rung {
        out.push(';');
        out.push_str(&format!("{rung}="));
        for (i, (u, loss)) in obs.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            out.push_str(&format!("{:016x}:", loss.to_bits()));
            for (d, x) in u.iter().enumerate() {
                if d > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{:016x}", x.to_bits()));
            }
        }
    }
    out
}

/// Decode a cursor produced by [`encode_by_rung`] with the same header.
/// Returns `None` on a header mismatch or any malformed element.
pub(crate) fn decode_by_rung(header: &str, cursor: &str) -> Option<ByRung> {
    let mut parts = cursor.split(';');
    if parts.next()? != header {
        return None;
    }
    let mut by_rung = ByRung::new();
    for part in parts {
        let (rung, body) = part.split_once('=')?;
        let rung: usize = rung.parse().ok()?;
        let mut obs = Vec::new();
        if !body.is_empty() {
            for entry in body.split('|') {
                let (loss, xs) = entry.split_once(':')?;
                let loss = f64::from_bits(u64::from_str_radix(loss, 16).ok()?);
                let u = xs
                    .split(',')
                    .map(|x| u64::from_str_radix(x, 16).ok().map(f64::from_bits))
                    .collect::<Option<Vec<f64>>>()?;
                obs.push((u, loss));
            }
        }
        by_rung.insert(rung, obs);
    }
    Some(by_rung)
}

/// Whether every row of `by_rung` is a point of the `width`-dimensional
/// unit cube, as [`asha_space::SearchSpace::to_unit`] records it: exactly
/// `width` coordinates, each in `[0, 1]` (NaN is not). A row that is not
/// came from another space or a corrupted cursor, and a short one would
/// index out of bounds at the next modelled proposal.
pub(crate) fn rows_fit(by_rung: &ByRung, width: usize) -> bool {
    by_rung
        .values()
        .flatten()
        .all(|(u, _)| u.len() == width && u.iter().all(|x| (0.0..=1.0).contains(x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_exactly() {
        let mut by_rung = ByRung::new();
        by_rung.insert(0, vec![(vec![0.25, 0.75], 0.5), (vec![0.1, 0.9], 1e-300)]);
        by_rung.insert(3, vec![(vec![-0.0, f64::INFINITY], f64::INFINITY)]);
        let s = encode_by_rung("tpe-v1", &by_rung);
        let back = decode_by_rung("tpe-v1", &s).unwrap();
        assert_eq!(by_rung.len(), back.len());
        for (rung, obs) in &by_rung {
            let other = &back[rung];
            assert_eq!(obs.len(), other.len());
            for ((u, l), (u2, l2)) in obs.iter().zip(other) {
                assert_eq!(l.to_bits(), l2.to_bits());
                assert_eq!(u.len(), u2.len());
                for (a, b) in u.iter().zip(u2) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_map_is_just_the_header() {
        let by_rung = ByRung::new();
        assert_eq!(encode_by_rung("gp-v1", &by_rung), "gp-v1");
        assert_eq!(decode_by_rung("gp-v1", "gp-v1"), Some(ByRung::new()));
    }

    #[test]
    fn wrong_header_and_garbage_are_rejected() {
        assert_eq!(decode_by_rung("tpe-v1", "gp-v1"), None);
        assert_eq!(decode_by_rung("tpe-v1", "tpe-v1;nonsense"), None);
        assert_eq!(decode_by_rung("tpe-v1", "tpe-v1;0=zz:aa"), None);
        assert_eq!(decode_by_rung("tpe-v1", ""), None);
    }

    #[test]
    fn rows_must_fit_the_space() {
        let mut by_rung = ByRung::new();
        by_rung.insert(
            0,
            vec![(vec![0.0, 1.0], 0.5), (vec![-0.0, 0.25], f64::INFINITY)],
        );
        by_rung.insert(2, Vec::new());
        assert!(rows_fit(&by_rung, 2));
        assert!(!rows_fit(&by_rung, 1));
        assert!(!rows_fit(&by_rung, 3));
        assert!(rows_fit(&ByRung::new(), 7));
        for bad in [f64::NAN, 1.5, -1e-300, f64::INFINITY] {
            let mut by_rung = by_rung.clone();
            by_rung.insert(1, vec![(vec![0.5, bad], 0.1)]);
            assert!(!rows_fit(&by_rung, 2), "coordinate {bad} accepted");
        }
    }
}
