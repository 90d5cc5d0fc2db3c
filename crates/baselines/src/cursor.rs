//! The observation book the model-based samplers ([`crate::TpeSampler`],
//! [`crate::GpSampler`]) keep, and its exact-roundtrip serialization — the
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
//! rejected wholesale rather than partially applied, and so is a cursor
//! holding a row [`Book::record`] never writes.

use std::collections::BTreeMap;

use asha_space::{Config, SearchSpace};

/// Per-rung observations: unit-space points and losses, in arrival order.
pub(crate) type ByRung = BTreeMap<usize, Vec<(Vec<f64>, f64)>>;

/// What a model-based sampler has seen: every recorded configuration as a
/// unit-space point with its loss, per rung, in arrival order. Losses from
/// different rungs are never mixed — a rung-0 loss and a rung-3 loss of the
/// same configuration are different quantities.
#[derive(Debug, Clone)]
pub(crate) struct Book {
    space: SearchSpace,
    by_rung: ByRung,
    /// Records a rung needs before it is modelled.
    need: usize,
}

impl Book {
    /// An empty book over `space`. A rung is modelled from `min_points`
    /// records, `d + 3` when that is zero (BOHB's default), and never from
    /// fewer than `floor`.
    pub(crate) fn new(space: SearchSpace, min_points: usize, floor: usize) -> Self {
        let need = match min_points {
            0 => (space.len() + 3).max(floor),
            n => n.max(floor),
        };
        Book {
            space,
            by_rung: ByRung::new(),
            need,
        }
    }

    /// Record `loss` (NaN as `+inf`) of `config` at `rung` and return its
    /// unit point. A config from a foreign space cannot be embedded: it is
    /// dropped rather than corrupting the model, and `None` is returned.
    pub(crate) fn record(&mut self, config: &Config, rung: usize, loss: f64) -> Option<&[f64]> {
        let u = self.space.to_unit(config).ok()?;
        let rows = self.by_rung.entry(rung).or_default();
        rows.push((u, if loss.is_nan() { f64::INFINITY } else { loss }));
        rows.last().map(|(u, _)| u.as_slice())
    }

    /// The records at `rung`, oldest first.
    pub(crate) fn rung(&self, rung: usize) -> &[(Vec<f64>, f64)] {
        self.by_rung.get(&rung).map_or(&[], Vec::as_slice)
    }

    /// The highest rung with enough records to model, if any.
    pub(crate) fn model_rung(&self) -> Option<usize> {
        self.by_rung
            .iter()
            .rev()
            .find(|(_, rows)| rows.len() >= self.need)
            .map(|(&rung, _)| rung)
    }

    /// The book as a cursor under the sampler's version `header`.
    pub(crate) fn export(&self, header: &str) -> String {
        encode_by_rung(header, &self.by_rung)
    }

    /// Replace the records with a cursor's, or, if it is not one
    /// [`Book::export`] could have written under `header` for this space,
    /// leave them as they are: a sampler is never half restored.
    pub(crate) fn restore(&mut self, header: &str, cursor: &str) {
        if let Some(by_rung) = decode_by_rung(header, cursor, self.space.len()) {
            self.by_rung = by_rung;
        }
    }
}

/// Encode `by_rung` under the given version header (e.g. `"tpe-v1"`).
pub(crate) fn encode_by_rung(header: &str, by_rung: &ByRung) -> String {
    let mut out = String::from(header);
    for (&rung, obs) in by_rung {
        out.push_str(&format!(";{rung}="));
        for (i, (u, loss)) in obs.iter().enumerate() {
            let bits: Vec<String> = u.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
            let sep = if i > 0 { "|" } else { "" };
            out.push_str(&format!("{sep}{:016x}:{}", loss.to_bits(), bits.join(",")));
        }
    }
    out
}

/// Decode a cursor [`encode_by_rung`] wrote under `header` for a
/// `width`-dimensional space. `None` on a header mismatch, any malformed
/// element, or anything [`Book::record`] never writes: a rung twice, a NaN
/// loss, or a point that is not in the unit cube as
/// [`SearchSpace::to_unit`] embeds it — exactly `width` coordinates, each in
/// `[0, 1]` (NaN is not). Such a row came from another space or a corrupted
/// cursor: a short one would index out of bounds at the next modelled
/// proposal, and a NaN loss has no place in TPE's good/bad order.
pub(crate) fn decode_by_rung(header: &str, cursor: &str, width: usize) -> Option<ByRung> {
    let mut parts = cursor.split(';');
    if parts.next()? != header {
        return None;
    }
    let mut by_rung = ByRung::new();
    for part in parts {
        let (rung, body) = part.split_once('=')?;
        let rung: usize = rung.parse().ok()?;
        let mut obs = Vec::new();
        for entry in body.split('|').filter(|_| !body.is_empty()) {
            let (loss, xs) = entry.split_once(':')?;
            let loss = f64::from_bits(u64::from_str_radix(loss, 16).ok()?);
            let u = xs
                .split(',')
                .map(|x| u64::from_str_radix(x, 16).ok().map(f64::from_bits))
                .collect::<Option<Vec<f64>>>()?;
            let in_cube = u.len() == width && u.iter().all(|x| (0.0..=1.0).contains(x));
            if loss.is_nan() || !in_cube {
                return None;
            }
            obs.push((u, loss));
        }
        if by_rung.insert(rung, obs).is_some() {
            return None;
        }
    }
    Some(by_rung)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_exactly() {
        let mut by_rung = ByRung::new();
        by_rung.insert(0, vec![(vec![0.25, 0.75], 0.5), (vec![0.1, 0.9], 1e-300)]);
        by_rung.insert(
            3,
            vec![(vec![-0.0, 1.0], f64::INFINITY), (vec![0.0; 2], -0.0)],
        );
        let s = encode_by_rung("tpe-v1", &by_rung);
        let back = decode_by_rung("tpe-v1", &s, 2).unwrap();
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
        assert_eq!(decode_by_rung("gp-v1", "gp-v1", 7), Some(ByRung::new()));
    }

    #[test]
    fn wrong_header_and_garbage_are_rejected() {
        assert_eq!(decode_by_rung("tpe-v1", "gp-v1", 1), None);
        assert_eq!(decode_by_rung("tpe-v1", "tpe-v1;nonsense", 1), None);
        assert_eq!(decode_by_rung("tpe-v1", "tpe-v1;0=zz:aa", 1), None);
        assert_eq!(decode_by_rung("tpe-v1", "", 1), None);
        let row = "3ff0000000000000:3fe0000000000000";
        let twice = |a, b| decode_by_rung("tpe-v1", &format!("tpe-v1;{a}={row};{b}={row}"), 1);
        assert!(twice(0, 1).is_some());
        assert_eq!(twice(0, 0), None, "a rung written twice");
    }

    #[test]
    fn rows_the_book_never_writes_are_refused() {
        let mut by_rung = ByRung::new();
        by_rung.insert(
            0,
            vec![(vec![0.0, 1.0], 0.5), (vec![-0.0, 0.25], f64::INFINITY)],
        );
        by_rung.insert(2, Vec::new());
        let decode = |by_rung: &ByRung, width| {
            decode_by_rung("gp-v1", &encode_by_rung("gp-v1", by_rung), width)
        };
        assert!(decode(&by_rung, 2).is_some());
        assert_eq!(decode(&by_rung, 1), None);
        assert_eq!(decode(&by_rung, 3), None);
        for bad in [f64::NAN, 1.5, -1e-300, f64::INFINITY] {
            let mut by_rung = by_rung.clone();
            by_rung.insert(1, vec![(vec![0.5, bad], 0.1)]);
            assert_eq!(decode(&by_rung, 2), None, "coordinate {bad} accepted");
        }
        let mut nan_loss = by_rung.clone();
        nan_loss.insert(1, vec![(vec![0.5, 0.5], f64::NAN)]);
        assert_eq!(decode(&nan_loss, 2), None, "a NaN loss accepted");
    }
}
