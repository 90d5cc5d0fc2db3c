#![allow(clippy::needless_range_loop, clippy::too_many_arguments)] // index loops mirror the math; the optimizer step takes its full parameter set

//! A dense multi-layer perceptron with manual backpropagation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the *activated* output `a`.
    fn grad_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
        }
    }
}

/// One dense layer: `out = act(W x + b)`.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    /// Row-major `out x in` weights.
    w: Vec<f64>,
    b: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, init_std: f64, rng: &mut StdRng) -> Self {
        let w = (0..inputs * outputs)
            .map(|_| init_std * box_muller(rng))
            .collect();
        Layer {
            w,
            b: vec![0.0; outputs],
            inputs,
            outputs,
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut out = self.b.clone();
        for (o, out_val) in out.iter_mut().enumerate() {
            let row = &self.w[o * self.inputs..(o + 1) * self.inputs];
            *out_val += row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>();
        }
        out
    }
}

fn box_muller(rng: &mut StdRng) -> f64 {
    let mut u1: f64 = rng.gen();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.gen();
    }
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A multi-layer perceptron classifier with softmax cross-entropy loss.
///
/// The network *is* its checkpoint: cloning it snapshots training state
/// (minus optimizer momentum, which lives in the [`crate::Trainer`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
    activation: Activation,
}

impl Mlp {
    /// Build an MLP `inputs -> hidden[0] -> ... -> classes` with Gaussian
    /// weight initialization of the given standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0`, `classes < 2`, or any hidden width is 0.
    pub fn new(
        inputs: usize,
        hidden: &[usize],
        classes: usize,
        activation: Activation,
        init_std: f64,
        seed: u64,
    ) -> Self {
        assert!(inputs > 0, "need at least one input feature");
        assert!(classes >= 2, "need at least two classes");
        assert!(
            hidden.iter().all(|&h| h > 0),
            "hidden widths must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = inputs;
        for &h in hidden {
            layers.push(Layer::new(prev, h, init_std, &mut rng));
            prev = h;
        }
        layers.push(Layer::new(prev, classes, init_std, &mut rng));
        Mlp { layers, activation }
    }

    /// Number of parameters (weights + biases).
    #[cfg(test)]
    pub(crate) fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Class logits for one example.
    pub(crate) fn logits(&self, x: &[f64]) -> Vec<f64> {
        let mut act = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(&act);
            if i + 1 < self.layers.len() {
                for v in &mut z {
                    *v = self.activation.apply(*v);
                }
            }
            act = z;
        }
        act
    }

    /// Predicted class for one example.
    pub(crate) fn predict(&self, x: &[f64]) -> usize {
        let logits = self.logits(x);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Cross-entropy loss of one example (natural log).
    pub(crate) fn loss_one(&self, x: &[f64], y: usize) -> f64 {
        let logits = self.logits(x);
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let log_z = max + logits.iter().map(|&l| (l - max).exp()).sum::<f64>().ln();
        log_z - logits[y]
    }

    /// Forward + backward for one example; returns (loss, per-layer weight
    /// gradients, per-layer bias gradients).
    pub(crate) fn backprop(&self, x: &[f64], y: usize) -> (f64, Vec<Vec<f64>>, Vec<Vec<f64>>) {
        // Forward, caching activations (input of each layer).
        let mut acts: Vec<Vec<f64>> = vec![x.to_vec()];
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(acts.last().expect("non-empty"));
            if i + 1 < self.layers.len() {
                for v in &mut z {
                    *v = self.activation.apply(*v);
                }
            }
            acts.push(z);
        }
        // Softmax cross-entropy gradient at the logits.
        let logits = acts.last().expect("non-empty").clone();
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        let loss = z.ln() + max - logits[y];
        let mut delta: Vec<f64> = exps.iter().map(|&e| e / z).collect();
        delta[y] -= 1.0;

        let mut grads_w: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut grads_b: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        for li in (0..self.layers.len()).rev() {
            let layer = &self.layers[li];
            let input = &acts[li];
            for o in 0..layer.outputs {
                grads_b[li][o] = delta[o];
                for i in 0..layer.inputs {
                    grads_w[li][o * layer.inputs + i] = delta[o] * input[i];
                }
            }
            if li > 0 {
                // Propagate delta through W and the previous activation.
                let mut prev_delta = vec![0.0; layer.inputs];
                for o in 0..layer.outputs {
                    for (i, prev_delta_i) in prev_delta.iter_mut().enumerate() {
                        *prev_delta_i += delta[o] * layer.w[o * layer.inputs + i];
                    }
                }
                for (i, d) in prev_delta.iter_mut().enumerate() {
                    *d *= self.activation.grad_from_output(acts[li][i]);
                }
                delta = prev_delta;
            }
        }
        (loss, grads_w, grads_b)
    }

    pub(crate) fn apply_update(
        &mut self,
        grads_w: &[Vec<f64>],
        grads_b: &[Vec<f64>],
        vel_w: &mut [Vec<f64>],
        vel_b: &mut [Vec<f64>],
        lr: f64,
        momentum: f64,
        weight_decay: f64,
    ) {
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (w, (g, v)) in layer
                .w
                .iter_mut()
                .zip(grads_w[li].iter().zip(vel_w[li].iter_mut()))
            {
                *v = momentum * *v - lr * (g + weight_decay * *w);
                *w += *v;
            }
            for (b, (g, v)) in layer
                .b
                .iter_mut()
                .zip(grads_b[li].iter().zip(vel_b[li].iter_mut()))
            {
                *v = momentum * *v - lr * g;
                *b += *v;
            }
        }
    }

    pub(crate) fn zero_like(&self) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        (
            self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_param_count() {
        let mlp = Mlp::new(4, &[8, 8], 3, Activation::Relu, 0.1, 0);
        // (4*8+8) + (8*8+8) + (8*3+3) = 40 + 72 + 27.
        assert_eq!(mlp.num_params(), 139);
        assert_eq!(mlp.logits(&[0.0; 4]).len(), 3);
    }

    #[test]
    fn loss_is_log_classes_at_init_with_tiny_weights() {
        let mlp = Mlp::new(2, &[4], 3, Activation::Tanh, 1e-6, 1);
        let loss = mlp.loss_one(&[0.5, -0.5], 0);
        assert!((loss - 3f64.ln()).abs() < 1e-3, "loss {loss}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut mlp = Mlp::new(2, &[3], 2, Activation::Tanh, 0.5, 2);
        let x = [0.3, -0.7];
        let y = 1;
        let (_, grads_w, _) = mlp.backprop(&x, y);
        // Check a handful of weights in each layer numerically.
        let eps = 1e-6;
        for li in 0..2 {
            for wi in 0..mlp.layers[li].w.len().min(4) {
                let orig = mlp.layers[li].w[wi];
                mlp.layers[li].w[wi] = orig + eps;
                let up = mlp.loss_one(&x, y);
                mlp.layers[li].w[wi] = orig - eps;
                let down = mlp.loss_one(&x, y);
                mlp.layers[li].w[wi] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grads_w[li][wi];
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "layer {li} w{wi}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = Mlp::new(2, &[4], 2, Activation::Relu, 0.1, 7);
        let b = Mlp::new(2, &[4], 2, Activation::Relu, 0.1, 7);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn one_class_rejected() {
        let _ = Mlp::new(2, &[4], 1, Activation::Relu, 0.1, 0);
    }
}
